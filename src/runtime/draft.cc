#include "runtime/draft.h"

#include <algorithm>

#include "util/check.h"

namespace tender {

const char *
drafterKindName(DrafterKind kind)
{
    switch (kind) {
    case DrafterKind::None: return "none";
    case DrafterKind::PromptLookup: return "prompt-lookup";
    }
    return "?";
}

PromptLookupDrafter::PromptLookupDrafter(int max_ngram)
    : maxNgram_(max_ngram)
{
    TENDER_REQUIRE(max_ngram > 0,
                   "PromptLookupDrafter needs lookupMaxNgram > 0");
}

std::vector<int>
PromptLookupDrafter::draft(const std::vector<int> &tokens, int max_tokens)
{
    TENDER_CHECK(!tokens.empty() && max_tokens >= 1);
    const int len = int(tokens.size());
    // Longest suffix n-gram first; among equal-length matches the most
    // recent earlier occurrence wins (its continuation reflects the
    // newest behavior of the sequence). Both loops are over the token
    // values alone, so the proposal is a pure function of `tokens`.
    const int max_n = std::min(maxNgram_, len - 1);
    for (int n = max_n; n >= 1; --n) {
        const int *suffix = tokens.data() + (len - n);
        for (int i = len - n - 1; i >= 0; --i) {
            if (!std::equal(suffix, suffix + n, tokens.data() + i))
                continue;
            // Occurrence at [i, i+n); propose what followed it.
            const int from = i + n;
            const int take = std::min(max_tokens, len - from);
            return std::vector<int>(tokens.begin() + from,
                                    tokens.begin() + from + take);
        }
    }
    return {};
}

std::unique_ptr<Drafter>
makeDrafter(const SpeculationParams &params)
{
    if (params.drafter == DrafterKind::None)
        return nullptr;
    TENDER_REQUIRE(params.maxDraft > 0,
                   "SpeculationParams::maxDraft must be positive when a"
                   " drafter is selected");
    return std::make_unique<PromptLookupDrafter>(params.lookupMaxNgram);
}

} // namespace tender
