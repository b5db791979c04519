/**
 * @file
 * Draft-token proposers for speculative decoding (docs/speculation.md).
 *
 * A Drafter proposes a short continuation of a request's token sequence
 * (prompt plus everything generated so far). The scheduler stacks the
 * proposed tokens into one multi-row *verification* step — the same
 * segment shape prefill already uses — reads the model's token at every
 * drafted position, and accepts the longest agreeing prefix; rejected
 * rows are popped again with KVCache::truncateRows. Acceptance compares
 * against exactly the token the request's own readout (greedy argmax or
 * the seeded sampler) would have produced, so speculative decode emits
 * bit-identical tokens to plain decode — the drafter only changes how
 * many scheduler iterations that takes.
 *
 * The contract every Drafter must honor: draft(tokens, k) is a pure
 * function of `tokens` (and the drafter's own construction parameters).
 * Internal state is allowed only as a cache of work: it must never make
 * the proposal depend on call history, admission order, batch size, or
 * worker count; that is what keeps speculative scheduling inside the
 * runtime's scheduling-independence contract
 * (tests/test_speculation.cc).
 *
 * The one implementation, PromptLookupDrafter, is n-gram prompt lookup:
 * find the longest suffix of `tokens` (up to maxNgram tokens) that
 * re-occurs earlier in the sequence, take the most recent earlier
 * occurrence, and propose the tokens that followed it. Zero model cost;
 * strong on the repetitive continuations greedy decode settles into.
 */

#ifndef TENDER_RUNTIME_DRAFT_H
#define TENDER_RUNTIME_DRAFT_H

#include <memory>
#include <vector>

namespace tender {

/** Which draft-token proposer a speculating request runs. */
enum class DrafterKind
{
    None = 0,     ///< speculation off (plain one-token steps)
    PromptLookup, ///< n-gram suffix lookup in prompt + generated
};

const char *drafterKindName(DrafterKind kind);

/** Per-request speculative-decoding configuration (docs/speculation.md).
 *  Carried on GenRequest / ServeRequest; DrafterKind::None disables
 *  speculation. Incompatible with a quantizing DecodeOptions::scheme —
 *  a scheme's activation chunk scales depend on the rows a projection
 *  sees, so multi-row verify steps would change tokens (same reason the
 *  prefix cache rejects schemes). */
struct SpeculationParams
{
    /** Draft proposer to run; None = plain decode. */
    DrafterKind drafter = DrafterKind::None;
    /** Draft tokens proposed per verification step (k). The scheduler
     *  additionally caps each step's draft so (a) the transient KV rows
     *  never exceed the request's admission reservation and (b) in
     *  quantized mode no draft row lands in a chunk that would freeze
     *  (frozen chunks are never reopened by rollback). */
    int maxDraft = 4;
    /** PromptLookup: longest suffix n-gram tried before giving up. */
    int lookupMaxNgram = 3;
};

/** Draft-token proposer interface; see file comment for the purity
 *  contract. */
class Drafter
{
  public:
    virtual ~Drafter() = default;

    virtual const char *name() const = 0;

    /** Propose up to `max_tokens` (>= 1) continuation tokens for
     *  `tokens` (the request's prompt plus generated tokens, non-empty).
     *  May return fewer, or empty — the scheduler then runs a plain
     *  single-row step. Must be a pure function of `tokens`. */
    virtual std::vector<int> draft(const std::vector<int> &tokens,
                                   int max_tokens) = 0;
};

/** N-gram prompt-lookup drafter (stateless). */
class PromptLookupDrafter : public Drafter
{
  public:
    explicit PromptLookupDrafter(int max_ngram);

    const char *name() const override { return "prompt-lookup"; }

    std::vector<int> draft(const std::vector<int> &tokens,
                           int max_tokens) override;

  private:
    int maxNgram_;
};

/** Build the drafter `params` asks for (validating its fields), or null
 *  for DrafterKind::None. */
std::unique_ptr<Drafter> makeDrafter(const SpeculationParams &params);

} // namespace tender

#endif // TENDER_RUNTIME_DRAFT_H
