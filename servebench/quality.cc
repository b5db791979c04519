#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "serve/sampler.h"

namespace servebench {

namespace {

/** Logits rows of one teacher-forced request: row p predicts out[p]. */
std::vector<tender::Matrix>
teacherForce(tender::SyntheticModel &model, const tender::Vocab &vocab,
             const tender::DecodeOptions &options,
             const tender::KernelContext &kc, const std::vector<int> &prompt,
             const std::vector<int> &out)
{
    tender::DecodeEngine engine(model, options);
    tender::Matrix h = engine.prefill(vocab.embedAll(prompt));
    std::vector<tender::Matrix> logits;
    for (size_t p = 0; p < out.size(); ++p) {
        logits.push_back(vocab.logits(h, h.rows() - 1, kc));
        if (p + 1 < out.size())
            h = engine.step(vocab.embed(out[p]));
    }
    return logits;
}

/** Reference replays run on this many threads beside the served replays;
 *  each thread owns a serial kernel context. */
constexpr int kReferenceThreads = 2;

} // namespace

Quality
measureQuality(tender::SyntheticModel &model, const ServeConfig &cfg,
               const tender::GemmScheme *scheme,
               const tender::KernelContext &served,
               const std::deque<RequestRecord> &records,
               const std::vector<std::vector<int>> &outputs,
               const std::vector<int> &which, int positions)
{
    const tender::SchedulerOptions &so = cfg.scheduler;
    const tender::Vocab vocab(so.vocabSize, model.config().dModel,
                              so.vocabSeed);
    std::vector<std::vector<int>> outs;
    for (const int i : which) {
        const std::vector<int> &o = outputs[size_t(i)];
        outs.emplace_back(o.begin(),
                          o.begin() + std::min(o.size(), size_t(positions)));
    }

    // Reference: fp32 KV, no scheme, serial backend.
    std::vector<std::vector<tender::Matrix>> ref(which.size());
    std::atomic<size_t> next{0};
    const auto reference = [&] {
        const tender::KernelContext serial(tender::Backend::Serial);
        tender::DecodeOptions options;
        options.cache.mode = tender::KVCacheMode::Fp32;
        options.kernels = &serial;
        for (size_t j; (j = next++) < which.size();)
            ref[j] = teacherForce(
                model, vocab, options, serial,
                records[size_t(which[j])].spec.promptTokens, outs[j]);
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kReferenceThreads; ++t)
        threads.emplace_back(reference);

    tender::DecodeOptions servedOptions;
    servedOptions.cache = so.decode.cache;
    servedOptions.scheme = scheme;
    servedOptions.kernels = &served;
    servedOptions.fusedQuantKv = so.decode.fusedQuantKv;
    servedOptions.mqAttentionPanels = so.decode.mqAttentionPanels;
    std::vector<std::vector<tender::Matrix>> srv;
    for (size_t j = 0; j < which.size(); ++j)
        srv.push_back(teacherForce(model, vocab, servedOptions, served,
                                   records[size_t(which[j])].spec.promptTokens,
                                   outs[j]));
    for (std::thread &t : threads)
        t.join();

    Quality q;
    for (size_t j = 0; j < which.size(); ++j) {
        const tender::SamplingParams &sampling =
            records[size_t(which[j])].spec.sampling;
        for (size_t p = 0; p < outs[j].size(); ++p) {
            const tender::Matrix &ls = srv[j][p];
            const tender::Matrix &lr = ref[j][p];
            for (int c = 0; c < lr.cols(); ++c) {
                const double d = double(ls(0, c)) - double(lr(0, c));
                q.errSq += d * d;
                q.refSq += double(lr(0, c)) * double(lr(0, c));
            }
            if (tender::sampleToken(ls, sampling, int(p)) != outs[j][p])
                ++q.replayMismatch;
            if (tender::sampleToken(lr, sampling, int(p)) == outs[j][p])
                ++q.matches;
            ++q.positions;
        }
        ++q.requests;
    }
    return q;
}

} // namespace servebench
