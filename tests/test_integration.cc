/**
 * @file
 * Cross-module integration tests: the full calibrate → quantize →
 * implicit-requantize → dequantize pipeline against the FP32 transformer
 * reference, MSA/simulator cross-validation, bit-width extension
 * (Section III-A: "Tender can be easily extended to other bit widths"),
 * and end-to-end accuracy/performance consistency checks.
 */

#include <gtest/gtest.h>

#include "core/calibrate.h"
#include "core/msa_functional.h"
#include "core/tender_scheme.h"
#include "model/quant_executor.h"
#include "model/perplexity.h"
#include "quant/metrics.h"
#include "sim/baselines.h"

namespace tender {
namespace {

SyntheticModel
tinyModel(uint64_t seed = 1)
{
    ModelConfig cfg = replicaOf(modelByName("OPT-6.7B"), 32);
    cfg.nLayers = 2;
    return SyntheticModel(cfg, seed);
}

TEST(Integration, CalibratedPipelineEndToEnd)
{
    // Calibrate on the attention input of a real forward pass, then run
    // the frozen metadata on held-out batches; error stays within a
    // modest factor of the dynamic oracle.
    SyntheticModel model = tinyModel();
    const BlockWeights &bw = model.blockWeights(0);
    TenderConfig cfg;
    cfg.bits = 8;
    cfg.rowChunk = 16;

    TenderCalibrator cal(cfg);
    for (uint64_t b = 0; b < 8; ++b) {
        Matrix x = model.sampleInput(32, b);
        cal.observe(layerNorm(x, bw.ln1Gain, bw.ln1Bias));
    }
    auto metas = cal.finalize();

    Matrix x_eval = layerNorm(model.sampleInput(32, 555), bw.ln1Gain,
                              bw.ln1Bias);
    Matrix ref = gemm(x_eval, bw.wq);
    const double e_static =
        nmse(ref, tenderMatmulCalibrated(x_eval, bw.wq, metas, cfg));
    const double e_dyn = nmse(ref, tenderMatmul(x_eval, bw.wq, cfg));
    EXPECT_LT(e_static, 1e-2);
    EXPECT_LT(e_static, e_dyn * 50.0);
}

class BitWidthSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BitWidthSweep, TenderExtendsToOtherWidths)
{
    // Section III-A: the same algorithm at 5/6/7 bits; error shrinks
    // monotonically with width and implicit == explicit at every width.
    const int bits = GetParam();
    SyntheticModel model = tinyModel(2);
    const BlockWeights &bw = model.blockWeights(0);
    Matrix x = layerNorm(model.sampleInput(24, 9), bw.ln1Gain, bw.ln1Bias);
    TenderConfig cfg;
    cfg.bits = bits;
    cfg.rowChunk = 0;
    Matrix ref = gemm(x, bw.wq);
    const double e = nmse(ref, tenderMatmul(x, bw.wq, cfg));
    EXPECT_LT(e, 1.0);
    EXPECT_LE(nmse(tenderMatmulExplicit(x, bw.wq, cfg),
                   tenderMatmul(x, bw.wq, cfg)),
              1e-8);

    TenderConfig wider = cfg;
    wider.bits = bits + 1;
    EXPECT_LE(nmse(ref, tenderMatmul(x, bw.wq, wider)), e * 1.05)
        << "width " << bits + 1 << " worse than " << bits;
}

INSTANTIATE_TEST_SUITE_P(Widths, BitWidthSweep,
                         ::testing::Values(3, 4, 5, 6, 7));

TEST(Integration, MsaMatchesSimulatorCycleFormula)
{
    // The perf simulator's pipelined steady-state cost (k + G - 1) is the
    // functional model's stream length; the standalone first-tile cost
    // matches the measured compute cycles exactly.
    Rng rng(3);
    IntMatrix a(16, 40), b(40, 16);
    for (auto &v : a.data())
        v = int32_t(rng.randint(-7, 7));
    for (auto &v : b.data())
        v = int32_t(rng.randint(-7, 7));
    std::vector<int> sizes = {2, 6, 32};
    MsaTileResult res = msaComputeTile(a, b, sizes, MsaConfig{});
    SystolicConfig scfg;
    EXPECT_EQ(res.computeCycles,
              tileCycles(scfg, 16, 16, 40, 3, /*pipelined=*/false));
    EXPECT_EQ(int64_t(40 + 3 - 1),
              tileCycles(scfg, 16, 16, 40, 3, /*pipelined=*/true));
}

TEST(Integration, ProxyPipelineOrdersPrecisions)
{
    // Full accuracy pipeline: anchors + scheme errors -> proxy ppl must
    // order INT8 < INT4 for the same scheme and keep Tender below
    // per-tensor at both widths.
    SyntheticModel model = tinyModel(4);
    Matrix input = model.sampleInput(32, 7);
    auto err = [&](const GemmScheme &s) {
        return aggregateError(runQuantized(model, input, s).records);
    };
    const double e8 = err(UniformScheme(8, Granularity::PerTensor));
    const double e4 = err(UniformScheme(4, Granularity::PerTensor));
    PplModel ppl = anchorPplModel(10.86, e8, 26.73, e4, 1e6);

    TenderConfig t8;
    t8.bits = 8;
    t8.rowChunk = 16;
    TenderConfig t4 = t8;
    t4.bits = 4;
    const double ppl_t8 = ppl.eval(err(TenderScheme(t8)));
    const double ppl_t4 = ppl.eval(err(TenderScheme(t4)));
    EXPECT_LT(ppl_t8, ppl_t4);
    EXPECT_LT(ppl_t8, 26.73);  // Tender INT8 beats the per-tensor anchor
    EXPECT_LT(ppl_t4, 1e6);    // Tender INT4 beats the INT4 anchor
}

TEST(Integration, SpeedupAndEnergyOrderingsAgree)
{
    // Fig. 10 and Fig. 11 must order the accelerators the same way on a
    // given workload (Tender best, ANT worst).
    ModelConfig cfg = modelByName("OPT-6.7B");
    cfg.nLayers = 2;
    Workload w = prefillWorkload(cfg, 256);
    const DramConfig dram = defaultDramConfig();
    std::vector<double> cycles, energy;
    for (const AcceleratorConfig &acc : speedupAccelerators()) {
        AcceleratorSim sim(acc, dram);
        SimResult r = sim.run(w);
        cycles.push_back(double(r.cycles));
        energy.push_back(
            computeEnergy(r.counters,
                          energyParamsFor(acc.name.c_str())).totalUj);
    }
    // Order in speedupAccelerators(): ANT, OLAccel, OliVe, Tender.
    for (size_t i = 1; i < cycles.size(); ++i) {
        EXPECT_LT(cycles[i], cycles[i - 1]) << i;
        EXPECT_LT(energy[i], energy[i - 1]) << i;
    }
}

TEST(Integration, DecodeStageUnderUtilizesCompute)
{
    // Section V-A: "the under-utilization issue of most commercial
    // accelerators can be large" in the generation stage. On the
    // output-stationary array a batch-1 decode streams the full reduction
    // for a single output row, so achieved MACs/cycle collapse relative
    // to prefill.
    ModelConfig cfg = modelByName("OPT-6.7B");
    cfg.nLayers = 2;
    const DramConfig dram = defaultDramConfig();
    AcceleratorSim sim(tenderConfig(), dram);
    SimResult prefill = sim.run(prefillWorkload(cfg, 1024));
    SimResult decode = sim.run(decodeWorkload(cfg, 1024));
    const double peak = 64.0 * 64.0; // MACs per cycle
    const double util_prefill =
        double(prefill.counters.macInt4) / double(prefill.cycles) / peak;
    const double util_decode =
        double(decode.counters.macInt4) / double(decode.cycles) / peak;
    EXPECT_GT(util_prefill, 0.5);
    EXPECT_LT(util_decode, 0.05);
    EXPECT_LT(util_decode * 10.0, util_prefill);
}

TEST(Integration, TenderAllQuantizesEverything)
{
    // "Tender (all)": with act-act quantization on, every GEMM type
    // appears in the records and total error grows but stays bounded.
    SyntheticModel model = tinyModel(5);
    Matrix input = model.sampleInput(16, 11);
    TenderConfig cfg;
    cfg.bits = 8;
    cfg.rowChunk = 8;
    ExecOptions all;
    all.quantizeActAct = true;
    QuantRunResult res =
        runQuantized(model, input, TenderScheme(cfg), all);
    bool has_scores = false, has_attnv = false;
    for (const GemmRecord &r : res.records) {
        has_scores |= r.op == "scores";
        has_attnv |= r.op == "attnv";
        EXPECT_LT(r.nmse, 1.0) << r.op;
    }
    EXPECT_TRUE(has_scores);
    EXPECT_TRUE(has_attnv);
}

TEST(Integration, GqaModelRunsQuantized)
{
    // Llama-2-70B-style grouped-query attention through the whole
    // quantized pipeline.
    ModelConfig cfg = replicaOf(modelByName("Llama-2-70B"), 32);
    cfg.nLayers = 2;
    SyntheticModel model(cfg, 6);
    ASSERT_LT(cfg.kvHeads, cfg.nHeads);
    Matrix input = model.sampleInput(16, 3);
    TenderConfig tcfg;
    tcfg.bits = 8;
    tcfg.rowChunk = 8;
    ExecOptions all;
    all.quantizeActAct = true;
    QuantRunResult res =
        runQuantized(model, input, TenderScheme(tcfg), all);
    EXPECT_LT(aggregateError(res.records), 0.1);
    EXPECT_LE(maxAbsDiff(res.reference, res.output) /
                  (float(frobeniusNorm(res.reference)) + 1.f),
              1.f);
}

TEST(Integration, EncoderModelRunsQuantized)
{
    // BERT-style bidirectional encoder (GELU FFN) end to end.
    ModelConfig cfg = replicaOf(modelByName("BERT-Large"), 8);
    cfg.nLayers = 2;
    SyntheticModel model(cfg, 7);
    Matrix input = model.sampleInput(16, 4);
    TenderConfig tcfg;
    tcfg.bits = 4;
    tcfg.rowChunk = 8;
    QuantRunResult res =
        runQuantized(model, input, TenderScheme(tcfg));
    EXPECT_GT(res.records.size(), 0u);
    EXPECT_LT(aggregateError(res.records), 0.5);
}

TEST(Integration, Int8AccumulatorSafetyBoundary)
{
    // Documents the Fig. 9 sweep boundary: INT8 with 16 groups can
    // overflow the 32-bit accumulator on adversarial (all-max-code)
    // data, while 8 groups stays safe on the same tensor.
    // Alternating signs keep the channel bias at zero so every channel
    // quantizes to full-range codes.
    Matrix x(4, 64);
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 64; ++c)
            x(r, c) = ((r % 2) ? 1.f : -1.f) *
                ((c == 0) ? 127.f : 127.f / float(1 << (c % 7)));
    Matrix w(64, 4, 1.f);
    TenderConfig safe;
    safe.bits = 8;
    safe.numGroups = 8;
    safe.rowChunk = 0;
    TenderGemmStats stats;
    tenderMatmul(x, w, safe, &stats); // must not panic
    EXPECT_FALSE(stats.overflow32);

    TenderConfig risky = safe;
    risky.numGroups = 26; // shift budget beyond 2^25 * max partial sum
    EXPECT_DEATH(tenderMatmul(x, w, risky), "overflow");
    // On a pooled backend a prepared weight folds only chunks inside the
    // per-chunk bound; this one falls back to the golden walk and its
    // overflow check. One worker keeps the death test's fork free of
    // pool threads.
    KernelContext threaded(Backend::Threaded, 1);
    TenderScheme scheme(risky);
    scheme.setKernels(&threaded);
    EXPECT_DEATH(scheme.prepare(w)->matmul(x), "overflow");
}

TEST(Integration, DeterministicAcrossRuns)
{
    // The whole pipeline is bit-reproducible for a fixed seed.
    SyntheticModel m1 = tinyModel(9), m2 = tinyModel(9);
    Matrix i1 = m1.sampleInput(16, 2), i2 = m2.sampleInput(16, 2);
    TenderConfig cfg;
    cfg.rowChunk = 8;
    QuantRunResult r1 = runQuantized(m1, i1, TenderScheme(cfg));
    QuantRunResult r2 = runQuantized(m2, i2, TenderScheme(cfg));
    EXPECT_LE(maxAbsDiff(r1.output, r2.output), 0.f);
    EXPECT_DOUBLE_EQ(aggregateError(r1.records),
                     aggregateError(r2.records));
}

} // namespace
} // namespace tender
