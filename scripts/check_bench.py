#!/usr/bin/env python3
"""Gate the bench JSON artifacts for CI (the bench smoke job).

Usage: scripts/check_bench.py BENCH_gemm.json BENCH_decode.json \
           [--compare-baseline BASELINE_decode.json]

Fails (exit 1) when a file is missing or malformed JSON, or when any
recorded correctness field regresses:

  BENCH_gemm.json
    gemm.max_abs_diff == 0            threaded fp32 GEMM is bit-identical
    tender.nmse_threaded_vs_serial == 0   the threaded Tender pipeline
        (the fold, or the golden walk for chunks outside its bound) is
        bit-identical to the serial golden walk
    gemm_packed.simd_gemm_nmse <= bound   packed SIMD fp32 GEMM vs the
        serial golden oracle (the packed arm trades bit-parity for speed)
    gemm_packed.int8_bitexact             packed gemmInt8 stays bit-exact
    tender_packed.nmse_packed_vs_serial == 0   the Tender pipeline under
        the packed arm only touches exact integer loops, so it is held to
        the threaded arm's bit-parity bar
    tender_prepared.prepared_bitexact     a weight quantized once
        (TenderScheme::prepare) gives products bit-identical to the
        per-call pipeline on every backend
    tender_prepared.shapes[*].fold_fallback_chunks present, and at least
        one shape with k > 1040 (past the old fold shape bound), so the
        prepared gate keeps covering the shapes the group walk served
    tender_segmented.segmented_bitexact   a serving step's segmented
        product (one pass over every request's rows, chunks restarting at
        each segment) equals the per-segment loop bit for bit on the
        serial, threaded and packed backends

  BENCH_decode.json
    correctness.fp32_decode_bit_exact     paged fp32 KV decode == prefill
    correctness.tender_kv_nmse <= bound   quantized-KV storage error
    correctness.fused_attention_nmse <= bound   fused integer-domain
        attention vs the dequantize-on-read oracle
    correctness.mq_panel_bitexact         multi-query attention panels
        reproduce the per-head fan-out bit for bit (every KV mode,
        OPT-replica and GQA models)
    churn_*.peak_kv_bytes_ratio > 1       paged layout beats contiguous
    prefix_shared.prefix_reuse_bitexact   shared-prefix decode tokens ==
        cold decode (fp32 and quantized) and adopted quantized pages
        carry bit-identical chunk codes
    prefix_shared.refcounts_consistent    block-pool refcount audit holds
        and clearing the prefix cache returns every block
    mixed_traffic.sampling_order_independent   every request's sampled
        tokens are bit-identical under reversed admission order, a
        different batch cap, and a different worker count (the serving
        layer's extension of the scheduling-independence contract); the
        per-priority-class TTFT/ITL percentile fields must be present
        (their values are recorded, never gated — they are runner-speed)
    preemption_pressure.preempt_resume_bitexact   the preemption-on arm
        (which must actually preempt) produces the same tokens per
        request as the uninterrupted preemption-off arm, in both KV
        modes — the freeze/park/resume contract
    preemption_pressure.refcounts_consistent   park accounting settles
        (parks == unparks, zero parked blocks after drain) and every
        block returns once the prefix cache is cleared; per-arm
        Interactive TTFT percentiles must be present (recorded, not
        gated)
    fault_churn.fault_isolation_bitexact   under a seeded fault plan
        (KV allocation failures, throwing callbacks, step latency) plus
        queue-overflow and deadline shedding, every surviving request's
        tokens are bit-identical to the fault-free run, in all three
        decode arms (fp32, quantized, fused)
    fault_churn.refcounts_consistent   every failed request returned all
        its KV blocks and undrawn reservation: the pool settles to zero
        after the faulted run drains
    spec_decode.spec_decode_bitexact   every speculative run's tokens
        (both drafters, every k, all three KV arms) are bit-identical
        to the plain run's — the accept-only-what-the-model-would-emit
        verification contract (docs/speculation.md); acceptance rates
        and speedups are recorded, never gated (workload-dependent)

Perf numbers (tokens/s, GFLOP/s) are recorded but never gated here — they
vary with the runner; correctness must not.

--compare-baseline is the perf-tracking hook (warn, never fail): tokens/s
fields of the checked decode JSON are compared against a committed
baseline, and any drop past 20% is reported. The comparison only runs
when both files were produced at the same scale (matching "smoke" flags).
When both files carry a "calibration" block (the fixed reference-workload
score recorded by the bench binaries), candidate tokens/s are normalized
by baseline_score / candidate_score first, so a slower or noisier hosted
runner stops reading as a regression — which is what makes the warning a
usable signal off a pinned runner.
"""

import json
import sys

REGRESSION_TOLERANCE = 0.20


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{path}: missing")
    except json.JSONDecodeError as e:
        fail(f"{path}: malformed JSON: {e}")


def check_gemm(path):
    doc = load(path)
    diff = doc["gemm"]["max_abs_diff"]
    if diff != 0:
        fail(f"{path}: gemm.max_abs_diff = {diff}, expected exactly 0 "
             "(threaded backend must be bit-identical to serial)")
    nmse = doc["tender"]["nmse_threaded_vs_serial"]
    if nmse != 0:
        fail(f"{path}: tender.nmse_threaded_vs_serial = {nmse}, expected "
             "exactly 0 (the folded product must be bit-identical to the "
             "golden walk)")
    packed = doc["gemm_packed"]
    simd_nmse = packed["simd_gemm_nmse"]
    simd_bound = packed["simd_gemm_nmse_bound"]
    if not (0 <= simd_nmse <= simd_bound):
        fail(f"{path}: gemm_packed.simd_gemm_nmse = {simd_nmse} outside "
             f"[0, {simd_bound}] (packed SIMD fp32 GEMM drifted from the "
             "serial golden oracle)")
    if packed["int8_bitexact"] is not True:
        fail(f"{path}: gemm_packed.int8_bitexact is "
             f"{packed['int8_bitexact']} (packed gemmInt8 must be "
             "bit-identical to the golden kernel on every path)")
    tp_nmse = doc["tender_packed"]["nmse_packed_vs_serial"]
    if tp_nmse != 0:
        fail(f"{path}: tender_packed.nmse_packed_vs_serial = {tp_nmse}, "
             "expected exactly 0 (the packed Tender pipeline only touches "
             "exact integer loops)")
    prepared = doc["tender_prepared"]["prepared_bitexact"]
    if prepared is not True:
        fail(f"{path}: tender_prepared.prepared_bitexact is {prepared} "
             "(products on a prepared weight must be bit-identical to the "
             "per-call pipeline)")
    shapes = doc["tender_prepared"]["shapes"]
    for shape in shapes:
        if "fold_fallback_chunks" not in shape:
            fail(f"{path}: tender_prepared shape k={shape.get('k')} "
                 f"n={shape.get('n')} m={shape.get('m')} lacks "
                 "fold_fallback_chunks (how many of its chunks ran the "
                 "golden walk)")
    if not any(shape["k"] > 1040 for shape in shapes):
        fail(f"{path}: tender_prepared has no shape with k > 1040 (the "
             "prepared gate must cover the shapes past the old fold "
             "bound)")
    segmented = doc["tender_segmented"]["segmented_bitexact"]
    if segmented is not True:
        fail(f"{path}: tender_segmented.segmented_bitexact is {segmented} "
             "(a segmented product must be bit-identical to multiplying "
             "each segment on its own)")
    print(f"check_bench: {path}: gemm bit-parity OK; packed arm "
          f"({doc.get('packed_backend', '?')}, simd {doc.get('simd', '?')}) "
          f"simd_gemm_nmse {simd_nmse:.3g} <= {simd_bound:.3g}, int8 "
          "bit-exact, tender packed bit-exact, prepared weights and "
          "segmented steps bit-exact")


def check_decode(path):
    doc = load(path)
    correct = doc["correctness"]
    if correct["fp32_decode_bit_exact"] is not True:
        fail(f"{path}: correctness.fp32_decode_bit_exact is "
             f"{correct['fp32_decode_bit_exact']} (paged fp32 KV decode "
             "must be bit-identical to full prefill)")
    for field in ("tender_kv_nmse", "fused_attention_nmse"):
        nmse = correct[field]
        bound = correct[f"{field}_bound"]
        if not (0 <= nmse <= bound):
            fail(f"{path}: correctness.{field} = {nmse} outside "
                 f"[0, {bound}]")
    if correct["mq_panel_bitexact"] is not True:
        fail(f"{path}: correctness.mq_panel_bitexact is "
             f"{correct['mq_panel_bitexact']} (multi-query attention "
             "panels must reproduce the per-head fan-out bit for bit)")
    for key in ("churn_fp32", "churn_tender"):
        ratio = doc[key]["peak_kv_bytes_ratio"]
        if not ratio > 1.0:
            fail(f"{path}: {key}.peak_kv_bytes_ratio = {ratio}, expected "
                 "> 1 (paged peak KV bytes must undercut contiguous slabs)")
        tps = doc[key]["tokens_per_s_ratio"]
        print(f"check_bench: {path}: {key} peak bytes {ratio:.2f}x smaller "
              f"paged, tokens/s ratio {tps:.2f} (recorded, not gated)")
    prefix = doc["prefix_shared"]
    if prefix["prefix_reuse_bitexact"] is not True:
        fail(f"{path}: prefix_shared.prefix_reuse_bitexact is "
             f"{prefix['prefix_reuse_bitexact']} (shared-prefix decode "
             "must match cold decode token-for-token and adopted "
             "quantized pages must carry bit-identical chunk codes)")
    if prefix["refcounts_consistent"] is not True:
        fail(f"{path}: prefix_shared.refcounts_consistent is "
             f"{prefix['refcounts_consistent']} (block refcount audit "
             "failed or clearing the prefix cache leaked blocks)")
    for mode in ("fp32", "tender"):
        arm = prefix[mode]
        print(f"check_bench: {path}: prefix_shared.{mode} skipped "
              f"{arm['shared']['prefill_rows_skipped']} prefill rows, "
              f"peak KV {arm['peak_kv_bytes_ratio']:.2f}x smaller shared, "
              f"tokens/s ratio {arm['tokens_per_s_ratio']:.2f} "
              "(recorded, not gated)")
    traffic = doc["mixed_traffic"]
    if traffic["sampling_order_independent"] is not True:
        fail(f"{path}: mixed_traffic.sampling_order_independent is "
             f"{traffic['sampling_order_independent']} (sampled tokens "
             "must not depend on admission order, batch size, or worker "
             "count)")
    for cls in ("interactive", "batch"):
        arm = traffic[cls]
        # Presence is the gate; the values are runner-speed, so they are
        # recorded but never thresholded.
        for field in ("ttft_p50_us", "ttft_p95_us", "itl_p50_us",
                      "itl_p95_us"):
            if field not in arm:
                fail(f"{path}: mixed_traffic.{cls}.{field} missing "
                     "(TTFT/ITL percentiles must be recorded per "
                     "priority class)")
        print(f"check_bench: {path}: mixed_traffic.{cls} "
              f"({arm['requests']} requests) TTFT p50/p95 "
              f"{arm['ttft_p50_us']:.0f}/{arm['ttft_p95_us']:.0f} us, ITL "
              f"p50/p95 {arm['itl_p50_us']:.0f}/{arm['itl_p95_us']:.0f} us "
              "(recorded, not gated)")
    print(f"check_bench: {path}: mixed_traffic sampled tokens independent "
          f"of scheduling ({traffic['prefix_hits']} prefix hits, "
          f"{traffic['overtakes']} overtakes, {traffic['deferred']} "
          "deferrals)")
    pressure = doc["preemption_pressure"]
    if pressure["preempt_resume_bitexact"] is not True:
        fail(f"{path}: preemption_pressure.preempt_resume_bitexact is "
             f"{pressure['preempt_resume_bitexact']} (preempted-and-"
             "resumed requests must produce exactly the tokens of the "
             "uninterrupted run, and the on arm must actually preempt)")
    if pressure["refcounts_consistent"] is not True:
        fail(f"{path}: preemption_pressure.refcounts_consistent is "
             f"{pressure['refcounts_consistent']} (park accounting "
             "leaked: refcount audit failed, parks != unparks, or "
             "blocks stayed out after the prefix cache was cleared)")
    for mode in ("fp32", "tender"):
        arm = pressure[mode]
        for side in ("on", "off"):
            for field in ("ttft_p50_us", "ttft_p95_us"):
                if field not in arm[side]["interactive"]:
                    fail(f"{path}: preemption_pressure.{mode}.{side}."
                         f"interactive.{field} missing (per-arm TTFT "
                         "percentiles must be recorded)")
        if not arm["on"]["preemptions"] > 0:
            fail(f"{path}: preemption_pressure.{mode}.on.preemptions = "
                 f"{arm['on']['preemptions']} (the on arm never "
                 "preempted; the scenario exercised nothing)")
        print(f"check_bench: {path}: preemption_pressure.{mode} "
              f"{arm['on']['preemptions']} preemptions/"
              f"{arm['on']['resumes']} resumes, interactive TTFT p95 "
              f"{arm['on']['interactive']['ttft_p95_us']:.0f} us on vs "
              f"{arm['off']['interactive']['ttft_p95_us']:.0f} us off "
              f"({arm['interactive_ttft_p95_ratio']:.2f}x; recorded, "
              "not gated)")
    # .get-guarded: baselines predating the robustness layer lack it.
    churn = doc.get("fault_churn")
    if churn is not None:
        if churn["fault_isolation_bitexact"] is not True:
            fail(f"{path}: fault_churn.fault_isolation_bitexact is "
                 f"{churn['fault_isolation_bitexact']} (a surviving "
                 "request's tokens must be bit-identical to the "
                 "fault-free run in every decode arm — a contained "
                 "fault leaked into a co-scheduled request)")
        if churn["refcounts_consistent"] is not True:
            fail(f"{path}: fault_churn.refcounts_consistent is "
                 f"{churn['refcounts_consistent']} (a failed request "
                 "leaked KV blocks or reservation: the pool did not "
                 "settle to zero after the faulted run drained)")
        for mode in ("fp32", "tender", "tender_fused"):
            arm = churn[mode]
            print(f"check_bench: {path}: fault_churn.{mode} "
                  f"{arm['finished']} finished / {arm['failed']} failed "
                  f"({arm['shed_queue_full']} queue-full, "
                  f"{arm['shed_deadline']} deadline, "
                  f"{arm['alloc_faults']} alloc + "
                  f"{arm['callback_faults']} callback faults injected), "
                  f"survivors {arm['survivor_tokens_per_s']:.0f} tok/s "
                  "(recorded, not gated)")
        print(f"check_bench: {path}: fault_churn survivors bit-exact "
              f"under plan \"{churn['plan']}\", accounting settled")
    # .get-guarded: baselines predating speculative decoding lack it.
    spec = doc.get("spec_decode")
    if spec is not None:
        if spec["spec_decode_bitexact"] is not True:
            fail(f"{path}: spec_decode.spec_decode_bitexact is "
                 f"{spec['spec_decode_bitexact']} (a speculative run "
                 "emitted tokens the plain run would not have — the "
                 "verify loop accepted a draft token the model "
                 "disagrees with)")
        for mode in ("fp32", "tender", "tender_fused"):
            arm = spec[mode]
            for drafter in ("prompt_lookup", "draft_model"):
                for k in (2, 4, 8):
                    point = arm[drafter][f"k_{k}"]
                    # Presence is the gate; acceptance and speedup are
                    # workload- and runner-dependent, recorded only.
                    for field in ("tokens_per_s", "acceptance", "speedup"):
                        if field not in point:
                            fail(f"{path}: spec_decode.{mode}.{drafter}."
                                 f"k_{k}.{field} missing")
            best_pl = max(arm["prompt_lookup"][f"k_{k}"]["speedup"]
                          for k in (2, 4, 8))
            print(f"check_bench: {path}: spec_decode.{mode} plain "
                  f"{arm['plain_tokens_per_s']:.0f} tok/s, best "
                  f"prompt-lookup speedup {best_pl:.2f}x (recorded, "
                  "not gated)")
        print(f"check_bench: {path}: spec_decode tokens bit-exact vs "
              f"plain in every arm; best prompt-lookup speedup "
              f"{spec['best_prompt_lookup_speedup']:.2f}x "
              f"({spec['best_arm']}, k={spec['best_k']})")
    fused_ratio = doc["fused_over_dequant_tokens_ratio"]
    mq = doc.get("mq_panels")
    if mq is not None:
        for mode in ("fp32_kv", "tender_kv_fused"):
            arm = mq[mode]
            print(f"check_bench: {path}: mq_panels.{mode} "
                  f"({mq['model']}, batch {mq['batch']}) tokens/s ratio "
                  f"on/off {arm['ratio']:.2f} (recorded, not gated)")
    print(f"check_bench: {path}: decode correctness OK (fp32 bit-exact, "
          f"tender nmse {correct['tender_kv_nmse']:.3g}, fused nmse "
          f"{correct['fused_attention_nmse']:.3g}, mq panels bit-exact, "
          f"prefix reuse bit-exact, refcounts consistent, fused/dequant "
          f"tokens/s {fused_ratio:.2f}x recorded, backend "
          f"{doc.get('backend', '?')}, simd {doc.get('simd', '?')})")
    return doc


def iter_tokens_per_s(doc):
    """Yield (dotted-path, tokens/s) for every recorded throughput."""
    for mode in ("fp32_kv", "tender_kv", "tender_kv_fused"):
        for batch, point in doc.get(mode, {}).items():
            yield f"{mode}.{batch}", point["tokens_per_s"]
    for churn in ("churn_fp32", "churn_tender"):
        for arm in ("paged", "contiguous"):
            if churn in doc and arm in doc[churn]:
                yield f"{churn}.{arm}", doc[churn][arm]["tokens_per_s"]
    for mode in ("fp32", "tender"):
        for arm in ("shared", "cold"):
            point = doc.get("prefix_shared", {}).get(mode, {}).get(arm)
            if point is not None:
                yield f"prefix_shared.{mode}.{arm}", point["tokens_per_s"]
    # .get-guarded: baselines predating the serving front end lack it.
    traffic_tps = doc.get("mixed_traffic", {}).get("tokens_per_s")
    if traffic_tps is not None:
        yield "mixed_traffic", traffic_tps
    for mode in ("fp32", "tender"):
        for side in ("on", "off"):
            point = (doc.get("preemption_pressure", {}).get(mode, {})
                     .get(side))
            if point is not None:
                yield (f"preemption_pressure.{mode}.{side}",
                       point["tokens_per_s"])
    for mode in ("fp32", "tender", "tender_fused"):
        point = doc.get("fault_churn", {}).get(mode)
        if point is not None:
            yield f"fault_churn.{mode}", point["survivor_tokens_per_s"]
    for mode in ("fp32", "tender", "tender_fused"):
        arm = doc.get("spec_decode", {}).get(mode)
        if arm is None:
            continue
        yield f"spec_decode.{mode}.plain", arm["plain_tokens_per_s"]
        for drafter in ("prompt_lookup", "draft_model"):
            for k, point in arm.get(drafter, {}).items():
                yield (f"spec_decode.{mode}.{drafter}.{k}",
                       point["tokens_per_s"])


def compare_baseline(doc, baseline_path):
    # Perf comparison must never fail the gate: a missing/malformed
    # baseline (or one predating a field) just skips the comparison.
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: baseline comparison skipped: {baseline_path}: "
              f"{e}")
        return
    if baseline.get("smoke") != doc.get("smoke"):
        print("check_bench: baseline comparison skipped: baseline "
              f"({baseline_path}) and candidate were run at different "
              "scales (smoke flags differ); tokens/s are not comparable")
        return
    # Normalize for machine speed: both files record a fixed
    # reference-workload calibration score, so a candidate measured on a
    # slower (or noisy-shared) runner is scaled up before the threshold.
    scale = 1.0
    base_cal = baseline.get("calibration", {}).get("score_mflops")
    cand_cal = doc.get("calibration", {}).get("score_mflops")
    if (base_cal and cand_cal and base_cal > 0 and cand_cal > 0
            and baseline["calibration"].get("workload")
            == doc["calibration"].get("workload")):
        scale = base_cal / cand_cal
        print(f"check_bench: calibration: baseline {base_cal:.0f} vs "
              f"candidate {cand_cal:.0f} MFLOP/s -> tokens/s normalized "
              f"by {scale:.3f}")
    else:
        print("check_bench: calibration scores missing or mismatched; "
              "comparing raw tokens/s")
    try:
        base = dict(iter_tokens_per_s(baseline))
        points = list(iter_tokens_per_s(doc))
    except (KeyError, TypeError, AttributeError) as e:
        print("check_bench: baseline comparison skipped: baseline or "
              f"candidate lacks expected tokens/s fields ({e})")
        return
    warned = 0
    for key, tps in points:
        ref = base.get(key)
        if ref is None or ref <= 0:
            continue
        change = tps * scale / ref - 1.0
        if change < -REGRESSION_TOLERANCE:
            warned += 1
            print(f"check_bench: WARNING: {key} tokens/s {tps:.1f} "
                  f"(normalized {tps * scale:.1f}) is {-change:.0%} below "
                  f"baseline {ref:.1f} (perf warning, not a failure)")
    if warned == 0:
        print(f"check_bench: baseline comparison vs {baseline_path}: no "
              f"normalized tokens/s drop beyond "
              f"{REGRESSION_TOLERANCE:.0%}")


def main(argv):
    args = []
    baseline = None
    it = iter(argv[1:])
    for a in it:
        if a == "--compare-baseline":
            baseline = next(it, None)
            if baseline is None:
                fail("--compare-baseline needs a path")
        else:
            args.append(a)
    if len(args) != 2:
        fail("usage: check_bench.py BENCH_gemm.json BENCH_decode.json "
             "[--compare-baseline BASELINE_decode.json]")
    try:
        check_gemm(args[0])
        doc = check_decode(args[1])
        if baseline is not None:
            compare_baseline(doc, baseline)
    except KeyError as e:
        fail(f"missing expected field {e}")
    print("check_bench: all bench correctness fields OK")


if __name__ == "__main__":
    main(sys.argv)
