#!/usr/bin/env python3
"""Gate the bench JSON artifacts (CI's bench smoke job).

Usage: scripts/check_bench.py BENCH_gemm.json BENCH_decode.json \
           [--compare-baseline BASELINE_decode.json]

Checks every row of GATES against the two files and exits 1 naming each
failed field, or when a file is missing or malformed. Every gated path is
required. Perf figures are recorded, never gated: they vary with the host.

--compare-baseline warns, never fails: every tokens_per_s leaf of the
decode file that dropped more than 20% below the same path in the
baseline is reported. Both files must be of the same scale (their
"smoke" flags match). When both carry a calibration score (a fixed
reference workload, bench/bench_common.h), candidate figures are first
scaled by baseline score / candidate score, so a slower host does not
read as a regression.
"""

import argparse
import json
import re
import sys
from typing import NamedTuple

REGRESSION_TOLERANCE = 0.20
MISSING = object()


class Rule(NamedTuple):
    """What a gated value must satisfy: `kind` with its argument."""

    kind: str  # true | zero | above | within | present | any_k_above
    arg: object = None

    def holds(self, value, doc):
        if self.kind == "true":
            return value is True
        if self.kind == "present":
            return True
        if self.kind == "any_k_above":
            return isinstance(value, list) and any(
                is_number(child(s, "k")) and s["k"] > self.arg
                for s in value)
        if not is_number(value):
            return False
        if self.kind == "zero":
            return value == 0
        if self.kind == "above":
            return value > self.arg
        bound = resolve(doc, self.arg)  # within: 0 <= value <= bound
        return is_number(bound) and 0 <= value <= bound

    def __str__(self):
        return {"true": "true", "zero": "exactly 0", "present": "present",
                "above": f"> {self.arg}", "within": f"in [0, {self.arg}]",
                "any_k_above": f"a shape with k > {self.arg}"}[self.kind]


TRUE, ZERO, PRESENT = Rule("true"), Rule("zero"), Rule("present")

# (file, path, rule, reason). In a path, `*` takes every item of a list
# and {a,b} each named key; every expanded path must be present.
GATES = [
    ("gemm", "gemm.max_abs_diff", ZERO,
     "the threaded fp32 GEMM is bit-identical to the serial one"),
    ("gemm", "tender.nmse_threaded_vs_serial", ZERO,
     "the threaded Tender product (fold or golden walk) equals the serial "
     "golden walk bit for bit"),
    ("gemm", "gemm_packed.simd_gemm_nmse",
     Rule("within", "gemm_packed.simd_gemm_nmse_bound"),
     "the packed SIMD fp32 GEMM trades bit parity for speed, not accuracy"),
    ("gemm", "gemm_packed.int8_bitexact", TRUE,
     "the packed gemmInt8 is bit-identical to the golden kernel"),
    ("gemm", "tender_packed.nmse_packed_vs_serial", ZERO,
     "the Tender product on the packed arm runs exact integer loops only"),
    ("gemm", "tender_prepared.prepared_bitexact", TRUE,
     "a weight quantized once (TenderScheme::prepare) gives products "
     "bit-identical to the per-call pipeline on every backend"),
    ("gemm", "tender_prepared.shapes.*.fold_fallback_chunks", PRESENT,
     "each prepared shape records how many chunks ran the golden walk"),
    ("gemm", "tender_prepared.shapes", Rule("any_k_above", 1040),
     "the prepared gate covers shapes past the old fold bound"),
    ("gemm", "tender_segmented.segmented_bitexact", TRUE,
     "a step's segmented product equals the per-segment loop bit for bit "
     "on serial, threaded and packed"),
    ("decode", "correctness.fp32_decode_bit_exact", TRUE,
     "paged fp32 KV decode is bit-identical to full prefill"),
    ("decode", "correctness.tender_kv_nmse",
     Rule("within", "correctness.tender_kv_nmse_bound"),
     "the quantized KV cache's storage error stays under its bound"),
    ("decode", "correctness.fused_attention_nmse",
     Rule("within", "correctness.fused_attention_nmse_bound"),
     "fused integer-domain attention stays close to the dequantize oracle"),
    ("decode", "correctness.mq_panel_bitexact", TRUE,
     "multi-query attention panels reproduce the per-head fan-out bit for "
     "bit in every KV mode, on the OPT and GQA replicas"),
    ("decode", "churn_{fp32,tender}.peak_kv_bytes_ratio", Rule("above", 1),
     "paged peak KV bytes undercut contiguous per-request slabs"),
    ("decode", "prefix_shared.prefix_reuse_bitexact", TRUE,
     "shared-prefix decode emits the cold run's tokens (fp32 and "
     "quantized) and adopted quantized pages carry bit-identical codes"),
    ("decode", "prefix_shared.refcounts_consistent", TRUE,
     "the refcount audit holds and clearing the prefix cache returns "
     "every block"),
    ("decode", "mixed_traffic.sampling_order_independent", TRUE,
     "sampled tokens do not depend on admission order, batch cap or "
     "worker count"),
    ("decode", "mixed_traffic.{interactive,batch}."
     "{ttft_p50_us,ttft_p95_us,itl_p50_us,itl_p95_us}", PRESENT,
     "TTFT/ITL percentiles are recorded per priority class (host speed, "
     "so never thresholded)"),
    ("decode", "preemption_pressure.preempt_resume_bitexact", TRUE,
     "preempted-and-resumed requests emit the uninterrupted run's tokens "
     "in both KV modes"),
    ("decode", "preemption_pressure.refcounts_consistent", TRUE,
     "park accounting settles (every park undone, none left parked) and "
     "every block returns once the prefix cache clears"),
    ("decode", "preemption_pressure.{fp32,tender}.on.preemptions",
     Rule("above", 0),
     "the preemption-on arm preempts, or the section tests nothing"),
    ("decode", "preemption_pressure.{fp32,tender}.{on,off}.interactive."
     "{ttft_p50_us,ttft_p95_us}", PRESENT,
     "each arm records its Interactive TTFT percentiles"),
    ("decode", "fault_churn.fault_isolation_bitexact", TRUE,
     "under injected faults and shedding, every surviving request emits "
     "the fault-free run's tokens in every decode arm"),
    ("decode", "fault_churn.refcounts_consistent", TRUE,
     "failed requests return every KV block and reservation, and only "
     "preempted requests count toward the park accounting"),
    ("decode", "spec_decode.spec_decode_bitexact", TRUE,
     "prompt-lookup speculation emits the plain run's tokens at every k in "
     "every KV arm (docs/speculation.md)"),
    ("decode", "spec_decode.{fp32,tender,tender_fused}.prompt_lookup."
     "{k_2,k_4,k_8}.{tokens_per_s,acceptance,speedup}", PRESENT,
     "each speculation point records its speed and acceptance"),
]


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def child(node, key):
    if isinstance(node, dict):
        return node.get(key, MISSING)
    if isinstance(node, list) and key.isdigit() and int(key) < len(node):
        return node[int(key)]
    return MISSING


def resolve(doc, path):
    for key in path.split("."):
        doc = child(doc, key)
    return doc


def expand(node, path, prefix=""):
    """Yield (concrete path, value or MISSING) for a gate path."""
    head, _, rest = path.partition(".")
    if head == "*":
        keys = [str(i) for i in range(len(node))] \
            if isinstance(node, list) else []
    else:
        stem, alts, tail = re.fullmatch(r"([^{]*)(?:\{(.*)\})?(.*)",
                                        head).groups()
        keys = [stem + alt + tail for alt in (alts or "").split(",")]
    if not keys:  # `*` over no list
        yield prefix + path, MISSING
    for key in keys:
        value = child(node, key)
        if rest and value is not MISSING:
            yield from expand(value, rest, f"{prefix}{key}.")
        elif rest:
            yield f"{prefix}{key}.{rest}", MISSING
        else:
            yield prefix + key, value


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: FAIL: {path}: {e}", file=sys.stderr)
        sys.exit(1)


def check(docs, names):
    """Return one message per failed gate."""
    failures = []
    for kind, path, rule, reason in GATES:
        for concrete, value in expand(docs[kind], path):
            if value is MISSING:
                failures.append(f"{names[kind]}: {concrete} missing "
                                f"({reason})")
            elif not rule.holds(value, docs[kind]):
                shown = "[...]" if isinstance(value, list) else value
                failures.append(f"{names[kind]}: {concrete} = {shown}, "
                                f"expected {rule} ({reason})")
    return failures


def tokens_per_s(node, prefix=""):
    """Yield (path, value) for every numeric leaf named *tokens_per_s."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        path = f"{prefix}{key}"
        if str(key).endswith("tokens_per_s") and is_number(value):
            yield path, value
        else:
            yield from tokens_per_s(value, path + ".")


def compare_baseline(doc, baseline_path):
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: baseline comparison skipped: {e}")
        return
    if baseline.get("smoke") != doc.get("smoke"):
        print("check_bench: baseline comparison skipped: the baseline and "
              "the candidate ran at different scales")
        return
    scale = 1.0
    base_cal = resolve(baseline, "calibration.score_mflops")
    cand_cal = resolve(doc, "calibration.score_mflops")
    if (resolve(baseline, "calibration.workload")
            == resolve(doc, "calibration.workload") and is_number(base_cal)
            and is_number(cand_cal) and base_cal > 0 and cand_cal > 0):
        scale = base_cal / cand_cal
        print(f"check_bench: tokens/s scaled by calibration ratio "
              f"{scale:.3f}")
    base = dict(tokens_per_s(baseline))
    warned = 0
    for path, tps in tokens_per_s(doc):
        ref = base.get(path)
        if ref and tps * scale < ref * (1 - REGRESSION_TOLERANCE):
            warned += 1
            print(f"check_bench: WARNING: {path} {tps * scale:.1f} tok/s "
                  f"(scaled) is {1 - tps * scale / ref:.0%} below baseline "
                  f"{ref:.1f} (a warning, not a failure)")
    print(f"check_bench: baseline comparison vs {baseline_path}: {warned} "
          f"tokens/s drops beyond {REGRESSION_TOLERANCE:.0%}")


def main():
    parser = argparse.ArgumentParser(description="Gate the bench JSONs.")
    parser.add_argument("gemm")
    parser.add_argument("decode")
    parser.add_argument("--compare-baseline", metavar="BASELINE_decode.json")
    args = parser.parse_args()
    names = {"gemm": args.gemm, "decode": args.decode}
    docs = {kind: load(path) for kind, path in names.items()}
    failures = check(docs, names)
    for msg in failures:
        print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"check_bench: {len(GATES)} gate rows hold in {args.gemm} and "
          f"{args.decode}")
    if args.compare_baseline:
        compare_baseline(docs["decode"], args.compare_baseline)


if __name__ == "__main__":
    main()
