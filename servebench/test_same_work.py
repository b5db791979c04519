#!/usr/bin/env python3
"""Same-work test of the serving benchmark.

    python3 servebench/test_same_work.py [workload ...]

For each workload (default: those listed in BENCHMARK.json), runs the
traced benchmark twice with one seed and once with another, at the minimum
run length, and checks that the two same-seed runs did identical work —
the same served tokens (token hash) and the same per-episode counts:
steps, batched and prefill rows, prefix hits, preemptions, resumes,
drafted and accepted tokens, peak blocks — and report identical per-layer
count metrics, while the other seed did different work. Exits non-zero on
the first difference. Run from the repository root.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are counts of work, not times.
COUNT_METRICS = [
    "scheduler.steps", "scheduler.rows_per_step",
    "scheduler.prefill_row_frac", "scheduler.deferred",
    "scheduler.overtakes", "scheduler.preemptions", "scheduler.resumes",
    "scheduler.resumed_rows_reused", "prefix.hit_rate",
    "prefix.skipped_row_frac", "prefix.evictions",
    "pool.peak_allocated_blocks", "pool.peak_committed_blocks",
    "pool.cow_copies", "pool.parks", "kv.bytes_per_token",
    "kv.read_kib_per_token", "draft.acceptance",
    "draft.tokens_per_spec_step", "draft.fallback_frac",
]


def run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("FAIL %s seed %d: benchmark exited %d\n%s" %
                 (workload, seed, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    header = [l for l in lines if l.startswith("servebench: attribution ")]
    attribution = json.loads(header[0].split(" ", 2)[2])
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: metrics[k]["value"] for k in COUNT_METRICS}
    return attribution["work"], counts


def main():
    workloads = sys.argv[1:]
    if not workloads:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        work_a, counts_a = run(workload, 7)
        work_b, counts_b = run(workload, 7)
        work_c, _ = run(workload, 8)
        if work_a != work_b:
            sys.exit("FAIL %s: same seed, different work\n%s\n%s" %
                     (workload, work_a, work_b))
        if counts_a != counts_b:
            sys.exit("FAIL %s: same seed, different per-layer counts\n"
                     "%s\n%s" % (workload, counts_a, counts_b))
        if [w["token_hash"] for w in work_a] == \
                [w["token_hash"] for w in work_c]:
            sys.exit("FAIL %s: seeds 7 and 8 served identical tokens" %
                     workload)
        print("ok %s: %d episodes identical across runs, other seed "
              "differs" % (workload, len(work_a)))


if __name__ == "__main__":
    main()
