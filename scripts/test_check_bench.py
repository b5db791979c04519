#!/usr/bin/env python3
"""Test that every row of check_bench.py's gate table rejects a broken file.

Usage: python3 scripts/test_check_bench.py

The committed BENCH_gemm.json and BENCH_decode.json must pass. For each
gate row, its first field is broken in two copies: set to a value its
rule rejects (a bool to false, an exact 0 to 1, a bounded value to twice
its bound, a value that must exceed x to x, every shape to k = the
bound), and removed. check_bench.py must exit 1 and name the field.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import check_bench  # noqa: E402

FILES = {"gemm": "BENCH_gemm.json", "decode": "BENCH_decode.json"}
MISSING = check_bench.MISSING


def broken_value(rule, value, doc):
    return {"true": lambda: False, "zero": lambda: 1,
            "above": lambda: rule.arg, "present": lambda: MISSING,
            "within": lambda: 2 * check_bench.resolve(doc, rule.arg),
            "any_k_above": lambda: [dict(s, k=rule.arg) for s in value],
            }[rule.kind]()


def set_path(doc, path, value):
    *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    for key in parents:
        doc = doc[key]
    if value is MISSING:
        del doc[last]
    else:
        doc[last] = value


def run_checker(docs, tmp):
    paths = []
    for kind, doc in docs.items():
        paths.append(os.path.join(tmp, FILES[kind]))
        with open(paths[-1], "w") as f:
            json.dump(doc, f)
    checker = os.path.join(HERE, "check_bench.py")
    return subprocess.run([sys.executable, checker, *paths],
                          capture_output=True, text=True)


def main():
    docs = {}
    for kind, name in FILES.items():
        with open(os.path.join(os.path.dirname(HERE), name)) as f:
            docs[kind] = json.load(f)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        if run_checker(docs, tmp).returncode != 0:
            failures.append("the committed files fail the checker")
        for kind, path, rule, _ in check_bench.GATES:
            field, value = next(check_bench.expand(docs[kind], path))
            for broken in (broken_value(rule, value, docs[kind]), MISSING):
                copies = copy.deepcopy(docs)
                set_path(copies[kind], field, broken)
                result = run_checker(copies, tmp)
                if result.returncode != 1 or field not in result.stderr:
                    what = "removed" if broken is MISSING else "broken"
                    failures.append(f"{field} {what}: exit "
                                    f"{result.returncode}, stderr "
                                    f"{result.stderr.strip()!r}")
    for msg in failures:
        print(f"test_check_bench: FAIL: {msg}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"test_check_bench: each of {len(check_bench.GATES)} gate rows "
          "rejects a broken and a missing field")


if __name__ == "__main__":
    main()
