#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds the library and the benchmark from
source into .bench_build/servebench under the repository root (CMake,
Release, through the repository's own CMakeLists.txt); later calls rebuild
only what changed. Build output goes to stderr, so the benchmark's result
JSON stays the last line of stdout. Traced runs write their Chrome trace
files to .bench_build/traces. The exit code is the benchmark's: non-zero,
with no result printed, when the build or any output check fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "servebench")


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-" + h.hexdigest()[:16]


def run(cmd):
    """Run `cmd` to completion, stopping it if this script is stopped."""
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        proc.terminate()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return proc.wait()


def main():
    build = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (["cmake", "-S", HERE, "-B", build,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build, "-j", jobs]):
        rc = subprocess.run(step, stdout=sys.stderr).returncode
        if rc != 0:
            print("servebench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return rc or 1
    traces = os.path.join(os.path.dirname(build), "traces")
    return run([os.path.join(build, "servebench")] + sys.argv[1:] +
               ["--commit", commit_id(), "--trace-dir", traces])


if __name__ == "__main__":
    sys.exit(main())
