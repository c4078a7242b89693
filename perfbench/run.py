#!/usr/bin/env python3
"""Build the shipped CLIs and the benchmark binary, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload blastn-shred --seed 1 --seconds 35 --trace 0

Cargo output goes to stderr; the benchmark's report and its final JSON line go
to stdout. Builds land in $CARGO_TARGET_DIR (default `.bench_build`), and
every file a run writes lives under `.perfbench_work/`, which is removed
when the run ends.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The CLIs under test, built by the repository's own workspace.
        ["cargo", "build", "--release", "--offline", "-p", "mrbio", "--bins",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        # The benchmark binary, a workspace of its own.
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    bin_dir = os.path.join(target, "release")
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    # Library scratch (MapReduce spill dirs) follows TMPDIR into the work dir.
    env["TMPDIR"] = tmp
    try:
        cmd = [os.path.join(bin_dir, "perfbench"), *sys.argv[1:],
               "--bin-dir", bin_dir, "--work-dir", work]
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still owns a sibling directory


if __name__ == "__main__":
    sys.exit(main())
