#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: socfb-dense, sparse-wide, collab-ties, serve-open (see
BENCHMARK.json for why each exists). Extra flags (--tier smoke|small|full,
--budget-kib N, --out-dir DIR) pass through to the binary. The build goes to
$CARGO_TARGET_DIR (default .bench_build); traces of --trace 1 runs are written
under <target dir>/perfbench. The last line of stdout is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(target, "perfbench")]
    child = subprocess.Popen([os.path.join(target, "release", "gmc-perfbench")] + args, env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
