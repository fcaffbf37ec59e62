#!/usr/bin/env python3
"""Self-test of the benchmark, in seconds: smoke-tier runs of all four workloads.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1), that
every answer passed the correctness gate, and that an OOM forced with a tiny
device budget is counted as a failure instead of crashing the run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tier", "smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd[1:])}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1, result
    return result


def check_names(result, declared, label):
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert list(metrics) == list(want), f"{label}: printed {sorted(set(metrics) ^ set(want))} differ"
    for name, entry in metrics.items():
        assert entry["unit"] == want[name], f"{label}: {name} unit {entry['unit']} != {want[name]}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {name} is not a number"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # serve-open is not listed in BENCHMARK.json (see src/main.rs) but prints the same metrics.
    for workload in [w["name"] for w in spec["workloads"]] + ["serve-open"]:
        e2e = run(workload, 0)
        check_names(e2e, spec["end_to_end"], f"{workload} --trace 0")
        zero = [k for k, v in e2e["metrics"].items() if v["value"] == 0]
        assert not zero, f"{workload}: end-to-end metrics read 0: {zero}"
        check_names(run(workload, 1), spec["per_layer"], f"{workload} --trace 1")
        print(f"selftest: {workload} ok")

    # A budget far below any solve's footprint: every solve OOMs, and the
    # run still ends normally with the OOMs counted as failures.
    for workload in ("socfb-dense", "serve-open"):
        starved = run(workload, 0, "--budget-kib", "16")
        frac = starved["metrics"]["success_frac"]["value"]
        assert starved["failed"] > 0 and frac < 1.0, (workload, starved)
        print(f"selftest: forced OOM on {workload} counted ({starved['failed']} failed)")
    print("selftest: ok")


if __name__ == "__main__":
    main()
