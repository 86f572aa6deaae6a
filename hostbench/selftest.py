#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Runs every workload at tiny scale, untraced and traced, and checks that
each run emits exactly the metrics BENCHMARK.json names for its mode,
with the declared units, and passes its correctness gate; that the
modelled GPU seconds repeat bit for bit across two traced runs of the
same seed; and that a deliberately corrupted reference is caught as a
failure. Takes a few seconds per run once built.

    python3 hostbench/selftest.py        # from the repository root
"""

import json
import subprocess
import sys

WORKLOADS = ["grep_sparse", "batch_dense", "serve_mixed"]


def run(workload, trace, extra=()):
    cmd = ["bash", "hostbench/run.sh", "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = []
    for workload in WORKLOADS:
        modelled = []
        for trace in (0, 1, 1):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{workload} trace={trace}: correctness gate failed: {result}")
            if trace == 1:
                if result["metrics"]["error_frac"]["value"] != 0:
                    failures.append(f"{workload}: traced error_frac is not 0")
                modelled.append(result["metrics"]["gpu.modelled_s"]["value"])
        if len(set(modelled)) != 1:
            failures.append(f"{workload}: gpu.modelled_s differs between identical runs: {modelled}")
        for trace in (0, 1):
            result = run(workload, trace, ["--corrupt-reference"])
            if result["correct"] or result["failed"] < 1:
                failures.append(f"{workload} trace={trace}: a corrupted reference went unnoticed")
        print(f"ok   {workload}", flush=True)
    if failures:
        print("\n".join(f"FAIL {f}" for f in failures))
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
