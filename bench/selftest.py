"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every workload completes an untraced and a traced run and
prints every metric BENCHMARK.json names, with its unit; that the
oracle labels the worked example; that inputs follow the seed and the
edge set does not; that no op of a workload fails; and
that the benchmark refuses, without printing a result, a directory
holding no qlra.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import gen
import run

SECONDS = 0.5
POOL = 6
failures = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workloads match BENCHMARK.json")
    for workload in run.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(workload, 0, SECONDS, trace, pool_size=POOL)["result"]
            where = f"{workload} trace={int(trace)}"
            expect(result["correct"], f"{where}: outputs deterministic")
            expect(result["attempted"] > 0 and result["failed"] == 0, f"{where}: ops attempted, none failed")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            expect(set(metrics) == set(wanted), f"{where}: metric names {sorted(set(metrics) ^ set(wanted))}")
            for name, unit in wanted.items():
                got = metrics.get(name, {})
                expect(got.get("unit") == unit, f"{where}: {name} has unit {unit}")
                value = got.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name} is a number")
            print(f"ok   {where}: {len(metrics)} metrics, {result['attempted']} ops")


def check_oracle_and_seed() -> None:
    worked = {
        "p_a": [0.5, 0.5],
        "p_b": [0.9, 0.1],
        "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]],
        "P_a_given_b": [[0.9, 0.1], [0.1, 0.9]],
    }
    expect(gen.label(worked) == gen.Expected(True, (gen.HYP, gen.HYP), True, 0), "worked example labelled equivalent")
    worked["P_a_given_b"] = [[0.95, 0.05], [0.05, 0.95]]
    expected = gen.Expected(True, (gen.HYP, gen.HYP), False, 3)
    expect(gen.label(worked) == expected, "asymmetric context labelled not equivalent")
    for workload in ("bulk_symmetric", "mixed_outcomes"):
        expect(gen.make_pool(workload, 3, 20) == gen.make_pool(workload, 3, 20), f"{workload}: same seed, same inputs")
        expect(gen.make_pool(workload, 3, 20) != gen.make_pool(workload, 4, 20), f"{workload}: seed changes inputs")
    expect(gen.edge_set() == gen.edge_set(), "edge set is fixed")
    print("ok   oracle labels and seeded inputs")


def check_refuses_without_qlra() -> None:
    spare = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT))
    try:
        shutil.copy2(run.ROOT / "BENCHMARK.json", spare / "BENCHMARK.json")
        shutil.copytree(run.ROOT / "bench", spare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "bulk_symmetric", "--seed", "0", "--seconds", "1"],
            cwd=spare,
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
    finally:
        shutil.rmtree(spare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "refuses a directory without src/qlra")
    print(f"ok   without src/qlra: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    check_oracle_and_seed()
    check_refuses_without_qlra()
    check_metrics()
    print("FAILED" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
