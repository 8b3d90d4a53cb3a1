"""Benchmark of the qlra analyze pipeline.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload against the qlra in this checkout's ``src/`` and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` is a separate run that
measures the per-layer metrics (see README.md in this directory).
Everything runs in one process on one thread; ``cli_process`` runs one
child interpreter at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import gen
import layers
from pipeline import ROOT, BenchError, Checker, check_edge_set, child_env, closed_loop, in_process_op, load_qlra, run_child

WORKLOADS = ("bulk_symmetric", "mixed_outcomes", "cli_process")
# Contexts per pool.  A run makes at least five passes over its pool, so
# every context's best time is the best of several.
POOL_SIZE = {"bulk_symmetric": 1024, "mixed_outcomes": 2048, "cli_process": 36}
SETUP_REPEATS = 5
WARMUP_OPS = 200
WARMUP_PROCESSES = 2


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


class InProcess:
    """bulk_symmetric and mixed_outcomes: `qlra analyze` run in-process."""

    def __init__(self, workload: str, seed: int, pool_size: int):
        self.workload, self.seed, self.pool_size = workload, seed, pool_size

    def setup(self) -> str:
        self.mods = load_qlra()
        self.pool = gen.make_pool(self.workload, self.seed, self.pool_size)
        self.edge = gen.edge_set()
        self.op = in_process_op(self.mods, self.pool)
        warm = Checker(self.pool)
        for k in range(min(WARMUP_OPS, len(self.pool))):
            warm.check(k, self.op(k))
        return warm.digest()

    def measure(self, seconds: float) -> Checker:
        return closed_loop(self.pool, self.op, seconds)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Processes:
    """cli_process: one `python -m qlra.cli analyze <file>` process per op."""

    def __init__(self, workload: str, seed: int, pool_size: int, workdir: Path):
        self.workload, self.seed, self.pool_size, self.workdir = workload, seed, pool_size, workdir
        self.env = child_env()

    def setup(self) -> str:
        # Imported here too: the provenance check, byte-compiled src/ for
        # the children, and the library a traced run times in-process.
        self.mods = load_qlra()
        self.pool = gen.make_pool(self.workload, self.seed, self.pool_size)
        self.edge = gen.edge_set()
        self.paths = []
        for k, case in enumerate(self.pool):
            path = self.workdir / f"ctx{k:04d}.json"
            path.write_text(case.text, encoding="utf-8")
            self.paths.append(str(path))
        warm = Checker(self.pool)
        for k in range(WARMUP_PROCESSES):
            warm.check(k, self.op(k))
        return warm.digest()

    def op(self, i: int) -> tuple[int, str, str]:
        proc = run_child(["-m", "qlra.cli", "analyze", self.paths[i]], self.env)
        # Tracebacks name files by absolute path; the digest must not depend on the checkout's place.
        return proc.returncode, proc.stdout, proc.stderr.replace(str(ROOT), ".")

    def measure(self, seconds: float) -> Checker:
        return closed_loop(self.pool, self.op, seconds)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def make_runner(workload: str, seed: int, pool_size: int, workdir: Path):
    if workload == "cli_process":
        return Processes(workload, seed, pool_size, workdir)
    return InProcess(workload, seed, pool_size)


def set_up(runner, repeats: int) -> tuple[float, set[str]]:
    """Set up `repeats` times; the median time and the warm-up digests seen."""
    times, digests = [], set()
    for _ in range(repeats):
        t0 = time.perf_counter()
        digests.add(runner.setup())
        times.append(time.perf_counter() - t0)
    return statistics.median(times), digests


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def end_to_end(runner, seconds: float, setup_s: float) -> tuple[Checker, dict, dict]:
    checker = runner.measure(seconds)
    edge = check_edge_set(runner.mods, runner.edge)
    best = sorted(ns for ns in checker.best_ns if ns is not None)
    metrics = {
        "throughput_ops_per_s": (checker.attempted / (checker.total_ns / 1e9), "1/s"),
        "latency_p50_us": (percentile(best, 0.50) / 1e3, "us"),
        "latency_p90_us": (percentile(best, 0.90) / 1e3, "us"),
        "edge_success_rate": (edge.success_rate, "share"),
        "born_residual_max": (edge.born_max, "abs"),
        "setup_s": (setup_s, "s"),
        "peak_rss_kb": (runner.peak_rss_kb(), "kB"),
    }
    info = {
        "latency_samples": len(best),
        "latency_p99_us": percentile(best, 0.99) / 1e3,
        "error_rate": checker.failed / checker.attempted,
        "first_pass_ops_per_s": min(checker.attempted, len(checker.pool)) / (checker.first_pass_ns / 1e9),
        "failed_by_kind": checker.errors,
        "passes_over_pool": round(checker.attempted / len(checker.pool), 2),
        "edge_set": len(runner.edge),
        "edge_failed_by_kind": edge.failed_by_kind,
    }
    return checker, metrics, info


def measure(workload: str, seed: int, seconds: float, trace: bool, pool_size: int | None = None) -> dict:
    """One run: the result object the benchmark prints last."""
    size = POOL_SIZE[workload] if pool_size is None else pool_size
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        runner = make_runner(workload, seed, size, workdir)
        setup_s, warm_digests = set_up(runner, 1 if trace else SETUP_REPEATS)
        if trace:
            checker, metrics, info = layers.per_layer(runner, seconds)
        else:
            checker, metrics, info = end_to_end(runner, seconds, setup_s)
        qlra = sys.modules["qlra"]
        info.update(
            workload=workload,
            seed=seed,
            trace=int(trace),
            pool=len(runner.pool),
            pool_kinds=dict(Counter(case.kind for case in runner.pool)),
            qlra_version=qlra.__version__,
            qlra_origin=str(Path(qlra.__file__).resolve().relative_to(ROOT)),
            python=platform.python_version(),
            nproc=os.cpu_count(),
            git_commit=git_commit(),
            output_digest=checker.digest(),
            warmup_digests=sorted(warm_digests),
            nondeterministic_outputs=checker.unstable,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = checker.unstable == 0 and len(warm_digests) == 1 and checker.attempted > 0
    return {
        "info": info,
        "result": {
            "correct": correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # One CPU for this process and the children it starts: a child that
    # the scheduler put on the other CPU ran slower and less steadily.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": out["info"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
