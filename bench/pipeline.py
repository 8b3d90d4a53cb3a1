"""One benchmark op, and the loop that times and checks ops.

An op is what `qlra analyze` computes for one context: in-process, the
CLI's own ``cmd_analyze`` on the context's text; in ``cli_process``, one
``python -m qlra.cli analyze <file>`` process.  Its exit code and report
are checked against the oracle's label.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from gen import Case, Expected

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60

MODULES = ("algebra", "linear", "context", "engine", "equivalence", "cli")


def import_qlra() -> dict:
    """Import qlra afresh (dropping any loaded copy) and return its layer modules."""
    for name in [m for m in sys.modules if m == "qlra" or m.startswith("qlra.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return {name: importlib.import_module(f"qlra.{name}") for name in MODULES}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def load_qlra() -> dict:
    """Import qlra from this checkout's src/, refusing any other copy."""
    if not (SRC / "qlra" / "__init__.py").is_file():
        raise BenchError(f"no qlra package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    mods = import_qlra()
    origin = Path(sys.modules["qlra"].__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise BenchError(f"qlra imported from {origin}, not from {SRC}")
    return mods


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


TRACEBACK = "Traceback (most recent call last)"


class Outcome(NamedTuple):
    exit_code: int
    valid: bool
    regimes: tuple[str, ...] | None
    equivalent: bool | None
    born: tuple[float, ...] = ()  # Born residual maxima the report states

    def matches(self, expected: Expected) -> bool:
        return (self.exit_code, self.valid, self.regimes, self.equivalent) == (
            expected.exit_code,
            expected.valid,
            expected.regimes,
            expected.equivalent,
        )


def outcome_of(returncode: int | None, stdout: str, stderr: str) -> Outcome | None:
    """The outcome of one `qlra analyze` run; None when it raised or printed a traceback."""
    if returncode is None or TRACEBACK in stderr:
        return None
    if not stdout.strip():
        return Outcome(returncode, returncode != 1, None, None)
    report = json.loads(stdout)
    valid = report["validation"]["valid"]
    directions = report.get("directions", {}).values()
    equivalence = report.get("equivalence")
    return Outcome(
        returncode,
        valid,
        tuple(e["regime"] for e in directions) or None,
        equivalence and equivalence["equivalent"],
        tuple(e["born_residuals"]["max"] for e in directions if "born_residuals" in e),
    )


class Checker:
    """Checks each op against the oracle and its own earlier outputs, and keeps its time.

    Outputs of one context must be byte-identical on every pass (reports
    are byte-deterministic); the digest of the first pass is recorded.
    Per context, the fastest of its ops is kept for the latency
    percentiles: the cores are shared with other tenants, whose load
    slows whole stretches of a run, and the best of several passes over
    the same input is what repeats.
    """

    def __init__(self, pool: list[Case]):
        self.pool = pool
        self.first: list[str | None] = [None] * len(pool)
        self.best_ns: list[int | None] = [None] * len(pool)
        self.total_ns = 0
        self.first_pass_ns = 0  # the first pass is the only one on inputs not seen in the run
        self.attempted = 0
        self.failed = 0
        self.unstable = 0
        self.errors: dict[str, int] = {}

    def check(self, i: int, result: tuple[int | None, str, str], ns: int = 0) -> None:
        """Record op `i`: its (exit code or None if it raised, stdout, stderr) and its time."""
        outcome = outcome_of(*result)
        signature = "\n".join(map(str, result))
        self.attempted += 1
        self.total_ns += ns
        if self.attempted <= len(self.pool):
            self.first_pass_ns += ns
        if self.best_ns[i] is None or ns < self.best_ns[i]:
            self.best_ns[i] = ns
        if self.first[i] is None:
            self.first[i] = signature
        elif self.first[i] != signature:
            self.unstable += 1
        if outcome is None or not outcome.matches(self.pool[i].expected):
            self.failed += 1
            kind = self.pool[i].kind
            self.errors[kind] = self.errors.get(kind, 0) + 1

    def digest(self) -> str:
        h = hashlib.sha256()
        for sig in self.first:
            h.update(b"\0" if sig is None else sig.encode() + b"\n")
        return h.hexdigest()


def closed_loop(pool, op, seconds: float) -> Checker:
    """One caller runs ops over the pool, in order and cyclically, for `seconds`.

    Each op is timed alone; checking its outcome is not timed.
    """
    checker = Checker(pool)
    perf = time.perf_counter_ns
    deadline = perf() + int(seconds * 1e9)
    i = 0
    while perf() < deadline:
        t0 = perf()
        result = op(i)
        t1 = perf()
        checker.check(i, result, t1 - t0)
        i = (i + 1) % len(pool)
    return checker


def in_process_op(mods: dict, pool: list[Case]):
    """Op `i` on the pool: `qlra analyze -` run in-process, without interpreter or parser start.

    It calls the CLI's own ``cmd_analyze`` with the arguments its parser
    gives ``analyze -`` and the context's text as stdin, and maps library
    errors to exit codes as ``main`` does.  Returns (exit code, stdout,
    stderr); the exit code is None when an exception escaped, which is a
    failed op rather than a crash of the benchmark.
    """
    cli = mods["cli"]
    errors = sys.modules["qlra.errors"]
    args = cli.build_parser().parse_args(["analyze", "-"])
    exits = (
        ((errors.StochasticityError, errors.InfeasibleContextError), cli.EXIT_INVALID_INPUT),
        (errors.RegimeError, cli.EXIT_REGIME),
        (errors.QlraError, cli.EXIT_INVALID_INPUT),
    )

    def op(i: int) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        stdin, stderr = sys.stdin, sys.stderr
        sys.stdin, sys.stderr = io.StringIO(pool[i].text), err
        try:
            code = args.func(args, out)
        except errors.QlraError as exc:
            print(f"error: {exc}", file=err)
            code = next(c for types, c in exits if isinstance(exc, types))
        except Exception as exc:
            return None, out.getvalue(), f"raised {type(exc).__name__}: {exc}"
        finally:
            sys.stdin, sys.stderr = stdin, stderr
        return code, out.getvalue(), err.getvalue()

    return op


class EdgeResult(NamedTuple):
    success_rate: float  # share of the edge set whose outcome matches the oracle
    born_max: float  # worst Born residual any of its reports states
    failed_by_kind: dict[str, int]


def check_edge_set(mods: dict, cases: list[Case]) -> EdgeResult:
    """`qlra analyze` in-process, once and untimed, on each context of the edge set."""
    op = in_process_op(mods, cases)
    right, born, failed = 0, 0.0, Counter()
    for i, case in enumerate(cases):
        outcome = outcome_of(*op(i))
        if outcome is not None and outcome.matches(case.expected):
            right += 1
        else:
            failed[case.kind] += 1
        if outcome is not None and outcome.born:
            born = max(born, *outcome.born)
    return EdgeResult(right / len(cases), born, dict(failed))
