"""The traced run: per-layer metrics of qlra, measured from outside.

Nothing under src/ is edited.  Spans wrap the public functions of
``qlra.context``, ``qlra.engine``, ``qlra.equivalence`` and ``qlra.cli``
where ``qlra.cli`` and the other layers look them up; ``qlra.algebra`` and
``qlra.linear`` are called too often to wrap, so they get call counts
(from a separate ``sys.setprofile`` pass) and kernel timings on operands
taken from the workload's own states.  The process layers of
``cli_process`` (interpreter start, imports, argument parsing) are timed
in child interpreters and in-process.  There is one thread and no
queue, so no layer waits on another and no wait time is reported.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import re
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pipeline

# (layer, function) pairs timed by spans, in pipeline order.
SPANNED = (
    ("context", "from_dict"),
    ("context", "validate_context"),
    ("context", "interference_coefficients"),
    ("engine", "run_qlra"),
    ("engine", "verify_born_rule"),
    ("engine", "expansion_consistency"),
    ("equivalence", "check_consistency"),
    ("equivalence", "proof_relation_residual"),
    ("cli", "dumps"),
)
COUNTED = (
    "context.validate_context",
    "context.is_doubly_stochastic",
    "engine.run_qlra",
    "algebra",
    "linear",
)
IMPORTED = ("qlra", "qlra.errors", "qlra.algebra", "qlra.linear", "qlra.context", "qlra.engine", "qlra.equivalence", "qlra.cli")

# Share of --seconds for the paired untraced/traced ops; the counting
# pass, kernels and child-process probes take a bounded amount on top.
TRACED_SHARE = 0.8
COUNT_OPS = 200
KERNEL_OPERANDS = 256
KERNEL_REPEATS = 7
INTERPRETER_STARTS = 10
IMPORT_RUNS = 5
PARSER_CALLS = 200
MAIN_CALLS = 32


class Spans:
    """Self time, calls and escaping exceptions per span name, kept in memory.

    A span's self time is its duration minus the durations of the spans
    it caused.  Calls a function makes inside its own module, its own
    recursion included, are part of its self time.
    """

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self._child_ns = [0]
        self._patches: list = []

    def wrap(self, name: str, fn, home=None):
        """A span around `fn`.

        `home` is the module whose global `fn` recurses through (``dumps``):
        while the span runs, that global is `fn` itself, so the recursion
        is part of the span's self time and costs no wrapper calls.
        """
        child_ns, self_ns, calls, errors = self._child_ns, self.self_ns, self.calls, self.errors
        perf = time.perf_counter_ns
        attr = name.rpartition(".")[2]

        def span(*args, **kwargs):
            if home is not None:
                setattr(home, attr, fn)
            child_ns.append(0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                dt = perf() - t0
                self_ns[name] += dt - child_ns.pop()
                calls[name] += 1
                child_ns[-1] += dt
                if home is not None:
                    setattr(home, attr, span)

        return span

    def install(self, mods: dict) -> None:
        """Wrap each spanned function where qlra.cli and the other layers look it up.

        ``ProbContext.from_dict`` is wrapped on its class.  The wrappers
        are only in place between enable() and disable().
        """
        for layer, fname in SPANNED:
            name = f"{layer}.{fname}"
            if fname == "from_dict":
                cls = mods["context"].ProbContext
                wrapped = staticmethod(self.wrap(name, cls.from_dict))
                self._patches.append((cls, fname, cls.__dict__[fname], wrapped))
                continue
            original = getattr(mods[layer], fname)
            # dumps recurses through qlra.cli's globals, where the op looks it up too.
            wrapped = self.wrap(name, original, home=mods["cli"] if layer == "cli" else None)
            for mod_name, mod in list(sys.modules.items()):
                callers_module = mod_name != f"qlra.{layer}" or layer == "cli"
                if mod_name.startswith("qlra.") and callers_module and getattr(mod, fname, None) is original:
                    self._patches.append((mod, fname, original, wrapped))

    def enable(self) -> None:
        for obj, attr, _, wrapped in self._patches:
            setattr(obj, attr, wrapped)

    def disable(self) -> None:
        for obj, attr, original, _ in self._patches:
            setattr(obj, attr, original)


def traced_ops(runner, spans: Spans, seconds: float):
    """Each context twice in a row, untraced then traced, for `seconds`.

    Pairing the two runs of one input cancels the drift in machine
    speed, so their ratio is the tracing overhead.  Returns the checker
    of all ops and [ops, total ns] per side.
    """
    op = pipeline.in_process_op(runner.mods, runner.pool)
    checker = pipeline.Checker(runner.pool)
    totals = {False: [0, 0], True: [0, 0]}
    perf = time.perf_counter_ns
    deadline = perf() + int(seconds * 1e9)
    i, traced = 0, False
    while perf() < deadline:
        if traced:
            spans.enable()
        t0 = perf()
        result = op(i)
        ns = perf() - t0
        if traced:
            spans.disable()
        checker.check(i, result, ns)
        totals[traced][0] += 1
        totals[traced][1] += ns
        if traced:
            i = (i + 1) % len(runner.pool)
        traced = not traced
    return checker, totals


def count_calls(runner, mods: dict, n_ops: int) -> dict[str, float]:
    """Python-level calls per op into each layer, from a sys.setprofile pass.

    Every entry into a code object defined in a layer's file counts
    (generator resumptions included); the counts repeat exactly.
    """
    layer_of = {m.__file__: name for name, m in mods.items()}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            layer = layer_of.get(frame.f_code.co_filename)
            if layer is not None:
                counts[layer] += 1
                counts[f"{layer}.{frame.f_code.co_name}"] += 1

    op = pipeline.in_process_op(mods, runner.pool)
    n_ops = min(n_ops, len(runner.pool))
    sys.setprofile(profile)
    try:
        for i in range(n_ops):
            op(i)
    finally:
        sys.setprofile(None)
    return {name: counts[name] / n_ops for name in COUNTED}


def _per_call_ns(fn, operands: list[tuple]) -> float:
    """Median over repeats of the mean time per call across the operands."""
    perf = time.perf_counter_ns
    samples = []
    for _ in range(KERNEL_REPEATS):
        t0 = perf()
        for args in operands:
            fn(*args)
        samples.append((perf() - t0) / len(operands))
    return statistics.median(samples)


def kernel_ns(runner, mods: dict) -> dict[str, float]:
    """algebra and linear kernels on operands from the workload's reconstructed states."""
    ctx_mod, eng, eqv = mods["context"], mods["engine"], mods["equivalence"]
    states, unitaries = [], []
    for case in runner.pool:
        if len(states) >= KERNEL_OPERANDS:
            break
        if not (case.expected.valid and case.expected.regimes == ("hyperbolic", "hyperbolic")):
            continue
        try:
            ctx = ctx_mod.ProbContext.from_dict(json.loads(case.text))
            state = eng.run_qlra(ctx, ctx_mod.Direction.B_GIVEN_A)
            unitaries.append((eqv.transition_unitary(ctx.p_b_given_a), state.psi))
        except Exception:  # a context the library cannot reconstruct yields no operands
            continue
        states.append(state)
    if not states:
        raise RuntimeError("workload has no hyperbolic states to take kernel operands from")
    comps = [c for s in states for c in s.psi.components()]
    return {
        "algebra.mul_ns": _per_call_ns(operator.mul, [(s.psi.c1, s.psi.c2) for s in states]),
        "algebra.exp_j_ns": _per_call_ns(
            mods["algebra"].exp_j, [(s.sign_choice * s.profile.theta[0],) for s in states]
        ),
        "algebra.h_arg_ns": _per_call_ns(mods["algebra"].h_arg, [(c,) for c in comps if c.sq_modulus() > 0]),
        "linear.mat_apply_ns": _per_call_ns(mods["linear"].mat_apply, unitaries),
    }


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _import_self_us(env: dict, code: str) -> dict[str, int]:
    """Self time in us of each module `python -c code` imports, from -X importtime."""
    proc = pipeline.run_child(["-X", "importtime", "-c", code], env)
    if proc.returncode != 0:
        raise RuntimeError(f"python -X importtime -c {code!r} failed: {proc.stderr[-500:]}")
    return {m.group(4): int(m.group(1)) for m in _IMPORTTIME.finditer(proc.stderr)}


def process_layers(runner) -> dict[str, float]:
    """Interpreter start, imports, argument parsing and main(), for `qlra analyze`."""
    env = pipeline.child_env()
    starts = []
    for _ in range(INTERPRETER_STARTS):
        t0 = time.perf_counter_ns()
        pipeline.run_child(["-c", "pass"], env)
        starts.append((time.perf_counter_ns() - t0) / 1e3)
    bare = set(_import_self_us(env, "pass"))
    runs = [_import_self_us(env, "import qlra.cli") for _ in range(IMPORT_RUNS)]
    metrics = {"cli.interpreter_start_us": statistics.median(starts)}
    for module in IMPORTED:
        metrics[f"import.{module}.self_us"] = statistics.median(r.get(module, 0) for r in runs)
    metrics["import.deps.self_us"] = statistics.median(
        sum(us for m, us in r.items() if m not in bare and m != "qlra" and not m.startswith("qlra.")) for r in runs
    )

    cli = runner.mods["cli"]
    perf = time.perf_counter_ns
    parser_ns = []
    for _ in range(PARSER_CALLS):
        t0 = perf()
        cli.build_parser()
        parser_ns.append(perf() - t0)
    metrics["cli.build_parser_us"] = statistics.median(parser_ns) / 1e3

    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=pipeline.ROOT))
    try:
        main_ns = []
        for k, case in enumerate(runner.pool[:MAIN_CALLS]):
            path = workdir / f"main{k}.json"
            path.write_text(case.text, encoding="utf-8")
            sink = io.StringIO()
            t0 = perf()
            with contextlib.redirect_stderr(sink):
                try:
                    cli.main(["analyze", str(path)], out=sink)
                except Exception:  # a traceback in the CLI: timed like any other call
                    pass
            main_ns.append(perf() - t0)
        metrics["cli.main_us"] = statistics.median(main_ns) / 1e3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics


def per_layer(runner, seconds: float):
    """The traced run: (checker of the timed ops, per-layer metrics, info)."""
    spans = Spans()
    spans.install(runner.mods)
    checker, totals = traced_ops(runner, spans, TRACED_SHARE * seconds)
    (ops0, ns0), (ops, ns) = totals[False], totals[True]
    # The edge set once, traced apart: its exceptions count in the errors,
    # its times stay out of the self times of the workload's ops.
    edge_spans = Spans()
    edge_spans.install(runner.mods)
    edge_spans.enable()
    try:
        pipeline.check_edge_set(runner.mods, runner.edge)
    finally:
        edge_spans.disable()
    metrics: dict[str, tuple[float, str]] = {}
    for layer, fname in SPANNED:
        name = f"{layer}.{fname}"
        metrics[f"{name}.self_us"] = (spans.self_ns[name] / ops / 1e3, "us")
        errors = spans.errors[name] + edge_spans.errors[name]
        metrics[f"{name}.errors"] = (1000 * errors / (ops + len(runner.edge)), "1/kop")
    for name, value in count_calls(runner, runner.mods, COUNT_OPS).items():
        metrics[f"{name}.calls_per_op"] = (value, "count")
    for name, value in kernel_ns(runner, runner.mods).items():
        metrics[name] = (value, "ns")
    for name, value in process_layers(runner).items():
        metrics[name] = (value, "us")
    untraced_us, traced_us = ns0 / ops0 / 1e3, ns / ops / 1e3
    metrics["trace.overhead_pct"] = (100 * (traced_us / untraced_us - 1), "%")
    info = {
        "traced_ops": ops,
        "untraced_ops": ops0,
        "op_mean_us_untraced": untraced_us,
        "op_mean_us_traced": traced_us,
        "spans_per_op": sum(spans.calls.values()) / ops,
        "edge_errors": dict(edge_spans.errors),
        "counted_ops": min(COUNT_OPS, len(runner.pool)),
        "wait_time": "none reported: one thread and no queue, so no layer waits on another",
    }
    return checker, metrics, info
