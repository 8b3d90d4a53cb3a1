"""Command-line front-end.

Subcommands: ``analyze`` (full pipeline on a JSON context), ``generate``
(emit contexts, fixed-parameter or random), ``sweep`` (CSV feasibility
map), ``demo-violation`` (the non-doubly-stochastic counterexample).

Reports are serialized deterministically: fixed field order and floats
rendered with 12 significant digits, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from .context import (
    Direction,
    ProbContext,
    Regime,
    _band,
    generate_hyperbolic_context,
    interference_coefficients,
    lambda_feasible_range,
    random_hyperbolic_context,
    validate_context,
)
from .engine import born_violation_demo, expansion_consistency, reconstruct, verify_born_rule
from .equivalence import consistency_verdict, relation_residual
from .errors import InfeasibleContextError, QlraError, RegimeError

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_REGIME = 2
EXIT_INCONSISTENT = 3

DEFAULT_TOLERANCE = 1e-9


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value in report: {x!r}")
    s = format(x, ".12g")
    # Keep the output valid JSON: bare exponents and integers are fine,
    # but normalize "-0" away for reproducibility.
    if s == "-0":
        s = "0"
    return s


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON serialization with 12-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps(x, indent + 1) for x in obj]
        if all("\n" not in it and len(it) < 40 for it in items):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {dumps(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "}"
    raise TypeError(f"unserializable object of type {type(obj).__name__}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _profile_dict(profile) -> dict:
    return {
        "lambda": list(profile.lam),
        "epsilon": list(profile.epsilon),
        "theta": list(profile.theta),
        "regime": profile.regime.value,
    }


def cmd_analyze(args, out) -> int:
    try:  # --tolerance, else QLRA_TOLERANCE, else the default: it governs every check
        tolerance = float(args.tolerance)
    except ValueError:
        tolerance = float("nan")
    if not 0.0 < tolerance < float("inf"):
        print(f"error: tolerance {args.tolerance!r} is not positive and finite", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        raw = json.loads(_read_input(args.input))
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        ctx = ProbContext.from_dict(raw)
    except ValueError as exc:
        print(f"error: bad context: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT

    report = {
        "tool": "qlra",
        "version": __version__,
        "tolerance": tolerance,
        "sign_branch": args.sign_branch,
        "input": ctx.to_dict(),
        "p_a_given_b_defaulted": ctx.a_given_b_defaulted,
    }
    violations = validate_context(ctx, tol=tolerance)
    report["validation"] = {"valid": not violations, "violations": violations}
    if violations:
        print(dumps(report), file=out)
        return EXIT_INVALID_INPUT

    directions = {
        "b_given_a": Direction.B_GIVEN_A,
        "a_given_b": Direction.A_GIVEN_B,
    }
    if args.direction != "both":
        directions = {args.direction: directions[args.direction]}

    exit_code = EXIT_OK
    dir_reports = {}
    states = {}
    regimes_ok = True
    for name, direction in directions.items():
        entry = {}
        profile = interference_coefficients(ctx, direction)
        entry.update(_profile_dict(profile))
        if profile.regime is Regime.HYPERBOLIC:
            # Validated above, at the run's tolerance: build without re-checking.
            state = states[name] = reconstruct(ctx, direction, args.sign_branch)
            born = verify_born_rule(state, ctx)
            entry["born_residuals"] = {
                "conditioned": list(born.conditioned_residuals),
                "conditioning": list(born.conditioning_residuals),
                "max": born.max_residual,
            }
            entry["expansion_deviation"] = expansion_consistency(state)
        else:
            regimes_ok = False
            entry["error"] = (
                f"regime is {profile.regime.value}: |lambda| <= 1 for at least "
                "one outcome; hyperbolic reconstruction not applicable"
            )
        dir_reports[name] = entry
    report["directions"] = dir_reports

    if not regimes_ok:
        print(dumps(report), file=out)
        return EXIT_REGIME

    if args.direction == "both":
        state_ba, state_ab = states["b_given_a"], states["a_given_b"]
        verdict = consistency_verdict(ctx, state_ba, state_ab, tolerance)
        eq_entry = {
            "equivalent": verdict.equivalent,
            "gamma": verdict.gamma,
            "sign": verdict.sign,
            "symmetry_holds": verdict.symmetry_holds,
            "max_component_deviation": verdict.max_component_deviation,
        }
        if verdict.symmetry_holds:
            eq_entry["proof_relation_residual"] = relation_residual(state_ab, state_ba)
        report["equivalence"] = eq_entry
        if not verdict.equivalent:
            exit_code = EXIT_INCONSISTENT
    print(dumps(report), file=out)
    return exit_code


def cmd_generate(args, out) -> int:
    if args.random:
        if args.p is not None or args.p_a1 is not None or args.lambda1 is not None:
            print("error: --random excludes --p/--p-a1/--lambda", file=sys.stderr)
            return EXIT_INVALID_INPUT
        if args.count < 1:
            print(f"error: --count must be at least 1, got {args.count}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        rng = random.Random(args.seed)
        for _ in range(args.count):
            ctx = random_hyperbolic_context(rng)
            print(dumps(ctx.to_dict()) if args.count == 1 else json.dumps(ctx.to_dict()), file=out)
        return EXIT_OK
    if args.p is None or args.p_a1 is None or args.lambda1 is None:
        print("error: provide --p, --p-a1 and --lambda (or --random)", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        ctx = generate_hyperbolic_context(args.p, args.p_a1, args.lambda1)
    except (ValueError, RegimeError, InfeasibleContextError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    print(dumps(ctx.to_dict()), file=out)
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    try:
        a, b, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    if step <= 0 or b < a:
        raise ValueError(f"bad grid {spec!r}")
    n = int(round((b - a) / step))
    values = [a + i * step for i in range(n + 1)]
    return [v for v in values if 0.0 < v < 1.0]


def cmd_sweep(args, out) -> int:
    try:
        p_grid = _parse_grid(args.p_grid)
        pa_grid = _parse_grid(args.pa_grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    print("p,p_a1,band_low,band_high,hyperbolic_feasible", file=out)
    for p in p_grid:
        for p_a1 in pa_grid:
            # Raw band before the |lambda| > 1 cut.
            _, _, lo, hi = _band(p, p_a1)
            feasible = bool(lambda_feasible_range(p, p_a1))
            print(
                f"{_fmt_float(p)},{_fmt_float(p_a1)},{_fmt_float(lo)},"
                f"{_fmt_float(hi)},{'true' if feasible else 'false'}",
                file=out,
            )
    return EXIT_OK


def cmd_demo_violation(args, out) -> int:
    try:
        rep = born_violation_demo(args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    report = {
        "tool": "qlra",
        "version": __version__,
        "p": rep.p,
        "q": rep.q,
        "matrix": [list(r) for r in rep.matrix],
        "basis_overlap": rep.basis_overlap,
        "basis_overlap_sq": rep.basis_overlap_sq,
        "lambda_relation_residual": rep.lambda_relation_residual,
        "note": (
            "basis_overlap = p - q^2/p; nonzero overlap means the "
            "conditioning basis is not orthogonal and the reconstruction "
            "cannot satisfy the squared-modulus rule for both observables"
        ),
    }
    print(dumps(report), file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlra",
        description=(
            "Reconstruct hyperbolic-valued probability amplitudes from "
            "dichotomous probabilistic data and check the consistency of "
            "the two conditioning orders."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the full pipeline on a JSON context")
    p_an.add_argument("input", help="path to a context JSON file, or - for stdin")
    p_an.add_argument("--tolerance", default=os.environ.get("QLRA_TOLERANCE") or DEFAULT_TOLERANCE)
    p_an.add_argument(
        "--sign-branch",
        type=int,
        choices=(1, -1),
        default=1,
        help="branch of the hyperbolic phase (+1 or -1)",
    )
    p_an.add_argument(
        "--direction",
        choices=("b_given_a", "a_given_b", "both"),
        default="both",
    )
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="emit context JSON")
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--p-a1", dest="p_a1", type=float, default=None)
    p_gen.add_argument("--lambda", dest="lambda1", type=float, default=None)
    p_gen.add_argument("--random", action="store_true")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.set_defaults(func=cmd_generate)

    p_sw = sub.add_parser("sweep", help="CSV feasibility map over (p, p_a1)")
    p_sw.add_argument("--p-grid", required=True, help="start:stop:step")
    p_sw.add_argument("--pa-grid", required=True, help="start:stop:step")
    p_sw.set_defaults(func=cmd_sweep)

    p_dv = sub.add_parser(
        "demo-violation", help="non-doubly-stochastic counterexample diagnostics"
    )
    p_dv.add_argument("--p", type=float, required=True)
    p_dv.set_defaults(func=cmd_demo_violation)

    return parser


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except QlraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
