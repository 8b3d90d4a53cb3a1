"""Command-line front-end: ``analyze`` runs the full pipeline on a JSON context.

The parser also declares ``generate`` (emit contexts, fixed-parameter or random), ``sweep`` (CSV feasibility map)
and ``demo-violation`` (the non-doubly-stochastic counterexample).  Their code lives in qlra.synthetic, which one
forwarder imports when they run, so an ``analyze`` process never loads it.

Reports are serialized deterministically: fixed field order and floats rendered with 12 significant digits, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from functools import partial

from . import __version__
from .context import TOLERANCE, Direction, ProbContext, Regime, _require_tolerance
from .engine import analyze
from .errors import QlraError

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_REGIME = 2
EXIT_INCONSISTENT = 3
_BOTH = tuple(Direction)  # analyze --direction both


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    s = format(x, ".12g")
    # Keep the output valid JSON: bare exponents and integers are fine,
    # but normalize "-0" away for reproducibility.
    return "0" if s == "-0" else s


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON serialization with 12-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, (list, tuple)) and obj:
        items = [dumps(x, indent + 1) for x in obj]
        if all("\n" not in it and len(it) < 40 for it in items):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict) and obj:
        items = [
            f"{json.dumps(str(k))}: {dumps(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "}"
    return json.dumps(obj)


# The writer below knows the `analyze` report's shape: it joins the constant of each section the report has and
# fills them with one %; dumps of the parsed report must give back its bytes, and the tests hold it to that.
_str = json.encoder.encode_basestring_ascii
_plus_zero = partial(operator.add, 0.0)  # 0.0 + x is x, except that -0.0 becomes 0.0
_HEAD = (
    '{\n  "tool": "qlra",\n  "version": ' + _str(__version__) + ',\n  "tolerance": %.12g,\n  "sign_branch": %d,\n'
    '  "input": {\n    "p_a": [%.12g, %.12g],\n    "p_b": [%.12g, %.12g],\n    "P_b_given_a": '
)
_MATRIX, _MATRIX_LINES = "[[%.12g, %.12g], [%.12g, %.12g]]", "[\n      [%.12g, %.12g],\n      [%.12g, %.12g]\n    ]"
_VALIDATION = '\n  },\n  "p_a_given_b_defaulted": %s,\n  "validation": {\n    "valid": '
_VALID = 'true,\n    "violations": []\n  }'
# The input section up to "valid", by the templates of P_b_given_a and P_a_given_b (None when defaulted).
_INPUT = {
    (m, n): _HEAD + m + (',\n    "P_a_given_b": ' + n if n else "") + _VALIDATION % ("false" if n else "true")
    for m in (_MATRIX, _MATRIX_LINES) for n in (_MATRIX, _MATRIX_LINES, None)
}
# A direction's entry by (direction, regime): its lambda, epsilon and theta, then the Born report (analyze builds a
# state exactly when hyperbolic) or the error.  The regimes are the two context._coefficients returns.  Direction and
# Regime values are plain identifiers, so in quotes each is its JSON string.
_ENTRY = '": {\n      "lambda": [%.12g, %.12g],\n      "epsilon": [%d, %d],\n      "theta": [%.12g, %.12g],\n      "regime": "'
_BORN = (
    '",\n      "born_residuals": {\n        "conditioned": [%.12g, %.12g],\n        "conditioning": [%.12g, %.12g],\n'
    '        "max": %.12g\n      },\n      "expansion_deviation": %.12g\n    }'
)
_NOT_HYPERBOLIC = ': |lambda| <= 1 for at least one outcome; hyperbolic reconstruction not applicable"\n    }'
_ENTRIES = {
    (d.value, r.value): '    "' + d.value + _ENTRY + r.value
    + (_BORN if r is Regime.HYPERBOLIC else '",\n      "error": "regime is ' + r.value + _NOT_HYPERBOLIC)
    for d in Direction for r in (Regime.HYPERBOLIC, Regime.TRIGONOMETRIC)
}
# The directions' closing and the equivalence block, by (equivalent, symmetry holds).  A verdict has gamma and
# sign exactly when it is equivalent, and analyze computes the proof relation residual exactly when symmetry holds.
_EQUIVALENCE = ',\n  "equivalence": {\n    "equivalent": %s,\n    "gamma": %s,\n    "sign": %s,\n    "symmetry_holds": '
_EQUIVALENT, _NOT_EQUIVALENT = _EQUIVALENCE % ("true", "%.12g", "%d"), _EQUIVALENCE % ("false", "null", "null")
_EQUIVALENCES = {
    (eq, sym): "\n  }" + (_EQUIVALENT if eq else _NOT_EQUIVALENT) + ("true" if sym else "false")
    + ',\n    "max_component_deviation": %.12g' + (',\n    "proof_relation_residual": %.12g' if sym else "")
    + "\n  }\n}"
    for eq in (True, False) for sym in (True, False)
}


def _matrix_template(M) -> str:
    """The template of a 2x2 matrix in the report: on one line unless a row, as dumps writes it, has 40 characters."""
    (a, b), (c, d) = M
    # A float in [1e-99, 1e100) has at most 17 characters at %.12g, so a row of two of them has at most 38.
    if 1e-99 <= a < 1e100 and 1e-99 <= b < 1e100 and 1e-99 <= c < 1e100 and 1e-99 <= d < 1e100:
        return _MATRIX
    # Unnormalized, -0.0 is written "-0", one character more than "0"; that cannot tip a row, whose other float
    # has at most 19.
    short = max(len("[%.12g, %.12g]" % (a, b)), len("[%.12g, %.12g]" % (c, d))) < 40
    return _MATRIX if short else _MATRIX_LINES


def _report_json(ctx, tolerance, sign_branch, violations, directions, verdict, residual) -> str:
    """The analyze report from engine.analyze's result (directions: its entries), filled with one %.

    An entry's state is not printed, its Born report and expansion deviation are.  Each float slot is
    written as _fmt_float writes it: a non-finite value raises, and -0 is 0.  A valid context comes with
    at least one direction, and a verdict with the directions it compares.
    """
    (a0, a1), (b0, b1), M, N = ctx
    (m0, m1), (m2, m3) = M
    values = (tolerance, sign_branch, a0, a1, b0, b1, m0, m1, m2, m3)
    # N is None when defaulted; a valid context's entries lie in [1e-12, 1 - 1e-12], so its rows go on one line.
    head = _INPUT[_matrix_template(M), N and _matrix_template(N)] if violations else _INPUT[_MATRIX, N and _MATRIX]
    if N is not None:
        (n0, n1), (n2, n3) = N
        values += (n0, n1, n2, n3)
    if violations:
        listed = list(map(_str, violations))
        if max(map(len, listed)) < 40:
            listed = "[" + ", ".join(listed) + "]"
        else:
            listed = "[\n      " + ",\n      ".join(listed) + "\n    ]"
        template = [head, 'false,\n    "violations": ', listed.replace("%", "%%"), "\n  }\n}"]
    else:
        template = [head + _VALID + ',\n  "directions": {\n']
        for direction, ((l0, l1), (e0, e1), (t0, t1), regime), born, deviation, _ in directions:
            # _value_ is .value without the Enum property's Python-level call.
            template += (_ENTRIES[direction._value_, regime._value_], ",\n")
            if born is None:  # off the hyperbolic regime
                values += (l0, l1, e0, e1, t0, t1)
            else:
                (c0, c1), (k0, k1) = born
                values += (l0, l1, e0, e1, t0, t1, c0, c1, k0, k1, max(c0, c1, k0, k1), deviation)
        if verdict is None:
            template[-1] = "\n  }\n}"  # in place of the last entry's separator
        else:
            equivalent, gamma, sign, deviation, symmetry_holds = verdict
            template[-1] = _EQUIVALENCES[equivalent, symmetry_holds]
            verdict_values = (gamma, sign, deviation) if equivalent else (deviation,)
            values += verdict_values + (residual,) if symmetry_holds else verdict_values
    if not math.isfinite(sum(values)):  # an inf or nan term makes the sum inf or nan; so can overflow
        for x in values:
            _fmt_float(x)  # raises for the first non-finite value
    # Only an invalid context's input can be -0.0: on a valid one every echoed input lies in [1e-12, 1 - 1e-12] and
    # tolerance is positive; lambda's numerator is a difference of positive floats, theta comes from acos or acosh,
    # the Born, expansion, deviation and residual values are built from abs, and gamma is at worst x - x = +0.
    if violations and 0.0 in values:  # 0.0 or -0.0
        values = tuple(map(_plus_zero, values))
    return "".join(template) % values


def cmd_analyze(args, out) -> int:
    # Bad input raises QlraError, as the library does, for main to write as its one error line.
    try:  # --tolerance, else the default: it governs every check
        tolerance = float(args.tolerance)
        _require_tolerance(tolerance)
    except ValueError:
        raise QlraError(f"tolerance {args.tolerance!r} is not positive and finite") from None
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QlraError(f"cannot read input: {exc}") from None
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, too deep, or an integer past the digit limit
        raise QlraError(f"invalid JSON: {exc}") from None
    try:
        ctx = ProbContext.from_dict(raw)
    except ValueError as exc:
        raise QlraError(f"bad context: {exc}") from None

    directions = _BOTH if args.direction == "both" else (Direction(args.direction),)
    violations, entries, verdict, residual = analyze(ctx, tolerance, args.sign_branch, directions)
    print(_report_json(ctx, tolerance, args.sign_branch, violations, entries, verdict, residual), file=out)
    if violations:
        return EXIT_INVALID_INPUT
    if entries[0][2] is None or entries[-1][2] is None:  # a direction is not hyperbolic: no Born report
        return EXIT_REGIME
    return EXIT_INCONSISTENT if verdict is not None and not verdict.equivalent else EXIT_OK


def _synthetic(args, out) -> int:
    """Run generate, sweep or demo-violation, which live beside their data: qlra.synthetic._<command>, - as _."""
    from . import synthetic

    return getattr(synthetic, "_" + args.command.replace("-", "_"))(args, out)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, invalid input: argparse's 2 is "not hyperbolic" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_an.add_argument("--tolerance", default=TOLERANCE)
    p_an.add_argument(
        "--sign-branch",
        type=int,
        choices=(1, -1),
        default=1,
        help="branch of the hyperbolic phase (+1 or -1)",
    )
    p_an.add_argument(
        "--direction",
        choices=(*(d.value for d in Direction), "both"),
        default="both",
    )
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="emit context JSON")
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--p-a1", dest="p_a1", type=float, default=None)
    p_gen.add_argument("--lambda", dest="lambda1", type=float, default=None)
    p_gen.add_argument("--random", action="store_true")
    p_gen.add_argument("--seed", type=int, default=None, help="with --random; default 0")
    p_gen.add_argument("--count", type=int, default=None, help="with --random; default 1")
    p_gen.set_defaults(func=_synthetic)

    p_sw = sub.add_parser("sweep", help="CSV feasibility map over (p, p_a1)")
    p_sw.add_argument("--p-grid", required=True, help="start:stop:step")
    p_sw.add_argument("--pa-grid", required=True, help="start:stop:step")
    p_sw.set_defaults(func=_synthetic)

    p_dv = sub.add_parser(
        "demo-violation", help="non-doubly-stochastic counterexample diagnostics"
    )
    p_dv.add_argument("--p", type=float, required=True)
    p_dv.set_defaults(func=_synthetic)

    return parser


def main(argv=None, out=None) -> int:
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except (ValueError, QlraError) as exc:  # every command's bad input and library errors: one line, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
