"""Synthetic data: feasible hyperbolic contexts, their lambda band, and the non-doubly-stochastic counterexample.

It also holds the commands that print it, ``qlra generate``, ``sweep`` and ``demo-violation``, which qlra.cli
forwards here; only they run this module.  Like qlra.algebra and qlra.linear, it is imported on its own: the
package root does not re-export it.
"""

from __future__ import annotations

import json
import math
import random
from collections import namedtuple

from . import __version__
from .context import (_B_GIVEN_A, POSITIVITY_MARGIN, Direction, Matrix2, ProbContext, Regime, _transpose,
                      interference_coefficients, validate_context)
from .errors import InfeasibleContextError, RegimeError

__all__ = [
    "lambda_feasible_range",
    "generate_hyperbolic_context",
    "random_hyperbolic_context",
    "ViolationReport",
    "born_violation_demo",
]

# The draws random_hyperbolic_context makes before it gives up.
_MAX_TRIES = 10_000


def _band(p: float, p_a1: float) -> tuple[float, float, float, float]:
    """(S, R, band_low, band_high): feasible raw range of lam1; ValueError unless p, p_a1 in (0,1) and R > 0."""
    if not (0.0 < p < 1.0 and 0.0 < p_a1 < 1.0):
        raise ValueError("p and p_a1 must lie in (0,1)")
    S = p_a1 * p + (1.0 - p_a1) * (1.0 - p)
    R = math.sqrt(p_a1 * p * (1.0 - p_a1) * (1.0 - p))
    if R == 0.0:
        raise ValueError(f"p={p!r} and p_a1={p_a1!r} give no band: p*p_a1*(1-p)*(1-p_a1) underflows to 0")
    return S, R, (0.0 - S) / (2.0 * R), (1.0 - S) / (2.0 * R)


def lambda_feasible_range(p: float, p_a1: float) -> tuple[tuple[float, float], ...]:
    """Open intervals of lam1 giving a valid hyperbolic context.

    Intersects {lam : S + 2*lam*R in (0,1)} with {|lam| > 1} for the
    symmetric matrix [[p, 1-p], [1-p, p]]; returns zero, one, or two
    open (low, high) intervals, negative side first.
    """
    _, _, lo, hi = _band(p, p_a1)
    out = []
    if lo < -1.0:
        out.append((lo, -1.0))
    if hi > 1.0:
        out.append((1.0, hi))
    return tuple(out)


def generate_hyperbolic_context(p: float, p_a1: float, lambda1: float) -> ProbContext:
    """Build a doubly stochastic context realizing a given lam1 with |lam1| > 1.

    The b|a matrix is [[p, 1-p], [1-p, p]] and the a|b matrix its
    transpose (identical, by symmetry); the b-marginal is chosen so the
    interference formula reproduces lambda1 exactly.  A context that
    validate_context rejects (say, p within POSITIVITY_MARGIN of 0)
    raises InfeasibleContextError naming the violations.
    """
    S, R, _, _ = _band(p, p_a1)
    if abs(lambda1) <= 1.0:
        raise RegimeError(f"|lambda1|={abs(lambda1)!r} <= 1: not hyperbolic")
    p_b1 = S + 2.0 * lambda1 * R
    if not (POSITIVITY_MARGIN < p_b1 < 1.0 - POSITIVITY_MARGIN):
        intervals = lambda_feasible_range(p, p_a1)
        raise InfeasibleContextError(
            f"lambda1={lambda1!r} gives p_b1={p_b1!r} outside (0,1); "
            f"feasible range: {intervals or 'empty'}"
        )
    M = ((p, 1.0 - p), (1.0 - p, p))
    ctx = ProbContext(
        p_a=(p_a1, 1.0 - p_a1),
        p_b=(p_b1, 1.0 - p_b1),
        p_b_given_a=M,
        p_a_given_b=_transpose(M),
    )
    violations = validate_context(ctx)
    if violations:
        raise InfeasibleContextError("generated context is invalid: " + "; ".join(violations))
    return ctx


def random_hyperbolic_context(rng: random.Random) -> ProbContext:
    """Rejection-sample a valid hyperbolic context, giving up after _MAX_TRIES draws.

    Draws (p, p_a1) uniformly, skips pairs with an empty feasible band,
    and samples lam1 in the interior of a feasible interval.  With
    x = 2*p_a1 - 1, y = 2*p_b1 - 1 and z = 2p - 1, lam^2 - 1 is
    (x^2 + y^2 + z^2 - 2xyz - 1) / ((1 - x^2)(1 - z^2)) for b|a and the
    same numerator over (1 - y^2)(1 - z^2) for a|b, so the a|b order is
    hyperbolic too; its check guards only against rounding as |lam| -> 1.
    """
    for _ in range(_MAX_TRIES):
        p = rng.uniform(0.02, 0.98)
        p_a1 = rng.uniform(0.02, 0.98)
        intervals = lambda_feasible_range(p, p_a1)
        if not intervals:
            continue
        lo, hi = intervals[rng.randrange(len(intervals))]
        # Stay away from interval edges: |lam| -> 1 degenerates to the
        # trigonometric boundary and the other edge pushes p_b to 0/1.
        pad = 0.05 * (hi - lo)
        lam1 = rng.uniform(lo + pad, hi - pad)
        try:
            ctx = generate_hyperbolic_context(p, p_a1, lam1)
        except InfeasibleContextError:
            continue
        if interference_coefficients(ctx, Direction.A_GIVEN_B).regime is Regime.HYPERBOLIC:
            return ctx
    raise InfeasibleContextError(f"no feasible context found in {_MAX_TRIES} tries")


class ViolationReport(namedtuple(
    "ViolationReport", "p q matrix basis_overlap basis_overlap_sq lambda_relation_residual"
)):
    """Diagnostics for the non-doubly-stochastic counterexample.

    With transition matrix [[p, p], [q, q]] (q = 1 - p) the two
    candidate conditioning-basis vectors stop being orthogonal: their
    inner product equals p - q^2/p, which vanishes only at p = 1/2.
    The interference coefficients are locked to lam1 = -(q/p)*lam2.
    """

    __slots__ = ()


def born_violation_demo(p: float) -> ViolationReport:
    """Evaluate the counterexample matrix [[p, p], [1-p, 1-p]].

    Uses the modified second basis vector (sqrt(p), -(q/p)*sqrt(q)) and
    reports its overlap with (sqrt(p), sqrt(q)), plus the worst
    deviation of lam1 + (q/p)*lam2 over a sweep of b-marginals.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0,1)")
    q = 1.0 - p
    if p == 0.5:
        raise ValueError("p=0.5 makes the matrix doubly stochastic; no violation")
    M: Matrix2 = ((p, p), (q, q))
    # The float operations of inner_product(e1, e2); the closed form p - q^2/p rounds differently.
    overlap = math.sqrt(p) * math.sqrt(p) + math.sqrt(q) * (-(q / p) * math.sqrt(q))
    overlap_sq = overlap * overlap  # not finite whenever the overlap is not
    if not math.isfinite(overlap_sq):
        raise ValueError(f"squared basis overlap is not finite at p={p!r}")
    # lam1 = -(q/p)*lam2 holds for every marginal assignment; sweep a few.
    worst = 0.0
    for p_b1 in (0.2, 0.35, 0.5, 0.65, 0.8):  # p_a = (1/2, 1/2), conditioned on by the b|a order
        prof = interference_coefficients(ProbContext((0.5, 0.5), (p_b1, 1.0 - p_b1), M), _B_GIVEN_A)
        worst = max(worst, abs(prof.lam[0] + (q / p) * prof.lam[1]))
    return ViolationReport(p, q, M, overlap, overlap_sq, worst)


def _generate(args, out) -> int:
    if args.random:
        if args.p is not None or args.p_a1 is not None or args.lambda1 is not None:
            raise ValueError("--random excludes --p/--p-a1/--lambda")
        count = 1 if args.count is None else args.count
        if count < 1:
            raise ValueError(f"--count must be at least 1, got {count}")
        rng = random.Random(0 if args.seed is None else args.seed)
        contexts = (random_hyperbolic_context(rng) for _ in range(count))
    elif args.count is not None or args.seed is not None:
        raise ValueError("--count and --seed need --random")
    elif args.p is None or args.p_a1 is None or args.lambda1 is None:
        raise ValueError("provide --p, --p-a1 and --lambda (or --random)")
    else:
        contexts = [generate_hyperbolic_context(args.p, args.p_a1, args.lambda1)]
    for ctx in contexts:  # one line each, whose floats read back exactly
        print(json.dumps(ctx.to_dict()), file=out)
    return 0


def _parse_grid(spec: str) -> list[float]:
    try:
        a, b, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    # The step is tested before it divides: a step of 0 or -0 is a bad grid, not a ZeroDivisionError.
    if not (0.0 < step < float("inf") and float("-inf") < a <= b and (count := (b - a) / step) < float("inf")):
        raise ValueError(f"bad grid {spec!r}")
    # Only the points a + i*step with i from -a/step to (1 - a)/step can lie in
    # (0, 1); the filter drops what rounding puts on or past either end.
    n = round(count)
    first = math.floor(min(max(-a / step, 0.0), n))
    last = math.ceil(min(max((1.0 - a) / step, 0.0), n))
    return [v for v in (a + i * step for i in range(first, last + 1)) if 0.0 < v < 1.0]


def _sweep(args, out) -> int:
    from .cli import _fmt_float  # already loaded: the command came through qlra.cli

    # A bad grid exits before the header; a point whose band underflows, after the rows before it.
    p_grid = _parse_grid(args.p_grid)
    pa_grid = _parse_grid(args.pa_grid)
    print("p,p_a1,band_low,band_high,hyperbolic_feasible", file=out)
    for p in p_grid:
        for p_a1 in pa_grid:
            # Raw band before the |lambda| > 1 cut; lambda_feasible_range is nonempty exactly when it crosses it.
            _, _, lo, hi = _band(p, p_a1)
            feasible = lo < -1.0 or hi > 1.0
            row = f"{_fmt_float(p)},{_fmt_float(p_a1)},{_fmt_float(lo)},{_fmt_float(hi)}"
            print(row + (",true" if feasible else ",false"), file=out)
    return 0


def _demo_violation(args, out) -> int:
    # A tiny p fails in the demo (a degenerate denominator, or an overflowing basis_overlap_sq); main reports that
    # p as unusable input.  The report's fields after the version are the ViolationReport's, in its order.
    from .cli import dumps

    rep = born_violation_demo(args.p)
    note = (
        "basis_overlap = p - q^2/p; nonzero overlap means the "
        "conditioning basis is not orthogonal and the reconstruction "
        "cannot satisfy the squared-modulus rule for both observables"
    )
    print(dumps({"tool": "qlra", "version": __version__, **rep._asdict(), "note": note}), file=out)
    return 0
