"""Probabilistic data model for a pair of dichotomous observables.

A context bundles the marginals of observables a and b with the
transition-probability matrices between them.  This module validates
contexts, computes interference coefficients, classifies the
interference regime, and generates feasible hyperbolic contexts.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .errors import InfeasibleContextError, RegimeError

__all__ = [
    "Direction",
    "Regime",
    "InterferenceProfile",
    "ProbContext",
    "POSITIVITY_MARGIN",
    "TOLERANCE",
    "validate_context",
    "interference_coefficients",
    "generate_hyperbolic_context",
    "lambda_feasible_range",
    "random_hyperbolic_context",
]

# Strict positivity margin for probabilities: entries must lie in
# [POSITIVITY_MARGIN, 1 - POSITIVITY_MARGIN].
POSITIVITY_MARGIN = 1e-12

# The default tolerance of every check, and of `qlra analyze --tolerance`.
TOLERANCE = 1e-9

# The draws random_hyperbolic_context makes before it gives up.
_MAX_TRIES = 10_000

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


class Direction(Enum):
    """Which conditioning order drives the construction."""

    B_GIVEN_A = "b_given_a"
    A_GIVEN_B = "a_given_b"


class Regime(Enum):
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    HYPER_TRIGONOMETRIC = "hyper_trigonometric"


class InterferenceProfile(namedtuple("InterferenceProfile", "lam epsilon theta regime")):
    """Per-outcome interference coefficients and their phase decomposition.

    lam[i] is the normalized deviation of the observed marginal from the
    classical total-probability value.  In the hyperbolic regime
    lam = epsilon * cosh(theta); in the trigonometric regime
    lam = cos(theta).  Fields: lam, theta (float pairs), epsilon (a pair
    of +-1) and regime (a Regime).
    """

    __slots__ = ()


# Enum members as module constants: the stages read them on every call, and a global is faster to read.
_B_GIVEN_A, _A_GIVEN_B = Direction  # in definition order
_TRIGONOMETRIC, _HYPERBOLIC, _HYPER_TRIGONOMETRIC = Regime  # in definition order


def _transpose(M: Matrix2) -> Matrix2:
    return ((M[0][0], M[1][0]), (M[0][1], M[1][1]))


def _as_pair(v, what: str, shape: str = "a 2-array") -> tuple[float, float]:
    """Two finite floats, from anything float() takes; else ValueError naming `what`."""
    if type(v) is list and len(v) == 2:  # JSON's floats are taken as they are
        x, y = v
        if type(x) is float and type(y) is float and math.isfinite(x + y):  # x + y is finite only if both are
            return x, y
    try:
        pair = tuple(map(float, v)) if isinstance(v, (list, tuple)) else ()
    except (TypeError, ValueError, OverflowError):
        pair = ()
    if len(pair) != 2 or not all(map(math.isfinite, pair)):
        raise ValueError(f"{what} must be {shape} of finite numbers, got {v!r}")
    return pair


def _as_matrix(M, what: str = "transition matrix") -> Matrix2:
    if not (isinstance(M, (list, tuple)) and len(M) == 2):
        raise ValueError(f"{what} must be a 2x2 array of finite numbers, got {M!r}")
    return (_as_pair(M[0], what, "a 2x2 array"), _as_pair(M[1], what, "a 2x2 array"))


class ProbContext(namedtuple("ProbContext", "p_a p_b p_b_given_a p_a_given_b")):
    """Marginals and transition matrices for two dichotomous observables.

    ``p_b_given_a[i][j]`` is the probability of b-outcome i given
    a-outcome j (conditioned outcome indexes rows).  When
    ``p_a_given_b`` is omitted it defaults to the transpose of
    ``p_b_given_a``; ``a_given_b_defaulted`` records that assumption.
    """

    __slots__ = ()

    def __new__(cls, p_a, p_b, p_b_given_a, p_a_given_b=None):
        # The one parse gate: shapes checked, entries made finite floats.
        p_a = _as_pair(p_a, "field 'p_a'")
        p_b = _as_pair(p_b, "field 'p_b'")
        p_b_given_a = _as_matrix(p_b_given_a, "field 'P_b_given_a'")
        if p_a_given_b is not None:
            p_a_given_b = _as_matrix(p_a_given_b, "field 'P_a_given_b'")
        return tuple.__new__(cls, (p_a, p_b, p_b_given_a, p_a_given_b))

    # _replace builds through _make: both go through the parse gate.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def a_given_b_defaulted(self) -> bool:
        return self.p_a_given_b is None

    def to_dict(self) -> dict:
        d = {
            "p_a": list(self.p_a),
            "p_b": list(self.p_b),
            "P_b_given_a": [list(r) for r in self.p_b_given_a],
        }
        if self.p_a_given_b is not None:
            d["P_a_given_b"] = [list(r) for r in self.p_a_given_b]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ProbContext":
        if not isinstance(d, dict):
            raise ValueError("context must be a JSON object")
        for key in ("p_a", "p_b", "P_b_given_a"):
            if key not in d:
                raise ValueError(f"missing required field {key!r}")
        if "P_a_given_b" in d and d["P_a_given_b"] is None:  # only absence defaults
            raise ValueError("field 'P_a_given_b' must be a 2x2 array of finite numbers, got None")
        return cls(d["p_a"], d["p_b"], d["P_b_given_a"], d.get("P_a_given_b"))


def _require_tolerance(tol: float) -> None:
    """The rule of `qlra analyze --tolerance`: ValueError unless tol is positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def validate_context(ctx: ProbContext, tol: float = TOLERANCE) -> list[str]:
    """Return a list of violated invariants; empty means valid.

    Checks marginal normalization, strict positivity, and the double
    stochasticity of both matrices (one violation each, naming the sums off).
    Raises ValueError unless tol is positive and finite.
    """
    _require_tolerance(tol)
    lo, hi = POSITIVITY_MARGIN, 1.0 - POSITIVITY_MARGIN
    (a0, a1), (b0, b1), M, N = ctx
    violations = []
    if abs(a0 + a1 - 1.0) > tol:
        violations.append(f"p_a does not sum to 1 (sum={a0 + a1!r})")
    if not lo <= a0 <= hi:
        violations.append(f"p_a[0]={a0!r} outside (0,1)")
    if not lo <= a1 <= hi:
        violations.append(f"p_a[1]={a1!r} outside (0,1)")
    if abs(b0 + b1 - 1.0) > tol:
        violations.append(f"p_b does not sum to 1 (sum={b0 + b1!r})")
    if not lo <= b0 <= hi:
        violations.append(f"p_b[0]={b0!r} outside (0,1)")
    if not lo <= b1 <= hi:
        violations.append(f"p_b[1]={b1!r} outside (0,1)")
    _check_matrix("P_b_given_a", M, tol, violations)
    if N is not None:
        _check_matrix("P_a_given_b", N, tol, violations)
    return violations


def _check_matrix(name: str, M: Matrix2, tol: float, violations: list[str]) -> None:
    """validate_context's checks of a matrix: entries in (0,1), then one violation for its line sums off 1."""
    lo, hi = POSITIVITY_MARGIN, 1.0 - POSITIVITY_MARGIN
    (m00, m01), (m10, m11) = M
    if not lo <= m00 <= hi:
        violations.append(f"{name}[0][0]={m00!r} outside (0,1)")
    if not lo <= m01 <= hi:
        violations.append(f"{name}[0][1]={m01!r} outside (0,1)")
    if not lo <= m10 <= hi:
        violations.append(f"{name}[1][0]={m10!r} outside (0,1)")
    if not lo <= m11 <= hi:
        violations.append(f"{name}[1][1]={m11!r} outside (0,1)")
    r0, r1, c0, c1 = m00 + m01, m10 + m11, m00 + m10, m01 + m11
    if abs(r0 - 1.0) > tol or abs(r1 - 1.0) > tol or abs(c0 - 1.0) > tol or abs(c1 - 1.0) > tol:
        sums = (("row 0", r0), ("row 1", r1), ("column 0", c0), ("column 1", c1))
        off = ", ".join(f"{line} sum={s!r}" for line, s in sums if abs(s - 1.0) > tol)
        violations.append(f"{name} is not doubly stochastic ({off})")


def _oriented(ctx: ProbContext, direction: Direction) -> tuple:
    """(conditioning marginals, conditioned marginals, transition matrix) of ctx in one conditioning order.

    The one place that maps a direction to its inputs: b|a conditions on a through P_b_given_a, a|b on b
    through P_a_given_b, whose default is the transpose of P_b_given_a.  ValueError unless direction is a Direction.
    """
    if direction is _B_GIVEN_A:
        return ctx.p_a, ctx.p_b, ctx.p_b_given_a
    if direction is _A_GIVEN_B:
        return ctx.p_b, ctx.p_a, ctx.p_a_given_b or _transpose(ctx.p_b_given_a)
    raise ValueError(f"direction must be a Direction, got {direction!r}")


def interference_coefficients(ctx: ProbContext, direction: Direction) -> InterferenceProfile:
    """Coefficients of interference for one conditioning order.

    For each conditioned outcome i,
    lam[i] = (p_out[i] - sum_k p_cond[k] * M[i][k])
             / (2 * sqrt(prod_k p_cond[k] * M[i][k])).
    Raises ValueError unless direction is a Direction, and RegimeError
    when a product under the square root is not positive and finite.
    """
    (c0, c1), (o0, o1), ((m00, m01), (m10, m11)) = _oriented(ctx, direction)
    prod0, prod1 = (c0 * m00) * (c1 * m01), (c0 * m10) * (c1 * m11)
    if not (0.0 < prod0 < math.inf and 0.0 < prod1 < math.inf):  # then lam is never nan: |lam| <= 1 off acosh
        raise RegimeError(f"degenerate denominator for outcome {1 if 0.0 < prod0 < math.inf else 0}: "
                          "probabilities must be strictly positive")
    (l0, _), (e0, _), (t0, _), r0 = _coefficients(c0, c1, o0, m00, m01)  # outcome i is outcome 0 of row i
    (l1, _), (e1, _), (t1, _), r1 = _coefficients(c0, c1, o1, m10, m11)
    return tuple.__new__(InterferenceProfile, ((l0, l1), (e0, e1), (t0, t1), r0 if r0 is r1 else _HYPER_TRIGONOMETRIC))


def _coefficients(c0, c1, o0, p, q) -> InterferenceProfile:
    """The profile of the doubly stochastic order [[p, q], [q, p]] with conditioning marginals c and outcome 0's
    conditioned marginal o0, on floats: outcome 0's lam, and lam1 = -lam0 by Proposition 1."""
    k0, k1 = c0 * p, c1 * q  # outcome 0's joint probabilities
    # No check: a valid context's entries lie in [1e-12, 1 - 1e-12], so k0 * k1 >= 1e-48.
    lam0 = (o0 - (k0 + k1)) / (2.0 * math.sqrt(k0 * k1))
    lam1 = 0.0 - lam0  # +0.0, not -0.0, when lam0 is 0
    big = abs(lam0) > 1.0  # as is |lam1|: one regime, and theta1 is theta0 if big, else about pi - theta0
    theta = (math.acosh(abs(lam0)), math.acosh(abs(lam1))) if big else (math.acos(lam0), math.acos(lam1))
    epsilon = (1 if lam0 >= 0 else -1, 1 if lam1 >= 0 else -1)
    return tuple.__new__(InterferenceProfile, ((lam0, lam1), epsilon, theta, _HYPERBOLIC if big else _TRIGONOMETRIC))


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
