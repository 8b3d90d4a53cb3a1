"""Probabilistic data model for a pair of dichotomous observables.

A context bundles the marginals of observables a and b with the
transition-probability matrices between them.  This module validates
contexts, computes interference coefficients, classifies the
interference regime, and generates feasible hyperbolic contexts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .errors import InfeasibleContextError, RegimeError, StochasticityError

__all__ = [
    "Direction",
    "Regime",
    "InterferenceProfile",
    "ProbContext",
    "POSITIVITY_MARGIN",
    "is_doubly_stochastic",
    "validate_context",
    "interference_coefficients",
    "check_proposition1",
    "generate_hyperbolic_context",
    "lambda_feasible_range",
    "random_hyperbolic_context",
]

# Strict positivity margin for probabilities: entries must lie in
# [POSITIVITY_MARGIN, 1 - POSITIVITY_MARGIN].
POSITIVITY_MARGIN = 1e-12

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


class Direction(Enum):
    """Which conditioning order drives the construction."""

    B_GIVEN_A = "b_given_a"
    A_GIVEN_B = "a_given_b"


class Regime(Enum):
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"
    HYPER_TRIGONOMETRIC = "hyper_trigonometric"


@dataclass(frozen=True)
class InterferenceProfile:
    """Per-outcome interference coefficients and their phase decomposition.

    lam[i] is the normalized deviation of the observed marginal from the
    classical total-probability value.  In the hyperbolic regime
    lam = epsilon * cosh(theta); in the trigonometric regime
    lam = cos(theta).
    """

    lam: tuple[float, float]
    epsilon: tuple[int, int]
    theta: tuple[float, float]
    regime: Regime


def _transpose(M: Matrix2) -> Matrix2:
    return ((M[0][0], M[1][0]), (M[0][1], M[1][1]))


def _as_pair(v, what: str, shape: str = "a 2-array") -> tuple[float, float]:
    """Two finite floats, from anything float() takes; else ValueError naming `what`."""
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


@dataclass(frozen=True)
class ProbContext:
    """Marginals and transition matrices for two dichotomous observables.

    ``p_b_given_a[i][j]`` is the probability of b-outcome i given
    a-outcome j (conditioned outcome indexes rows).  When
    ``p_a_given_b`` is omitted it defaults to the transpose of
    ``p_b_given_a``; ``a_given_b_defaulted`` records that assumption.
    """

    p_a: tuple[float, float]
    p_b: tuple[float, float]
    p_b_given_a: Matrix2
    p_a_given_b: Matrix2 | None = None

    def __post_init__(self):
        # The one parse gate: shapes checked, entries made finite floats.
        set_ = object.__setattr__
        set_(self, "p_a", _as_pair(self.p_a, "field 'p_a'"))
        set_(self, "p_b", _as_pair(self.p_b, "field 'p_b'"))
        set_(self, "p_b_given_a", _as_matrix(self.p_b_given_a, "field 'P_b_given_a'"))
        if self.p_a_given_b is not None:
            set_(self, "p_a_given_b", _as_matrix(self.p_a_given_b, "field 'P_a_given_b'"))

    @property
    def a_given_b_defaulted(self) -> bool:
        return self.p_a_given_b is None

    def a_given_b(self) -> Matrix2:
        """The a|b transition matrix, defaulting to transpose(p_b_given_a)."""
        if self.p_a_given_b is not None:
            return self.p_a_given_b
        return _transpose(self.p_b_given_a)

    def marginals(self, direction: Direction) -> tuple[tuple[float, float], tuple[float, float]]:
        """(conditioning marginals, conditioned marginals) for a direction."""
        if direction is Direction.B_GIVEN_A:
            return self.p_a, self.p_b
        return self.p_b, self.p_a

    def matrix(self, direction: Direction) -> Matrix2:
        return self.p_b_given_a if direction is Direction.B_GIVEN_A else self.a_given_b()

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


def is_doubly_stochastic(M: Matrix2, tol: float = 1e-9) -> bool:
    """All row sums and column sums equal 1 within tol, entries nonnegative."""
    M = _as_matrix(M)
    if any(x < -tol for row in M for x in row):
        return False
    sums = [M[0][0] + M[0][1], M[1][0] + M[1][1], M[0][0] + M[1][0], M[0][1] + M[1][1]]
    return all(abs(s - 1.0) <= tol for s in sums)


def validate_context(ctx: ProbContext, tol: float = 1e-9) -> list[str]:
    """Return a list of violated invariants; empty means valid.

    Checks marginal normalization, strict positivity, column
    stochasticity of both matrices, and double stochasticity.
    """
    violations = []
    for name, pair in (("p_a", ctx.p_a), ("p_b", ctx.p_b)):
        s = pair[0] + pair[1]
        if abs(s - 1.0) > tol:
            violations.append(f"{name} does not sum to 1 (sum={s!r})")
        for i, x in enumerate(pair):
            if not (POSITIVITY_MARGIN <= x <= 1.0 - POSITIVITY_MARGIN):
                violations.append(f"{name}[{i}]={x!r} outside (0,1)")
    matrices = [("P_b_given_a", ctx.p_b_given_a)]
    if ctx.p_a_given_b is not None:
        matrices.append(("P_a_given_b", ctx.p_a_given_b))
    for name, M in matrices:
        for i in range(2):
            for j in range(2):
                x = M[i][j]
                if not (POSITIVITY_MARGIN <= x <= 1.0 - POSITIVITY_MARGIN):
                    violations.append(f"{name}[{i}][{j}]={x!r} outside (0,1)")
        for j in range(2):
            s = M[0][j] + M[1][j]
            if abs(s - 1.0) > tol:
                violations.append(f"{name} column {j} not stochastic (sum={s!r})")
        if not is_doubly_stochastic(M, tol):
            violations.append(f"{name} is not doubly stochastic")
    return violations


def require_valid(ctx: ProbContext, tol: float = 1e-9) -> None:
    """Raise StochasticityError listing the violations unless ctx is valid at tol."""
    violations = validate_context(ctx, tol)
    if violations:
        raise StochasticityError("invalid context: " + "; ".join(violations))


def _classify(lam: tuple[float, float]) -> Regime:
    big = [abs(x) > 1.0 for x in lam]
    if all(big):
        return Regime.HYPERBOLIC
    if not any(big):
        return Regime.TRIGONOMETRIC
    return Regime.HYPER_TRIGONOMETRIC


def interference_coefficients(ctx: ProbContext, direction: Direction) -> InterferenceProfile:
    """Coefficients of interference for one conditioning order.

    For each conditioned outcome i,
    lam[i] = (p_out[i] - sum_k p_cond[k] * M[i][k])
             / (2 * sqrt(prod_k p_cond[k] * M[i][k])).
    Raises RegimeError when a product under the square root is not
    strictly positive.
    """
    p_cond, p_out = ctx.marginals(direction)
    M = ctx.matrix(direction)
    lam = []
    for i in range(2):
        prod = (p_cond[0] * M[i][0]) * (p_cond[1] * M[i][1])
        if prod <= 0.0:
            raise RegimeError(
                f"degenerate denominator for outcome {i}: "
                "probabilities must be strictly positive"
            )
        classical = p_cond[0] * M[i][0] + p_cond[1] * M[i][1]
        lam.append((p_out[i] - classical) / (2.0 * math.sqrt(prod)))
    lam = tuple(lam)
    regime = _classify(lam)
    epsilon = tuple(1 if x >= 0 else -1 for x in lam)
    theta = tuple(
        math.acosh(abs(x)) if abs(x) > 1.0 else math.acos(max(-1.0, min(1.0, x)))
        for x in lam
    )
    return InterferenceProfile(lam=lam, epsilon=epsilon, theta=theta, regime=regime)


def check_proposition1(ctx: ProbContext, direction: Direction, tol: float = 1e-10) -> bool:
    """True iff the two interference coefficients cancel (lam1 + lam2 = 0).

    Requires the direction's matrix to be doubly stochastic, under which
    the cancellation is an algebraic identity and the mixed
    hyper-trigonometric regime cannot occur.
    """
    if not is_doubly_stochastic(ctx.matrix(direction), tol=max(tol, 1e-9)):
        raise StochasticityError(f"{direction.value} matrix is not doubly stochastic")
    profile = interference_coefficients(ctx, direction)
    return abs(profile.lam[0] + profile.lam[1]) <= tol


def _band(p: float, p_a1: float) -> tuple[float, float, float, float]:
    """(S, R, band_low, band_high): feasible raw range of lam1."""
    S = p_a1 * p + (1.0 - p_a1) * (1.0 - p)
    R = math.sqrt(p_a1 * p * (1.0 - p_a1) * (1.0 - p))
    return S, R, (0.0 - S) / (2.0 * R), (1.0 - S) / (2.0 * R)


def lambda_feasible_range(p: float, p_a1: float) -> tuple[tuple[float, float], ...]:
    """Open intervals of lam1 giving a valid hyperbolic context.

    Intersects {lam : S + 2*lam*R in (0,1)} with {|lam| > 1} for the
    symmetric matrix [[p, 1-p], [1-p, p]]; returns zero, one, or two
    open (low, high) intervals, negative side first.
    """
    if not (0.0 < p < 1.0 and 0.0 < p_a1 < 1.0):
        raise ValueError("p and p_a1 must lie in (0,1)")
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
    interference formula reproduces lambda1 exactly.
    """
    if not (0.0 < p < 1.0 and 0.0 < p_a1 < 1.0):
        raise ValueError("p and p_a1 must lie in (0,1)")
    if abs(lambda1) <= 1.0:
        raise RegimeError(f"|lambda1|={abs(lambda1)!r} <= 1: not hyperbolic")
    S, R, _, _ = _band(p, p_a1)
    p_b1 = S + 2.0 * lambda1 * R
    if not (POSITIVITY_MARGIN < p_b1 < 1.0 - POSITIVITY_MARGIN):
        intervals = lambda_feasible_range(p, p_a1)
        raise InfeasibleContextError(
            f"lambda1={lambda1!r} gives p_b1={p_b1!r} outside (0,1); "
            f"feasible range: {intervals or 'empty'}"
        )
    M = ((p, 1.0 - p), (1.0 - p, p))
    return ProbContext(
        p_a=(p_a1, 1.0 - p_a1),
        p_b=(p_b1, 1.0 - p_b1),
        p_b_given_a=M,
        p_a_given_b=_transpose(M),
    )


def random_hyperbolic_context(
    rng: random.Random,
    require_both_hyperbolic: bool = True,
    max_tries: int = 10_000,
) -> ProbContext:
    """Rejection-sample a valid hyperbolic context.

    Draws (p, p_a1) uniformly, skips pairs with an empty feasible band,
    and samples lam1 in the interior of a feasible interval.  With
    ``require_both_hyperbolic`` the mirrored a|b coefficients must also
    exceed 1 in absolute value.
    """
    for _ in range(max_tries):
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
        if validate_context(ctx):
            continue
        if require_both_hyperbolic:
            mirrored = interference_coefficients(ctx, Direction.A_GIVEN_B)
            if mirrored.regime is not Regime.HYPERBOLIC:
                continue
        return ctx
    raise InfeasibleContextError(f"no feasible context found in {max_tries} tries")
