"""Probabilistic data model for a pair of dichotomous observables.

A context bundles the marginals of observables a and b with the
transition-probability matrices between them.  This module validates
contexts, computes interference coefficients and classifies the
interference regime.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .errors import RegimeError

__all__ = [
    "Direction",
    "Regime",
    "InterferenceProfile",
    "ProbContext",
    "POSITIVITY_MARGIN",
    "TOLERANCE",
    "validate_context",
    "interference_coefficients",
]

# Strict positivity margin for probabilities: entries must lie in
# [POSITIVITY_MARGIN, 1 - POSITIVITY_MARGIN].
POSITIVITY_MARGIN = 1e-12

# The default tolerance of every check, and of `qlra analyze --tolerance`.
TOLERANCE = 1e-9

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
        # The one parse gate: shapes checked, entries made finite floats.  JSON's lists of two floats, and matrices
        # of two such rows, are taken in one step, with one isfinite on their sum (finite only if every entry is;
        # an overflow falls through).  Anything else goes through _as_pair and _as_matrix, which word the errors.
        M, N = p_b_given_a, p_b_given_a if p_a_given_b is None else p_a_given_b
        try:  # only lists are unpacked, which runs no Python code; one not of length 2 raises ValueError
            if type(p_a) is type(p_b) is type(M) is type(N) is list:
                (a0, a1), (b0, b1), (m0, m1), (n0, n1) = p_a, p_b, M, N
                if type(m0) is type(m1) is type(n0) is type(n1) is list:
                    (m00, m01), (m10, m11), (n00, n01), (n10, n11) = m0, m1, n0, n1
                    if (type(a0) is type(a1) is type(b0) is type(b1) is type(m00) is type(m01) is type(m10)
                            is type(m11) is type(n00) is type(n01) is type(n10) is type(n11) is float
                            and math.isfinite(a0 + a1 + b0 + b1 + m00 + m01 + m10 + m11 + n00 + n01 + n10 + n11)):
                        N = None if p_a_given_b is None else ((n00, n01), (n10, n11))
                        return tuple.__new__(cls, ((a0, a1), (b0, b1), ((m00, m01), (m10, m11)), N))
        except ValueError:
            pass
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
    (m00, m01), (m10, m11) = M
    (n00, n01), (n10, n11) = N or M  # a defaulted a|b matrix, M's transpose, has M's entries and line sums
    # Valid in one expression: every entry in [lo, hi] and all 10 line sums within tol.  The per-field checks
    # run only to word the violations.
    if (lo <= a0 <= hi and lo <= a1 <= hi and lo <= b0 <= hi and lo <= b1 <= hi
            and lo <= m00 <= hi and lo <= m01 <= hi and lo <= m10 <= hi and lo <= m11 <= hi
            and lo <= n00 <= hi and lo <= n01 <= hi and lo <= n10 <= hi and lo <= n11 <= hi
            and abs(a0 + a1 - 1.0) <= tol and abs(b0 + b1 - 1.0) <= tol
            and abs(m00 + m01 - 1.0) <= tol and abs(m10 + m11 - 1.0) <= tol
            and abs(m00 + m10 - 1.0) <= tol and abs(m01 + m11 - 1.0) <= tol
            and abs(n00 + n01 - 1.0) <= tol and abs(n10 + n11 - 1.0) <= tol
            and abs(n00 + n10 - 1.0) <= tol and abs(n01 + n11 - 1.0) <= tol):
        return []
    return _violations(ctx, tol)


def _violations(ctx: ProbContext, tol: float) -> list[str]:
    """validate_context's per-field checks, in its order: each violation worded."""
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

    The one place that maps a direction to its inputs of a raw context: b|a conditions on a through P_b_given_a,
    a|b on b through P_a_given_b, by default the transpose of P_b_given_a.  ValueError unless direction is a Direction.
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
    big = abs(lam0) > 1.0  # as is |lam1| = |lam0|: one regime; theta1 is theta0 exactly if big, else about pi - theta0
    theta = (math.acosh(abs(lam0)),) * 2 if big else (math.acos(lam0), math.acos(lam1))
    epsilon = (1 if lam0 >= 0 else -1, 1 if lam1 >= 0 else -1)
    return tuple.__new__(InterferenceProfile, ((lam0, lam1), epsilon, theta, _HYPERBOLIC if big else _TRIGONOMETRIC))
