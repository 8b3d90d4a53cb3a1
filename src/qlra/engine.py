"""Amplitude reconstruction: probabilities in, hyperbolic amplitudes out.

Given a valid context in the hyperbolic regime, builds a normalized
split-complex amplitude whose squared moduli reproduce the marginals of
both observables (Born's rule), for either conditioning order.  The
pipeline, equivalence.analyze, reads a valid context once as its four
numbers (p_a1, p_b1, p, p'); per direction, context._coefficients computes
lam0 and sets lam1 = -lam0 (Proposition 1), analyze computes
exp_j(sc*theta) once, _state builds the state on floats, and _born and
_expansion_gap check it.  A state's transition matrix is its diagonal p.
run_qlra hands out analyze's state.  The object layer is built only by
QlraState's ``psi`` property, an HVector2, and by
equivalence.transition_unitary, whose HNumber columns are a matrix's
conditioning basis; they import it in their bodies: the pipeline never
loads the object layer.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .context import TOLERANCE, Direction, ProbContext, _oriented

__all__ = [
    "QlraState",
    "BornReport",
    "run_qlra",
    "verify_born_rule",
    "expansion_consistency",
]


class QlraState(namedtuple(
    "QlraState", "amplitude direction profile diagonal conditioning_marginals sign_choice", defaults=(1,)
)):
    """A reconstructed amplitude ``psi`` in the conditioned observable's basis, as floats.

    ``amplitude`` is psi in null-cone coordinates (u1, v1, u2, v2), and ``diagonal`` the p, in
    [0, 1], of the doubly stochastic transition matrix [[p, 1 - p], [1 - p, p]]: the other
    observable's eigenvectors are (sqrt p, sqrt(1 - p)) and (sqrt(1 - p), -sqrt p), the columns
    of equivalence.transition_unitary of that matrix.  The ``psi`` property builds psi as an
    HVector2 on each access.
    ``conditioning_marginals`` are the conditioning observable's marginals (the basis
    expansion's coefficients); ``sign_choice`` selects the branch of the hyperbolic
    phase: the amplitude uses exp_j(sign_choice * theta).
    """

    __slots__ = ()

    @property
    def psi(self):
        from .algebra import _hn
        from .linear import HVector2
        u1, v1, u2, v2 = self.amplitude
        return HVector2(_hn(u1, v1), _hn(u2, v2))


def _require_diagonal(p: float) -> None:
    """The public checks' gate on a state's diagonal p: ValueError unless 0 <= p <= 1, which NaN fails."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"diagonal must lie in [0, 1], got {p!r}")


def _require_finite(*coords: float) -> None:
    """algebra._hn's check on each null-cone pair (u, v) of coords: ValueError names the first bad one."""
    for u, v in zip(coords[::2], coords[1::2]):
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError(f"non-finite null-cone coordinates: {u!r}, {v!r}")


def run_qlra(ctx: ProbContext, direction: Direction, sign_choice: int = 1) -> QlraState:
    """Reconstruct the hyperbolic amplitude for one conditioning order: analyze's state for it.

    With theta = arccosh|lam[0]| and s = sign(lam[0]):

        psi_1 = sqrt(m1*M[0][0]) + s*exp_j(sc*theta)*sqrt(m2*M[0][1])
        psi_2 = sqrt(m1*M[1][0]) - s*exp_j(sc*theta)*sqrt(m2*M[1][1])

    where m are the conditioning marginals and sc = sign_choice.  Both
    phase branches satisfy Born's rule for all four probabilities.  ctx is
    validated at TOLERANCE and read as its four numbers (p_a1, p_b1, p, p').
    """
    from .equivalence import _analyzed
    entries, _, _ = _analyzed(ctx, TOLERANCE, sign_choice, (direction,))
    return entries[0][4]


def _state(m0, m1, p, profile, direction, sign_choice, phase) -> QlraState:
    """analyze's state on floats: conditioning marginals m and the diagonal p of the doubly stochastic
    transition matrix [[p, q], [q, p]], q = 1 - p, given the direction's hyperbolic profile and
    exp_j(sign_choice * theta) as phase = (eu, ev).  It checks nothing: analyze has.
    """
    q, (eu, ev) = 1.0 - p, phase
    s = profile.epsilon[0]
    pu, pv = s * eu, s * ev
    a00, a01 = math.sqrt(m0 * p), math.sqrt(m1 * q)
    a10, a11 = math.sqrt(m0 * q), math.sqrt(m1 * p)
    amplitude = (a00 + pu * a01, a00 + pv * a01, a10 - pu * a11, a10 - pv * a11)
    # Every coordinate is finite: each entry of a valid ctx lies in [1e-12, 1 - 1e-12], so
    # |lam| <= 1/(2*1e-24), e^theta <= 2|lam| <= 1e24, and every coordinate, here and in _born's
    # inner products with the roots of p and q, which lie in [0, 1], stays below 1e25.
    return tuple.__new__(QlraState, (amplitude, direction, profile, p, (m0, m1), sign_choice))


class BornReport(namedtuple("BornReport", "conditioned_residuals conditioning_residuals")):
    """Absolute deviations from Born's rule for all four probabilities, as two float pairs."""

    __slots__ = ()

    @property
    def max_residual(self) -> float:
        return max(self.conditioned_residuals + self.conditioning_residuals)


def verify_born_rule(state: QlraState, ctx: ProbContext) -> BornReport:
    """Check |psi_i|^2 = u_i*v_i and |<psi, e_k>|^2 against both marginal pairs; ValueError for a bad direction
    or a diagonal outside [0, 1]."""
    c, o, _ = _oriented(ctx, state.direction)
    _require_diagonal(state.diagonal)
    return _born(state.amplitude, state.diagonal, c, o)[0]


def _born(amplitude, p, c, o) -> tuple[BornReport, tuple[float, float, float, float]]:
    """verify_born_rule on a state's amplitude and diagonal p, against conditioning marginals c and conditioned
    marginals o, and the null-cone coordinates of <psi, e_k>: U psi, as U = [[sqrt p, sqrt q], [sqrt q, -sqrt p]],
    q = 1 - p, is symmetric with the basis e_k as its columns.  It checks nothing on p, which must lie in [0, 1]."""
    (c0, c1), (o0, o1) = c, o
    u1, v1, u2, v2 = amplitude
    rp, rq = math.sqrt(p), math.sqrt(1.0 - p)
    # For the real e_k, conj(e_k) = e_k: <psi, e_k> = psi_1*e_k1 + psi_2*e_k2.
    iu1, iv1 = u1 * rp + u2 * rq, v1 * rp + v2 * rq
    iu2, iv2 = u1 * rq - u2 * rp, v1 * rq - v2 * rp
    if not math.isfinite(iu1 + iv1 + iu2 + iv2):
        _require_finite(iu1, iv1, iu2, iv2)
    conditioned = (abs(u1 * v1 - o0), abs(u2 * v2 - o1))
    return tuple.__new__(BornReport, (conditioned, (abs(iu1 * iv1 - c0), abs(iu2 * iv2 - c1)))), (iu1, iv1, iu2, iv2)


def expansion_consistency(state: QlraState) -> float:
    """Max componentwise gap between the amplitude and its basis expansion.

    The expansion sqrt(m1)*e1 + s*exp_j(sc*theta)*sqrt(m2)*e2 must
    coincide with the coordinate form produced by run_qlra.  ValueError for a diagonal outside [0, 1].
    """
    _require_diagonal(state.diagonal)
    t = state.sign_choice * state.profile.theta[0]
    eu, ev = math.exp(t), math.exp(-t)  # exp_j(sc*theta)
    if not math.isfinite(eu + ev):
        _require_finite(eu, ev)
    return _expansion_gap(state, (eu, ev))


def _expansion_gap(state: QlraState, phase: tuple[float, float]) -> float:
    """expansion_consistency given the state's exp_j(sc*theta) as phase = (eu, ev), which analyze has computed."""
    (m0, m1), (eu, ev) = state.conditioning_marginals, phase
    r1 = math.sqrt(m0)
    r2 = state.profile.epsilon[0] * math.sqrt(m1)
    ku, kv = r2 * eu, r2 * ev
    u1, v1, u2, v2 = state.amplitude
    rp, rq = math.sqrt(state.diagonal), math.sqrt(1.0 - state.diagonal)
    du1, dv1 = u1 - (r1 * rp + ku * rq), v1 - (r1 * rp + kv * rq)
    du2, dv2 = u2 - (r1 * rq - ku * rp), v2 - (r1 * rq - kv * rp)
    # A component's gap max(|re|, |hy|) is (|du| + |dv|)/2, as max(|a + b|, |a - b|) = |a| + |b|.
    return 0.5 * max(abs(du1) + abs(dv1), abs(du2) + abs(dv2))
