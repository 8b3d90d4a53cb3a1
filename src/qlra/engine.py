"""Amplitude reconstruction: probabilities in, hyperbolic amplitudes out.

Given a valid context in the hyperbolic regime, builds a normalized
split-complex amplitude whose squared moduli reproduce the marginals of
both observables (Born's rule), for either conditioning order.  The
pipeline's core reads a valid context once as its four numbers
(p_a1, p_b1, p, p'); per direction, context._coefficients computes lam0
and sets lam1 = -lam0 (Proposition 1), the core exp_j(sc*theta) once,
_state the state on floats, and _born and _expansion_gap check it.
HVector2s are built only by QlraState's ``psi`` and ``conditioning_basis``
properties and by equivalence.transition_unitary, whose columns are a
matrix's conditioning basis; they import qlra.algebra and qlra.linear in
their bodies: the pipeline never loads the object layer.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .context import (_A_GIVEN_B, _B_GIVEN_A, _HYPERBOLIC, TOLERANCE, Direction, ProbContext, _coefficients, _oriented,
                      validate_context)
from .errors import RegimeError, StochasticityError

__all__ = [
    "QlraState",
    "BornReport",
    "run_qlra",
    "verify_born_rule",
    "expansion_consistency",
]


class QlraState(namedtuple(
    "QlraState", "amplitude direction profile basis_roots conditioning_marginals sign_choice", defaults=(1,)
)):
    """A reconstructed amplitude ``psi`` in the conditioned observable's basis, as floats.

    ``amplitude`` is psi in null-cone coordinates (u1, v1, u2, v2), and ``basis_roots``
    the roots (r00, r01, r10, r11) of the transition matrix: the other observable's
    eigenvectors, ``conditioning_basis``, are (r00, r10) and (r01, -r11).  The ``psi`` and
    ``conditioning_basis`` properties build HVector2s on each access.
    ``conditioning_marginals`` are the conditioning observable's marginals (the basis
    expansion's coefficients); ``sign_choice`` selects the branch of the hyperbolic
    phase: the amplitude uses exp_j(sign_choice * theta).
    """

    __slots__ = ()

    @property
    def psi(self) -> HVector2:
        from .algebra import _hn
        from .linear import HVector2
        u1, v1, u2, v2 = self.amplitude
        return HVector2(_hn(u1, v1), _hn(u2, v2))

    @property
    def conditioning_basis(self) -> tuple[HVector2, HVector2]:
        return _basis_vectors(self.basis_roots)


def _basis_vectors(roots: tuple[float, float, float, float]) -> tuple[HVector2, HVector2]:
    from .algebra import _hn
    from .linear import HVector2
    r00, r01, r10, r11 = roots
    # A real number r has null-cone coordinates (r, r); HNumber(-0.0) would make u +0.0.
    e1 = HVector2(_hn(r00, r00), _hn(r10, r10))
    e2 = HVector2(_hn(r01, r01), _hn(-r11, -r11))
    return (e1, e2)


def _require_finite(*coords: float) -> None:
    """algebra._hn's check on each null-cone pair (u, v) of coords: ValueError names the first bad one."""
    for u, v in zip(coords[::2], coords[1::2]):
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError(f"non-finite null-cone coordinates: {u!r}, {v!r}")


def run_qlra(ctx: ProbContext, direction: Direction, sign_choice: int = 1) -> QlraState:
    """Reconstruct the hyperbolic amplitude for one conditioning order.

    With theta = arccosh|lam[0]| and s = sign(lam[0]):

        psi_1 = sqrt(m1*M[0][0]) + s*exp_j(sc*theta)*sqrt(m2*M[0][1])
        psi_2 = sqrt(m1*M[1][0]) - s*exp_j(sc*theta)*sqrt(m2*M[1][1])

    where m are the conditioning marginals and sc = sign_choice.  Both
    phase branches satisfy Born's rule for all four probabilities.  ctx is
    validated at TOLERANCE and read as its four numbers (p_a1, p_b1, p, p').
    """
    _, _, (state,) = _reconstructed(ctx, TOLERANCE, sign_choice, (direction,))
    return state


def _validate_and_reconstruct(ctx: ProbContext, tol: float, sign_choice: int, directions) -> tuple:
    """The pipeline's core, and the one place that checks its arguments: validate ctx once at tol; if
    valid, check sign_choice (ValueError unless +-1), read ctx once as its four numbers (p_a1, p_b1, p, p'),
    p and p' the mean diagonals of its matrices, and per direction compute the interference profile
    (ValueError for a direction that is not a Direction) and, if hyperbolic, exp_j(sc*theta) and the state.
    Returns (violations, p, p', [(direction, profile, state or None, conditioning marginals, conditioned
    marginals, exp_j(sc*theta) as (eu, ev) or None)]), the marginals as ctx has them, or (violations, None, None, []).
    """
    violations = validate_context(ctx, tol)
    if violations:
        return violations, None, None, []
    if sign_choice not in (1, -1):
        raise ValueError("sign_choice must be +1 or -1")
    p_a, p_b, M, N = ctx
    N = N or M  # a defaulted a|b matrix is the transpose of M, which has M's diagonal
    p, q = (M[0][0] + M[1][1]) / 2.0, (N[0][0] + N[1][1]) / 2.0
    steps = []
    for d in directions:  # a direction is (conditioning marginal, conditioned marginal, diagonal)
        if d is _B_GIVEN_A:
            c, o, diag = p_a, p_b, p
        elif d is _A_GIVEN_B:
            c, o, diag = p_b, p_a, q
        else:
            _oriented(ctx, d)  # raises its ValueError: d is not a Direction
        # The stages see the exactly doubly stochastic context [[diag, off], [off, diag]] of the four numbers.
        x, x1, y, off = c[0], 1.0 - c[0], o[0], 1.0 - diag
        profile = _coefficients(x, x1, y, diag, off)
        if profile.regime is _HYPERBOLIC:
            t = sign_choice * profile.theta[0]
            eu, ev = math.exp(t), math.exp(-t)  # exp_j(sc*theta), for the state and its expansion check
            steps.append((d, profile, _state(x, x1, diag, profile, d, sign_choice, eu, ev), c, o, (eu, ev)))
        else:
            steps.append((d, profile, None, c, o, None))
    return violations, p, q, steps


def _reconstructed(ctx: ProbContext, tol: float, sign_choice: int, directions) -> tuple:
    """(p, p', one state per direction) from the core.  Raises StochasticityError for an invalid ctx,
    then the core's ValueError, then RegimeError for the first direction that is not hyperbolic.
    """
    violations, p, q, steps = _validate_and_reconstruct(ctx, tol, sign_choice, directions)
    if violations:
        raise StochasticityError("invalid context: " + "; ".join(violations))
    for d, profile, state, *_ in steps:
        if state is None:
            raise RegimeError(f"{d.value} data is {profile.regime.value}, not hyperbolic (lam={profile.lam})")
    return p, q, [step[2] for step in steps]


def _state(m0, m1, p, profile, direction, sign_choice, eu, ev) -> QlraState:
    """The core's state on floats: conditioning marginals m and the diagonal p of the doubly stochastic
    transition matrix [[p, q], [q, p]], q = 1 - p, given the direction's hyperbolic profile and
    exp_j(sign_choice * theta) = (eu, ev).  It checks nothing: the core has.
    """
    q = 1.0 - p
    s = profile.epsilon[0]
    pu, pv = s * eu, s * ev
    a00, a01 = math.sqrt(m0 * p), math.sqrt(m1 * q)
    a10, a11 = math.sqrt(m0 * q), math.sqrt(m1 * p)
    amplitude = (a00 + pu * a01, a00 + pv * a01, a10 - pu * a11, a10 - pv * a11)
    # Every coordinate is finite: each entry of a valid ctx lies in [1e-12, 1 - 1e-12], so
    # |lam| <= 1/(2*1e-24), e^theta <= 2|lam| <= 1e24, and every coordinate, here and in the verdict's
    # transported amplitude, stays below 1e25.
    rp, rq = math.sqrt(p), math.sqrt(q)
    return tuple.__new__(QlraState, (amplitude, direction, profile, (rp, rq, rq, rp), (m0, m1), sign_choice))


class BornReport(namedtuple("BornReport", "conditioned_residuals conditioning_residuals")):
    """Absolute deviations from Born's rule for all four probabilities, as two float pairs."""

    __slots__ = ()

    @property
    def max_residual(self) -> float:
        return max(self.conditioned_residuals + self.conditioning_residuals)


def verify_born_rule(state: QlraState, ctx: ProbContext) -> BornReport:
    """Check |psi_i|^2 = u_i*v_i and |<psi, e_k>|^2 against both marginal pairs; ValueError for a bad direction."""
    c, o, _ = _oriented(ctx, state.direction)
    return _born(state.amplitude, state.basis_roots, c, o)


def _born(amplitude, roots, c, o) -> BornReport:
    """verify_born_rule on a state's floats, against conditioning marginals c and conditioned marginals o."""
    (c0, c1), (o0, o1) = c, o
    u1, v1, u2, v2 = amplitude
    r00, r01, r10, r11 = roots
    # For the real e_k, conj(e_k) = e_k: <psi, e_k> = psi_1*e_k1 + psi_2*e_k2.
    iu1, iv1 = u1 * r00 + u2 * r10, v1 * r00 + v2 * r10
    iu2, iv2 = u1 * r01 - u2 * r11, v1 * r01 - v2 * r11
    if not math.isfinite(iu1 + iv1 + iu2 + iv2):
        _require_finite(iu1, iv1, iu2, iv2)
    conditioned = (abs(u1 * v1 - o0), abs(u2 * v2 - o1))
    return tuple.__new__(BornReport, (conditioned, (abs(iu1 * iv1 - c0), abs(iu2 * iv2 - c1))))


def expansion_consistency(state: QlraState) -> float:
    """Max componentwise gap between the amplitude and its basis expansion.

    The expansion sqrt(m1)*e1 + s*exp_j(sc*theta)*sqrt(m2)*e2 must
    coincide with the coordinate form produced by run_qlra.
    """
    t = state.sign_choice * state.profile.theta[0]
    eu, ev = math.exp(t), math.exp(-t)  # exp_j(sc*theta)
    if not math.isfinite(eu + ev):
        _require_finite(eu, ev)
    return _expansion_gap(state, (eu, ev))


def _expansion_gap(state: QlraState, phase: tuple[float, float]) -> float:
    """expansion_consistency given the state's exp_j(sc*theta) as phase = (eu, ev), which the core has computed."""
    (m0, m1), (eu, ev) = state.conditioning_marginals, phase
    r1 = math.sqrt(m0)
    r2 = state.profile.epsilon[0] * math.sqrt(m1)
    ku, kv = r2 * eu, r2 * ev
    u1, v1, u2, v2 = state.amplitude
    r00, r01, r10, r11 = state.basis_roots
    du1, dv1 = u1 - (r1 * r00 + ku * r01), v1 - (r1 * r00 + kv * r01)
    du2, dv2 = u2 - (r1 * r10 - ku * r11), v2 - (r1 * r10 - kv * r11)
    # A component's gap max(|re|, |hy|) is (|du| + |dv|)/2, as max(|a + b|, |a - b|) = |a| + |b|.
    return 0.5 * max(abs(du1) + abs(dv1), abs(du2) + abs(dv2))
