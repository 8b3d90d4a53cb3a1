"""Amplitude reconstruction: probabilities in, hyperbolic amplitudes out.

Given a valid context in the hyperbolic regime, builds a normalized
split-complex amplitude whose squared moduli reproduce the marginals of
both observables (Born's rule), for either conditioning order.  Also
reproduces the classic counterexample showing why double stochasticity
is essential.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import HNumber, _hn, exp_j
from .context import (
    Direction,
    InterferenceProfile,
    Matrix2,
    ProbContext,
    Regime,
    interference_coefficients,
    is_doubly_stochastic,
    require_valid,
)
from .errors import RegimeError, StochasticityError
from .linear import HVector2, _vec, inner_product

__all__ = [
    "QlraState",
    "BornReport",
    "ViolationReport",
    "conditioning_basis",
    "run_qlra",
    "verify_born_rule",
    "expansion_consistency",
    "born_violation_demo",
]


class QlraState(namedtuple(
    "QlraState", "psi direction profile conditioning_basis conditioning_marginals sign_choice", defaults=(1,)
)):
    """A reconstructed amplitude ``psi`` (an HVector2) in the conditioned observable's basis.

    ``conditioning_basis`` holds the other observable's eigenvectors in
    the same coordinates; ``conditioning_marginals`` are the marginals
    of the conditioning observable (the coefficients of the basis
    expansion).  ``sign_choice`` selects the branch of the hyperbolic
    phase: the amplitude uses exp_j(sign_choice * theta).
    """

    __slots__ = ()


def conditioning_basis(M: Matrix2) -> tuple[HVector2, HVector2]:
    """Eigenbasis of the conditioning observable, from its transition matrix.

    e1 = (sqrt(M[0][0]), sqrt(M[1][0])), e2 = (sqrt(M[0][1]), -sqrt(M[1][1])).
    Orthonormal under the hyperbolic inner product exactly when M is
    doubly stochastic.
    """
    if not is_doubly_stochastic(M):
        raise StochasticityError(
            "conditioning basis requires a doubly stochastic matrix"
        )
    return _basis(M)


def _basis(M: Matrix2) -> tuple[HVector2, HVector2]:
    (m00, m01), (m10, m11) = M
    r00, r01, r10, r11 = math.sqrt(m00), math.sqrt(m01), math.sqrt(m10), math.sqrt(m11)
    # A real number r has null-cone coordinates (r, r).
    e1 = _vec(_hn(r00, r00), _hn(r10, r10))
    e2 = _vec(_hn(r01, r01), _hn(-r11, -r11))
    return (e1, e2)


def run_qlra(ctx: ProbContext, direction: Direction, sign_choice: int = 1) -> QlraState:
    """Reconstruct the hyperbolic amplitude for one conditioning order.

    With theta = arccosh|lam[0]| and s = sign(lam[0]):

        psi_1 = sqrt(m1*M[0][0]) + s*exp_j(sc*theta)*sqrt(m2*M[0][1])
        psi_2 = sqrt(m1*M[1][0]) - s*exp_j(sc*theta)*sqrt(m2*M[1][1])

    where m are the conditioning marginals and sc = sign_choice.  Both
    phase branches satisfy Born's rule for all four probabilities.
    """
    require_valid(ctx)
    return reconstruct(ctx, direction, interference_coefficients(ctx, direction), sign_choice)


def reconstruct(
    ctx: ProbContext, direction: Direction, profile: InterferenceProfile, sign_choice: int
) -> QlraState:
    """run_qlra for a ctx that already passed validate_context, given the direction's
    interference profile; nothing is re-checked (a defaulted a|b matrix is the
    transpose of a checked one).
    """
    if sign_choice not in (1, -1):
        raise ValueError("sign_choice must be +1 or -1")
    M = ctx.matrix(direction)
    if profile.regime is not Regime.HYPERBOLIC:
        raise RegimeError(
            f"{direction.value} data is {profile.regime.value}, not hyperbolic "
            f"(lam={profile.lam})"
        )
    m, _ = ctx.marginals(direction)
    s = profile.epsilon[0]
    phase = exp_j(sign_choice * profile.theta[0])
    pu, pv = s * phase.u, s * phase.v  # s*phase in null-cone coordinates
    a00, a01 = math.sqrt(m[0] * M[0][0]), math.sqrt(m[1] * M[0][1])
    a10, a11 = math.sqrt(m[0] * M[1][0]), math.sqrt(m[1] * M[1][1])
    psi = _vec(
        _hn(a00 + pu * a01, a00 + pv * a01),
        _hn(a10 - pu * a11, a10 - pv * a11),
    )
    return QlraState(psi, direction, profile, _basis(M), m, sign_choice)


class BornReport(namedtuple("BornReport", "conditioned_residuals conditioning_residuals")):
    """Absolute deviations from Born's rule for all four probabilities, as two float pairs."""

    __slots__ = ()

    @property
    def max_residual(self) -> float:
        return max(self.conditioned_residuals + self.conditioning_residuals)


def verify_born_rule(state: QlraState, ctx: ProbContext) -> BornReport:
    """Check |psi_i|^2 and |<psi, e_k>|^2 against both marginal pairs."""
    m_cond, m_out = ctx.marginals(state.direction)
    comps = state.psi.components()
    conditioned = tuple(
        abs(comps[i].sq_modulus() - m_out[i]) for i in range(2)
    )
    conditioning = tuple(
        abs(inner_product(state.psi, state.conditioning_basis[k]).sq_modulus() - m_cond[k])
        for k in range(2)
    )
    return BornReport(conditioned_residuals=conditioned, conditioning_residuals=conditioning)


def expansion_consistency(state: QlraState) -> float:
    """Max componentwise gap between the amplitude and its basis expansion.

    The expansion sqrt(m1)*e1 + s*exp_j(sc*theta)*sqrt(m2)*e2 must
    coincide with the coordinate form produced by run_qlra.
    """
    m = state.conditioning_marginals
    s = state.profile.epsilon[0]
    phase = exp_j(state.sign_choice * state.profile.theta[0])
    r1 = math.sqrt(m[0])
    r2 = s * math.sqrt(m[1])
    ku, kv = r2 * phase.u, r2 * phase.v
    e1, e2 = state.conditioning_basis
    p1, p2 = state.psi.c1, state.psi.c2
    return max(
        component_gap(p1.u - (r1 * e1.c1.u + ku * e2.c1.u), p1.v - (r1 * e1.c1.v + kv * e2.c1.v)),
        component_gap(p2.u - (r1 * e1.c2.u + ku * e2.c2.u), p2.v - (r1 * e1.c2.v + kv * e2.c2.v)),
    )


def component_gap(du: float, dv: float) -> float:
    """max(|re|, |hy|) of the difference whose null-cone coordinates are (du, dv).

    re, hy = (du + dv)/2, (du - dv)/2, and max(|a + b|, |a - b|) = |a| + |b|.
    """
    return 0.5 * (abs(du) + abs(dv))


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
    e1 = HVector2(HNumber(math.sqrt(p)), HNumber(math.sqrt(q)))
    e2 = HVector2(HNumber(math.sqrt(p)), HNumber(-(q / p) * math.sqrt(q)))
    overlap = inner_product(e1, e2)
    # lam1 = -(q/p)*lam2 holds for every marginal assignment; sweep a few.
    worst = 0.0
    p_a = (0.5, 0.5)
    for p_b1 in (0.2, 0.35, 0.5, 0.65, 0.8):
        ctx = ProbContext(p_a=p_a, p_b=(p_b1, 1.0 - p_b1), p_b_given_a=M)
        prof = interference_coefficients(ctx, Direction.B_GIVEN_A)
        worst = max(worst, abs(prof.lam[0] + (q / p) * prof.lam[1]))
    return ViolationReport(p, q, M, overlap.re, overlap.sq_modulus(), worst)
