"""Amplitude reconstruction: probabilities in, hyperbolic amplitudes out.

Given a valid context in the hyperbolic regime, builds a normalized
split-complex amplitude whose squared moduli reproduce the marginals of
both observables (Born's rule), for either conditioning order.  Also
reproduces the classic counterexample showing why double stochasticity
is essential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import HNumber, exp_j
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
from .linear import HVector2, inner_product

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


@dataclass(frozen=True)
class QlraState:
    """A reconstructed amplitude in the conditioned observable's basis.

    ``conditioning_basis`` holds the other observable's eigenvectors in
    the same coordinates; ``conditioning_marginals`` are the marginals
    of the conditioning observable (the coefficients of the basis
    expansion).  ``sign_choice`` selects the branch of the hyperbolic
    phase: the amplitude uses exp_j(sign_choice * theta).
    """

    psi: HVector2
    direction: Direction
    profile: InterferenceProfile
    conditioning_basis: tuple[HVector2, HVector2]
    conditioning_marginals: tuple[float, float]
    sign_choice: int = 1


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
    e1 = HVector2(HNumber(math.sqrt(M[0][0])), HNumber(math.sqrt(M[1][0])))
    e2 = HVector2(HNumber(math.sqrt(M[0][1])), HNumber(-math.sqrt(M[1][1])))
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
    return reconstruct(ctx, direction, sign_choice)


def reconstruct(ctx: ProbContext, direction: Direction, sign_choice: int) -> QlraState:
    """run_qlra for a ctx that already passed validate_context; nothing is re-checked
    (a defaulted a|b matrix is the transpose of a checked one).
    """
    if sign_choice not in (1, -1):
        raise ValueError("sign_choice must be +1 or -1")
    M = ctx.matrix(direction)
    profile = interference_coefficients(ctx, direction)
    if profile.regime is not Regime.HYPERBOLIC:
        raise RegimeError(
            f"{direction.value} data is {profile.regime.value}, not hyperbolic "
            f"(lam={profile.lam})"
        )
    m, _ = ctx.marginals(direction)
    s = profile.epsilon[0]
    phase = exp_j(sign_choice * profile.theta[0])
    term = lambda i, j: math.sqrt(m[j] * M[i][j])
    psi = HVector2(
        HNumber(term(0, 0)) + (s * phase) * HNumber(term(0, 1)),
        HNumber(term(1, 0)) - (s * phase) * HNumber(term(1, 1)),
    )
    return QlraState(
        psi=psi,
        direction=direction,
        profile=profile,
        conditioning_basis=_basis(M),
        conditioning_marginals=m,
        sign_choice=sign_choice,
    )


@dataclass(frozen=True)
class BornReport:
    """Absolute deviations from Born's rule for all four probabilities."""

    conditioned_residuals: tuple[float, float]
    conditioning_residuals: tuple[float, float]

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
    e1, e2 = state.conditioning_basis
    expanded = e1.scale(math.sqrt(m[0])) + e2.scale((s * phase) * HNumber(math.sqrt(m[1])))
    diff = state.psi - expanded
    return max(
        abs(diff.c1.re), abs(diff.c1.hy), abs(diff.c2.re), abs(diff.c2.hy)
    )


@dataclass(frozen=True)
class ViolationReport:
    """Diagnostics for the non-doubly-stochastic counterexample.

    With transition matrix [[p, p], [q, q]] (q = 1 - p) the two
    candidate conditioning-basis vectors stop being orthogonal: their
    inner product equals p - q^2/p, which vanishes only at p = 1/2.
    The interference coefficients are locked to lam1 = -(q/p)*lam2.
    """

    p: float
    q: float
    matrix: Matrix2
    basis_overlap: float
    basis_overlap_sq: float
    lambda_relation_residual: float


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
    return ViolationReport(
        p=p,
        q=q,
        matrix=M,
        basis_overlap=overlap.re,
        basis_overlap_sq=overlap.sq_modulus(),
        lambda_relation_residual=worst,
    )
