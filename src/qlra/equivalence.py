"""Unitary equivalence of the two conditioning-order representations.

The two amplitudes built from the same data under opposite conditioning
orders live in different bases.  A hyperbolic-unitary change of basis
maps one onto the other, up to a multiplier of the form +-exp_j(gamma),
exactly when the two transition matrices are transposes of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .algebra import h_arg
from .context import Direction, Matrix2, ProbContext, require_valid
from .engine import QlraState, conditioning_basis, reconstruct, run_qlra
from .errors import DegenerateStateError
from .linear import HMatrix2, HVector2, sq_norm

__all__ = [
    "EquivalenceVerdict",
    "transition_unitary",
    "states_equivalent",
    "check_consistency",
    "proof_relation_residual",
]

# Components with |z|^2 below this cannot anchor the multiplier
# extraction: division degenerates near the null cone.
_NULL_CONE_FLOOR = 1e-6


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of comparing two states up to a +-exp_j(gamma) multiplier.

    ``symmetry_holds`` is the transpose condition on the transition
    matrices; it is None when the comparison was made on bare vectors
    with no matrices in play.
    """

    equivalent: bool
    gamma: float | None
    sign: int | None
    max_component_deviation: float
    symmetry_holds: bool | None = None


def transition_unitary(p_b_given_a: Matrix2) -> HMatrix2:
    """Basis-change matrix [[sqrt(P00), sqrt(P01)], [sqrt(P10), -sqrt(P11)]].

    Hyperbolic-unitary whenever P is doubly stochastic.
    """
    e1, e2 = conditioning_basis(p_b_given_a)
    return HMatrix2(((e1.c1, e2.c1), (e1.c2, e2.c2)))


def states_equivalent(v1: HVector2, v2: HVector2, tol: float = 1e-9) -> EquivalenceVerdict:
    """Decide whether v1 = s * exp_j(gamma) * v2 for some sign s and real gamma.

    Both vectors must have unit squared norm within tol.  The multiplier
    is extracted from the component of v2 farthest from the null cone;
    equivalence requires it to have unit squared modulus and to map v2
    onto v1 componentwise within tol.
    """
    for name, v in (("v1", v1), ("v2", v2)):
        n = sq_norm(v)
        if abs(n - 1.0) > max(tol, 1e-6):
            raise ValueError(f"{name} is not a unit vector (sq_norm={n!r})")
    comps2 = v2.components()
    mods = [abs(c.sq_modulus()) for c in comps2]
    k = 0 if mods[0] >= mods[1] else 1
    if mods[k] < _NULL_CONE_FLOOR:
        raise DegenerateStateError(
            "every component of v2 lies (numerically) on the null cone"
        )
    c = v1.components()[k] * comps2[k].inv()
    mapped = v2.scale(c)
    diff = v1 - mapped
    deviation = max(abs(diff.c1.re), abs(diff.c1.hy), abs(diff.c2.re), abs(diff.c2.hy))
    unit_multiplier = abs(c.sq_modulus() - 1.0) <= tol
    equivalent = unit_multiplier and deviation <= tol
    if not equivalent:
        return EquivalenceVerdict(
            equivalent=False, gamma=None, sign=None, max_component_deviation=deviation
        )
    # |c|^2 = 1 forces |c.re| >= 1, so the sign is unambiguous.
    s = 1 if c.re > 0 else -1
    gamma = h_arg(s * c)
    return EquivalenceVerdict(
        equivalent=True, gamma=gamma, sign=s, max_component_deviation=deviation
    )


def _symmetry_holds(ctx: ProbContext, tol: float) -> bool:
    P_ba = ctx.p_b_given_a
    P_ab = ctx.a_given_b()
    return all(
        abs(P_ba[i][j] - P_ab[j][i]) <= tol for i in range(2) for j in range(2)
    )


def check_consistency(
    ctx: ProbContext, tol: float = 1e-9, sign_choice: int = 1
) -> EquivalenceVerdict:
    """Test whether the two conditioning orders give the same state.

    Builds both amplitudes, pushes the b|a one through the transition
    unitary, and compares with the a|b one up to +-exp_j(gamma).  The
    verdict also records whether the transpose symmetry between the two
    transition matrices holds; the two answers agree (that is the
    consistency theorem).
    """
    require_valid(ctx, tol)
    state_ba = reconstruct(ctx, Direction.B_GIVEN_A, sign_choice)
    state_ab = reconstruct(ctx, Direction.A_GIVEN_B, sign_choice)
    return consistency_verdict(ctx, state_ba, state_ab, tol)


def consistency_verdict(
    ctx: ProbContext, state_ba: QlraState, state_ab: QlraState, tol: float
) -> EquivalenceVerdict:
    """check_consistency's comparison, for the two amplitudes of a validated context."""
    # The transition unitary's columns are the b|a conditioning basis.
    e1, e2 = state_ba.conditioning_basis
    transported = e1.scale(state_ba.psi.c1) + e2.scale(state_ba.psi.c2)
    # The a|b construction carries its own +- phase-branch freedom
    # (cosh is even, so the phase difference of the two amplitude
    # components is only determined up to sign).  Either branch is a
    # representative of the same reconstruction; accept whichever one
    # the transported state matches.
    verdict = states_equivalent(state_ab.psi, transported, tol=tol)
    if not verdict.equivalent:
        other = reconstruct(ctx, Direction.A_GIVEN_B, -state_ab.sign_choice)
        candidate = states_equivalent(other.psi, transported, tol=tol)
        if candidate.max_component_deviation < verdict.max_component_deviation:
            verdict = candidate
    return replace(verdict, symmetry_holds=_symmetry_holds(ctx, tol))


def proof_relation_residual(ctx: ProbContext, sign_choice: int = 1) -> float:
    """| cosh(gamma_2 - gamma_1) - cosh(theta) | for a symmetric context.

    gamma_i are the arguments of the a|b amplitude components (defined
    because their squared moduli equal the strictly positive a-marginals)
    and theta is the hyperbolic phase of the b|a direction.  The residual
    vanishes exactly when the transpose symmetry holds.
    """
    state_ab = run_qlra(ctx, Direction.A_GIVEN_B, sign_choice=sign_choice)
    state_ba = reconstruct(ctx, Direction.B_GIVEN_A, sign_choice)
    return relation_residual(state_ab, state_ba)


def relation_residual(state_ab: QlraState, state_ba: QlraState) -> float:
    """proof_relation_residual, for the two amplitudes of a validated context."""
    g1 = h_arg(state_ab.psi.c1)
    g2 = h_arg(state_ab.psi.c2)
    return abs(math.cosh(g2 - g1) - math.cosh(state_ba.profile.theta[0]))
