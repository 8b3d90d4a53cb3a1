"""The consistency theorem's public views: the transition unitary, the verdict and the relation residual.

The two amplitudes built from the same data under opposite conditioning
orders live in different bases.  A hyperbolic-unitary change of basis
maps one onto the other, up to a multiplier of the form +-exp_j(gamma),
exactly when the two transition matrices are transposes of each other.
engine.analyze computes the verdict and the residual; check_consistency
and proof_relation_residual hand them out, and transition_unitary the basis change.
"""

from __future__ import annotations

import math

from .context import TOLERANCE, Direction, Matrix2, ProbContext, _as_matrix
from .engine import EquivalenceVerdict, _analyzed, _relation_residual
from .errors import StochasticityError

__all__ = [
    "transition_unitary",
    "check_consistency",
    "proof_relation_residual",
]


def transition_unitary(p_b_given_a: Matrix2):
    """Basis-change matrix [[sqrt(P00), sqrt(P01)], [sqrt(P10), -sqrt(P11)]], row-major, of HNumbers.

    Its columns are the b|a conditioning basis, a matrix's one public basis: e1 = (sqrt(P00), sqrt(P10)),
    e2 = (sqrt(P01), -sqrt(P11)), orthonormal under inner_product exactly when P is doubly stochastic,
    so the matrix is hyperbolic-unitary.  Entries are read as ProbContext's parse gate reads them;
    StochasticityError unless every entry is nonnegative (a zero, as in the identity, is allowed) and
    every line sums to 1 within TOLERANCE.
    """
    from .algebra import _hn
    (a, b), (c, d) = _as_matrix(p_b_given_a)
    if min(a, b, c, d) < 0.0 or not all(abs(s - 1.0) <= TOLERANCE for s in (a + b, c + d, a + c, b + d)):
        raise StochasticityError("conditioning basis requires a doubly stochastic matrix")
    # A real number r has null-cone coordinates (r, r); HNumber(-0.0) would make u +0.0.
    r00, r01, r10, r11 = math.sqrt(a), math.sqrt(b), math.sqrt(c), -math.sqrt(d)
    return ((_hn(r00, r00), _hn(r01, r01)), (_hn(r10, r10), _hn(r11, r11)))


def check_consistency(ctx: ProbContext, tol: float = TOLERANCE, sign_choice: int = 1) -> EquivalenceVerdict:
    """analyze's verdict alone: whether the two conditioning orders give the same state.

    The b|a amplitude, pushed through the transition unitary, is compared with the a|b one
    up to +-exp_j(gamma); the verdict also records whether the transpose symmetry holds, and
    the consistency theorem says the two answers agree.  Raises StochasticityError when ctx
    is invalid at tol, and RegimeError for the first direction that is not hyperbolic.
    """
    return _analyzed(ctx, tol, sign_choice, tuple(Direction))[1]


def proof_relation_residual(ctx: ProbContext, sign_choice: int = 1) -> float:
    """| cosh(gamma_2 - gamma_1) - cosh(theta) | for a symmetric context.

    gamma_i are the arguments of the a|b amplitude components (defined
    because their squared moduli equal the strictly positive a-marginals)
    and theta is the hyperbolic phase of the b|a direction.  The residual
    vanishes exactly when the transpose symmetry holds.  Like run_qlra, raises StochasticityError
    or RegimeError, the a|b direction first; ArgDomainError when an a|b component has no hyperbolic argument.
    It is analyze's residual when symmetry holds, and computed here from analyze's states when not.
    """
    (ab, ba), _, residual = _analyzed(ctx, TOLERANCE, sign_choice, (Direction.A_GIVEN_B, Direction.B_GIVEN_A))
    return _relation_residual(ab[4], ba[4]) if residual is None else residual
