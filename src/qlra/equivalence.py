"""Unitary equivalence of the two conditioning-order representations.

The two amplitudes built from the same data under opposite conditioning
orders live in different bases.  A hyperbolic-unitary change of basis
maps one onto the other, up to a multiplier of the form +-exp_j(gamma),
exactly when the two transition matrices are transposes of each other.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .context import _B_GIVEN_A, TOLERANCE, Direction, Matrix2, ProbContext, _as_matrix, _require_tolerance
from .engine import QlraState, _basis_vectors, _born, _expansion_gap, _reconstructed, _validate_and_reconstruct
from .errors import ArgDomainError, DegenerateStateError, StochasticityError

__all__ = [
    "analyze",
    "EquivalenceVerdict",
    "transition_unitary",
    "states_equivalent",
    "check_consistency",
    "proof_relation_residual",
]

# Below this |z|^2 no component of v2 can anchor states_equivalent's multiplier: division degenerates.
_NULL_CONE_FLOOR = 1e-6


class EquivalenceVerdict(namedtuple(
    "EquivalenceVerdict", "equivalent gamma sign max_component_deviation symmetry_holds", defaults=(None,)
)):
    """Outcome of comparing two states up to a +-exp_j(gamma) multiplier.

    ``gamma`` (a float) and ``sign`` (+-1) are None unless ``equivalent``.
    ``symmetry_holds`` is the transpose condition |p - p'| <= tol on the
    transition matrices; it is None when the comparison was made on bare
    vectors with no matrices in play.
    """

    __slots__ = ()


def _arg(u: float, v: float) -> float:
    """The argument arctanh(y/x) = 0.5*ln(u/v) of null-cone coordinates (u, v); algebra.h_arg on floats.

    Defined for u and v nonzero and of one sign, on both branches of the cone, and
    ArgDomainError elsewhere; the signs are tested, not u*v, which underflows to 0
    for tiny u and v.  u/v is then positive; its logarithm is taken as a
    difference so that the ratio cannot overflow.
    """
    if not (u > 0.0 < v or u < 0.0 > v):
        raise ArgDomainError(f"argument undefined for null-cone coordinates ({u!r}, {v!r}): x^2 - y^2 <= 0")
    return 0.5 * (math.log(abs(u)) - math.log(abs(v)))


def transition_unitary(p_b_given_a: Matrix2) -> tuple[tuple[HNumber, HNumber], tuple[HNumber, HNumber]]:
    """Basis-change matrix [[sqrt(P00), sqrt(P01)], [sqrt(P10), -sqrt(P11)]], row-major.

    Its columns are the b|a conditioning basis, a matrix's one public basis: e1 = (sqrt(P00), sqrt(P10)),
    e2 = (sqrt(P01), -sqrt(P11)), orthonormal under inner_product exactly when P is doubly stochastic,
    so the matrix is hyperbolic-unitary.  Entries are read as ProbContext's parse gate reads them;
    StochasticityError unless every entry is nonnegative (a zero, as in the identity, is allowed) and
    every line sums to 1 within TOLERANCE.
    """
    (a, b), (c, d) = _as_matrix(p_b_given_a)
    if min(a, b, c, d) < 0.0 or not all(abs(s - 1.0) <= TOLERANCE for s in (a + b, c + d, a + c, b + d)):
        raise StochasticityError("conditioning basis requires a doubly stochastic matrix")
    e1, e2 = _basis_vectors((math.sqrt(a), math.sqrt(b), math.sqrt(c), math.sqrt(d)))
    return ((e1.c1, e2.c1), (e1.c2, e2.c2))


def states_equivalent(v1: HVector2, v2: HVector2, tol: float = TOLERANCE) -> EquivalenceVerdict:
    """Decide whether v1 = s * exp_j(gamma) * v2 for some sign s and real gamma.

    Both vectors must have unit squared norm within max(tol, 1e-6), else ValueError; a v2 with
    every component on the null cone raises DegenerateStateError.  The multiplier is extracted from
    the component of v2 farthest from the null cone; equivalence requires it to have unit squared
    modulus and to map v2 onto v1 componentwise within tol times the largest null-cone coordinate
    of either vector (at least 1).  Raises ValueError unless tol is positive and finite.
    """
    _require_tolerance(tol)
    a = (v1.c1.u, v1.c1.v, v1.c2.u, v1.c2.v)
    b = (v2.c1.u, v2.c1.v, v2.c2.u, v2.c2.v)
    for name, x in (("v1", a), ("v2", b)):
        n = x[0] * x[1] + x[2] * x[3]
        if abs(n - 1.0) > max(tol, 1e-6):
            raise ValueError(f"{name} is not a unit vector (sq_norm={n!r})")
    if max(abs(b[0] * b[1]), abs(b[2] * b[3])) < _NULL_CONE_FLOOR:
        raise DegenerateStateError("every component of v2 lies (numerically) on the null cone")
    return _equivalent(a, b, tol)


def _equivalent(a: tuple, b: tuple, tol: float, symmetry_holds: bool | None = None) -> EquivalenceVerdict:
    """states_equivalent on the null-cone coordinates (u1, v1, u2, v2) of two vectors, without its checks."""
    au1, av1, au2, av2 = a
    bu1, bv1, bu2, bv2 = b
    # The multiplier c = a_k / b_k, componentwise in null-cone coordinates.
    cu, cv = (au1 / bu1, av1 / bv1) if abs(bu1 * bv1) >= abs(bu2 * bv2) else (au2 / bu2, av2 / bv2)
    du1, dv1, du2, dv2 = au1 - cu * bu1, av1 - cv * bv1, au2 - cu * bu2, av2 - cv * bv2
    deviation = 0.5 * max(abs(du1) + abs(dv1), abs(du2) + abs(dv2))  # as engine.expansion_consistency's gap
    sq_mod = cu * cv
    # |c|^2 within tol of 1, on the cone where the argument is defined; coordinates of size cosh(theta)
    # carry rounding errors of that size.  The scale is at least 1, so a deviation within tol needs none.
    scale = 1.0 if deviation <= tol else max(1.0, *map(abs, a), *map(abs, b))
    if not (abs(sq_mod - 1.0) <= tol and sq_mod > 0.0 and deviation <= tol * scale):
        return tuple.__new__(EquivalenceVerdict, (False, None, None, deviation, symmetry_holds))
    # cu and cv share a sign, the sign of c.re = (cu + cv)/2.
    return tuple.__new__(EquivalenceVerdict, (True, _arg(cu, cv), 1 if cu > 0 else -1, deviation, symmetry_holds))


def analyze(ctx: ProbContext, tol: float = TOLERANCE, sign_choice: int = 1, directions=tuple(Direction)):
    """The QLRA pipeline: engine's validate-and-reconstruct core, then each check once per direction.

    The core reads ctx once as its four numbers (p_a1, p_b1, p, p'); Born residuals take its own marginals.
    Returns (violations, entries, verdict, residual), the rest empty when there are violations.
    ``entries`` holds one (Direction, InterferenceProfile, BornReport, expansion deviation) per
    direction, the last two None off the hyperbolic regime.  The verdict needs both orders asked for
    and hyperbolic, the proof relation residual the verdict's transpose symmetry; else each is None.
    """
    violations, p, q, steps = _validate_and_reconstruct(ctx, tol, sign_choice, directions)
    entries, state_ba, state_ab = [], None, None
    # A direction without a state (not hyperbolic) gets no Born report and no expansion deviation.
    for d, profile, state, c, o, phase in steps:
        born = state and _born(state.amplitude, state.basis_roots, c, o)
        entries.append((d, profile, born, state and _expansion_gap(state, phase)))
        if d is _B_GIVEN_A:
            state_ba = state
        else:
            state_ab = state
    if state_ba is None or state_ab is None:  # invalid, one direction asked for, or one not hyperbolic
        return violations, entries, None, None
    verdict = _verdict(state_ba, state_ab, p, q, tol)
    residual = _relation_residual(state_ab, state_ba) if verdict.symmetry_holds else None
    return violations, entries, verdict, residual


def check_consistency(ctx: ProbContext, tol: float = TOLERANCE, sign_choice: int = 1) -> EquivalenceVerdict:
    """analyze's verdict alone: whether the two conditioning orders give the same state.

    The b|a amplitude, pushed through the transition unitary, is compared with the a|b one
    up to +-exp_j(gamma); the verdict also records whether the transpose symmetry holds, and
    the consistency theorem says the two answers agree.  Raises StochasticityError when ctx
    is invalid at tol, and RegimeError for the first direction that is not hyperbolic.
    """
    p, q, (state_ba, state_ab) = _reconstructed(ctx, tol, sign_choice, tuple(Direction))
    return _verdict(state_ba, state_ab, p, q, tol)


def _verdict(state_ba: QlraState, state_ab: QlraState, p: float, q: float, tol: float) -> EquivalenceVerdict:
    """check_consistency's comparison of two states of one sign_choice, given the matrices' diagonals p and p' = q."""
    # The transition unitary's columns are the b|a conditioning basis: U = [[r00, r01], [r10, -r11]].
    r00, r01, r10, r11 = state_ba.basis_roots
    bu1, bv1, bu2, bv2 = state_ba.amplitude
    transported = (r00 * bu1 + r01 * bu2, r00 * bv1 + r01 * bv2, r10 * bu1 - r11 * bu2, r10 * bv1 - r11 * bv2)
    # The theorem fixes the a|b phase sign sc' that engine._state leaves free.
    # A DS P is [[p, q], [q, p]], so U = [[sqrt p, sqrt q], [sqrt q, -sqrt p]] has U^2 = I,
    # and a symmetric context has psi_ab = U (sqrt p_b1, eps_ab exp_j(sc' theta_ab) sqrt p_b2):
    # U psi_ba = c psi_ab then means psi_ba = c (sqrt p_b1, eps_ab exp_j(sc' theta_ab) sqrt p_b2).
    # The j-part of psi_ba,2 conj(psi_ba,1) is -eps_ba sc sinh(theta_ba) sqrt(p_a1 p_a2) by
    # engine._state (p + q = 1) and eps_ab sc' sinh(theta_ab) sqrt(p_b1 p_b2) by the right side
    # (|c| = 1), so sc' = -eps_ba eps_ab sc.  With one sc for both, equal signs of lambda_1
    # call for the other branch: the conjugate amplitude, u and v swapped.
    u1, v1, u2, v2 = state_ab.amplitude
    if state_ba.profile.epsilon[0] == state_ab.profile.epsilon[0]:
        u1, v1, u2, v2 = v1, u1, v2, u2
    return _equivalent((u1, v1, u2, v2), transported, tol, abs(p - q) <= tol)  # symmetry: |p - p'| <= tol


def proof_relation_residual(ctx: ProbContext, sign_choice: int = 1) -> float:
    """| cosh(gamma_2 - gamma_1) - cosh(theta) | for a symmetric context.

    gamma_i are the arguments of the a|b amplitude components (defined
    because their squared moduli equal the strictly positive a-marginals)
    and theta is the hyperbolic phase of the b|a direction.  The residual
    vanishes exactly when the transpose symmetry holds.  Like run_qlra, raises StochasticityError
    or RegimeError, the a|b direction first; ArgDomainError when an a|b component has no hyperbolic argument.
    """
    directions = (Direction.A_GIVEN_B, Direction.B_GIVEN_A)
    _, _, (state_ab, state_ba) = _reconstructed(ctx, TOLERANCE, sign_choice, directions)
    return _relation_residual(state_ab, state_ba)


def _relation_residual(state_ab: QlraState, state_ba: QlraState) -> float:
    """proof_relation_residual, for the two amplitudes of a validated context."""
    u1, v1, u2, v2 = state_ab.amplitude
    gamma_1 = _arg(u1, v1)  # first, so that ArgDomainError names the first component off the cone
    return abs(math.cosh(_arg(u2, v2) - gamma_1) - math.cosh(state_ba.profile.theta[0]))
