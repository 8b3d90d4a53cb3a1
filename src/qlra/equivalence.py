"""Unitary equivalence of the two conditioning-order representations.

The two amplitudes built from the same data under opposite conditioning
orders live in different bases.  A hyperbolic-unitary change of basis
maps one onto the other, up to a multiplier of the form +-exp_j(gamma),
exactly when the two transition matrices are transposes of each other.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .context import (_A_GIVEN_B, _B_GIVEN_A, _HYPERBOLIC, TOLERANCE, Direction, Matrix2, ProbContext, _as_matrix,
                      _coefficients, _oriented, validate_context)
from .engine import QlraState, _born, _expansion_gap, _state
from .errors import ArgDomainError, RegimeError, StochasticityError

__all__ = [
    "analyze",
    "EquivalenceVerdict",
    "transition_unitary",
    "check_consistency",
    "proof_relation_residual",
]


class EquivalenceVerdict(namedtuple(
    "EquivalenceVerdict", "equivalent gamma sign max_component_deviation symmetry_holds"
)):
    """Outcome of comparing U psi_ba with psi_ab up to a +-exp_j(gamma) multiplier.

    ``gamma`` (a float) and ``sign`` (+-1) are None unless ``equivalent``.
    ``symmetry_holds`` is the transpose condition |p - p'| <= tol on the
    transition matrices.
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


def _equivalent(a: tuple, b: tuple, tol: float, symmetry_holds: bool) -> EquivalenceVerdict:
    """The verdict's comparison: whether a = s * exp_j(gamma) * b, on null-cone coordinates (u1, v1, u2, v2).

    The multiplier is read off the component of b farthest from the null cone; equivalence requires it
    to have unit squared modulus within tol and to map b onto a componentwise within tol times the
    largest null-cone coordinate of either vector (at least 1).  The verdict carries symmetry_holds.
    """
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
    """The QLRA pipeline, and the one place that checks its arguments: each stage runs once per direction.

    Validates ctx once at tol; if valid, checks sign_choice (ValueError unless +-1) and reads ctx once as its
    four numbers (p_a1, p_b1, p, p'), p and p' the mean diagonals of its matrices.  Per direction (ValueError
    for one that is not a Direction) it computes the interference profile and, if hyperbolic, exp_j(sc*theta)
    once, the state and its checks; Born residuals take ctx's own marginals.
    Returns (violations, entries, verdict, residual), the rest empty when there are violations.
    ``entries`` holds one (Direction, InterferenceProfile, BornReport, expansion deviation, QlraState) per
    direction, the last three None off the hyperbolic regime.  The verdict needs both orders asked for
    and hyperbolic, the proof relation residual the verdict's transpose symmetry; else each is None.
    """
    violations = validate_context(ctx, tol)
    if violations:
        return violations, [], None, None
    if sign_choice not in (1, -1):
        raise ValueError("sign_choice must be +1 or -1")
    p_a, p_b, M, N = ctx
    N = N or M  # a defaulted a|b matrix is the transpose of M, which has M's diagonal
    p, q = (M[0][0] + M[1][1]) / 2.0, (N[0][0] + N[1][1]) / 2.0
    entries, state_ba, state_ab = [], None, None
    for d in directions:  # a direction is (conditioning marginal, conditioned marginal, diagonal)
        if d is _B_GIVEN_A:
            c, o, diag = p_a, p_b, p
        elif d is _A_GIVEN_B:
            c, o, diag = p_b, p_a, q
        else:
            _oriented(ctx, d)  # raises its ValueError: d is not a Direction
        # The stages see the exactly doubly stochastic context [[diag, off], [off, diag]] of the four numbers.
        x, x1 = c[0], 1.0 - c[0]
        profile = _coefficients(x, x1, o[0], diag, 1.0 - diag)
        if profile.regime is not _HYPERBOLIC:  # no state, so no Born report and no expansion deviation
            entries.append((d, profile, None, None, None))
            continue
        t = sign_choice * profile.theta[0]
        phase = math.exp(t), math.exp(-t)  # exp_j(sc*theta), for the state and its expansion check
        state = _state(x, x1, diag, profile, d, sign_choice, phase)
        born, inner = _born(state.amplitude, diag, c, o)
        entries.append((d, profile, born, _expansion_gap(state, phase), state))
        if d is _B_GIVEN_A:
            state_ba, transported = state, inner  # <psi_ba, e_k>, which is U psi_ba
        else:
            state_ab = state
    if state_ba is None or state_ab is None:  # one direction asked for, or one not hyperbolic
        return violations, entries, None, None
    verdict = _verdict(transported, state_ba.profile.epsilon[0], state_ab, p, q, tol)
    residual = _relation_residual(state_ab, state_ba) if verdict.symmetry_holds else None
    return violations, entries, verdict, residual


def _analyzed(ctx: ProbContext, tol: float, sign_choice: int, directions) -> tuple:
    """analyze's (entries, verdict, residual) for the entry points that raise: StochasticityError for an invalid
    ctx, then analyze's ValueError, then RegimeError for the first direction that has no state.
    """
    violations, entries, verdict, residual = analyze(ctx, tol, sign_choice, directions)
    if violations:
        raise StochasticityError("invalid context: " + "; ".join(violations))
    for d, profile, *_, state in entries:
        if state is None:
            raise RegimeError(f"{d.value} data is {profile.regime.value}, not hyperbolic (lam={profile.lam})")
    return entries, verdict, residual


def check_consistency(ctx: ProbContext, tol: float = TOLERANCE, sign_choice: int = 1) -> EquivalenceVerdict:
    """analyze's verdict alone: whether the two conditioning orders give the same state.

    The b|a amplitude, pushed through the transition unitary, is compared with the a|b one
    up to +-exp_j(gamma); the verdict also records whether the transpose symmetry holds, and
    the consistency theorem says the two answers agree.  Raises StochasticityError when ctx
    is invalid at tol, and RegimeError for the first direction that is not hyperbolic.
    """
    return _analyzed(ctx, tol, sign_choice, tuple(Direction))[1]


def _verdict(transported, eps_ba, state_ab: QlraState, p: float, q: float, tol: float) -> EquivalenceVerdict:
    """check_consistency's comparison of U psi_ba, the b|a Born check's coordinates of <psi_ba, e_k>, with the a|b
    state of one sign_choice, given the b|a profile's epsilon[0] and the matrices' diagonals p and p' = q."""
    # U psi_ba is <psi_ba, e_k>: U's columns are the b|a conditioning basis e_k, and U is symmetric.
    # The theorem fixes the a|b phase sign sc' that engine._state leaves free.
    # A DS P is [[p, q], [q, p]], so U = [[sqrt p, sqrt q], [sqrt q, -sqrt p]] has U^2 = I,
    # and a symmetric context has psi_ab = U (sqrt p_b1, eps_ab exp_j(sc' theta_ab) sqrt p_b2):
    # U psi_ba = c psi_ab then means psi_ba = c (sqrt p_b1, eps_ab exp_j(sc' theta_ab) sqrt p_b2).
    # The j-part of psi_ba,2 conj(psi_ba,1) is -eps_ba sc sinh(theta_ba) sqrt(p_a1 p_a2) by
    # engine._state (p + q = 1) and eps_ab sc' sinh(theta_ab) sqrt(p_b1 p_b2) by the right side
    # (|c| = 1), so sc' = -eps_ba eps_ab sc.  With one sc for both, equal signs of lambda_1
    # call for the other branch: the conjugate amplitude, u and v swapped.
    u1, v1, u2, v2 = state_ab.amplitude
    if eps_ba == state_ab.profile.epsilon[0]:
        u1, v1, u2, v2 = v1, u1, v2, u2
    return _equivalent((u1, v1, u2, v2), transported, tol, abs(p - q) <= tol)  # symmetry: |p - p'| <= tol


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


def _relation_residual(state_ab: QlraState, state_ba: QlraState) -> float:
    """proof_relation_residual, for the two amplitudes of a validated context."""
    u1, v1, u2, v2 = state_ab.amplitude
    gamma_1 = _arg(u1, v1)  # first, so that ArgDomainError names the first component off the cone
    return abs(math.cosh(_arg(u2, v2) - gamma_1) - math.cosh(state_ba.profile.theta[0]))
