"""The QLRA pipeline: probabilities in, hyperbolic amplitudes and the consistency verdict out.

analyze reads a valid context once as its four numbers (p_a1, p_b1, p, p'); per direction,
context._coefficients computes lam0 and sets lam1 = -lam0 (Proposition 1), analyze computes
exp_j(sc*theta) once, _state builds a normalized split-complex amplitude on floats whose squared
moduli reproduce both observables' marginals (Born's rule), and _born and _expansion_gap check it.
Then _verdict compares the two conditioning orders' amplitudes, which live in different bases: a
hyperbolic-unitary change of basis maps one onto the other, up to a multiplier +-exp_j(gamma),
exactly when the two transition matrices are transposes.  A state's transition matrix is its
diagonal p.  run_qlra, like equivalence's views, hands out analyze's results through _analyzed.
The object layer is built only by QlraState's ``psi`` property, an HVector2, and by
equivalence.transition_unitary; they import it in their bodies: the pipeline never loads it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .context import (_A_GIVEN_B, _B_GIVEN_A, _HYPERBOLIC, TOLERANCE, Direction, ProbContext, _coefficients, _oriented,
                      validate_context)
from .errors import ArgDomainError, RegimeError, StochasticityError

__all__ = [
    "analyze",
    "EquivalenceVerdict",
    "QlraState",
    "BornReport",
    "run_qlra",
    "verify_born_rule",
    "expansion_consistency",
]


class QlraState(namedtuple(
    "QlraState", "amplitude direction profile diagonal conditioning_marginals sign_choice"
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


def run_qlra(ctx: ProbContext, direction: Direction, sign_choice: int = 1) -> QlraState:
    """Reconstruct the hyperbolic amplitude for one conditioning order: analyze's state for it.

    With theta = arccosh|lam[0]| and s = sign(lam[0]):

        psi_1 = sqrt(m1*M[0][0]) + s*exp_j(sc*theta)*sqrt(m2*M[0][1])
        psi_2 = sqrt(m1*M[1][0]) - s*exp_j(sc*theta)*sqrt(m2*M[1][1])

    where m are the conditioning marginals and sc = sign_choice.  Both
    phase branches satisfy Born's rule for all four probabilities.  ctx is
    validated at TOLERANCE and read as its four numbers (p_a1, p_b1, p, p').
    """
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
    """Check |psi_i|^2 = u_i*v_i and |<psi, e_k>|^2 against both marginal pairs; ValueError for a bad direction,
    a diagonal outside [0, 1] or a non-finite inner product."""
    c, o, _ = _oriented(ctx, state.direction)
    _require_diagonal(state.diagonal)
    report, inner = _born(state.amplitude, state.diagonal, c, o)
    _require_finite(*inner)
    return report


def _born(amplitude, p, c, o) -> tuple[BornReport, tuple[float, float, float, float]]:
    """verify_born_rule on a state's amplitude and diagonal p, against conditioning marginals c and conditioned
    marginals o, and the null-cone coordinates of <psi, e_k>: U psi, as U = [[sqrt p, sqrt q], [sqrt q, -sqrt p]],
    q = 1 - p, is symmetric with the basis e_k as its columns.  It checks nothing: p must lie in [0, 1], and
    on analyze's states the coordinates are finite (see _state)."""
    (c0, c1), (o0, o1) = c, o
    u1, v1, u2, v2 = amplitude
    rp, rq = math.sqrt(p), math.sqrt(1.0 - p)
    # For the real e_k, conj(e_k) = e_k: <psi, e_k> = psi_1*e_k1 + psi_2*e_k2.
    iu1, iv1 = u1 * rp + u2 * rq, v1 * rp + v2 * rq
    iu2, iv2 = u1 * rq - u2 * rp, v1 * rq - v2 * rp
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


class EquivalenceVerdict(namedtuple(
    "EquivalenceVerdict", "equivalent gamma sign max_component_deviation symmetry_holds"
)):
    """Outcome of comparing U psi_ba with psi_ab up to a +-exp_j(gamma) multiplier.

    ``gamma`` (a float) and ``sign`` (+-1) are None unless ``equivalent``.
    ``symmetry_holds`` is the transpose condition |p - p'| <= tol on the
    transition matrices.
    """

    __slots__ = ()


def _verdict(transported, eps_ba, state_ab: QlraState, p: float, q: float, tol: float) -> EquivalenceVerdict:
    """check_consistency's comparison of U psi_ba, the b|a Born check's coordinates of <psi_ba, e_k>, with the a|b
    state of one sign_choice, given the b|a profile's epsilon[0] and the matrices' diagonals p and p' = q."""
    # U psi_ba is <psi_ba, e_k>: U's columns are the b|a conditioning basis e_k, and U is symmetric.
    # The theorem fixes the a|b phase sign sc' that _state leaves free.
    # A DS P is [[p, q], [q, p]], so U = [[sqrt p, sqrt q], [sqrt q, -sqrt p]] has U^2 = I,
    # and a symmetric context has psi_ab = U (sqrt p_b1, eps_ab exp_j(sc' theta_ab) sqrt p_b2):
    # U psi_ba = c psi_ab then means psi_ba = c (sqrt p_b1, eps_ab exp_j(sc' theta_ab) sqrt p_b2).
    # The j-part of psi_ba,2 conj(psi_ba,1) is -eps_ba sc sinh(theta_ba) sqrt(p_a1 p_a2) by
    # _state (p + q = 1) and eps_ab sc' sinh(theta_ab) sqrt(p_b1 p_b2) by the right side
    # (|c| = 1), so sc' = -eps_ba eps_ab sc.  With one sc for both, equal signs of lambda_1
    # call for the other branch: the conjugate amplitude, u and v swapped.
    u1, v1, u2, v2 = state_ab.amplitude
    if eps_ba == state_ab.profile.epsilon[0]:
        u1, v1, u2, v2 = v1, u1, v2, u2
    return _equivalent((u1, v1, u2, v2), transported, tol, abs(p - q) <= tol)  # symmetry: |p - p'| <= tol


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
    deviation = 0.5 * max(abs(du1) + abs(dv1), abs(du2) + abs(dv2))  # as expansion_consistency's gap
    sq_mod = cu * cv
    # |c|^2 within tol of 1, on the cone where the argument is defined; coordinates of size cosh(theta)
    # carry rounding errors of that size.  The scale is at least 1, so a deviation within tol needs none.
    scale = 1.0 if deviation <= tol else max(1.0, *map(abs, a), *map(abs, b))
    if not (abs(sq_mod - 1.0) <= tol and sq_mod > 0.0 and deviation <= tol * scale):
        return tuple.__new__(EquivalenceVerdict, (False, None, None, deviation, symmetry_holds))
    # cu and cv share a sign, the sign of c.re = (cu + cv)/2.
    return tuple.__new__(EquivalenceVerdict, (True, _arg(cu, cv), 1 if cu > 0 else -1, deviation, symmetry_holds))


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


def _relation_residual(state_ab: QlraState, state_ba: QlraState) -> float:
    """proof_relation_residual, for the two amplitudes of a validated context."""
    u1, v1, u2, v2 = state_ab.amplitude
    gamma_1 = _arg(u1, v1)  # first, so that ArgDomainError names the first component off the cone
    return abs(math.cosh(_arg(u2, v2) - gamma_1) - math.cosh(state_ba.profile.theta[0]))
