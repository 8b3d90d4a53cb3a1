import math
import random
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st, target

from qlra import (
    TOLERANCE,
    Direction,
    ProbContext,
    Regime,
    RegimeError,
    StochasticityError,
    analyze,
    check_consistency,
    expansion_consistency,
    interference_coefficients,
    proof_relation_residual,
    run_qlra,
    transition_unitary,
    validate_context,
    verify_born_rule,
)
from qlra import engine
from qlra.algebra import HNumber, exp_j, h_arg
from qlra.context import POSITIVITY_MARGIN
from qlra.linear import HVector2, inner_product, mat_apply
from qlra.synthetic import born_violation_demo, random_hyperbolic_context


def test_run_qlra_ctx1_b_given_a(ctx1):
    state = run_qlra(ctx1, Direction.B_GIVEN_A)
    theta = math.acosh(4 / 3)
    # psi_1 = sqrt(0.45) + e^{j theta} sqrt(0.05)
    want_re = math.sqrt(0.45) + math.cosh(theta) * math.sqrt(0.05)
    want_hy = math.sinh(theta) * math.sqrt(0.05)
    assert state.psi.c1.re == pytest.approx(want_re, abs=1e-12)
    assert state.psi.c1.hy == pytest.approx(want_hy, abs=1e-12)
    assert state.psi.c1.re == pytest.approx(0.968962790250, abs=1e-9)
    assert state.psi.c1.hy == pytest.approx(0.197202659437, abs=1e-9)
    assert state.psi.c1.sq_modulus() == pytest.approx(0.9, abs=1e-12)
    assert state.psi.c2.sq_modulus() == pytest.approx(0.1, abs=1e-12)
    assert inner_product(state.psi, state.psi).re == pytest.approx(1.0, abs=1e-12)


def test_run_qlra_ctx1_a_given_b(ctx1):
    state = run_qlra(ctx1, Direction.A_GIVEN_B)
    assert state.profile.epsilon[0] == -1
    assert state.profile.theta[0] == pytest.approx(math.acosh(16 / 9), abs=1e-12)
    assert state.profile.theta[0] == pytest.approx(1.17793, abs=1e-4)
    assert state.psi.c1.sq_modulus() == pytest.approx(0.5, abs=1e-12)
    assert state.psi.c2.sq_modulus() == pytest.approx(0.5, abs=1e-12)


def test_run_qlra_rejects_trigonometric():
    M = ((0.9, 0.1), (0.1, 0.9))
    p_a = (0.5, 0.5)
    classical = tuple(p_a[0] * M[i][0] + p_a[1] * M[i][1] for i in range(2))
    ctx = ProbContext(p_a=p_a, p_b=classical, p_b_given_a=M)
    with pytest.raises(RegimeError):
        run_qlra(ctx, Direction.B_GIVEN_A)


def test_run_qlra_rejects_invalid_context(ctx1):
    ctx = ProbContext(
        p_a=(0.7, 0.2), p_b=(0.9, 0.1), p_b_given_a=((0.9, 0.1), (0.1, 0.9))
    )
    with pytest.raises(StochasticityError):
        run_qlra(ctx, Direction.B_GIVEN_A)
    with pytest.raises(ValueError, match="sign_choice must be"):
        run_qlra(ctx1, Direction.B_GIVEN_A, sign_choice=0)


def test_amplitude_matches_algebra_product(rng):
    # The float reconstruction is the HNumber formula of run_qlra's docstring.
    checked = 0
    for _ in range(200):
        ctx = random_hyperbolic_context(rng)
        for direction in Direction:
            ba = direction is Direction.B_GIVEN_A
            (m1, m2), M = (ctx.p_a, ctx.p_b_given_a) if ba else (ctx.p_b, ctx.p_a_given_b)
            profile = interference_coefficients(ctx, direction)
            for sc in (1, -1):
                phase = profile.epsilon[0] * exp_j(sc * profile.theta[0])
                want = (
                    HNumber(math.sqrt(m1 * M[0][0])) + phase * HNumber(math.sqrt(m2 * M[0][1])),
                    HNumber(math.sqrt(m1 * M[1][0])) - phase * HNumber(math.sqrt(m2 * M[1][1])),
                )
                state = run_qlra(ctx, direction, sc)
                for got, z in zip(state.psi.components(), want):
                    assert got.u == pytest.approx(z.u, rel=1e-12, abs=1e-12)
                    assert got.v == pytest.approx(z.v, rel=1e-12, abs=1e-12)
                assert state.amplitude == (state.psi.c1.u, state.psi.c1.v, state.psi.c2.u, state.psi.c2.v)
                checked += 1
    assert checked == 800


def test_verify_born_rule_ctx1(ctx1):
    state = run_qlra(ctx1, Direction.B_GIVEN_A)
    report = verify_born_rule(state, ctx1)
    assert report.max_residual < 1e-10


def test_verify_born_rule_detects_corruption(ctx1):
    state = run_qlra(ctx1, Direction.B_GIVEN_A)
    scaled = state.psi.scale(HNumber(1.1))
    bad = type(state)(
        amplitude=(scaled.c1.u, scaled.c1.v, scaled.c2.u, scaled.c2.v),
        direction=state.direction,
        profile=state.profile,
        diagonal=state.diagonal,
        conditioning_marginals=state.conditioning_marginals,
        sign_choice=state.sign_choice,
    )
    report = verify_born_rule(bad, ctx1)
    # Scaling by 1.1 multiplies every probability by 1.21.
    assert report.conditioned_residuals[0] == pytest.approx(0.21 * 0.9, abs=1e-9)
    assert report.max_residual > 0.01
    # An infinite coordinate makes an inner product non-finite: the error names that pair.
    u1, v1, u2, v2 = state.amplitude
    with pytest.raises(ValueError, match=r"non-finite null-cone coordinates: inf, "):
        verify_born_rule(bad._replace(amplitude=(math.inf, v1, u2, v2)), ctx1)
    # A direction that is not a Direction raises here too, as it does in run_qlra.
    with pytest.raises(ValueError, match="direction must be a Direction"):
        verify_born_rule(state._replace(direction="b_given_a"), ctx1)
    # A diagonal outside [0, 1] has no doubly stochastic matrix, so no real roots for the basis; NaN is outside too.
    for diagonal in (-0.1, 1.1, math.nan):
        corrupted = state._replace(diagonal=diagonal)
        message = re.escape(f"diagonal must lie in [0, 1], got {diagonal!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_born_rule(corrupted, ctx1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            expansion_consistency(corrupted)


def test_born_rule_random_contexts(rng):
    for _ in range(300):
        ctx = random_hyperbolic_context(rng)
        for direction in Direction:
            state = run_qlra(ctx, direction)
            assert verify_born_rule(state, ctx).max_residual < 1e-9
            assert inner_product(state.psi, state.psi).re == pytest.approx(1.0, abs=1e-9)


def test_expansion_consistency(ctx1, rng):
    assert expansion_consistency(run_qlra(ctx1, Direction.B_GIVEN_A)) < 1e-12
    for _ in range(100):
        ctx = random_hyperbolic_context(rng)
        for direction in Direction:
            assert expansion_consistency(run_qlra(ctx, direction)) < 1e-10
    # A state whose theta is inf has the phase exp_j(inf) = (inf, 0): the error names that pair.
    state = run_qlra(ctx1, Direction.B_GIVEN_A)
    infinite = state._replace(profile=state.profile._replace(theta=(math.inf, math.inf)))
    with pytest.raises(ValueError, match=r"^non-finite null-cone coordinates: inf, 0\.0$"):
        expansion_consistency(infinite)


def test_sign_branches_share_born_residuals(ctx1, rng):
    for ctx in [ctx1] + [random_hyperbolic_context(rng) for _ in range(50)]:
        plus = verify_born_rule(run_qlra(ctx, Direction.B_GIVEN_A, 1), ctx)
        minus = verify_born_rule(run_qlra(ctx, Direction.B_GIVEN_A, -1), ctx)
        assert plus.max_residual < 1e-9 and minus.max_residual < 1e-9


def test_mismatched_expansion_is_incoherent(ctx1):
    # Rebuilding the expansion with the opposite phase branch must not
    # reproduce the coordinate form: the j-parts differ by 2*sinh(theta).
    state = run_qlra(ctx1, Direction.B_GIVEN_A, 1)
    flipped = type(state)(
        amplitude=state.amplitude,
        direction=state.direction,
        profile=state.profile,
        diagonal=state.diagonal,
        conditioning_marginals=state.conditioning_marginals,
        sign_choice=-1,
    )
    assert expansion_consistency(flipped) > 0.1


def test_born_rule_extreme_conditioning(extreme_contexts):
    # |lambda| = cosh(theta) reaches 5e8 here; null-cone arithmetic
    # keeps every residual at rounding level.
    checked = 0
    for ctx in extreme_contexts:
        for direction in Direction:
            if interference_coefficients(ctx, direction).regime is not Regime.HYPERBOLIC:
                continue
            report = verify_born_rule(run_qlra(ctx, direction), ctx)
            assert max(report.conditioned_residuals) <= 1e-12
            assert max(report.conditioning_residuals) <= 1e-12
            checked += 1
    assert checked >= 300
    for theta in (k / 4 for k in range(-2800, 2801)):
        assert abs(exp_j(theta).sq_modulus() - 1.0) <= 1e-12
        assert h_arg(exp_j(theta)) == pytest.approx(theta, rel=1e-12, abs=1e-12)


def test_other_phase_branch_is_conjugate(rng, extreme_contexts):
    # exp_j(-theta) swaps the null-cone coordinates of exp_j(theta), so the
    # other branch's amplitude is the conjugate one, to the last bit.
    contexts = [random_hyperbolic_context(rng) for _ in range(200)]
    checked = 0
    for ctx in contexts + extreme_contexts:
        for direction in Direction:
            if interference_coefficients(ctx, direction).regime is not Regime.HYPERBOLIC:
                continue
            plus, minus = run_qlra(ctx, direction, 1).psi, run_qlra(ctx, direction, -1).psi
            assert (minus.c1.u, minus.c1.v, minus.c2.u, minus.c2.v) == (
                plus.c1.v, plus.c1.u, plus.c2.v, plus.c2.u
            )
            checked += 1
    assert checked >= 700


_LO, _HI = POSITIVITY_MARGIN, 1.0 - POSITIVITY_MARGIN
# Probabilities over the whole validated range, margins included, and log-uniformly close to either margin.
_PROBABILITIES = st.one_of(
    st.sampled_from((_LO, _HI)),
    st.floats(_LO, _HI),
    st.floats(-12, -1).map(lambda e: max(_LO, 10.0**e)),
    st.floats(-12, -1).map(lambda e: min(_HI, 1.0 - 10.0**e)),
)


@st.composite
def valid_contexts(draw):
    """(ctx, tol): every entry in [POSITIVITY_MARGIN, 1 - POSITIVITY_MARGIN], valid at tol = 10^U(-12, 2)."""
    tol = 10.0 ** draw(st.floats(-12, 2))
    slack = st.floats(-tol / 4, tol / 4)

    def near(x):
        return min(_HI, max(_LO, x + draw(slack)))

    def pair():
        x = draw(_PROBABILITIES)
        return x, near(1.0 - x)

    def matrix():
        p = draw(_PROBABILITIES)
        return (p, near(1.0 - p)), (near(1.0 - p), near(p))

    ctx = ProbContext(pair(), pair(), matrix(), matrix() if draw(st.booleans()) else None)
    assume(not validate_context(ctx, tol))
    return ctx, tol


def _corner(a, b, p):
    M = ((p, 1.0 - p), (1.0 - p, p))
    return ProbContext((a, 1.0 - a), (b, 1.0 - b), M, M), 1e-12


@settings(max_examples=300, deadline=None)
@given(valid_contexts(), st.sampled_from((1, -1)))
@example(_corner(_LO, _LO, _LO), 1)  # the largest coordinate of a corner sweep, about 1e12
@example(_corner(_HI, _LO, _HI), -1)
def test_valid_contexts_keep_every_coordinate_finite_and_below_1e25(case, sign_choice):
    # reconstruct and the verdict check no finiteness, because this bound makes it certain: the four
    # numbers of a valid context lie in [1e-12, 1 - 1e-12], so |lam| <= 1/(2*1e-24) and e^theta <= 1e24.
    ctx, tol = case
    _, entries, _, _ = analyze(ctx, tol, sign_choice)
    coords = []
    for direction, profile, *_, state in entries:
        if state is None:
            continue
        t = sign_choice * profile.theta[0]
        rp, rq = math.sqrt(state.diagonal), math.sqrt(1.0 - state.diagonal)
        coords += [*state.amplitude, rp, rq, math.exp(t), math.exp(-t)]  # e^{+-sc*theta}
        if direction is Direction.B_GIVEN_A:  # the verdict's transported amplitude U psi_ba
            u1, v1, u2, v2 = state.amplitude
            coords += [rp * u1 + rq * u2, rp * v1 + rq * v2, rq * u1 - rp * u2, rq * v1 - rp * v2]
    assert all(math.isfinite(x) and abs(x) < 1e25 for x in coords), coords
    if coords:
        target(math.log10(max(map(abs, coords))))


def _flat(x):
    """The leaves of nested tuples and lists, in order."""
    return [y for item in x for y in _flat(item)] if isinstance(x, (tuple, list)) else [x]


def _bits(x):
    """x as nested tuples with each float as its hex string, so that == compares floats bit for bit."""
    if isinstance(x, float):
        return x.hex()
    return tuple(map(_bits, x)) if isinstance(x, (tuple, list)) else x


@settings(max_examples=300, deadline=None)
@given(valid_contexts(), st.sampled_from((1, -1)))
@example(_corner(_LO, _LO, _LO), 1)
@example(_corner(1 - 2e-12, _LO, 1 - 2e-12), -1)  # 1 - _HI is below the margin, 1 - (1 - 2e-12) is not
@example(_corner(0.5, 0.5, 0.9), 1)  # lambda = 0 in the b|a direction: trigonometric, theta = pi/2
@example(_corner(0.5, 0.9, 0.9), 1)  # CTX1: symmetric and equivalent
def test_no_value_from_a_valid_context_is_negative_zero(case, sign_choice):
    # The writer turns -0.0 into 0.0 only for an invalid context (cli._report_json says why): no echoed input,
    # tolerance or computed value that reaches it from a valid context is -0.0.
    ctx, tol = case
    violations, *result = analyze(ctx, tol, sign_choice)
    assert not violations
    floats = [x for x in _flat((ctx, tol, result)) if isinstance(x, float)]
    assert not [x for x in floats if x == 0.0 and math.copysign(1.0, x) < 0.0]


_HYPERBOLIC_DRAWS = st.integers(0, 2**32 - 1).map(
    lambda seed: (random_hyperbolic_context(random.Random(seed)), TOLERANCE)
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_HYPERBOLIC_DRAWS, valid_contexts()))
@example(_corner(_LO, _LO, _LO))
@example(_corner(1 - 2e-12, _LO, 1 - 2e-12))
@example(_corner(0.5, 0.9, 0.9))  # CTX1: lambda_1 has opposite signs in the two directions
@example(_corner(0.1, 0.05, 0.7))  # lambda_1 has one sign in both directions
def test_other_phase_branch_is_one_conjugation(case):
    # exp_j(-theta) swaps the null-cone coordinates of exp_j(theta), so sign_choice -1 gives the conjugate amplitude,
    # which leaves every product, modulus and gap as it is and negates each argument: analyze at -1 is analyze at
    # +1 with each state's u and v swapped and its sign_choice -1, and gamma negated, bit for bit.
    ctx, tol = case
    plus, minus = analyze(ctx, tol, 1), analyze(ctx, tol, -1)
    violations, entries, verdict, residual = plus
    for i, (*head, state) in enumerate(entries):
        if state is not None:
            u1, v1, u2, v2 = state.amplitude
            entries[i] = (*head, state._replace(amplitude=(v1, u1, v2, u2), sign_choice=-1))
    if verdict is not None and verdict.gamma is not None:
        verdict = verdict._replace(gamma=-verdict.gamma)
    assert _bits(minus) == _bits((violations, entries, verdict, residual))


def _assert_entry_points_read_analyze(ctx, tol, sign_choice):
    # run_qlra, check_consistency and proof_relation_residual hand out what analyze computes, bit for bit:
    # a direction's state, the verdict and, when symmetry holds, the relation residual.  run_qlra and
    # proof_relation_residual validate at TOLERANCE, check_consistency at tol.
    violations, entries, verdict, residual = analyze(ctx, TOLERANCE, sign_choice)
    if violations:
        with pytest.raises(StochasticityError):
            run_qlra(ctx, Direction.B_GIVEN_A, sign_choice)
    for direction, *_, state in entries:
        if state is None:
            with pytest.raises(RegimeError):
                run_qlra(ctx, direction, sign_choice)
        else:
            assert _bits(run_qlra(ctx, direction, sign_choice)) == _bits(state)
    if verdict is not None and verdict.symmetry_holds:
        assert _bits(proof_relation_residual(ctx, sign_choice)) == _bits(residual)
    verdict = analyze(ctx, tol, sign_choice)[2]
    if verdict is not None:
        assert _bits(check_consistency(ctx, tol, sign_choice)) == _bits(verdict)


@settings(max_examples=200, deadline=None)
@given(valid_contexts(), st.sampled_from((1, -1)))
@example(_corner(_LO, _LO, _LO), 1)
@example(_corner(0.5, 0.9, 0.9), -1)  # CTX1: symmetric and equivalent
def test_entry_points_read_analyze(case, sign_choice):
    _assert_entry_points_read_analyze(*case, sign_choice)


def test_entry_points_read_analyze_on_extreme_contexts(extreme_contexts):
    for ctx in extreme_contexts:
        for sign_choice in (1, -1):
            _assert_entry_points_read_analyze(ctx, TOLERANCE, sign_choice)


def _assert_born_coordinates_are_u_psi(ctx, tol, sign_choice, ds_form):
    # The verdict reads U psi_ba off the b|a Born check.  For each state analyze builds, the coordinates of
    # <psi, e_k> that engine._born returns beside its report are, bit for bit, the transition unitary of the
    # direction's doubly stochastic matrix [[p, 1 - p], [1 - p, p]] applied to psi, and the state's diagonal
    # is that p: p for b|a, p' for a|b.
    born, returned = engine._born, []

    def recorded(*args):
        returned.append(born(*args))
        return returned[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_born", recorded)
        _, entries, _, _ = analyze(ctx, tol, sign_choice)
    form = ds_form(ctx, tol)
    states = [(direction, state) for direction, *_, state in entries if state is not None]
    assert len(returned) == len(states)
    for (direction, state), (_, coordinates) in zip(states, returned):
        M = form.p_b_given_a if direction is Direction.B_GIVEN_A else form.p_a_given_b
        assert state.diagonal.hex() == M[0][0].hex() == M[1][1].hex()
        transported = mat_apply(transition_unitary(M), state.psi)
        assert _bits(coordinates) == _bits((transported.c1.u, transported.c1.v, transported.c2.u, transported.c2.v))


@settings(max_examples=200, deadline=None)
@given(valid_contexts(), st.sampled_from((1, -1)))
@example(_corner(_LO, _LO, _LO), 1)
@example(_corner(0.5, 0.9, 0.9), -1)  # CTX1: lambda_1 has opposite signs in the two directions
@example(_corner(0.1, 0.05, 0.7), 1)  # lambda_1 has one sign in both directions
def test_born_coordinates_are_the_transported_amplitude(ds_form, case, sign_choice):
    _assert_born_coordinates_are_u_psi(*case, sign_choice, ds_form)


def test_born_coordinates_are_the_transported_amplitude_on_extreme_contexts(extreme_contexts, ds_form):
    for ctx in extreme_contexts:
        for sign_choice in (1, -1):
            _assert_born_coordinates_are_u_psi(ctx, TOLERANCE, sign_choice, ds_form)


@given(
    st.floats(min_value=1e-3, max_value=10),
    st.floats(min_value=1e-3, max_value=10),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_interference_identity(A, B, theta):
    # |sqrt(A) +- e^{j theta} sqrt(B)|^2 = A + B +- 2 sqrt(AB) cosh(theta)
    for sgn in (1, -1):
        z = HNumber(math.sqrt(A)) + sgn * exp_j(theta) * HNumber(math.sqrt(B))
        want = A + B + sgn * 2 * math.sqrt(A * B) * math.cosh(theta)
        assert z.sq_modulus() == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_violation_demo_values():
    rep = born_violation_demo(0.7)
    assert rep.basis_overlap == pytest.approx(0.7 - 0.09 / 0.7, abs=1e-12)
    assert rep.basis_overlap == pytest.approx(0.571429, abs=1e-6)
    assert rep.lambda_relation_residual < 1e-12
    rep9 = born_violation_demo(0.9)
    assert rep9.basis_overlap == pytest.approx(0.9 - 0.01 / 0.9, abs=1e-12)
    assert rep9.basis_overlap == pytest.approx(0.888889, abs=1e-6)
    # The overlap is inner_product's float operations on the two real basis vectors, bit for bit.
    for p in (i / 2000 for i in range(1, 2000) if i != 1000):
        q = 1.0 - p
        e1 = HVector2(math.sqrt(p), math.sqrt(q))
        e2 = HVector2(math.sqrt(p), -(q / p) * math.sqrt(q))
        assert born_violation_demo(p).basis_overlap == inner_product(e1, e2).re, p


def test_violation_vanishes_toward_half():
    values = [born_violation_demo(p).basis_overlap for p in (0.51, 0.505, 0.501)]
    assert values[0] > values[1] > values[2] > 0
    assert values[2] < 0.005


def test_violation_monotone_above_half():
    grid = [0.5 + 0.01 * k for k in range(1, 50)]
    overlaps = [abs(born_violation_demo(p).basis_overlap) for p in grid]
    assert all(b > a for a, b in zip(overlaps, overlaps[1:]))


def test_violation_demo_preconditions():
    with pytest.raises(ValueError):
        born_violation_demo(0.5)
    with pytest.raises(ValueError):
        born_violation_demo(1.5)
    for p in (1e-160, 1e-320):
        with pytest.raises(ValueError, match="basis overlap is not finite"):
            born_violation_demo(p)
