import math
import random

import pytest

from qlra import (
    DegenerateStateError,
    Direction,
    HNumber,
    HVector2,
    ProbContext,
    StochasticityError,
    check_consistency,
    exp_j,
    inner_product,
    interference_coefficients,
    is_h_unitary,
    mat_apply,
    proof_relation_residual,
    random_hyperbolic_context,
    run_qlra,
    sq_norm,
    states_equivalent,
    transition_unitary,
    validate_context,
    Regime,
)


def perturbed_a_given_b(ctx: ProbContext, rng: random.Random, min_delta=0.01):
    """Replace the a|b matrix parameter, keeping that direction hyperbolic."""
    p = ctx.p_b_given_a[0][0]
    for _ in range(200):
        delta = rng.uniform(min_delta, 0.2) * rng.choice([-1, 1])
        p2 = p + delta
        if not (0.01 < p2 < 0.99):
            continue
        M2 = ((p2, 1 - p2), (1 - p2, p2))
        cand = ProbContext(
            p_a=ctx.p_a, p_b=ctx.p_b, p_b_given_a=ctx.p_b_given_a, p_a_given_b=M2
        )
        if validate_context(cand):
            continue
        prof = interference_coefficients(cand, Direction.A_GIVEN_B)
        if prof.regime is not Regime.HYPERBOLIC:
            continue
        return cand
    return None


def test_transition_unitary_values():
    U = transition_unitary(((0.9, 0.1), (0.1, 0.9)))
    assert U[0][0].re == pytest.approx(0.948683, abs=1e-6)
    assert U[0][1].re == pytest.approx(0.316228, abs=1e-6)
    assert U[1][1].re == pytest.approx(-0.948683, abs=1e-6)
    assert is_h_unitary(U, tol=1e-12)


def test_transition_unitary_balanced():
    U = transition_unitary(((0.5, 0.5), (0.5, 0.5)))
    assert is_h_unitary(U, tol=1e-12)


def test_transition_unitary_rejects_non_doubly_stochastic():
    with pytest.raises(StochasticityError):
        transition_unitary(((0.7, 0.7), (0.3, 0.3)))


def test_transition_unitary_random(rng):
    for _ in range(300):
        p = rng.uniform(0.001, 0.999)
        assert is_h_unitary(transition_unitary(((p, 1 - p), (1 - p, p))), tol=1e-12)


def _unit_vector(rng):
    ctx = random_hyperbolic_context(rng)
    return run_qlra(ctx, Direction.B_GIVEN_A).psi


def test_states_equivalent_reflexive(rng):
    v = _unit_vector(rng)
    verdict = states_equivalent(v, v)
    assert verdict.equivalent
    assert verdict.gamma == pytest.approx(0.0, abs=1e-12)
    assert verdict.sign == 1


def test_states_equivalent_constructed_multiplier(rng):
    v = _unit_vector(rng)
    w = v.scale(-exp_j(0.4))
    verdict = states_equivalent(w, v)
    assert verdict.equivalent
    assert verdict.sign == -1
    assert verdict.gamma == pytest.approx(0.4, abs=1e-9)


def test_states_equivalent_rejects_basis_pair():
    e1 = HVector2(HNumber(1), HNumber(0))
    e2 = HVector2(HNumber(0), HNumber(1))
    assert not states_equivalent(e1, e2).equivalent


def test_states_equivalent_requires_unit_norm(rng):
    v = _unit_vector(rng)
    with pytest.raises(ValueError):
        states_equivalent(v, v.scale(HNumber(2.0)))


def test_states_equivalent_degenerate():
    # Both components on the null cone; loosen tol so the norm
    # precondition does not trip first.
    r = math.sqrt(0.5)
    null = HVector2(HNumber(r, r), HNumber(r, -r))
    v = HVector2(HNumber(1), HNumber(0))
    with pytest.raises(DegenerateStateError):
        states_equivalent(v, null, tol=2.0)


def test_states_equivalent_is_equivalence_relation(rng):
    for _ in range(50):
        v = _unit_vector(rng)
        a = v.scale(rng.choice([1, -1]) * exp_j(rng.uniform(-2, 2)))
        b = a.scale(rng.choice([1, -1]) * exp_j(rng.uniform(-2, 2)))
        assert states_equivalent(v, a, tol=1e-9).equivalent  # symmetry with below
        assert states_equivalent(a, v, tol=1e-9).equivalent
        assert states_equivalent(v, b, tol=1e-9).equivalent  # transitivity


def test_unit_multiplier_real_part_bound(rng):
    # |c|^2 = 1 in the hyperbolic algebra forces |Re c| >= 1.
    for _ in range(100):
        c = rng.choice([1, -1]) * exp_j(rng.uniform(-5, 5))
        assert abs(c.re) >= 1.0


def test_check_consistency_ctx1(ctx1):
    verdict = check_consistency(ctx1)
    assert verdict.equivalent
    assert verdict.symmetry_holds
    assert verdict.max_component_deviation < 1e-10
    assert verdict.gamma is not None and verdict.sign in (1, -1)
    # The proof's relation: cosh of the phase gap equals cosh(theta) = 4/3.
    assert proof_relation_residual(ctx1) < 1e-9


def test_check_consistency_validates_at_its_tolerance(ctx1):
    # Column 0 of the b|a matrix sums to 1.0000001: valid at 1e-5, not at 1e-9.
    ctx = ProbContext(
        p_a=ctx1.p_a,
        p_b=ctx1.p_b,
        p_b_given_a=((0.9, 0.1), (0.1000001, 0.9)),
        p_a_given_b=ctx1.p_a_given_b,
    )
    verdict = check_consistency(ctx, tol=1e-5)
    assert verdict.equivalent and verdict.symmetry_holds
    with pytest.raises(StochasticityError):
        check_consistency(ctx)


def test_check_consistency_asymmetric(ctx1):
    ctx = ProbContext(
        p_a=ctx1.p_a,
        p_b=ctx1.p_b,
        p_b_given_a=ctx1.p_b_given_a,
        p_a_given_b=((0.85, 0.15), (0.15, 0.85)),
    )
    assert interference_coefficients(ctx, Direction.A_GIVEN_B).regime is Regime.HYPERBOLIC
    verdict = check_consistency(ctx)
    assert not verdict.symmetry_holds
    assert not verdict.equivalent
    assert verdict.max_component_deviation > 1e-3


def test_check_consistency_sign_branches(ctx1, rng):
    for ctx in [ctx1] + [random_hyperbolic_context(rng) for _ in range(50)]:
        v_plus = check_consistency(ctx, sign_choice=1)
        v_minus = check_consistency(ctx, sign_choice=-1)
        assert v_plus.equivalent and v_minus.equivalent


def test_check_consistency_random_symmetric(rng):
    for _ in range(200):
        ctx = random_hyperbolic_context(rng)
        verdict = check_consistency(ctx)
        assert verdict.equivalent and verdict.symmetry_holds
        assert verdict.max_component_deviation < 1e-8
        assert proof_relation_residual(ctx) < 1e-8


def test_check_consistency_random_asymmetric(rng):
    n = 0
    while n < 200:
        base = random_hyperbolic_context(rng)
        ctx = perturbed_a_given_b(base, rng)
        if ctx is None:
            continue
        n += 1
        verdict = check_consistency(ctx)
        assert not verdict.equivalent
        assert not verdict.symmetry_holds


def test_proof_relation_fails_for_asymmetric(ctx1):
    ctx = ProbContext(
        p_a=ctx1.p_a,
        p_b=ctx1.p_b,
        p_b_given_a=ctx1.p_b_given_a,
        p_a_given_b=((0.85, 0.15), (0.15, 0.85)),
    )
    assert proof_relation_residual(ctx) > 1e-3


def test_measurement_invariance(rng):
    # All four Born probabilities are unchanged by a +-exp_j(gamma) multiplier.
    for _ in range(100):
        ctx = random_hyperbolic_context(rng)
        state = run_qlra(ctx, Direction.B_GIVEN_A)
        c = rng.choice([1, -1]) * exp_j(rng.uniform(-3, 3))
        scaled = state.psi.scale(c)
        for orig, new in ((state.psi, scaled),):
            for i, comp in enumerate(orig.components()):
                assert new.components()[i].sq_modulus() == pytest.approx(
                    comp.sq_modulus(), abs=1e-10
                )
            for e in state.conditioning_basis:
                assert inner_product(new, e).sq_modulus() == pytest.approx(
                    inner_product(orig, e).sq_modulus(), abs=1e-10
                )


def test_transported_state_matches_unitary_application(ctx1):
    state = run_qlra(ctx1, Direction.B_GIVEN_A)
    U = transition_unitary(ctx1.p_b_given_a)
    transported = mat_apply(U, state.psi)
    assert sq_norm(transported) == pytest.approx(1.0, abs=1e-12)
