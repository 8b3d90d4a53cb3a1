import math
import random

import pytest

from qlra import (
    ArgDomainError,
    DegenerateStateError,
    Direction,
    ProbContext,
    RegimeError,
    StochasticityError,
    analyze,
    check_consistency,
    interference_coefficients,
    proof_relation_residual,
    run_qlra,
    states_equivalent,
    transition_unitary,
    validate_context,
    Regime,
)
from qlra.algebra import HNumber, exp_j
from qlra.equivalence import _relation_residual
from qlra.linear import HVector2, inner_product, mat_apply
from qlra.synthetic import random_hyperbolic_context
from test_linear import columns_orthonormal


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
    # The columns are the conditioning basis (sqrt p, sqrt q) and (sqrt q, -sqrt p), q = 1 - p, orthonormal.
    # p = 1 is the identity: a zero entry is allowed, and the basis is the standard one.
    for p in (0.9, 0.05, 0.3, 0.5, 0.99, 1.0):
        U = transition_unitary(((p, 1 - p), (1 - p, p)))
        r, s = math.sqrt(p), math.sqrt(1 - p)
        assert [U[0][0].re, U[0][1].re, U[1][0].re, U[1][1].re] == pytest.approx([r, s, s, -r])
        assert columns_orthonormal(U, tol=1e-15)


def test_transition_unitary_balanced():
    U = transition_unitary(((0.5, 0.5), (0.5, 0.5)))
    assert columns_orthonormal(U, tol=1e-12)
    # Entries are read as ProbContext's parse gate reads them.
    assert transition_unitary([[0.5, "0.5"], ["0.5", 0.5]]) == U


def test_transition_unitary_rejects_non_doubly_stochastic():
    with pytest.raises(StochasticityError, match="^conditioning basis requires a doubly stochastic matrix$"):
        transition_unitary(((0.7, 0.7), (0.3, 0.3)))
    # Every line sums to 1, but an entry is negative.
    with pytest.raises(StochasticityError):
        transition_unitary(((1.5, -0.5), (-0.5, 1.5)))
    # Doubly stochastic within the tolerance, but an entry has no real square root.
    with pytest.raises(StochasticityError):
        transition_unitary(((1 + 5e-10, -5e-10), (-5e-10, 1 + 5e-10)))


def test_transition_unitary_random(rng):
    for _ in range(300):
        p = rng.uniform(0.001, 0.999)
        assert columns_orthonormal(transition_unitary(((p, 1 - p), (1 - p, p))), tol=1e-12)


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
    # The same slack on trigonometric data: the regime error at 1e-5, the validation error at the default.
    trig = ctx._replace(p_a=(0.5, 0.5), p_b=(0.5, 0.5))
    with pytest.raises(RegimeError, match="b_given_a data is trigonometric"):
        check_consistency(trig, tol=1e-5)
    with pytest.raises(StochasticityError, match="column 0 sum=1.0000001"):
        check_consistency(trig)


_WORKED = ProbContext((0.5, 0.5), (0.9, 0.1), ((0.9, 0.1), (0.1, 0.9)), ((0.9, 0.1), (0.1, 0.9)))
_INVALID = _WORKED._replace(p_a=(0.7, 0.7))
_INVALID_ERROR = (StochasticityError, "invalid context: p_a does not sum to 1 (sum=1.4)")
_SIGN_ERROR = (ValueError, "sign_choice must be +1 or -1")
_LAM = "(lam=(0.6666666666666665, -0.6666666666666665))"
_NOT_BA = (RegimeError, f"b_given_a data is trigonometric, not hyperbolic {_LAM}")
_NOT_AB = (RegimeError, f"a_given_b data is trigonometric, not hyperbolic {_LAM}")
_NOT_BA_0 = (RegimeError, "b_given_a data is trigonometric, not hyperbolic (lam=(0.0, 0.0))")
_NOT_AB_0 = (RegimeError, "a_given_b data is trigonometric, not hyperbolic (lam=(0.0, 0.0))")
_STRING_BA = (ValueError, "direction must be a Direction, got 'b_given_a'")
_STRING_AB = (ValueError, "direction must be a Direction, got 'a_given_b'")
# A direction given as its string value is checked after the context and the sign_choice.
_STRING_DIRECTIONS = {"run_qlra_string_b_given_a": _STRING_BA, "run_qlra_string_a_given_b": _STRING_AB}
_ENTRY_POINTS = {
    "run_qlra_b_given_a": lambda ctx, sc: run_qlra(ctx, Direction.B_GIVEN_A, sc),
    "run_qlra_a_given_b": lambda ctx, sc: run_qlra(ctx, Direction.A_GIVEN_B, sc),
    "check_consistency": lambda ctx, sc: check_consistency(ctx, sign_choice=sc),
    "proof_relation_residual": lambda ctx, sc: proof_relation_residual(ctx, sc),
    "run_qlra_string_b_given_a": lambda ctx, sc: run_qlra(ctx, "b_given_a", sc),
    "run_qlra_string_a_given_b": lambda ctx, sc: run_qlra(ctx, "a_given_b", sc),
}


@pytest.mark.parametrize("entry_point", list(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "ctx, sign_choice, errors",
    [
        pytest.param(_INVALID, 1, dict.fromkeys(_ENTRY_POINTS, _INVALID_ERROR), id="invalid"),
        # b|a is trigonometric (lambda_1 = 2/3), a|b hyperbolic.
        pytest.param(
            ProbContext((0.5, 0.5), (0.7, 0.3), ((0.9, 0.1), (0.1, 0.9)), ((0.99, 0.01), (0.01, 0.99))),
            1,
            {"run_qlra_b_given_a": _NOT_BA, "run_qlra_a_given_b": None,
             "check_consistency": _NOT_BA, "proof_relation_residual": _NOT_BA, **_STRING_DIRECTIONS},
            id="b_given_a_not_hyperbolic",
        ),
        # The mirror image: a|b is trigonometric, b|a hyperbolic.
        pytest.param(
            ProbContext((0.7, 0.3), (0.5, 0.5), ((0.99, 0.01), (0.01, 0.99)), ((0.9, 0.1), (0.1, 0.9))),
            1,
            {"run_qlra_b_given_a": None, "run_qlra_a_given_b": _NOT_AB,
             "check_consistency": _NOT_AB, "proof_relation_residual": _NOT_AB, **_STRING_DIRECTIONS},
            id="a_given_b_not_hyperbolic",
        ),
        # Neither is hyperbolic (lambda = 0): check_consistency names b|a, proof_relation_residual a|b.
        pytest.param(
            _WORKED._replace(p_b=(0.5, 0.5)),
            1,
            {"run_qlra_b_given_a": _NOT_BA_0, "run_qlra_a_given_b": _NOT_AB_0,
             "check_consistency": _NOT_BA_0, "proof_relation_residual": _NOT_AB_0, **_STRING_DIRECTIONS},
            id="neither_hyperbolic",
        ),
        pytest.param(_WORKED, 0, dict.fromkeys(_ENTRY_POINTS, _SIGN_ERROR), id="sign_0"),
        pytest.param(_INVALID, 0, dict.fromkeys(_ENTRY_POINTS, _INVALID_ERROR), id="sign_0_invalid"),
    ],
)
def test_entry_point_error_contract(ctx, sign_choice, errors, entry_point):
    # Validation comes first, then the sign_choice, then the direction, then each direction's regime in
    # the entry point's order.
    call = _ENTRY_POINTS[entry_point]
    if errors[entry_point] is None:
        assert call(ctx, sign_choice).direction is not None
        return
    with pytest.raises(Exception) as info:
        call(ctx, sign_choice)
    assert (info.type, str(info.value)) == errors[entry_point]


def test_string_direction_raises(ctx1):
    # Only the two Direction members name a direction: a string is not read as either of them.
    for call in (
        lambda: interference_coefficients(ctx1, "b_given_a"),
        lambda: run_qlra(ctx1, "b_given_a"),
        lambda: analyze(ctx1, directions=("b_given_a",)),
    ):
        with pytest.raises(ValueError, match=r"^direction must be a Direction, got 'b_given_a'$"):
            call()
    # An invalid context is reported before its directions are read.
    assert analyze(_INVALID, directions=("b_given_a",))[0] == ["p_a does not sum to 1 (sum=1.4)"]


def test_analyze_checks_sign_choice_without_a_hyperbolic_direction():
    # Valid and trigonometric in both directions: the sign_choice is checked with no amplitude to build.
    trig = _WORKED._replace(p_b=(0.5, 0.5))
    violations, entries, verdict, _ = analyze(trig)
    assert not violations and [e[2] for e in entries] == [None, None] and verdict is None
    with pytest.raises(ValueError, match=r"^sign_choice must be \+1 or -1$"):
        analyze(trig, sign_choice=0)


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
    # An a|b component off the cone (u*v < 0) has no hyperbolic argument.
    state_ab, state_ba = run_qlra(ctx1, Direction.A_GIVEN_B), run_qlra(ctx1, Direction.B_GIVEN_A)
    u1, v1, u2, v2 = state_ab.amplitude
    with pytest.raises(ArgDomainError):
        _relation_residual(state_ab._replace(amplitude=(u1, -v1, u2, v2)), state_ba)


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
    assert inner_product(transported, transported).re == pytest.approx(1.0, abs=1e-12)


def _min_abs_lambda(ctx):
    return min(abs(x) for d in Direction for x in interference_coefficients(ctx, d).lam)


def test_check_consistency_extreme_symmetric(extreme_contexts):
    # Symmetric contexts up to |lambda| = 5e8: the deviation bound scales
    # with the coordinates, whose rounding errors grow like cosh(theta).
    # Within 1e-6 of |lambda| = 1 the data fix theta too loosely to decide.
    contexts = [ctx for ctx in extreme_contexts if _min_abs_lambda(ctx) - 1.0 >= 1e-6]
    assert len(contexts) == 140
    for ctx in contexts:
        verdict = check_consistency(ctx)
        assert verdict.equivalent and verdict.symmetry_holds


def test_phase_branch_follows_lambda_signs(rng, extreme_contexts):
    # The theorem fixes the a|b branch: sc' = -eps_ba * eps_ab * sc.
    contexts = [random_hyperbolic_context(rng) for _ in range(200)]
    contexts += [ctx for ctx in extreme_contexts if _min_abs_lambda(ctx) - 1.0 >= 1e-6]
    checked = discriminating = 0
    for ctx in contexts:
        U = transition_unitary(ctx.p_b_given_a)
        eps_ba, eps_ab = (interference_coefficients(ctx, d).epsilon[0] for d in Direction)
        for sc in (1, -1):
            transported = mat_apply(U, run_qlra(ctx, Direction.B_GIVEN_A, sc).psi)
            branch = -eps_ba * eps_ab * sc
            picked = states_equivalent(run_qlra(ctx, Direction.A_GIVEN_B, branch).psi, transported)
            assert picked.equivalent
            # check_consistency compares exactly this pair.
            verdict = check_consistency(ctx, sign_choice=sc)
            assert (verdict.equivalent, verdict.gamma, verdict.sign, verdict.max_component_deviation) == (
                picked.equivalent, picked.gamma, picked.sign, picked.max_component_deviation
            )
            other = run_qlra(ctx, Direction.A_GIVEN_B, -branch)
            if other.profile.theta[0] > 1e-3:
                assert not states_equivalent(other.psi, transported).equivalent
                discriminating += 1
            checked += 1
    assert checked == 680
    assert discriminating >= 600
