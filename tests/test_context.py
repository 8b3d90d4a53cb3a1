import math
import random

import pytest

from qlra import (
    Direction,
    InfeasibleContextError,
    ProbContext,
    Regime,
    RegimeError,
    StochasticityError,
    check_proposition1,
    generate_hyperbolic_context,
    interference_coefficients,
    is_doubly_stochastic,
    lambda_feasible_range,
    random_hyperbolic_context,
    validate_context,
)


def test_ctx1_valid(ctx1):
    assert validate_context(ctx1) == []


def test_marginal_sum_violation():
    ctx = ProbContext(
        p_a=(0.7, 0.2), p_b=(0.9, 0.1), p_b_given_a=((0.9, 0.1), (0.1, 0.9))
    )
    assert any("p_a" in v and "sum" in v for v in validate_context(ctx))


def test_not_doubly_stochastic_reported():
    ctx = ProbContext(
        p_a=(0.5, 0.5), p_b=(0.9, 0.1), p_b_given_a=((0.7, 0.7), (0.3, 0.3))
    )
    violations = validate_context(ctx)
    assert any("doubly stochastic" in v for v in violations)
    # Columns are still stochastic.
    assert not any("column" in v for v in violations)


def test_is_doubly_stochastic():
    assert is_doubly_stochastic(((0.9, 0.1), (0.1, 0.9)))
    for p in (0.05, 0.3, 0.5, 0.99):
        assert is_doubly_stochastic(((p, 1 - p), (1 - p, p)))
    assert not is_doubly_stochastic(((0.7, 0.7), (0.3, 0.3)))


def test_default_a_given_b_is_transpose():
    M = ((0.8, 0.2), (0.2, 0.8))
    ctx = ProbContext(p_a=(0.5, 0.5), p_b=(0.6, 0.4), p_b_given_a=M)
    assert ctx.a_given_b_defaulted
    assert ctx.a_given_b() == M  # symmetric, so transpose equals original


def test_interference_ctx1_b_given_a(ctx1):
    prof = interference_coefficients(ctx1, Direction.B_GIVEN_A)
    # Numerator 0.9 - 0.5 = 0.4; denominator 2*sqrt(0.45*0.05) = 0.3.
    assert prof.lam[0] == pytest.approx(4 / 3, abs=1e-12)
    assert prof.lam[1] == pytest.approx(-4 / 3, abs=1e-12)
    assert prof.regime is Regime.HYPERBOLIC
    assert prof.epsilon == (1, -1)
    assert prof.theta[0] == pytest.approx(math.acosh(4 / 3), abs=1e-12)


def test_interference_ctx1_a_given_b(ctx1):
    prof = interference_coefficients(ctx1, Direction.A_GIVEN_B)
    # Classical value 0.81 + 0.01 = 0.82; denominator 2*sqrt(0.81*0.01) = 0.18.
    assert prof.lam[0] == pytest.approx(-16 / 9, abs=1e-12)
    assert prof.lam[1] == pytest.approx(16 / 9, abs=1e-12)
    assert prof.regime is Regime.HYPERBOLIC


def test_zero_interference_is_trigonometric():
    M = ((0.9, 0.1), (0.1, 0.9))
    p_a = (0.5, 0.5)
    classical = tuple(p_a[0] * M[i][0] + p_a[1] * M[i][1] for i in range(2))
    ctx = ProbContext(p_a=p_a, p_b=classical, p_b_given_a=M)
    prof = interference_coefficients(ctx, Direction.B_GIVEN_A)
    assert prof.lam == (0.0, 0.0)
    assert prof.regime is Regime.TRIGONOMETRIC


def test_boundary_lambda_is_trigonometric():
    # |lambda| = 1 exactly: classify as trigonometric, not hyperbolic.
    M = ((0.9, 0.1), (0.1, 0.9))
    p_a = (0.5, 0.5)
    p_b1 = 0.5 + 2 * 1.0 * math.sqrt(0.45 * 0.05)
    ctx = ProbContext(p_a=p_a, p_b=(p_b1, 1 - p_b1), p_b_given_a=M)
    prof = interference_coefficients(ctx, Direction.B_GIVEN_A)
    assert prof.lam[0] == pytest.approx(1.0, abs=1e-12)
    assert prof.regime is Regime.TRIGONOMETRIC
    assert prof.theta[0] == pytest.approx(0.0, abs=1e-6)


def test_proposition1(ctx1):
    assert check_proposition1(ctx1, Direction.B_GIVEN_A)
    assert check_proposition1(ctx1, Direction.A_GIVEN_B)
    bad = ProbContext(
        p_a=(0.5, 0.5), p_b=(0.9, 0.1), p_b_given_a=((0.7, 0.7), (0.3, 0.3))
    )
    with pytest.raises(StochasticityError):
        check_proposition1(bad, Direction.B_GIVEN_A)


def test_proposition1_random(rng):
    # Any doubly stochastic context with valid marginals cancels exactly.
    for _ in range(200):
        ctx = random_hyperbolic_context(rng, require_both_hyperbolic=False)
        for direction in Direction:
            prof = interference_coefficients(ctx, direction)
            assert abs(prof.lam[0] + prof.lam[1]) < 1e-10
            assert prof.regime is not Regime.HYPER_TRIGONOMETRIC


def test_generate_ctx1():
    ctx = generate_hyperbolic_context(0.9, 0.5, 4 / 3)
    assert ctx.p_a == (0.5, 0.5)
    assert ctx.p_b[0] == pytest.approx(0.9, abs=1e-12)
    for M in (ctx.p_b_given_a, ctx.p_a_given_b):
        assert M[0][0] == 0.9 and M[1][1] == 0.9
        assert M[0][1] == pytest.approx(0.1, abs=1e-15)
        assert M[1][0] == pytest.approx(0.1, abs=1e-15)


def test_generate_mirror():
    ctx = generate_hyperbolic_context(0.9, 0.5, -4 / 3)
    assert ctx.p_b[0] == pytest.approx(0.1, abs=1e-12)
    assert ctx.p_b[1] == pytest.approx(0.9, abs=1e-12)


def test_generate_infeasible():
    with pytest.raises(InfeasibleContextError):
        generate_hyperbolic_context(0.5, 0.5, 1.5)
    with pytest.raises(RegimeError):
        generate_hyperbolic_context(0.9, 0.5, 0.5)
    with pytest.raises(ValueError):
        generate_hyperbolic_context(1.2, 0.5, 1.5)


def test_generate_roundtrip(rng):
    for _ in range(200):
        p = rng.uniform(0.05, 0.95)
        p_a1 = rng.uniform(0.05, 0.95)
        intervals = lambda_feasible_range(p, p_a1)
        if not intervals:
            continue
        lo, hi = intervals[rng.randrange(len(intervals))]
        lam1 = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        ctx = generate_hyperbolic_context(p, p_a1, lam1)
        assert validate_context(ctx) == []
        prof = interference_coefficients(ctx, Direction.B_GIVEN_A)
        assert prof.lam[0] == pytest.approx(lam1, abs=1e-10)
        assert prof.regime is Regime.HYPERBOLIC


def test_feasible_range_examples():
    intervals = lambda_feasible_range(0.9, 0.5)
    # S = 0.5, R = 0.15: raw band (-5/3, 5/3), cut at |lambda| = 1.
    assert len(intervals) == 2
    (nlo, nhi), (plo, phi) = intervals
    assert (nlo, nhi) == (pytest.approx(-5 / 3), -1.0)
    assert (plo, phi) == (1.0, pytest.approx(5 / 3))
    assert lambda_feasible_range(0.5, 0.5) == ()


def test_feasible_range_band_endpoints(rng):
    # The raw band is ((0-S)/2R, (1-S)/2R); it is symmetric about 0
    # exactly when S = 1/2, which a balanced a-marginal guarantees.
    for _ in range(100):
        p = rng.uniform(0.05, 0.95)
        intervals = lambda_feasible_range(p, 0.5)
        if len(intervals) == 2:
            (nlo, nhi), (plo, phi) = intervals
            assert nhi == -plo == -1.0
            assert nlo == pytest.approx(-phi, rel=1e-9)
    # Unbalanced marginals skew the band; every feasible lambda must
    # still produce a valid context.
    for _ in range(100):
        p = rng.uniform(0.05, 0.95)
        p_a1 = rng.uniform(0.05, 0.95)
        for lo, hi in lambda_feasible_range(p, p_a1):
            mid = 0.5 * (lo + hi)
            ctx = generate_hyperbolic_context(p, p_a1, mid)
            assert validate_context(ctx) == []


def test_random_context_properties(rng):
    for _ in range(100):
        ctx = random_hyperbolic_context(rng)
        assert validate_context(ctx) == []
        for direction in Direction:
            prof = interference_coefficients(ctx, direction)
            assert prof.regime is Regime.HYPERBOLIC


def test_from_dict_errors():
    with pytest.raises(ValueError, match="p_b"):
        ProbContext.from_dict({"p_a": [0.5, 0.5], "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]]})
    with pytest.raises(ValueError, match="2-array"):
        ProbContext.from_dict(
            {"p_a": [0.5], "p_b": [0.9, 0.1], "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]]}
        )
    with pytest.raises(ValueError, match="2x2"):
        ProbContext.from_dict(
            {"p_a": [0.5, 0.5], "p_b": [0.9, 0.1], "P_b_given_a": [0.9, 0.1]}
        )
    for bad in (None, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="'p_b'.*finite"):
            ProbContext.from_dict(
                {"p_a": [0.5, 0.5], "p_b": [0.9, bad], "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]]}
            )
        with pytest.raises(ValueError, match="'P_a_given_b'.*finite"):
            ProbContext.from_dict(
                {
                    "p_a": [0.5, 0.5],
                    "p_b": [0.9, 0.1],
                    "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]],
                    "P_a_given_b": [[0.9, 0.1], [bad, 0.9]],
                }
            )


def test_dict_roundtrip(ctx1):
    assert ProbContext.from_dict(ctx1.to_dict()) == ctx1
    # Whatever float() reads is a number, quoted numbers included.
    quoted = ProbContext.from_dict(
        {"p_a": ["0.5", "0.5"], "p_b": [0.9, 0.1], "P_b_given_a": [[0.9, "0.1"], [0.1, 0.9]]}
    )
    assert quoted.p_a == (0.5, 0.5) and quoted.p_b_given_a[0][1] == 0.1
