import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import qlra.context
from qlra import (
    POSITIVITY_MARGIN,
    TOLERANCE,
    Direction,
    InfeasibleContextError,
    ProbContext,
    Regime,
    RegimeError,
    interference_coefficients,
    validate_context,
)
from qlra.context import _as_matrix, _as_pair, _violations
from qlra.synthetic import generate_hyperbolic_context, lambda_feasible_range, random_hyperbolic_context


def test_ctx1_valid(ctx1):
    assert validate_context(ctx1) == []


def test_marginal_sum_violation():
    ctx = ProbContext(
        p_a=(0.7, 0.2), p_b=(0.9, 0.1), p_b_given_a=((0.9, 0.1), (0.1, 0.9))
    )
    assert any("p_a" in v and "sum" in v for v in validate_context(ctx))
    # Each p_b entry is checked for strict positivity on its own.
    outside = ["p_b[0]=0.0 outside (0,1)", "p_b[1]=1.0 outside (0,1)"]
    assert validate_context(ctx._replace(p_a=(0.5, 0.5), p_b=(0.0, 1.0))) == outside


def test_not_doubly_stochastic_reported():
    ctx = ProbContext(
        p_a=(0.5, 0.5), p_b=(0.9, 0.1), p_b_given_a=((0.7, 0.7), (0.3, 0.3))
    )
    violations = validate_context(ctx)
    assert any("doubly stochastic" in v for v in violations)
    # Columns are still stochastic.
    assert not any("column" in v for v in violations)


def test_one_violation_per_non_doubly_stochastic_matrix():
    # Columns of P_b_given_a are off; rows and one column of P_a_given_b are.
    ctx = ProbContext(
        p_a=(0.5, 0.5),
        p_b=(0.5, 0.5),
        p_b_given_a=((0.7, 0.3), (0.4, 0.6)),
        p_a_given_b=((0.7, 0.7), (0.4, 0.3)),
    )
    assert validate_context(ctx) == [
        f"P_b_given_a is not doubly stochastic (column 0 sum={0.7 + 0.4!r}, column 1 sum={0.3 + 0.6!r})",
        f"P_a_given_b is not doubly stochastic (row 0 sum={0.7 + 0.7!r}, row 1 sum={0.4 + 0.3!r}, "
        f"column 0 sum={0.7 + 0.4!r})",
    ]


def test_default_a_given_b_is_transpose():
    M = ((0.8, 0.2), (0.2, 0.8))
    ctx = ProbContext(p_a=(0.5, 0.5), p_b=(0.6, 0.4), p_b_given_a=M)
    assert ctx.a_given_b_defaulted


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
    # |lambda| = 1 exactly: every number here is dyadic, so lam = 0.375 / 0.375 has no rounding.
    # Classify it as trigonometric, not hyperbolic.
    M = ((0.75, 0.25), (0.25, 0.75))
    ctx = ProbContext(p_a=(0.25, 0.75), p_b=(0.75, 0.25), p_b_given_a=M)
    assert interference_coefficients(ctx, Direction.B_GIVEN_A) == (
        (1.0, -1.0), (1, -1), (0.0, math.pi), Regime.TRIGONOMETRIC)
    assert interference_coefficients(ctx, Direction.A_GIVEN_B) == (
        (-1.0, 1.0), (-1, 1), (math.pi, 0.0), Regime.TRIGONOMETRIC)


def test_interference_degenerate_denominator_names_the_outcome():
    # A raw context, not valid and not projected: a zero entry makes a product under the root zero.
    p_a, p_b = (0.5, 0.5), (0.9, 0.1)
    for M, outcome in [
        (((1.0, 0.0), (0.0, 1.0)), 0),  # both products are zero: outcome 0 is named
        (((0.5, 0.5), (1.0, 0.0)), 1),  # only outcome 1's product is zero
        (((0.5, 0.5), (-0.5, 1.5)), 1),  # or negative
    ]:
        ctx = ProbContext(p_a=p_a, p_b=p_b, p_b_given_a=M, p_a_given_b=M)
        for direction in Direction:
            message = f"degenerate denominator for outcome {outcome}: probabilities must be strictly positive"
            with pytest.raises(RegimeError, match=f"^{message}$"):
                interference_coefficients(ctx, direction)
    # Or one that overflows: a joint probability of 1e200 * 1e200 is inf, and a product of inf and 0 is nan.
    # Either used to give a nan lambda; its theta came out 0 or 230.3, and the regime trigonometric or mixed.
    message = "degenerate denominator for outcome {}: probabilities must be strictly positive"
    for ctx, outcome in [
        (ProbContext((1e200, 1.0), (0.5, 0.5), ((1e200, 1.0), (1.0, 1.0))), 0),
        (ProbContext((1e200, 1e200), (1e200, 1e200), ((1e200, 1e200), (1e200, 1e200))), 0),
        (ProbContext((1.0, 1e200), (0.5, 0.5), ((0.5, 0.5), (1.0, 1e200))), 1),
    ]:
        with pytest.raises(RegimeError, match=f"^{message.format(outcome)}$"):
            interference_coefficients(ctx, Direction.B_GIVEN_A)


def test_interference_hyper_trigonometric_off_double_stochasticity():
    # born_violation_demo's matrix [[p, p], [q, q]] with p_a = (1/2, 1/2): the classical value of
    # outcome i is m_i = M[i][0], the denominator 2*sqrt((m_i/2)^2) = m_i, so lam_i = p_b[i]/m_i - 1,
    # and lam_1 = -(q/p) * lam_2 locks the two.  One |lam| can exceed 1 while the other does not.
    for p, p_b1 in [(0.8, 0.2), (0.8, 0.35), (0.3, 0.5), (0.6, 0.2), (0.6, 0.9)]:
        q = 1.0 - p
        ctx = ProbContext(p_a=(0.5, 0.5), p_b=(p_b1, 1.0 - p_b1), p_b_given_a=((p, p), (q, q)))
        prof = interference_coefficients(ctx, Direction.B_GIVEN_A)
        want = (p_b1 / p - 1.0, (1.0 - p_b1) / q - 1.0)
        assert prof.lam == pytest.approx(want, abs=1e-12)
        assert prof.lam[0] == pytest.approx(-(q / p) * prof.lam[1], abs=1e-12)
        assert prof.epsilon == tuple(1 if x >= 0 else -1 for x in prof.lam)
        big = [abs(x) > 1.0 for x in prof.lam]
        regime = {2: Regime.HYPERBOLIC, 1: Regime.HYPER_TRIGONOMETRIC, 0: Regime.TRIGONOMETRIC}[sum(big)]
        assert prof.regime is regime
        for x, theta, hyperbolic in zip(prof.lam, prof.theta, big):
            # acosh for the outcome with |lam| > 1, acos for the other.
            assert theta == (math.acosh(abs(x)) if hyperbolic else math.acos(x))
    # (0.8, 0.2): lam = (-0.75, 3), the mixed regime.
    ctx = ProbContext(p_a=(0.5, 0.5), p_b=(0.2, 0.8), p_b_given_a=((0.8, 0.8), (0.2, 0.2)))
    prof = interference_coefficients(ctx, Direction.B_GIVEN_A)
    assert prof.regime is Regime.HYPER_TRIGONOMETRIC
    assert prof.epsilon == (-1, 1)
    assert prof.theta == pytest.approx((math.acos(-0.75), math.acosh(3.0)), abs=1e-12)


def _cancellation(ctx, direction):
    """|lam1 + lam2| of a doubly stochastic order, in probability units: times the smaller of the two
    denominators 2*sqrt(c0*M[i][0]*c1*M[i][1]) of lam[i]."""
    if direction is Direction.B_GIVEN_A:
        (c0, c1), M = ctx.p_a, ctx.p_b_given_a
    else:
        (c0, c1), M = ctx.p_b, ctx.p_a_given_b or tuple(zip(*ctx.p_b_given_a))
    lam = interference_coefficients(ctx, direction).lam
    return abs(lam[0] + lam[1]) * min(2.0 * math.sqrt((c0 * m0) * (c1 * m1)) for m0, m1 in M)


def test_proposition1(ctx1):
    for direction in Direction:
        assert _cancellation(ctx1, direction) <= 1e-10


def test_proposition1_extreme_grid(extreme_contexts):
    # lam1 + lam2 is compared in probability units: at |lambda| up to 5e8
    # the raw sum is rounding of the probabilities divided by a tiny
    # denominator.
    for ctx in extreme_contexts:
        for direction in Direction:
            assert _cancellation(ctx, direction) <= 1e-10


def test_proposition1_random(rng):
    # Any doubly stochastic context with valid marginals cancels exactly.
    for _ in range(200):
        ctx = random_hyperbolic_context(rng)
        for direction in Direction:
            prof = interference_coefficients(ctx, direction)
            assert abs(prof.lam[0] + prof.lam[1]) < 1e-10
            assert prof.regime is not Regime.HYPER_TRIGONOMETRIC


# The validated domain's corners: 1 - TOP is the smallest float 1 - x at or above the positivity margin 1e-12.
TOP = math.nextafter(1.0 - 1e-12, 0.0)
U = 2.0 ** -53  # the unit roundoff


@settings(max_examples=300, deadline=None)
@given(*[st.floats(1e-12, TOP) | st.sampled_from([1e-12, 0.5, TOP])] * 3)
@example(1e-12, 1e-12, 1e-12)
@example(TOP, 1e-12, TOP)
@example(0.5, TOP, 0.5)
@example(0.5, 0.8, 0.9)  # lam = +-1 in reals: x = 0 and y^2 + z^2 = 1
def test_both_orders_share_the_regime(a, b, p):
    # A transpose-symmetric doubly stochastic context is (a, b, p).  With x = 2a - 1, y = 2b - 1, z = 2p - 1,
    # lam^2 - 1 is N / ((1 - x^2)(1 - z^2)) for b|a and N / ((1 - y^2)(1 - z^2)) for a|b, one numerator
    # N = x^2 + y^2 + z^2 - 2xyz - 1 for both, so the sign of N alone decides both orders' regimes.
    M = ((p, 1.0 - p), (1.0 - p, p))
    ctx = ProbContext((a, 1.0 - a), (b, 1.0 - b), M, M)
    assert validate_context(ctx) == []
    x, y, z = (2 * Fraction(v) - 1 for v in (a, b, p))
    N = x * x + y * y + z * z - 2 * x * y * z - 1
    regimes, clear = [], True
    for direction, w in ((Direction.B_GIVEN_A, x), (Direction.A_GIVEN_B, y)):
        profile = interference_coefficients(ctx, direction)
        regimes.append(profile.regime)
        denominator = (1 - w * w) * (1 - z * z)
        D = math.sqrt(denominator) / 2.0  # lam's denominator 2*sqrt(c(1-c)p(1-p)), c the conditioning marginal
        for lam in profile.lam:
            # Forward error of the float lam: the numerator's inputs and terms are at most 1 and carry at most
            # 5 roundings, the denominator at most 3.5 relative to D, the quotient one: |d lam| <= 8u(1/D + |lam|).
            err = 8.0 * U * (1.0 / D + abs(lam))
            if abs(abs(lam) - 1.0) > err:
                assert (abs(lam) > 1.0) is (N > 0)
            else:
                clear = False
            # lam^2 - 1 then errs by at most 2|lam|err + err^2, plus u per rounding of the square and the subtraction.
            bound = 2.0 * abs(lam) * err + err * err + 2.0 * U * (lam * lam + 1.0)
            assert abs(Fraction(lam * lam - 1.0) - N / denominator) <= bound
    if clear:
        assert regimes[0] is regimes[1] is (Regime.HYPERBOLIC if N > 0 else Regime.TRIGONOMETRIC)


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
    # A feasible p_b1, but entries within the positivity margin: validate_context rejects them.
    with pytest.raises(InfeasibleContextError, match=r"P_b_given_a\[0\]\[0\]=1e-13 outside"):
        generate_hyperbolic_context(1e-13, 0.5, 1.5)
    with pytest.raises(InfeasibleContextError, match=r"p_a\[0\]=1e-13 outside"):
        generate_hyperbolic_context(0.5, 1e-13, 1.5)
    with pytest.raises(RegimeError):
        generate_hyperbolic_context(0.9, 0.5, 0.5)
    with pytest.raises(ValueError):
        generate_hyperbolic_context(1.2, 0.5, 1.5)
    # The range error comes before the regime error.
    with pytest.raises(ValueError, match=r"p and p_a1 must lie in \(0,1\)"):
        generate_hyperbolic_context(1.2, 0.5, 0.5)
    # The band's width p*p_a1*(1-p)*(1-p_a1) underflows to 0: no band, and no division by it.
    with pytest.raises(ValueError, match="p=1e-200 and p_a1=1e-200 give no band"):
        generate_hyperbolic_context(1e-200, 1e-200, 2.0)
    with pytest.raises(ValueError, match="p=1e-200 and p_a1=1e-200 give no band"):
        lambda_feasible_range(1e-200, 1e-200)


class _Halves(random.Random):
    """Draws p = p_a1 = 1/2, whose band [-1, 1] holds no |lam1| > 1."""

    def uniform(self, a, b):
        return 0.5


def test_random_context_gives_up():
    # Every draw has an empty band, so every try is skipped.
    with pytest.raises(InfeasibleContextError, match="^no feasible context found in 10000 tries$"):
        random_hyperbolic_context(_Halves(0))


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


def test_four_numbers_read_a_ds_context_back_exactly(ctx1, extreme_contexts, rng, ds_form):
    # Contexts of the exactly doubly stochastic form are their own four-number form, bit for bit.
    for ctx in [*extreme_contexts, *(random_hyperbolic_context(rng) for _ in range(200))]:
        assert ds_form(ctx) == ctx
    # A defaulted a|b matrix has the b|a matrix's diagonal: p' == p.
    ds = ds_form(ctx1._replace(p_a_given_b=None))
    assert ds.p_a_given_b == ds.p_b_given_a == ((0.9, 1.0 - 0.9), (1.0 - 0.9, 0.9))
    assert ds.p_b == (0.9, 1.0 - 0.9)


def test_four_numbers_of_slack_are_within_twice_the_tolerance(rng, ds_form):
    tol = 1e-6

    def off(pair):
        return [x + rng.uniform(-0.2, 0.2) * tol for x in pair]

    for _ in range(200):
        exact = random_hyperbolic_context(rng)
        matrices = [[off(row) for row in M] for M in (exact.p_b_given_a, exact.p_a_given_b)]
        slacked = ProbContext(off(exact.p_a), off(exact.p_b), *matrices)
        assert validate_context(slacked, tol) == []
        ds = ds_form(slacked, tol)
        (a, _), (b, _), ((p, _), _), ((q, _), _) = ds
        assert (a, b) == (slacked.p_a[0], slacked.p_b[0])
        assert (p, q) == tuple((M[0][0] + M[1][1]) / 2.0 for M in matrices)
        assert ds_form(ds) == ds
        for x, y in zip(flat(ds), flat(slacked)):
            assert abs(x - y) <= 2.0 * tol


def flat(x):
    """The numbers of nested lists and tuples, in order."""
    return [y for item in x for y in flat(item)] if isinstance(x, (list, tuple)) else [x]


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
    # Only an absent P_a_given_b defaults; an explicit null is rejected.
    with pytest.raises(ValueError, match=r"field 'P_a_given_b' must be a 2x2 array of finite numbers, got None"):
        ProbContext.from_dict(
            {"p_a": [0.5, 0.5], "p_b": [0.9, 0.1], "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]], "P_a_given_b": None}
        )


# Pairs that JSON and Python hand the parse gate, and the floats float() makes of them.
PAIRS = [
    [0.9, 0.1],
    [1, 0],
    [True, False],
    ["0.25", "1e-3"],
    (0.9, 0.1),
    [-0.0, 0.0],
    [1e308, 1e308],  # finite, though their sum is not
    [5e-324, 1],
]


@pytest.mark.parametrize("pair", PAIRS, ids=repr)
def test_from_dict_reads_every_pair_as_float_does(pair):
    d = {"p_a": pair, "p_b": pair, "P_b_given_a": [pair, pair], "P_a_given_b": [pair, pair]}
    ctx = ProbContext.from_dict(d)
    want = tuple(map(float, pair))
    for field in (ctx.p_a, ctx.p_b, *ctx.p_b_given_a, *ctx.p_a_given_b):
        assert field == want and type(field) is tuple
        assert all(type(x) is float for x in field)
        assert [math.copysign(1.0, x) for x in field] == [math.copysign(1.0, x) for x in want]


@pytest.mark.parametrize(
    "bad",
    [[0.9, float("nan")], [float("inf"), 0.1], [1e308, float("-inf")], [0.5], [0.5, 0.5, 0.5], [], None, "0.5"],
    ids=repr,
)
def test_from_dict_rejects_pairs_with_the_same_message(bad):
    base = {"p_a": [0.5, 0.5], "p_b": [0.9, 0.1], "P_b_given_a": [[0.9, 0.1], [0.1, 0.9]]}
    with pytest.raises(ValueError) as marginal:
        ProbContext.from_dict(dict(base, p_b=bad))
    assert str(marginal.value) == f"field 'p_b' must be a 2-array of finite numbers, got {bad!r}"
    with pytest.raises(ValueError) as row:
        ProbContext.from_dict(dict(base, P_a_given_b=[[0.9, 0.1], bad]))
    assert str(row.value) == f"field 'P_a_given_b' must be a 2x2 array of finite numbers, got {bad!r}"


def test_dict_roundtrip(ctx1):
    assert ProbContext.from_dict(ctx1.to_dict()) == ctx1
    # Whatever float() reads is a number, quoted numbers included.
    quoted = ProbContext.from_dict(
        {"p_a": ["0.5", "0.5"], "p_b": [0.9, 0.1], "P_b_given_a": [[0.9, "0.1"], [0.1, 0.9]]}
    )
    assert quoted.p_a == (0.5, 0.5) and quoted.p_b_given_a[0][1] == 0.1


# What JSON and Python can hand the parse gate in place of a field or one of its parts: entries of every type
# float() may or may not take, non-finite ones, and containers of the wrong type, length or depth.
_FLOATS = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 1e308, 5e-324])  # 1e308 twice: a finite pair, an inf sum
_SCALARS = (
    st.floats() | st.integers() | st.booleans() | st.none()
    | st.floats().map(repr)  # numeric strings, "nan" and "inf" among them
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308])
)
_PAIRS = st.one_of(
    st.lists(_FLOATS, min_size=2, max_size=2),
    st.lists(_SCALARS, min_size=2, max_size=2),
    st.lists(_SCALARS, max_size=3),
    st.tuples(_SCALARS, _SCALARS),
    st.dictionaries(_SCALARS.filter(lambda x: x == x), _SCALARS, max_size=2),  # nan keys would not compare
    _SCALARS,
)
_MATRICES = st.one_of(
    st.lists(_PAIRS, min_size=2, max_size=2),
    st.lists(_PAIRS, max_size=3),
    st.tuples(_PAIRS, _PAIRS),
    st.lists(st.lists(_PAIRS, min_size=2, max_size=2), min_size=2, max_size=2),  # one level too deep
    _PAIRS,  # one level too shallow
)


@st.composite
def _gate_fields(draw):
    """(p_a, p_b, P_b_given_a, P_a_given_b or None): JSON's float lists with up to three parts replaced.

    A part is a field, a matrix's row, or one entry of a pair or a row.
    """
    pair = st.lists(_FLOATS, min_size=2, max_size=2)
    matrix = st.lists(pair, min_size=2, max_size=2)
    fields = [draw(pair), draw(pair), draw(matrix), draw(st.none() | matrix)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, 3))
        parent, key, depth = fields, i, 2 if i >= 2 else 1  # depth: the nesting the replaced part should have
        while depth and type(parent[key]) is list and len(parent[key]) == 2 and draw(st.integers(0, 2)):
            parent, key, depth = parent[key], draw(st.integers(0, 1)), depth - 1  # two times in three, one level down
        parent[key] = draw((_SCALARS, _PAIRS, _MATRICES)[depth])
    return fields


def _json_floats(x, depth: int):
    """The floats of x if it is a list of two floats (depth 1) or of two such lists (depth 2), else None."""
    if type(x) is not list or len(x) != 2:
        return None
    if depth == 1:
        return x if type(x[0]) is float and type(x[1]) is float else None
    rows = [_json_floats(row, 1) for row in x]
    return None if None in rows else rows[0] + rows[1]


def _assert_gate_builds_what_the_converters_build(fields):
    """ProbContext(*fields) and from_dict return what _as_pair and _as_matrix build field by field, or raise their
    ValueError word for word; lists of finite floats whose sum cannot overflow are not converted at all."""
    p_a, p_b, M, N = fields
    try:
        want = repr((
            _as_pair(p_a, "field 'p_a'"),
            _as_pair(p_b, "field 'p_b'"),
            _as_matrix(M, "field 'P_b_given_a'"),
            None if N is None else _as_matrix(N, "field 'P_a_given_b'"),
        ))  # repr tells -0.0 from 0.0, and 1 from 1.0
    except ValueError as exc:
        want = str(exc)
    d = {"p_a": p_a, "p_b": p_b, "P_b_given_a": M}
    if N is not None:
        d["P_a_given_b"] = N
    with mock.patch.object(qlra.context, "_as_pair", wraps=_as_pair) as as_pair:
        for build in (lambda: ProbContext(*fields), lambda: ProbContext.from_dict(d)):
            try:
                got = build()
            except ValueError as exc:
                got = str(exc)
            else:
                assert type(got) is ProbContext
                got = repr(tuple(got))
            assert got == want, fields
    leaves = [_json_floats(p_a, 1), _json_floats(p_b, 1), _json_floats(M, 2), _json_floats(M if N is None else N, 2)]
    if None not in leaves and all(abs(x) <= 1.0 for leaf in leaves for x in leaf):
        assert not as_pair.called, fields


@settings(max_examples=600, deadline=None)
@given(_gate_fields())
@example([[0.5, 0.5], [0.9, 0.1], [[0.9, 0.1], [0.1, 0.9]], None])
@example([[1e308, 1e308], [0.9, 0.1], [[0.9, 0.1], [0.1, 0.9]], None])  # finite entries, an overflowing sum
@example([[-0.0, 1.0], ["0.9", "0.1"], [[0.9, 0.1], (0.1, 0.9)], [[1, 0], [0, True]]])
def test_parse_gate_builds_what_the_converters_build(fields):
    # The gate takes JSON's float lists in one step and hands anything else to _as_pair and _as_matrix.
    _assert_gate_builds_what_the_converters_build(fields)


@pytest.mark.parametrize("defaulted", [False, True])
def test_parse_gate_checks_every_entry(defaulted):
    # One entry of the worked example at a time, at each position, replaced by a value the one step must not take.
    for bad in (1, True, "0.5", None, math.nan, math.inf, -math.inf, 1e308, [0.5], (0.5,)):
        for path in [(0, 0), (0, 1), (1, 0), (1, 1)] + [(i, j, k) for i in (2, 3) for j in (0, 1) for k in (0, 1)]:
            fields = [[0.5, 0.5], [0.9, 0.1], [[0.9, 0.1], [0.1, 0.9]], None if defaulted else [[0.9, 0.1], [0.1, 0.9]]]
            if fields[path[0]] is None:
                continue
            parent = fields
            for i in path[:-1]:
                parent = parent[i]
            parent[path[-1]] = bad
            _assert_gate_builds_what_the_converters_build(fields)


_LO, _HI = POSITIVITY_MARGIN, 1.0 - POSITIVITY_MARGIN
# The positivity margins and their neighbours one ulp either side, and a middle value.
_EDGE_ENTRIES = [y for x in (_LO, _HI) for y in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0))] + [0.5]


def _edge_context(x, y, p, q, moves, explicit):
    """The valid context of marginals (x, 1 - x), (y, 1 - y) and matrices [[p, 1 - p], [1 - p, p]] (the a|b one
    with q, explicit or defaulted) after each move (i, kind, value) of its entry i.

    The 12 entries are p_a, p_b, P_b_given_a and P_a_given_b, row-major: entry i's row partner is i ^ 1, a matrix
    entry's column partner i ^ 2.  A "margin" move sets the entry to value.  A "row" or "column" move with
    value (target, steps) puts the entry where its sum with that partner is target, then steps ulps off; a column
    move keeps the row's sum at 1.
    """
    v = [x, 1.0 - x, y, 1.0 - y, p, 1.0 - p, 1.0 - p, p, q, 1.0 - q, 1.0 - q, q]
    for i, kind, value in moves:
        if kind == "margin":
            v[i] = value
            continue
        target, steps = value
        partner = i ^ 2 if kind == "column" and i >= 4 else i ^ 1
        e = target - v[partner]
        for _ in range(abs(steps)):
            e = math.nextafter(e, math.copysign(math.inf, steps))
        v[i] = e
        if partner != i ^ 1:
            v[i ^ 1] = 1.0 - e
    N = ((v[8], v[9]), (v[10], v[11])) if explicit else None
    return ProbContext((v[0], v[1]), (v[2], v[3]), ((v[4], v[5]), (v[6], v[7])), N)


def _edge_moves(tol):
    """Every move of one entry: to each of _EDGE_ENTRIES, and to a row or column sum of 1 +- tol, +-2 ulps."""
    sums = [(1.0 + sign * tol, steps) for sign in (-1, 1) for steps in range(-2, 3)]
    return [("margin", x) for x in _EDGE_ENTRIES] + [(kind, s) for kind in ("row", "column") for s in sums]


@st.composite
def _edge_contexts(draw):
    """A valid context with up to two entries moved to validation's edges (see _edge_context), and its tolerance."""
    # A dyadic tol puts a line sum exactly at 1 - tol: 1 - tol is a float, and so is the sum's distance from 1.
    tol = draw(st.sampled_from([TOLERANCE, 1e-6, 1e-12, 2.0**-30, 2.0**-10]) | st.floats(1e-15, 0.1))
    inside = st.sampled_from([_LO, math.nextafter(_LO, 1.0), math.nextafter(_HI, 0.0), _HI, 0.5]) | st.floats(_LO, _HI)
    moves = st.tuples(st.integers(0, 11), st.sampled_from(_edge_moves(tol))).map(lambda m: (m[0], *m[1]))
    numbers = [draw(inside) for _ in range(4)]
    return _edge_context(*numbers, draw(st.lists(moves, max_size=2)), draw(st.booleans())), tol


def _assert_valid_exactly_when_the_per_field_checks_find_nothing(ctx, tol):
    """validate_context returns the per-field checks' list, text and order, and calls them exactly when they find
    something."""
    worded = _violations(ctx, tol)
    with mock.patch.object(qlra.context, "_violations", wraps=_violations) as per_field:
        assert validate_context(ctx, tol) == worded, (ctx, tol)
    assert per_field.called == bool(worded), (ctx, tol)


@settings(max_examples=600, deadline=None)
@given(_edge_contexts())
@example((ProbContext((0.5, 0.5), (0.9, 0.1), ((0.9, 0.1), (0.1, 0.9))), TOLERANCE))
@example((ProbContext((_LO, _HI), (_HI, _LO), ((_LO, _HI), (_HI, _LO)), ((_HI, _LO), (_LO, _HI))), 1e-12))
@example((ProbContext((math.nextafter(_LO, 0.0), _HI), (0.5, 0.5), ((0.5, 0.5), (0.5, 0.5))), 1e-12))
def test_validation_is_valid_exactly_when_the_per_field_checks_find_nothing(case):
    # validate_context decides "valid" in one expression; the per-field checks, _violations, run only to word
    # the violations.
    _assert_valid_exactly_when_the_per_field_checks_find_nothing(*case)


@pytest.mark.parametrize("tol", [TOLERANCE, 2.0**-30])
@pytest.mark.parametrize("explicit", [True, False])
def test_validation_edges_one_entry_at_a_time(tol, explicit):
    # Each entry of a context at a margin, 0.5 or the other margin in turn, moved to each edge.
    for number in (_LO, 0.5, _HI):
        for i in range(12 if explicit else 8):
            for move in _edge_moves(tol):
                ctx = _edge_context(number, number, number, number, [(i, *move)], explicit)
                _assert_valid_exactly_when_the_per_field_checks_find_nothing(ctx, tol)
