import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qlra import (
    Direction,
    InfeasibleContextError,
    ProbContext,
    Regime,
    RegimeError,
    interference_coefficients,
    validate_context,
)
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
