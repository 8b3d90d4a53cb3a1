import math

import pytest
from hypothesis import given, strategies as st

from qlra import HNumber, J, ONE, ArgDomainError, ZeroDivisorError, exp_j, h_arg
from qlra.algebra import h_close

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
hnums = st.builds(HNumber, finite, finite)


def test_add_examples():
    assert HNumber(1, 2) + HNumber(3, -1) == HNumber(4, 1)
    z = HNumber(2.5, -0.25)
    assert z + HNumber(0) == z
    assert HNumber(1, 1) + HNumber(1, -1) == HNumber(2, 0)


def test_mul_j_squared():
    assert J * J == ONE


def test_mul_zero_divisor():
    assert (HNumber(1, 1) * HNumber(1, -1)) == HNumber(0, 0)


def test_mul_derived():
    # (2+j)(3+2j): expand term by term with j^2 = 1.
    expected = HNumber(2 * 3 + 1 * 2, 2 * 2 + 1 * 3)
    assert HNumber(2, 1) * HNumber(3, 2) == expected == HNumber(8, 7)


def test_scalar_coercion():
    assert 2 * HNumber(1, 3) == HNumber(2, 6)
    assert HNumber(1, 3) - 1 == HNumber(0, 3)
    assert 1 - HNumber(1, 3) == HNumber(0, -3)


def test_conj():
    assert HNumber(3, 2).conj() == HNumber(3, -2)
    assert HNumber(5).conj() == HNumber(5)
    z = HNumber(-1.5, 0.25)
    assert z.conj().conj() == z


def test_sq_modulus():
    assert HNumber(1, 1).sq_modulus() == 0.0
    assert HNumber(3, 2).sq_modulus() == pytest.approx(5.0)
    for theta in (-3.0, 0.0, 0.7, 5.0):
        assert exp_j(theta).sq_modulus() == pytest.approx(1.0, abs=1e-11)
    # Large phases: cosh^2 - sinh^2 cancels catastrophically, so the
    # achievable accuracy degrades with ulp(cosh(theta)^2).
    assert exp_j(15.0).sq_modulus() == pytest.approx(1.0, abs=1e-3)


def test_exp_j_values():
    assert exp_j(0.0) == ONE
    theta = math.acosh(4 / 3)
    z = exp_j(theta)
    assert z.re == pytest.approx(4 / 3)
    assert z.hy == pytest.approx(math.sqrt(7) / 3)
    assert h_close(exp_j(0.3) * exp_j(-0.3), ONE)


def test_exp_j_overflow():
    with pytest.raises(OverflowError):
        exp_j(1e4)


def test_arg_examples():
    assert h_arg(ONE) == 0.0
    assert h_arg(exp_j(0.7)) == pytest.approx(0.7, abs=1e-12)
    # Negative branch of the positive cone: arg(-e^{j g}) = g.
    g = math.acosh(4 / 3)
    z = HNumber(-4 / 3, -math.sqrt(7) / 3)
    assert h_arg(z) == pytest.approx(g, abs=1e-12)


def test_arg_domain_errors():
    for z in (HNumber(1, 1), HNumber(0, 0), HNumber(1, 2), HNumber(0, 3)):
        with pytest.raises(ArgDomainError):
            h_arg(z)


def test_inv():
    assert HNumber(2).inv() == HNumber(0.5)
    assert h_close(exp_j(0.9).inv(), exp_j(-0.9))
    with pytest.raises(ZeroDivisorError):
        HNumber(1, 1).inv()


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        HNumber(float("nan"), 0.0)
    with pytest.raises(ValueError):
        HNumber(0.0, float("inf"))


@given(hnums, hnums)
def test_modulus_multiplicative(z, w):
    lhs = (z * w).sq_modulus()
    rhs = z.sq_modulus() * w.sq_modulus()
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-6)


def _size(z: HNumber) -> float:
    return abs(z.re) + abs(z.hy)


# Float error model: a rounded product or sum is off by at most 2**-53 of
# its size, plus 2**-1075 where a product underflows into the subnormals.
# The bounds below sum these errors over both sides of each law, with
# sizes bounded by _size, and keep a safety factor of 8 (over 200k uniform
# random triples with components up to 1e6 the worst error was 1.7 times
# the relative part).
_EPS = 2.0**-52
_TINY = 2.0**-1074


@given(hnums, hnums, hnums)
def test_ring_laws(a, b, c):
    na, nb, nc = _size(a), _size(b), _size(c)
    assert h_close(a * b, b * a, rel=1e-12, abs_=1e-9)
    assoc = 8 * (_EPS * na * nb * nc + _TINY * (1 + na + nb + nc))
    assert h_close((a * b) * c, a * (b * c), rel=1e-12, abs_=assoc)
    distrib = 8 * (_EPS * na * (nb + nc) + _TINY)
    assert h_close(a * (b + c), a * b + a * c, rel=1e-12, abs_=distrib)


@given(hnums, hnums)
def test_conj_ring_homomorphism(z, w):
    assert h_close((z * w).conj(), z.conj() * w.conj(), rel=1e-12, abs_=1e-6)
    assert (z + w).conj() == z.conj() + w.conj()


@given(st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_arg_left_inverse_of_exp(theta):
    # Beyond |theta| ~ 8.3 the difference cosh - sinh = e^{-theta} drops
    # below the ulp of cosh(theta), so a float component pair cannot
    # represent the phase recoverably; within that range the round trip
    # is tight.
    assert h_arg(exp_j(theta)) == pytest.approx(theta, abs=1e-9)


@given(st.floats(min_value=8, max_value=16, allow_nan=False))
def test_arg_roundtrip_degrades_gracefully(theta):
    # Error stays bounded by the conditioning of cosh - sinh.
    cond = 2e-16 * math.cosh(theta) * math.exp(theta)
    assert abs(h_arg(exp_j(theta)) - theta) <= max(1e-9, 4 * cond)


@given(st.floats(min_value=-20, max_value=20, allow_nan=False))
def test_cosh_sinh_identities(theta):
    # cosh t = (e^{jt} + e^{-jt}) / 2 and j sinh t = (e^{jt} - e^{-jt}) / 2.
    plus, minus = exp_j(theta), exp_j(-theta)
    half_sum = 0.5 * (plus + minus)
    half_diff = 0.5 * (plus - minus)
    assert h_close(half_sum, HNumber(math.cosh(theta)), rel=1e-12, abs_=1e-12)
    assert h_close(half_diff, HNumber(0.0, math.sinh(theta)), rel=1e-12, abs_=1e-12)
