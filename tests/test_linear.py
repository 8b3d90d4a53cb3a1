import math

import pytest
from hypothesis import given, strategies as st

from qlra.algebra import HNumber, exp_j
from qlra.linear import HVector2, inner_product, mat_apply
from test_algebra import h_close

coord = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
hnums = st.builds(HNumber, coord, coord)
vectors = st.builds(HVector2, hnums, hnums)

E1 = HVector2(HNumber(1), HNumber(0))
E2 = HVector2(HNumber(0), HNumber(1))


def columns_orthonormal(M, tol: float) -> bool:
    """<e_i, e_j> = delta_ij within tol, real and j parts, for the columns e_i of a row-major 2x2 M.

    For a square M over the commutative algebra this is the whole of
    hyperbolic unitarity: adj(M) M = I implies M adj(M) = I.
    """
    cols = [HVector2(M[0][k], M[1][k]) for k in range(2)]
    for i in range(2):
        for j in range(2):
            z = inner_product(cols[i], cols[j])
            if abs(z.re - (1.0 if i == j else 0.0)) > tol or abs(z.hy) > tol:
                return False
    return True


def test_inner_product_examples():
    assert inner_product(E1, E2) == HNumber(0, 0)
    null = HVector2(HNumber(1, 1), HNumber(0))
    assert inner_product(null, null) == HNumber(0, 0)
    u = HVector2(exp_j(0.3), HNumber(0))
    assert h_close(inner_product(u, E1), exp_j(0.3))
    # A product that overflows, or a sum of finite products, is rejected as non-finite.
    for u, v in ((HVector2(1e200, 0), HVector2(1e200, 0)), (HVector2(1e308, 1e308), HVector2(1, 1))):
        with pytest.raises(ValueError):
            inner_product(u, v)


def test_entries_and_scale_factors_follow_hnumber_coercion():
    # One rule with HNumber's operators: an HNumber, int, float or bool; a str is not a number, not even "2.5".
    v = HVector2(1, 2)
    for call in (lambda: HVector2("2.5", 0), lambda: HVector2(None, 0), lambda: v.scale("2.5"),
                 lambda: v.scale("x"), lambda: v.scale(1j)):
        with pytest.raises(TypeError):
            call()
    assert repr(HVector2(2, True)) == "HVector2(c1=HNumber(re=2.0, hy=0.0), c2=HNumber(re=1.0, hy=0.0))"
    # HNumber(-0.0) has u = +0.0, so re = (u + v)/2 of the products is +0.0, not -0.0.
    assert repr(v.scale(-0.0)) == "HVector2(c1=HNumber(re=0.0, hy=0.0), c2=HNumber(re=0.0, hy=0.0))"


def test_sq_norm_examples():
    assert inner_product(E1, E1).re == 1.0
    r = math.sqrt(0.5)
    for theta in (0.0, 0.4, -2.0):
        v = HVector2(exp_j(theta) * HNumber(r), HNumber(r))
        assert inner_product(v, v).re == pytest.approx(1.0, abs=1e-12)
    null = HVector2(HNumber(1, 1), HNumber(0))
    assert inner_product(null, null).re == 0.0


@given(vectors)
def test_self_inner_product_is_real(v):
    # Each j-part of <v, v> is x*(-y) + y*x, exactly 0.0 in IEEE arithmetic,
    # so the squared norm is the real part alone.
    assert inner_product(v, v).hy == 0.0


def test_mat_apply():
    v = HVector2(HNumber(2, 1), HNumber(-1, 3))
    identity = ((HNumber(1), HNumber(0)), (HNumber(0), HNumber(1)))
    assert mat_apply(identity, v) == v
    # Balanced doubly stochastic transition matrix: columns read off.
    r = math.sqrt(0.5)
    M = ((HNumber(r), HNumber(r)), (HNumber(r), HNumber(-r)))
    out = mat_apply(M, E1)
    assert out.c1.re == pytest.approx(r) and out.c2.re == pytest.approx(r)
    assert columns_orthonormal(M, tol=1e-12)
    # Row i of M applied to v: (j, 0; 0, 2) maps (x1, x2) to (j*x1, 2*x2).
    out = mat_apply(((HNumber(0, 1), HNumber(0)), (HNumber(0), HNumber(2))), v)
    assert out == HVector2(HNumber(0, 1) * v.c1, HNumber(2) * v.c2)
    shear = ((HNumber(1), HNumber(1)), (HNumber(0), HNumber(1)))
    assert not columns_orthonormal(shear, tol=1e-12)
    for m00, x in ((HNumber(1e200), 1e200), (HNumber(1), 1e308)):
        with pytest.raises(ValueError):
            mat_apply(((m00, HNumber(1)), (HNumber(0), HNumber(1))), HVector2(x, x))


@given(vectors, vectors)
def test_conjugate_symmetry(u, v):
    assert h_close(
        inner_product(u, v), inner_product(v, u).conj(), rel=1e-12, abs_=1e-9
    )


@given(hnums, hnums, vectors, vectors, vectors)
def test_first_argument_linearity(a, b, u, w, v):
    lhs = inner_product(u.scale(a) + w.scale(b), v)
    rhs = a * inner_product(u, v) + b * inner_product(w, v)
    assert h_close(lhs, rhs, rel=1e-12, abs_=1e-6)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    vectors,
)
def test_unitary_preserves_sq_norm(p, theta, v):
    phase = exp_j(theta)
    M = (
        (phase * HNumber(math.sqrt(p)), phase * HNumber(math.sqrt(1 - p))),
        (HNumber(math.sqrt(1 - p)), HNumber(-math.sqrt(p))),
    )
    assert columns_orthonormal(M, tol=1e-10)
    before = inner_product(v, v).re
    w = mat_apply(M, v)
    after = inner_product(w, w).re
    assert after == pytest.approx(before, rel=1e-10, abs=1e-7)


def test_nondegeneracy_axiom():
    # <x, y> = 0 against both basis vectors forces x = 0.
    x = HVector2(HNumber(0.3, 0.1), HNumber(-2, 1))
    assert inner_product(x, E1) != HNumber(0, 0) or inner_product(x, E2) != HNumber(0, 0)
    zero = HVector2(HNumber(0), HNumber(0))
    assert inner_product(zero, E1) == HNumber(0, 0)
    assert inner_product(zero, E2) == HNumber(0, 0)
