import math

import pytest
from hypothesis import given, strategies as st

from qlra import (
    HMatrix2,
    HNumber,
    HVector2,
    exp_j,
    identity,
    inner_product,
    is_h_unitary,
    mat_adjoint,
    mat_apply,
    mat_mul,
    sq_norm,
)
from qlra.algebra import h_close

coord = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
hnums = st.builds(HNumber, coord, coord)
vectors = st.builds(HVector2, hnums, hnums)
matrices = st.builds(
    lambda a, b, c, d: HMatrix2(((a, b), (c, d))), hnums, hnums, hnums, hnums
)

E1 = HVector2(HNumber(1), HNumber(0))
E2 = HVector2(HNumber(0), HNumber(1))


def test_inner_product_examples():
    assert inner_product(E1, E2) == HNumber(0, 0)
    null = HVector2(HNumber(1, 1), HNumber(0))
    assert inner_product(null, null) == HNumber(0, 0)
    u = HVector2(exp_j(0.3), HNumber(0))
    assert h_close(inner_product(u, E1), exp_j(0.3))


def test_sq_norm_examples():
    assert sq_norm(E1) == 1.0
    r = math.sqrt(0.5)
    for theta in (0.0, 0.4, -2.0):
        v = HVector2(exp_j(theta) * HNumber(r), HNumber(r))
        assert sq_norm(v) == pytest.approx(1.0, abs=1e-12)
    assert sq_norm(HVector2(HNumber(1, 1), HNumber(0))) == 0.0


@given(vectors)
def test_self_inner_product_is_real(v):
    # Each j-part of <v, v> is x*(-y) + y*x, exactly 0.0 in IEEE arithmetic,
    # so sq_norm can return the real part alone.
    assert inner_product(v, v).hy == 0.0


def test_mat_apply():
    v = HVector2(HNumber(2, 1), HNumber(-1, 3))
    assert mat_apply(identity(), v) == v
    # Balanced doubly stochastic transition matrix: columns read off.
    r = math.sqrt(0.5)
    M = HMatrix2(((HNumber(r), HNumber(r)), (HNumber(r), HNumber(-r))))
    out = mat_apply(M, E1)
    assert out.c1.re == pytest.approx(r) and out.c2.re == pytest.approx(r)


def test_mat_adjoint():
    M = HMatrix2(((HNumber(1), HNumber(2)), (HNumber(2), HNumber(3))))
    assert mat_adjoint(M) == M
    N = HMatrix2(((HNumber(0), HNumber(0, 1)), (HNumber(0), HNumber(0))))
    assert mat_adjoint(N) == HMatrix2(
        ((HNumber(0), HNumber(0)), (HNumber(0, -1), HNumber(0)))
    )


@given(matrices)
def test_adjoint_involution(M):
    assert mat_adjoint(mat_adjoint(M)) == M


def test_is_h_unitary():
    assert is_h_unitary(identity())
    p = 0.8
    M = HMatrix2(
        (
            (HNumber(math.sqrt(p)), HNumber(math.sqrt(1 - p))),
            (HNumber(math.sqrt(1 - p)), HNumber(-math.sqrt(p))),
        )
    )
    assert is_h_unitary(M)
    shear = HMatrix2(((HNumber(1), HNumber(1)), (HNumber(0), HNumber(1))))
    assert not is_h_unitary(shear)
    with pytest.raises(ValueError):
        is_h_unitary(identity(), tol=0.0)


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


@given(matrices, vectors, vectors)
def test_adjoint_pairing(M, u, v):
    lhs = inner_product(mat_apply(M, u), v)
    rhs = inner_product(u, mat_apply(mat_adjoint(M), v))
    assert h_close(lhs, rhs, rel=1e-12, abs_=1e-6)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    vectors,
)
def test_unitary_preserves_sq_norm(p, theta, v):
    phase = exp_j(theta)
    M = HMatrix2(
        (
            (phase * HNumber(math.sqrt(p)), phase * HNumber(math.sqrt(1 - p))),
            (HNumber(math.sqrt(1 - p)), HNumber(-math.sqrt(p))),
        )
    )
    assert is_h_unitary(M, tol=1e-10)
    before = sq_norm(v)
    after = sq_norm(mat_apply(M, v))
    assert after == pytest.approx(before, rel=1e-10, abs=1e-7)


def test_nondegeneracy_axiom():
    # <x, y> = 0 against both basis vectors forces x = 0.
    x = HVector2(HNumber(0.3, 0.1), HNumber(-2, 1))
    assert inner_product(x, E1) != HNumber(0, 0) or inner_product(x, E2) != HNumber(0, 0)
    zero = HVector2(HNumber(0), HNumber(0))
    assert inner_product(zero, E1) == HNumber(0, 0)
    assert inner_product(zero, E2) == HNumber(0, 0)
