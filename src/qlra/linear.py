"""Two-dimensional module over the hyperbolic algebra.

Vectors with split-complex entries, the indefinite conjugate-symmetric
inner product (linear in the first argument), and the action of a 2x2
matrix, given as a row-major tuple of entries, on a vector.  Dimension
is fixed at 2: the dichotomous setting needs nothing larger.  The squared
norm of v is inner_product(v, v).re.  Like qlra.algebra, this module is
object layer, which the float core never imports.
"""

from __future__ import annotations

from .algebra import HNumber, _hn, _read_only

__all__ = [
    "HVector2",
    "inner_product",
    "mat_apply",
]


def _as_h(x) -> HNumber:
    return x if isinstance(x, HNumber) else HNumber(float(x))


class HVector2:
    """A vector (c1, c2) over the algebra; the constructor turns real entries into HNumbers."""

    __slots__ = ("c1", "c2")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, c1, c2):
        _set_c1(self, _as_h(c1))
        _set_c2(self, _as_h(c2))

    def __repr__(self) -> str:
        return f"HVector2(c1={self.c1!r}, c2={self.c2!r})"

    def __eq__(self, other):
        if other.__class__ is not HVector2:
            return NotImplemented
        return self.c1 == other.c1 and self.c2 == other.c2

    def __hash__(self) -> int:
        return hash((self.c1, self.c2))

    def __reduce__(self):
        return _vec, (self.c1, self.c2)

    def __add__(self, other: "HVector2") -> "HVector2":
        return _vec(self.c1 + other.c1, self.c2 + other.c2)

    def scale(self, c) -> "HVector2":
        c = _as_h(c)
        return _vec(c * self.c1, c * self.c2)

    def components(self) -> tuple[HNumber, HNumber]:
        return (self.c1, self.c2)


_set_c1 = HVector2.c1.__set__
_set_c2 = HVector2.c2.__set__


def _vec(c1: HNumber, c2: HNumber) -> HVector2:
    """The HVector2 (c1, c2) of two HNumbers, taken as they are."""
    v = object.__new__(HVector2)
    _set_c1(v, c1)
    _set_c2(v, c2)
    return v


def inner_product(u: HVector2, v: HVector2) -> HNumber:
    """<u, v> = u1*conj(v1) + u2*conj(v2).

    Conjugate-symmetric and linear in the first argument; indefinite, so
    null vectors exist.
    """
    # conj swaps the null-cone coordinates; products are componentwise.
    a1, a2, b1, b2 = u.c1, u.c2, v.c1, v.c2
    return _hn(a1.u * b1.v + a2.u * b2.v, a1.v * b1.u + a2.v * b2.u)


def mat_apply(M: tuple[tuple[HNumber, HNumber], tuple[HNumber, HNumber]], v: HVector2) -> HVector2:
    """M v for the row-major matrix M = ((m00, m01), (m10, m11))."""
    (m00, m01), (m10, m11) = M
    x1, x2 = v.c1, v.c2
    return _vec(
        _hn(m00.u * x1.u + m01.u * x2.u, m00.v * x1.v + m01.v * x2.v),
        _hn(m10.u * x1.u + m11.u * x2.u, m10.v * x1.v + m11.v * x2.v),
    )
