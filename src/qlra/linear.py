"""Two-dimensional module over the hyperbolic algebra.

Vectors with split-complex entries, the indefinite conjugate-symmetric
inner product (linear in the first argument), and the action of a 2x2
matrix, given as a row-major tuple of entries, on a vector.  Dimension
is fixed at 2: the dichotomous setting needs nothing larger.  The squared
norm of v is inner_product(v, v).re.  Like qlra.algebra, this module is
object layer, which the float core never imports: inner_product and
mat_apply are written with HNumber's operators, not tuned for speed.
"""

from __future__ import annotations

from .algebra import HNumber, _read_only

__all__ = [
    "HVector2",
    "inner_product",
    "mat_apply",
]


def _as_h(x) -> HNumber:
    """x as an HNumber, a real (int, float or bool) by HNumber(float(x)); else TypeError, as HNumber's operators."""
    if not isinstance(x, (HNumber, int, float)):
        raise TypeError(f"an HVector2 entry or scale factor must be an HNumber or a real number, got {x!r}")
    return x if isinstance(x, HNumber) else HNumber(float(x))


class HVector2:
    """A vector (c1, c2) over the algebra; the constructor turns real entries into HNumbers and keeps HNumbers."""

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
        return HVector2, (self.c1, self.c2)

    def __add__(self, other: "HVector2") -> "HVector2":
        return HVector2(self.c1 + other.c1, self.c2 + other.c2)

    def scale(self, c) -> "HVector2":
        c = _as_h(c)
        return HVector2(c * self.c1, c * self.c2)

    def components(self) -> tuple[HNumber, HNumber]:
        return (self.c1, self.c2)


_set_c1 = HVector2.c1.__set__
_set_c2 = HVector2.c2.__set__


def inner_product(u: HVector2, v: HVector2) -> HNumber:
    """<u, v> = u1*conj(v1) + u2*conj(v2).

    Conjugate-symmetric and linear in the first argument; indefinite, so
    null vectors exist.
    """
    return u.c1 * v.c1.conj() + u.c2 * v.c2.conj()


def mat_apply(M: tuple[tuple[HNumber, HNumber], tuple[HNumber, HNumber]], v: HVector2) -> HVector2:
    """M v for the row-major matrix M = ((m00, m01), (m10, m11))."""
    (m00, m01), (m10, m11) = M
    return HVector2(m00 * v.c1 + m01 * v.c2, m10 * v.c1 + m11 * v.c2)
