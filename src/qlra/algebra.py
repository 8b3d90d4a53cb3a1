"""Arithmetic in the two-dimensional hyperbolic (split-complex) algebra.

Elements have the form z = x + j*y with j**2 = 1.  They are stored in
null-cone coordinates u = x + y, v = x - y (the idempotent basis
(1 +- j)/2), where the algebra is R (+) R: +, - and * are one
componentwise rule, conjugation swaps u and v, and |z|^2 = u*v is one
product, with no cancelling x^2 - y^2.  The algebra is commutative but
has zero divisors on the null cone u*v = 0, where the argument is
undefined.  This is the object layer over the float core, which never
imports it, so it is not tuned for speed: h_arg is the core's float
argument engine._arg, which holds the domain check.
"""

from __future__ import annotations

import math
import operator

from .engine import _arg

__all__ = [
    "HNumber",
    "exp_j",
    "h_arg",
]


def _read_only(self, name, *value):
    """__setattr__ and __delattr__ of an immutable slots class."""
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def _componentwise(op):
    """The HNumber operator doing the float operation op on each null-cone coordinate; it coerces a real operand."""

    def method(self, other):
        if other.__class__ is not HNumber:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _hn(op(self.u, other.u), op(self.v, other.v))

    return method


class HNumber:
    """A split-complex number re + j*hy, with j**2 = 1.

    Stored as u = re + hy, v = re - hy; ``re`` and ``hy`` are derived
    from them, so HNumber(re, hy).hy can differ from hy by rounding when
    |re| >> |hy|.  Every construction rejects non-finite coordinates.
    """

    __slots__ = ("u", "v")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, re: float, hy: float = 0.0):
        re, hy = float(re), float(hy)
        u, v = re + hy, re - hy
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValueError(f"non-finite components: {re!r}, {hy!r}")
        _set_u(self, u)
        _set_v(self, v)

    @property
    def re(self) -> float:
        return 0.5 * self.u + 0.5 * self.v

    @property
    def hy(self) -> float:
        return 0.5 * self.u - 0.5 * self.v

    def __repr__(self) -> str:
        return f"HNumber(re={self.re!r}, hy={self.hy!r})"

    def __eq__(self, other):
        if other.__class__ is not HNumber:
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __reduce__(self):
        return _hn, (self.u, self.v)

    __add__ = __radd__ = _componentwise(operator.add)
    __sub__ = _componentwise(operator.sub)
    __rsub__ = _componentwise(lambda a, b: b - a)
    __mul__ = __rmul__ = _componentwise(operator.mul)

    def __neg__(self):
        return _hn(-self.u, -self.v)

    def conj(self) -> "HNumber":
        """Hyperbolic conjugate x - j*y: swaps u and v."""
        return _hn(self.v, self.u)

    def sq_modulus(self) -> float:
        """z * conj(z) = u*v = x^2 - y^2.  May be negative or zero."""
        return self.u * self.v


_new = object.__new__
_set_u = HNumber.u.__set__
_set_v = HNumber.v.__set__


def _hn(u: float, v: float) -> HNumber:
    """The HNumber with null-cone coordinates (u, v); ValueError unless both are finite."""
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"non-finite null-cone coordinates: {u!r}, {v!r}")
    z = _new(HNumber)
    _set_u(z, u)
    _set_v(z, v)
    return z


def _coerce(x):
    """A real scalar as an HNumber; NotImplemented for anything else."""
    if isinstance(x, (int, float)):
        x = float(x)
        return _hn(x, x)
    return NotImplemented


def exp_j(theta: float) -> HNumber:
    """Hyperbolic exponential e^{j*theta} = cosh(theta) + j*sinh(theta) = (e^theta, e^-theta).

    The result has squared modulus 1 (a point on the unit hyperbola).
    OverflowError propagates when |theta| exceeds the range of exp.
    """
    return _hn(math.exp(theta), math.exp(-theta))


def h_arg(z: HNumber) -> float:
    """Argument of z on the positive cone: arctanh(y/x) = 0.5*ln(u/v).

    Defined for u and v nonzero and of one sign, on both branches x > 0
    and x < 0, and ArgDomainError elsewhere; satisfies
    z = sign(x) * sqrt(|z|^2) * exp_j(h_arg(z)).
    """
    return _arg(z.u, z.v)
