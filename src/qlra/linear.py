"""Two-dimensional module over the hyperbolic algebra.

Vectors and 2x2 matrices with split-complex entries, the indefinite
conjugate-symmetric inner product (linear in the first argument), and a
hyperbolic-unitarity test.  Dimension is fixed at 2: the dichotomous
setting needs nothing larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import HNumber

__all__ = [
    "HVector2",
    "HMatrix2",
    "inner_product",
    "sq_norm",
    "mat_apply",
    "mat_mul",
    "mat_adjoint",
    "identity",
    "is_h_unitary",
]


def _as_h(x) -> HNumber:
    return x if isinstance(x, HNumber) else HNumber(float(x))


@dataclass(frozen=True)
class HVector2:
    c1: HNumber
    c2: HNumber

    def __post_init__(self):
        object.__setattr__(self, "c1", _as_h(self.c1))
        object.__setattr__(self, "c2", _as_h(self.c2))

    def __add__(self, other: "HVector2") -> "HVector2":
        return HVector2(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "HVector2") -> "HVector2":
        return HVector2(self.c1 - other.c1, self.c2 - other.c2)

    def scale(self, c) -> "HVector2":
        c = _as_h(c)
        return HVector2(c * self.c1, c * self.c2)

    def components(self) -> tuple[HNumber, HNumber]:
        return (self.c1, self.c2)


@dataclass(frozen=True)
class HMatrix2:
    """Row-major 2x2 matrix; rows index the output basis, columns the input."""

    entries: tuple[tuple[HNumber, HNumber], tuple[HNumber, HNumber]]

    def __post_init__(self):
        rows = tuple(tuple(_as_h(e) for e in row) for row in self.entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("HMatrix2 requires a 2x2 grid of entries")
        object.__setattr__(self, "entries", rows)

    def __getitem__(self, idx: int) -> tuple[HNumber, HNumber]:
        return self.entries[idx]


def inner_product(u: HVector2, v: HVector2) -> HNumber:
    """<u, v> = u1*conj(v1) + u2*conj(v2).

    Conjugate-symmetric and linear in the first argument; indefinite, so
    null vectors exist.
    """
    return u.c1 * v.c1.conj() + u.c2 * v.c2.conj()


def sq_norm(v: HVector2) -> float:
    """<v, v>, which is always real; may be negative or zero."""
    return inner_product(v, v).re


def mat_apply(M: HMatrix2, v: HVector2) -> HVector2:
    return HVector2(
        M[0][0] * v.c1 + M[0][1] * v.c2,
        M[1][0] * v.c1 + M[1][1] * v.c2,
    )


def mat_mul(A: HMatrix2, B: HMatrix2) -> HMatrix2:
    rows = tuple(
        tuple(
            A[i][0] * B[0][j] + A[i][1] * B[1][j]
            for j in range(2)
        )
        for i in range(2)
    )
    return HMatrix2(rows)


def mat_adjoint(M: HMatrix2) -> HMatrix2:
    """Transpose with entrywise hyperbolic conjugation."""
    return HMatrix2(
        (
            (M[0][0].conj(), M[1][0].conj()),
            (M[0][1].conj(), M[1][1].conj()),
        )
    )


def identity() -> HMatrix2:
    return HMatrix2(((HNumber(1.0), HNumber(0.0)), (HNumber(0.0), HNumber(1.0))))


def is_h_unitary(M: HMatrix2, tol: float = 1e-12) -> bool:
    """True iff M*adj(M) and adj(M)*M equal the identity entrywise within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    adj = mat_adjoint(M)
    for prod in (mat_mul(M, adj), mat_mul(adj, M)):
        for i in range(2):
            for j in range(2):
                want = 1.0 if i == j else 0.0
                e = prod[i][j]
                if not (
                    math.isclose(e.re, want, rel_tol=0.0, abs_tol=tol)
                    and math.isclose(e.hy, 0.0, rel_tol=0.0, abs_tol=tol)
                ):
                    return False
    return True
