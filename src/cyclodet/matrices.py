"""Constructors for the Legendre-symbol and cyclotomic matrix families.

Size conventions for an odd prime p with m = (p-1)/2:

* C, S, SD are m x m, indexed by j, k = 1..m;
* D, DD (the twisted D), Dtilde, E, F, T are (m+1) x (m+1), indexed from 0.

All constructors are pure and return immutable matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cycring import CycElt, geometric_quotient, lincomb
from .modarith import legendre, require_odd_prime
from .subfield import gauss_sum


@dataclass(frozen=True)
class MatrixMeta:
    p: int
    family: str
    delta: int | None = None


class ExactMatrix:
    """A square matrix with exact entries: Python ints or CycElts."""

    __slots__ = ("n", "kind", "rows", "meta")

    def __init__(self, kind: str, rows, meta: MatrixMeta) -> None:
        if kind not in ("int", "cyc"):
            raise ValueError(f"unknown matrix kind {kind!r}")
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        if kind == "cyc":
            for row in rows:
                for e in row:
                    if not isinstance(e, CycElt) or e.p != meta.p:
                        raise ValueError("cyclotomic entries must share the same p")
        self.n = n
        self.kind = kind
        self.rows = rows
        self.meta = meta

    def __repr__(self):
        return f"ExactMatrix({self.meta.family}, p={self.meta.p}, n={self.n})"


def _require_nonresidue(p: int, delta: int) -> None:
    if legendre(delta, p) != -1:
        raise ValueError(f"delta={delta} is not a quadratic non-residue mod {p}")


def _legendre_rows(p: int, delta: int, start: int) -> list[list[int]]:
    """Legendre symbols ((j^2 + delta*k^2)/p) for start <= j, k <= m."""
    idx = range(start, (p - 1) // 2 + 1)
    return [[legendre(j * j + delta * k * k, p) for k in idx] for j in idx]


def _with_corner(p: int, delta: int, corner: CycElt) -> list[list[CycElt]]:
    """The Legendre rows from index 0 as elements, with `corner` at (0, 0);
    the symbols -1, 0 and 1 share one immutable element each."""
    values = {s: CycElt.rational(p, s) for s in (-1, 0, 1)}
    rows = [[values[s] for s in row] for row in _legendre_rows(p, delta, 0)]
    rows[0][0] = corner
    return rows


def _zeta_rows(p: int, delta: int) -> list[list[CycElt]]:
    """Entries zeta^(delta j^2 k^2) for 0 <= j, k <= m."""
    idx = range((p - 1) // 2 + 1)
    return [[CycElt.zeta(p, delta * j * j * k * k) for k in idx] for j in idx]


def build_C(p: int) -> ExactMatrix:
    """Entries (1 - zeta^(j^2 k^2)) / (1 - zeta^(j^2)), built as geometric sums."""
    require_odd_prime(p)
    idx = range(1, (p - 1) // 2 + 1)
    rows = [[geometric_quotient(p, j * j, k * k) for k in idx] for j in idx]
    return ExactMatrix("cyc", rows, MatrixMeta(p, "C"))


def build_D(p: int) -> ExactMatrix:
    """Entries zeta^(j^2 k^2) for 0 <= j, k <= m."""
    require_odd_prime(p)
    return ExactMatrix("cyc", _zeta_rows(p, 1), MatrixMeta(p, "D"))


def build_D_delta(p: int, delta: int) -> ExactMatrix:
    """Entries zeta^(delta j^2 k^2), delta a quadratic non-residue."""
    require_odd_prime(p)
    _require_nonresidue(p, delta)
    return ExactMatrix("cyc", _zeta_rows(p, delta), MatrixMeta(p, "DD", delta))


def build_D_tilde(p: int) -> ExactMatrix:
    """Column 0 all ones, other entries 2*zeta^(j^2 k^2)."""
    require_odd_prime(p)
    one = CycElt.one(p)
    rows = [[one] + [2 * e for e in row[1:]] for row in _zeta_rows(p, 1)]
    return ExactMatrix("cyc", rows, MatrixMeta(p, "Dtilde"))


def build_E(p: int) -> ExactMatrix:
    """Corner -g, all other entries the Legendre symbol ((j^2+k^2)/p)."""
    require_odd_prime(p)
    if p % 4 != 3:
        raise ValueError(f"E requires p = 3 mod 4, got {p}")
    return ExactMatrix("cyc", _with_corner(p, 1, -gauss_sum(p)), MatrixMeta(p, "E"))


def build_F(p: int, delta: int) -> ExactMatrix:
    """Corner g, all other entries the Legendre symbol ((j^2+delta*k^2)/p)."""
    require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"F requires p = 1 mod 4, got {p}")
    _require_nonresidue(p, delta)
    return ExactMatrix("cyc", _with_corner(p, delta, gauss_sum(p)), MatrixMeta(p, "F", delta))


def build_S(p: int) -> ExactMatrix:
    """Legendre symbols ((j^2+k^2)/p) for 1 <= j, k <= m."""
    require_odd_prime(p)
    return ExactMatrix("int", _legendre_rows(p, 1, 1), MatrixMeta(p, "S"))


def build_T(p: int, delta: int) -> ExactMatrix:
    """Legendre symbols ((j^2+delta*k^2)/p) for 0 <= j, k <= m."""
    require_odd_prime(p)
    _require_nonresidue(p, delta)
    return ExactMatrix("int", _legendre_rows(p, delta, 0), MatrixMeta(p, "T", delta))


def build_S_delta(p: int, delta: int) -> ExactMatrix:
    """Legendre symbols ((j^2+delta*k^2)/p) for 1 <= j, k <= m."""
    require_odd_prime(p)
    _require_nonresidue(p, delta)
    return ExactMatrix("int", _legendre_rows(p, delta, 1), MatrixMeta(p, "SD", delta))


def build(family: str, p: int, *delta: int) -> ExactMatrix:
    """The matrix of `family` (its MatrixMeta name) for p, and delta for T, SD,
    DD and F.  The builder is looked up at each call, so that a rebinding of
    it (a tracer or a test wrapping it) is seen."""
    name = {"Dtilde": "D_tilde", "DD": "D_delta", "SD": "S_delta"}.get(family, family)
    return globals()[f"build_{name}"](p, *delta)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product; used by the identity checks and tests.  A
    cyclotomic product is one packed combination of b's rows per row of a."""
    if a.n != b.n or a.kind != b.kind or (a.kind == "cyc" and a.meta.p != b.meta.p):
        raise ValueError("incompatible matrices")
    if a.kind == "int":
        rows = [[sum(x * y for x, y in zip(arow, col)) for col in zip(*b.rows)] for arow in a.rows]
    else:
        p, den = a.meta.p, math.lcm(*(e.den for x in (a, b) for row in x.rows for e in row))
        nums = [[[e.num if e.den == den else [c * (den // e.den) for c in e.num] for e in row]
                 for row in x.rows] for x in (a, b)]
        rows = [[CycElt._new(p, c, den * den) for c in row] for row in lincomb(p, *nums)]
    meta = MatrixMeta(a.meta.p, f"{a.meta.family}*{b.meta.family}", a.meta.delta or b.meta.delta)
    return ExactMatrix(a.kind, rows, meta)
