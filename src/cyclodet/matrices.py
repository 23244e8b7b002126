"""Constructors for the Legendre-symbol and cyclotomic matrix families.

Size conventions for an odd prime p with m = (p-1)/2:

* C, S, SD are m x m, indexed by j, k = 1..m;
* D, DD (the twisted D), Dtilde, E, F, T are (m+1) x (m+1), indexed from 0.

A matrix is one read-only integer array, `coeffs`: the entries, shape (n, n),
or their power-basis coefficients over Z[zeta_p], shape (n, n, p-1).  Each
`build_*` fills it in numpy from its exponent pattern, and every determinant
backend reads it.  `ExactMatrix` applies the one dtype rule to whatever it is
given: int64 while every entry is below AUX_PRIME_FLOOR in absolute value,
Python ints (dtype object) otherwise.  The int64 headroom of `detkit` rests on
this rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycring import CycElt, lincomb
from .modarith import AUX_PRIME_FLOOR, legendre, require_odd_prime
from .subfield import gauss_sum


@dataclass(frozen=True)
class MatrixMeta:
    p: int
    family: str
    delta: int | None = None


class ExactMatrix:
    """A square matrix over Z or Z[zeta_p], held as one read-only integer array."""

    __slots__ = ("coeffs", "meta")

    def __init__(self, coeffs: np.ndarray | list, meta: MatrixMeta) -> None:
        """`coeffs`: a numpy integer array, an object array of ints, or nested lists of
        ints.  An int64 array whose entries are all below AUX_PRIME_FLOOR in absolute
        value is kept as it is, not copied; any other becomes int64 when its entries
        are, and Python ints (dtype object) when they are not.  Float, complex and
        bool arrays, and entries that are not ints, raise TypeError."""
        if not isinstance(coeffs, np.ndarray):
            coeffs = np.array(coeffs, dtype=object)  # no float or uint64 guessed from ints
        n = len(coeffs)
        if coeffs.shape not in ((n, n), (n, n, meta.p - 1)):
            raise ValueError(f"shape {coeffs.shape}, not (n, n) or (n, n, {meta.p - 1})")
        if coeffs.dtype.kind not in "iuO":
            raise TypeError(f"integer entries required, got dtype {coeffs.dtype}")
        lo, hi = -AUX_PRIME_FLOOR, AUX_PRIME_FLOOR
        if coeffs.dtype != np.int64 or not lo < coeffs.min(initial=0) <= coeffs.max(initial=0) < hi:
            ints = coeffs.ravel().tolist()  # Python ints from any integer dtype
            if not all(isinstance(x, int) for x in ints):
                raise TypeError("integer entries required")
            small = lo < min(ints, default=0) and max(ints, default=0) < hi
            coeffs = np.array(ints, dtype=np.int64 if small else object).reshape(coeffs.shape)
        coeffs.flags.writeable = False
        self.coeffs, self.meta = coeffs, meta

    @property
    def kind(self) -> str:
        """The entry kind, read off the array's rank: "int" for (n, n), "cyc" for (n, n, p-1)."""
        return "int" if self.coeffs.ndim == 2 else "cyc"

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __repr__(self):
        return f"ExactMatrix({self.meta.family}, p={self.meta.p}, n={self.n})"


def _require_nonresidue(p: int, delta: int) -> None:
    if legendre(delta, p) != -1:
        raise ValueError(f"delta={delta} is not a quadratic non-residue mod {p}")


def _legendre_coeffs(p: int, delta: int, start: int) -> np.ndarray:
    """Legendre symbols ((j^2 + delta*k^2)/p) for start <= j, k <= m: one table lookup."""
    chi = np.full(p, -1, dtype=np.int64)
    chi[np.arange(p) ** 2 % p] = 1
    chi[0] = 0
    sq = np.arange(start, (p + 1) // 2) ** 2 % p
    return chi[(sq[:, None] + delta % p * sq) % p]


def _with_corner(p: int, delta: int, corner: CycElt) -> np.ndarray:
    """The Legendre symbols from index 0 as rational elements, with `corner` at (0, 0)."""
    out = _legendre_coeffs(p, delta, 0)[..., None] * np.eye(1, p - 1, dtype=np.int64)
    out[0, 0] = corner.coeffs
    return out


def _zeta_coeffs(p: int, delta: int) -> np.ndarray:
    """Entries zeta^(delta j^2 k^2) for 0 <= j, k <= m: a one-hot at the exponent e,
    or -1 in every coefficient for e = p-1 (zeta^(p-1) = -1 - zeta - ... - zeta^(p-2))."""
    sq = np.arange((p + 1) // 2) ** 2 % p
    e = delta % p * np.outer(sq, sq) % p
    out = (e[..., None] == np.arange(p - 1)).astype(np.int64)
    out[e == p - 1] = -1
    return out


def _geometric_sums(p: int, e, n) -> np.ndarray:
    """Entry (a, b) the sum 1 + zeta^e_a + ... + zeta^(e_a (n_b - 1)), each e_a nonzero mod p.
    As a full cycle of p powers sums to 0, zeta^t is a term iff t / e_a mod p < n_b mod p."""
    inv = np.array([pow(int(x), -1, p) for x in e], dtype=np.int64)
    raw = (np.outer(inv, np.arange(p)) % p)[:, None] < (np.asarray(n) % p)[:, None]
    out = raw[..., :-1].astype(np.int64)
    out -= raw[..., -1:]  # remove zeta^(p-1)
    return out


def build_C(p: int) -> ExactMatrix:
    """Entries (1 - zeta^(j^2 k^2)) / (1 - zeta^(j^2)), built as geometric sums."""
    require_odd_prime(p)
    sq = np.arange(1, (p + 1) // 2) ** 2 % p
    return ExactMatrix(_geometric_sums(p, sq, sq), MatrixMeta(p, "C"))


def build_D(p: int) -> ExactMatrix:
    """Entries zeta^(j^2 k^2) for 0 <= j, k <= m."""
    require_odd_prime(p)
    return ExactMatrix(_zeta_coeffs(p, 1), MatrixMeta(p, "D"))


def build_D_delta(p: int, delta: int) -> ExactMatrix:
    """Entries zeta^(delta j^2 k^2), delta a quadratic non-residue."""
    require_odd_prime(p)
    _require_nonresidue(p, delta)
    return ExactMatrix(_zeta_coeffs(p, delta), MatrixMeta(p, "DD", delta))


def build_D_tilde(p: int) -> ExactMatrix:
    """Column 0 all ones, other entries 2*zeta^(j^2 k^2)."""
    require_odd_prime(p)
    coeffs = _zeta_coeffs(p, 1)
    coeffs[:, 1:] *= 2  # column 0 is zeta^0 = 1 already
    return ExactMatrix(coeffs, MatrixMeta(p, "Dtilde"))


def build_E(p: int) -> ExactMatrix:
    """Corner -g, all other entries the Legendre symbol ((j^2+k^2)/p)."""
    require_odd_prime(p)
    if p % 4 != 3:
        raise ValueError(f"E requires p = 3 mod 4, got {p}")
    return ExactMatrix(_with_corner(p, 1, -gauss_sum(p)), MatrixMeta(p, "E"))


def build_F(p: int, delta: int) -> ExactMatrix:
    """Corner g, all other entries the Legendre symbol ((j^2+delta*k^2)/p)."""
    require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"F requires p = 1 mod 4, got {p}")
    _require_nonresidue(p, delta)
    return ExactMatrix(_with_corner(p, delta, gauss_sum(p)), MatrixMeta(p, "F", delta))


def build_S(p: int) -> ExactMatrix:
    """Legendre symbols ((j^2+k^2)/p) for 1 <= j, k <= m."""
    require_odd_prime(p)
    return ExactMatrix(_legendre_coeffs(p, 1, 1), MatrixMeta(p, "S"))


def build_T(p: int, delta: int) -> ExactMatrix:
    """Legendre symbols ((j^2+delta*k^2)/p) for 0 <= j, k <= m."""
    require_odd_prime(p)
    _require_nonresidue(p, delta)
    return ExactMatrix(_legendre_coeffs(p, delta, 0), MatrixMeta(p, "T", delta))


def build_S_delta(p: int, delta: int) -> ExactMatrix:
    """Legendre symbols ((j^2+delta*k^2)/p) for 1 <= j, k <= m."""
    require_odd_prime(p)
    _require_nonresidue(p, delta)
    return ExactMatrix(_legendre_coeffs(p, delta, 1), MatrixMeta(p, "SD", delta))


def build(family: str, p: int, *delta: int) -> ExactMatrix:
    """The matrix of `family` (its MatrixMeta name) for p, and delta for T, SD,
    DD and F.  The builder is looked up at each call, so that a rebinding of
    it (a tracer or a test wrapping it) is seen."""
    name = {"Dtilde": "D_tilde", "DD": "D_delta", "SD": "S_delta"}.get(family, family)
    return globals()[f"build_{name}"](p, *delta)


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product; used by the identity checks and tests.  A
    cyclotomic product is one linear combination (`cycring.lincomb`) of b's
    rows, weighted by the rows of a, on the two coefficient arrays."""
    if a.n != b.n or a.kind != b.kind or (a.kind == "cyc" and a.meta.p != b.meta.p):
        raise ValueError("incompatible matrices")
    if a.kind == "int":
        prod = a.coeffs.astype(object) @ b.coeffs
    else:
        prod = lincomb(a.meta.p, a.coeffs, b.coeffs)
    meta = MatrixMeta(a.meta.p, f"{a.meta.family}*{b.meta.family}", a.meta.delta or b.meta.delta)
    return ExactMatrix(prod, meta)
