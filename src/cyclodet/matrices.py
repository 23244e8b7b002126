"""Constructors for the Legendre-symbol and cyclotomic matrix families.

Size conventions for an odd prime p with m = (p-1)/2:

* C, S, SD are m x m, indexed by j, k = 1..m;
* D, DD (the twisted D), Dtilde, E, F, T are (m+1) x (m+1), indexed from 0.

An integer family (S, T, SD) is one read-only (n, n) array of its entries.  A
cyclotomic family is held by its entry formula, an `EntryTable`: every entry is
c zeta^e for small integers c and e (D, DD and Dtilde; E and F with e = 0, but
for the Gauss-sum corner), or, for C = J - A under the row scaling
1/(1 - zeta^(j^2)), c (1 - zeta^e) / (1 - zeta^(j^2)).  Each `build_*` fills
the (n, n) exponent and multiplier tables in numpy from j^2 k^2 and the
Legendre symbols, and its power-basis coefficients, shape (n, n, p-1), are
filled from the table on the first read of `ExactMatrix.coeffs` (for Bareiss,
`matmul`, the dense path and the tests).  `ExactMatrix` applies the one dtype
rule to every array it holds: int64 while every entry is below AUX_PRIME_FLOOR
in absolute value, Python ints (dtype object) otherwise.  The int64 headroom of
`detkit` rests on this rule.  Each cyclotomic builder also attaches a
`Circulant` declaration of its matrix's structure, from the family's formula,
which `detkit` certifies on the table before it reads a determinant from the
declaration.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .cycring import CycElt, lincomb
from .modarith import AUX_PRIME_FLOOR, legendre, primitive_root, require_odd_prime
from .subfield import gauss_sum


@dataclass(frozen=True)
class MatrixMeta:
    p: int
    family: str
    delta: int | None = None


def _held(coeffs: np.ndarray) -> np.ndarray:
    """A read-only array of the entries under the one dtype rule: a numpy integer array
    or an object array of ints whose entries are all below AUX_PRIME_FLOOR in absolute
    value is int64 (a conforming int64 array is kept as it is, not copied), any other
    holds Python ints (dtype object).  Float, complex and bool arrays, and entries that
    are not ints, raise TypeError."""
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
    return coeffs


@dataclass(frozen=True, eq=False)
class Circulant:
    """The declared structure of a cyclotomic family: a Hankel or circulant block over the
    squares, with a border.

    Index the block by u = 0 .. m-1, m = (p-1)/2, where row and column j (1 <= j <= m) take
    the u with j^2 = g^(2u) mod p, g = primitive_root(p).  Block entry (u, v) is
    scale_u * first[(u + v) % m] when `hankel`, and scale_u * first[(v - u) % m] otherwise,
    with scale_u = 1/(1 - zeta^(j^2)) when `scaled` and 1 otherwise.  `border` is None for
    an m x m matrix, whose row and column j are its index j-1, or (corner, x) for the
    (m+1) x (m+1) matrix with `corner` at (0, 0), the integer x in the rest of row 0 and 1
    in the rest of column 0 (zeta^0 for D, DD and Dtilde, (j^2/p) for E and F), row and
    column j its index j.  `first` (shape (m, p-1)) and the corner (shape (p-1,)) are
    power-basis coefficients under the dtype rule of `ExactMatrix`; x is held as a Python
    int (`operator.index`), so an array or a float is refused."""

    first: np.ndarray
    hankel: bool
    border: tuple | None = None
    scaled: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "first", _held(np.asarray(self.first)))
        if self.border is not None:
            corner, x = self.border
            object.__setattr__(self, "border", (_held(np.asarray(corner)), operator.index(x)))


@dataclass(frozen=True, eq=False)
class EntryTable:
    """The entries of a cyclotomic matrix by their formula.  Entry (j, k) is
    mult[j, k] zeta^(exp[j, k]), or, with a row scaling `scale`,
    mult[j, k] (1 - zeta^(exp[j, k])) / (1 - zeta^(scale[j])), a geometric sum in Z[zeta_p].
    `corner`, when given, is the power-basis coefficients (p-1,) of the entry at (0, 0),
    which replace the tables' there.  `exp` (n, n) holds exponents in [0, p) and `scale` (n,)
    in [1, p), int64 (`ExactMatrix` checks both against p); `mult` and `corner` are held
    under the dtype rule of `ExactMatrix`."""

    exp: np.ndarray
    mult: np.ndarray
    scale: np.ndarray | None = None
    corner: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("exp", "mult", "scale", "corner"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _held(np.asarray(getattr(self, name))))

    def check(self, p: int) -> None:
        """Raise ValueError unless the tables fit an n x n matrix over Z[zeta_p]."""
        n = len(self.exp) if self.exp.ndim else -1
        ok = self.exp.shape == self.mult.shape == (n, n) and _within(self.exp, 0, p)
        if self.scale is not None:
            ok = ok and self.scale.shape == (n,) and _within(self.scale, 1, p)
        if self.corner is not None:
            ok = ok and n > 0 and self.corner.shape == (p - 1,)
        if not ok:
            raise ValueError(f"tables that fit no n x n matrix over Z[zeta_{p}]")


def _within(a: np.ndarray, lo: int, hi: int) -> bool:
    """Whether `a` is int64 with every entry in [lo, hi)."""
    return a.dtype == np.int64 and (a.size == 0 or lo <= a.min() and a.max() < hi)


def monomial_coeffs(p: int, mult: np.ndarray, exp: np.ndarray, scaled: bool = False) -> np.ndarray:
    """Power-basis coefficients of mult zeta^exp, or of mult (1 - zeta^exp) when `scaled`,
    entrywise, with one more axis of p-1."""
    out = _zeta_powers(p, exp)
    if scaled:
        out = _one(p) - out
    return out * mult[..., None]


def _filled(table: EntryTable, p: int) -> np.ndarray:
    """The (n, n, p-1) power-basis coefficients of a table's entries.  With a row scaling,
    (1 - zeta^e)/(1 - zeta^s) = 1 + zeta^s + ... + zeta^(s(c-1)) for c = e/s mod p, and as a
    full cycle of p powers sums to 0, zeta^i is a term iff i/s mod p < c; zeta^(p-1) is
    rewritten in the basis, -1 in every coefficient."""
    if table.scale is None:
        out = monomial_coeffs(p, table.mult, table.exp)
    else:
        inv = np.array([pow(s, -1, p) for s in table.scale.tolist()], dtype=np.int64)[:, None]
        raw = (np.arange(p) * inv % p)[:, None] < (table.exp * inv % p)[..., None]
        out = (raw[..., :-1].astype(np.int64) - raw[..., -1:]) * table.mult[..., None]
    if table.corner is not None:
        out = out.astype(object) if table.corner.dtype == object else out
        out[0, 0] = table.corner
    return out


class ExactMatrix:
    """A square matrix over Z or Z[zeta_p], held as one read-only integer array or as the
    `EntryTable` of its builder, with the `Circulant` declaration of its builder (None for a
    matrix built by hand).  A table's coefficient array is filled on the first read of
    `coeffs` and kept; `kind`, `n` and `meta` never read it."""

    __slots__ = ("table", "meta", "circulant", "n", "_coeffs")

    def __init__(self, coeffs: EntryTable | np.ndarray | list, meta: MatrixMeta,
                 circulant: Circulant | None = None) -> None:
        """`coeffs`: an `EntryTable` (checked against p), or a numpy integer array, an
        object array of ints, or nested lists of ints, held under the dtype rule of `_held`."""
        self.meta, self.circulant = meta, circulant
        if isinstance(coeffs, EntryTable):
            coeffs.check(meta.p)
            self.table, self._coeffs, self.n = coeffs, None, len(coeffs.exp)
            return
        if not isinstance(coeffs, np.ndarray):
            coeffs = np.array(coeffs, dtype=object)  # no float or uint64 guessed from ints
        n = len(coeffs)
        if coeffs.shape not in ((n, n), (n, n, meta.p - 1)):
            raise ValueError(f"shape {coeffs.shape}, not (n, n) or (n, n, {meta.p - 1})")
        self.table, self._coeffs, self.n = None, _held(coeffs), n

    @property
    def coeffs(self) -> np.ndarray:
        """The entries, shape (n, n), or their power-basis coefficients, shape (n, n, p-1)."""
        if self._coeffs is None:
            self._coeffs = _held(_filled(self.table, self.meta.p))
        return self._coeffs

    @property
    def kind(self) -> str:
        """The entry kind: "cyc" for a table or an (n, n, p-1) array, "int" for (n, n)."""
        return "int" if self.table is None and self._coeffs.ndim == 2 else "cyc"

    def __repr__(self):
        return f"ExactMatrix({self.meta.family}, p={self.meta.p}, n={self.n})"


def _require_nonresidue(p: int, delta: int) -> None:
    if legendre(delta, p) != -1:
        raise ValueError(f"delta={delta} is not a quadratic non-residue mod {p}")


def _chi(p: int) -> np.ndarray:
    """The Legendre symbols (t/p) for t = 0 .. p-1."""
    chi = np.full(p, -1, dtype=np.int64)
    chi[np.arange(p) ** 2 % p] = 1
    chi[0] = 0
    return chi


def _squares(p: int, start: int) -> np.ndarray:
    """j^2 mod p for start <= j <= m."""
    return np.arange(start, (p + 1) // 2) ** 2 % p


def _legendre_coeffs(p: int, delta: int, start: int) -> np.ndarray:
    """Legendre symbols ((j^2 + delta*k^2)/p) for start <= j, k <= m: one table lookup."""
    sq = _squares(p, start)
    return _chi(p)[(sq[:, None] + delta % p * sq) % p]


def _one(p: int) -> np.ndarray:
    return np.eye(1, p - 1, dtype=np.int64)[0]


def _zeta_powers(p: int, e: np.ndarray) -> np.ndarray:
    """zeta^e for exponents 0 <= e < p: a one-hot at e, or -1 in every coefficient for
    e = p-1 (zeta^(p-1) = -1 - zeta - ... - zeta^(p-2))."""
    out = (e[..., None] == np.arange(p - 1)).astype(np.int64)
    out[e == p - 1] = -1
    return out


# -- the tables, from each family's entry formula -----------------------------


def _zeta_table(p: int, delta: int, x: int = 1) -> EntryTable:
    """D (delta 1), DD and Dtilde (x 2): 1 in column 0, x zeta^(delta j^2 k^2) elsewhere,
    for 0 <= j, k <= m."""
    sq = _squares(p, 0)
    mult = np.full((len(sq), len(sq)), x, dtype=np.int64)
    mult[:, 0] = 1  # zeta^0 in column 0
    return EntryTable(delta % p * np.outer(sq, sq) % p, mult)


def _legendre_table(p: int, delta: int, corner: CycElt) -> EntryTable:
    """E (delta 1) and F: ((j^2 + delta k^2)/p) zeta^0 for 0 <= j, k <= m, and `corner` at
    (0, 0)."""
    mult = _legendre_coeffs(p, delta, 0)
    return EntryTable(np.zeros_like(mult), mult, corner=corner.coeffs)


# -- the declarations, from each family's formula, not from its table ---------


def _square_powers(p: int) -> np.ndarray:
    """g^(2w) mod p for w = 0 .. m-1: the squares in the order of `Circulant`."""
    b = pow(primitive_root(p), 2, p)
    return np.array([pow(b, w, p) for w in range((p - 1) // 2)], dtype=np.int64)


def _zeta_block(p: int, delta: int, x: int = 1) -> Circulant:
    """D (delta 1), DD and Dtilde (x 2): x zeta^(delta j^2 k^2) = x zeta^(delta g^(2(u+v))),
    a Hankel block, with 1 at the corner and in column 0 and x in row 0."""
    first = x * _zeta_powers(p, delta * _square_powers(p) % p)
    return Circulant(first, hankel=True, border=(_one(p), x))


def _legendre_block(p: int, delta: int, corner: CycElt) -> Circulant:
    """E (delta 1) and F: ((j^2 + delta k^2)/p) = ((1 + delta g^(2(v-u)))/p), a circulant
    block, with (delta/p) in row 0 and 1 in column 0."""
    first = _chi(p)[(1 + delta * _square_powers(p)) % p, None] * _one(p)
    return Circulant(first, hankel=False, border=(corner.coeffs, legendre(delta, p)))


def build_C(p: int) -> ExactMatrix:
    """Entries (1 - zeta^(j^2 k^2)) / (1 - zeta^(j^2)): J - A under the row scaling, the
    Hankel block 1 - zeta^(g^(2(u+v))) with row u scaled."""
    require_odd_prime(p)
    sq = _squares(p, 1)
    table = EntryTable(np.outer(sq, sq) % p, np.ones((len(sq), len(sq)), dtype=np.int64), sq)
    first = _one(p) - _zeta_powers(p, _square_powers(p))
    return ExactMatrix(table, MatrixMeta(p, "C"), Circulant(first, hankel=True, scaled=True))


def build_D(p: int) -> ExactMatrix:
    """Entries zeta^(j^2 k^2) for 0 <= j, k <= m."""
    require_odd_prime(p)
    return ExactMatrix(_zeta_table(p, 1), MatrixMeta(p, "D"), _zeta_block(p, 1))


def build_D_delta(p: int, delta: int) -> ExactMatrix:
    """Entries zeta^(delta j^2 k^2), delta a quadratic non-residue."""
    require_odd_prime(p)
    _require_nonresidue(p, delta)
    return ExactMatrix(_zeta_table(p, delta), MatrixMeta(p, "DD", delta), _zeta_block(p, delta))


def build_D_tilde(p: int) -> ExactMatrix:
    """Column 0 all ones, other entries 2*zeta^(j^2 k^2)."""
    require_odd_prime(p)
    return ExactMatrix(_zeta_table(p, 1, 2), MatrixMeta(p, "Dtilde"), _zeta_block(p, 1, 2))


def build_E(p: int) -> ExactMatrix:
    """Corner -g, all other entries the Legendre symbol ((j^2+k^2)/p)."""
    require_odd_prime(p)
    if p % 4 != 3:
        raise ValueError(f"E requires p = 3 mod 4, got {p}")
    g = gauss_sum(p)
    return ExactMatrix(_legendre_table(p, 1, -g), MatrixMeta(p, "E"), _legendre_block(p, 1, -g))


def build_F(p: int, delta: int) -> ExactMatrix:
    """Corner g, all other entries the Legendre symbol ((j^2+delta*k^2)/p)."""
    require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"F requires p = 1 mod 4, got {p}")
    _require_nonresidue(p, delta)
    g = gauss_sum(p)
    return ExactMatrix(_legendre_table(p, delta, g), MatrixMeta(p, "F", delta),
                       _legendre_block(p, delta, g))


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
