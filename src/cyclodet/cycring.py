"""Exact arithmetic in the ring of integers Z[zeta_p] of Q(zeta_p).

An element is its p - 1 integer coefficients over the power basis,
coeffs[0] + coeffs[1]*zeta + ... + coeffs[p-2]*zeta^(p-2), so equality is plain
comparison of `coeffs`.  The missing power zeta^(p-1) is always eliminated
through the relation 1 + zeta + ... + zeta^(p-1) = 0.  Rational coordinates
(the half-integers of the quadratic subfield) live in `subfield.QuadElt`;
here every coefficient and scalar operand is an int, and arithmetic with
any other raises TypeError.

Every product of elements goes through `lincomb`, which takes and returns
coefficient arrays: weights (k, t, p - 1) and rows (t, n, p - 1) give the
(k, n, p - 1) sums.  It packs each row of elements into one integer
(Kronecker substitution on byte boundaries) from one zero-padded numpy
buffer, combines rows with one big-int multiply per term, and reads all k
sums back with one `frombuffer` and one fold: a single product, a Bareiss
step's update, a divider's check of a whole step, a matrix product.

Every value is immutable and hashable; all operations are pure functions,
so elements can be shared freely between concurrent workers.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .modarith import require_odd_prime


def _digit_mask(digits: int, w: int) -> int:
    """H = 2^(8w-1) in each of `digits` digits of 8w bits.  XOR with H adds H
    to a two's-complement digit in [-H, H), which makes it nonnegative."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * digits, "little")


def _max_abs(a: np.ndarray) -> int:
    """The largest absolute entry of an int64 or object array, and at least 1: by
    Python's max below 64 entries, where numpy's fixed cost per call dominates,
    and otherwise by numpy's max and min, which allocate no array."""
    if a.size < 64:
        return max([1, *map(abs, a.ravel().tolist())])
    return max(int(a.max()), -int(a.min()), 1)


def _pack(a: np.ndarray, slot: int, w: int, mask: int) -> list[int]:
    """Each (n, m) block of `a` (shape (..., n, m), entries in [-H, H)) as one
    integer in base 2^(8w): vector j in the digits j*slot .. j*slot + m - 1,
    zeros above it; `mask` is _digit_mask(n * slot, w).  The two's-complement
    digits of all blocks are laid out in one zero-padded buffer of bytes, by
    numpy for w in {1, 2, 4, 8} and by `int.to_bytes` for wider digits, and
    each block is read from its slice."""
    *lead, n, m = a.shape
    if w <= 8:
        buf = np.zeros((*lead, n, slot), dtype=f"<i{w}")
        buf[..., :m] = a
        raw = buf.tobytes()
        del buf  # one copy of the digits while the integers are read
    else:
        pad = bytes((slot - m) * w)
        raw = b"".join(b"".join([c.to_bytes(w, "little", signed=True) for c in v]) + pad
                       for v in a.reshape(-1, m).tolist())
    size = n * slot * w
    return [(int.from_bytes(raw[i * size : (i + 1) * size], "little") ^ mask) - mask
            for i in range(math.prod(lead))]


def lincomb(p: int, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entry [i, j] is sum_t weights[i, t] * rows[t, j] over Z[zeta_p], every
    element a vector of p - 1 coefficients: weights of shape (k, t, p - 1) and
    rows of shape (t, n, p - 1), int64 or Python ints (dtype object), give
    (k, n, p - 1), int64 when the fold below fits int64 and Python ints otherwise.

    A row is one integer in base D = 2^(8w), element j in the 2p - 3 digits
    from digit j(2p - 3), so no product with a weight spills into the next
    slot.  Every sum's coefficients are below H = D/2 in absolute value, so
    with each digit biased by H the sum's bytes are its digits: read by numpy
    for w in {1, 2, 4, 8}, sliced from the bytes for wider digits.  The k sums
    are read as one buffer and folded together.  A folded coefficient is
    d_i - d_(p-1) + d_(p+i), where d_i and d_(p+i) take disjoint products, so it
    is at most 2 * bound in absolute value.
    """
    m, slot = p - 1, 2 * p - 3
    k, terms, n = len(weights), len(rows), rows.shape[1] if rows.ndim == 3 else -1
    if weights.shape[1:] != (terms, m) or rows.shape != (terms, n, m):
        raise ValueError("need weights (k, t, p-1) and rows (t, n, p-1)")
    bound = terms * m * _max_abs(weights) * _max_abs(rows)  # products per coefficient, times the largest
    w = (bound.bit_length() + 8) // 8  # the fewest bytes with bound < 2^(8w-1)
    if w <= 8:
        w = 1 << (w - 1).bit_length()  # a width numpy reads: 1, 2, 4 or 8
    mask = _digit_mask(n * slot, w)
    packed = _pack(rows, slot, w, mask)
    scalars = iter(_pack(weights.reshape(-1, 1, m), m, w, _digit_mask(m, w)))
    buf = bytearray()
    for _ in range(k):
        z = sum(x * c for x, c in zip(packed, scalars))
        buf += ((z + mask) ^ mask).to_bytes(n * slot * w, "little")
    del packed, mask  # the largest transients, before the digits are read
    if w <= 8:
        d = np.frombuffer(buf, f"<i{w}").astype(np.int64 if 4 * bound < 1 << 63 else object)
    else:
        d = np.array([int.from_bytes(buf[i : i + w], "little", signed=True)
                      for i in range(0, len(buf), w)], dtype=object)
    # fold zeta^(p+i) = zeta^i and remove zeta^(p-1): three digits meet in a coefficient
    d = d.reshape(k, n, slot)
    assert d.dtype == object or 4 * bound < 1 << 63, "int64 fold headroom"
    out = d[..., :m] - d[..., m:p]
    out[..., : p - 3] += d[..., p:]
    return out


class CycElt:
    """An element of Z[zeta_p]: its p - 1 integer power-basis coefficients `coeffs`."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int]) -> None:
        require_odd_prime(p)
        cs = tuple(coeffs)
        if len(cs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p={p}, got {len(cs)}")
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient required, got {type(c).__name__}")
        self.p = p
        self.coeffs = tuple(map(int, cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def _new(cls, p: int, coeffs: Sequence[int]) -> CycElt:
        """Trusted constructor: p - 1 ints."""
        x = object.__new__(cls)
        x.p = p
        x.coeffs = tuple(coeffs)
        return x

    @classmethod
    def _from_raw(cls, p: int, raw: Sequence[int]) -> CycElt:
        """Canonicalize ints of zeta^0 .. zeta^(p-1)."""
        last = raw[p - 1]
        if last:
            return cls._new(p, [raw[i] - last for i in range(p - 1)])
        return cls._new(p, raw[: p - 1])

    @classmethod
    def zero(cls, p: int) -> CycElt:
        return cls._new(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> CycElt:
        return cls.rational(p, 1)

    @classmethod
    def rational(cls, p: int, value: int) -> CycElt:
        return cls(p, (value,) + (0,) * (p - 2))

    @classmethod
    def zeta(cls, p: int, exponent: int = 1) -> CycElt:
        raw = [0] * p
        raw[exponent % p] = 1
        return cls._from_raw(p, raw)

    # -- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def rational_value(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- ring operations ----------------------------------------------

    def _check_same_field(self, other: CycElt) -> None:
        if self.p != other.p:
            raise ValueError(f"mismatched fields: p={self.p} vs p={other.p}")

    def __add__(self, other):
        if isinstance(other, CycElt):
            self._check_same_field(other)
            return CycElt._new(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])
        if isinstance(other, int):
            return CycElt._new(self.p, (self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return CycElt._new(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (CycElt, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        p = self.p
        if isinstance(other, CycElt):
            self._check_same_field(other)
            xy = np.array(self.coeffs + other.coeffs).reshape(2, 1, 1, p - 1)
            return CycElt._new(p, lincomb(p, xy[0], xy[1])[0, 0].tolist())
        if isinstance(other, int):
            return CycElt._new(p, [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CycElt):
            return self.p == other.p and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.is_rational and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __reduce__(self):
        return (CycElt._new, (self.p, self.coeffs))

    # -- Galois action --------------------------------------------------

    def galois(self, a: int) -> CycElt:
        """Apply the automorphism zeta -> zeta^a (requires gcd(a, p) = 1)."""
        p = self.p
        a %= p
        if a == 0:
            raise ValueError(f"a must be coprime to {p}")
        if a == 1:
            return self
        raw = [0] * p
        for i, c in enumerate(self.coeffs):
            raw[a * i % p] = c
        return CycElt._from_raw(p, raw)

    # -- display --------------------------------------------------------

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "z" if i == 1 else f"z^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append(("- " if c < 0 else "+ " if terms else "") + body)
        if not terms:
            return "0"
        s = " ".join(terms)
        return s[2:] if s.startswith("+ ") else s.replace("- ", "-", 1) if s.startswith("- ") else s

    def __repr__(self):
        return f"CycElt(p={self.p}, {self})"


# -- named operations ---------------------------------------------------


def make(p: int, raw: Sequence) -> CycElt:
    """Canonical element from raw coefficients of zeta^0 .. zeta^(p-1)."""
    require_odd_prime(p)
    if len(raw) != p:
        raise ValueError(f"need {p} raw coefficients, got {len(raw)}")
    return CycElt(p, [c - raw[p - 1] for c in raw[: p - 1]])


def eval_complex(x: CycElt, prec: int = 30):
    """Numeric image of x under zeta -> exp(2*pi*i/p), an mpmath mpc.

    Only for sign resolution and sanity checks; exact claims never rest on it.
    `prec` is the working precision in significant digits (>= 15); the sum
    carries ten guard digits.
    """
    if prec < 15:
        raise ValueError("prec must be at least 15 significant digits")
    import mpmath

    with mpmath.workdps(prec + 10):
        total = mpmath.mpc(0)
        for k, c in enumerate(x.coeffs):
            if c:
                total += mpmath.mpf(c) * mpmath.expjpi(mpmath.mpf(2 * k) / x.p)
        return total
