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
(k, n, p - 1) sums: a single product, a Bareiss step's update, a divider's
check of a whole step, a matrix product.  For int64 operands whose sums stay
below 2^62 it takes, where that measured cheaper, one int64 `np.matmul` per
term of the rows by Mul(x), the matrix of multiplication by the weight x on
the power basis, read from a strided view of x (no float, no BLAS).
Otherwise it packs each row of elements into one integer (Kronecker
substitution on byte boundaries) from one zero-padded numpy buffer, combines
rows with one big-int multiply per term, and reads all k sums back with one
`frombuffer` and one fold.  `lincomb` states the bound and the rule.

The Galois action sigma_b: zeta -> zeta^b has one implementation on coefficient
arrays, `galois_image`, which `CycElt.galois` and the determinant certificates
of `detkit` share.

Every value is immutable and hashable, a rational element as the int it equals;
all operations are pure functions, so elements can be shared freely between
concurrent workers.
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


def _by_matmul(p: int, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`lincomb` of int64 operands by one int64 `np.matmul` per term.

    Row b of Mul(x) is x zeta^b: Mul(x)[b, c] = x[(c - b) mod p] - x[(p-1-b) mod p],
    x padded by x[p-1] = 0, so an element y times x is the vector y @ Mul(x).
    Mul(x) is the first p - 1 columns of the (p-1) x p circulant C[b, c] =
    x[(c - b) mod p] less its last column, the coefficient of zeta^(p-1) that
    1 + zeta + ... + zeta^(p-1) = 0 removes.  C is a view: row b is the window
    from p - b of x written twice, so each term refills one (k, 2p) buffer and
    multiplies the term's rows by the k circulants at once.  The (k, n, p)
    sums of rows @ C are folded once, as Mul prescribes.
    """
    m, k = p - 1, len(weights)
    x2 = np.zeros((max(k, 1), 2 * p), dtype=np.int64)  # one row at k = 0 backs the empty view
    circ = np.ndarray((k, m, p), np.int64, x2, p * 8, (x2.strides[0], -8, 8))
    sums = np.zeros((k, rows.shape[1], p), dtype=np.int64)
    for t, row in enumerate(rows):
        x2[:k, :m] = x2[:k, p:-1] = weights[:, t]
        sums += row @ circ
    return sums[..., :m] - sums[..., m:]


def _by_packing(p: int, weights: np.ndarray, rows: np.ndarray, bound: int, w: int) -> np.ndarray:
    """`lincomb` by Kronecker substitution, in digits of w bytes.

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
    k, n = len(weights), rows.shape[1]
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


# bytes of a packed digit -> (largest p, most multiply-adds) of a `lincomb` by the
# int64 matmul: the sizes where it measured faster than the packing (see `lincomb`)
_MATMUL_LIMITS = {1: (131, 1 << 15), 2: (131, 1 << 20), 4: (499, 1 << 24), 8: (499, 1 << 24)}


def lincomb(p: int, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entry [i, j] is sum_t weights[i, t] * rows[t, j] over Z[zeta_p], every
    element a vector of p - 1 coefficients: weights of shape (k, t, p - 1) and
    rows of shape (t, n, p - 1), int64 or Python ints (dtype object), give
    (k, n, p - 1), int64 when 4 * bound < 2^63 and Python ints otherwise.

    A coefficient of a sum before the fold adds t (p - 1) products, so it is
    at most bound = t (p - 1) max|weight| max|row| in absolute value, and a
    folded one at most 2 * bound, on either path.  Every partial sum of
    `_by_matmul` is one of the two (rows @ C, then the fold, which makes it
    rows @ Mul(x): Mul's entries are at most 2 max|x|), so with 4 * bound < 2^63
    each is below 2^62 and nothing wraps.

    The rule: `_by_matmul` when both operands are int64, 4 * bound < 2^63 and p
    and the k t n (p - 1) p multiply-adds are within `_MATMUL_LIMITS` for w, the
    bytes of a packed digit (1, 2, 4 or 8: the fewest with bound < 2^(8w - 1));
    `_by_packing` otherwise, as for every size not measured.  Both were timed on
    every int64 call of `verify` 5..89 and `classno` 229..317 and on dense random
    operands at p = 5..499 up to 2^24 multiply-adds, on one shared 2-vCPU machine.
    The matmul saves about 10 us per call.  Past 2^16 multiply-adds the packing
    took, in the median, 0.6 times the matmul's time with 1-byte digits, 1.25
    times with 2-byte digits at p <= 131 and 0.7 times above, 4.3 and 2.0 times
    with 4-byte digits and 12.7 and 5.7 times with 8-byte digits.  The step at
    p = 131 is CPython's Karatsuba cutoff of 70 30-bit digits: from p = 137 a
    packed weight of 2-byte digits passes 2100 bits.  A single product with 2-byte
    digits takes 35 against 37 us packed at p = 151, 49 against 45 at p = 181 and
    222 against 107 at p = 499; with 4- and 8-byte digits the matmul was faster
    on every call measured but one within noise.  The limits 2^15 and 2^20 were
    fitted to the calls of `verify` 5..47; 499 and 2^24 are the largest measured.
    """
    m = p - 1
    k, terms, n = len(weights), len(rows), rows.shape[1] if rows.ndim == 3 else -1
    if weights.shape[1:] != (terms, m) or rows.shape != (terms, n, m):
        raise ValueError("need weights (k, t, p-1) and rows (t, n, p-1)")
    bound = terms * m * _max_abs(weights) * _max_abs(rows)  # products per coefficient, times the largest
    w = (bound.bit_length() + 8) // 8  # the fewest bytes with bound < 2^(8w-1)
    if w <= 8:
        w = 1 << (w - 1).bit_length()  # a width numpy reads: 1, 2, 4 or 8
    if weights.dtype == rows.dtype == np.int64 and 4 * bound < 1 << 63:  # so w <= 8
        top_p, most = _MATMUL_LIMITS[w]
        if p <= top_p and k * terms * n * m * p <= most:
            return _by_matmul(p, weights, rows)
    return _by_packing(p, weights, rows, bound, w)


def galois_image(x: np.ndarray, b: int) -> np.ndarray:
    """sigma_b: zeta -> zeta^b, b prime to p, on coefficient arrays (..., p-1) of any dtype:
    power b*i of the result is power i of x (power p-1 of x is 0), and zeta^(p-1) is then
    removed.  The difference of two int64 coefficients must fit int64."""
    p = x.shape[-1] + 1
    padded = np.concatenate([x, np.zeros_like(x[..., :1])], axis=-1)
    out = padded[..., np.arange(p) * pow(b, -1, p) % p]
    return out[..., :-1] - out[..., -1:]


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
        return hash(self.coeffs[0]) if self.is_rational else hash((self.p, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __reduce__(self):
        return (CycElt._new, (self.p, self.coeffs))

    # -- Galois action --------------------------------------------------

    def galois(self, a: int) -> CycElt:
        """Apply the automorphism zeta -> zeta^a (requires gcd(a, p) = 1), by `galois_image`."""
        if a % self.p == 0:
            raise ValueError(f"a must be coprime to {self.p}")
        return CycElt._new(self.p, galois_image(np.array(self.coeffs, dtype=object), a).tolist())

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
