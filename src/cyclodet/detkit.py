"""Exact determinants with two independent backends per entry kind.

Bareiss: one two-step fraction-free elimination (`_fraction_free`) serves both
rings, on one numpy array per step: Python ints (dtype object) over Z, the
(r, c, p-1) coefficient array over Z[zeta_p], each with its product
(`np.matmul`, `cycring.lincomb`) and exact divider.  A double step removes two
columns by two divisions by the pivot of two steps back, both exact by
Sylvester's identity.  `_divide_ints` is floor division checked by one
re-multiplication; `_divide_exact` takes its quotients mod each auxiliary
prime q by one `lincomb` product, its array mod q times d^-1 mod q, lifts them
by one CRT and proves the lift by one re-multiplication; a division still
unproven once the modulus passes a proven bound on exact quotients was not
exact and raises.  There is no cap on the primes.  `_fraction_free` makes a
divider of each pivot (`_Pivot`), which interpolates d^-1 mod q once per prime
for both divisions by d.  A CycElt is built only for a determinant returned.

Modular: every CRT in this module is one mixed-radix conversion
(`_MixedRadix`) over one stream of primes, the auxiliary primes q = 1 (mod p)
above AUX_PRIME_FLOOR (`aux_primes`): residues stay int64, each prime adds a
digit, and the values are built once, when the lift stops: Python ints, or
int64 for the divider's quotients while the modulus is below 2^63.  One
object per p (`_PrimeTables`, kept while p stays the same by `_tables`) holds
the primes, g = primitive_root(p) with its powers and logs, and the power
table of each prime, each found or built once: every lift, the exact
divider, the identity check, the certificate, the node order and the bounds
read them there.  A modular determinant counts its primes up front
(`_lift_primes`) and takes them in runs that bound its memory (`_runs`).
Integer matrices are lifted past twice the Hadamard bound, taken exactly,
each scalar determinant by one int64 elimination (`_det_mod_stack`, no
floats), each matrix mod its own prime.
A cyclotomic family built by `matrices` carries a `Circulant` declaration: a
bordered Hankel or circulant block over the squares.  Certified on the
coefficients (`_certified`), it gives the values at two elements of order p
in F_q, one per coset of the squares, each from one resultant of its first
row (`_declared_values`, by one lockstep int64 Euclid over every prime and
node, `_resultants`), and a Hadamard bound from its two distinct rows
(`_declared_bound_sq`).  Any other cyclotomic matrix is evaluated at two such
nodes when sigma_(g^2) shifts its rows along the squares or fixes them
(`_orbit_step`), at all p-1 otherwise, each value by `_det_mod_stack`, under a
Hadamard bound on its dense rows (`_coset_bounds_sq`).  Both paths take the
sign of sigma_(g^2) from one certificate (`_galois_sign`).  Either way
the values are constant on the F cosets of a subgroup of the nodes, F = f, or
2f with values (v, -v) when sigma_(g^2) changes the sign; the coefficients are
interpolated from them by Gauss periods on the same power table r^e mod q that
evaluated them (`_PrimeTables.interpolate`, whose case F = p-1 is the full
inverse transform), and CRT-lifted past twice the bound, whose complex
embeddings are the one float64 computation here, under a proven margin
(`_coset_bounds_sq`).  One matrix identity is
checked the same way, A B = g C on the matrices' values at all p-1 nodes,
exact past twice a bound on every coefficient of A B - g C (`identity_holds`).

Every matrix's coefficient array has the dtype of the one rule that
`ExactMatrix` applies to every array it is given: int64 only while every
entry is below AUX_PRIME_FLOOR in absolute value, Python ints otherwise.
Every int64 sum here is of `count` products of at most (q-1)^2, refused up
front when count (q-1)^2 >= 2^63: p-1 products per value of the evaluator,
and the F <= p-1 products of an interpolated sum, which `_PrimeTables.pow_r`
refuses alike; n-1 updates of an entry in [0, q) in `_det_mod_stack` (the
largest q of the stack), n products of values per entry in `identity_holds`;
the products of `_MixedRadix` and of the Euclid of `_resultants` are of two
numbers below their primes, refused from 2^31.  As every auxiliary prime q
exceeds the floor, `_PrimeTables.values`, the one evaluator, takes int64 rows
unreduced; the exact divider hands it its pivot reduced mod q.  Every product of elements, a
Bareiss step's and the divider's by d^-1 mod q, comes from `lincomb`, int64
only while 4 bound < 2^63 for the bound of its sums (then by one int64 matmul
per term where that is cheaper than packing), and every int64 entry is at most
2 bound < 2^62, so the difference of two fits int64; the
quotients of `_divide_exact` are int64 when the proven modulus M is below
2^63, as every |v| < M/2 <= 2^62, lifted in int64 (`_MixedRadix.lift`), and
Python ints otherwise.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cycring import CycElt, galois_image, lincomb
from .matrices import ExactMatrix
from .modarith import aux_primes, primitive_root


@dataclass
class DetResult:
    values: tuple  # one per backend run: Bareiss first, then the modular one

    @property
    def agree(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    @property
    def value(self):
        """The determinant; raises when the backends disagree."""
        if not self.agree:
            raise ArithmeticError(f"backend disagreement: {self.values}")
        return self.values[0]


# -- determinants over F_q --------------------------------------------------


def _det_mod_stack(a: np.ndarray, q) -> np.ndarray:
    """Determinants of a stack of matrices, shape (stack, n, n), each mod its own prime:
    `q` holds one modulus per matrix (an int applies to all).

    One Gaussian elimination runs on every matrix at once, each over its own
    F_q.  Each column takes every matrix's first nonzero pivot (a row swap
    flips its sign), and a zero column makes that matrix's determinant 0.  The
    trailing block is never reduced: an entry starts in [0, q) and takes at
    most n-1 updates of at most (q-1)^2, so a stack whose largest q has
    n (q-1)^2 >= 2^63 is refused.  Entries beyond int64 may come as Python
    ints (dtype object).  Returns the determinants in [0, q) as int64.
    """
    stack, n = a.shape[0], a.shape[1]
    top = max(np.ravel(q).tolist())
    if n * (top - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"{n - 1} updates mod q={top} can overflow int64")
    q = np.broadcast_to(np.asarray(q, dtype=np.int64), (stack,))
    moduli, qc = q.tolist(), q[:, None]
    a = (a % qc[:, :, None]).astype(np.int64, copy=False)
    each = np.arange(stack)
    det = np.ones(stack, dtype=np.int64)
    for k in range(n - 1):
        rows = k + np.argmax(a[:, k:, k] % qc != 0, axis=1)
        swap = rows != k
        if swap.any():
            pivot_rows = a[each, rows, k:]
            a[each, rows, k:] = a[:, k, k:]
            a[:, k, k:] = pivot_rows
            det = np.where(swap, q - det, det)
        prow = a[:, k, k:] % qc
        det = det * prow[:, 0] % q
        inv = np.array([pow(v, -1, m) if v else 0 for v, m in zip(prow[:, 0].tolist(), moduli)],
                       dtype=np.int64)
        factors = a[:, k + 1 :, k] % qc * inv[:, None] % qc
        a[:, k + 1 :, k + 1 :] -= factors[:, :, None] * prow[:, None, 1:]
    return det * (a[:, -1, -1] % q) % q


# int64 entries of one elimination stack (512 KiB), which bound a run of primes
# (`_runs`): 16 primes at n = 45 with f = 2 nodes, one at n = 249, where a stack
# of every prime doubles the peak RSS of S(499); 2^17 adds 1 MiB to C(199)'s.
# The same bound takes the row images of `_galois_sign` and the float rows of
# `_coset_bounds_sq` in runs.
_STACK_ENTRIES = 1 << 16


def _lift_primes(p: int, bound_sq: int) -> list[int]:
    """The shortest prefix of `aux_primes(p)` (read from `_tables`) whose product M has
    M^2 > bound_sq."""
    primes, modulus = [], 1
    for q in _tables(p):
        if modulus * modulus > bound_sq:
            return primes
        primes.append(q)
        modulus *= q


def _runs(primes, per_prime: int) -> list:
    """The primes (or rows) in runs of at least one whose stacks, `per_prime` entries
    each, hold at most _STACK_ENTRIES entries."""
    size = max(1, _STACK_ENTRIES // per_prime)
    return [primes[i : i + size] for i in range(0, len(primes), size)]


# -- the one CRT ------------------------------------------------------------


class _MixedRadix:
    """Garner's CRT of int64 residue arrays, one mixed-radix digit per prime
    (H. L. Garner, IRE Trans. EC-8, 1959; Knuth, TAOCP vol. 2, 4.3.2).

    After the primes q_0 .. q_(k-1), M = q_0 ... q_(k-1), each value is
    v = d_0 + d_1 q_0 + ... + d_(k-1) q_0 ... q_(k-2) with symmetric digits
    |d_i| < q_i/2, so v is its residue of least absolute value mod M.  A fold
    takes the next digit in numpy: the Horner sum of the earlier digits mod q
    is v mod q, and d_k = (c - v) / M mod q.  All of it stays in int64 for
    primes below 2^31, as every product is of two numbers below 2^31.  The
    values are built once, by Horner over the digits (`lift`).
    """

    __slots__ = ("primes", "digits", "modulus")

    def __init__(self) -> None:
        self.primes, self.digits, self.modulus = [], [], 1

    def fold(self, residues: np.ndarray, q: int) -> None:
        """Add the digit of the residues mod q (int64 in [0, q), any shape)."""
        if q >= 1 << 31:
            raise OverflowError(f"mixed-radix digits mod q={q} can overflow int64")
        v = np.zeros_like(residues)
        for d, qi in zip(reversed(self.digits), reversed(self.primes)):
            v = (v * qi + d) % q
        d = (residues - v) % q * pow(self.modulus % q, -1, q) % q
        self.digits.append(np.where(2 * d > q, d - q, d))
        self.primes.append(q)
        self.modulus *= q

    def fits(self) -> np.ndarray:
        """Per value, 4|d_top| + 2 <= q_top, which proves |v| < M/4: with
        M' = M/q_top, v - d_top M' has the lower digits, below M'/2 in absolute
        value, so |v| < (|d_top| + 1/2) M' <= M/4.  Every |v| < M/8 passes:
        then |d_top| < q_top/8 + 1/2, so 4|d_top| + 2 < q_top/2 + 4 <= q_top
        for q_top >= 8."""
        return 4 * abs(self.digits[-1]) + 2 <= self.primes[-1]

    def lift(self) -> np.ndarray:
        """The values, int64 while M < 2^63, Python ints otherwise.  The Horner
        sum from the top digit down to digit i is the value of digits i .. k-1, a
        mixed-radix number below q_i ... q_(k-1) / 2 <= M/2 < 2^62 in absolute value, and
        so is the product of the sum from i+1 by q_i, with |d_i| < q_i/2 added later."""
        v = self.digits[-1] if self.modulus < 1 << 63 else self.digits[-1].astype(object)
        for d, q in zip(self.digits[-2::-1], self.primes[-2::-1]):
            v = v * q + d
        return v


# -- fraction-free elimination and the integer backends ---------------------


def _first_nonzero(col: np.ndarray) -> int:
    """The index of the first nonzero element of `col` (ints or coefficient rows), or -1."""
    nonzero = (col != 0).reshape(len(col), -1).any(axis=1)
    r = int(nonzero.argmax())
    return r if nonzero[r] else -1


def _swap(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """A copy of `a` with its rows i < j swapped."""
    return a[[*range(i), j, *range(i + 1, j), i, *range(j + 1, len(a))]]


def _pivot_minors(a: np.ndarray, product) -> np.ndarray:
    """adj(P)^T times the transposed first two columns of `a`, P = a[:2, :2]: column i
    is the row (a_i0, a_i1) adj(P), so columns 0 and 1 are det(P) I, and row 1 holds
    a_00 a_i1 - a_01 a_i0."""
    adj = a[1::-1, 1::-1].copy()
    adj[[0, 1], [1, 0]] *= -1
    return product(adj, np.moveaxis(a[:, :2], 1, 0))


def _fraction_free(a: np.ndarray, product, divide, pivot) -> tuple:
    """Bareiss's two-step fraction-free elimination (Math. Comp. 22, 1968) on one array
    per step, (n, n) entries over Z or (n, n, p-1) coefficients over Z[zeta_p], with the
    ring's `lincomb` as `product(weights, rows)` and its exact `divide(block, d)`, d the
    divider that `pivot` makes of each pivot, once, for both divisions by it.

    Level-k entries a_ij are the minors of the leading k rows and columns bordered by
    row i and column j, d (the last pivot, none at k = 0) their leading minor, and a
    t x t determinant of them is d^(t-1) times a minor (Sylvester's identity).  With
    P = a[:2, :2], K = a[2:, :2], R = a[:2, 2:] and the rest X, det(P) and K adj(P)
    are 2 x 2 determinants, so c0 = det(P)/d, the next pivot, and K' = K adj(P)/d
    are exact: one division of 2s - 3 elements.  P bordered by row i and column j has
    the determinant det(P) a_ij - K_i adj(P) R_j = d (c0 X - K' R)_ij, d^2 times a
    level-(k+2) minor, so (c0 X - K' R)/d, the next block, is exact; c0 is its d.  An
    even n ends with a single step, det(P)/d.  Over Z[zeta_p], c0 X and K' R are
    `lincomb` sums, int64 only below 2^62, so their difference fits int64.  Pivot
    rows: the first with a nonzero entry in column 0, then the first below it with a
    nonzero level-(k+1) entry (a_00 a_i1 - a_01 a_i0)/d in column 1 (row 1 of
    `_pivot_minors`).  Row swaps flip the sign; a zero column makes the determinant
    0.  Returns (sign of the row swaps, last pivot), or (1, a zero).
    """
    sign, d = 1, None
    while len(a) > 1:
        s, elt = len(a), a.shape[2:]
        r = _first_nonzero(a[:, 0])
        if r < 0:
            return 1, a[0, 0]
        if r:
            a, sign = _swap(a, 0, r), -sign
        minors = _pivot_minors(a, product)
        r = _first_nonzero(minors[1, 1:])
        if r < 0:
            return 1, minors[1, 1]
        if r:
            a, sign = _swap(a, 1, r + 1), -sign
            minors = _pivot_minors(a, product)
        small = np.concatenate([minors[1, 1:2], minors[:, 2:].reshape(-1, *elt)])
        if d is not None:
            small = divide(small, d)
        c0, k = small[:1], small[1:].reshape(2, s - 2, *elt).swapaxes(0, 1)
        if s == 2:
            return sign, c0[0]
        block = product(c0[None], a[2:, 2:].reshape(1, -1, *elt)).reshape(s - 2, s - 2, *elt)
        cross = product(k, a[:2, 2:])
        assert all(x.dtype == object or -(1 << 62) < x.min() and x.max() < 1 << 62
                   for x in (block, cross)), "int64 update headroom"
        if cross.dtype == object:
            block = block.astype(object, copy=False)
        block -= cross  # in place: one array of the step's size fewer
        a = block if d is None else divide(block, d)
        d = pivot(c0[0])
    return sign, a[0, 0]


def _divide_ints(block: np.ndarray, den: int) -> np.ndarray:
    """Exact quotients of a block of integers (dtype object) by den; a remainder raises."""
    quots = block // den
    if not np.array_equal(quots * den, block):
        raise ArithmeticError("Bareiss division was not exact")
    return quots


def det_int_bareiss(m: ExactMatrix, stats: dict | None = None) -> int:
    """Fraction-free elimination over Z, on Python ints (dtype object)."""
    if m.kind != "int":
        raise ValueError("integer matrix required")
    sign, last = _fraction_free(m.coeffs.astype(object), np.matmul, _divide_ints, int)
    return sign * last


def det_int_modular(m: ExactMatrix, stats: dict | None = None) -> int:
    """CRT over the shortest prefix of `aux_primes(p)`, the stream of the cyclotomic
    backends, whose modulus passes 2H, H^2 = prod_rows sum_k M_jk^2 the Hadamard
    bound, taken exactly in Python ints; a zero row makes H = 0 and takes no prime.
    The primes are counted up front and eliminated together, in runs of at most
    _STACK_ENTRIES entries (`_runs`)."""
    if m.kind != "int":
        raise ValueError("integer matrix required")
    n = m.n
    h2 = math.prod(sum(x * x for x in row.tolist()) for row in m.coeffs)
    primes = _lift_primes(m.meta.p, 4 * h2)
    if stats is not None:
        stats["moduli"] = primes
    if not primes:
        return 0
    crt = _MixedRadix()
    for run in _runs(primes, n * n):
        dets = _det_mod_stack(np.broadcast_to(m.coeffs, (len(run), n, n)), np.array(run))
        for q, d in zip(run, dets[:, None]):
            crt.fold(d, q)
    return crt.lift().tolist()[0]


# -- the tables of one p shared by the modular backends -----------------------


class _PrimeTables:
    """Everything the modular backends read of one p, each part found or built once, on first
    use, and shared by every caller, so read-only: the auxiliary primes found so far, in the
    order of `aux_primes(p)`; g = primitive_root(p) with pow_g[k] = g^k mod p (k < p-1) and
    log_g[g^k mod p] = k (log_g[0] = 0); per prime q, the power table of an element r of order
    p in F_q (`pow_r`), whose nodes r^t (t = 1..p-1) the one evaluator (`values`) and the one
    interpolation (`interpolate`) read.

    Iterating yields the primes from the first; every iterator reads the one list, and the
    stream is scanned only past its end, so interleaved iterators yield the same sequence.
    An iterator keeps the tables it started on, whatever `_tables` holds later."""

    __slots__ = ("p", "g", "pow_g", "log_g", "_primes", "_stream", "_pow_r")

    def __init__(self, p: int) -> None:
        self.p, self._primes, self._stream, self._pow_r = p, [], aux_primes(p), {}
        self.g = primitive_root(p)
        self.pow_g = np.array([pow(self.g, k, p) for k in range(p - 1)], dtype=np.int64)
        self.log_g = np.append(0, np.argsort(self.pow_g))  # pow_g permutes 1 .. p-1
        self.pow_g.flags.writeable = self.log_g.flags.writeable = False

    def __iter__(self):
        for i in itertools.count():
            if i == len(self._primes):
                self._primes.append(next(self._stream))
            yield self._primes[i]

    def pow_r(self, q: int) -> np.ndarray:
        """pow_r[e] = r^e mod q (e < p) for r = w^((q-1)/p), w >= 2 the least that makes r != 1,
        an element of order p in F_q for a prime q = 1 (mod p).  Evaluation (`values`) sums
        p-1 int64 products of a residue and a number below q in absolute value, and
        interpolation at most p-1 products of two residues; a q where such a sum could wrap,
        (p-1)(q-1)^2 >= 2^63, is refused."""
        table = self._pow_r.get(q)
        if table is None:
            p = self.p
            if (p - 1) * (q - 1) ** 2 >= 1 << 63:
                raise OverflowError(f"sums of {p - 1} products mod q={q} overflow int64")
            r = next(r for w in range(2, q) if (r := pow(w, (q - 1) // p, q)) != 1)
            table = [1]
            for _ in range(p - 1):
                table.append(table[-1] * r % q)
            table = self._pow_r[q] = np.array(table, dtype=np.int64)
            table.flags.writeable = False
        return table

    def values(self, q: int, coeffs: np.ndarray, nodes=slice(None)) -> np.ndarray:
        """Rows of an `ExactMatrix` at the nodes pow_r(q)[1:][nodes] (a slice or an index
        array), in [0, q): int64 rows as they are (entries below AUX_PRIME_FLOOR < q), Python-int
        rows reduced.  The Vandermonde columns r^(i t) of the nodes are gathered from the power
        table, so that a run of primes (`_runs`) holds p entries per prime, not (p-1)^2."""
        if coeffs.dtype == object:
            coeffs = (coeffs % q).astype(np.int64)
        p = self.p
        return coeffs @ self.pow_r(q)[np.outer(np.arange(p - 1), np.arange(1, p)[nodes]) % p] % q

    def interpolate(self, q: int, w: np.ndarray) -> np.ndarray:
        """Coefficients mod q (int64, along axis 0) of the element x of degree < p-1 whose value
        at the node r^(g^k) (r of `pow_r(q)`) is w[k mod F], F = len(w) dividing p-1, w in [0, q)
        of shape (F,) or (F, columns): x's values are constant on the F cosets of the subgroup
        of index F of the nodes.  F = p-1 is the full inverse transform, its values in the
        order of g's powers.

        With v_t = x(r^t) for t = 0..p-1 (v_0 = x(1)) and c_(p-1) = 0, the inverse transform
        of length p gives p c_i = sum_t v_t r^(-ti), as sum_t r^(tj) is p when p | j and 0
        otherwise.  For i >= 1 let -i = g^l mod p: as t = g^k runs over the nodes,
        r^(-ti) = r^(g^(k+l)), so sum_(t>0) v_t r^(-ti) = sum_c w_c eta_(c+l) = W_l, with the
        Gauss periods eta_c = sum_(k = c mod F) r^(g^k) (Gauss, Disquisitiones Arithmeticae,
        §343 ff.) and W_j = sum_c w_c eta_(c+j), every index mod F.  For i = 0 the sum is
        ((p-1)/F) sum_c w_c.  As -(p-1) = 1 = g^0, c_(p-1) = 0 gives v_0 = -W_0.  Each W_j sums
        F <= p-1 products of two residues, which `pow_r` keeps below 2^63."""
        p, f = self.p, len(w)
        eta = self.pow_r(q)[self.pow_g].reshape(-1, f).sum(axis=0) % q
        big_w = eta[np.add.outer(np.arange(f), np.arange(f)) % f] @ w % q
        total = (p - 1) // f * w.sum(axis=0) % q
        c = np.concatenate([total[None], big_w[self.log_g[p - 1 : 1 : -1] % f]]) - big_w[0]
        return c % q * pow(p, -1, q) % q


@functools.lru_cache(maxsize=1)
def _tables(p: int) -> _PrimeTables:
    """The tables of the current p: a sweep takes every determinant and check of a prime
    before the next, so one p is kept."""
    return _PrimeTables(p)


# -- exact division in Z[zeta_p] --------------------------------------------


class _Pivot:
    """A Bareiss pivot den (`coeffs`, shape (p-1,)) and, per auxiliary prime q, found when
    a division first reads it, den^-1 mod q (p-1 coefficients in [0, q)), or None where den
    has a zero value mod q.  `_fraction_free` makes one of each pivot, so both divisions by
    it in a double step read one inverse per prime, and no inverse outlives its pivot."""

    __slots__ = ("coeffs", "_inverses")

    def __init__(self, coeffs: np.ndarray) -> None:
        self.coeffs, self._inverses = coeffs, {}

    def residues(self, flat: np.ndarray, tables: _PrimeTables, q: int) -> np.ndarray | None:
        """The rows `flat` (elements, p-1), int64 or Python ints, times den^-1 mod q, in
        [0, q): one `lincomb` product of flat mod q by den^-1 mod q, or None when q divides a
        conjugate of den.  den^-1's coefficients mod q interpolate its inverse values."""
        if q not in self._inverses:
            vals = tables.values(q, self.coeffs[None] % q, tables.pow_g - 1)[0]  # r^(g^k)
            inverse = None
            if vals.all():
                inv_vals = np.array([pow(v, -1, q) for v in vals.tolist()], dtype=np.int64)
                inverse = tables.interpolate(q, inv_vals)
            self._inverses[q] = inverse
        inverse = self._inverses[q]
        if inverse is not None:
            return lincomb(tables.p, inverse[None, None], np.asarray(flat % q, np.int64)[None])[0] % q


def _divide_exact(block: np.ndarray, pivot: _Pivot) -> np.ndarray:
    """Exact quotients of a block of elements of Z[zeta_p], shape (..., p-1), int64
    or Python ints, by a nonzero pivot den (`pivot.coeffs`, shape (p-1,)): one
    Bareiss division.

    Per auxiliary prime q, the quotients' residues are one `lincomb` product, the
    block's rows mod q times den^-1 mod q (`_Pivot.residues`), folded into
    one mixed-radix CRT (`_MixedRadix`); a q where den has a zero value is
    skipped.  Once every top digit reads a lift below a quarter of the modulus,
    the lift (int64 while M < 2^63, `_MixedRadix.lift`) is checked by one
    re-multiplication of the whole lift by den (`cycring.lincomb`), compared
    with the block, which proves it, so a wrong answer is impossible; a lift
    that fails goes on to the next prime.

    The product is the quotient's residue.  For q = 1 (mod p), 1 + x + ... +
    x^(p-1) is the product of the x - r^t over F_q, so evaluation at the nodes
    r^t is a ring isomorphism F_q[x]/(1 + ... + x^(p-1)) -> F_q^(p-1), and
    reduction mod q a ring map from Z[zeta_p] onto the left side (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 5 and 10).  With no zero
    value, den mod q is a unit there, and its inverse e has the values
    1/den(r^t), which interpolate to e's coefficients mod q.  A block element
    y = x den, x in Z[zeta_p], is x den mod q, so x = y e mod q: the product of
    y mod q and e mod q, exact under `lincomb`'s stated bound, reduced mod q.
    They are the residues that scaling y's values by den's inverse values and
    interpolating gives, as y e has the values y(r^t)/den(r^t).

    The stop for a non-exact division is proven.  With l1 the sum of absolute
    coefficients, L = max_x l1(x) * l1(den)^(p-2) bounds every embedding of an
    exact quotient: |sigma(x)| <= l1(x), and N(den) is a nonzero integer, so
    1/|sigma(den)| <= prod of the other p-2 |tau(den)| <= l1(den)^(p-2).  The
    traces (`_coset_bounds_sq`) put its coefficients below 2L.  Once the
    modulus M passes 16L they are below M/8, so the lift is the quotient and
    its top digits pass (`_MixedRadix.fits`), and the division has been proven; a
    division still unproven there raises.
    """
    den = pivot.coeffs
    if not (den != 0).any():
        raise ZeroDivisionError("division by zero")
    p = len(den) + 1
    flat = block.reshape(-1, p - 1)  # (elements, p-1), in its own dtype
    give_up = None  # 16L, taken once a lift goes unproven
    crt, tables = _MixedRadix(), _tables(p)
    for q in tables:
        residues = pivot.residues(flat, tables, q)
        if residues is None:
            continue  # q divides a conjugate of den; unusable
        crt.fold(residues.reshape(block.shape), q)
        if crt.fits().all():
            quots = crt.lift()
            if np.array_equal(lincomb(p, den[None, None], quots.reshape(1, -1, p - 1))[0], flat):
                return quots
        if give_up is None:
            l1 = max(abs(flat).sum(axis=1, dtype=object))
            give_up = 16 * l1 * sum(map(abs, den.tolist())) ** (p - 2)
        if crt.modulus > give_up:
            raise ArithmeticError("Bareiss division was not exact")


# -- cyclotomic backends ----------------------------------------------------


def det_cyc_bareiss(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Fraction-free elimination over Z[zeta_p] with verified exact divisions."""
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    sign, last = _fraction_free(m.coeffs, lambda w, r: lincomb(m.meta.p, w, r), _divide_exact,
                                _Pivot)
    return CycElt._new(m.meta.p, [sign * c for c in last.tolist()])


def _times_zeta(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """zeta^(e_i) x_i for the rows x_i of a coefficient array (rows, n, p-1), 0 < e_i < p: a
    rotation of the p powers (power p-1 of x is 0), read from the window at p - e_i of the
    powers written twice, and zeta^(p-1) then removed."""
    padded = np.concatenate([x, np.zeros_like(x[..., :1])], axis=-1)
    p = padded.shape[-1]
    twice = np.concatenate([padded, padded], axis=-1)
    out = np.lib.stride_tricks.sliding_window_view(twice, p, axis=-1)[np.arange(len(x)), :, p - e]
    return out[..., :-1] - out[..., -1:]


def _galois_sign(block: np.ndarray, p: int, order=None) -> int | None:
    """(-1)^(m-1) when sigma_b: zeta -> zeta^b, b = g^2, maps each of the m rows of `block`,
    a coefficient array (rows, ..., p-1), taken in `order` (index array, default as they
    stand) to the next, the last to the first: an m-cycle P of sign (-1)^(m-1), and
    sigma_b(M) = P M for the matrix M of those rows.  1 when it fixes each row (P = 1; a shift
    of equal rows reads as the shift), and None otherwise: the rows are compared exactly, so
    the answer holds for any input.  The images (`galois_image`; int64 rows are below
    AUX_PRIME_FLOOR, so its differences fit) are taken a run of rows at a time (`_runs`,
    which bounds the transient) up to the first run that neither holds for."""
    order = np.arange(len(block)) if order is None else order
    b, size = _tables(p).g ** 2 % p, block[0].size
    shift = fixed = True
    for run, after in zip(_runs(order, size), _runs(np.roll(order, -1), size)):
        x = block[run]
        image = galois_image(x, b)
        shift = shift and np.array_equal(image, block[after])
        fixed = fixed and np.array_equal(image, x)
        if not (shift or fixed):
            return None
    return (-1) ** (len(order) - 1) if shift else 1


def _orbit_step(rows: np.ndarray) -> tuple[int, int]:
    """(f, s) = (2, s) when `_galois_sign` certifies sigma_b(M) = P M, b = g^2, for M (`rows`:
    its (n, n, p-1) coefficient array) and P of sign s, and (p-1, 1) otherwise.  Every family
    of `matrices` is a function of j^2 and k^2, so sigma_b fixes each row or maps row
    j = +-g^u (1 <= j <= m) to row +-g^(u+1), the next in the order of the squares
    j^2 = g^(2u), u < m, and the last to the first (g^m = -1).  So an m x m matrix, and an
    (m+1) x (m+1) one past its row 0, which sigma_b must fix, take their rows in that order,
    and any other n as they stand; rows that sigma_b permutes some other way take p-1 nodes.

    As det(sigma_b M) = sigma_b(det M) and det(P*M) = s det M, sigma_(b^j)(det M) = s^j det M.
    The value of det M at the node r^(g^(i+2j)) is that of sigma_(b^j)(det M) at r^(g^i), s^j
    times the value of det M there: the nodes r and r^g, one per coset of the squares, give
    all p-1.  b has order e = (p-1)/2, so det M = s^e det M; with s = -1 and e odd that proves
    det M = 0: every value is 0, on any F cosets.  The paper's square_perm_sign
    is this sign: x -> a^2 x on the squares has sign (a/p)."""
    n, p = len(rows), rows.shape[2] + 1
    half = (p - 1) // 2
    order = np.argsort(_tables(p).log_g[1 : half + 1] % half)  # j - 1 for u = 0 .. m-1
    if n == half + 1:
        s = _galois_sign(rows, p, order + 1) if _galois_sign(rows[:1], p) == 1 else None
    else:
        s = _galois_sign(rows, p, order if n == half else None)
    return (p - 1, 1) if s is None else (2, s)


_EPS = 2.0**-30  # the float64 margin of `_coset_bounds_sq`, absolute per l and relative


def _coset_bounds_sq(rows: np.ndarray, f: int, powers=None) -> list[int]:
    """Per coset embedding sigma_a: zeta -> exp(2 pi i a/p), a = g^i for i < f
    (g = primitive_root(p), from `_tables`), an integer >= prod_j (sum_k |sigma_a(x_jk)|^2)^
    (powers_j) over the rows x_j of `rows`, shape (r, k, p-1), each to its power (default 1).
    For M's (n, n, p-1) array and the f of `_orbit_step` (or p-1), the largest is an
    H^2 >= |sigma(det M)|^2 at every embedding: Hadamard bounds |det sigma_a(M)| by the row
    norms, and sigma_(a g^f)(M) = P sigma_a(M) permutes the rows.  As Tr(zeta^k) = -1 for
    p !| k, p b_k = Tr(det zeta^(-k)) - Tr(det zeta): every coefficient |b_k| < 2H.

    The sums are float64, a run of rows at a time (`_runs`), u = 2^-53; the dot products
    go through einsum, not BLAS, whose buffers the rest of a sweep never pays for.  For
    x = sum c_i zeta^i (i < p-1), l = sum |c_i| is exact.  Each c_i converts to float within
    u|c_i| (Python ints round correctly); the angle 2 pi j/p is within 3.1u 2 pi < 2^-48 of its
    value, and its cos or sin (`math`) within 2^-40 of its own (any libm within 2^11 ulp); a dot
    product of m = p-1 terms, in any order, errs by at most gamma_m sum |c_i w_i|,
    gamma_m = mu/(1 - mu) (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).  As
    p < 2^15 (`_PrimeTables` refuses larger p), gamma_m < 2^-37.9, and each of Re, Im is within
    l (2^-40 (1+u) + u + 2^-37.9 (1+u)(1+2^-40)) < 2^-37 l of its value, so |sigma_a(x)| <=
    |v| + 2^-36.5 l for the computed v, and e = _EPS l leaves over 2^-31 l >= 2^-31 of slack
    for any nonzero x, far above what underflow can take.  With |v| <= |Re| + |Im|,
    t^2 = Re^2 + Im^2 + 2e (|Re| + |Im|) + e^2 >= (|v| + e)^2.  From Re, Im and l on, every
    operation is a sum or a product of non-negative numbers, and each rounding loses at most a
    factor 1 - u; a row sum sum_k t^2 passes through at most k + 8 of them, so for k < 2^20
    (past that no (n, n, p-1) array fits in memory) the computed sum times fl(1 + _EPS) is at
    least the true one.  np.frexp makes each row sum an exact integer times a power of two,
    and their powers, product and ceiling are exact.  A run with a row whose l is 2^500 or
    more (its sum of squares could leave float64) takes the exact l bound sum_k l^2."""
    k = rows.shape[2]
    p = k + 1
    powers = np.ones(len(rows), dtype=np.int64) if powers is None else np.asarray(powers)
    a = _tables(p).pow_g[:f]
    table = np.array([(math.cos(2 * math.pi * j / p), math.sin(2 * math.pi * j / p))
                      for j in range(p)])
    w = table[np.outer(np.arange(p - 1), a) % p].reshape(p - 1, 2 * f)  # Re, Im of each a
    num, shift = np.ones(f, dtype=object), np.zeros(f, dtype=np.int64)
    for run in _runs(range(len(rows)), rows.shape[1] * k):
        x, power = rows[run[0] : run[-1] + 1], powers[run[0] : run[-1] + 1]
        ell = abs(x).sum(axis=2)  # exact, in the rows' dtype
        if ell.dtype == object and max(ell.ravel().tolist()) >= 1 << 500:
            sums = (sum(y * y for y in row) for row in ell.tolist())
            num *= math.prod(x ** e for x, e in zip(sums, power.tolist()))
            continue
        v = abs(np.einsum("jk,kl->jl", x.reshape(-1, k).astype(np.float64), w))
        v = v.reshape(*x.shape[:2], f, 2)
        e = _EPS * ell.astype(np.float64)[..., None]
        t2 = (v * v).sum(axis=3) + 2 * e * v.sum(axis=3) + e * e
        mant, expo = np.frexp(t2.sum(axis=1) * (1 + _EPS))  # (rows, f)
        ints = np.ldexp(mant, 53).astype(np.int64).astype(object)
        num *= np.prod(ints ** power[:, None].astype(object), axis=0)
        shift += ((expo - 53) * power[:, None]).sum(axis=0)
    return [x << s if s >= 0 else -(-x >> -s) for x, s in zip(num.tolist(), shift.tolist())]


# -- the circulant declarations of the cyclotomic families -------------------


def _certified(m: ExactMatrix) -> int | None:
    """The sign s with sigma_(g^2)(det M) = s det M when m's `Circulant` declaration holds,
    exactly, and None otherwise (or without a declaration).  On the declaration, sigma_(g^2)
    fixes the corner and maps first[w] to first[w+1] (w + 1 mod m), so M to P M for P an
    m-cycle of the block rows and s = (-1)^(m-1), or fixes first, so M, and s = 1
    (`_galois_sign`).  On m.coeffs, the border is (corner, x) with 1 in column 0, and every
    block row, times 1 - zeta^(j^2) when `scaled` (`_times_zeta`), equals its row of
    first[(u + v) % m] or first[(v - u) % m], compared a run of rows at a time (`_runs`)."""
    decl, p = m.circulant, m.meta.p
    half = (p - 1) // 2
    if decl is None or decl.first.shape != (half, p - 1) or m.n != half + (decl.border is not None):
        return None
    s = _galois_sign(decl.first, p)
    if s is None:
        return None
    block = m.coeffs
    if decl.border is not None:
        corner, x = decl.border
        if not (_galois_sign(corner[None], p) == 1
                and np.array_equal(block[0, 0], corner)
                and (block[0, 1:, 0] == x).all() and not block[0, 1:, 1:].any()
                and (block[1:, 0, 0] == 1).all() and not block[1:, 0, 1:].any()):
            return None
        block = block[1:, 1:]
    u = _tables(p).log_g[1 : half + 1] % half  # j^2 = g^(2u) for j = 1 .. m
    w = (u[:, None] + u) % half if decl.hankel else (u - u[:, None]) % half
    squares = np.arange(1, half + 1) ** 2 % p
    for run in _runs(range(half), half * p):
        rows = slice(run[0], run[-1] + 1)
        x = block[rows]
        if decl.scaled:
            x = x - _times_zeta(x, squares[rows])
        if not np.array_equal(x, decl.first[w[rows]]):
            return None
    return s


def _declared_bound_sq(decl, p: int) -> int:
    """H^2 as `_coset_bounds_sq` bounds M, for a certified declaration, from its distinct rows.

    At any embedding sigma_a, every block row holds the first row's entries, permuted, and
    1, and row 0 holds the corner and m copies of x, so Hadamard's product is
    (|sigma_a(corner)|^2 + m x^2) (1 + sum_w |sigma_a(first_w)|^2)^m, or
    (sum_w |sigma_a(first_w)|^2)^m without a border.  Row scaling multiplies it by
    1/|sigma_a(N)|^2, N = prod_s (1 - zeta^s) over the squares s; as
    N sigma_g(N) = prod_(k=1..p-1) (1 - zeta^k) = p, that is |sigma_(a g)(N)|^2 / p^2, and
    |sigma_(a g)(N)|^2 is at most the product of the bounds on |sigma_b(1 - zeta)|^2 over the
    b of the other coset, each read on 2^32 (1 - zeta), so that its ceiling adds little.
    Each factor is a bound of `_coset_bounds_sq`, under its float64 margin, and the f = 2
    cosets give every embedding as in `_coset_bounds_sq`."""
    half = (p - 1) // 2
    one = np.eye(1, p - 1, dtype=np.int64)
    if decl.border is None:
        bounds = _coset_bounds_sq(decl.first[None], 2, [half])
    else:
        corner, x = decl.border
        wide = one.astype(object) if abs(x) >= 1 << 62 else one  # x exact
        rows = [np.concatenate([corner[None], np.repeat(x * wide, half, axis=0)]),
                np.concatenate([one, decl.first])]
        bounds = _coset_bounds_sq(np.stack(rows), 2, [1, half])
    if decl.scaled:
        unit = _coset_bounds_sq((one - np.roll(one, 1))[None] << 32, p - 1)  # 2^32 (1 - zeta)
        bounds = [-(-bounds[i] * math.prod(unit[1 - i :: 2]) // (p * p << 64 * half))
                  for i in range(2)]
    return max(bounds)


def _times_power(res: np.ndarray, v: np.ndarray, k: int, q: np.ndarray) -> np.ndarray:
    """res v^k mod q per row, for one k >= 0, by k products."""
    for _ in range(k):
        res = res * v % q
    return res


def _resultants(h: np.ndarray, q: np.ndarray) -> np.ndarray:
    """R' = Res(1 + x + ... + x^(m-1), H) mod q for each row h of `h`, H = sum_w h_w x^w:
    the product of H(w) over the m-th roots of unity w other than 1 (in an extension of F_q).
    `h` is (stack, m) int64 in [0, q), `q` one prime per row.

    One Euclid runs on every row at once, in int64, each row mod its own q: every product
    is of two residues below q, refused from q = 2^31.  A = 1 + ... + x^(m-1) is monic, so
    Res(A, H) = Res(A, B) for B = H mod A.  With Res(A, B) = lc(A)^deg(B) prod_(A(x)=0) B(x),
    deg A = d and deg B = e (exact), Res(A, B) = (-1)^(d e) lc(B)^(d - r) Res(B, A mod B) for
    r = deg(A mod B), Res(A, B) = B^d for a constant B, and 0 for B = 0.  Each step takes
    the remainder's degree as e - 1, and the next step, once it reads r, corrects the power
    of lc(B).  The rows share each step's degrees: E's and F's rows, Legendre symbols alike
    at every node and prime, lose two degrees at the same early steps, and the others one at
    every step.  The rows whose B has a degree other than the stack's largest (a leading
    coefficient that vanishes mod q alone) are taken again, in a stack of their own; as a
    row of the largest degree is never among them, each such stack is smaller."""
    if q.max() >= 1 << 31:
        raise OverflowError(f"Euclid's products mod q={q.max()} can overflow int64")
    stack, m = h.shape
    qc, moduli = q[:, None], q.tolist()
    res = np.ones(stack, dtype=np.int64)
    if m == 1:
        return res
    a, b = res[:, None].repeat(m, axis=1), (h[:, :-1] - h[:, -1:]) % qc
    apart = np.zeros(stack, dtype=bool)
    while True:  # deg a = d >= 1, exact; b of degree below d
        d = e = a.shape[1] - 1
        e -= 1
        if not (apart | (b[:, -1] != 0)).all():  # a remainder lost more than one degree
            nonzero = (b != 0)[:, ::-1]
            deg = np.where(nonzero.any(axis=1), e - nonzero.argmax(axis=1), -1)
            e = deg[~apart].max(initial=-1)
            apart |= deg != e
            res = _times_power(res, a[:, -1], d - 1 - e, q)  # lc(a)^(d_prev - r) in all
            b = b[:, : e + 1]
        if e <= 0:
            res = _times_power(res, b[:, 0], d, q) if e == 0 else 0 * res
            break
        lead = b[:, -1]
        inv = np.array([pow(v, -1, r) if v else 0 for v, r in zip(lead.tolist(), moduli)],
                       dtype=np.int64)
        res = _times_power((-1) ** (d * e) * res, lead, d - e + 1, q)
        for i in range(d - e, -1, -1):  # a mod b: the top power of a drops at each i
            t = a[:, i + e] * inv % q
            a[:, i : i + e + 1] = (a[:, i : i + e + 1] - t[:, None] * b) % qc
        a, b = b, a[:, :e]
    if apart.any():
        res[apart] = _resultants(h[apart], q[apart])
    return res


def _declared_values(decl, tables: _PrimeTables, run: list, nodes: np.ndarray) -> np.ndarray:
    """det M mod each prime q of `run` at the nodes `tables.pow_r(q)[1:][nodes]`, shape
    (primes, f), for a certified declaration `decl`.

    Order rows and columns alike by u (which leaves det M as it is).  A circulant block
    Z_(u,v) = h_((v-u) mod m) has det Z = prod_(w^m = 1) H(w) = H(1) R', R' of `_resultants`
    (P. J. Davis, Circulant Matrices, 1979); a Hankel block is R Z, R: u -> -u mod m, of sign
    (-1)^floor((m-1)/2).  Expanding along row 0 and column 0, det M = c det B - x 1^T adj(B) 1
    for the block B and border (c, x), 1 in column 0.  adj(R Z) 1 = adj(Z) adj(R) 1 =
    det(R) adj(Z) 1, and Z = F^-1 diag(H(w)) F over the m-th roots of unity (F their Fourier
    matrix), so adj(Z) is F^-1 diag(prod_(w' != w) H(w')) F, and the constant vector, Z's
    eigenvector at w = 1, gives 1^T adj(Z) 1 = m R'.  So det M = +-R' (c H(1) - x m), and
    +-R' H(1) without a border, an identity of polynomials in h, c, x that holds mod q.  Row
    scaling makes it det(B)/N for N = prod_s (1 - zeta^s) over the squares s, and
    1/N = sigma_g(N)/p (N sigma_g(N) = p), at the node r^t prod_s (1 - r^(t g s)) / p."""
    p, f = tables.p, len(nodes)
    half = (p - 1) // 2
    q = np.repeat(run, f)
    h = np.concatenate([tables.values(prime, decl.first, nodes).T for prime in run])  # (.., m)
    dets, h1 = _resultants(h, q), h.sum(axis=1) % q
    if decl.border is None:
        dets = dets * h1 % q
    else:
        corner, x = decl.border
        c = np.concatenate([tables.values(prime, corner[None], nodes)[0] for prime in run])
        xm = np.repeat([x * half % prime for prime in run], f)  # Python ints: x any size
        dets = dets * ((c * h1 - xm) % q) % q
    if decl.hankel:
        dets = dets * (-1) ** ((half - 1) // 2) % q
    if decl.scaled:
        other = np.outer((nodes + 1) * tables.g, np.arange(1, half + 1) ** 2) % p
        for column in np.concatenate([1 - tables.pow_r(prime)[other] for prime in run]).T % q:
            dets = dets * column % q
        dets = dets * np.repeat([pow(p, -1, prime) for prime in run], f) % q
    return dets.reshape(len(run), f)


def det_cyc_evalinterp(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Evaluation-interpolation determinant over Z[zeta_p]: per auxiliary prime, at the
    f nodes r^(g^i), i < f.  Node r^(g^k) has s^(k // f) times the value at r^(g^(k mod f)),
    so the values are constant on the F = f cosets of the subgroup of index f when s = 1,
    and on the F = 2f of index 2f, (v, -v) for the f values v, when s = -1; they are
    interpolated as they stand (`_PrimeTables.interpolate`).  If 2f does not divide p-1,
    s = -1 makes every value 0 (`_orbit_step`), and F = f serves.  The CRT lift takes the
    shortest prefix of `aux_primes(p)` whose modulus passes 4H (at least one prime), H^2 a
    bound on every embedding of det M, which holds coefficients below 2H exactly
    (`_coset_bounds_sq`).  The primes are counted up front and taken together, in runs of
    at most _STACK_ENTRIES entries (`_runs`).

    A matrix whose `Circulant` declaration is certified on its coefficients (`_certified`,
    which gives s = (-1)^(m-1) or 1) takes f = 2, its H^2 from the declaration
    (`_declared_bound_sq`), and each value from one resultant of its first row
    (`_declared_values`).  Any other cyclotomic matrix
    takes the (f, s) of `_orbit_step` (f = 2 or p-1), H^2 from its dense rows, and each value
    from one elimination (`_det_mod_stack`) of its values at the node."""
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    p, n = m.meta.p, m.n
    s, tables = _certified(m), _tables(p)
    declared = s is not None
    if declared:
        f, h2, per_prime = 2, _declared_bound_sq(m.circulant, p), 2 * n
    else:
        f, s = _orbit_step(m.coeffs)
        h2, per_prime = max(_coset_bounds_sq(m.coeffs, f)), f * n * n
    primes = _lift_primes(p, 16 * h2 or 1)
    nodes = tables.pow_g[:f] - 1  # r^(g^k), k < f, in pow_r[1:]
    if stats is not None:
        stats.update(nodes=f, moduli=primes)
    crt = _MixedRadix()
    for run in _runs(primes, per_prime):
        if declared:
            dets = _declared_values(m.circulant, tables, run, nodes)
        else:
            vals = np.empty((len(run), f, n, n), dtype=np.int64)
            for q, v in zip(run, vals):
                v[:] = np.moveaxis(tables.values(q, m.coeffs, nodes), 2, 0)
            dets = _det_mod_stack(vals.reshape(-1, n, n), np.repeat(run, f)).reshape(-1, f)
        if s < 0 and (p - 1) % (2 * f) == 0:
            dets = np.hstack([dets, -dets % np.array(run)[:, None]])
        for q, w in zip(run, dets):
            crt.fold(tables.interpolate(q, w), q)
    return CycElt._new(p, crt.lift().tolist())


# -- exact matrix identities at the nodes --------------------------------------


def identity_holds(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix, g: CycElt,
                   stats: dict | None = None) -> bool:
    """Whether A B = g C exactly, for n x n matrices A, B, C over Z[zeta_p] and g in Z[zeta_p],
    from the matrices' values at the p-1 nodes mod the auxiliary primes; no product of
    elements is formed.

    The bound.  For x, y in Z[zeta_p] with l1 the sum of absolute coefficients, every
    coefficient of xy is at most l1(x) l1(y): the product of the two polynomials has l1 at
    most l1(x) l1(y), folding x^p = 1 adds its coefficients in pairs, and removing x^(p-1)
    by 1 + x + ... + x^(p-1) = 0 makes coefficient i the folded c_i - c_(p-1), at most
    |c_i| + |c_(p-1)| <= l1(folded).  So every coefficient of X = A B - g C is at most
    B = max_jl (sum_k l1(A_jk) l1(B_kl) + l1(g) l1(C_jl)), taken exactly: in int64 when a
    sum of the largest terms is below 2^63, in Python ints otherwise.

    Exactness.  For a prime q = 1 (mod p), 1 + x + ... + x^(p-1) is the product of the
    x - r^t over F_q, t = 1..p-1, r of order p (`_PrimeTables.pow_r`), so evaluation at the
    p-1 nodes is an isomorphism F_q[x]/(1 + ... + x^(p-1)) -> F_q^(p-1) (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 5 and 10), and a ring homomorphism: X = 0 mod q
    exactly when A_t B_t - g_t C_t = 0 mod q at every node t, for the matrices of values
    A_t, B_t, C_t and g's value g_t.  Over the shortest prefix of `aux_primes(p)` whose
    product M passes 2B (`_lift_primes` of 4B^2), a coefficient of X that vanishes mod
    every prime is a multiple of M of absolute value at most B < M, so 0.

    Headroom.  The values are in [0, q), so an entry of A_t B_t sums n products of at
    most (q-1)^2, and a q with n (q-1)^2 >= 2^63 is refused; g_t C_t is below q^2.  The
    nodes are taken a run at a time (`_runs`), which bounds the transient arrays.  With
    `stats`, records the `bound` B and the `moduli`."""
    p, n = a.meta.p, a.n
    if not (a.kind == "cyc" and a.coeffs.shape == b.coeffs.shape == c.coeffs.shape and g.p == p):
        raise ValueError("three n x n cyclotomic matrices and g over one p required")
    la, lb, lc = (abs(m.coeffs).sum(axis=2) for m in (a, b, c))  # int64: p-1 terms below 2^24
    lg = sum(map(abs, g.coeffs))
    if n * int(la.max()) * int(lb.max()) + lg * int(lc.max()) >= 1 << 63:
        la, lb, lc = (x.astype(object) for x in (la, lb, lc))
    bound = int((la @ lb + lg * lc).max())
    primes = _lift_primes(p, 4 * bound * bound)
    assert math.prod(primes) > 2 * bound, "the lift passes 2B"
    if stats is not None:
        stats.update(bound=bound, moduli=primes)
    tables, g_row = _tables(p), np.array(g.coeffs, dtype=object)[None]
    for q in primes:
        if n * (q - 1) ** 2 >= 1 << 63:
            raise OverflowError(f"sums of {n} products mod q={q} can overflow int64")
        g_vals = tables.values(q, g_row)[0]
        for run in _runs(range(p - 1), 3 * n * n):
            nodes = slice(run[0], run[-1] + 1)
            av, bv, cv = (np.moveaxis(tables.values(q, m.coeffs, nodes), 2, 0)
                          for m in (a, b, c))
            if ((av @ bv - g_vals[nodes, None, None] * cv) % q).any():
                return False
    return True


_CHOICES = {"bareiss": (0,), "modular": (1,), "both": (0, 1)}


def det(m: ExactMatrix, backend: str = "both") -> DetResult:
    """Determinant through the backend(s) chosen: the one dispatch path.

    backend: "bareiss", "modular" (CRT / evaluation-interpolation), or
    "both" (run the pair; `DetResult.value` requires bit-exact agreement).
    The backends are looked up as module globals on every call, so a
    rebinding of one (a tracer wrapping it) is seen here.  Each backend also
    takes an optional `stats` dict, where the modular ones record `moduli`
    (and evalinterp its `nodes`).
    """
    if backend not in _CHOICES:
        raise ValueError(f"unknown backend {backend!r}")
    if m.kind == "int":
        pair = (det_int_bareiss, det_int_modular)
    else:
        pair = (det_cyc_bareiss, det_cyc_evalinterp)
    return DetResult(tuple(pair[i](m) for i in _CHOICES[backend]))
