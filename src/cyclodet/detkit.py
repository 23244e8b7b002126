"""Exact determinants with two independent backends per entry kind.

Bareiss: one two-step fraction-free elimination (`_fraction_free`) serves both
rings, on one numpy array per step: Python ints (dtype object) over Z, the
(r, c, p-1) coefficient array over Z[zeta_p], each with its product
(`np.matmul`, `cycring.lincomb`) and exact divider.  A double step removes two
columns by two divisions by the pivot of two steps back, both exact by
Sylvester's identity.  `_divide_ints` is floor division checked by one
re-multiplication; `_divide_exact` reduces its array mod each auxiliary prime,
lifts its quotients by one CRT and proves the lift by one
re-multiplication; a division still unproven once the modulus passes a proven
bound on exact quotients was not exact and raises.  There is no cap on the
primes.  A CycElt is built only for a determinant returned.

Modular: every CRT in this module is one mixed-radix conversion
(`_MixedRadix`) over one stream of primes, the auxiliary primes q = 1 (mod p)
above AUX_PRIME_FLOOR (`aux_primes`): residues stay int64, each prime adds a
digit, and Python ints are built once, when the lift stops.  A modular
determinant counts its primes up front (`_lift_primes`) and takes every
scalar determinant, at every prime and node, by one int64 elimination
(`_det_mod_stack`, no floats), each matrix mod its own prime, in runs that
bound its memory (`_runs`).  Integer matrices are lifted past twice the
Hadamard bound, taken exactly.  Cyclotomic matrices are evaluated at two
elements of order p in F_q, one per coset of the squares, when sigma_(g^2)
is certified on the matrix as a row permutation P of either sign
(`_orbit_step`), the values broadcast to all p-1 nodes, each step along a
coset times sign(P), and at all p-1 nodes otherwise; the coefficients are
recovered by the inverse transform on the same power table r^e mod q that
evaluated them, then CRT-lifted past twice a Hadamard bound on the f coset
embeddings (`_embedding_bound_sq`, the one float64 computation here, under a
proven margin).

Every matrix's coefficient array has the dtype of the one rule that
`ExactMatrix` applies to every array it is given: int64 only while every
entry is below AUX_PRIME_FLOOR in absolute value, Python ints otherwise.
Every int64 sum here is of `count` products of at most (q-1)^2, refused up
front when count (q-1)^2 >= 2^63: p-1 products per value in `_EvalData`,
n-1 updates of an entry in [0, q) in `_det_mod_stack` (the largest q of the
stack); the products of `_MixedRadix` are of two numbers below its primes,
refused from 2^31.  As every auxiliary prime q exceeds the floor,
`_EvalData.values`, the one evaluator, takes int64 rows unreduced; the exact
divider hands it rows reduced mod q.  A Bareiss step's products come from
`lincomb`, int64 only while 4 bound < 2^63 for the bound of its sums (then by
one int64 matmul per term where that is cheaper than packing), and every int64
entry is at most 2 bound < 2^62, so the difference of two fits int64; the
quotients of `_divide_exact` are int64 when the proven modulus M is below
2^63, as every |v| < M/2 <= 2^62, and Python ints otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycring import CycElt, lincomb
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
# The same bound takes the row images of `_orbit_step` and the float rows of
# `_embedding_bound_sq` in runs.
_STACK_ENTRIES = 1 << 16


def _lift_primes(p: int, bound_sq: int) -> list[int]:
    """The shortest prefix of `aux_primes(p)` whose product M has M^2 > bound_sq."""
    primes, modulus = [], 1
    for q in aux_primes(p):
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
    primes below 2^31, as every product is of two numbers below 2^31.  Python
    ints are built once, by Horner over the digits (`ints`).
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

    def ints(self) -> np.ndarray:
        """The values as Python ints (dtype object), in the residues' shape."""
        v = self.digits[-1].astype(object)
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


def _fraction_free(a: np.ndarray, product, divide) -> tuple:
    """Bareiss's two-step fraction-free elimination (Math. Comp. 22, 1968) on one array
    per step, (n, n) entries over Z or (n, n, p-1) coefficients over Z[zeta_p], with the
    ring's `lincomb` as `product(weights, rows)` and its exact `divide(block, d)`.

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
        d = c0[0]
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
    sign, last = _fraction_free(m.coeffs.astype(object), np.matmul, _divide_ints)
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
    return crt.ints()[0]


# -- evaluation data shared by the cyclotomic backends ---------------------


class _EvalData:
    """The power table of an element r of order p in F_q, for a prime q = 1 (mod p).

    pow_r[e] = r^e mod q.  The nodes are r^t = pow_r[t] for t = 1..p-1, and the
    Vandermonde matrix vand[i, t-1] = r^(i t) is gathered from the table where it is used,
    so that a run of primes (`_runs`) holds p entries per prime, not (p-1)^2.
    Evaluation and interpolation both sum p-1 int64 products of a residue and
    a number below q in absolute value; a q where such a sum could wrap is refused.
    """

    __slots__ = ("p", "q", "pow_r", "inv_p")

    def __init__(self, p: int, q: int) -> None:
        if (p - 1) * (q - 1) ** 2 >= 1 << 63:
            raise OverflowError(f"sums of {p - 1} products mod q={q} overflow int64")
        self.p = p
        self.q = q
        r = _order_p_element(p, q)
        pow_r = [1]
        for _ in range(p - 1):
            pow_r.append(pow_r[-1] * r % q)
        self.pow_r = np.array(pow_r, dtype=np.int64)
        self.inv_p = pow(p, -1, q)

    def vand(self, nodes=slice(None)) -> np.ndarray:
        """The columns of the Vandermonde matrix at the nodes pow_r[1:][nodes]."""
        p = self.p
        return self.pow_r[np.outer(np.arange(p - 1), np.arange(1, p)[nodes]) % p]

    def values(self, coeffs: np.ndarray, nodes=slice(None)) -> np.ndarray:
        """Rows of an `ExactMatrix` at pow_r[1:][nodes] (a slice or an index array), in [0, q):
        int64 rows as they are (entries below AUX_PRIME_FLOOR < q), Python-int rows reduced."""
        if coeffs.dtype == object:
            coeffs = (coeffs % self.q).astype(np.int64)
        return coeffs @ self.vand(nodes) % self.q

    def interpolate(self, vals: np.ndarray) -> np.ndarray:
        """Coefficients mod q of the element of degree < p-1 with values `vals` at the nodes.

        The inverse transform on the same table: with v_0 the value at 1,
        p c_i = sum_t v_t r^(-ti) over t = 0..p-1, and c_(p-1) = 0 fixes
        v_0 = -sum_(t>0) v_t r^t.  vand @ vals[::-1] is sum_(t>0) v_t r^(-ti).
        """
        q = self.q
        return (self.vand() @ vals[::-1] - self.pow_r[1:] @ vals) % q * self.inv_p % q


def _order_p_element(p: int, q: int) -> int:
    for w in range(2, q):
        r = pow(w, (q - 1) // p, q)
        if r != 1:
            return r
    raise ArithmeticError(f"no element of order {p} in F_{q}")


# -- exact division in Z[zeta_p] --------------------------------------------


def _divide_exact(block: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Exact quotients of a block of elements of Z[zeta_p], shape (..., p-1), int64
    or Python ints, by a nonzero den, shape (p-1,): one Bareiss division.

    The block's elements and den are reduced mod q and evaluated at the
    order-p nodes of F_q once per auxiliary prime q, so `_EvalData.values`
    takes int64 entries in [0, q).  Where den has no zero value, every
    element's values are scaled by den's inverse values,
    interpolated and folded into one mixed-radix CRT (`_MixedRadix`).  Once
    every top digit reads a lift below a quarter of the modulus, one
    re-multiplication of the whole lift by den (`cycring.lincomb`), compared
    with the block, checks it, which proves it, so a wrong answer is
    impossible; a lift that fails goes on to the next prime.

    The stop for a non-exact division is proven.  With l1 the sum of absolute
    coefficients, L = max_x l1(x) * l1(den)^(p-2) bounds every embedding of an
    exact quotient: |sigma(x)| <= l1(x), and N(den) is a nonzero integer, so
    1/|sigma(den)| <= prod of the other p-2 |tau(den)| <= l1(den)^(p-2).  The
    traces (`_embedding_bound_sq`) put its coefficients below 2L.  Once the
    modulus M passes 16L they are below M/8, so the lift is the quotient and
    its top digits pass (`_MixedRadix.fits`), and the division has been proven; a
    division still unproven there raises.
    """
    if not (den != 0).any():
        raise ZeroDivisionError("division by zero")
    p = len(den) + 1
    flat = block.reshape(-1, p - 1)  # (elements, p-1), in its own dtype
    give_up = None  # 16L, taken once a lift goes unproven
    crt = _MixedRadix()
    for q in aux_primes(p):
        data = _EvalData(p, q)
        den_vals = data.values((den[None] % q).astype(np.int64))[0]
        if np.any(den_vals == 0):
            continue  # q divides a conjugate of den; unusable
        inv_vals = np.array([pow(v, -1, q) for v in den_vals.tolist()], dtype=np.int64)
        quot_vals = data.values((flat % q).astype(np.int64, copy=False)) * inv_vals % q
        crt.fold(data.interpolate(quot_vals.T).T.reshape(block.shape), q)
        if crt.fits().all():
            quots = crt.ints()
            if crt.modulus < 1 << 63:
                quots = quots.astype(np.int64)  # every |v| < M/2 <= 2^62
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
    sign, last = _fraction_free(m.coeffs, lambda w, r: lincomb(m.meta.p, w, r), _divide_exact)
    return CycElt._new(m.meta.p, [sign * c for c in last.tolist()])


def _orbit_step(rows: np.ndarray) -> tuple[int, int]:
    """(f, s) = (2, s) when sigma_b: zeta -> zeta^b, b = g^2 (g = primitive_root(p)), maps M
    (`rows`: its (n, n, p-1) coefficient array) to P*M, P a row permutation of sign s; (p-1, 1)
    otherwise.  Every family of `matrices` is a function of j^2 and k^2, so sigma_b permutes
    its rows, and b = g^2 is the one step tried.

    sigma_b moves coefficient i to power b*i mod p; zeta^(p-1) is then removed.  The images of
    the rows are taken by one fancy index per run of rows (`_runs`, which bounds the transient),
    matched by a hash of their bytes (int64) or of their tuple (Python ints), and every match is
    confirmed by comparing the arrays: a row met twice or not at all, or a hash collision,
    rejects b, and the p-1 nodes (b = 1, s = 1) always hold.  int64 rows are below
    AUX_PRIME_FLOOR (`ExactMatrix`), so their differences are far inside int64.  As
    det(sigma_b M) = sigma_b(det M) and det(P*M) = s det M, sigma_(b^j)(det M) = s^j det M.
    The value of det M at the node r^(g^(i+2j)) is that of sigma_(b^j)(det M) at r^(g^i), s^j
    times the value of det M there: the nodes r and r^g, one per coset of the squares, give
    all p-1.  b has order
    e = (p-1)/2, so det M = s^e det M; with s = -1 and e odd that proves det M = 0, and the
    broadcast, 0 at every node, stays right.  The paper's square_perm_sign is this sign:
    x -> a^2 x on the squares has sign (a/p)."""

    def key(row: np.ndarray) -> int:  # the bytes of an object array are pointers, not values
        return hash(tuple(row.ravel().tolist()) if row.dtype == object else row.tobytes())

    n, p = len(rows), rows.shape[2] + 1
    index = {key(row): j for j, row in enumerate(rows)}
    source = np.arange(p) * pow(primitive_root(p), -2, p) % p  # power b*i of sigma_b(x) is i of x
    perm = []
    for run in _runs(range(n), n * p):  # up to the first run with a row unmatched
        images = rows[run[0] : run[-1] + 1, :, np.minimum(source, p - 2)]
        images[..., source == p - 1] = 0  # power p-1 of x is 0
        images -= images[..., -1:]
        images = images[..., :-1]
        found = [index.get(key(image), -1) for image in images]
        if min(found) < 0 or not np.array_equal(rows[found], images):
            return p - 1, 1
        perm += found
    if sorted(perm) != list(range(n)):
        return p - 1, 1
    return 2, (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])


_EPS = 2.0**-30  # the float64 margin of `_embedding_bound_sq`, absolute per l and relative


def _embedding_bound_sq(coeffs: np.ndarray, f: int) -> int:
    """An integer H^2 >= max_a prod_rows sum_k |sigma_a(M_jk)|^2 over the coset embeddings
    sigma_a: zeta -> exp(2 pi i a/p), a = g^i for i < f (g = primitive_root(p)), so that
    H >= |sigma(det M)| for every embedding sigma when f is the f of `_orbit_step` (or p-1).

    Hadamard bounds |sigma_a(det M)| = |det sigma_a(M)| by the product of the row norms, and
    sigma_(a g^f)(M) = P sigma_a(M) permutes the rows, so the f cosets give every embedding.  As
    Tr(zeta^k) = -1 for p !| k, p b_k = Tr(det zeta^(-k)) - Tr(det zeta): every coefficient
    |b_k| < 2H.  `coeffs` is M's (n, n, p-1) array.

    The rest is float64, a run of rows at a time (`_runs`), u = 2^-53; the dot products
    go through einsum, not BLAS, whose buffers the rest of a sweep never pays for.  For
    x = sum c_i zeta^i (i < p-1), l = sum |c_i| is exact.  Each c_i converts to float within
    u|c_i| (Python ints round correctly); the angle 2 pi j/p is within 3.1u 2 pi < 2^-48 of its
    value, and its cos or sin (`math`) within 2^-40 of its own (any libm within 2^11 ulp); a dot
    product of m = p-1 terms, in any order, errs by at most gamma_m sum |c_i w_i|,
    gamma_m = mu/(1 - mu) (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).  As
    p < 2^15 (`_EvalData` refuses larger p), gamma_m < 2^-37.9, and each of Re, Im is within
    l (2^-40 (1+u) + u + 2^-37.9 (1+u)(1+2^-40)) < 2^-37 l of its value, so |sigma_a(x)| <=
    |v| + 2^-36.5 l for the computed v, and e = _EPS l leaves over 2^-31 l >= 2^-31 of slack
    for any nonzero x, far above what underflow can take.  With |v| <= |Re| + |Im|,
    t^2 = Re^2 + Im^2 + 2e (|Re| + |Im|) + e^2 >= (|v| + e)^2.  From Re, Im and l on, every
    operation is a sum or a product of non-negative numbers, and each rounding loses at most a
    factor 1 - u; a row sum sum_k t^2 passes through at most n + 8 of them, so for n < 2^20
    (past that no (n, n, p-1) array fits in memory) the computed sum times fl(1 + _EPS) is at
    least the true one.  np.frexp makes each row sum an exact integer
    times a power of two, and their product and its ceiling are exact.  A row with an l of 2^500
    or more (its sum of squares could leave float64) takes the exact l bound sum_k l^2."""
    k = coeffs.shape[2]
    n, p = len(coeffs), k + 1
    g = primitive_root(p)
    a = [pow(g, i, p) for i in range(f)]
    table = np.array([(math.cos(2 * math.pi * j / p), math.sin(2 * math.pi * j / p))
                      for j in range(p)])
    w = table[np.outer(np.arange(p - 1), a) % p].reshape(p - 1, 2 * f)  # Re, Im of each a
    num, shift = np.ones(f, dtype=object), np.zeros(f, dtype=np.int64)
    for run in _runs(range(n), n * k):
        rows = coeffs[run[0] : run[-1] + 1]
        ell = abs(rows).sum(axis=2)  # exact, in the rows' dtype
        if ell.dtype == object and max(ell.ravel().tolist()) >= 1 << 500:
            num *= math.prod(sum(x * x for x in row) for row in ell.tolist())
            continue
        v = abs(np.einsum("jk,kl->jl", rows.reshape(-1, k).astype(np.float64), w))
        v = v.reshape(len(run), n, f, 2)
        e = _EPS * ell.astype(np.float64)[..., None]
        t2 = (v * v).sum(axis=3) + 2 * e * v.sum(axis=3) + e * e
        mant, expo = np.frexp(t2.sum(axis=1) * (1 + _EPS))  # (rows, f)
        num *= np.prod(np.ldexp(mant, 53).astype(np.int64).astype(object), axis=0)
        shift += (expo - 53).sum(axis=0)
    return max(x << s if s >= 0 else -(-x >> -s) for x, s in zip(num.tolist(), shift.tolist()))


def det_cyc_evalinterp(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Evaluation-interpolation determinant over Z[zeta_p]: per auxiliary prime, at the
    f nodes r^(g^i), i < f, of `_orbit_step` (f = 2 or p-1), broadcast to all p-1: node
    r^(g^k) takes s^(k // f) times the value at r^(g^(k mod f)).  The CRT lift takes the
    shortest prefix of `aux_primes(p)` whose modulus passes 4H (at least one prime), H^2 the
    bound of `_embedding_bound_sq` over the f coset embeddings, which holds
    coefficients below 2H exactly.  The primes are counted up front and their f
    scalar determinants eliminated together, in runs of at most _STACK_ENTRIES
    entries (`_runs`)."""
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    p, n = m.meta.p, m.n
    (f, s), g = _orbit_step(m.coeffs), primitive_root(p)
    primes = _lift_primes(p, 16 * _embedding_bound_sq(m.coeffs, f) or 1)
    columns = np.array([pow(g, k, p) - 1 for k in range(p - 1)])  # node r^(g^k) in data.vand()
    k = np.argsort(columns)  # node r^t is r^(g^k)
    coset, sign = k % f, np.where(k // f % 2, s, 1)
    if stats is not None:
        stats.update(nodes=f, moduli=primes)
    crt = _MixedRadix()
    for run in _runs(primes, f * n * n):
        data = [_EvalData(p, q) for q in run]
        vals = np.empty((len(run), f, n, n), dtype=np.int64)
        for d, v in zip(data, vals):
            v[:] = np.moveaxis(d.values(m.coeffs, columns[:f]), 2, 0)
        dets = _det_mod_stack(vals.reshape(-1, n, n), np.repeat(run, f)).reshape(-1, f)
        for d, dets_q in zip(data, dets):
            crt.fold(d.interpolate(dets_q[coset] * sign % d.q), d.q)
    return CycElt._new(p, crt.ints())


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
