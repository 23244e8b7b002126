"""Exact determinants with two independent backends per entry kind.

Bareiss: one fraction-free elimination serves both rings, on one numpy array
per step: Python ints (dtype object) over Z, the (r, c, p-1) coefficient
array over Z[zeta_p].  It calls each ring function once per step, with no
list in between.  The update xs*piv - outer(col, ys) is elementwise over Z
and two packed products over Z[zeta_p] (`cycring.lincomb`): the pivot times
the whole block below, and the pivot column times the pivot row.  The
division by the previous pivot is `_divide_ints`, floor division checked by
one re-multiplication, or `_divide_exact`, which reduces the step's array mod
each auxiliary prime, lifts its quotients by one CRT and proves the lift by
one packed re-multiplication of the whole step; a division still unproven
once the modulus passes a proven bound on exact quotients was not exact and
raises.  There is no cap on the primes.  A CycElt is built only for a
determinant returned.

Modular: every CRT in this module is one mixed-radix conversion
(`_MixedRadix`) over one stream of primes, the auxiliary primes q = 1 (mod p)
above AUX_PRIME_FLOOR (`aux_primes`): residues stay int64, each prime adds a
digit, and Python ints are built once, when the lift stops.  A modular
determinant counts its primes up front (`_lift_primes`) and takes every
scalar determinant, at every prime and node, by one int64 elimination
(`_det_mod_stack`, no floats), each matrix mod its own prime, in runs that
bound its memory (`_runs`).  Integer matrices are lifted past twice the
Hadamard bound.  Cyclotomic matrices are evaluated at one element of order p
in F_q per orbit of a Galois symmetry certified on the matrix (`_orbit_step`),
the values broadcast to all p-1 nodes, and the coefficients recovered by the
inverse transform on the same power table r^e mod q that evaluated them, then
CRT-lifted past a proven coefficient bound.

Every matrix's coefficient array has the dtype of `matrices._int_array`: int64
only while every entry is below AUX_PRIME_FLOOR in absolute value, Python ints
otherwise.  Every int64 sum here is of `count` products of at most (q-1)^2,
refused up front when count (q-1)^2 >= 2^63: p-1 products per value in
`_EvalData`, n-1 updates of an entry in [0, q) in `_det_mod_stack` (the
largest q of the stack); the products of `_MixedRadix` are of two numbers
below its primes, refused from 2^31.  As every auxiliary prime q exceeds the floor, `_EvalData.values`, the
one evaluator, takes int64 rows unreduced; the exact divider hands it rows
reduced mod q.  A Bareiss step's int64 arrays come from `lincomb`, whose
entries are at most 2 bound < 2^62, so their difference fits int64.
"""
from __future__ import annotations

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
# (`_runs`): 8 primes at n = 45 with f = 4 nodes, one at n = 249, where a stack
# of every prime doubles the peak RSS of S(499); 2^17 adds 1 MiB to C(199)'s.
# The same bound takes the row images of `_orbit_step` in runs.
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


def _fraction_free(a: np.ndarray, update, divide) -> tuple:
    """Bareiss elimination on one array per step: the (n, n) entries over Z, or the
    (n, n, p-1) coefficients over Z[zeta_p].  First nonzero pivot per column, row
    swaps signed.

    Each step replaces the block by its trailing block.  `update(a)` returns the
    rows x*piv - a*y for every row [a, *xs] below the pivot row [piv, *ys]; after
    the first step `divide(block, prev)` returns its exact quotients by the
    previous pivot.  So each ring function is called once per step, on the
    step's whole array.  Returns (sign of the row swaps, last pivot), or
    (1, a zero pivot) at a zero column.
    """
    sign, prev = 1, None
    while len(a) > 1:
        nonzero = (a[:, 0] != 0).reshape(len(a), -1).any(axis=1)
        r = int(nonzero.argmax())
        if not nonzero[r]:
            return 1, a[0, 0]
        if r:
            order = np.arange(len(a))
            order[[0, r]] = r, 0
            a, sign = a[order], -sign
        piv = a[0, 0]
        a = update(a)
        if prev is not None:
            a = divide(a, prev)
        prev = piv
    return sign, a[0, 0]


def _update_ints(a: np.ndarray) -> np.ndarray:
    """The step's updates over Z (dtype object): xs*piv - outer(col, ys)."""
    return a[1:, 1:] * a[0, 0] - np.outer(a[1:, 0], a[0, 1:])


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
    sign, last = _fraction_free(m.coeffs.astype(object), _update_ints, _divide_ints)
    return sign * last


def det_int_modular(m: ExactMatrix, stats: dict | None = None) -> int:
    """CRT over the shortest prefix of `aux_primes(p)`, the stream of the cyclotomic
    backends, whose modulus passes 2H, H^2 the Hadamard bound `_embedding_bound_sq`
    (the l of an integer is its absolute value); a zero row makes H = 0 and takes
    no prime.  The primes are counted up front and eliminated together, in runs
    of at most _STACK_ENTRIES entries (`_runs`)."""
    if m.kind != "int":
        raise ValueError("integer matrix required")
    n = m.n
    primes = _lift_primes(m.meta.p, 4 * _embedding_bound_sq(m.coeffs[..., None]))
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
        """Rows from `_int_array` at pow_r[1:][nodes] (a slice or an index array), in [0, q):
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
    or Python ints, by a nonzero den, shape (p-1,): the rows of a Bareiss step.

    The block's elements and den are reduced mod q and evaluated at the
    order-p nodes of F_q once per auxiliary prime q, so `_EvalData.values`
    takes int64 entries in [0, q).  Where den has no zero value, every
    element's values are scaled by den's inverse values,
    interpolated and folded into one mixed-radix CRT (`_MixedRadix`).  Once
    every top digit reads a lift below a quarter of the modulus, one packed
    re-multiplication of the whole lift by den (`cycring.lincomb`), compared
    with the block, checks it, which proves it, so a wrong answer is
    impossible; a lift that fails goes on to the next prime.

    The stop for a non-exact division is proven.  With l1 the sum of absolute
    coefficients, L = max_x l1(x) * l1(den)^(p-2) bounds every embedding of an
    exact quotient: |sigma(x)| <= l1(x), and N(den) is a nonzero integer, so
    1/|sigma(den)| <= prod of the other p-2 |tau(den)| <= l1(den)^(p-2).  The
    traces (`_embedding_bound_sq`) put its coefficients below 2L.  Once the
    modulus M passes 16L they are below M/8, so the lift is the quotient and
    its top digits pass (`_MixedRadix.fits`), and the step has been proven; a
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
            if np.array_equal(lincomb(p, den[None, None], quots.reshape(1, -1, p - 1))[0], flat):
                return quots
        if give_up is None:
            l1 = max(abs(flat).sum(axis=1, dtype=object))
            give_up = 16 * l1 * sum(map(abs, den.tolist())) ** (p - 2)
        if crt.modulus > give_up:
            raise ArithmeticError("Bareiss division was not exact")


# -- cyclotomic backends ----------------------------------------------------


def _update_cyc(a: np.ndarray) -> np.ndarray:
    """The step's updates over Z[zeta_p], a its (r, c, p-1) array: xs*piv - outer(col, ys)
    as two packed products (`cycring.lincomb`), the pivot times the whole block below and
    the pivot column times the pivot row, which is packed once."""
    p, r, c = a.shape[2] + 1, len(a) - 1, a.shape[1] - 1
    scaled = lincomb(p, a[:1, :1], a[1:, 1:].reshape(1, r * c, p - 1)).reshape(r, c, p - 1)
    cross = lincomb(p, a[1:, :1], a[:1, 1:])
    # lincomb folds in int64 only while 4 bound < 2^63, its entries at most 2 bound
    assert all(x.dtype == object or -(1 << 62) < x.min() and x.max() < 1 << 62
               for x in (scaled, cross)), "int64 update headroom"
    if cross.dtype == object:
        scaled = scaled.astype(object, copy=False)
    scaled -= cross  # in place: one array of the step's size fewer
    return scaled


def det_cyc_bareiss(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Fraction-free elimination over Z[zeta_p] with verified exact divisions."""
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    sign, last = _fraction_free(m.coeffs, _update_cyc, _divide_exact)
    return CycElt._new(m.meta.p, [sign * c for c in last.tolist()])


def _orbit_step(rows: np.ndarray) -> int:
    """The least f | p-1 for which sigma_b: zeta -> zeta^b, b = g^f (g = primitive_root(p)),
    maps M (`rows`: its (n, n, p-1) coefficient array) to P*M, P a row permutation of sign +1.

    sigma_b moves coefficient i to power b*i mod p; zeta^(p-1) is then removed.  The images of
    the rows are taken by one fancy index per run of rows (`_runs`, which bounds the transient),
    matched by a hash of their bytes (int64) or of their tuple (Python ints), and every match is
    confirmed by comparing the arrays: a row met twice or not at all, or a hash collision,
    rejects f; f = p-1 (b = 1) always holds.  int64 rows are below AUX_PRIME_FLOOR
    (`_int_array`), so their differences are far inside int64.  As det(sigma_b M) = sigma_b(det M)
    and det(P*M) = det M, det M is fixed by <sigma_b>: its value at the node r^t depends only on
    the coset t<b>, so the f nodes r^(g^j), j < f, give all."""

    def key(row: np.ndarray) -> int:  # the bytes of an object array are pointers, not values
        return hash(tuple(row.ravel().tolist()) if row.dtype == object else row.tobytes())

    n, p = len(rows), rows.shape[2] + 1
    index = {key(row): j for j, row in enumerate(rows)}
    g = primitive_root(p)
    for f in (f for f in range(1, p - 1) if (p - 1) % f == 0):
        source = np.arange(p) * pow(g, -f, p) % p  # power b*i of sigma_b(x) is power i of x
        perm = []
        for run in _runs(range(n), n * p):  # up to the first run with a row unmatched
            images = rows[run[0] : run[-1] + 1, :, np.minimum(source, p - 2)]
            images[..., source == p - 1] = 0  # power p-1 of x is 0
            images -= images[..., -1:]
            images = images[..., :-1]
            found = [index.get(key(image), -1) for image in images]
            if min(found) < 0 or not np.array_equal(rows[found], images):
                break
            perm += found
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        if sorted(perm) == list(range(n)) and inversions % 2 == 0:
            return f
    return p - 1


def _embedding_bound_sq(coeffs: np.ndarray) -> int:
    """H^2 = prod_rows sum_k l(M_jk)^2, so that H >= |sigma(det M)| for every embedding sigma.

    For x = sum b_i zeta^i (i < p-1) and c a median of the b_i, l(x) = min(sum |b_i|, sum |b_i - c|
    + |c|) bounds |sigma(x)|, as x = sum (b_i - c) zeta^i - c zeta^(p-1); Hadamard gives H.  As
    Tr(zeta^k) = -1 for p !| k, p b_k = Tr(det zeta^(-k)) - Tr(det zeta): every |b_k| < 2H.
    `coeffs` is M's (n, n, k) array, k = 1 for an integer matrix (l(x) = |x|).  int64 rows
    (`_int_array`) sum p-1 terms below 2^25, far below 2^63."""
    h2, mid = 1, coeffs.shape[2] // 2
    for row in coeffs:  # a row at a time: transients of n entries
        c = np.sort(row, axis=1)[:, mid : mid + 1]
        ell = np.minimum(abs(row).sum(axis=1), abs(row - c).sum(axis=1) + abs(c[:, 0]))
        h2 *= sum(x * x for x in ell.tolist())
    return h2


def det_cyc_evalinterp(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Evaluation-interpolation determinant over Z[zeta_p]: per auxiliary prime, at the
    f nodes of `_orbit_step`, broadcast to all p-1 by coset; the CRT lift takes the
    shortest prefix of `aux_primes(p)` whose modulus passes 4H (at least one prime),
    which holds coefficients below 2H exactly.  The primes are counted up front and
    their f scalar determinants eliminated together, in runs of at most
    _STACK_ENTRIES entries (`_runs`)."""
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    p, n = m.meta.p, m.n
    f, g = _orbit_step(m.coeffs), primitive_root(p)
    primes = _lift_primes(p, 16 * _embedding_bound_sq(m.coeffs) or 1)
    columns = np.array([pow(g, k, p) - 1 for k in range(p - 1)])  # node r^(g^k) in data.vand()
    coset = np.argsort(columns) % f  # node r^t takes the value of r^(g^(k mod f)), t = g^k
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
            crt.fold(d.interpolate(dets_q[coset]), d.q)
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
