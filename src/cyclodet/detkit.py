"""Exact determinants with two independent backends per entry kind.

Bareiss: one fraction-free elimination serves both rings and divides each
row's updates by the previous pivot in one call: `_divide_ints` with a
remainder check, or `_divide_exact`, which reconstructs the row's quotients by
CRT and stops when one packed re-multiplication proves them; a division still
unproven once the modulus passes a proven bound on exact quotients was not
exact and raises.  There is no cap on the primes.  A cyclotomic row update is
one packed combination of two rows (`cycring.lincomb`).

Modular: integer matrices are CRT-lifted over word-sized primes until the
modulus passes twice the Hadamard bound.  Cyclotomic matrices are evaluated
at one element of order p in F_q per orbit of a certified Galois symmetry,
for primes q = 1 (mod p), their determinants taken in one batched int64
elimination mod q (no floats) and broadcast to all p-1 nodes, and the
coefficients recovered by the inverse transform on the same power table
r^e mod q that built the evaluation (Vandermonde) matrix, then CRT-lifted
past a proven coefficient bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycring import CycElt, lincomb
from .matrices import ExactMatrix
from .modarith import aux_primes, primitive_root, word_primes_desc

_STACK_ENTRIES = 1 << 16  # int64 entries per (nodes, n, n) block: bounds evalinterp's transients


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


def _det_mod_stack(a: np.ndarray, q: int) -> np.ndarray:
    """Determinants mod a prime q of a stack of matrices, shape (stack, n, n).

    One Gaussian elimination over F_q runs on every matrix at once.  Each
    column takes every matrix's first nonzero pivot (a row swap flips its
    sign), and a zero column makes that matrix's determinant 0.  The trailing
    block is reduced mod q only before an update, of at most (q-1)^2 per
    entry, that could pass 2^63.  Entries beyond int64 may come as Python
    ints (dtype object).  Returns the determinants in [0, q) as int64.
    """
    if q * (q - 1) >= 1 << 63:
        raise OverflowError(f"products mod q={q} overflow int64")
    a = (a % q).astype(np.int64, copy=False)
    stack, n = a.shape[0], a.shape[1]
    each = np.arange(stack)
    det = np.ones(stack, dtype=np.int64)
    lazy = ((1 << 63) - q) // (q - 1) ** 2  # updates an entry in [0, q) takes below 2^63
    for k in range(n - 1):
        rows = k + np.argmax(a[:, k:, k] % q != 0, axis=1)
        swap = rows != k
        if swap.any():
            pivot_rows = a[each, rows, k:]
            a[each, rows, k:] = a[:, k, k:]
            a[:, k, k:] = pivot_rows
            det = np.where(swap, q - det, det)
        prow = a[:, k, k:] % q
        det = det * prow[:, 0] % q
        inv = np.array([pow(v, -1, q) if v else 0 for v in prow[:, 0].tolist()], dtype=np.int64)
        factors = a[:, k + 1 :, k] % q * inv[:, None] % q
        if k and k % lazy == 0:
            a[:, k + 1 :, k + 1 :] %= q
        a[:, k + 1 :, k + 1 :] -= factors[:, :, None] * prow[:, None, 1:]
    return det * (a[:, -1, -1] % q) % q


# -- fraction-free elimination and the integer backends ---------------------


def _fraction_free(rows, divide):
    """Bareiss elimination: first nonzero pivot per column, row swaps signed.

    After the first column, `divide(updates, prev)` returns the exact
    quotients of one row's updates by the previous pivot, so the divider is
    called once per row, as is `_update`.  Entries need truth and negation,
    so ints and CycElts go through the same loop.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                return a[k][k]  # the pivot column is zero: so is the determinant
            a[k], a[r] = a[r], a[k]
            sign = -sign
        piv = a[k][k]
        row_k = a[k]
        for row_i in a[k + 1 :]:
            updates = _update(row_i[k + 1 :], piv, row_k[k + 1 :], row_i[k])
            row_i[k + 1 :] = divide(updates, prev) if k else updates
        prev = piv
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


def _update(xs: list, piv, ys: list, aik) -> list:
    """[x*piv - aik*y] over a row's tail: elementwise for ints, one packed
    combination of the two rows for CycElts."""
    if isinstance(piv, int):
        return [x * piv - aik * y for x, y in zip(xs, ys)]
    p = piv.p
    (out,) = lincomb(p, [[piv.num, (-aik).num]], [[x.num for x in xs], [y.num for y in ys]])
    return [CycElt._new(p, c) for c in out]


def _divide_ints(values: list[int], den: int) -> list[int]:
    """Exact quotients of integers by den; a remainder raises."""
    pairs = [divmod(t, den) for t in values]
    if any(rem for _, rem in pairs):
        raise ArithmeticError("Bareiss division was not exact")
    return [quot for quot, _ in pairs]


def det_int_bareiss(m: ExactMatrix, stats: dict | None = None) -> int:
    """Fraction-free elimination over Z."""
    if m.kind != "int":
        raise ValueError("integer matrix required")
    return _fraction_free(m.rows, _divide_ints)


def det_int_modular(m: ExactMatrix, stats: dict | None = None) -> int:
    """CRT over word-sized primes up to the first modulus above 2H, H^2 the
    Hadamard bound `_embedding_bound_sq` (the l of an integer is its absolute
    value); a zero row makes H = 0 and takes no prime."""
    if m.kind != "int":
        raise ValueError("integer matrix required")
    arr = _int_array(m.rows)
    bound_sq = 4 * _embedding_bound_sq(arr.reshape(-1, 1), m.n)
    sym, modulus, moduli = [0], 1, []
    if stats is not None:
        stats["moduli"] = moduli
    for q in word_primes_desc():
        if modulus * modulus > bound_sq:
            return sym[0]
        sym, modulus = _crt_lift(sym, modulus, _det_mod_stack(arr[None], q), q)
        moduli.append(q)


# -- evaluation data shared by the cyclotomic backends ---------------------


class _EvalData:
    """The power table of an element r of order p in F_q, for a prime q = 1 (mod p).

    pow_r[e] = r^e mod q.  The nodes are r^t for t = 1..p-1, and the
    Vandermonde matrix vand[i, t-1] = r^(i t) is an index into the table.
    Evaluation and interpolation both sum p-1 products of residues mod q in
    int64, so a q for which such a sum could wrap is refused here.
    """

    __slots__ = ("p", "q", "pow_r", "nodes", "vand", "inv_p")

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
        self.nodes = pow_r[1:]
        self.vand = self.pow_r[np.outer(np.arange(p - 1), np.arange(1, p)) % p]
        self.inv_p = pow(p, -1, q)

    def interpolate(self, vals: np.ndarray) -> np.ndarray:
        """Coefficients mod q of the element of degree < p-1 with values `vals` at the nodes.

        The inverse transform on the same table: with v_0 the value at 1,
        p c_i = sum_t v_t r^(-ti) over t = 0..p-1, and c_(p-1) = 0 fixes
        v_0 = -sum_(t>0) v_t r^t.  vand @ vals[::-1] is sum_(t>0) v_t r^(-ti).
        """
        q = self.q
        return (self.vand @ vals[::-1] - self.pow_r[1:] @ vals) % q * self.inv_p % q


def _order_p_element(p: int, q: int) -> int:
    for w in range(2, q):
        r = pow(w, (q - 1) // p, q)
        if r != 1:
            return r
    raise ArithmeticError(f"no element of order {p} in F_{q}")


def _int_array(rows) -> np.ndarray:
    """Integer rows as int64, or as Python ints (dtype object) beyond int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:  # reduced mod each q as Python ints
        return np.array(rows, dtype=object)


def _coefficients(entries: list[CycElt]) -> np.ndarray:
    """The coefficient rows of integral elements, shape (elements, p-1)."""
    if not all(e.is_integral for e in entries):
        raise ValueError("integral cyclotomic entries required")
    return _int_array([e.num for e in entries])


def _values_at_nodes(reduced: np.ndarray, data: _EvalData, nodes=slice(None)) -> np.ndarray:
    """Evaluate coefficient rows reduced mod data.q (int64) at data.nodes[nodes], `nodes`
    a slice or an index array: shape (elements, nodes)."""
    return reduced @ data.vand[:, nodes] % data.q


def _crt_lift(sym: list[int], modulus: int, coeffs_q, q: int):
    """Fold one more prime's coefficient residues into a CRT lift.

    Start from ([0] * n, 1).  `sym` holds the lifted values in symmetric range
    mod `modulus` (odd, a product of odd primes); one conditional subtraction
    brings s + modulus * ((c - s) / modulus mod q) back into that range mod
    modulus * q.  Returns (sym, modulus * q).
    """
    inv = pow(modulus, -1, q)  # taken once per prime, not once per coefficient
    mq = modulus * q
    lifted = [s + modulus * ((c - s) * inv % q) for s, c in zip(sym, coeffs_q.tolist())]
    lifted = [t - mq if 2 * t > mq else t for t in lifted]
    return lifted, mq


# -- exact division of integral cyclotomic elements ------------------------


def _divide_exact(values: list[CycElt], den: CycElt) -> list[CycElt]:
    """Exact quotients of integral elements of Z[zeta_p] by a nonzero integral den.

    Per auxiliary prime q at which den has no zero value, the whole row is
    evaluated at the order-p nodes of F_q, scaled by den's inverse values,
    interpolated and CRT-lifted.  Once every lifted coefficient is below a
    quarter of the modulus, the candidates are checked by one packed
    re-multiplication, which proves them, so a wrong answer is impossible.

    The stop for a non-exact division is proven.  With l1 the sum of absolute
    coefficients, L = max_x l1(x) * l1(den)^(p-2) bounds every embedding of an
    exact quotient: |sigma(x)| <= l1(x), and N(den) is a nonzero integer, so
    1/|sigma(den)| <= prod of the other p-2 |tau(den)| <= l1(den)^(p-2).  The
    traces (`_embedding_bound_sq`) put its coefficients below 2L.  Once the
    modulus passes 8L an exact quotient is the lift, below a quarter of the
    modulus, and has been proven; a division still unproven there raises.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero")
    p = den.p
    coeffs, den_coeffs = _coefficients(values), _coefficients([den])
    give_up = 8 * max(sum(map(abs, x.num)) for x in values) * sum(map(abs, den.num)) ** (p - 2)
    sym, modulus = [0] * (len(values) * (p - 1)), 1
    for q in aux_primes(p):
        data = _EvalData(p, q)
        den_vals = _values_at_nodes((den_coeffs % q).astype(np.int64, copy=False), data)[0]
        if np.any(den_vals == 0):
            continue  # q divides a conjugate of den; unusable
        inv_vals = np.array([pow(v, -1, q) for v in den_vals.tolist()], dtype=np.int64)
        reduced = (coeffs % q).astype(np.int64, copy=False)
        qvals = _values_at_nodes(reduced, data) * inv_vals % q  # (elements, nodes)
        sym, modulus = _crt_lift(sym, modulus, data.interpolate(qvals.T).T.ravel(), q)
        if 4 * max(map(abs, sym)) < modulus:
            quots = [sym[i : i + p - 1] for i in range(0, len(sym), p - 1)]
            if lincomb(p, [[den.num]], [quots]) == [coeffs.tolist()]:
                return [CycElt._new(p, x) for x in quots]
        if modulus > give_up:
            raise ArithmeticError("Bareiss division was not exact")


# -- cyclotomic backends ----------------------------------------------------


def det_cyc_bareiss(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Fraction-free elimination over Z[zeta_p] with verified exact divisions."""
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    if not all(e.is_integral for row in m.rows for e in row):
        raise ValueError("integral entries required")
    return _fraction_free(m.rows, _divide_exact)


def _orbit_step(coeffs: np.ndarray, p: int, n: int) -> int:
    """The least f | p-1 for which sigma_b: zeta -> zeta^b, b = g^f (g = primitive_root(p)),
    maps M (`coeffs`: entries row-major, (n*n, p-1)) to P*M, P a row permutation of sign +1.

    sigma_b moves coefficient i to power b*i mod p; zeta^(p-1) is then removed.  Rows are matched
    by value (a hash of the tuple, then the arrays): a row met twice or not at all, or a hash
    collision, rejects f; f = p-1 (b = 1) always holds.  As det(sigma_b M) = sigma_b(det M) and
    det(P*M) = det M, det M is fixed by <sigma_b>: its value at the node r^t depends only on
    the coset t<b>, so the f nodes r^(g^j), j < f, give all."""
    rows = coeffs.reshape(n, n, p - 1)
    index = {hash(tuple(row.ravel().tolist())): j for j, row in enumerate(rows)}
    zero, g = np.zeros((n, 1), dtype=coeffs.dtype), primitive_root(p)
    for f in (f for f in range(1, p - 1) if (p - 1) % f == 0):
        source = np.arange(p) * pow(g, -f, p) % p  # power b*i of sigma_b(x) is power i of x
        perm = []
        for row in rows:  # up to the first row with no match
            image = np.hstack([row, zero])[:, source]
            image = image[:, :-1] - image[:, -1:]
            j = index.get(hash(tuple(image.ravel().tolist())), -1)
            perm.append(j if j >= 0 and np.array_equal(rows[j], image) else -1)
            if perm[-1] < 0:
                break
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        if sorted(perm) == list(range(n)) and inversions % 2 == 0:
            return f
    return p - 1


def _embedding_bound_sq(coeffs: np.ndarray, n: int) -> int:
    """H^2 = prod_rows sum_k l(M_jk)^2, so that H >= |sigma(det M)| for every embedding sigma.

    For x = sum b_i zeta^i (i < p-1) and c a median of the b_i, l(x) = min(sum |b_i|, sum |b_i - c|
    + |c|) bounds |sigma(x)|, as x = sum (b_i - c) zeta^i - c zeta^(p-1); Hadamard gives H.  As
    Tr(zeta^k) = -1 for p !| k, p b_k = Tr(det zeta^(-k)) - Tr(det zeta): every |b_k| < 2H."""
    h2, mid = 1, coeffs.shape[1] // 2
    for row in coeffs.reshape(n, n, -1):  # a row at a time: transients of n entries
        c = np.sort(row, axis=1)[:, mid : mid + 1]
        ell = np.minimum(abs(row).sum(axis=1), abs(row - c).sum(axis=1) + abs(c[:, 0]))
        h2 *= sum(x * x for x in ell.tolist())
    return h2


def det_cyc_evalinterp(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Evaluation-interpolation determinant over Z[zeta_p]: per auxiliary prime, at the
    f nodes of `_orbit_step`, broadcast to all p-1 by coset; the CRT lift stops at the
    first modulus above 4H, which holds coefficients below 2H exactly."""
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    p, n = m.meta.p, m.n
    coeffs = _coefficients([e for row in m.rows for e in row])
    if 2 * p * max(int(coeffs.max()), -int(coeffs.min())) >= 1 << 63:
        coeffs = coeffs.astype(object)  # sums of p-1 coefficients stay exact
    f, g = _orbit_step(coeffs, p, n), primitive_root(p)
    bound_sq = 16 * _embedding_bound_sq(coeffs, n)
    columns = np.array([pow(g, k, p) - 1 for k in range(p - 1)])  # node r^(g^k) in data.vand
    coset = np.argsort(columns) % f  # node r^t takes the value of r^(g^(k mod f)), t = g^k
    size = max(1, _STACK_ENTRIES // (n * n))  # nodes per block
    sym, modulus, moduli = [0] * (p - 1), 1, []
    if stats is not None:
        stats.update(nodes=f, moduli=moduli)
    for q in aux_primes(p):
        data = _EvalData(p, q)
        reduced = (coeffs % q).astype(np.int64, copy=False)
        dets = np.empty(f, dtype=np.int64)
        for block in (slice(start, min(start + size, f)) for start in range(0, f, size)):
            vals = _values_at_nodes(reduced, data, columns[block]).reshape(n, n, -1)
            dets[block] = _det_mod_stack(vals.transpose(2, 0, 1), q)
        sym, modulus = _crt_lift(sym, modulus, data.interpolate(dets[coset]), q)
        moduli.append(q)
        if modulus * modulus > bound_sq:
            return CycElt._new(p, sym)


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
    values = tuple(pair[i](m) for i in _CHOICES[backend])
    if m.kind == "cyc" and not all(v.is_integral for v in values):
        raise ArithmeticError("determinant of an integral matrix must be integral")
    return DetResult(values)
