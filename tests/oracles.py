"""Independent oracles used by the tests.

These deliberately avoid the library's elimination and interpolation code
paths: cofactor expansion works in any commutative ring using only +, -, *;
the numeric determinant goes through complex floating point; the narrow
class number enumerates reduced indefinite forms and counts reduction
cycles; the fundamental unit is searched for by brute force; the residue
product is multiplied out factor by factor in the cyclotomic ring, and a
linear combination of elements term by term in schoolbook products; the
Galois action moves one coefficient at a time; a determinant mod q is one
row reduction of one matrix, reduced every step;
the evaluation and interpolation matrices at the order-p nodes of F_q are
filled entry by entry; a CRT lift folds big ints one prime at a time; the
Galois-orbit certificate keys every row by the hash of a Python tuple and
accepts any row permutation; the coefficient-size (l) bound and the images under all p-1 embeddings (from
mpmath tables) bound and check the determinant's size; a geometric sum adds
every one of its terms; the reference matrices are built one entry at a time
as ints or CycElts; bare coefficient rows take the dtype rule of
`ExactMatrix` from a comparison of every entry with the floor.  The all-node
evaluation-interpolation determinant is the one exception: it reuses the
library's per-prime steps, and stands apart from `det_cyc_evalinterp` in its
node choice (every node), its CRT (`crt_lift`) and its stop (a stable lift
plus one confirming prime).  The literal identity A B - g C is the other: the
product the verifier took before it multiplied node values, `matrices.matmul`
and one `lincomb` per entry on the coefficient arrays.  The exact divider by
values is a third: the Bareiss division as it was before its inverse product,
den's values at the nodes, every element's values scaled by den's inverse
values and interpolated back per prime, on the library's CRT, proof and
give-up.  The interpolation of all three is the inverse transform on the
Vandermonde table, which the library took before its Gauss periods, with the
values in the natural order of the nodes.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np

from cyclodet.cycring import CycElt, eval_complex, lincomb, make
from cyclodet.detkit import _det_mod_stack, _MixedRadix, _PrimeTables, _tables
from cyclodet.matrices import ExactMatrix, MatrixMeta, matmul
from cyclodet.modarith import AUX_PRIME_FLOOR, aux_primes, is_square, legendre, primitive_root
from cyclodet.subfield import gauss_sum


def exact_matrix(rows, p: int) -> ExactMatrix:
    """The matrix with these entries, CycElts over p or ints, in the dtype
    `ExactMatrix` chooses."""
    rows = [[e.coeffs if isinstance(e, CycElt) else e for e in row] for row in rows]
    return ExactMatrix(rows, MatrixMeta(p, "test"))


def coeff_rows(rows) -> np.ndarray:
    """Rows of ints as `ExactMatrix` would hold them, of any shape: int64 while every
    entry is below AUX_PRIME_FLOOR in absolute value, Python ints (dtype object) otherwise."""
    rows = np.array(rows, dtype=object)
    return rows.astype(np.int64) if (abs(rows) < AUX_PRIME_FLOOR).all() else rows


def entries(m: ExactMatrix) -> tuple:
    """The entries of m as a tuple of row tuples: ints, or CycElts for kind "cyc"."""
    if m.kind == "int":
        return tuple(map(tuple, m.coeffs.tolist()))
    return tuple(tuple(CycElt(m.meta.p, c) for c in row) for row in m.coeffs.tolist())


def reference_rows(family: str, p: int, *delta: int) -> list[list]:
    """The entries of `family` (a MatrixMeta name) at p, built one at a time: ints for S, T
    and SD, CycElts otherwise.  C's geometric sums add all k^2 of their terms."""
    d, m = delta[0] if delta else 1, (p - 1) // 2
    if family == "C":
        idx = range(1, m + 1)
        return [[geometric_sum_loop(p, j * j, k * k) for k in idx] for j in idx]
    if family in ("D", "DD", "Dtilde"):
        rows = [[CycElt.zeta(p, d * j * j * k * k) for k in range(m + 1)] for j in range(m + 1)]
        if family == "Dtilde":
            rows = [[CycElt.one(p)] + [2 * e for e in row[1:]] for row in rows]
        return rows
    idx = range(1 if family in ("S", "SD") else 0, m + 1)
    rows = [[legendre(j * j + d * k * k, p) for k in idx] for j in idx]
    if family in ("E", "F"):
        rows = [[CycElt.rational(p, s) for s in row] for row in rows]
        rows[0][0] = -gauss_sum(p) if family == "E" else gauss_sum(p)
    return rows


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion; entries need +, -, * only."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def det_numeric(matrix) -> complex:
    """Floating-point determinant via the canonical complex embedding."""
    vals = [
        [complex(e) if isinstance(e, int) else complex(eval_complex(e, 30)) for e in row]
        for row in entries(matrix)
    ]
    return complex(np.linalg.det(np.array(vals, dtype=complex)))


def narrow_class_number(d: int) -> int:
    """Narrow class number of discriminant d > 0 (d = 1 mod 4, not a square).

    Enumerates reduced indefinite forms (a, b, c), b^2 - 4ac = d with
    0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b, then counts
    cycles of the reduction (rho) operator.
    """
    assert d > 0 and d % 4 == 1
    s = math.isqrt(d)
    forms = set()
    for b in range(1, s + 1):
        if (b * b - d) % 4:
            continue
        ac = (b * b - d) // 4  # negative
        for a in range(1, (s + b) // 2 + 1):
            if ac % a:
                continue
            if not (s - b < 2 * a < s + b + 1):
                continue
            c = ac // a
            forms.add((a, b, c))
            forms.add((-a, b, -c))

    def step(form):
        a, b, c = form
        cm = 2 * abs(c)
        r = (-b) % cm
        r += ((s - r) // cm) * cm  # unique representative with s - cm < r <= s
        return (c, r, (r * r - d) // (4 * c))

    visited = set()
    cycles = 0
    for f in forms:
        if f in visited:
            continue
        cycles += 1
        cur = f
        while cur not in visited:
            visited.add(cur)
            cur = step(cur)
            assert cur in forms, f"rho left the reduced set: {f} -> {cur}"
    return cycles


def det_mod_prime(a, q: int) -> int:
    """Determinant mod a prime q < 2^31 of one matrix by row reduction (int64-safe)."""
    if (q - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"products mod q={q} overflow int64")
    a = np.array(a, dtype=np.int64) % q
    n = a.shape[0]
    det = 1
    sign = 1
    for col in range(n):
        pivots = np.nonzero(a[col:, col])[0]
        if pivots.size == 0:
            return 0
        pr = col + int(pivots[0])
        if pr != col:
            a[[col, pr]] = a[[pr, col]]
            sign = -sign
        piv = int(a[col, col])
        det = det * piv % q
        if col + 1 < n:
            inv = pow(piv, q - 2, q)
            factors = a[col + 1 :, col] * inv % q
            a[col + 1 :, col:] = (a[col + 1 :, col:] - factors[:, None] * a[col, col:]) % q
    return det * sign % q


def vandermonde_loop(nodes: list[int], q: int) -> np.ndarray:
    """vand[i, t] = nodes[t]^i mod q for 0 <= i < len(nodes), by repeated products."""
    size = len(nodes)
    vand = np.empty((size, size), dtype=np.int64)
    for t, a in enumerate(nodes):
        acc = 1
        for i in range(size):
            vand[i, t] = acc
            acc = acc * a % q
    return vand


def interpolate_vandermonde(tables: _PrimeTables, q: int, vals: np.ndarray) -> np.ndarray:
    """Coefficients mod q (along axis 0) of the element of degree < p-1 with values
    `vals` (along axis 0) at the nodes tables.pow_r(q)[1:] in their natural order, by the inverse
    transform on the (p-1)^2 Vandermonde table vand[i, t-1] = r^(i t), gathered from the
    power table: the reference for `detkit._PrimeTables.interpolate`.  With v_0 the value
    at 1, p c_i = sum_t v_t r^(-ti) over t = 0..p-1, and c_(p-1) = 0 fixes
    v_0 = -sum_(t>0) v_t r^t.  vand @ vals[::-1] is sum_(t>0) v_t r^(-ti)."""
    p, pow_r = tables.p, tables.pow_r(q)
    vand = pow_r[np.outer(np.arange(p - 1), np.arange(1, p)) % p]
    return (vand @ vals[::-1] - pow_r[1:] @ vals) % q * pow(p, -1, q) % q


def lagrange_loop(p: int, nodes: list[int], q: int) -> np.ndarray:
    """The interpolation matrix at the nontrivial p-th roots of unity mod q.

    Column t holds the coefficients of the Lagrange basis polynomial of
    nodes[t]: Phi_p has all-ones coefficients, so the synthetic quotient by
    (x - a) is a prefix scan, and Phi_p'(a) = p / (a * (a - 1)) since a^p = 1.
    """
    lagrange = np.empty((p - 1, p - 1), dtype=np.int64)
    inv_p = pow(p, q - 2, q)
    for t, a in enumerate(nodes):
        w = a * (a - 1) % q * inv_p % q
        b = 1
        lagrange[p - 2, t] = w
        for i in range(p - 3, -1, -1):
            b = (b * a + 1) % q
            lagrange[i, t] = b * w % q
    return lagrange


def geometric_sum_loop(p: int, e: int, n: int) -> CycElt:
    """1 + zeta^e + ... + zeta^(e(n-1)), adding all n terms."""
    raw = [0] * p
    for s in range(n):
        raw[e * s % p] += 1
    return make(p, raw)


def pell_brute_force(p: int, cap: int) -> tuple[int, int]:
    """Smallest (t, u), 1 <= u < cap, with t^2 - p*u^2 = +/-4, by trying every u."""
    for u in range(1, cap):
        uu = p * u * u
        for t2 in (uu - 4, uu + 4):
            if t2 > 0 and is_square(t2):
                return (math.isqrt(t2), u)
    raise ArithmeticError(f"no Pell solution below u = {cap} for p={p}")


def squares_product_by_mul(p: int) -> CycElt:
    """prod_{k=1}^{(p-1)/2} (1 - zeta^(k^2)) through (p-1)/2 general products."""
    acc = CycElt.one(p)
    for k in range(1, (p - 1) // 2 + 1):
        acc = acc * (CycElt.one(p) - CycElt.zeta(p, k * k))
    return acc


def cyc_mul_loop(x: CycElt, y: CycElt) -> CycElt:
    """x * y by the schoolbook product of the power-basis coefficients."""
    p = x.p
    raw = [0] * p
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            raw[(i + j) % p] += a * b
    return make(p, raw)


def lincomb_loop(p: int, weights, rows) -> list:
    """`cycring.lincomb` by schoolbook products, summed term by term, on nested lists."""
    zero = CycElt.zero(p)
    out = []
    for ws in weights:
        acc = [zero] * (len(rows[0]) if rows else 0)
        for c, row in zip(ws, rows):
            acc = [s + cyc_mul_loop(CycElt(p, c), CycElt(p, x)) for s, x in zip(acc, row)]
        out.append([list(s.coeffs) for s in acc])
    return out


def literal_identity(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix, g: CycElt) -> tuple:
    """(A B, g C) as coefficient arrays (n, n, p-1), by `matmul` and `lincomb`: A B = g C
    holds exactly when the two are equal."""
    p = a.meta.p
    scaled = lincomb(p, np.array([[g.coeffs]]), c.coeffs.reshape(1, -1, p - 1))
    return matmul(a, b).coeffs, scaled.reshape(c.coeffs.shape)


def galois_loop(x: CycElt, a: int) -> CycElt:
    """sigma_a: zeta -> zeta^a, a prime to p, by moving each coefficient c_i to power a i mod p
    one at a time, and removing zeta^(p-1): the reference for `cycring.galois_image` and
    `CycElt.galois`."""
    p = x.p
    raw = [0] * p
    for i, c in enumerate(x.coeffs):
        raw[a * i % p] = c
    return make(p, raw)


def random_cyc(rng: random.Random, p: int, span: int = 5) -> CycElt:
    return CycElt(p, [rng.randint(-span, span) for _ in range(p - 1)])


def crt_lift(sym: list[int], modulus: int, coeffs_q, q: int):
    """Fold one more prime's residues into a CRT lift in big ints: the reference
    for `detkit._MixedRadix`.

    Start from ([0] * n, 1).  `sym` holds the lifted values in symmetric range
    mod `modulus` (odd, a product of odd primes); one conditional subtraction
    brings s + modulus * ((c - s) / modulus mod q) back into that range mod
    modulus * q.  Returns (sym, modulus * q).
    """
    inv = pow(modulus, -1, q)
    mq = modulus * q
    lifted = [s + modulus * ((c - s) * inv % q) for s, c in zip(sym, coeffs_q.tolist())]
    lifted = [t - mq if 2 * t > mq else t for t in lifted]
    return lifted, mq


def evalinterp_all_nodes(m, max_moduli: int = 64) -> CycElt:
    """Determinant of a cyclotomic matrix from its values at all p-1 nodes of
    each auxiliary prime, CRT-lifted until the coefficients are unchanged by
    two consecutive primes: no symmetry and no coefficient bound used."""
    p, n = m.meta.p, m.n
    coeffs = m.coeffs.reshape(n * n, p - 1)
    sym, modulus, stable, tables = [0] * (p - 1), 1, 0, _PrimeTables(p)
    for q in islice(aux_primes(p), max_moduli):
        vals = tables.values(q, coeffs).reshape(n, n, p - 1)
        dets = _det_mod_stack(vals.transpose(2, 0, 1), q)
        lifted, folded = crt_lift(sym, modulus, interpolate_vandermonde(tables, q, dets), q)
        stable = 0 if modulus == 1 or lifted != sym else stable + 1  # the first fold is a change
        sym, modulus = lifted, folded
        if stable >= 2:
            return CycElt._new(p, sym)
    raise ArithmeticError("CRT failed to stabilize")


def quotient_residues_by_values(flat: np.ndarray, den: np.ndarray, tables: _PrimeTables, q: int):
    """The residues mod q of the quotients of the rows `flat` (elements, p-1) by den, by
    values: den's values at the nodes, each element's values times den's inverse values,
    interpolated; None where den has a zero value mod q.  The reference for
    `detkit._Pivot.residues`."""
    den_vals = tables.values(q, (den[None] % q).astype(np.int64))[0]
    if np.any(den_vals == 0):
        return None
    inv_vals = np.array([pow(v, -1, q) for v in den_vals.tolist()], dtype=np.int64)
    quot_vals = tables.values(q, (flat % q).astype(np.int64, copy=False)) * inv_vals % q
    return interpolate_vandermonde(tables, q, quot_vals.T).T


def divide_by_values(block: np.ndarray, den: np.ndarray) -> tuple:
    """(quotients, primes folded) of the exact division of `block` by den, as
    `detkit._divide_exact` took it before its inverse product: the residues of
    `quotient_residues_by_values`, one `_MixedRadix` lift cast from Python ints to int64
    below a modulus of 2^63, the same re-multiplication proof and the same 16L give-up."""
    p = len(den) + 1
    flat = block.reshape(-1, p - 1)
    give_up, crt, tables = None, _MixedRadix(), _tables(p)
    for q in tables:
        residues = quotient_residues_by_values(flat, den, tables, q)
        if residues is None:
            continue
        crt.fold(residues.reshape(block.shape), q)
        if crt.fits().all():
            quots = np.array(crt.lift().tolist(), dtype=object)
            if crt.modulus < 1 << 63:
                quots = quots.astype(np.int64)
            if np.array_equal(lincomb(p, den[None, None], quots.reshape(1, -1, p - 1))[0], flat):
                return quots, crt.primes
        if give_up is None:
            l1 = max(abs(flat).sum(axis=1, dtype=object))
            give_up = 16 * l1 * sum(map(abs, den.tolist())) ** (p - 2)
        if crt.modulus > give_up:
            raise ArithmeticError("Bareiss division was not exact")


def orbit_step_tuples(rows: np.ndarray) -> tuple[int, int]:
    """(2, s) when sigma_b, b = g^2, maps M (`rows`) to P*M for any row permutation P, of
    sign s, found with every row, and every row image, keyed by the hash of its Python
    tuple; (p-1, 1) otherwise.  `detkit._orbit_step` accepts only the shift of the rows
    along the squares and the identity, which is what sigma_b makes of every built family,
    so the two agree there; on rows that sigma_b permutes some other way this one finds P."""
    n, p = len(rows), rows.shape[2] + 1
    index = {hash(tuple(row.ravel().tolist())): j for j, row in enumerate(rows)}
    zero = np.zeros((n, 1), dtype=rows.dtype)
    source = np.arange(p) * pow(primitive_root(p), -2, p) % p  # power b*i of sigma_b(x) is i of x
    perm = []
    for row in rows:  # up to the first row with no match
        image = np.hstack([row, zero])[:, source]
        image = image[:, :-1] - image[:, -1:]
        j = index.get(hash(tuple(image.ravel().tolist())), -1)
        perm.append(j if j >= 0 and np.array_equal(rows[j], image) else -1)
        if perm[-1] < 0:
            break
    if sorted(perm) != list(range(n)):
        return p - 1, 1
    return 2, (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])


def ell_bound_sq(coeffs: np.ndarray) -> int:
    """prod_rows sum_k l(M_jk)^2, the Hadamard bound from coefficient sizes alone: for
    x = sum b_i zeta^i (i < p-1) and c a median of the b_i, l(x) = min(sum |b_i|,
    sum |b_i - c| + |c|) bounds every |sigma(x)|, as x = sum (b_i - c) zeta^i - c zeta^(p-1)."""
    h2, mid = 1, coeffs.shape[2] // 2
    for row in coeffs:
        c = np.sort(row, axis=1)[:, mid : mid + 1]
        ell = np.minimum(abs(row).sum(axis=1), abs(row - c).sum(axis=1) + abs(c[:, 0]))
        h2 *= sum(x * x for x in ell.tolist())
    return h2


def embeddings_abs_sq(x: CycElt) -> list[Fraction]:
    """|sigma_a(x)|^2 for a = 1 .. p-1, sigma_a: zeta -> exp(2 pi i a/p): cos and sin of
    2 pi k/p from mpmath at 50 digits, rounded to multiples of 2^-170, and the sums
    over the coefficients taken exactly in integers."""
    p, scale = x.p, 1 << 170
    with mpmath.workdps(50):
        cos = [int(mpmath.nint(mpmath.cospi(mpmath.mpf(2 * k) / p) * scale)) for k in range(p)]
        sin = [int(mpmath.nint(mpmath.sinpi(mpmath.mpf(2 * k) / p) * scale)) for k in range(p)]
    terms = [(i, c) for i, c in enumerate(x.coeffs) if c]
    out = []
    for a in range(1, p):
        re = sum(c * cos[a * i % p] for i, c in terms)
        im = sum(c * sin[a * i % p] for i, c in terms)
        out.append(Fraction(re * re + im * im, scale * scale))
    return out
