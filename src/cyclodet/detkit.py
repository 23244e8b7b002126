"""Exact determinants with two independent backends per entry kind.

Integer matrices: fraction-free (Bareiss) elimination, and a CRT backend
over word-sized primes driven by the Hadamard bound.

Cyclotomic matrices: Bareiss elimination over Z[zeta_p] (the exactness of
every interior division is re-verified by multiplication), and an
evaluation-interpolation backend that reduces the matrix at all elements of
order p in F_q for primes q = 1 (mod p), takes scalar determinants, solves
the interpolation system on the nontrivial p-th roots of unity, and CRTs
coefficients until they stabilize with one confirming prime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cycring import CycElt
from .matrices import ExactMatrix
from .modarith import aux_primes, crt_pair, symmetric_mod, word_primes_desc

_INT64_SAFE = 1 << 62


@dataclass
class DetResult:
    values: tuple  # one per backend run: Bareiss first, then the modular one
    backend: str
    stats: dict = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    @property
    def value(self):
        """The determinant; raises when the backends disagree."""
        if not self.agree:
            raise ArithmeticError(f"backend disagreement: {self.values}")
        return self.values[0]


# -- scalar determinants over F_q ----------------------------------------


def _det_mod_prime(a: np.ndarray, q: int) -> int:
    """Determinant mod a prime q < 2^31 by row reduction (int64-safe)."""
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


# -- integer backends ------------------------------------------------------


def det_int_bareiss(m: ExactMatrix, stats: dict | None = None) -> int:
    """Fraction-free elimination; first nonzero pivot per column, row swaps signed."""
    if m.kind != "int":
        raise ValueError("integer matrix required")
    a = [list(row) for row in m.rows]
    n = m.n
    if stats is not None:
        stats["elimination_steps"] = n - 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                t = row_i[j] * piv - aik * row_k[j]
                quot, rem = divmod(t, prev)
                if rem:
                    raise ArithmeticError("Bareiss division was not exact")
                row_i[j] = quot
            row_i[k] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


def _hadamard_bound(m: ExactMatrix) -> int:
    mx = max((abs(e) for row in m.rows for e in row), default=0)
    if mx == 0:
        return 0
    n = m.n
    return math.isqrt(n**n * mx ** (2 * n)) + 1


def det_int_modular(m: ExactMatrix, stats: dict | None = None) -> int:
    """CRT over word-sized primes, sized by the Hadamard bound."""
    if m.kind != "int":
        raise ValueError("integer matrix required")
    bound = _hadamard_bound(m)
    if stats is not None:
        stats["coefficient_bound"] = bound
        stats["moduli"] = []
    if bound == 0:
        return 0
    small = all(abs(e) < _INT64_SAFE for row in m.rows for e in row)
    arr = np.array(m.rows, dtype=np.int64) if small else None
    residue, modulus = 0, 1
    for q in word_primes_desc():
        if arr is None:
            reduced = np.array(
                [[e % q for e in row] for row in m.rows], dtype=np.int64
            )
            r = _det_mod_prime(reduced, q)
        else:
            r = _det_mod_prime(arr, q)
        if stats is not None:
            stats["moduli"].append(q)
        if modulus == 1:
            residue, modulus = r, q
        else:
            residue, modulus = crt_pair(residue, modulus, r, q) % (modulus * q), modulus * q
        if modulus > 2 * bound:
            break
    return symmetric_mod(residue, modulus)


# -- evaluation data shared by the cyclotomic backends ---------------------


class _EvalData:
    """Vandermonde and interpolation matrices for the order-p points of F_q."""

    __slots__ = ("p", "q", "r", "nodes", "vand", "lagrange")

    def __init__(self, p: int, q: int) -> None:
        self.p = p
        self.q = q
        self.r = _order_p_element(p, q)
        nodes = [pow(self.r, j, q) for j in range(1, p)]
        self.nodes = nodes
        vand = np.empty((p - 1, p - 1), dtype=np.int64)
        for t, a in enumerate(nodes):
            acc = 1
            for i in range(p - 1):
                vand[i, t] = acc
                acc = acc * a % q
        self.vand = vand
        # Lagrange basis through the cyclotomic polynomial: Phi_p has all-ones
        # coefficients, so the synthetic quotient by (x - a) is a prefix scan,
        # and Phi_p'(a) = p / (a * (a - 1)) since a^p = 1.
        lagrange = np.empty((p - 1, p - 1), dtype=np.int64)
        inv_p = pow(p, q - 2, q)
        for t, a in enumerate(nodes):
            w = a * (a - 1) % q * inv_p % q
            b = 1
            lagrange[p - 2, t] = w
            for i in range(p - 3, -1, -1):
                b = (b * a + 1) % q
                lagrange[i, t] = b * w % q
        self.lagrange = lagrange


def _order_p_element(p: int, q: int) -> int:
    for w in range(2, q):
        r = pow(w, (q - 1) // p, q)
        if r != 1:
            return r
    raise ArithmeticError(f"no element of order {p} in F_{q}")


_EVAL_CACHE: dict[tuple[int, int], _EvalData] = {}


def _eval_data(p: int, q: int) -> _EvalData:
    key = (p, q)
    data = _EVAL_CACHE.get(key)
    if data is None:
        data = _EvalData(p, q)
        _EVAL_CACHE[key] = data
    return data


def _coeff_rows(entries: list[CycElt]) -> tuple[list[list[int]], bool]:
    """Integer coefficient vectors for integral entries; flags int64 safety."""
    rows = []
    small = True
    for e in entries:
        if not e.is_integral:
            raise ValueError("integral cyclotomic entries required")
        cs = list(e.coeffs)
        rows.append(cs)
        if small and any(abs(c) >= _INT64_SAFE for c in cs):
            small = False
    return rows, small


def _values_at_nodes(coeff_rows, small: bool, data: _EvalData) -> np.ndarray:
    """Evaluate each coefficient vector at every node of data, mod data.q."""
    q = data.q
    if (data.p - 1) * (q - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"sums of {data.p - 1} products mod q={q} overflow int64")
    if small:
        arr = np.array(coeff_rows, dtype=np.int64) % q
    else:
        arr = np.array([[c % q for c in row] for row in coeff_rows], dtype=np.int64)
    return arr @ data.vand % q


# -- exact division of integral cyclotomic elements ------------------------


class _ExactDivider:
    """Division by a fixed nonzero integral element of Z[zeta_p].

    Quotients are reconstructed by CRT from images at the order-p points of
    several F_q and then verified exactly by re-multiplication, so a wrong
    answer is impossible; a non-exact division raises.
    """

    def __init__(self, den: CycElt) -> None:
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        self.den = den
        self.p = den.p
        self._den_rows, self._den_small = _coeff_rows([den])
        self._primes: list[tuple[_EvalData, np.ndarray]] = []
        self._iter = aux_primes(self.p)

    def _prime_data(self, i: int) -> tuple[_EvalData, np.ndarray]:
        while len(self._primes) <= i:
            q = next(self._iter)
            data = _eval_data(self.p, q)
            den_vals = _values_at_nodes(self._den_rows, self._den_small, data)[0]
            if np.any(den_vals == 0):
                continue  # q divides a conjugate of den; unusable
            inv_vals = np.array(
                [pow(int(v), q - 2, q) for v in den_vals], dtype=np.int64
            )
            self._primes.append((data, inv_vals))
        return self._primes[i]

    def divide(self, num: CycElt) -> CycElt:
        if num.is_zero():
            return CycElt.zero(self.p)
        num_rows, num_small = _coeff_rows([num])
        residues = None
        modulus = 1
        prev_sym = None
        for i in range(64):
            data, inv_vals = self._prime_data(i)
            q = data.q
            num_vals = _values_at_nodes(num_rows, num_small, data)[0]
            qvals = num_vals * inv_vals % q
            coeffs_q = data.lagrange @ qvals % q
            if residues is None:
                residues = [int(c) for c in coeffs_q]
                modulus = q
            else:
                residues = [
                    crt_pair(r, modulus, int(c), q) % (modulus * q)
                    for r, c in zip(residues, coeffs_q)
                ]
                modulus *= q
            sym = [symmetric_mod(r, modulus) for r in residues]
            if sym == prev_sym:
                candidate = CycElt(self.p, sym)
                if candidate * self.den == num:
                    return candidate
            prev_sym = sym
        raise ArithmeticError("exact division failed to stabilize (arithmetic bug)")


# -- cyclotomic backends ----------------------------------------------------


def det_cyc_bareiss(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Bareiss elimination over Z[zeta_p] with verified exact divisions."""
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    p = m.meta.p
    a = [list(row) for row in m.rows]
    n = m.n
    for row in m.rows:
        for e in row:
            if not e.is_integral:
                raise ValueError("integral entries required")
    if stats is not None:
        stats["elimination_steps"] = n - 1
    sign = 1
    prev: CycElt | None = None
    for k in range(n - 1):
        if a[k][k].is_zero():
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return CycElt.zero(p)
        piv = a[k][k]
        divider = _ExactDivider(prev) if prev is not None else None
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                t = row_i[j] * piv - aik * row_k[j]
                row_i[j] = divider.divide(t) if divider is not None else t
            row_i[k] = CycElt.zero(p)
        prev = piv
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


def det_cyc_evalinterp(m: ExactMatrix, stats: dict | None = None) -> CycElt:
    """Evaluation-interpolation determinant over Z[zeta_p].

    Stops once the CRT coefficients are stable in symmetric range across two
    consecutive auxiliary primes (stability plus one confirming prime).
    """
    if m.kind != "cyc":
        raise ValueError("cyclotomic matrix required")
    p = m.meta.p
    n = m.n
    flat = [e for row in m.rows for e in row]
    coeff_rows, small = _coeff_rows(flat)
    residues = None
    modulus = 1
    prev_sym = None
    stable = 0
    moduli = []
    if stats is not None:
        stats["nodes"] = p - 1
        stats["moduli"] = moduli
    for q in aux_primes(p):
        data = _eval_data(p, q)
        vals = _values_at_nodes(coeff_rows, small, data).reshape(n, n, p - 1)
        dets = np.array(
            [_det_mod_prime(vals[:, :, t], q) for t in range(p - 1)], dtype=np.int64
        )
        coeffs_q = data.lagrange @ dets % q
        if residues is None:
            residues = [int(c) for c in coeffs_q]
            modulus = q
        else:
            residues = [
                crt_pair(r, modulus, int(c), q) % (modulus * q)
                for r, c in zip(residues, coeffs_q)
            ]
            modulus *= q
        moduli.append(q)
        sym = [symmetric_mod(r, modulus) for r in residues]
        if sym == prev_sym:
            stable += 1
            if stable >= 2:
                return CycElt(p, sym)
        else:
            stable = 0
        prev_sym = sym
        if len(moduli) > 64:
            raise ArithmeticError("CRT failed to stabilize (coefficient bound bug)")
    raise ArithmeticError("ran out of auxiliary primes")  # unreachable


_CHOICES = {"bareiss": (0,), "modular": (1,), "both": (0, 1)}


def det(m: ExactMatrix, backend: str = "both") -> DetResult:
    """Determinant through the backend(s) chosen: the one dispatch path.

    backend: "bareiss", "modular" (CRT / evaluation-interpolation), or
    "both" (run the pair; `DetResult.value` requires bit-exact agreement).
    The backends are looked up as module globals on every call, so a
    rebinding of one (a tracer wrapping it) is seen here.
    """
    if backend not in _CHOICES:
        raise ValueError(f"unknown backend {backend!r}")
    if m.kind == "int":
        pair = (det_int_bareiss, det_int_modular)
    else:
        pair = (det_cyc_bareiss, det_cyc_evalinterp)
    stats: dict = {"n": m.n}
    values = tuple(pair[i](m, stats) for i in _CHOICES[backend])
    if m.kind == "cyc" and not all(v.is_integral for v in values):
        raise ArithmeticError("determinant of an integral matrix must be integral")
    return DetResult(values, backend, stats)
