"""Independent oracles used by the tests.

These deliberately avoid the library's elimination and interpolation code
paths: cofactor expansion works in any commutative ring using only +, -, *;
the numeric determinant goes through complex floating point; the narrow
class number enumerates reduced indefinite forms and counts reduction
cycles; the fundamental unit is searched for by brute force; the residue
product is multiplied out factor by factor in the cyclotomic ring.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from cyclodet.cycring import CycElt, eval_complex
from cyclodet.modarith import is_square


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
        [complex(e) if isinstance(e, int) else eval_complex(e, 30).value for e in row]
        for row in matrix.rows
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


def random_cyc(rng: random.Random, p: int, span: int = 5, frac: bool = False) -> CycElt:
    if frac:
        coeffs = [
            Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(p - 1)
        ]
    else:
        coeffs = [rng.randint(-span, span) for _ in range(p - 1)]
    return CycElt(p, coeffs)
