"""Elementary class-number data for the quadratic subfields.

h(-p) is counted directly from reduced positive-definite binary quadratic
forms of discriminant -p.  For p = 1 (mod 4) the fundamental unit comes from
the continued fraction of (1 + sqrt(p))/2, and h(p) is recovered by inverting
the exact product identity prod_{k<=m} (1 - zeta^(k^2)) * eps^h = +/- g,
which exercises the cyclotomic arithmetic end to end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cycring import CycElt, make
from .modarith import require_odd_prime
from .subfield import QuadElt, quad_decompose


def h_neg(p: int) -> int:
    """Class number of Q(sqrt(-p)) by counting reduced forms of discriminant -p.

    Reduced means -a < b <= a <= c with b >= 0 when a = c; forms of prime
    discriminant are automatically primitive.
    """
    require_odd_prime(p)
    if p % 4 != 3 or p <= 3:
        raise ValueError(f"h_neg needs p = 3 mod 4 and p > 3, got {p}")
    count = 0
    for a in range(1, math.isqrt(p // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b + p
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            count += 1
    return count


def fundamental_unit(p: int) -> tuple[int, int]:
    """Smallest (t, u) with t, u >= 1 and t^2 - p*u^2 = +/-4; eps = (t+u*sqrt(p))/2.

    (t, u) = (2h - k, k) for the first convergent h/k of w = (1 + sqrt(p))/2
    that has norm +/-4 (Cohen, GTM 138, 5.7): O(sqrt(p)) steps on the complete
    quotients (P + sqrt(p))/Q, where Q > 0 divides p - P^2.
    """
    require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"fundamental_unit needs p = 1 mod 4, got {p}")
    s = math.isqrt(p)
    P, Q = 1, 2
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        a = (P + s) // Q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        t = 2 * h - k
        if t * t - p * k * k in (4, -4):
            return t, k
        P, Q = a * Q - P, (p - (a * Q - P) ** 2) // Q


def squares_product(p: int) -> CycElt:
    """The half-range product prod_{k=1}^{(p-1)/2} (1 - zeta^(k^2))."""
    require_odd_prime(p)
    raw = [1] + [0] * (p - 1)
    for k in range(1, (p - 1) // 2 + 1):
        e = k * k % p
        raw = [a - b for a, b in zip(raw, raw[-e:] + raw[:-e])]  # *= 1 - x^e
    return make(p, raw)


@dataclass(frozen=True)
class ClassData:
    p: int
    h_neg: int | None = None
    h_pos: int | None = None
    eps: tuple[int, int] | None = None


@dataclass(frozen=True)
class ProductFormulaResult:
    p: int
    passed: bool
    h: int | None
    sign: int | None
    detail: str
    eps: tuple[int, int] | None = None  # the fundamental unit (t, u), p = 1 (mod 4)


def verify_product_formula(p: int) -> ProductFormulaResult:
    """Check the exact product identity for the half-range residue product P.

    p = 3 (mod 4): P = v*g with v in {+1,-1} and P^2 = -p; the sign must be
    (-1)^((h(-p)+1)/2) with h(-p) counted independently from reduced forms.

    p = 1 (mod 4): the least h >= 1 with P*eps^h = +/-g is reported; that h
    is the class number of Q(sqrt(p)) and the sign is recorded, and so is the
    fundamental unit (t, u), so that no caller has to search for it again.

    The search stops on a proof, not a cap: under g -> +sqrt(p), eps = (t + u*sqrt(p))/2 > 1 and
    |eps'| = 1/eps, so for P != 0, |P*eps^h| / |(P*eps^h)'| = |P/P'| * eps^(2h) grows strictly with
    h and is 1 at +/-g; at x + y*g it exceeds 1 iff x*y > 0, and then no later h can match.
    """
    require_odd_prime(p)
    if p <= 3:
        raise ValueError("product formula verification needs p > 3")
    prod = squares_product(p)
    if p % 4 == 3:
        square_ok = prod * prod == CycElt.rational(p, -p)
        qd = quad_decompose(prod)
        h = h_neg(p)
        expected = -1 if (h + 1) // 2 % 2 else 1
        ok = square_ok and qd.x == 0 and qd.y == expected
        return ProductFormulaResult(
            p, ok, h, int(qd.y) if qd.y in (1, -1) else None,
            f"P = {qd.y}*g, expected {expected}*g from h(-p)={h}",
        )
    t, u = fundamental_unit(p)
    eps = QuadElt(p, Fraction(t, 2), Fraction(u, 2))
    acc, h = quad_decompose(prod), 0
    while not acc.is_zero() and acc.x * acc.y <= 0:
        acc, h = acc * eps, h + 1
        if acc.x == 0 and acc.y in (1, -1):  # P*eps^h = +/-g
            detail = f"P*eps^{h} = {'g' if acc.y == 1 else '-g'} (forward)"
            return ProductFormulaResult(p, True, h, int(acc.y), detail, (t, u))
    return ProductFormulaResult(p, False, None, None, "no unit power matched", (t, u))


def class_data(p: int) -> ClassData:
    """Residue-appropriate class data; h(p) comes from the product formula."""
    require_odd_prime(p)
    if p % 4 == 3:
        return ClassData(p, h_neg=h_neg(p))
    result = verify_product_formula(p)
    return ClassData(p, h_pos=result.h, eps=result.eps)
