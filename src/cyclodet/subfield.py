"""Gauss sums and subfield coordinates inside Q(zeta_p).

The quadratic Gauss sum g = sum((t/p) * zeta^t) satisfies g^2 = p for
p = 1 (mod 4) and g^2 = -p for p = 3 (mod 4), so g is an exact square root
living inside Z[zeta_p].  Galois-stable elements decompose as x + y*g with
rational x, y (`quad_decompose`); for p = 1 (mod 4) certain determinants
further decompose through the quartic subfield as (alpha + beta*sqrt(p))
times a square root delta of (2/p)*2p +/- 2a*sqrt(p), where p = a^2 + b^2
with a odd.  delta is an exact element, g4 - g or its conjugate, so
`quartic_decompose` divides by it instead of searching for square roots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cycring import CycElt
from .modarith import (
    is_square,
    least_nonresidue,
    legendre,
    primitive_root,
    require_odd_prime,
)


@lru_cache(maxsize=None)
def gauss_sum(p: int) -> CycElt:
    """The quadratic Gauss sum sum_{t=1}^{p-1} (t/p) zeta^t as an exact element."""
    require_odd_prime(p)
    raw = [0] * p
    for t in range(1, p):
        raw[t] = legendre(t, p)
    return CycElt._from_raw(p, raw)


@lru_cache(maxsize=None)
def fourth_power_sum(p: int) -> CycElt:
    """sum_{t=0}^{p-1} zeta^(t^4); generates the quartic subfield for p = 1 mod 4."""
    require_odd_prime(p)
    raw = [0] * p
    for t in range(p):
        raw[pow(t, 4, p)] += 1
    return CycElt._from_raw(p, raw)


def gauss_square_sign(p: int) -> int:
    """Sign s with g^2 = s*p, i.e. +1 for p = 1 (mod 4), -1 for p = 3 (mod 4)."""
    return 1 if p % 4 == 1 else -1


def _rational(v) -> Fraction:
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"exact rational required, got {type(v).__name__}")
    return Fraction(v)


class QuadElt:
    """x + y*g with rational x, y, where g^2 = (+/-)p per the residue class of p."""

    __slots__ = ("p", "x", "y")

    def __init__(self, p: int, x, y) -> None:
        require_odd_prime(p)
        self.p = p
        self.x = _rational(x)
        self.y = _rational(y)

    @property
    def gsq(self) -> int:
        return gauss_square_sign(self.p) * self.p

    def _coerce(self, other):
        if isinstance(other, QuadElt):
            if other.p != self.p:
                raise ValueError("mismatched quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElt(self.p, other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElt(self.p, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadElt(self.p, -self.x, -self.y)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElt(self.p, self.x - o.x, self.y - o.y)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElt(
            self.p,
            self.x * o.x + self.y * o.y * self.gsq,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.x * self.x - self.gsq * self.y * self.y

    def inverse(self) -> QuadElt:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("element has norm zero")
        return QuadElt(self.p, self.x / n, -self.y / n)

    def __pow__(self, n: int) -> QuadElt:
        if not isinstance(n, int):
            raise TypeError("integer power required")
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        acc = QuadElt(self.p, 1, 0)
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def embed(self) -> CycElt:
        """The cyclotomic element x + y*gauss_sum(p), as (d*x + d*y*g) / d for the common
        denominator d; a coefficient not divisible by d means x + y*g is not an
        algebraic integer, which raises ValueError."""
        d = math.lcm(self.x.denominator, self.y.denominator)
        z = CycElt.rational(self.p, int(self.x * d)) + int(self.y * d) * gauss_sum(self.p)
        if any(c % d for c in z.coeffs):
            raise ValueError(f"{self} is not an algebraic integer")
        return CycElt._new(self.p, [c // d for c in z.coeffs])

    def __eq__(self, other):
        o = self._coerce(other) if isinstance(other, (QuadElt, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash(self.x) if self.y == 0 else hash((self.p, self.x, self.y))

    def __reduce__(self):
        return (QuadElt, (self.p, self.x, self.y))

    def __str__(self):
        return f"{self.x} + {self.y}*g"

    def __repr__(self):
        return f"QuadElt(p={self.p}, {self})"


def quad_decompose(x: CycElt) -> QuadElt:
    """Write a Galois-stable element as u + v*g with rational u, v.

    Requires x to be fixed by every even automorphism zeta -> zeta^(a^2), checked
    up front with a primitive root; any odd one, the least non-residue's, gives
    u - v*g, and the result is verified by reconstruction.
    """
    p = x.p
    n0 = primitive_root(p)
    if x.galois(n0 * n0 % p) != x:
        raise ValueError("element is not stable under the even Galois subgroup")
    reflected = x.galois(least_nonresidue(p))
    twice_u = x + reflected
    odd_part = (x - reflected) * gauss_sum(p)
    if not (twice_u.is_rational and odd_part.is_rational):
        raise ValueError("element does not lie in the quadratic subfield")
    u = Fraction(twice_u.coeffs[0], 2)
    v = Fraction(odd_part.coeffs[0], 2 * gauss_square_sign(p) * p)
    result = QuadElt(p, u, v)
    if result.embed() != x:
        raise ArithmeticError("quadratic decomposition failed to reconstruct input")
    return result


@dataclass(frozen=True)
class TwoSquares:
    p: int
    a: int  # odd, positive
    b: int  # even, positive


def two_squares(p: int) -> TwoSquares:
    """The split p = a^2 + b^2 with a odd and b even, both positive."""
    require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"p={p} is not 1 mod 4")
    for a in range(1, math.isqrt(p) + 1, 2):
        rest = p - a * a
        if is_square(rest):
            return TwoSquares(p, a, math.isqrt(rest))
    raise ArithmeticError(f"no two-square split found for {p}")  # unreachable


@dataclass(frozen=True)
class QuarticDecomp:
    """d = (alpha + beta*sqrt(p)) * delta with delta^2 = (2/p)*2p + 2*delta_sign*a*sqrt(p)."""

    p: int
    alpha: Fraction
    beta: Fraction
    a: int
    delta_sign: int

    def delta_squared(self) -> QuadElt:
        return _delta_squared(self.p, self.delta_sign)

    def quad_part(self) -> QuadElt:
        return QuadElt(self.p, self.alpha, self.beta)


def _delta_squared(p: int, s: int) -> QuadElt:
    """delta^2 = (2/p)*2p + 2*s*a*sqrt(p) on branch s = +/-1, where p = a^2 + b^2, a odd."""
    return QuadElt(p, 2 * p * legendre(2, p), 2 * s * two_squares(p).a)


@lru_cache(maxsize=None)
def _g4_minus_g(p: int) -> CycElt:
    """g4 - g, the square root of delta^2 on the branch `quartic_gauss_check` returns."""
    return fourth_power_sum(p) - gauss_sum(p)


def quartic_decompose(d: CycElt) -> QuarticDecomp:
    """Decompose d, in the quartic subfield, as (alpha + beta*sqrt(p))*delta, p = d.p.

    An exact division, no search: delta is g4 - g on the branch that
    `quartic_gauss_check` pins, and its image under zeta -> zeta^n (n a
    non-residue) on the other, so alpha + beta*sqrt(p) = d*delta / delta^2
    with d*delta decomposed by `quad_decompose`.  Both branches always solve
    (the two deltas multiply to +/-2b*sqrt(p)); the one whose solution has
    alpha*beta = 0 is preferred, else the +1 branch, and the sign is
    normalized to alpha > 0 (beta > 0 when alpha = 0).  An input outside
    Q(sqrt(p))*delta raises ArithmeticError.
    """
    p = d.p
    if p % 4 != 1:
        raise ValueError(f"p={p} is not 1 mod 4")
    plus, plus_sign = _g4_minus_g(p), quartic_gauss_check(p)
    roots = {plus_sign: plus, -plus_sign: plus.galois(least_nonresidue(p))}
    solutions = {}
    for s, root in roots.items():
        try:
            y = quad_decompose(d * root) * _delta_squared(p, s).inverse()
        except ValueError as exc:
            raise ArithmeticError("input is not in Q(sqrt(p)) * delta") from exc
        solutions[s] = -y if y.x < 0 or (y.x == 0 and y.y < 0) else y
    s = next((s for s in (1, -1) if solutions[s].x * solutions[s].y == 0), 1)
    return QuarticDecomp(p, solutions[s].x, solutions[s].y, two_squares(p).a, s)


@lru_cache(maxsize=None)
def quartic_gauss_check(p: int) -> int:
    """Verify (g4 - g)^2 = (2/p)*2p + 2*a'*sqrt(p) for a' = (+/-)a; return the sign.

    g4 is the fourth-power exponential sum and g the quadratic Gauss sum.
    Pins which square-root branch the quartic generator sits on.
    """
    require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"p={p} is not 1 mod 4")
    diff = _g4_minus_g(p)
    square = quad_decompose(diff * diff)
    for s in (1, -1):
        if square == _delta_squared(p, s):
            return s
    raise ArithmeticError(
        f"(g4 - g)^2 = {square} matches neither branch for p={p}; arithmetic bug"
    )


def padic_val(x, p: int):
    """p-adic valuation of a rational; +infinity for zero."""
    x = _rational(x)
    if x == 0:
        return math.inf
    def count(n: int) -> int:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k
    return count(abs(x.numerator)) - count(x.denominator)
