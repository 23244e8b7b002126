"""Prime and modular-arithmetic helpers shared across the package."""
from __future__ import annotations

import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
AUX_PRIME_FLOOR = 1 << 24  # every CRT prime lies above it, every int64 coefficient below


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    if not isinstance(p, int) or p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p!r}")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def least_nonresidue(p: int) -> int:
    return distinct_nonresidues(p, 1)[0]


def distinct_nonresidues(p: int, count: int) -> list[int]:
    """The `count` smallest quadratic non-residues mod p (fewer if p is tiny)."""
    out = []
    for n in range(2, p):
        if legendre(n, p) == -1:
            out.append(n)
            if len(out) == count:
                break
    return out


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    """Least primitive root mod p."""
    fac = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            return g
    raise ArithmeticError(f"no primitive root found for {p}")


def aux_primes(p: int):
    """Yield primes q with q ≡ 1 (mod p) and q > AUX_PRIME_FLOOR, in increasing order."""
    q = (AUX_PRIME_FLOOR // p + 1) * p + 1
    while True:
        if is_prime(q):
            yield q
        q += p


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n
