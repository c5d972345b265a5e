"""Small integer number-theory helpers, all read from one factorization.

Everything here is exact integer arithmetic sized for moduli up to a few
thousand; no probabilistic shortcuts.
"""
from __future__ import annotations

import math


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity} by trial division."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def primitive_root(n: int) -> int:
    """Smallest generator of (Z/nZ)* for n an odd prime power: the smallest g
    coprime to n with g^(phi/r) != 1 mod n for each prime r | phi = phi(n)."""
    fac = factorize(n)
    if len(fac) != 1 or 2 in fac:
        raise ValueError("primitive roots implemented for odd prime powers only")
    phi = euler_phi(n)
    cofactors = [phi // r for r in factorize(phi)]
    return next(g for g in range(2, n) if math.gcd(g, n) == 1 and all(pow(g, c, n) != 1 for c in cofactors))
