"""Oracles shared by several test modules; the package itself needs none of
them."""

from functools import lru_cache
from math import gcd


@lru_cache(maxsize=None)
def cyclic_lines(n: int) -> tuple[tuple[int, int], ...]:
    """One generator per cyclic subgroup of order n in (Z/n)^2.

    Each generator is the lex-least point of order n on its line, and the
    lines come in lex order of those generators; there are
    psi(n) = n * prod(1 + 1/ell) of them.
    """
    seen = set()
    out = []
    for s in range(n):
        for u in range(n):
            if (s, u) in seen or gcd(gcd(s, u), n) != 1:
                continue
            out.append((s, u))
            seen.update(((k * s) % n, (k * u) % n) for k in range(n))
    return tuple(out)
