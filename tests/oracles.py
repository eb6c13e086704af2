"""Oracles and guards shared by several test modules; the package itself
needs none of them."""

import signal
from contextlib import contextmanager
from functools import lru_cache
from math import gcd


@contextmanager
def deadline(seconds: int):
    """Fail with AssertionError, instead of hanging, if the block runs longer
    than `seconds` (SIGALRM, so the main thread of a POSIX process only)."""

    def expire(signum, frame):
        raise AssertionError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
