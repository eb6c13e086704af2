"""Exact integer helpers: primality, factoring, Kronecker symbols,
fundamental-discriminant splitting, one certified irrational floor, the
Hermite form of a planar lattice, and Gauss-Jordan elimination mod a prime.

Everything here is arbitrary-precision and deterministic.  The only place the
number pi appears in the whole package is `floor_two_over_pi_sqrt`, which
brackets it by Machin's formula in integer arithmetic, to as many digits as
its argument needs, so the floor is provably exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    p = 5
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 2 if p % 3 == 2 else 4  # 5, 7, 11, 13, 17, 19, ... wheel
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def valuation(n: int, p: int) -> int:
    """Largest v with p**v | n (n != 0, p >= 2)."""
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p!r}")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def kronecker(D: int, m: int) -> int:
    """The Kronecker symbol (D/m) for m >= 0, fully multiplicative in m."""
    if m < 0:
        raise ValueError("kronecker is defined here for m >= 0")
    if m == 0:
        return 1 if D in (1, -1) else 0
    result = 1
    # factor out 2 with the standard (D/2) rule
    while m % 2 == 0:
        m //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    # now m odd: Jacobi symbol via reciprocity
    a = D % m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def squarefree_part(n: int) -> int:
    """The squarefree kernel of n (sign preserved)."""
    if n == 0:
        return 0
    sf = -1 if n < 0 else 1
    for p, e in factorize(abs(n)):
        if e % 2:
            sf *= p
    return sf


def split_discriminant(disc: int) -> tuple[int, int]:
    """Write a negative discriminant as f**2 * D0 with D0 fundamental.

    `disc` must be negative and congruent to 0 or 1 mod 4.  Returns (D0, f).
    """
    if disc >= 0:
        raise ValueError("expected a negative discriminant")
    if disc % 4 not in (0, 1):
        raise ValueError("discriminants are 0 or 1 mod 4")
    d = squarefree_part(disc)
    if d % 4 == 1:  # Python mod keeps this correct for negative d
        D0 = d
    else:
        D0 = 4 * d
    f2 = disc // D0
    f = isqrt(f2)
    assert f * f == f2, (disc, D0)
    return D0, f


def floor_two_over_pi_sqrt(x: int) -> int:
    """floor((2/pi) * sqrt(x)) for an integer x >= 0, provably exact.

    pi comes from Machin's formula pi = 16*arctan(1/5) - 4*arctan(1/239),
    each series summed in integers scaled by 10**(d + 10).  Every term is
    off by under 2 units and each tail by under 1, so with k terms in all
    the sum is within 32*k + 20 units, far below 10**10, and
    a < pi * 10**d < a + 3 for a = sum // 10**10 - 1.  Then y = 4x/pi**2
    lies between 4x * 100**d / (a + 3)**2 and 4x * 100**d / a**2, and
    floor(sqrt(y)) = isqrt(floor(y)).  d starts at about half the digits
    of x and doubles until both ends give the same floor; that ends,
    because y is irrational for x > 0, so no square sits on it.
    """
    if x < 0:
        raise ValueError("negative radicand")
    digits = 10 + x.bit_length() // 6
    while True:
        one, total = 10 ** (digits + 10), 0
        for c, n in ((16, 5), (-4, 239)):
            power, k = one // n, 1
            while power:
                total += c * (power // k)
                power, k, c = power // (n * n), k + 2, -c
        a = total // 10**10 - 1
        scaled = 4 * x * 100**digits
        m = isqrt(scaled // (a + 3) ** 2)
        if m == isqrt(scaled // a**2):
            return m
        digits *= 2


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf2(rows) -> tuple[int, int, int]:
    """Hermite basis ((A, 0), (c, d)) of the lattice the integer rows span.

    Normalized to A > 0, d > 0, 0 <= c < A; ValueError unless the rows span
    a rank-two lattice.
    """
    x1 = y1 = 0
    d1 = 0
    for x, y in rows:
        if y == 0:
            d1 = gcd(d1, x)
        elif y1 == 0:
            x1, y1 = x, y
        else:
            g, u, v = xgcd(y1, y)
            d1 = gcd(d1, (x * y1 - x1 * y) // g)
            x1, y1 = u * x1 + v * x, g
    if y1 < 0:
        x1, y1 = -x1, -y1
    d1 = abs(d1)
    if not d1 or not y1:
        raise ValueError("rows do not generate a rank-2 lattice")
    return d1, x1 % d1, y1


def solutions_mod(rows, n: int) -> list[tuple[int, int]]:
    """Every (x, y) mod n, in lex order, with a*x + b*y = 0 (mod n) for each
    row (a, b): a full scan of (Z/n)^2."""
    return [
        (x, y)
        for x in range(n)
        for y in range(n)
        if not any((a * x + b * y) % n for a, b in rows)
    ]


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)*.  ValueError unless gcd(a, m) = 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order, x = 1, a % m
    while x != 1 % m:
        x = x * a % m
        order += 1
    return order


def row_reduce(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination mod a prime p of the matrix with these rows.

    Returns (transform, pivots): the invertible T with T * rows in reduced
    row echelon form, and the columns of that form's leading ones, so the
    rank is len(pivots).
    """
    mat = [[v % p for v in row] for row in rows]
    n = len(mat)
    transform = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        sel = next((i for i in range(rank, n) if mat[i][col]), None)
        if sel is None:
            continue
        for m in (mat, transform):
            m[rank], m[sel] = m[sel], m[rank]
        inv = pow(mat[rank][col], -1, p)
        for m in (mat, transform):
            m[rank] = [v * inv % p for v in m[rank]]
        for i in range(n):
            c = mat[i][col]
            if i != rank and c:
                for m in (mat, transform):
                    m[i] = [(a - c * b) % p for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return transform, pivots
