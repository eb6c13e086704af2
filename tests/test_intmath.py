"""Integer arithmetic helpers, checked against independent oracles.

The floor((2/pi)*sqrt(x)) routine is the one place the package flirts with a
transcendental constant, so it gets the heaviest scrutiny here: an mpmath
oracle carrying 40 more significant digits than x has, plus the frozen
values the search bounds depend on.
"""

import math
import random

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from isogenion.intmath import (
    divisors,
    factorize,
    floor_two_over_pi_sqrt,
    hnf2,
    is_prime,
    kronecker,
    row_reduce,
    split_discriminant,
    squarefree_part,
    valuation,
    xgcd,
)
from isogenion.minimal_degree import eB
from oracles import cyclic_lines, deadline

# ---------------------------------------------------------------------------
# oracles


def _oracle_floor(x: int) -> int:
    # (2/pi)*sqrt(x) has about half the digits of x before the point, and
    # 40 more digits than x has keep its fraction far from an integer;
    # it is irrational for x > 0 so there is no boundary ambiguity.
    with mpmath.workdps(40 + len(str(x))):
        return int(mpmath.floor(2 / mpmath.pi * mpmath.sqrt(x)))


def _oracle_kronecker(D: int, m: int) -> int:
    """Kronecker symbol from first principles: Euler's criterion at odd
    primes, the (D/2) table, and multiplicativity."""
    if m == 0:
        return 1 if D in (1, -1) else 0
    result = 1
    for p, e in sympy.factorint(m).items():
        if p == 2:
            if D % 2 == 0:
                sym = 0
            elif D % 8 in (1, 7):
                sym = 1
            else:
                sym = -1
        else:
            euler = pow(D % p, (p - 1) // 2, p)
            sym = {0: 0, 1: 1, p - 1: -1}[euler]
        result *= sym**e
    return result


def _is_fundamental(D: int) -> bool:
    if D >= 0 or D % 4 not in (0, 1):
        return False
    if D % 4 == 1:
        return all(e == 1 for e in sympy.factorint(-D).values())
    m = D // 4
    return m % 4 in (2, 3) and all(e == 1 for e in sympy.factorint(-m).values())


# ---------------------------------------------------------------------------
# certified floor of (2/pi)*sqrt(x)


def test_floor_two_over_pi_small_range():
    for x in range(0, 3000):
        assert floor_two_over_pi_sqrt(x) == _oracle_floor(x), x


def test_floor_two_over_pi_large_values():
    rng = random.Random(7)
    samples = [10**k for k in range(1, 18)]
    samples += [rng.randrange(1, 10**15) for _ in range(400)]
    # values shaped like 4q - t^2 with Hasse-range traces
    for q in (41, 53, 67, 1009, 2**16 - 15):
        for t in range(-int(2 * q**0.5), int(2 * q**0.5) + 1, 7):
            samples.append(4 * q - t * t)
    # the top of the desk range: a 50-digit pi cannot settle these floors
    for q in (65521**24, 40009**22, 12553**24):
        samples += [4 * q - t * t for t in range(20)]
    for x in samples:
        assert floor_two_over_pi_sqrt(x) == _oracle_floor(x), x


def test_eB_at_the_largest_field():
    assert eB(65521**24, 1) == _oracle_floor(4 * 65521**24 - 1)


def test_floor_two_over_pi_frozen_search_bounds():
    # bounds used by the minimal-degree search on the worked examples
    assert floor_two_over_pi_sqrt(4 * 41 - 36) == 7
    assert floor_two_over_pi_sqrt(4 * 53 - 16) == 8
    assert floor_two_over_pi_sqrt(4 * 53 - 0) == 9
    assert floor_two_over_pi_sqrt(4 * 67 - 144) == 7
    assert floor_two_over_pi_sqrt(212) == 9  # Minkowski bound for disc -212


# ---------------------------------------------------------------------------
# primality and factoring


def test_is_prime_matches_sympy_small():
    for n in range(-3, 5000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_sympy_random_64bit():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 2**64)
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_reconstructs_and_is_prime():
    rng = random.Random(13)
    values = list(range(2, 400)) + [rng.randrange(2, 10**9) for _ in range(60)]
    for n in values:
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert fac == tuple(sorted(sympy.factorint(n).items()))


def test_divisors_and_valuation():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(48, 5) == 0


@pytest.mark.parametrize("p", [1, 0, -2])
def test_valuation_refuses_a_base_below_two(p):
    # base 1 used to loop forever and base 0 to divide by zero
    with deadline(10), pytest.raises(ValueError):
        valuation(48, p)


# ---------------------------------------------------------------------------
# kronecker symbol


def test_kronecker_matches_oracle_grid():
    for D in range(-80, 81):
        for m in range(1, 120):
            assert kronecker(D, m) == _oracle_kronecker(D, m), (D, m)


def test_kronecker_pinned_values():
    assert kronecker(-8, 2) == 0
    assert kronecker(-212, 3) == 1  # -212 = 1 mod 3, and 1 is a QR
    for D in (-7, 0, 1, 13, -212):
        assert kronecker(D, 1) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)
def test_kronecker_multiplicative(D, m, n):
    assert kronecker(D, m * n) == kronecker(D, m) * kronecker(D, n)


# ---------------------------------------------------------------------------
# discriminants


def test_split_discriminant_brute():
    for disc in range(-4, -20000, -1):
        if disc % 4 not in (0, 1):
            continue
        D0, f = split_discriminant(disc)
        assert D0 * f * f == disc
        assert _is_fundamental(D0), (disc, D0, f)
    with pytest.raises(ValueError):
        split_discriminant(-6)  # -6 = 2 mod 4
    with pytest.raises(ValueError):
        split_discriminant(4)


def test_split_discriminant_examples():
    assert split_discriminant(-212) == (-212, 1)  # 4 * -53, squarefree odd part
    assert split_discriminant(-128) == (-8, 4)
    assert split_discriminant(-144) == (-4, 6)
    assert split_discriminant(-27) == (-3, 3)
    assert split_discriminant(-196) == (-4, 7)


def test_squarefree_part():
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 10**6)
        s = squarefree_part(n)
        assert math.isqrt(n // s) ** 2 == n // s and n % s == 0


# ---------------------------------------------------------------------------
# planar lattices and cyclic lines


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_bezout(a, b):
    g, s, t = xgcd(a, b)
    assert g == math.gcd(a, b) and s * a + t * b == g


def _in_hermite(A, c, d, x, y):
    return y % d == 0 and (x - (y // d) * c) % A == 0


def test_hnf2_matches_brute_membership_mod_n():
    """Lattices containing n*Z^2 (the annihilator shape) against the
    subgroup of (Z/n)^2 the rows generate, closed by brute force."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 25)
        rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(4))]
        closure = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            x, y = frontier.pop()
            for rx, ry in rows:
                pt = ((x + rx) % n, (y + ry) % n)
                if pt not in closure:
                    closure.add(pt)
                    frontier.append(pt)
        A, c, d = hnf2(rows + [(n, 0), (0, n)])
        assert A > 0 and d > 0 and 0 <= c < A
        members = {(x, y) for x in range(n) for y in range(n) if _in_hermite(A, c, d, x, y)}
        assert members == closure, (n, rows)


def test_hnf2_matches_minors_and_contains_rows():
    """Any rank-two rows: each lies in the Hermite lattice, whose covolume
    A*d is the gcd of the rows' 2x2 minors (the index of their span)."""
    rng = random.Random(12)
    for _ in range(500):
        rows = [(rng.randrange(-30, 31), rng.randrange(-30, 31)) for _ in range(rng.randrange(2, 6))]
        minors = 0
        for i, (x1, y1) in enumerate(rows):
            for x2, y2 in rows[i + 1 :]:
                minors = math.gcd(minors, x1 * y2 - x2 * y1)
        if minors == 0:
            with pytest.raises(ValueError):
                hnf2(rows)
            continue
        A, c, d = hnf2(rows)
        assert A > 0 and d > 0 and 0 <= c < A
        assert A * d == minors
        assert all(_in_hermite(A, c, d, x, y) for x, y in rows)


def test_hnf2_rejects_rank_deficient_rows():
    for rows in ([], [(3, 0)], [(0, 5)], [(2, 4), (-1, -2)], [(4, 0), (6, 0)]):
        with pytest.raises(ValueError):
            hnf2(rows)


@pytest.mark.parametrize("n", range(2, 65))
def test_cyclic_lines_one_generator_per_line(n):
    lines = cyclic_lines(n)
    psi = n
    for ell, _ in factorize(n):
        psi = psi * (ell + 1) // ell
    assert len(lines) == psi
    assert list(lines) == sorted(lines)
    spans = set()
    for s, u in lines:
        assert math.gcd(math.gcd(s, u), n) == 1  # order exactly n
        generators = {((k * s) % n, (k * u) % n) for k in range(n) if math.gcd(k, n) == 1}
        assert (s, u) == min(generators)
        spans.add(frozenset(generators))
    assert len(spans) == psi


@pytest.mark.parametrize("p", [2, 5, 41])
def test_row_reduce_matches_sympy_rref(p):
    rng = random.Random(p)
    F = sympy.GF(p)
    for _ in range(40):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        # small entries make rank deficits common
        rows = [[rng.randrange(-1, 2) * rng.randrange(p) for _ in range(n)] for _ in range(m)]
        transform, pivots = row_reduce(rows, p)
        rref, sym_pivots = DomainMatrix.from_list(rows, F).rref()
        product = [
            [sum(t * rows[k][j] for k, t in enumerate(trow)) % p for j in range(n)]
            for trow in transform
        ]
        assert product == [[int(v) % p for v in row] for row in rref.to_list()]
        assert tuple(pivots) == tuple(sym_pivots)
        assert DomainMatrix.from_list(transform, F).det() != 0
