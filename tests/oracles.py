"""Oracles and guards shared by several test modules; the package itself
needs none of them."""

import random
import signal
from contextlib import contextmanager
from functools import lru_cache
from math import gcd

from isogenion.elliptic_curve import (
    CurveClass,
    _bottom_independent,
    _ell_power_order,
    base_change,
    base_change_degree,
    curve_order_over_extension,
    curve_seed,
    divide_point,
    embed_point,
    frobenius_endo,
    point_add,
    point_log,
    point_order,
    scalar_mul,
    sylow_basis,
    twist_classes,
)
from isogenion.endo_ring import compute_endo_conductor
from isogenion.errors import BoundExceeded, CurveMismatch
from isogenion.finite_field import R_MAX
from isogenion.intmath import factorize, valuation
from isogenion.polyring import subfield_embedding


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


# ---------------------------------------------------------------------------
# GF(p^r) kernel oracles: the residue-by-residue arithmetic that the packed
# kernel of `finite_field.Field` replaced.  Elements are coefficient tuples
# (constant term first) modulo F.modulus; only F.p, F.r and F.modulus are
# read, never the field's own arithmetic.


def _reduction_rows(F):
    """x^(r+i) mod the modulus for i = 0..r-2."""
    p, low = F.p, F.modulus[:-1]
    rows, cur = [], [(-c) % p for c in low]
    for _ in range(F.r - 1):
        rows.append(cur)
        cur = [0] + cur
        lead = cur.pop()
        cur = [(c - lead * m) % p for c, m in zip(cur, low)]
    return rows


def residue_add(F, a, b):
    """a + b, residue by residue: the loop element `+` ran before it called
    `raw_ops`."""
    return tuple([(u + v) % F.p for u, v in zip(a, b)])


def residue_sub(F, a, b):
    """a - b, residue by residue (unary minus is 0 - b)."""
    return tuple([(u - v) % F.p for u, v in zip(a, b)])


def schoolbook_mul(F, a, b):
    """a * b: the full convolution, then each coefficient of x^(r+i) folded
    back along x^(r+i) mod the modulus."""
    p, r = F.p, F.r
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    out = [c % p for c in prod[:r]]
    for i, row in enumerate(_reduction_rows(F)):
        c = prod[r + i] % p
        for k in range(r):
            out[k] = (out[k] + c * row[k]) % p
    return tuple(out)


def schoolbook_pow(F, a, e):
    """a^e (e >= 0) by square-and-multiply over `schoolbook_mul`."""
    result = (1,) + (0,) * (F.r - 1)
    while e:
        if e & 1:
            result = schoolbook_mul(F, result, a)
        a = schoolbook_mul(F, a, a)
        e >>= 1
    return result


def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def euclid_inverse(F, a):
    """a^-1 for a nonzero: the extended Euclid in GF(p)[x] against the
    modulus, which must be irreducible."""
    p = F.p
    r0, r1 = list(F.modulus), _ptrim(list(a))
    s0, s1 = [], [1]
    while r1:
        q, rem = [0] * len(r0), list(r0)
        inv_lead = pow(r1[-1], -1, p)
        while len(rem) >= len(r1):
            c = rem[-1] * inv_lead % p
            shift = len(rem) - len(r1)
            q[shift] = c
            for i, g in enumerate(r1):
                rem[shift + i] = (rem[shift + i] - c * g) % p
            _ptrim(rem)
        r0, r1 = r1, rem
        qs1 = _pmul(_ptrim(q), s1, p)
        width = max(len(s0), len(qs1))
        s0, s1 = s1, _ptrim([
            ((s0[i] if i < len(s0) else 0) - (qs1[i] if i < len(qs1) else 0)) % p
            for i in range(width)
        ])
    # r0 is the gcd, a nonzero constant
    c = pow(r0[0], -1, p)
    inv = [x * c % p for x in s0]
    return tuple(inv + [0] * (F.r - len(inv)))


@lru_cache(maxsize=None)
def _frobenius_rows(F):
    """Row i is (x^p)^i, by `schoolbook_pow`."""
    r = F.r
    x = (0, 1) + (0,) * (r - 2)
    y = schoolbook_pow(F, x, F.p)
    rows = [(1,) + (0,) * (r - 1)]
    for _ in range(r - 1):
        rows.append(schoolbook_mul(F, rows[-1], y))
    return rows


def table_frobenius(F, a, k):
    """a^(p^k), as k applications of a -> sum_i a_i (x^p)^i."""
    if F.r == 1:
        return tuple(a)
    p, r = F.p, F.r
    for _ in range(k % r):
        out = [0] * r
        for c, row in zip(a, _frobenius_rows(F)):
            for j in range(r):
                out[j] = (out[j] + c * row[j]) % p
        a = tuple(out)
    return tuple(a)


def euler_is_square(F, a):
    """Euler's criterion in GF(q): a = 0, or a^((q - 1)/2) = 1 (every element
    is a square when p = 2)."""
    if not any(a) or F.p == 2:
        return True
    return schoolbook_pow(F, a, (F.order - 1) // 2) == (1,) + (0,) * (F.r - 1)


def scan_least_nonresidue(F):
    """The lex-least non-square of GF(q), p odd: every element in
    `F.elements()` order until `is_square` says no."""
    return next(el for el in F.elements() if el and not el.is_square())


# ---------------------------------------------------------------------------
# group-law oracles: the FieldElement arithmetic that the raw-residue group
# law of `elliptic_curve` replaced, and the prime-at-a-time order search
# that halving replaced.


def element_point_add(P, Q):
    """P + Q in affine coordinates, every intermediate a FieldElement."""
    if P.curve != Q.curve:
        raise CurveMismatch("points on different curves")
    if P.x is None:
        return Q
    if Q.x is None:
        return P
    if P.x == Q.x:
        if P.y != Q.y or not P.y:
            return P.curve.infinity()
        slope = (3 * P.x * P.x + P.curve.A) / (2 * P.y)
    else:
        slope = (Q.y - P.y) / (Q.x - P.x)
    x3 = slope * slope - P.x - Q.x
    y3 = slope * (P.x - x3) - P.y
    return P.curve.point(x3, y3)


def element_scalar_mul(m, P):
    """m*P by double-and-add over `element_point_add`."""
    if m < 0:
        return element_scalar_mul(-m, -P)
    acc = P.curve.infinity()
    add = P
    while m:
        if m & 1:
            acc = element_point_add(acc, add)
        m >>= 1
        if m:
            add = element_point_add(add, add)
    return acc


def prime_by_prime_order(P, n):
    """ord(P) for P killed by n: divide n by each prime while the quotient
    still kills P, one full-size multiplication per test."""
    if element_scalar_mul(n, P):
        raise ValueError(f"{n} does not annihilate the point")
    for ell, _ in factorize(n):
        while n % ell == 0 and not element_scalar_mul(n // ell, P):
            n //= ell
    return n


# ---------------------------------------------------------------------------
# Sylow oracle: the pair-sampling loop that the complement reduction of
# `sylow_basis` replaced.


def paired_sylow_basis(E, ell):
    """((S1, S2, a, b), draws, nonzero) as `sylow_basis` built it by pairs:
    draw seeded points until one has order ell^v or two draws of orders
    ell^a >= ell^b with a + b = v have independent bottoms; after 600 draws,
    reduce the pool into a complement of the largest draw's <S1> by a log
    in <S1>.  `draws` counts every point drawn, `nonzero` those with a
    nonzero ell-part.  Not cached."""
    N = E.order
    v = valuation(N, ell)
    inf = E.infinity()
    if v == 0:
        return (inf, inf, 0, 0), 0, 0
    cof = N // ell**v
    rng = random.Random(curve_seed(E, ell))
    pool = []
    for draws in range(1, 601):
        T = scalar_mul(cof, E.random_point(rng))
        k, U = _ell_power_order(T, ell, v)
        if k == 0:
            continue
        if k == v:
            return (T, inf, v, 0), draws, len(pool) + 1
        for S, m, W in pool:
            big, bk, small, sk = (S, m, T, k) if m >= k else (T, k, S, m)
            if bk + sk == v and _bottom_independent(W, U, ell):
                return (big, small, bk, sk), draws, len(pool) + 1
        pool.append((T, k, U))
    S1, a, U1 = max(pool, key=lambda entry: entry[1], default=(inf, 0, inf))
    b = v - a
    for T, _, _ in pool:
        y = point_log(scalar_mul(ell**b, T), S1, ell**a)
        if y is None or y % ell**b:
            continue
        S2 = point_add(T, scalar_mul(-(y // ell**b), S1))
        if _bottom_independent(U1, scalar_mul(ell ** (b - 1), S2), ell):
            return (S1, S2, a, b), 600, len(pool)
    raise AssertionError("sylow sampling failed to span; group smaller than N?")


# ---------------------------------------------------------------------------
# torsion oracle: the extension scan that the Lenstra gate of
# `torsion_basis` replaced.


def scanned_torsion_basis(E, m):
    """(P, Q, field) as `torsion_basis` built it by scanning: Sylow-sample
    every GF(q^s), s ascending up to the R_MAX tower, whose count m^2
    divides, until each ell-Sylow group has second exponent >= v_ell(m).
    BoundExceeded when no degree in the tower has E[m]."""
    r0 = E.field.r
    for s in range(1, R_MAX // r0 + 1):
        if curve_order_over_extension(E, s) % (m * m):
            continue
        EK = base_change(E, s)
        P = Q = EK.infinity()
        for ell, e in factorize(m):
            S1, S2, a, b = sylow_basis(EK, ell)
            if b < e:
                break
            P = P + scalar_mul(ell ** (a - e), S1)
            Q = Q + scalar_mul(ell ** (b - e), S2)
        else:
            return (P, Q, EK.field)
    raise BoundExceeded(f"E[{m}] needs an extension beyond the degree cap {R_MAX}")


# ---------------------------------------------------------------------------
# point-count oracle: the two sweeps that the row kernel of `count_points`
# replaced.


def swept_count(E):
    """#E(k) by sweeping every x: over GF(p) a byte table of squares and the
    cubic in ints, beyond it `E.rhs` on field elements and a set of squares.
    Leaves E's count cache alone."""
    F = E.field
    n = 1  # the point at infinity
    if F.r == 1:
        p = F.p
        is_sq = bytearray(p)
        for v in range(p):
            is_sq[v * v % p] = 1
        a, b = E.A.coeffs[0], E.B.coeffs[0]
        for x in range(p):
            fx = ((x * x + a) * x + b) % p
            if fx == 0:
                n += 1
            elif is_sq[fx]:
                n += 2
        return n
    squares = {el * el for el in F.elements()}
    for x in F.elements():
        fx = E.rhs(x)
        if not fx:
            n += 1
        elif fx in squares:
            n += 2
    return n


# ---------------------------------------------------------------------------
# class-list oracle: the full j-line sweep that `classes_with_trace` made on
# every call before it read a table of j-invariants by trace.


def j_line_classes(field, t):
    """Every class over `field` with trace t: twist_classes at every j of
    the field, kept by trace and sorted by key, with no table between."""
    classes = [
        c for j in field.elements() for c in twist_classes(field, j) if c.trace == t
    ]
    classes.sort(key=CurveClass.key)
    return classes


# ---------------------------------------------------------------------------
# order-element oracles: End(E) = Z + Z*f*gamma applied to points by point
# division and lifting, a path that never touches a torsion matrix.  This
# module is not rewritten by pytest, so its checks raise explicitly and
# hold under `python -O` too.


def order_generator_element(E):
    """(u, v, w) with f*gamma = (u + v*pi)/w, the non-trivial generator of
    End(E) = Z + Z*f*gamma.

    Derived from (t, q, D0, f0, f) and verified: the element must have the
    trace and norm of f*gamma in the abstract order.
    """
    desc = compute_endo_conductor(E)
    t, q = E.trace, E.field.order
    u0, rem = divmod(t - desc.f0 * (desc.D0 % 2), 2)
    if rem:
        raise AssertionError("trace and conductor disagree in parity")
    w = desc.f0 // desc.f
    u, v = -u0, 1
    ring = desc.order()
    if 2 * u + v * t != w * ring.Tw:  # the trace of f*gamma
        raise AssertionError("generator has the wrong trace")
    if u * u + u * v * t + v * v * q != w * w * ring.element_norm(0, 1):
        raise AssertionError("generator has the wrong norm")
    return (u, v, w)


def _descend_point(R, C):
    """Rewrite R, known to be rational over C's field, as a point of C."""
    if R.curve == C:
        return R
    if not R:
        return C.infinity()
    emb = subfield_embedding(C.field, R.curve.field)
    try:
        return C.point(emb.unmap(R.x), emb.unmap(R.y))
    except ValueError:
        raise AssertionError("image must be rational over the point's field")


def evaluate_order_element(E, elem, P):
    """Apply (u + v*pi)/w in End(E) to P, with elem = (u, v, w).

    P is divided by w first (possibly in an extension), u + v*pi is applied
    to the lift, and the result is descended back to P's field.  Raises
    ValueError when the element is not integral for E.
    """
    u, v, w = elem
    if not all(isinstance(z, int) for z in (u, v, w)):
        raise TypeError("element coordinates must be integers")
    if w < 1:
        raise ValueError("denominator must be a positive integer")
    base_change_degree(E, P.curve)
    desc = compute_endo_conductor(E)
    u0 = (E.trace - desc.f0 * (desc.D0 % 2)) // 2
    if (v * desc.f0) % (w * desc.f) or (u + v * u0) % w:
        raise ValueError(
            f"({u} + {v}*pi)/{w} does not lie in the conductor-{desc.f} order"
        )
    p = E.field.p
    if w % p == 0:
        raise ValueError("denominator must be coprime to the characteristic")
    if not P:
        return P
    m = point_order(P)
    if m % p == 0:
        raise ValueError("point order must be coprime to the characteristic")
    lift = P if w == 1 else divide_point(P, w)
    r0 = E.field.r
    R = point_add(scalar_mul(u, lift), scalar_mul(v, frobenius_endo(lift, r0)))
    # lift-independence: w*R must equal (u + v*pi) applied to P itself
    up = embed_point(P, lift.curve)
    direct = point_add(scalar_mul(u, up), scalar_mul(v, frobenius_endo(up, r0)))
    if scalar_mul(w, R) != direct:
        raise AssertionError("image depends on the choice of lift")
    return _descend_point(R, P.curve)


# ---------------------------------------------------------------------------
# the hand-written CM residue table md_classifier kept before it read
# Kronecker symbols: per row j(tau), Md, a modulus, the residues of p that
# give an ordinary and a supersingular reduction, and the primes where a
# supersingular match is skipped because a norm-2 row shares the residue.

RESIDUE_TABLE = (
    (1728, 2, 4, (1,), (3,), ()),
    (8000, 2, 8, (1, 3), (5, 7), ()),
    (-3375, 2, 7, (1, 2, 4), (3, 5, 6), ()),
    (0, 3, 3, (1,), (2,), (2, 5)),
    (54000, 3, 3, (1,), (2,), (2, 5, 11, 17, 23)),
    (-32768, 3, 11, (1, 3, 4, 5, 9), (2, 6, 7, 8, 10), (2, 7, 13, 17, 19)),
)


def residue_table_md(p, j, supersingular):
    """Md over the closure of a curve with integer j-invariant j over a
    field of characteristic p > 3, read off RESIDUE_TABLE: the first row
    with j = j(tau) mod p and p's residue listed for the reduction type,
    outside the row's excluded primes; 4 when no row matches."""
    if p <= 3:
        raise ValueError("the residue table starts at p = 5")
    for j_tau, md, modulus, ordinary, ss, excluded in RESIDUE_TABLE:
        if (j - j_tau) % p:
            continue
        if supersingular and p in excluded:
            continue
        if p % modulus in (ss if supersingular else ordinary):
            return md
    return 4
