"""Endomorphism rings of elliptic curves over small finite fields.

For an ordinary curve E over GF(q) with Frobenius trace t, and for a
supersingular curve over the prime field, the ring End_k(E) is an
imaginary quadratic order squeezed between Z[pi] (discriminant
t^2 - 4q = f0^2 * D0) and the maximal order of Q(sqrt(D0)).  Its conductor
f divides f0, and the exponent of each prime ell in f is the depth of E
below the surface of its ell-volcano.  `conductor_level` finds that
exponent by a breadth-first search from E, over class representatives, for
the nearest vertex with a single rational ell-isogeny (the floor test);
`compute_endo_conductor` runs it for every prime of f0.  The module
also represents the Frobenius as an explicit 2x2 matrix on torsion bases
and measures the index of the annihilator of a finite subgroup inside
End(E).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .errors import OrdinaryOnly
from .intmath import factorize, hnf2, is_prime, solutions_mod, valuation
from .elliptic_curve import (
    Curve,
    CurveClass,
    Point,
    base_change,
    check_coprime_to_p,
    check_kernel_generator,
    curve_class,
    discriminant_frobenius_order,
    embed_point,
    frobenius_endo,
    frobenius_is_integer,
    is_supersingular,
    scalar_mul,
    torsion_basis,
    two_dim_dlog,
)
from .isogeny import cyclic_isogenies
from .quadratic_order import QuadOrder, quad_order


# ---------------------------------------------------------------------------
# descriptors


class EndoDescriptor:
    """Where End(E) sits between Z[pi] and the maximal order.

    `f` is the conductor of End(E), `f0` that of Z[pi], and `levels` maps
    each prime dividing f0 to the exponent it carries in f.  In End(E) =
    Z + Z*f*gamma the Frobenius is pi = u0 + (f0/f)*f*gamma.
    """

    __slots__ = ("curve_class", "D0", "f", "f0", "levels", "u0")

    def __init__(self, cls: CurveClass, D0: int, f: int, f0: int, levels: dict):
        self.curve_class = cls
        self.D0 = D0
        self.f = f
        self.f0 = f0
        self.levels = dict(levels)
        self.u0 = (cls.trace - f0 * (D0 % 2)) // 2

    def order(self) -> QuadOrder:
        """End(E) as an abstract quadratic order."""
        return quad_order(self.D0, self.f)

    def __repr__(self):
        return (
            f"EndoDescriptor({self.curve_class!r}, D0={self.D0}, "
            f"f={self.f}, f0={self.f0}, levels={self.levels})"
        )


class FrobeniusMatrix:
    """The q-power Frobenius on a basis (P, Q) of E[m].

    Column-vector convention: a point x*P + y*Q maps to x'*P + y'*Q with
    (x', y') = matrix @ (x, y) mod m.  m = 1 carries the empty action.
    """

    __slots__ = ("m", "basis", "matrix")

    def __init__(self, m: int, basis: tuple, matrix: tuple):
        self.m = m
        self.basis = basis
        self.matrix = matrix

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.matrix
        return (a * d - b * c) % self.m

    @property
    def tr(self) -> int:
        (a, b), (c, d) = self.matrix
        return (a + d) % self.m

    def __repr__(self):
        return f"FrobeniusMatrix(m={self.m}, matrix={self.matrix})"


# ---------------------------------------------------------------------------
# conductor probing

def conductor_level(E: Curve, ell: int) -> int:
    """v_ell of the conductor of End_k(E), read against depth = v_ell(f0).

    ell must be a prime int (ValueError otherwise) that passes
    check_coprime_to_p.  A vertex strictly above the floor has ell + 1
    rational ell-isogenies (the Frobenius is scalar on E[ell] there), a
    floor vertex exactly one.  Every edge changes the level by at most one
    and a straight descent reaches the floor in depth - level steps, so a
    breadth-first search over k-isomorphism classes, testing each vertex as
    it leaves the frontier, meets its first floor vertex at exactly that
    distance.  Past E the search visits class representatives, so the
    cached enumerations of cyclic_isogenies serve build_graph and the next
    search too.
    """
    if type(ell) is not int or not is_prime(ell):
        raise ValueError(f"ell must be a prime int, got {ell!r}")
    check_coprime_to_p(ell, E.field.p)
    depth = valuation(discriminant_frobenius_order(E.field.order, E.trace)[1], ell)
    if depth == 0:
        return 0
    seen, frontier = {curve_class(E)}, [E]
    for dist in range(depth + 1):
        nxt = []
        for C in frontier:
            isogenies = cyclic_isogenies(C, ell)
            if len(isogenies) == 1:
                return depth - dist
            for phi in isogenies:
                if phi.target not in seen:
                    seen.add(phi.target)
                    nxt.append(phi.target.representative)
        frontier = nxt
    raise AssertionError("no floor vertex within the depth")


@lru_cache(maxsize=None)
def compute_endo_conductor(E: Curve) -> EndoDescriptor:
    """Determine End_k(E) for an ordinary curve or a supersingular curve
    over the prime field; End_k(E) is then an imaginary quadratic order.

    Probes one prime of f0 at a time with `conductor_level`; raises
    OrdinaryOnly for supersingular curves beyond the prime field and
    BoundExceeded when a prime of f0 is beyond the kernel-order cap.
    """
    if is_supersingular(E) and E.field.r > 1:
        raise OrdinaryOnly(
            "End_k(E) is not computed for supersingular curves beyond the "
            "prime field"
        )
    q = E.field.order
    D0, f0 = discriminant_frobenius_order(q, E.trace)
    levels = {}
    f = 1
    for ell, _ in factorize(f0):
        lvl = conductor_level(E, ell)
        levels[ell] = lvl
        f *= ell**lvl
    return EndoDescriptor(curve_class(E), D0, f, f0, levels)


# ---------------------------------------------------------------------------
# Frobenius matrices


@lru_cache(maxsize=None, typed=True)
def frobenius_matrix(E: Curve, m: int) -> FrobeniusMatrix:
    """Matrix of the base-field Frobenius on a basis of E[m].

    m must pass check_torsion_order, which torsion_basis applies (for m = 1
    the basis is (O, O) and the matrix is zero).  Entries are found by
    two-dimensional discrete logarithm; the result is checked against
    x^2 - t*x + q before being returned.
    """
    P, Q, _ = torsion_basis(E, m)
    r0 = E.field.r
    cols = []
    for T in (P, Q):
        dl = two_dim_dlog(frobenius_endo(T, r0), P, Q, m, m)
        if dl is None:
            raise AssertionError("Frobenius image escaped the torsion basis")
        cols.append(dl)
    (a, c), (b, d) = cols
    t, q = E.trace, E.field.order
    if ((a + d) - t) % m or ((a * d - b * c) - q) % m:
        raise AssertionError("matrix violates the characteristic polynomial")
    return FrobeniusMatrix(m, (P, Q), ((a, b), (c, d)))


# ---------------------------------------------------------------------------
# annihilator indices


def coords_in_basis(T: Point, P: Point, Q: Point, m: int) -> tuple[int, int]:
    """(x, y) with T = x*P + y*Q, embedding all three into a common field
    (base_change refuses one past R_MAX)."""
    r_common = lcm(T.curve.field.r, P.curve.field.r)
    EK = base_change(P.curve, r_common // P.curve.field.r)
    Pm, Qm, Tm = (embed_point(R, EK) for R in (P, Q, T))
    dl = two_dim_dlog(Tm, Pm, Qm, m, m)
    if dl is None:
        raise AssertionError("point must lie in the torsion plane of the basis")
    return dl


def gamma_matrix(E: Curve, m: int):
    """Matrix of f*gamma on a basis of E[m], plus that basis.

    End_k(E) = Z + Z*f*gamma.  f*gamma lifts to the integral pi - u0 on
    E[m*w] (w the denominator f0/f), so the matrix comes from one Frobenius
    matrix there, divided by w and read mod m.  The result is checked
    against the minimal polynomial of f*gamma before being returned.  m*w
    must pass check_torsion_order, which torsion_basis applies.
    """
    desc = compute_endo_conductor(E)
    u0, w = desc.u0, desc.f0 // desc.f
    fm = frobenius_matrix(E, m * w)
    (a, b), (c, d) = fm.matrix
    mw = m * w
    ent = ((a - u0) % mw, b % mw, c % mw, (d - u0) % mw)
    assert all(z % w == 0 for z in ent), "pi - u0 must kill E[w]"
    W = tuple(z // w % m for z in ent)
    ring = desc.order()
    tr, nm = ring.Tw, ring.Nw
    assert (W[0] * W[0] + W[1] * W[2] - tr * W[0] + nm) % m == 0
    assert (W[3] * W[3] + W[1] * W[2] - tr * W[3] + nm) % m == 0
    assert (W[1] * (W[0] + W[3] - tr)) % m == 0
    assert (W[2] * (W[0] + W[3] - tr)) % m == 0
    P, Q = fm.basis
    if w > 1:
        P, Q = scalar_mul(w, P), scalar_mul(w, Q)
    return W, P, Q


def annihilator_lattice(E: Curve, pts: list[Point], n: int) -> tuple[int, int, int]:
    """Hermite form ((A, 0), (c, d)) of {x + y*f*gamma : kills every point}.

    n must be a multiple of the exponent of the subgroup the points
    generate; the lattice contains n*Z^2, so residues mod n determine it.
    Its index in End(E) is A*d.
    """
    W, P, Q = gamma_matrix(E, n)
    rows = []  # x*T + y*f*gamma(T) = O, read on each coordinate of the basis
    for T in pts:
        k0, k1 = coords_in_basis(T, P, Q, n)
        rows += [(k0, W[0] * k0 + W[1] * k1), (k1, W[2] * k0 + W[3] * k1)]
    members = solutions_mod(rows, n)
    A, c, d = hnf2(members + [(n, 0), (0, n)])
    assert A * d * len(members) == n * n, "annihilators must form a subgroup"
    return A, c, d


def annihilator_index(E: Curve, kernel_gen, m: int) -> int:
    """[End(E) : I(<kernel_gen>)] for a point of exact order m.

    When frobenius_is_integer(q, t) the Frobenius is an integer, End_k(E)
    is a maximal quaternion order and End_k(E)/m the full ring M_2(Z/m); a point of
    exact order m extends to a basis of E[m], so its annihilator has index
    m^2.  When End_k(E) is quadratic (ordinary curves, supersingular ones
    over GF(p)) the index is A*d for the annihilator_lattice of the
    generator; any other supersingular curve is refused with OrdinaryOnly
    by compute_endo_conductor.  kernel_gen and m must pass
    check_kernel_generator.
    """
    check_kernel_generator(E, kernel_gen, m)
    if m == 1:
        return 1
    if frobenius_is_integer(E.field.order, E.trace):
        return m * m

    A, _, d = annihilator_lattice(E, [kernel_gen], m)
    return A * d
