"""Hom modules as ideals: indices, two-generator bases, kernel ideals.

For an isogeny beta: E2 -> E1 between curves of the same trace, the set
Hom(E1, E2)*beta of all compositions alpha . beta is an ideal of End(E2).
Writing [End(E2):End(E1)] = prod ell_i^{e_i} (signed exponents, positive
when E1 sits deeper in the volcano), the index of that ideal is

    [End(E2) : Hom(E1, E2)*beta] = prod ell_i^{rho(e_i)} * deg(beta)

with rho clipping negatives to zero, and the ideal itself has a
two-generator presentation whose shape this module computes explicitly.
A consequence worth naming: beta is the quotient by a kernel ideal of
End(E2) exactly when every e_i <= 0, i.e. when no ell lets the
endomorphism ring shrink on the way from E2 to E1.  The converse
machinery (the subgroup annihilated by an ideal, the ideal annihilating
a subgroup, and the split prime-square p-part) lives here too.
"""

from __future__ import annotations

import json
from math import gcd, lcm, prod

from .elliptic_curve import (
    M_MAX,
    Curve,
    Point,
    check_isogenous,
    check_torsion_order,
    curve_class,
    frobenius_is_integer,
    is_supersingular,
    point_add,
    point_order,
    scalar_mul,
)
from .endo_ring import (
    annihilator_lattice,
    compute_endo_conductor,
    gamma_matrix,
)
from .errors import (
    BoundExceeded,
    CurveMismatch,
    OrderMismatch,
    SupersingularUnsupported,
)
from .finite_field import element_to_json
from .intmath import factorize, prime_factors, solutions_mod, valuation
from .isogeny import Isogeny, cyclic_isogenies
from .quadratic_order import (
    DISC_MAX,
    QuadIdeal,
    ideal_multiply,
    primes_above,
    unit_ideal,
)


def rho(e: int) -> int:
    """Clip a signed conductor exponent: e if e > 0, else 0."""
    if type(e) is not int:
        raise TypeError("exponent must be an integer")
    return e if e > 0 else 0


# ---------------------------------------------------------------------------
# conductor exponents


def conductor_ratio(E2: Curve, E1: Curve) -> dict[int, int]:
    """Signed exponents e_ell with [End(E2):End(E1)] = prod ell^{e_ell}.

    Positive entries mean End(E1) is smaller (E1 deeper); the map is empty
    exactly when the two rings coincide.  The pair must pass
    check_isogenous (same field, same trace).
    """
    check_isogenous(E2, E1)
    f2 = compute_endo_conductor(E2).f
    f1 = compute_endo_conductor(E1).f
    out = {}
    for ell in sorted(set(prime_factors(f1)) | set(prime_factors(f2))):
        e = valuation(f1, ell) - valuation(f2, ell)
        if e:
            out[ell] = e
    return out


def corresponds_to_kernel_ideal(E2: Curve, E1: Curve) -> bool:
    """Can every isogeny E2 -> E1 be the quotient by an End(E2)-ideal?

    True iff no conductor exponent is positive; a property of the pair,
    independent of which isogeny connects it.
    """
    return all(e <= 0 for e in conductor_ratio(E2, E1).values())


# ---------------------------------------------------------------------------
# the index and its two-generator presentation


class HomIdealDescription:
    """How Hom(E1, E2)*beta sits inside End(E2).

    `conductor_ratio` carries the signed exponents e_ell of
    [End(E2):End(E1)], `backtrack_factor` the largest m with E2[m] inside
    ker(beta), and `index` the module index, always
    prod ell^{rho(e_ell)} * beta_degree.  When beta is separable, `basis`
    is the pair (first, (mult, b, correction)) presenting the ideal as

        Z*first + Z*mult*(b*correction + f*gamma),

    first = backtrack * primitive degree, mult = backtrack * prod
    ell^{rho(e_ell)}, correction = prod ell^{rho(e_ell) - e_ell}, with b
    the computed witness, reduced modulo first // (mult * correction).
    Inseparable inputs leave basis as None.
    """

    __slots__ = (
        "source_class",
        "target_class",
        "beta_degree",
        "backtrack_factor",
        "conductor_ratio",
        "index",
        "basis",
    )

    def __init__(self, src, dst, degree, backtrack, ratio, index, basis):
        self.source_class = src
        self.target_class = dst
        self.beta_degree = degree
        self.backtrack_factor = backtrack
        self.conductor_ratio = dict(ratio)
        self.index = index
        self.basis = basis

    def __repr__(self):
        return (
            f"HomIdealDescription(deg={self.beta_degree}, "
            f"ratio={self.conductor_ratio}, index={self.index}, "
            f"basis={self.basis})"
        )


def hom_index(E2: Curve, E1: Curve, beta: Isogeny) -> HomIdealDescription:
    """The index [End(E2) : Hom(E1, E2)*beta] with the ideal's presentation.

    beta must start at exactly E2 and land on the k-isomorphism class of
    E1 (post-composing with an isomorphism changes neither the kernel nor
    the module).  Curves whose Frobenius is an integer
    (frobenius_is_integer: trace +-2*sqrt(q)) carry the full quaternion
    endomorphism ring and get index (deg beta)^2 with no quadratic
    presentation; every other supported curve goes through the conductor
    formula.  beta's separable kernel Z/a x Z/m (a | m, a*m = sep) gives
    its points and exponent m (a stored generator, or the E[m] scan behind
    kernel_gen), and the backtrack factor is a = sep // m.  For separable
    beta the witness b is solved from the annihilator lattice of the
    kernel, whose Hermite form (A, c, d) is the basis and is checked
    against the formula.  That lattice needs E2[m*w], w = f0/f; m is a
    multiple of d0 = prod ell^ceil(e/2) over sep = prod ell^e, so
    E2[d0*w] passes check_torsion_order before the kernel is scanned; a
    separable degree that p divides (the Verschiebung of an ordinary curve)
    is refused there with PPartUnsupported.  The pair must pass
    check_isogenous, which comes first.
    """
    if not isinstance(beta, Isogeny):
        raise TypeError("expected an isogeny")
    check_isogenous(E2, E1)
    if beta.source_curve != E2:
        raise CurveMismatch("beta does not start at the first curve")
    cls2, cls1 = curve_class(E2), curve_class(E1)
    if beta.target != cls1:
        raise CurveMismatch("beta does not land on the class of the second curve")
    sep = beta.separable_degree

    if frobenius_is_integer(E2.field.order, E2.trace):
        # quaternionic End: the index doubles up in the exponent
        back = sep // beta.kernel_exponent
        return HomIdealDescription(
            cls2, cls1, beta.degree, back, {}, beta.degree**2, None
        )

    ratio = conductor_ratio(E2, E1)
    desc2 = compute_endo_conductor(E2)
    if beta.insep_exp == 0 and sep > 1:
        d0 = prod(ell ** ((e + 1) // 2) for ell, e in factorize(sep))
        check_torsion_order(E2, d0 * desc2.f0 // desc2.f)
    n = beta.kernel_exponent
    back = sep // n
    outer = prod(ell ** rho(e) for ell, e in ratio.items())
    corr = prod(ell ** (rho(e) - e) for ell, e in ratio.items())
    assert desc2.f % corr == 0, "correction factor must divide the conductor"
    index = outer * beta.degree
    deg_prime = beta.degree // (back * back)
    assert deg_prime % (outer * corr) == 0, (
        "every isogeny degree is divisible by prod ell^|e_ell|"
    )

    basis = None
    if beta.insep_exp == 0:
        if n == 1:
            # beta is an isomorphism
            assert deg_prime == 1 and outer == 1 and corr == 1
            basis = (1, (1, 0, 1))
        else:
            gen = beta.kernel_gen
            pts = [gen] if isinstance(gen, Point) else gen
            A, c, d = annihilator_lattice(E2, pts, n)
            assert A * d == index, (
                "annihilator lattice disagrees with the index formula"
            )
            assert A == back * deg_prime and d == back * outer, (
                "annihilator lattice does not fit the two-generator shape"
            )
            b, rem = divmod(c, d * corr)
            assert rem == 0, (
                "annihilator lattice does not fit the two-generator shape"
            )
            basis = (A, (d, b, corr))
    return HomIdealDescription(cls2, cls1, beta.degree, back, ratio, index, basis)


class HomBasis:
    """Basis of Hom(E1, E2) over the dual of a connecting isogeny.

    With beta' the primitive part of the input (backtracking stripped) and
    d' = deg beta', the module is

        Hom(E1, E2) = Z*dual(beta') + Z*outer*(b*correction + f*gamma)*dual(beta')/d'

    inside Hom(E1, E2) tensor Q; f*gamma generates End(E2).
    """

    __slots__ = (
        "source_class",
        "target_class",
        "degree",
        "outer",
        "b",
        "correction",
        "backtrack_stripped",
        "conductor_ratio",
    )

    def __init__(self, src, dst, degree, outer, b, correction, back, ratio):
        self.source_class = src
        self.target_class = dst
        self.degree = degree
        self.outer = outer
        self.b = b
        self.correction = correction
        self.backtrack_stripped = back
        self.conductor_ratio = dict(ratio)

    def __repr__(self):
        return (
            f"HomBasis(degree={self.degree}, second={self.outer}*"
            f"({self.b}*{self.correction} + fg)/{self.degree})"
        )


def hom_lattice_basis(E2: Curve, E1: Curve, beta: Isogeny) -> HomBasis:
    """Two-generator description of all of Hom(E1, E2), via beta's dual.

    The multiplication factor of beta is stripped first; the b witness is
    the one hom_index computes for the primitive part.
    """
    desc = hom_index(E2, E1, beta)
    if desc.basis is None:
        raise ValueError(
            "no quadratic presentation for this input (inseparable beta or "
            "quaternionic endomorphisms)"
        )
    first, (mult, b, corr) = desc.basis
    back = desc.backtrack_factor
    return HomBasis(
        desc.target_class,
        desc.source_class,
        first // back,
        mult // back,
        b,
        corr,
        back,
        desc.conductor_ratio,
    )


# ---------------------------------------------------------------------------
# ideals to subgroups and back


def kernel_of_ideal(E: Curve, I: QuadIdeal) -> list[Point]:
    """All points of H(I), the subgroup annihilated by every element of I.

    I must be an ideal of End(E), and a*t must pass check_torsion_order,
    which refuses the p-part (p | N(I) = t^2*a exactly when p | a*t) with
    PPartUnsupported.  H(I) sits inside E[a*t] and is cut out there by the
    single generator t*(b + f*gamma); the identity is included, so an
    invertible I returns exactly I.norm points.
    """
    if not isinstance(I, QuadIdeal):
        raise TypeError("expected a QuadIdeal")
    desc = compute_endo_conductor(E)
    if desc.order() != I.order:
        raise OrderMismatch(
            f"ideal belongs to {I.order!r}, not to End(E) = "
            f"QuadOrder(D0={desc.D0}, f={desc.f})"
        )
    n = I.a * I.t
    check_torsion_order(E, n)
    W, P, Q = gamma_matrix(E, n)
    t, b = I.t, I.b
    rows = ((t * (b + W[0]), t * W[1]), (t * W[2], t * (b + W[3])))
    return [point_add(scalar_mul(s, P), scalar_mul(u, Q)) for s, u in solutions_mod(rows, n)]


def annihilator_ideal(E: Curve, points) -> QuadIdeal:
    """The full ideal of End(E) elements killing every listed point.

    The inverse direction of kernel_of_ideal.  Annihilators are ideals for
    any point set (the order is commutative), so this computes I(H) for H
    the End(E)-saturation of the subgroup the points generate; when the
    points span a Frobenius-stable subgroup, that saturation is the
    subgroup itself.  The lcm of the point orders must pass
    check_torsion_order (PPartUnsupported when p divides it).
    """
    pts = [T for T in points if T]
    order = compute_endo_conductor(E).order()
    if not pts:
        return unit_ideal(order)
    # every order check_torsion_order accepts divides lcm(1, ..., M_MAX), so
    # #E(K) is not factored unless a point's order is refused anyway
    L = lcm(*range(1, M_MAX + 1))
    n = 1
    for T in pts:
        try:
            n = lcm(n, point_order(T, gcd(T.curve.order, L)))
        except ValueError:
            n = lcm(n, point_order(T))
    check_torsion_order(E, n)
    A, c, d = annihilator_lattice(E, pts, n)
    assert A % d == 0 and c % d == 0, "annihilators always form an ideal"
    return QuadIdeal(order, d, A // d, (c // d) % (A // d))


def p_part_ideal(E: Curve, e1: int, e: int) -> QuadIdeal:
    """The kernel ideal P1^e1 * P2^(e-e1) of the p-power part of an isogeny.

    P1 and P2 are the two primes of End(E) above p (ordinary curves split),
    ordered so that the Frobenius pi lies in P1: a degree-p^e isogeny whose
    inseparable exponent is e1 corresponds to this product.  P1*P2 = (p).
    """
    if type(e1) is not int or type(e) is not int:
        raise TypeError("exponents must be integers")
    if not 0 <= e1 <= e:
        raise ValueError("exponents must satisfy 0 <= e1 <= e")
    if is_supersingular(E):
        raise SupersingularUnsupported(
            "pi is not split in the supersingular endomorphism algebra"
        )
    desc = compute_endo_conductor(E)
    order = desc.order()
    p = E.field.p
    if p**e > DISC_MAX:
        raise BoundExceeded(
            f"ideal norm cap is {DISC_MAX}",
            cap="DISC_MAX", limit=DISC_MAX, requested=p**e,
        )
    above = primes_above(order, p)
    assert len(above) == 2, "p must split in the CM order of an ordinary curve"
    ypi = desc.f0 // desc.f
    hits = [Pr for Pr in above if (desc.u0 - ypi * Pr.b) % p == 0]
    assert len(hits) == 1, "pi lies in exactly one prime above p"
    P1 = hits[0]
    P2 = above[0] if P1 is above[1] else above[1]
    out = unit_ideal(order)
    for _ in range(e1):
        out = ideal_multiply(out, P1)
    for _ in range(e - e1):
        out = ideal_multiply(out, P2)
    return out


# ---------------------------------------------------------------------------
# enumeration and reporting


def stable_cyclic_kernels(E: Curve, n: int) -> list[Point]:
    """One generator per Frobenius-stable cyclic order-n subgroup of E.

    These are the kernel_gen of cyclic_isogenies(E, n), in its order, each
    on the smallest extension where its subgroup is pointwise rational.
    n = 1 is rejected.  BoundExceeded means n > M_MAX or a subgroup needs an
    extension past R_MAX; E[n] itself may lie past that cap.
    """
    if type(n) is not int or n < 2:
        raise ValueError("subgroup order must be an integer >= 2")
    return [phi.kernel_gen for phi in cyclic_isogenies(E, n)]


def pair_report(E2: Curve, E1: Curve, degrees=(2, 3, 4, 6, 8, 9, 12)) -> str:
    """JSON summary of the Hom module between two curves.

    For each sample degree the first stable cyclic kernel on E2 whose
    quotient lands on the class of E1 is taken; degrees with no such
    isogeny (or beyond the torsion caps) are dropped from the report.
    `formula_index` is hom_index's index, and `oracle_index` the index A*d
    of the annihilator lattice that hom_index builds and checks against it,
    so one lattice is built per sample; it is not an independent meter.
    """
    ratio = conductor_ratio(E2, E1)
    cls1 = curve_class(E1)
    sample, formula, oracle = [], [], []
    for nd in sorted(degrees):
        try:
            isogenies = cyclic_isogenies(E2, nd)
        except BoundExceeded:
            continue
        for phi in isogenies:
            if phi.target != cls1:
                continue
            try:
                desc = hom_index(E2, E1, phi)
            except BoundExceeded:
                continue
            sample.append(nd)
            formula.append(desc.index)
            oracle.append(desc.basis[0] * desc.basis[1][0])
            break
    doc = {
        "source_j": element_to_json(curve_class(E2).j),
        "target_j": element_to_json(cls1.j),
        "conductor_ratio": {str(ell): e for ell, e in ratio.items()},
        "sample_degrees": sample,
        "formula_index": formula,
        "oracle_index": oracle,
        "corresponds": corresponds_to_kernel_ideal(E2, E1),
    }
    return json.dumps(doc, sort_keys=True)
