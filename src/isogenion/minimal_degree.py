"""Smallest non-trivial isogeny degrees between curve classes.

Md(E2, E1) is the least degree of a non-isomorphism isogeny E2 -> E1.
Between distinct ordinary classes of the same trace it never exceeds
eB(q, t) = floor((2/pi)sqrt(4q - t^2)): Minkowski's lattice bound puts an
ideal of that small a norm in every ideal class, and vertical steps only
trade conductor primes against the square root.  Within one class the
answer is 2, 3 or 4 (4 always attained by [2], an endomorphism over the
base field) and is decided by pure congruence data: a degree-2 or
degree-3 endomorphism lifts to characteristic zero, where only six
imaginary quadratic orders contain elements of norm 2 or 3, each pinned to
a single rational j-invariant.  CM_TABLE carries those six rows; by
Deuring's reduction theorem the Kronecker symbol (D/p) of a row's
discriminant D tells whether its j-invariant reduces to an ordinary or a
supersingular curve.

The search itself enumerates cyclic kernels degree by degree (degree p is
the p-power Frobenius), so every returned minimum is exact, with the found
isogeny as witness.
"""

from .elliptic_curve import (
    Curve,
    base_change,
    check_isogenous,
    classes_with_trace,
    curve_class,
    frobenius_is_integer,
    is_supersingular,
    j_invariant,
    torsion_degree,
    twist_classes,
)
from .errors import BoundExceeded, NoCurveWithTrace, NotIsogenous, SearchExhausted
from .finite_field import Field, field_create
from .intmath import floor_two_over_pi_sqrt, kronecker
from .isogeny import (
    cyclic_isogenies,
    frobenius_isogeny,
    modular_polynomial,
    multiplication_isogeny,
)
from .polyring import roots as poly_roots

# rB enumerates every class of a trace and searches all pairs; the point
# counts behind that sweep are quadratic in q, so keep it at desk scale.
CLASS_SWEEP_MAX = 1000
# Degrees divisible by p (on ordinary curves) and supersingular pairs are
# searched only over GF(p) and GF(p^2); see _degree_candidates.
SEARCH_R_MAX = 2


def eB(q: int, t: int) -> int:
    """floor((2/pi)sqrt(4q - t^2)): the minimal-degree bound for trace t.

    Exact flooring comes from intmath's floor, which brackets pi by
    Machin's formula; no floating point is involved.  ValueError when
    t^2 >= 4q.
    """
    if type(q) is not int or type(t) is not int:
        raise TypeError("q and t must be integers")
    if t * t >= 4 * q:
        raise ValueError("need t^2 < 4q for an imaginary quadratic bound")
    return floor_two_over_pi_sqrt(4 * q - t * t)


# The six orders Z[tau] with an element of norm 2 or 3, as (tau, j(tau),
# Md, disc Z[tau]); the norm-2 rows come first and win where two rows share
# a residue of j.
CM_TABLE = (
    ("sqrt(-1)", 1728, 2, -4),
    ("sqrt(-2)", 8000, 2, -8),
    ("(1+sqrt(-7))/2", -3375, 2, -7),
    ("(1+sqrt(-3))/2", 0, 3, -3),
    ("sqrt(-3)", 54000, 3, -12),
    ("(1+sqrt(-11))/2", -32768, 3, -11),
)


def md_classifier(E: Curve) -> int:
    """Md(E) over the algebraic closure, from Deuring's reduction theorem.

    j(tau) reduces mod p to an ordinary curve when p splits in Z[tau],
    (D/p) = 1, and to a supersingular one when p is inert, (D/p) = -1;
    either way the reduction keeps the endomorphism of norm Md.  Returns
    the Md of the first CM_TABLE row whose j-invariant and Kronecker
    symbol match E, else 4 (the doubling map).  Where p divides D (p = 7,
    11) j(tau) reduces to 1728, which the first row already decides.  A
    j-invariant outside the prime field matches no row.  p = 2, 3 are
    refused: their towers of extra automorphisms need separate bookkeeping
    (over those fields only j = 0 = 1728 is supersingular, with Md = 2).
    """
    p = E.field.p
    if p <= 3:
        raise ValueError("classification requires p > 3")
    try:
        j_int = j_invariant(E).lift_int()
    except ValueError:
        return 4
    symbol = -1 if is_supersingular(E) else 1
    for _, j_tau, md, D in CM_TABLE:
        if (j_int - j_tau) % p == 0 and kronecker(D, p) == symbol:
            return md
    return 4


class MdResult:
    """A proven minimal degree together with the isogeny that attains it."""

    __slots__ = ("pair", "md", "witness", "bound_eB")

    def __init__(self, pair, md, witness, bound_eB):
        self.pair = pair
        self.md = md
        self.witness = witness
        self.bound_eB = bound_eB

    def __repr__(self):
        a, b = self.pair
        return f"MdResult({a.j!r}/{a.trace} -> {b.j!r}/{b.trace}, md={self.md})"


def _cyclic_closure(E: Curve, m: int):
    """Every cyclic degree-m isogeny from E over the closure.

    Over the field GF(q^s) of E[m] every cyclic subgroup of E[m] is
    Frobenius-stable, so cyclic_isogenies of the base change lists them all.
    """
    return cyclic_isogenies(base_change(E, torsion_degree(E, m)), m)


def _lands_on(phi, target, over_k: bool) -> bool:
    if over_k:
        return phi.target == target
    model = phi.target_curve
    rep = target.representative
    steps = model.field.r // rep.field.r
    return j_invariant(model) == j_invariant(base_change(rep, steps))


def _degree_candidates(E: Curve, m: int, over_k: bool):
    """All candidate degree-m isogenies from E, as an iterator.

    md_between asks only for m below 2p (eB(q, t) <= 4 sqrt(q)/pi < 2p for
    q <= p^2, p for supersingular pairs over GF(p^2), 3 within one class,
    and ordinary curves beyond GF(p^2) are refused here at m = p), so the
    one degree divisible by p is p itself: the p-power Frobenius.  Over
    GF(p^2) the inverse-Frobenius curve coincides with the Frobenius one
    (x^(1/p) is x^p there), so it loses no target class.
    """
    if m % E.field.p:
        yield from cyclic_isogenies(E, m) if over_k else _cyclic_closure(E, m)
        return
    if E.field.r > SEARCH_R_MAX and not is_supersingular(E):
        raise BoundExceeded(
            "degrees divisible by p are only searched over GF(p) and GF(p^2)",
            cap="SEARCH_R_MAX", limit=SEARCH_R_MAX, requested=E.field.r,
        )
    yield frobenius_isogeny(E, 1)


def md_between(E2: Curve, E1: Curve, over_k: bool = True) -> MdResult:
    """The least degree > 1 of an isogeny E2 -> E1, with witness.

    over_k=True restricts to isogenies rational over the base field, for a
    pair that passes check_isogenous; False searches the closure, where
    classes merge by j-invariant, and refuses with NotIsogenous curves over
    different fields, an ordinary and a supersingular curve, or ordinary
    traces other than +-t.  The degree loop stops at 3 within one class
    (when neither 2 nor 3 lands, [2] on E2, defined over the base field,
    is the witness of 4), at eB for distinct ordinary classes and over
    GF(p), and at p for supersingular pairs over GF(p^2); beyond GF(p^2)
    a supersingular pair of distinct classes is refused with
    BoundExceeded.  The result carries bound_eB = eB(q, t), or 0 when
    frobenius_is_integer(q, t) leaves no quadratic bound.  Kernel
    enumerations that overflow the extension caps propagate BoundExceeded
    rather than silently skipping a degree, so a returned minimum is
    always exact.
    """
    if not isinstance(E2, Curve) or not isinstance(E1, Curve):
        raise TypeError("md_between expects two curves")
    if over_k:
        check_isogenous(E2, E1)
    elif E2.field != E1.field:
        raise NotIsogenous("the curves live over different fields")
    elif is_supersingular(E1) != is_supersingular(E2):
        raise NotIsogenous("ordinary and supersingular curves are never isogenous")
    elif not is_supersingular(E2) and E2.trace not in (E1.trace, -E1.trace):
        raise NotIsogenous("not isogenous even over the closure")
    ss = is_supersingular(E2)

    q, p, t = E2.field.order, E2.field.p, E2.trace
    c2, c1 = curve_class(E2), curve_class(E1)
    same = c2 == c1 if over_k else j_invariant(E2) == j_invariant(E1)
    bound_val = 0 if frobenius_is_integer(q, t) else eB(q, t)

    # Same class: only 2 and 3 need searching; [2] settles 4 without
    # enumerating any 4-torsion.
    if same:
        top = 3
    elif not ss or E2.field.r == 1:
        top = bound_val  # supersingular over GF(p): t = 0, floor((4/pi)sqrt(p))
    elif E2.field.r == 2:
        top = p
    else:
        raise BoundExceeded(
            "supersingular search beyond GF(p^2) is not supported",
            cap="SEARCH_R_MAX", limit=SEARCH_R_MAX, requested=E2.field.r,
        )
    for m in range(2, top + 1):
        for phi in _degree_candidates(E2, m, over_k):
            if _lands_on(phi, c1, over_k):
                return MdResult((c2, c1), m, phi, bound_val)
    if same:
        return MdResult((c2, c1), 4, multiplication_isogeny(E2, 2), bound_val)
    raise SearchExhausted(f"no isogeny of degree <= {top} connects the classes")


def rB(field: Field, t: int) -> tuple:
    """Largest minimal degree across one isogeny class, with its pair.

    Sweeps every unordered pair of classes of the given trace (same-class
    pairs included) and maximises md_between over the base field.
    """
    if not isinstance(field, Field):
        raise TypeError("rB expects a Field")
    if type(t) is not int:
        raise TypeError("the trace must be an integer")
    if field.order > CLASS_SWEEP_MAX:
        raise BoundExceeded(
            f"class sweeps are capped at order {CLASS_SWEEP_MAX}",
            cap="CLASS_SWEEP_MAX", limit=CLASS_SWEEP_MAX, requested=field.order,
        )
    classes = classes_with_trace(field, t)
    if not classes:
        raise NoCurveWithTrace(f"no class over {field!r} has trace {t}")
    best = None
    for i, A in enumerate(classes):
        for B in classes[i:]:
            res = md_between(A.representative, B.representative)
            if best is None or res.md > best.md:
                best = res
    return best.md, best.pair


def _supersingular_j_invariants(F2: Field, seed) -> list:
    """All supersingular j-invariants in GF(p^2), cheaply.

    Seeded from the j-invariant of a trace-0 class over the prime field and
    closed under degree-2 adjacency: the supersingular locus is connected
    under 2-isogenies and lies entirely inside GF(p^2), so the walk counts
    no points.
    """
    seed = F2.from_int(seed.lift_int())
    phi2 = modular_polynomial(2)
    seen = {seed}
    frontier = [seed]
    while frontier:
        j0 = frontier.pop()
        for r, _ in poly_roots(phi2.univariate(j0)):
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return sorted(seen, key=lambda x: x.lift())


def md_supersingular_bounds(p: int) -> dict:
    """Survey of minimal degrees through the supersingular classes at p.

    Over GF(p), all distinct trace-0 pairs must sit under the Minkowski
    bound eB(p, 0) = floor((4/pi)sqrt(p)).  Over GF(p^2), pairs of
    distinct classes whose Frobenius is not an integer are expected to
    have minimal degree exactly p (the p-power Frobenius being the only
    map that small), and pairs with trace +-2p (frobenius_is_integer) to
    agree with the closure; deviations are collected in the
    report rather than raised, and pairs whose kernel enumeration
    overflows a cap are listed as skipped.
    """
    if type(p) is not int or p < 5:
        raise ValueError("p must be a prime >= 5")
    fp_bound = eB(p, 0)
    report = {
        "p": p,
        "fp_bound": fp_bound,
        "fp_pairs": [],
        "fp_bound_ok": True,
        "fp2_expected_p": [],
        "fp2_deviations": [],
        "fp2_skipped": [],
        "full_trace_matches_closure": [],
    }

    Fp = field_create(p)
    trace0 = classes_with_trace(Fp, 0)
    for i, A in enumerate(trace0):
        for B in trace0[i + 1 :]:
            res = md_between(A.representative, B.representative)
            entry = {"pair": [A.key(), B.key()], "md": res.md}
            report["fp_pairs"].append(entry)
            if res.md > fp_bound:
                report["fp_bound_ok"] = False

    F2 = field_create(p, 2)
    by_trace: dict = {}
    for j in _supersingular_j_invariants(F2, trace0[0].j):
        for c in twist_classes(F2, j):
            if is_supersingular(c.representative):
                by_trace.setdefault(c.trace, {})[c.key()] = c
    for t, group in sorted(by_trace.items()):
        classes = sorted(group.values(), key=lambda c: c.key())
        full = frobenius_is_integer(F2.order, t)
        for i, A in enumerate(classes):
            for B in classes[i + 1 :]:
                pair = [A.key(), B.key()]
                try:
                    res = md_between(A.representative, B.representative)
                except SearchExhausted:
                    report["fp2_deviations"].append({"pair": pair, "md": f"> {p}"})
                    continue
                except BoundExceeded as exc:
                    report["fp2_skipped"].append({"pair": pair, "reason": str(exc)})
                    continue
                if full:
                    closure = md_between(A.representative, B.representative, over_k=False)
                    report["full_trace_matches_closure"].append(
                        {"pair": pair, "md": res.md, "closure_md": closure.md,
                         "equal": res.md == closure.md}
                    )
                elif res.md == p:
                    report["fp2_expected_p"].append({"pair": pair, "md": res.md})
                else:
                    report["fp2_deviations"].append({"pair": pair, "md": res.md})
    return report
