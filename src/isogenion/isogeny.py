"""Isogenies between elliptic curves over small finite fields.

The workhorse is Velu's construction: given a Frobenius-stable cyclic
subgroup presented by a generator (possibly over an extension), it produces
the quotient curve from the kernel polynomial's power sums, and explicit
rational maps defined over the base field, built on first use.  On top of
that sit composition, dual isogenies, pure Frobenius powers, [m],
cyclic_isogenies (the one enumerator of rational cyclic isogenies, each
storing its kernel generator) and the modular polynomials of levels 2, 3,
5 and 7.  Duals sample no points (Velu's normalisation).

An :class:`Isogeny` is stored as a chain of elementary steps (one Velu
quotient per prime power, scaling isomorphisms, Frobenius powers, their
Verschiebungs, [m]), each a map between concrete Weierstrass models over
the base field.  Each step carries its degree, inseparable exponent,
action on points and dual; an Isogeny derives its degree and insep_exp
from its steps, evaluation at a point over any extension walks the chain,
and the dual is the reversed chain of the steps' duals.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from importlib import resources
from math import gcd, isqrt, lcm

from .errors import (
    BoundExceeded,
    ClassMismatch,
    CurveMismatch,
    NotRational,
    UnsupportedLevel,
)
from .finite_field import Field, FieldElement
from .polyring import Poly, poly_gcd, subfield_embedding, embed_element
from .elliptic_curve import (
    M_MAX,
    Curve,
    CurveClass,
    Point,
    base_change,
    base_change_degree,
    check_coprime_to_p,
    check_kernel_generator,
    check_torsion_order,
    curve_class,
    embed_point,
    frobenius_endo,
    is_supersingular,
    isomorphism_scale,
    j_invariant,
    point_add,
    point_log,
    point_order,
    point_progression,
    scalar_mul,
    share_count,
    sylow_basis,
    torsion_basis,
)
from .intmath import factorize, is_prime, multiplicative_order

# the largest q whose q-power Frobenius gets explicit rational maps (x^q, ...)
FROBENIUS_MAP_MAX = 2**12


# ---------------------------------------------------------------------------
# elementary steps
#
# Every step maps points of base_change(src, s) to points of
# base_change(dst, s) for any s; src and dst live over the common base field
# of the whole chain.  Each step carries its degree, the exponent `insep` of
# its inseparable part, apply(P, dstK) for a finite point P over K with
# dstK = base_change(dst, s), maps() (xnum, xden, ynum, yden) over the base
# field, and dual(), a tuple of steps from dst back to src.


def _no_maps(step):
    raise ValueError("rational maps are not available for this isogeny")


class _VeluStep:
    """x -> N/F^2, y -> y * Yn/F^3, with F the kernel polynomial.

    The target needs only F's power sum p1 (and p2, p3); N and Yn cost
    O(n^2) polynomial products and are built on first use, write-once.
    """

    __slots__ = ("src", "dst", "degree", "F", "p1", "_maps")
    insep = 0

    def __init__(self, src, dst, degree, F, p1):
        self.src = src
        self.dst = dst
        self.degree = degree
        self.F = F
        self.p1 = p1
        self._maps = None

    def maps(self):
        if self._maps is None:
            E, F, n = self.src, self.F, self.degree
            base = E.field
            f = Poly(base, [E.B, E.A, base.zero, base.one])
            Fp = F.derivative()
            Fpp = Fp.derivative()
            F2 = F * F
            N = (
                (n * Poly.x(base) - self.p1) * F2
                - f.derivative() * Fp * F
                + 2 * f * (Fp * Fp - Fpp * F)
            )
            assert N.degree() == 2 * n - 1
            self._maps = (N, F2, N.derivative() * F - 2 * N * Fp, F2 * F)
        return self._maps

    def apply(self, P, dstK):
        K, base = dstK.field, self.src.field
        lift = (lambda f: f) if K is base else subfield_embedding(base, K).map_poly
        x = P.x
        Fx = lift(self.F).eval(x)
        if not Fx:
            return dstK.infinity()
        N, _, Yn, _ = self.maps()
        Fx2 = Fx * Fx
        X = lift(N).eval(x) / Fx2
        return dstK.point(X, P.y * lift(Yn).eval(x) / (Fx2 * Fx))

    def dual(self):
        """(tau, scaling by 1/n), drawing no random points.

        tau is the Velu quotient by phi(E[n]), so tau o phi has kernel E[n].
        Velu's maps pull the invariant differential back to itself, so
        tau o phi = [n] followed by (x, y) -> (n^2 x, n^3 y), and tau lands
        on the model (n^4 A, n^6 B); the step back to E scales by 1/n.
        """
        n, E = self.degree, self.src
        F = E.field
        P1, Q1, _ = torsion_basis(E, n)
        R1, R2 = _apply_step(self, P1), _apply_step(self, Q1)
        gen = next(
            (W for W in [R1, R2] + point_progression(point_add(R1, R2), R2, n - 1)
             if point_order(W, n) == n),
            None,
        )
        if gen is None:
            raise AssertionError("image of the n-torsion must be cyclic of order n")
        tau = _velu_step(self.dst, gen, n)
        if tau.dst != Curve(F, n**4 * E.A, n**6 * E.B):
            raise AssertionError("Velu dual does not land on the n-scaled source model")
        return tau, _IsoStep(tau.dst, E, F.from_int(n).inverse())


class _IsoStep:
    """(x, y) -> (u^2 x, u^3 y) onto the model with A2 = u^4 A, B2 = u^6 B."""

    __slots__ = ("src", "dst", "u")
    degree = 1
    insep = 0

    def __init__(self, src, dst, u):
        self.src = src
        self.dst = dst
        self.u = u

    def maps(self):
        F, u = self.src.field, self.u
        one = Poly.from_ints(F, [1])
        return Poly(F, [F.zero, u * u]), one, Poly.const(F, u * u * u), one

    def apply(self, P, dstK):
        u = embed_element(self.u, dstK.field)
        return dstK.point(u * u * P.x, u * u * u * P.y)

    def dual(self):
        return (_IsoStep(self.dst, self.src, self.u.inverse()),)


class _FrobStep:
    """The p^e-power Frobenius (x, y) -> (x^(p^e), y^(p^e)), e >= 1."""

    __slots__ = ("src", "dst", "e", "degree", "insep")

    def __init__(self, src, e):
        F = src.field
        k = e % F.r
        self.src = src
        self.dst = Curve(F, F.frobenius(src.A, k), F.frobenius(src.B, k))
        share_count(src, self.dst)
        self.e = self.insep = e
        self.degree = F.p**e

    def maps(self):
        F, q = self.src.field, self.degree
        if q > FROBENIUS_MAP_MAX:
            raise BoundExceeded(
                "rational maps of this Frobenius power are huge",
                cap="FROBENIUS_MAP_MAX", limit=FROBENIUS_MAP_MAX, requested=q,
            )
        one = Poly.from_ints(F, [1])
        f = Poly(F, [self.src.B, self.src.A, F.zero, F.one])
        return Poly(F, [F.zero] * q + [F.one]), one, f ** ((q - 1) // 2), one

    def apply(self, P, dstK):
        K = dstK.field
        k = self.e % K.r
        return dstK.point(K.frobenius(P.x, k), K.frobenius(P.y, k))

    def dual(self):
        return (_VerStep(self),)


class _VerStep:
    """The Verschiebung dual to a p^e-power Frobenius: the inverse
    Frobenius on points, then [p^e].  Its inseparable exponent is e on a
    supersingular curve and 0 on an ordinary one."""

    __slots__ = ("src", "dst", "e", "degree", "insep")
    maps = _no_maps

    def __init__(self, frob: _FrobStep):
        self.src = frob.dst
        self.dst = frob.src
        self.e = frob.e
        self.degree = frob.degree
        self.insep = frob.e if is_supersingular(frob.src) else 0

    def apply(self, P, dstK):
        K = dstK.field
        k = -self.e % K.r
        Q = dstK.point(K.frobenius(P.x, k), K.frobenius(P.y, k))
        return scalar_mul(self.degree, Q)

    def dual(self):
        return (_FrobStep(self.dst, self.e),)


class _MulStep:
    """Multiplication by m on a fixed curve (src == dst), m coprime to p."""

    __slots__ = ("src", "dst", "m", "degree")
    insep = 0
    maps = _no_maps

    def __init__(self, src, m):
        self.src = self.dst = src
        self.m = m
        self.degree = m * m

    def apply(self, P, dstK):
        return scalar_mul(self.m, P)

    def dual(self):
        return (self,)


def _apply_step(step, P: Point) -> Point:
    """step(P) for P on any base change of step.src."""
    dstK = base_change(step.dst, P.curve.field.r // step.src.field.r)
    return step.apply(P, dstK) if P else dstK.infinity()


# ---------------------------------------------------------------------------
# the isogeny object


class Isogeny:
    """A morphism between chosen Weierstrass models, write-once.

    `source_curve` and `target_curve` are the concrete models the maps act
    on; `target` is the memoised isomorphism class of the target, and the
    source class is curve_class(phi.source_curve).  `degree` is the
    full degree and `insep_exp` the exponent e of the inseparable part p^e,
    the product of the step degrees and the sum of their exponents.
    """

    __slots__ = (
        "_steps",
        "source_curve",
        "target_curve",
        "degree",
        "insep_exp",
        "_kernel_gen",
        "_kernel_exponent",
        "_target_class",
        "_kernel_poly",
        "_maps",
        "_frozen",
    )

    def __init__(self, steps, source, kernel_gen):
        object.__setattr__(self, "_frozen", False)
        steps = tuple(steps)
        cur, degree, insep_exp = source, 1, 0
        for st in steps:
            if st.src != cur:
                raise ValueError("step chain is not contiguous")
            cur = st.dst
            degree *= st.degree
            insep_exp += st.insep
        self._steps = steps
        self.source_curve = source
        self.target_curve = cur
        self.degree = degree
        self.insep_exp = insep_exp
        self._kernel_gen = kernel_gen
        self._kernel_exponent = None
        self._target_class = None
        self._kernel_poly = None
        self._maps = None
        object.__setattr__(self, "_frozen", True)

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError("Isogeny is write-once")
        object.__setattr__(self, name, value)

    def __repr__(self):
        return (
            f"Isogeny(degree={self.degree}, insep_exp={self.insep_exp}, "
            f"{self.source_curve!r} -> {self.target_curve!r})"
        )

    # -- spec'd class fields, computed lazily --------------------------------

    @property
    def target(self) -> CurveClass:
        if self._target_class is None:
            object.__setattr__(self, "_target_class", curve_class(self.target_curve))
        return self._target_class

    @property
    def separable_degree(self) -> int:
        return self.degree // self.source_curve.field.p ** self.insep_exp

    @property
    def kernel_gen(self):
        """A generator of the kernel if cyclic, else the full subgroup list.

        None for a trivial (separable part of the) kernel.  `velu` and
        `cyclic_isogenies` store it; other isogenies scan E[b] for it, b
        the kernel's exponent, and take the first point whose coordinates
        there give it order n.
        """
        if self._kernel_gen is None and self.separable_degree > 1:
            pts, orders, b = self._kernel_points()
            gen = pts[orders.index(b)] if b == self.separable_degree else pts
            object.__setattr__(self, "_kernel_gen", gen)
            object.__setattr__(self, "_kernel_exponent", b)
        return self._kernel_gen

    @property
    def kernel_exponent(self) -> int:
        """The exponent b of the separable kernel Z/a x Z/b (a | b): the
        separable degree n for a cyclic kernel, 1 for a trivial one, and
        otherwise the b the scan behind kernel_gen finds."""
        if isinstance(self.kernel_gen, list):
            return self._kernel_exponent
        return self.separable_degree

    def __call__(self, P: Point) -> Point:
        return evaluate(self, P)

    # -- kernel -------------------------------------------------------------

    def _kernel_points(self) -> tuple[list[Point], list[int], int]:
        """(points, orders, b): all nonzero geometric kernel points (of the
        separable part), the order of each, and the kernel's exponent b.

        A kernel Z/a x Z/b (a | b, ab = n) lies in E[d] exactly when b | d,
        and n | b^2, so the scan tries E[d] for the divisors d of n with
        n | d^2 in increasing order; the first that holds n kernel points
        is E[b].  An E[d] beyond the caps is skipped, since b need not
        divide d; a refused E[b] refuses every E[d] with b | d.  The
        isogeny is a homomorphism, so T = i*P1 + j*Q1 is in the kernel
        exactly when i*phi(P1) = j*phi(-Q1): two walks over the images and
        a lookup.  T has order d / gcd(i, j, d), read off its coordinates.
        """
        n = self.separable_degree
        refused = None
        for d in range(isqrt(n), n + 1):
            if n % d or d * d % n:
                continue
            try:
                P1, Q1, _ = torsion_basis(self.source_curve, d)
            except BoundExceeded as exc:
                refused = exc
                continue
            O, A = P1.curve.infinity(), evaluate(self, P1)
            Z = A.curve.infinity()
            cols: dict[Point, list[int]] = {}
            for j, W in enumerate(point_progression(Z, -evaluate(self, Q1), d)):
                cols.setdefault(W, []).append(j)
            iP, jQ = point_progression(O, P1, d), point_progression(O, Q1, d)
            pts, orders = [], []
            for i, V in enumerate(point_progression(Z, A, d)):
                for j in cols.get(V, ()):
                    if T := point_add(iP[i], jQ[j]):
                        pts.append(T)
                        orders.append(d // gcd(i, j, d))
            if len(pts) == n - 1:
                return pts, orders, d
        if refused is not None:
            raise refused
        raise AssertionError("kernel size must equal the separable degree")

    def kernel_polynomial(self) -> Poly:
        """Monic polynomial over the base field vanishing exactly on the
        x-coordinates of the nonzero kernel points (with multiset
        convention: each point contributes one linear factor).  A Velu
        step stores it; otherwise it comes from the kernel generator.
        """
        if self._kernel_poly is not None:
            return self._kernel_poly
        base = self.source_curve.field
        if self.separable_degree == 1:
            F = Poly.from_ints(base, [1])
        elif isinstance(self._steps[0], _VeluStep) and all(
            isinstance(st, _IsoStep) for st in self._steps[1:]
        ):
            F = self._steps[0].F
        else:
            gen = self.kernel_gen
            if isinstance(gen, Point):
                gen = point_progression(gen, gen, self.separable_degree - 1)
            F = _kernel_poly(gen, base)
        object.__setattr__(self, "_kernel_poly", F)
        return F

    # -- identity and equality ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Isogeny):
            return NotImplemented
        if (
            self.source_curve.field is not other.source_curve.field
            or self.degree != other.degree
            or self.insep_exp != other.insep_exp
        ):
            return False
        if self.source_curve == other.source_curve:
            return self.kernel_polynomial() == other.kernel_polynomial()
        j = j_invariant(self.source_curve)
        F = self.source_curve.field
        if not j or j == F.from_int(1728):
            # extra automorphisms: isogenies from distinct models are not
            # identified
            return False
        # distinct models are compared through the scaling between them;
        # isomorphism_scale's ValueError means they are not k-isomorphic
        try:
            u = isomorphism_scale(other.source_curve, self.source_curve)
        except ValueError:
            return False
        G = other.kernel_polynomial()
        d = G.degree()
        u2 = u * u
        moved = Poly(F, [G[k] * u2 ** (d - k) for k in range(d + 1)])
        return self.kernel_polynomial() == moved

    def __hash__(self):
        return hash(
            (self.source_curve.field, self.degree, self.insep_exp,
             j_invariant(self.source_curve))
        )

    # -- rational maps --------------------------------------------------------

    @property
    def rational_maps(self):
        """(xnum, xden, ynum, yden) over the base field:
        (x, y) -> (xnum/xden (x), y * ynum/yden (x)).
        """
        if self._maps is not None:
            return self._maps
        F = self.source_curve.field
        one = Poly.from_ints(F, [1])
        xn, xd, yn, yd = Poly.x(F), one, one, one
        for step in self._steps:
            sn, sd, tn, td = step.maps()
            dx = max(sn.degree(), sd.degree())
            dy = max(tn.degree(), td.degree())
            new_xn = _subst_hom(sn, xn, xd, dx)
            new_xd = _subst_hom(sd, xn, xd, dx)
            yn = yn * _subst_hom(tn, xn, xd, dy)
            yd = yd * _subst_hom(td, xn, xd, dy)
            xn, xd = new_xn, new_xd
        g = poly_gcd(xn, xd)
        xn, xd = xn // g, xd // g
        g = poly_gcd(yn, yd)
        yn, yd = yn // g, yd // g
        c = xd.leading().inverse()
        xn, xd = xn * c, xd * c
        c = yd.leading().inverse()
        yn, yd = yn * c, yd * c
        object.__setattr__(self, "_maps", (xn, xd, yn, yd))
        return self._maps


def _subst_hom(p: Poly, Xn: Poly, Xd: Poly, deg: int) -> Poly:
    """p(Xn/Xd) * Xd^deg, for deg >= deg p."""
    F = p.field
    out = Poly(F, [])
    np_ = Poly.from_ints(F, [1])
    dpows = [Poly.from_ints(F, [1])]
    for _ in range(deg):
        dpows.append(dpows[-1] * Xd)
    for i in range(p.degree() + 1):
        c = p[i]
        if c:
            out = out + np_ * dpows[deg - i] * c
        if i < p.degree():
            np_ = np_ * Xn
    return out


def _kernel_poly(pts: list[Point], base: Field) -> Poly:
    """prod (x - x(T)) over T in pts, descended to `base` (else ValueError)."""
    K = pts[0].curve.field
    FK = Poly.from_roots(K, [T.x for T in pts])
    return FK if K is base else subfield_embedding(base, K).unmap_poly(FK)


# ---------------------------------------------------------------------------
# construction


def velu(E: Curve, kernel_gen, order: int) -> Isogeny:
    """The separable isogeny with kernel generated by `kernel_gen`.

    `kernel_gen` and `order` must pass check_kernel_generator (exact order
    `order`, on any base change of E), and the subgroup must be stable
    under the base-field Frobenius, which holds exactly when its kernel
    polynomial descends to E's field (NotRational otherwise).  The returned
    maps are defined over E's own field.  order = 1 gives the identity.
    """
    check_kernel_generator(E, kernel_gen, order)
    if order == 1:
        return Isogeny((), E, None)
    try:
        step = _velu_step(E, kernel_gen, order)
    except ValueError:
        raise NotRational("kernel polynomial does not descend to the base field")
    return Isogeny((step,), E, kernel_gen)


def _velu_step(E: Curve, gen: Point, n: int) -> _VeluStep:
    """The Velu quotient of E by <gen>, for gen of exact order n coprime to
    p; the one constructor of Velu steps.

    The target comes from the power sums of the kernel polynomial, which
    must descend to E's field (ValueError otherwise, exactly when <gen> is
    not stable under the base-field Frobenius).
    """
    base = E.field
    F = _kernel_poly(point_progression(gen, gen, n - 1), base)
    A, B = E.A, E.B
    e1 = -F[n - 2] if n >= 2 else base.zero
    e2 = F[n - 3] if n >= 3 else base.zero
    e3 = -F[n - 4] if n >= 4 else base.zero
    p1 = e1
    p2 = e1 * p1 - 2 * e2
    p3 = e1 * p2 - e2 * p1 + 3 * e3
    v = 3 * p2 + (n - 1) * A
    w = 5 * p3 + 3 * A * p1 + 2 * (n - 1) * B
    target = Curve(base, A - 5 * v, B - 7 * w)
    share_count(E, target)
    return _VeluStep(E, target, n, F, p1)


def frobenius_isogeny(E: Curve, e: int) -> Isogeny:
    """The purely inseparable p^e-power Frobenius from E to E^(p^e).

    e = 0 is the identity; when e equals the field degree r this is the
    Frobenius endomorphism of E.
    """
    if type(e) is not int or e < 0:
        raise ValueError(f"Frobenius exponent must be a nonnegative int, got {e!r}")
    if e == 0:
        return Isogeny((), E, None)
    return Isogeny((_FrobStep(E, e),), E, None)


def multiplication_isogeny(E: Curve, m: int) -> Isogeny:
    """[m] on E, a separable endomorphism of degree m^2; m must be a
    positive integer (ValueError) that passes check_coprime_to_p."""
    # not check_torsion_order: [m] needs no torsion basis, so no cap applies
    if type(m) is not int or m < 1:
        raise ValueError(f"multiplier must be a positive int, got {m!r}")
    check_coprime_to_p(m, E.field.p)
    return Isogeny((_MulStep(E, m),), E, None)


def evaluate(phi: Isogeny, P: Point) -> Point:
    """phi(P).  P must lie on phi's source model or a base change of it."""
    if not isinstance(P, Point):
        raise TypeError("evaluate wants a Point")
    base_change_degree(phi.source_curve, P.curve)
    for step in phi._steps:
        P = _apply_step(step, P)
    return P


def compose(psi: Isogeny, phi: Isogeny) -> Isogeny:
    """psi after phi.  The target model of phi must be isomorphic over the
    base field to the source model of psi, as isomorphism_scale decides
    (ClassMismatch otherwise, before the separable-degree cap); the scaling
    isomorphism is inserted when the concrete models differ."""
    mid_out = phi.target_curve
    mid_in = psi.source_curve
    glue = ()
    if mid_out != mid_in:
        try:
            u = isomorphism_scale(mid_out, mid_in)
        except (ValueError, CurveMismatch):
            msg = "target class of phi differs from source class of psi"
            raise ClassMismatch(msg) from None
        glue = (_IsoStep(mid_out, mid_in, u),)
    # not check_torsion_order: the separable degree is capped, and the
    # composite's full degree may carry p^e from a Verschiebung
    sep = phi.separable_degree * psi.separable_degree
    if sep > M_MAX:
        raise BoundExceeded(
            f"composite separable degree cap is {M_MAX}",
            cap="M_MAX", limit=M_MAX, requested=sep,
        )
    return Isogeny(phi._steps + glue + psi._steps, phi.source_curve, None)


# ---------------------------------------------------------------------------
# duals


def dual(phi: Isogeny) -> Isogeny:
    """The dual isogeny: dual(phi) o phi = [deg phi] on the source model.

    The reversed chain of the steps' duals, drawing no random points: a
    Velu step of order n dualises to the Velu quotient by the image of E[n]
    followed by scaling by 1/n, a scaling to its inverse, a Frobenius power
    to its Verschiebung and back, and [m] to itself.
    """
    steps = [d for st in reversed(phi._steps) for d in st.dual()]
    return Isogeny(steps, phi.target_curve, None)


# ---------------------------------------------------------------------------
# enumeration of stable cyclic kernels


def stable_cyclic_subgroups(E: Curve, ell: int, e: int = 1) -> list[Point]:
    """Generators of all Frobenius-stable cyclic subgroups of order ell^e.

    One generator per subgroup, each over the smallest extension where its
    subgroup is pointwise rational.  The Frobenius eigenvalue of a stable
    cyclic subgroup is a root c of x^2 - t x + q modulo ell^e, and the
    subgroup is pointwise rational exactly over GF(q^ord(c)); scanning those
    extension degrees in increasing order finds each subgroup once, keeping
    a candidate T when point_log reads pi_q(T) = c*T with ord(c) the
    degree scanned.
    Only roots c = 1 mod ell^b can be eigenvalues, since the Frobenius fixes
    E[ell^b], b the second ell-Sylow exponent of E(k) capped at e.  ell must
    be a prime int and e a positive int (ValueError otherwise), and ell^e
    must pass check_torsion_order; an extension past R_MAX is refused by
    base_change before any point work on it.
    """
    if type(ell) is not int or not is_prime(ell):
        raise ValueError(f"ell must be a prime int, got {ell!r}")
    if type(e) is not int or e < 1:
        raise ValueError(f"e must be a positive int, got {e!r}")
    m = ell**e
    check_torsion_order(E, m)
    q = E.field.order
    t = E.trace
    fixed = ell ** min(sylow_basis(E, ell)[3], e)
    eigen = [c for c in range(m) if not (c * c - t * c + q) % m and not (c - 1) % fixed]
    out = []
    r0 = E.field.r
    for s in sorted({multiplicative_order(c, m) for c in eigen}):
        EK = base_change(E, s)
        S1, S2, a, b = sylow_basis(EK, ell)
        if a < e:
            continue
        e2 = min(b, e)
        U1 = scalar_mul(ell ** (a - e), S1)
        U2 = scalar_mul(ell ** (b - e2), S2) if b else EK.infinity()
        cands = point_progression(U1, U2, ell**e2)
        if e2 == e:
            cands += point_progression(U2, scalar_mul(ell, U1), ell ** (e - 1))
        for T in cands:
            c = point_log(frobenius_endo(T, r0), T, m)
            if c is not None and multiplicative_order(c, m) == s:
                out.append(T)
    return out


@lru_cache(maxsize=None, typed=True)
def cyclic_isogenies(E: Curve, n: int) -> tuple[Isogeny, ...]:
    """All isogenies from E with a Frobenius-stable cyclic kernel of order n,
    the package's one enumerator of them.  Each is a chain of Velu quotients,
    one per ell^e exactly dividing n, in itertools.product order over
    stable_cyclic_subgroups; its kernel_gen is the sum of their generators.
    Cached per (curve, n): callers share the returned tuple and its
    write-once isogenies, with their memoised target classes.
    """
    check_torsion_order(E, n)
    if n == 1:
        return (Isogeny((), E, None),)
    fac = factorize(n)
    per_prime = [stable_cyclic_subgroups(E, ell, e) for ell, e in fac]
    out = []
    for combo in itertools.product(*per_prime):
        EK = base_change(E, lcm(*(T.curve.field.r for T in combo)) // E.field.r)
        K, steps, cur = EK.infinity(), [], E
        for gen, (ell, e) in zip(combo, fac):
            K = point_add(K, embed_point(gen, EK))
            for st in steps:
                gen = _apply_step(st, gen)
            steps.append(_velu_step(cur, gen, ell**e))
            cur = steps[-1].dst
        out.append(Isogeny(steps, E, K))
    return tuple(out)


# ---------------------------------------------------------------------------
# modular polynomials


class ModularPolynomial:
    """Phi_level as a symmetric integer coefficient table (i, j) -> c."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: dict):
        self.level = level
        self.coeffs = coeffs

    def univariate(self, j0: FieldElement) -> Poly:
        """Phi_level(j0, Y) as a polynomial in Y over j0's field."""
        F = j0.field
        d = self.level + 1
        pows = [F.one]
        for _ in range(d):
            pows.append(pows[-1] * j0)
        cs = [F.zero] * (d + 1)
        for (i, j), c in self.coeffs.items():
            cs[j] = cs[j] + pows[i] * c
        return Poly(F, cs)


@lru_cache(maxsize=None)
def _load_modular_tables():
    text = resources.files("isogenion").joinpath("data/modular_polynomials.txt").read_text()
    tables: dict[int, dict] = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ell_s, i_s, j_s, c_s = line.split()
        ell, i, j, c = int(ell_s), int(i_s), int(j_s), int(c_s)
        tab = tables.setdefault(ell, {})
        tab[(i, j)] = c
        tab[(j, i)] = c
    return {ell: ModularPolynomial(ell, tab) for ell, tab in tables.items()}


def modular_polynomial(level: int) -> ModularPolynomial:
    """The classical modular polynomial Phi_level (levels 2, 3, 5, 7)."""
    tables = _load_modular_tables()
    if level not in tables:
        raise UnsupportedLevel(
            f"no modular polynomial for level {level}; have {sorted(tables)}"
        )
    return tables[level]
