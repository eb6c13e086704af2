"""Exception hierarchy shared by every isogenion module.

Everything derives from :class:`IsogenionError` so callers can catch the whole
family at once.
"""


class IsogenionError(Exception):
    """Base class for all domain errors raised by this package."""


class NotPrime(IsogenionError):
    """A value required to be prime is composite."""


class BoundExceeded(IsogenionError):
    """A configured desk-scale cap (field size, extension degree, norm, ...)
    would be exceeded.

    Every raise site sets `cap` (its name, such as "M_MAX" or "R_MAX"),
    `limit` (its value) and
    `requested` (the value the call needed: an extension degree over GF(p)
    for R_MAX, at least that degree where only a lower bound is known, and
    None where the value is not known).
    """

    def __init__(self, *args, cap=None, limit=None, requested=None):
        super().__init__(*args)
        self.cap = cap
        self.limit = limit
        self.requested = requested


class DivisionByZero(IsogenionError, ZeroDivisionError):
    """Division by the zero element of a finite field."""


class FieldMismatch(IsogenionError):
    """Operands belong to different fields."""


class CurveMismatch(IsogenionError):
    """Points (or maps) belong to different curves."""


class SingularCurve(IsogenionError):
    """4A^3 + 27B^2 = 0: not an elliptic curve."""


class NoSuchTwist(IsogenionError):
    """No twist with the requested trace exists over the field."""


class NotImaginaryQuadratic(IsogenionError):
    """t^2 >= 4q, or a discriminant is not negative."""


class WrongOrder(IsogenionError):
    """A point does not have the order it was claimed to have."""


class NotRational(IsogenionError):
    """A kernel subgroup is not stable under the base-field Frobenius."""


class ClassMismatch(IsogenionError):
    """Isogeny composition endpoints are not the same isomorphism class."""


class UnsupportedLevel(IsogenionError):
    """No modular polynomial is available for the requested prime."""


class NotAnIdeal(IsogenionError):
    """The lattice described by (t, a, b) is not closed under the order."""


class OrderMismatch(IsogenionError):
    """Ideals belong to different quadratic orders."""


class NotMaximalAtPrime(IsogenionError):
    """The order is not maximal at the requested prime."""


class NoCurveWithTrace(IsogenionError):
    """No curve over the field realizes the requested trace."""


class NotOnSurface(IsogenionError):
    """The vertex is not on the surface of its volcano."""


class OrdinaryOnly(IsogenionError):
    """The operation is defined for ordinary curves only."""


class NotIsogenous(IsogenionError):
    """The two curves are not isogenous over the base field."""


class TraceMismatch(NotIsogenous):
    """Traces differ, so no base-field isogeny can exist."""


class SearchExhausted(IsogenionError):
    """A bounded search that provably must succeed found nothing (a bug)."""


class PPartUnsupported(IsogenionError, ValueError):
    """A torsion or kernel order, an isogeny degree ell or a multiplier
    that p divides: the p-part of a kernel is no etale subgroup
    (p_part_ideal describes it as an ideal).  Also a ValueError, as every
    invalid order is."""


class SupersingularUnsupported(IsogenionError):
    """The operation requires an ordinary curve's split p."""
