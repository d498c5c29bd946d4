"""Many-digit real embedding of a field element, through mpmath: the
reference that exact arithmetic and float(QuadNum) are checked against.
mpmath is a test dependency only; the package never imports it."""

import mpmath

from mubc import QuadNum


def embed(x: QuadNum, digits: int = 50) -> mpmath.mpf:
    """Real value of p + q R, with R = (u + sqrt(u^2 + 4v)) / 2 the larger
    root of the ambient, to the requested digit count."""
    amb = x.ambient
    amb.require_real()
    disc = amb.discriminant
    with mpmath.workdps(digits + 10):
        root = (
            mpmath.mpf(amb.u.numerator) / amb.u.denominator
            + mpmath.sqrt(mpmath.mpf(disc.numerator) / disc.denominator)
        ) / 2
        return (
            mpmath.mpf(x.p.numerator) / x.p.denominator
            + mpmath.mpf(x.q.numerator) / x.q.denominator * root
        )
