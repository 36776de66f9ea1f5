"""Reference code the tests check the engine against, kept out of the
engine because nothing there calls it: closed forms, identities,
enclosure membership, one endpoint of a rational, the exact Euclidean
continued fraction, the truncated decimal in Fractions, the
contradiction decided on interval logarithms, and the log arguments and
interval ratios written out per solution type."""

import math
from fractions import Fraction
from typing import List

from cubicthue.bounds import CONTRADICTION_COEFF, LOG_PRECISION
from cubicthue.errors import IndeterminateSignError
from cubicthue.forms import BinaryCubicForm
from cubicthue.realnum import (CertifiedReal, Convergent, Endpoint, _quotient_side,
                               certified_below, endpoint_cmp)
from cubicthue.roots import RootTriple, solution_interval


def contains(x: CertifiedReal, r) -> bool:
    """Whether the enclosure x contains the rational r."""
    return x.lower <= Fraction(r) <= x.upper


def rational_side(r, prec: int, upper: bool) -> Endpoint:
    """The upper (or lower) endpoint of the rational r at prec bits, as
    `CertifiedReal.from_endpoints` rounds each of its two ends."""
    r = Fraction(r)
    return _quotient_side(r.numerator, r.denominator, prec, upper)


def family_discriminant_poly(t: int) -> int:
    """The closed form of disc(F_{3,t}) as a polynomial in t."""
    return (t ** 18 - 10 * t ** 15 + 41 * t ** 12 - 90 * t ** 9
            + 102 * t ** 6 - 40 * t ** 3 - 27)


def apply_gl2(F: BinaryCubicForm, M) -> BinaryCubicForm:
    """Coefficients of G(x, y) = F(m11*x + m12*y, m21*x + m22*y); M must
    be unimodular.  They come from four exact values of G: G(1, 0) and
    G(0, 1) are the outer coefficients, and G(1, 1) and G(1, -1) give the
    sum and the difference of the inner two."""
    (m11, m12), (m21, m22) = M
    det = m11 * m22 - m12 * m21
    if det not in (1, -1):
        raise ValueError("matrix must have determinant +-1, got %d" % det)
    a, d = F(m11, m21), F(m12, m22)
    b_plus_c = F(m11 + m12, m21 + m22) - a - d
    c_minus_b = F(m11 - m12, m21 - m22) - a + d
    return BinaryCubicForm(a, (b_plus_c - c_minus_b) // 2, (b_plus_c + c_minus_b) // 2, d)


def siegel_residual(x: int, y: int, roots: RootTriple) -> CertifiedReal:
    """(th2-th3)(x-y*th1) + (th3-th1)(x-y*th2) + (th1-th2)(x-y*th3);
    an algebraic identity, so the enclosure must contain 0 for any
    integers x, y."""
    th1, th2, th3 = roots.thetas
    return ((th2 - th3) * (x - th1 * y)
            + (th3 - th1) * (x - th2 * y)
            + (th1 - th2) * (x - th3 * y))


def intervals_disjoint(t: int, y_abs: int = 2) -> bool:
    """sup I1 < inf I2 < sup I2 < inf I3 at the given |y|."""
    (_, sup1), (inf2, sup2), (inf3, _) = (solution_interval(w, t, y_abs)
                                          for w in (1, 2, 3))
    return sup1 < inf2 < sup2 < inf3


def lambda_log_arguments_per_type(which: int, roots: RootTriple):
    """`bounds.lambda_log_arguments` as one branch per solution type,
    each read off Siegel's identity at its root by hand."""
    th1, th2, th3 = roots.thetas
    T = CertifiedReal.from_rational(roots.t, roots.precision)
    if which == 1:
        return (th3 / th2, (T - th2) / (T - th3), (th1 - th3) / (th1 - th2))
    if which == 2:
        return (abs(th3 / th1), abs((T - th1) / (T - th3)), (th3 - th2) / (th2 - th1))
    if which == 3:
        return (abs(th2 / th1), abs((T - th1) / (T - th2)), (th3 - th2) / (th3 - th1))
    raise ValueError("which must be 1, 2 or 3")


def ratio_hull_per_interval(which: int, k) -> CertifiedReal:
    """`roots._ratio_hull` on the terms k as one branch per interval, the
    pole picked apart from the ratio: theta2 for I_1 and I_3, theta1 for
    I_2."""
    lo, hi = solution_interval(which, k.t)
    pole_lo, pole_hi = (k.th1 if which == 2 else k.th2)._ival
    if not (endpoint_cmp(pole_hi, lo.numerator, lo.denominator) < 0
            or endpoint_cmp(pole_lo, hi.numerator, hi.denominator) > 0):
        raise IndeterminateSignError("the pole of the I_%d ratio meets I_%d" % (which, which))
    rs = [CertifiedReal.from_rational(r, k.prec) for r in (lo, hi)]
    if which == 1:
        return CertifiedReal.hull((r - k.th3) / (r - k.th2) for r in rs)
    if which == 2:
        return CertifiedReal.hull((k.th3 - r) / (r - k.th1) for r in rs)
    return CertifiedReal.hull((r - k.th1) / (r - k.th2) for r in rs)


def convergents_of_fraction(x: Fraction, Q: int) -> List[Convergent]:
    """All continued-fraction convergents of an exact rational with q <= Q."""
    out: List[Convergent] = []
    pm1, qm1, pm2, qm2 = 1, 0, 0, 1
    num, den = x.numerator, x.denominator
    while den != 0:
        a = num // den
        p = a * pm1 + pm2
        q = a * qm1 + qm2
        if q > Q:
            break
        out.append(Convergent(p, q))
        pm2, qm2, pm1, qm1 = pm1, qm1, p, q
        num, den = den, num - a * den
    return out


def contradiction_on_enclosures(which: int, t: int, beta_lower: Endpoint, Q: int) -> bool:
    """Whether ln(b/Q^2) exceeds -c t^p ln^2 t ((c, p) =
    CONTRADICTION_COEFF[which]) for the dyadic b = beta_lower, decided on
    LOG_PRECISION-bit interval logarithms of b, Q^2 and t, as
    `reduction.contradiction_check` decided it before its integer bounds.
    Raises IndeterminateSignError when the two enclosures overlap."""
    coef, p = CONTRADICTION_COEFF[which]
    ln = lambda r: CertifiedReal.from_rational(r, LOG_PRECISION).log()
    lam = CertifiedReal((beta_lower, beta_lower), LOG_PRECISION).log() - ln(Q * Q)
    return certified_below(-(coef * t ** p) * ln(t) ** 2, lam,
                           "ln(|beta|/Q^2) meets the contradiction threshold at t=%d" % t)


def decimal_by_fractions(r: Fraction, digits: int) -> str:
    """r as d.ddd...e+X with `digits` digits after the point, truncated
    toward zero, in exact Fractions: the exponent X = floor(log10 |r|)
    is estimated from the bit lengths of r's numerator and denominator
    and then settled by exact integer comparison."""
    if r == 0:
        return "0"
    sign = "-" if r < 0 else ""
    n, d = abs(r.numerator), r.denominator
    e = math.floor((n.bit_length() - d.bit_length()) * math.log10(2))
    # 10^e <= n/d < 10^(e+1)
    while (n * 10 ** -e < d) if e < 0 else (n < d * 10 ** e):
        e -= 1
    while (n * 10 ** (-e - 1) >= d) if e + 1 < 0 else (n >= d * 10 ** (e + 1)):
        e += 1
    # one leading digit plus `digits` following
    s = str(int(Fraction(n, d) / Fraction(10) ** e * 10 ** digits))
    return "%s%s.%se%+d" % (sign, s[0], s[1:] or "0", e)
