"""The three linear forms in logarithms, their upper bounds, Matveev's
explicit lower bound, and the absolute bound on t.

The source analysis's constants (7.7, 7.9, 8.9, 3.5, 8.6, 9.8, 1.07e15)
are exact rationals, and the contradiction coefficients are their
products.  Every other proof constant is an enclosure at LOG_PRECISION
bits, and `realnum.certified_below` decides every inequality on them;
the per-t contradiction is decided on integer bit-length bounds
(`ln_bit_bounds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import (HeightBoundViolatedError, IndeterminateSignError,
                     VerificationFailedError)
from .realnum import CertifiedReal, certified_below, dyadic_numerators
from .roots import T_MIN, RootTriple

# decay rates of |Lambda_which| in the exponent size
LAMBDA_DECAY = {1: Fraction(77, 10), 2: Fraction(79, 10), 3: Fraction(89, 10)}

# n/log(35n) cap per unit of log^2 t; derive_t_max certifies it is at
# least the Matveev coefficient over LAMBDA_DECAY[2]
EXPONENT_CAP = 107 * 10 ** 13

# (c, p) of the forced exponent growth max(|m|, |n|) >= c * t^p * ln t
# of a type I/II/III solution
GROWTH = {1: (Fraction(86, 10), 6), 2: (Fraction(35, 10), 3), 3: (Fraction(98, 10), 3)}

# decay * growth, on t^p
CONTRADICTION_COEFF = {which: (LAMBDA_DECAY[which] * c, p)
                       for which, (c, p) in GROWTH.items()}

# bits of the logarithms that decide the contradiction, and of every
# other proof constant here
LOG_PRECISION = 64

# two decimals around e, certified by ln lo < 1 < ln hi in e_enclosure;
# 10^-18 apart, so that K's enclosure at LOG_PRECISION pins its double
E_BRACKET = ("2.718281828459045235", "2.718281828459045236")

# the W0 prefactor must stay below this multiple of n for ln(35 n) to majorize W0
W0_PREFACTOR_CAP = 35

# h(alpha_i) < c_i ln t for Lambda_2's alpha1, alpha2, alpha3; Matveev's A_i = 6 c_i ln t
HEIGHT_COEFF = (3, 3, 6)

# the window the family's Matveev coefficient must fall in
MATVEEV_WINDOW = (830 * 10 ** 13, 840 * 10 ** 13)


def lambda_log_arguments(which: int, roots: RootTriple
                         ) -> Tuple[CertifiedReal, CertifiedReal, CertifiedReal]:
    """(alpha1, alpha2, alpha3) = (|th_k/th_j|, |(t - th_j)/(t - th_k)|,
    |(th_i - th_k)/(th_i - th_j)|), i = which, j < k the other two.  At
    x - th y = +-th^-m (t - th)^n (both units), Lambda = m ln a1 + n ln a2 + ln a3
    = ln|a3 (x - th_j y)/(x - th_k y)|, which Siegel's identity (th_i - th_j)(x - th_k y)
    - (th_i - th_k)(x - th_j y) = (th_k - th_j)(x - th_i y) makes small at type i."""
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2 or 3")
    th = roots.thetas
    thi, (thj, thk) = th[which - 1], th[:which - 1] + th[which:]
    T = CertifiedReal.from_rational(roots.t, roots.precision)
    return abs(thk / thj), abs((T - thj) / (T - thk)), abs((thi - thk) / (thi - thj))


def _ln(r) -> CertifiedReal:
    return CertifiedReal.from_rational(r, LOG_PRECISION).log()


def e_enclosure() -> CertifiedReal:
    """e, enclosed by E_BRACKET once ln lo < 1 < ln hi is certified on
    interval logarithms at LOG_PRECISION bits."""
    lo, hi = (Fraction(r) for r in E_BRACKET)
    undecided = "ln(%s) < 1 < ln(%s) undecided at %d bits" % (*E_BRACKET, LOG_PRECISION)
    if not (certified_below(_ln(lo), 1, undecided) and certified_below(1, _ln(hi), undecided)):
        raise VerificationFailedError("e is not in [%s, %s]" % E_BRACKET)
    return CertifiedReal.from_endpoints(lo, hi, LOG_PRECISION)


def matveev_family_coefficient() -> CertifiedReal:
    """Coefficient K in ln|Lambda_2| > -K * ln^3 t * ln(35 n), from the
    family parameterization of three logarithms, D=6, chi=1,
    A_i = D * HEIGHT_COEFF[i] * ln t, B=n/2: K = C * C0 * D^2 * Omega with
    Matveev's C = 16/3! e^3 (2*3+1+2) (3+2) (4*3+4)^4 (3e/2) and
    C0 = ln(e^(4.4*3+7) 3^5.5 D^2 ln(eD)) = 20.2 + 5.5 ln 3 + 2 ln 6 + ln(1 + ln 6)."""
    ln6 = _ln(6)
    C = Fraction(16, 6) * 9 * 5 * 16 ** 4 * Fraction(3, 2) * e_enclosure() ** 4
    C0 = Fraction(101, 5) + Fraction(11, 2) * _ln(3) + 2 * ln6 + (1 + ln6).log()
    return C * C0 * 6 ** 2 * math.prod(6 * c for c in HEIGHT_COEFF)


def w0_prefactor() -> CertifiedReal:
    """The W0 prefactor 1.5 e B D ln(eD) per unit of n at B=n/2, D=6,
    which is 4.5 e (1 + ln 6)."""
    return Fraction(9, 2) * e_enclosure() * (1 + _ln(6))


@dataclass(frozen=True)
class FamilyMatveevResult:
    t: int
    coefficient: CertifiedReal
    height_checks: Tuple[bool, bool, bool]
    in_target_window: bool


def check_height_bounds(roots: RootTriple) -> Tuple[bool, bool, bool]:
    """Certified checks of the three displayed height inequalities
    h < c ln t, c from HEIGHT_COEFF.  Raises IndeterminateSignError when the
    enclosures at this precision decide one of them neither way."""
    th1, th2, th3 = roots.thetas
    T = CertifiedReal.from_rational(roots.t, roots.precision)
    lnt = T.log()
    h_diff = Fraction(2, 3) * ((th3 - th2) * (th3 - th1) * (th2 - th1)).log()
    h_ratio = Fraction(1, 6) * ((th3 / th1) ** 2).log()
    h_unit = Fraction(1, 6) * (((T - th3) / (T - th2)) ** 2).log()
    c1, c2, c3 = HEIGHT_COEFF
    checks = []
    for name, h, c in (("h_diff", h_diff, c3), ("h_ratio", h_ratio, c1), ("h_unit", h_unit, c2)):
        name, bound = "%s < %d ln t" % (name, c), c * lnt
        try:
            checks.append(certified_below(h, bound, name))
        except IndeterminateSignError:
            # the message converts four endpoints: format it only here
            raise IndeterminateSignError(
                "height inequality %s undecided at %d bits: [%.6g, %.6g] against [%.6g, %.6g]"
                % (name, h.precision, h.lower, h.upper, bound.lower, bound.upper)) from None
    return tuple(checks)


def matveev_for_family(roots: RootTriple) -> FamilyMatveevResult:
    """Instantiate Matveev's bound on Lambda_2 for the family at
    t = roots.t: verify the height bounds and the W0 cap, and return the
    (t-independent) coefficient of ln^3 t * ln(35 n), and whether it is
    in MATVEEV_WINDOW."""
    t = roots.t
    if t < T_MIN:
        raise ValueError("family parameterization assumes t >= %d" % T_MIN)
    checks = check_height_bounds(roots)
    if not all(checks):
        raise HeightBoundViolatedError("height inequality failed at t=%d: %s" % (t, checks))
    if not certified_below(w0_prefactor(), W0_PREFACTOR_CAP,
                           "W0 prefactor cap undecided at %d bits" % LOG_PRECISION):
        raise HeightBoundViolatedError("W0 prefactor exceeds %d" % W0_PREFACTOR_CAP)
    K = matveev_family_coefficient()
    lo, hi = MATVEEV_WINDOW
    undecided = "Matveev coefficient window undecided at %d bits" % LOG_PRECISION
    return FamilyMatveevResult(t, K, checks, certified_below(lo, K, undecided)
                               and certified_below(K, hi, undecided))


def _growth_feasible(t: int) -> bool:
    """Can the forced growth n >= 3.5 t^3 ln t coexist with the Matveev
    cap n / ln(35 n) < EXPONENT_CAP ln^2 t?"""
    c, p = GROWTH[2]
    lnt = _ln(t)
    g = c * t ** p * lnt
    return certified_below(g / (35 * g).log(), EXPONENT_CAP * lnt ** 2,
                           "growth cap at t=%d undecided at %d bits" % (t, LOG_PRECISION))


def derive_t_max() -> Tuple[int, float]:
    """Largest integer t compatible with both the growth bound of
    Lambda_2 and the Matveev cap (monotone bisection), plus the n
    ceiling n = EXPONENT_CAP ln^2 t ln(35 n).  The typed cap is first
    certified to be at least K / 7.9, so it can only widen t_max.

    The bisection needs h(t) = (g / ln 35g) / ln^2 t, g = 3.5 t^3 ln t,
    increasing for t >= T_MIN.  As g'/g >= 3/t and g grows, its
    log-derivative is at least (1/t)(3(1 - 1/ln 35g) - 2/ln t), and so, by
    the certified premise ln(35 g(T_MIN)) > 3, (1/t)(2 - 2/ln T_MIN) > 0."""
    if not certified_below(matveev_family_coefficient() / LAMBDA_DECAY[2], EXPONENT_CAP,
                           "K / 7.9 against EXPONENT_CAP undecided at %d bits" % LOG_PRECISION):
        raise VerificationFailedError("EXPONENT_CAP %d is below K / 7.9" % EXPONENT_CAP)
    c, p = GROWTH[2]
    if not certified_below(3, (35 * c * T_MIN ** p * _ln(T_MIN)).log(),
                           "ln(35 g(%d)) > 3 undecided at %d bits" % (T_MIN, LOG_PRECISION)):
        raise VerificationFailedError(
            "ln(35 g(%d)) <= 3: the bisection may not be monotone" % T_MIN)
    lo, hi = T_MIN, 10 ** 7
    if not _growth_feasible(lo) or _growth_feasible(hi):
        raise AssertionError("feasibility predicate lost its bracket")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _growth_feasible(mid):
            lo = mid
        else:
            hi = mid
    # n -> cap * ln(35 n) maps [1, 10^20] into itself and contracts near
    # its fixed point; iterate until the enclosure stops shrinking
    cap = EXPONENT_CAP * _ln(lo) ** 2
    n = CertifiedReal.from_endpoints(1, 10 ** 20, LOG_PRECISION)
    while (nxt := cap * (35 * n).log()).width < n.width:
        n = nxt
    return lo, float(n)


def contradiction_threshold(which: int, t: int) -> float:
    """The combined upper bound on ln|Lambda_which| at the growth
    threshold: -27.65 t^3 ln^2 t for which=2 and the analogous decay x
    growth products for which=1,3.  A float, for the records' margin;
    `reduction.contradiction_check` decides against it in integers."""
    coef, p = CONTRADICTION_COEFF[which]
    return -float(coef) * t ** p * math.log(t) ** 2


# ln 2 in [LN2[0], LN2[1]] / 2^LN2[2], from its enclosure at LOG_PRECISION bits
LN2 = dyadic_numerators(_ln(2)._ival)


def ln_bit_bounds(m: int, e: int = 0) -> Tuple[int, int]:
    """(lo, hi) with lo/2^k <= ln(m 2^e) < hi/2^k for m > 0, k = LN2[2]:
    m 2^e lies in [2^E, 2^(E+1)) for E = bits(m) - 1 + e, so ln(m 2^e)
    lies in [E ln 2, (E + 1) ln 2), and each end takes the bound on ln 2
    that keeps it on its side."""
    E = m.bit_length() - 1 + e
    lo2, hi2, _ = LN2
    return E * (lo2 if E >= 0 else hi2), (E + 1) * (hi2 if E >= -1 else lo2)
