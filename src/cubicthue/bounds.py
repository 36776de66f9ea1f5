"""Siegel identity, the three linear forms in logarithms, their upper
bounds, Matveev's explicit lower bound, and the absolute bound on t.

Constants are carried as exact rationals where the source analysis gives
them exactly (7.7, 7.9, 8.9, 3.5, 8.6, 9.8, 1.07e15); the contradiction
coefficients 7.7 * 8.6, 27.65 = 7.9 * 3.5 and 8.9 * 9.8 are derived
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from mpmath import mp

from .errors import HeightBoundViolatedError, IndeterminateSignError
from .realnum import CertifiedReal
from .roots import RootTriple

# decay rates of |Lambda_which| in the exponent size
LAMBDA_DECAY = {1: Fraction(77, 10), 2: Fraction(79, 10), 3: Fraction(89, 10)}

# n/log(35n) cap per unit of log^2 t, derived from the Matveev constant
EXPONENT_CAP = 107 * 10 ** 13

# (c, p) of the forced exponent growth max(|m|, |n|) >= c * t^p * ln t
# of a type I/II/III solution
GROWTH = {1: (Fraction(86, 10), 6), 2: (Fraction(35, 10), 3), 3: (Fraction(98, 10), 3)}

# decay * growth, on t^p
CONTRADICTION_COEFF = {which: (LAMBDA_DECAY[which] * c, p)
                       for which, (c, p) in GROWTH.items()}

# decimal digits of the (non-interval) mpmath work in derive_t_max
TMAX_DPS = 60

# bits of the logarithms that decide the contradiction
LOG_PRECISION = 64

# a rational above e, certified by ln(E_UPPER) > 1 in w0_prefactor_upper
E_UPPER = Fraction(27183, 10000)

# the W0 prefactor must stay below this multiple of n for ln(35 n) to majorize W0
W0_PREFACTOR_CAP = 35


def siegel_residual(x: int, y: int, roots: RootTriple) -> CertifiedReal:
    """(th2-th3)(x-y*th1) + (th3-th1)(x-y*th2) + (th1-th2)(x-y*th3);
    an algebraic identity, so the enclosure must contain 0 for any
    integers x, y."""
    th1, th2, th3 = roots.thetas
    return ((th2 - th3) * (x - th1 * y)
            + (th3 - th1) * (x - th2 * y)
            + (th1 - th2) * (x - th3 * y))


@dataclass(frozen=True)
class LogLinearForm:
    which: int
    t: int
    coefficients: Tuple[int, int, int]        # (b1, b2, b3) on (alpha1, alpha2, alpha3)
    log_arguments: Tuple[CertifiedReal, CertifiedReal, CertifiedReal]
    value: CertifiedReal


def lambda_log_arguments(which: int, roots: RootTriple
                         ) -> Tuple[CertifiedReal, CertifiedReal, CertifiedReal]:
    """(alpha1, alpha2, alpha3) with Lambda = m log a1 + n log a2 + log a3."""
    th1, th2, th3 = roots.thetas
    T = CertifiedReal.from_rational(roots.t, roots.precision)
    if which == 1:
        return (th3 / th2, (T - th2) / (T - th3), (th1 - th3) / (th1 - th2))
    if which == 2:
        return (abs(th3 / th1), abs((T - th1) / (T - th3)), (th3 - th2) / (th2 - th1))
    if which == 3:
        return (abs(th2 / th1), abs((T - th1) / (T - th2)), (th3 - th2) / (th3 - th1))
    raise ValueError("which must be 1, 2 or 3")


def lambda_value(which: int, n: int, m: int, roots: RootTriple) -> LogLinearForm:
    """Certified enclosure of Lambda_which at integer exponents (n, m)."""
    a1, a2, a3 = lambda_log_arguments(which, roots)
    value = m * a1.log() + n * a2.log() + a3.log()
    return LogLinearForm(which, roots.t, (m, n, 1), (a1, a2, a3), value)


def matveev_C(n: int, chi: int) -> float:
    return (16 / (math.factorial(n) * chi) * math.e ** n * (2 * n + 1 + 2 * chi)
            * (n + 2) * (4 * n + 4) ** (n + 1) * (math.e * n / 2) ** chi)


def matveev_C0(n: int, D: int) -> float:
    return math.log(math.exp(4.4 * n + 7) * n ** 5.5 * D * D * math.log(math.e * D))


def matveev_family_coefficient() -> float:
    """Coefficient K in ln|Lambda_2| > -K * ln^3 t * ln(35 n), from the
    family parameterization D=6, chi=1, A = (18, 18, 36) * ln t, B=n/2.
    The W0 prefactor 1.5 e (n/2) 6 ln(6e) is below 35 n, so ln(35 n)
    majorizes W0."""
    C = matveev_C(3, 1)
    C0 = matveev_C0(3, 6)
    return C * C0 * 36 * (18 * 18 * 36)


def w0_prefactor() -> float:
    """1.5 e B D ln(eD) per unit of n at B=n/2, D=6, for display; the
    check that it is below 35 reads w0_prefactor_upper."""
    return 1.5 * math.e * 0.5 * 6 * math.log(6 * math.e)


def w0_prefactor_upper() -> CertifiedReal:
    """An enclosure of 4.5 E (1 + ln 6) with E = E_UPPER, which bounds
    the W0 prefactor 1.5 e B D ln(eD) / n = 4.5 e (1 + ln 6) from above
    once E > e is certified, by ln E > 1 on an interval logarithm;
    raises IndeterminateSignError when that is not decided."""
    E = CertifiedReal.from_rational(E_UPPER, LOG_PRECISION)
    if not (E.log() - 1).is_positive():
        raise IndeterminateSignError("ln(%s) > 1 undecided at %d bits"
                                     % (E_UPPER, LOG_PRECISION))
    ln6 = CertifiedReal.from_rational(6, LOG_PRECISION).log()
    return Fraction(9, 2) * E * (ln6 + 1)


@dataclass(frozen=True)
class FamilyMatveevResult:
    which: int
    t: int
    coefficient: float
    height_checks: Tuple[bool, bool, bool]


def _certified_below(h: CertifiedReal, bound: CertifiedReal, name: str) -> bool:
    """h < bound for every value of both enclosures (True), h >= bound
    for every value (False); enclosures that overlap decide neither."""
    if h.upper < bound.lower:
        return True
    if h.lower >= bound.upper:
        return False
    raise IndeterminateSignError(
        "height inequality %s undecided at %d bits: [%.6g, %.6g] against [%.6g, %.6g]"
        % (name, h.precision, h.lower, h.upper, bound.lower, bound.upper))


def check_height_bounds(roots: RootTriple) -> Tuple[bool, bool, bool]:
    """Certified checks of the three displayed height inequalities
    against 6 ln t and 3 ln t.  Raises IndeterminateSignError when the
    enclosures at this precision decide one of them neither way."""
    th1, th2, th3 = roots.thetas
    T = CertifiedReal.from_rational(roots.t, roots.precision)
    lnt = T.log()
    h_diff = Fraction(2, 3) * ((th3 - th2) * (th3 - th1) * (th2 - th1)).log()
    h_ratio = Fraction(1, 6) * ((th3 / th1) ** 2).log()
    h_unit = Fraction(1, 6) * (((T - th3) / (T - th2)) ** 2).log()
    return (
        _certified_below(h_diff, 6 * lnt, "h_diff < 6 ln t"),
        _certified_below(h_ratio, 3 * lnt, "h_ratio < 3 ln t"),
        _certified_below(h_unit, 3 * lnt, "h_unit < 3 ln t"),
    )


def matveev_for_family(which: int, roots: RootTriple) -> FamilyMatveevResult:
    """Instantiate Matveev's bound for the family at t = roots.t: verify
    the height bounds numerically and return the (t-independent)
    coefficient of ln^3 t * ln(35 n)."""
    t = roots.t
    if t < 10:
        raise ValueError("family parameterization assumes t >= 10")
    checks = check_height_bounds(roots)
    if not all(checks):
        raise HeightBoundViolatedError(
            "height inequality failed at t=%d: %s" % (t, checks))
    if not w0_prefactor_upper().upper < W0_PREFACTOR_CAP:
        raise HeightBoundViolatedError("W0 prefactor exceeds %d" % W0_PREFACTOR_CAP)
    return FamilyMatveevResult(which, t, matveev_family_coefficient(), checks)


def _growth_feasible(t) -> bool:
    """Can the forced growth n >= 3.5 t^3 ln t coexist with the Matveev
    cap n / ln(35 n) < 1.07e15 ln^2 t?"""
    c, p = GROWTH[2]
    with mp.workdps(TMAX_DPS):
        tt = mp.mpf(t)
        # 3.5 = 7/2 is exact in binary
        g = mp.mpf(c.numerator) / c.denominator * tt ** p * mp.log(tt)
        return g / mp.log(35 * g) < mp.mpf(EXPONENT_CAP) * mp.log(tt) ** 2


def derive_t_max(which: int = 2) -> Tuple[int, float]:
    """Largest integer t compatible with both the growth bound and the
    Matveev cap (monotone bisection), plus the matching n ceiling."""
    if which != 2:
        raise ValueError("the binding bound comes from Lambda_2")
    lo, hi = 10, 10 ** 7
    if not _growth_feasible(lo) or _growth_feasible(hi):
        raise AssertionError("feasibility predicate lost its bracket")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _growth_feasible(mid):
            lo = mid
        else:
            hi = mid
    with mp.workdps(TMAX_DPS):
        tt = mp.mpf(lo)
        n = mp.mpf("1e18")
        for _ in range(200):
            n = mp.mpf(EXPONENT_CAP) * mp.log(tt) ** 2 * mp.log(35 * n)
        n_max = float(n)
    return lo, n_max


def contradiction_threshold(which: int, t: int) -> float:
    """The combined upper bound on ln|Lambda_which| at the growth
    threshold: -27.65 t^3 ln^2 t for which=2 and the analogous decay x
    growth products for which=1,3."""
    coef, p = CONTRADICTION_COEFF[which]
    return -float(coef) * t ** p * math.log(t) ** 2


def certified_contradiction_threshold(which: int, t: int) -> CertifiedReal:
    """contradiction_threshold enclosed at LOG_PRECISION bits."""
    coef, p = CONTRADICTION_COEFF[which]
    lnt = CertifiedReal.from_rational(t, LOG_PRECISION).log()
    return -(coef * t ** p) * lnt ** 2
