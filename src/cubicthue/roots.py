"""Certified real roots of P(x) = F_{3,t}(x,1) and certification of the
sixteen kappa-interval claims underpinning the asymptotic analysis.

Root enclosures are the brackets that exact-rational sign bisection of
an isolating window ends in, found in exact integer arithmetic: Newton's
method locates the bracket on the bisection grid and two exact sign
evaluations of P at its endpoints certify it, so the sign changes are
unconditional.  For t >= 10 the series expansions of the roots hand us
isolating windows for free; smaller t falls back to critical-point
splitting of the full range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import PrecisionInsufficientError
from .forms import monic_cubic
from .realnum import CertifiedReal

# published target interval for each kappa index
KAPPA_TARGETS: Dict[int, Tuple[Fraction, Fraction]] = {
    1: (Fraction(3), Fraction("3.1")),
    2: (Fraction(8), Fraction("8.03")),
    3: (Fraction(5), Fraction("5.02")),
    4: (Fraction("1.8"), Fraction("2.2")),
    5: (Fraction("7.99"), Fraction("8.03")),
    6: (Fraction(3), Fraction("3.01")),
    7: (Fraction("3.8"), Fraction("4.3")),
    8: (Fraction(0), Fraction("3.1")),
    9: (Fraction(0), Fraction("1.1")),
    10: (Fraction("4.9"), Fraction(5)),
    11: (Fraction("4.5"), Fraction("7.7")),
    12: (Fraction("4.5"), Fraction("5.7")),
    13: (Fraction("2.9"), Fraction("3.1")),
    14: (Fraction("25.9"), Fraction("26.6")),
    15: (Fraction("2.9"), Fraction("3.1")),
    16: (Fraction("-0.1"), Fraction("0.1")),
}

T_ONLY_KAPPAS = (1, 2, 3, 5, 6, 9, 10, 12, 13, 15, 16)
ENVELOPE_KAPPAS = (4, 7, 8, 11, 14)


def default_precision(t: int) -> int:
    """Scales with t so that kappa extraction (which multiplies root
    errors by up to t^12) keeps ~60 certified bits."""
    return 14 * abs(t).bit_length() + 200


def cubic_coeffs(t: int) -> Tuple[int, int, int]:
    """(B, C, D) of P(x) = x^3 + B x^2 + C x + D for F_{3,t}."""
    return (-(t ** 4 - t), t ** 5 - 2 * t * t, 1)


# Newton's method locates the root on a coarse grid first, then doubles
# the grid resolution per level; the guard bits beyond the bracket grid
# keep rounding in the last step away from the cell boundaries.
NEWTON_START_BITS = 64
NEWTON_GUARD_BITS = 16


def _scaled_coeffs(B: int, C: int, D: int, S: int) -> Tuple[int, int, int]:
    """(b, c, d) with monic_cubic(b, c, d, N) = S^3 * P(N/S); for S > 0
    it has the sign of P(N/S) and vanishes exactly when P(N/S) does."""
    return B * S, C * S * S, D * S * S * S


def _halvings(p: int, q: int) -> int:
    """Smallest k >= 0 with p <= q * 2^k (q > 0)."""
    k = max(0, p.bit_length() - q.bit_length())
    return k + 1 if (q << k) < p else k


def _strictly_monotone(B: int, C: int, A: int, H: int, S: int) -> bool:
    """True when P' has no zero on [A/S, H/S]: P' is a convex parabola,
    so it suffices to look at its endpoint values and at its vertex."""
    b, c = B * S, C * S * S
    dlo = (3 * A + 2 * b) * A + c
    dhi = (3 * H + 2 * b) * H + c
    if dlo < 0 and dhi < 0:
        return True
    vertex_inside = 3 * A < -b < 3 * H
    return dlo > 0 and dhi > 0 and (B * B < 3 * C or not vertex_inside)


def _newton_index(B: int, C: int, D: int, A: int, delta: int, S: int,
                  neg: bool, k_final: int) -> int:
    """Estimate of 2^k_final * u for the root A/S + u * delta/S of P
    (P(A/S) < 0 iff neg).  Level k runs safeguarded Newton on the grid
    of spacing 2^-k in u, keeping a sign-change bracket and bisecting it
    whenever a step would leave it; the next level starts from the
    previous estimate at twice the resolution."""
    k = min(NEWTON_START_BITS, k_final)
    a, z = 0, 1 << k
    m = z >> 1                       # the window midpoint
    while True:
        b, c, d = _scaled_coeffs(B, C, D, S << k)
        base = A << k
        for _ in range(2 * k + 8):
            N = base + m * delta
            f = monic_cubic(b, c, d, N)
            if f == 0:
                break
            if (f < 0) == neg:
                a = m
            else:
                z = m
            if z - a <= 1:
                m = a
                break
            df = ((3 * N + 2 * b) * N + c) * delta
            if df:
                step = f // df
                if -1 <= step <= 0:
                    # the root is within a unit of m, on the side the
                    # sign of f shows: round down to the grid point below
                    if m == z:
                        m -= 1
                    break
                m -= step
            if not a < m < z:
                m = (a + z) >> 1
        if k == k_final:
            return m
        j = min(k, k_final - k)
        a, z, m, k = a << j, z << j, m << j, k + j


def _bisect(B: int, C: int, D: int, lo: Fraction, hi: Fraction,
            width: Fraction) -> Tuple[Fraction, Fraction]:
    """The bracket that halving [lo, hi] until it is at most `width`
    wide ends in, keeping a sign change of P = x^3 + B x^2 + C x + D
    (or (r - width/4, r + width/4) when P vanishes at an evaluated point
    r), computed in exact integers.

    After K halvings the bracket is a cell [x_n, x_(n+1)] of the grid
    x_n = lo + n (hi - lo) / 2^K.  When P is strictly monotone on
    [lo, hi] (every call site in this module hands over a window holding
    exactly one simple root: the series windows for t >= 10, the
    monotone pieces of the critical-point splitting below t = 10), the
    only cell with a strict sign change is the one bisection ends in, so
    Newton's method finds n and two exact sign evaluations certify the
    cell.  Otherwise, or when the certificate fails or an evaluation is
    exactly zero, an integer bisection over the same grid replays the
    midpoint sequence of halving.  Raises PrecisionInsufficientError
    when P does not change sign over [lo, hi]."""
    S = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
    A = lo.numerator * (S // lo.denominator)
    delta = hi.numerator * (S // hi.denominator) - A
    scaled = _scaled_coeffs(B, C, D, S)
    flo = monic_cubic(*scaled, A)
    fhi = monic_cubic(*scaled, A + delta)
    if flo == 0:
        return (lo - width / 4, lo + width / 4)
    if fhi == 0:
        return (hi - width / 4, hi + width / 4)
    if (flo < 0) == (fhi < 0):
        raise PrecisionInsufficientError("no sign change over bracket")
    K = _halvings(delta * width.denominator, S * width.numerator)
    if K == 0:
        return lo, hi
    neg = flo < 0
    SK = S << K
    b, c, d = _scaled_coeffs(B, C, D, SK)
    base = A << K

    def at(n: int) -> int:           # SK^3 * P(x_n)
        return monic_cubic(b, c, d, base + n * delta)

    def cell(n: int) -> Tuple[Fraction, Fraction]:
        return (Fraction(base + n * delta, SK),
                Fraction(base + (n + 1) * delta, SK))

    if _strictly_monotone(B, C, A, A + delta, S):
        k_final = K + NEWTON_GUARD_BITS
        n = _newton_index(B, C, D, A, delta, S, neg, k_final) >> NEWTON_GUARD_BITS
        f0, f1 = at(n), at(n + 1)
        if f0 != 0 and f1 != 0 and (f0 < 0) == neg and (f1 < 0) != neg:
            return cell(n)
    n, span = 0, 1 << K
    while span > 1:
        span >>= 1
        fm = at(n + span)
        if fm == 0:
            mid = Fraction(base + (n + span) * delta, SK)
            return (mid - width / 4, mid + width / 4)
        if (fm < 0) == neg:
            n += span
    return cell(n)


def isolate_real_roots_monic_cubic(B: int, C: int, D: int,
                                   width: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """Certified brackets (width-limited, sign-change validated) of all
    simple real roots of x^3 + B x^2 + C x + D, via critical-point
    splitting into monotone pieces."""
    M = 1 + max(abs(B), abs(C), abs(D))
    lo, hi = Fraction(-M), Fraction(M)
    disc4 = B * B - 3 * C
    cut_points: List[Fraction] = [lo]
    if disc4 > 0:
        s0 = math.isqrt(disc4)
        # critical points (-B -+ sqrt(disc4))/3, bracketed by isqrt
        c1_lo, c1_hi = Fraction(-B - s0 - 1, 3), Fraction(-B - s0, 3)
        c2_lo, c2_hi = Fraction(-B + s0, 3), Fraction(-B + s0 + 1, 3)
        for c in (c1_lo, c1_hi, c2_lo, c2_hi):
            if lo < c < hi:
                cut_points.append(c)
    cut_points.append(hi)
    out = []
    for a, b in zip(cut_points, cut_points[1:]):
        fa = monic_cubic(*_scaled_coeffs(B, C, D, a.denominator), a.numerator)
        fb = monic_cubic(*_scaled_coeffs(B, C, D, b.denominator), b.numerator)
        if fa == 0:
            if not any(br[0] <= a <= br[1] for br in out):
                out.append((a - width / 4, a + width / 4))
            continue
        if fb != 0 and (fa < 0) != (fb < 0):
            out.append(_bisect(B, C, D, a, b, width))
    # trailing exact-root endpoint
    fb = monic_cubic(*_scaled_coeffs(B, C, D, hi.denominator), hi.numerator)
    if fb == 0 and not any(br[0] <= hi <= br[1] for br in out):
        out.append((hi - width / 4, hi + width / 4))
    return out


@dataclass(frozen=True)
class RootTriple:
    theta1: CertifiedReal
    theta2: CertifiedReal
    theta3: CertifiedReal
    t: int
    precision: int

    @property
    def thetas(self) -> Tuple[CertifiedReal, CertifiedReal, CertifiedReal]:
        return (self.theta1, self.theta2, self.theta3)


def isolate_roots(t: int, precision: Optional[int] = None) -> RootTriple:
    """The three certified real roots theta1 < theta2 < theta3 of
    F_{3,t}(x,1); requires positive discriminant (t not in {0,1})."""
    if t in (0, 1):
        raise ValueError("discriminant is non-positive for t in {0,1}")
    if precision is None:
        precision = default_precision(t)
    B, C, D = cubic_coeffs(t)
    # kappa extraction multiplies root errors by up to t^12 ~ 2^(12 lg t),
    # and the enclosures must separate values ~t^-3 from the interval
    # endpoints, so nearly the full working precision goes into the bracket
    width = Fraction(1, 2 ** max(precision - 8, 32))
    if t >= 10:
        t5 = Fraction(t) ** 5
        t8 = Fraction(t) ** 8
        brackets = [
            _bisect(B, C, D, -2 / t5, Fraction(0), width),
            _bisect(B, C, D, Fraction(t), t + 2 / t5, width),
            _bisect(B, C, D, t ** 4 - 2 * t - 2 / t8, Fraction(t ** 4 - 2 * t), width),
        ]
    else:
        brackets = isolate_real_roots_monic_cubic(B, C, D, width)
        if len(brackets) != 3:
            raise PrecisionInsufficientError(
                "expected 3 separated real roots for t=%d, found %d" % (t, len(brackets)))
        brackets.sort()
    for (a, b), (c, _) in zip(brackets, brackets[1:]):
        if not b < c:
            raise PrecisionInsufficientError("root enclosures overlap at t=%d" % t)
    enc = [CertifiedReal.from_endpoints(a, b, precision) for a, b in brackets]
    return RootTriple(enc[0], enc[1], enc[2], t, precision)


def _kappa_t_only_expr(j: int, t: int, roots: RootTriple) -> CertifiedReal:
    th1, th2, th3 = roots.thetas
    prec = roots.precision
    T = CertifiedReal.from_rational(t, prec)
    lnt = T.log()
    if j == 1:
        return -(th1 * T ** 11) - T ** 6 - 2 * T ** 3
    if j == 2:
        return (th2 - T) * T ** 11 - T ** 6 - 3 * T ** 3
    if j == 3:
        return (T ** 4 - 2 * T - th3) * T ** 11 - T ** 3
    if j == 5:
        return T ** 6 * (9 * lnt - 6 / T ** 3 - ((th3 - T) / (th2 - T)).log())
    if j == 6:
        return T ** 6 * (3 * lnt - 2 / T ** 3 - (th3 / th2).log())
    if j == 9:
        return T ** 3 * (T ** 3 - 3 - (th3 - T) / (T - th1))
    if j == 10:
        return (th3 / abs(th1) - T ** 9 + 4 * T ** 6) / T ** 3
    if j == 12:
        return T ** 6 * (3 * lnt - 3 / T ** 3 - ((th3 - T) / (T - th1)).log())
    if j == 13:
        return T ** 6 * (9 * lnt - 4 / T ** 3 - (th3 / abs(th1)).log())
    if j == 15:
        return T ** 3 * (6 * lnt - ((T - th1) / (th2 - T)).log())
    if j == 16:
        return T ** 6 * (6 * lnt - 2 / T ** 3 - (th2 / abs(th1)).log())
    raise ValueError("kappa_%d is not determined by t alone" % j)


def kappa_t_only(j: int, t: int, roots: Optional[RootTriple] = None,
                 precision: Optional[int] = None) -> CertifiedReal:
    """Enclosure of kappa_j for the indices fixed by t alone, obtained
    by inverting the defining series identity."""
    if j not in T_ONLY_KAPPAS:
        raise ValueError("kappa_%d depends on the solution interval" % j)
    if t < 10:
        raise ValueError("kappa claims are certified for t >= 10 only")
    if roots is None:
        roots = isolate_roots(t, precision)
    return _kappa_t_only_expr(j, t, roots)


def solution_interval(which: int, t: int, y_abs: int = 2) -> Tuple[Fraction, Fraction]:
    """The open interval I_which (1, 2 or 3) that x/y of a type-I/II/III
    solution with the given |y| lies in.  The endpoint 1 - 1/|y|^3 is
    smallest at |y| = 2, so the default is the hull over all |y| >= 2."""
    c113 = Fraction(113, 100)
    cy = 1 - Fraction(1, y_abs ** 3)
    if which == 1:
        t5 = Fraction(t) ** 5
        return (-c113 / t5, -cy / t5)
    if which == 2:
        t5 = Fraction(t) ** 5
        return (t + cy / t5, t + c113 / t5)
    if which == 3:
        t8 = Fraction(t) ** 8
        return (t ** 4 - 2 * t - c113 / t8, t ** 4 - 2 * t - cy / t8)
    raise ValueError(which)


def kappa_envelope(j: int, t: int, roots: Optional[RootTriple] = None,
                   precision: Optional[int] = None, pieces: int = 16) -> CertifiedReal:
    """Enclosure of the solution-dependent kappa_j with the entire
    admissible x/y interval substituted as an interval operand
    (subdivided to control dependency widening)."""
    if j not in ENVELOPE_KAPPAS:
        raise ValueError("kappa_%d is determined by t alone" % j)
    if t < 10:
        raise ValueError("kappa claims are certified for t >= 10 only")
    if roots is None:
        roots = isolate_roots(t, precision)
    th1, th2, th3 = roots.thetas
    prec = roots.precision
    T = CertifiedReal.from_rational(t, prec)
    # the parts of each integrand that do not depend on r, computed once
    # with the same operations (and so the same roundings) per piece
    T3 = T ** 3
    if j in (4, 7):
        lo, hi = solution_interval(1, t)
        if j == 4:
            c = T3 - 2
            f = lambda r: T3 * (c - (r - th3) / (r - th2))
        else:
            T6, c = T ** 6, 3 * T.log() - 2 / T3
            f = lambda r: T6 * (c - ((r - th3) / (r - th2)).log())
    elif j in (8, 11):
        lo, hi = solution_interval(2, t)
        if j == 8:
            c = T3 - 3
            f = lambda r: T3 * (c - (th3 - r) / (r - th1))
        else:
            T6, c = T ** 6, 3 * T.log() - 3 / T3
            f = lambda r: T6 * (c - ((th3 - r) / (r - th1)).log())
    else:
        lo, hi = solution_interval(3, t)
        T12, c1, c2, c3 = (T ** 12, 1 / T3, Fraction(5, 2) / T ** 6,
                           Fraction(25, 3) / T ** 9)
        f = lambda r: T12 * (((r - th1) / (r - th2)).log() - c1 - c2 - c3)
    return CertifiedReal.hull(f(r) for r in CertifiedReal.subdivide(lo, hi, pieces, prec))


@dataclass(frozen=True)
class KappaRow:
    j: int
    enclosure: CertifiedReal
    target: Tuple[Fraction, Fraction]
    passed: bool

    def to_json(self, t: int) -> dict:
        return {
            "schema": 1,
            "t": t,
            "kappa": self.j,
            "lower": float(self.enclosure.lower),
            "upper": float(self.enclosure.upper),
            "target": [float(self.target[0]), float(self.target[1])],
            "pass": self.passed,
        }


@dataclass(frozen=True)
class KappaReport:
    t: int
    rows: Tuple[KappaRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r.to_json(self.t)) for r in self.rows)


def verify_kappas(t: int, precision: Optional[int] = None) -> KappaReport:
    """All sixteen kappa enclosures checked against the claimed target
    intervals; failures are recorded, never raised."""
    if t < 10:
        raise ValueError("kappa claims are certified for t >= 10 only")
    roots = isolate_roots(t, precision)
    rows = []
    for j in range(1, 17):
        if j in T_ONLY_KAPPAS:
            enc = kappa_t_only(j, t, roots)
        else:
            enc = kappa_envelope(j, t, roots)
        lo, hi = KAPPA_TARGETS[j]
        passed = lo < enc.lower and enc.upper < hi
        rows.append(KappaRow(j, enc, (lo, hi), passed))
    return KappaReport(t, tuple(rows))


def intervals_disjoint(t: int, y_abs: int = 2) -> bool:
    """sup I1 < inf I2 < sup I2 < inf I3 at the given |y|."""
    (_, sup1), (inf2, sup2), (inf3, _) = (solution_interval(w, t, y_abs)
                                          for w in (1, 2, 3))
    return sup1 < inf2 < sup2 < inf3
