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

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .errors import IndeterminateSignError, PrecisionInsufficientError
from .forms import BinaryCubicForm, discriminant, family_form, monic_cubic
from .realnum import CertifiedReal, _quotient_side, endpoint_cmp

def default_precision(t: int) -> int:
    """Scales with t so that kappa extraction (which multiplies root
    errors by up to t^12) keeps ~60 certified bits."""
    return 14 * abs(t).bit_length() + 200


# the guard bits beyond the bracket grid keep rounding in Newton's last
# step away from the cell boundaries
NEWTON_GUARD_BITS = 16


def _scaled_coeffs(B: int, C: int, D: int, S: int) -> Tuple[int, int, int]:
    """(b, c, d) with monic_cubic(b, c, d, N) = S^3 * P(N/S); for S > 0
    it has the sign of P(N/S) and vanishes exactly when P(N/S) does."""
    return B * S, C * S * S, D * S * S * S


def _halvings(p: int, q: int) -> int:
    """Smallest k >= 0 with p <= q * 2^k (q > 0)."""
    k = max(0, p.bit_length() - q.bit_length())
    return k + 1 if (q << k) < p else k


def bracket_bits(precision: int) -> int:
    """w such that `isolate_roots` at this precision brackets each root
    in at most 2^-w.  Kappa extraction multiplies root errors by up to
    t^12 ~ 2^(12 lg t), and the enclosures must separate values ~t^-3
    from the interval endpoints, so nearly the full working precision
    goes into the bracket width."""
    return max(precision - 8, 32)


def series_cell_halvings(t: int, precision: int) -> int:
    """K such that, for t >= 10, `isolate_roots(t, precision)` brackets
    theta1 in a cell of exact width 2 / (t^5 2^K) of its series window
    [-2/t^5, 0]: `_bracket`'s number of halvings of that window."""
    return _halvings(2 << bracket_bits(precision), t ** 5)


def _slope_sign(B: int, C: int, A: int, H: int, S: int) -> int:
    """The sign of P' on [A/S, H/S] when P' has no zero there, else 0:
    P' is a convex parabola, so it suffices to look at its endpoint
    values and at its vertex."""
    b, c = B * S, C * S * S
    dlo = (3 * A + 2 * b) * A + c
    dhi = (3 * H + 2 * b) * H + c
    if dlo < 0 and dhi < 0:
        return -1
    vertex_inside = 3 * A < -b < 3 * H
    if dlo > 0 and dhi > 0 and (B * B < 3 * C or not vertex_inside):
        return 1
    return 0


def _newton_index(B: int, C: int, D: int, A: int, delta: int, S: int,
                  neg: bool, k: int, start: Optional[Tuple[int, int]] = None) -> int:
    """Estimate of 2^k * u for the root A/S + u * delta/S of P
    (P(A/S) < 0 iff neg).  Safeguarded Newton runs on the grid of
    spacing 2^-k in u, keeping a sign-change bracket and bisecting it
    whenever a step would leave it.
    It starts from the grid point at or below start = (p, q), for p/q
    with q > 0, when that point lies strictly inside the window, and
    from the window midpoint otherwise."""
    a, z = 0, 1 << k
    m = z >> 1                       # the window midpoint
    if start is not None:
        p, q = start
        s = ((p * S - A * q) << k) // (q * delta)
        if a < s < z:
            m = s
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
    return m


def _bisection_index(b: int, c: int, d: int, base: int, delta: int,
                     K: int) -> Tuple[int, bool]:
    """Integer bisection over the grid x_n = base + n * delta of the
    cubic with scaled coefficients (b, c, d), replaying the midpoint
    sequence of halving the window [x_0, x_(2^K)]: (n, False) for the
    cell [x_n, x_(n+1)] it ends in, or (n, True) when it meets a zero at
    x_n first.  Raises PrecisionInsufficientError when the cubic does
    not change sign over the window."""
    top = 1 << K
    flo = monic_cubic(b, c, d, base)
    fhi = monic_cubic(b, c, d, base + top * delta)
    if flo == 0:
        return 0, True
    if fhi == 0:
        return top, True
    if (flo < 0) == (fhi < 0):
        raise PrecisionInsufficientError("no sign change over bracket")
    neg = flo < 0
    n, span = 0, top
    while span > 1:
        span >>= 1
        fm = monic_cubic(b, c, d, base + (n + span) * delta)
        if fm == 0:
            return n + span, True
        if (fm < 0) == neg:
            n += span
    return n, False


def _bracket(B: int, C: int, D: int, A: int, delta: int, S: int,
             wn: int, wd: int, start: Optional[Tuple[int, int]] = None
             ) -> Tuple[int, int, int]:
    """The bracket that halving the window [A/S, (A + delta)/S] (S > 0,
    delta > 0) until it is at most wn/wd wide ends in, keeping a sign
    change of P = x^3 + B x^2 + C x + D, as numerators over one
    denominator: (N0, N1, M) for [N0/M, N1/M].  When P vanishes at an
    evaluated point r, it is (r - w/4, r + w/4) instead, w = wn/wd.

    After K halvings the bracket is a cell [x_n, x_(n+1)] of the grid
    x_n = (A 2^K + n delta) / (S 2^K), whose values do not depend on how
    the window is written.  When P is strictly monotone on the window
    (as on the series windows for t >= 10 and on the pieces of the
    critical-point splitting that hold no critical point), the only cell
    with a strict sign change is the one bisection ends in, and the sign
    of P' tells which sign P has left of the root.  Newton's method then
    finds n on the final grid, from `start` when given, and two exact
    sign evaluations certify the cell, which must lie inside the window;
    the window ends are not evaluated.  So the start changes only the
    number of evaluations, never the bracket.  Otherwise, or when the
    certificate fails, `_bisection_index` decides.  Raises
    PrecisionInsufficientError when P does not change sign over the
    window."""
    K = _halvings(delta * wd, S * wn)
    SK = S << K
    b, c, d = _scaled_coeffs(B, C, D, SK)
    base = A << K
    slope = _slope_sign(B, C, A, A + delta, S)
    if slope:
        neg = slope > 0
        n = _newton_index(B, C, D, A, delta, S, neg,
                          K + NEWTON_GUARD_BITS, start) >> NEWTON_GUARD_BITS
        if 0 <= n < 1 << K:
            N = base + n * delta
            f0, f1 = monic_cubic(b, c, d, N), monic_cubic(b, c, d, N + delta)
            if f0 != 0 and f1 != 0 and (f0 < 0) == neg and (f1 < 0) != neg:
                return N, N + delta, SK
    n, exact = _bisection_index(b, c, d, base, delta, K)
    N = base + n * delta
    if exact:
        return 4 * wd * N - wn * SK, 4 * wd * N + wn * SK, 4 * wd * SK
    return N, N + delta, SK


def isolate_real_roots_monic_cubic(B: int, C: int, D: int, wn: int, wd: int
                                   ) -> List[Tuple[int, int, int]]:
    """Certified brackets, at most wn/wd wide and in increasing order, of
    every distinct real root of x^3 + B x^2 + C x + D, each (N0, N1, M)
    for [N0/M, N1/M] as `_bracket` gives it: sign-change validated, or
    centred on a root that an evaluation hit exactly.  The real line is
    cut at rational bounds on the critical points, and each piece with a
    sign change is bisected; with a positive discriminant (three distinct
    real roots) the bounds are tightened until the cut separates all
    three.  A double root is an integer critical point, and so a cut
    point at which P vanishes."""
    three_real = discriminant(BinaryCubicForm(1, B, C, D)) > 0
    k = 0
    while True:
        out = _split_and_bisect(B, C, D, wn, wd, k)
        if len(out) == 3 or not three_real:
            return out
        k += 1


def _split_and_bisect(B: int, C: int, D: int, wn: int, wd: int,
                      k: int) -> List[Tuple[int, int, int]]:
    """Brackets of the roots at a cut point or with a sign change between
    two.  The cuts are numerators over S = 3 * 2^k: -M and M, which bound
    every root strictly (Cauchy), and between them the bounds on the
    critical points on the grid 1/S.

    The outer pieces are ~M wide, and far from its roots a Newton step
    of a cubic covers only a third of the distance, so Newton starts a
    piece from the first of the Newton-polygon root estimates -D/C, -C/B
    and -B that lies strictly inside it (for F_{3,t}, the leading terms
    of theta1, theta2 and theta3)."""
    M = 1 + max(abs(B), abs(C), abs(D))
    S = 3 << k
    disc4 = B * B - 3 * C
    cuts = [-M * S]
    if disc4 > 0:
        # critical points (-B -+ sqrt(disc4))/3, bracketed by isqrt
        s, nb = math.isqrt(disc4 << 2 * k), -B << k
        cuts += [nb - s - 1, nb - s, nb + s, nb + s + 1]
    cuts.append(M * S)
    b, c, d = _scaled_coeffs(B, C, D, S)
    vals = [monic_cubic(b, c, d, n) for n in cuts]
    estimates = [(p, q) if q > 0 else (-p, -q)
                 for p, q in ((-D, C), (-C, B), (-B, 1)) if q]
    out = []
    for lo, hi, flo, fhi in zip(cuts, cuts[1:], vals, vals[1:]):
        if flo == 0:
            out.append((4 * wd * lo - wn * S, 4 * wd * lo + wn * S, 4 * wd * S))
        elif fhi != 0 and (flo < 0) != (fhi < 0):
            start = next(((p, q) for p, q in estimates if lo * q < p * S < hi * q), None)
            out.append(_bracket(B, C, D, lo, hi - lo, S, wn, wd, start))
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


def _series_starts(t: int) -> List[Tuple[int, int]]:
    """theta1, theta2, theta3 truncated in u = 1/t, each as (p, q) for
    p/q: -u^5 - 2u^8 - 3u^11 - 3u^14, t + u^5 + 3u^8 + 8u^11 + 22u^14
    + 65u^17 and t^4 - 2t - u^8 - 5u^11 - 19u^14 - 65u^17."""
    x, t14 = t ** 3, t ** 14
    t17 = t14 * x
    return [(-(((x + 2) * x + 3) * x + 3), t14),
            (((((x * x + 1) * x + 3) * x + 8) * x + 22) * x + 65, t17),
            ((t ** 4 - 2 * t) * t17 - (((x + 5) * x + 19) * x + 65), t17)]


def isolate_roots(t: int, precision: Optional[int] = None) -> RootTriple:
    """The three certified real roots theta1 < theta2 < theta3 of
    F_{3,t}(x,1); requires positive discriminant (t not in {0,1}).
    Each bracket end N/M is reduced by one gcd, and its enclosure
    endpoint is rounded from the reduced pair, with the bits
    `CertifiedReal.from_endpoints` gives the same rational."""
    if t in (0, 1):
        raise ValueError("discriminant is non-positive for t in {0,1}")
    if precision is None:
        precision = default_precision(t)
    _, B, C, D = family_form(3, t).coefficients
    w = bracket_bits(precision)
    if t >= 10:
        # the series windows [-2/t^5, 0], [t, t + 2/t^5] and
        # [t^4 - 2t - 2/t^8, t^4 - 2t], each [A/S, (A + 2)/S]; Newton
        # starts from the roots' series in u = 1/t, which are within
        # 300 u^20 of them, so 33-285 bits into their windows
        t5, t8 = t ** 5, t ** 8
        brackets = [_bracket(B, C, D, A, 2, S, 1, 1 << w, start)
                    for (A, S), start in zip(
                        ((-2, t5), (t * t5, t5), ((t ** 4 - 2 * t) * t8 - 2, t8)),
                        _series_starts(t))]
    else:
        brackets = isolate_real_roots_monic_cubic(B, C, D, 1, 1 << w)
        if len(brackets) != 3:
            raise PrecisionInsufficientError(
                "expected 3 separated real roots for t=%d, found %d" % (t, len(brackets)))
    for (_, b, bd), (c, _, cd) in zip(brackets, brackets[1:]):
        if not b * cd < c * bd:
            raise PrecisionInsufficientError("root enclosures overlap at t=%d" % t)
    enc = []
    for N0, N1, M in brackets:
        g, h = math.gcd(N0, M), math.gcd(N1, M)
        enc.append(CertifiedReal((_quotient_side(N0 // g, M // g, precision, False),
                                  _quotient_side(N1 // h, M // h, precision, True)), precision))
    return RootTriple(enc[0], enc[1], enc[2], t, precision)


@functools.lru_cache(maxsize=16)
def _kappa_fractions(prec: int) -> Tuple[CertifiedReal, CertifiedReal]:
    """The enclosures of 5/2 and 25/3 at prec bits, formed once per
    precision: kappa_14's terms divide them by t^6 and t^9."""
    return (CertifiedReal.from_rational(Fraction(5, 2), prec),
            CertifiedReal.from_rational(Fraction(25, 3), prec))


class _KappaTerms:
    """The parts of the kappa expressions that depend on t alone, each
    computed once per RootTriple, by the same operations (and so with the
    same roundings) wherever an expression uses it.  t below 10 is
    refused with ValueError."""

    def __init__(self, t: int, roots: RootTriple):
        if t < 10:
            raise ValueError("kappa claims are certified for t >= 10 only")
        self.t, self.prec = t, roots.precision
        self.th1, self.th2, self.th3 = th1, th2, th3 = roots.thetas
        self.T = T = CertifiedReal.from_rational(t, self.prec)
        self.T3, self.T6, self.T9, self.T11, self.T12 = (T ** e for e in (3, 6, 9, 11, 12))
        lnt = T.log()
        self.c_lnt = {c: c * lnt for c in (3, 6, 9)}                  # c ln t
        self.c_T3 = {c: c / self.T3 for c in (1, 2, 3, 4, 6)}         # c / t^3
        five_halves, twenty_five_thirds = _kappa_fractions(self.prec)
        self.c_T6 = five_halves / self.T6                             # 5/2 / t^6
        self.c_T9 = twenty_five_thirds / self.T9                      # 25/3 / t^9
        self.th2_T, self.th3_T, self.T_th1, self.abs_th1 = th2 - T, th3 - T, T - th1, abs(th1)
        self.ratio31 = self.th3_T / self.T_th1      # (theta3 - T) / (T - theta1)
        self.th3_th1 = th3 / self.abs_th1           # theta3 / |theta1|


class _KappaClaim(NamedTuple):
    """The paper's claim that kappa_j lies strictly inside `target`.
    `expr` encloses kappa_j from the terms k, and when x/y ranges over the
    interval I_which (`which`, None when t alone fixes kappa_j) from k
    and an enclosure q of its ratio (`_ratio_hull`), for every ratio in q."""
    target: Tuple[Fraction, Fraction]
    which: Optional[int]
    expr: Callable[..., CertifiedReal]


def _claim(lo, hi, expr, which: Optional[int] = None) -> _KappaClaim:
    return _KappaClaim((Fraction(lo), Fraction(hi)), which, expr)


KAPPA_CLAIMS: Dict[int, _KappaClaim] = {
    1: _claim(3, "3.1", lambda k: -(k.th1 * k.T11) - k.T6 - 2 * k.T3),
    2: _claim(8, "8.03", lambda k: k.th2_T * k.T11 - k.T6 - 3 * k.T3),
    3: _claim(5, "5.02", lambda k: (k.T ** 4 - 2 * k.T - k.th3) * k.T11 - k.T3),
    4: _claim("1.8", "2.2", lambda k, q: k.T3 * (k.T3 - 2 - q), which=1),
    5: _claim("7.99", "8.03", lambda k: k.T6 * (
        k.c_lnt[9] - k.c_T3[6] - (k.th3_T / k.th2_T).log())),
    6: _claim(3, "3.01", lambda k: k.T6 * (k.c_lnt[3] - k.c_T3[2] - (k.th3 / k.th2).log())),
    7: _claim("3.8", "4.3", lambda k, q: k.T6 * (k.c_lnt[3] - k.c_T3[2] - q.log()), which=1),
    8: _claim(0, "3.1", lambda k, q: k.T3 * (k.T3 - 3 - q), which=2),
    9: _claim(0, "1.1", lambda k: k.T3 * (k.T3 - 3 - k.ratio31)),
    10: _claim("4.9", 5, lambda k: (k.th3_th1 - k.T9 + 4 * k.T6) / k.T3),
    11: _claim("4.5", "7.7", lambda k, q: k.T6 * (k.c_lnt[3] - k.c_T3[3] - q.log()), which=2),
    12: _claim("4.5", "5.7", lambda k: k.T6 * (k.c_lnt[3] - k.c_T3[3] - k.ratio31.log())),
    13: _claim("2.9", "3.1", lambda k: k.T6 * (k.c_lnt[9] - k.c_T3[4] - k.th3_th1.log())),
    14: _claim("25.9", "26.6", lambda k, q: k.T12 * (
        q.log() - k.c_T3[1] - k.c_T6 - k.c_T9), which=3),
    15: _claim("2.9", "3.1", lambda k: k.T3 * (k.c_lnt[6] - (k.T_th1 / k.th2_T).log())),
    16: _claim("-0.1", "0.1", lambda k: k.T6 * (
        k.c_lnt[6] - k.c_T3[2] - (k.th2 / k.abs_th1).log())),
}

T_ONLY_KAPPAS = tuple(j for j, claim in KAPPA_CLAIMS.items() if claim.which is None)
# the envelope kappas of each interval I_which
_ENVELOPE_KAPPAS = {which: tuple(j for j, claim in KAPPA_CLAIMS.items() if claim.which == which)
                    for which in (1, 2, 3)}


def kappa_t_only(j: int, t: int, roots: RootTriple) -> CertifiedReal:
    """Enclosure of kappa_j for the indices fixed by t alone, obtained
    by inverting the defining series identity."""
    if j not in T_ONLY_KAPPAS:
        raise ValueError("kappa_%d depends on the solution interval" % j)
    return KAPPA_CLAIMS[j].expr(_KappaTerms(t, roots))


def solution_interval(which: int, t: int, y_abs: int = 2) -> Tuple[Fraction, Fraction]:
    """The open interval I_which (1, 2 or 3) that x/y of a type-I/II/III
    solution with the given |y| lies in.  The endpoint 1 - 1/|y|^3 is
    smallest at |y| = 2, so the default is the hull over all |y| >= 2."""
    # each endpoint as one Fraction of integers: 1 - 1/|y|^3 = (c - 1)/c
    c, t5 = y_abs ** 3, t ** 5
    if which == 1:
        return Fraction(-113, 100 * t5), Fraction(1 - c, c * t5)
    if which == 2:
        return Fraction(c * t5 * t + c - 1, c * t5), Fraction(100 * t5 * t + 113, 100 * t5)
    if which == 3:
        a, t8 = t ** 4 - 2 * t, t ** 8
        return Fraction(100 * a * t8 - 113, 100 * t8), Fraction(c * a * t8 - c + 1, c * t8)
    raise ValueError(which)


def _ratio_hull(which: int, k: _KappaTerms) -> CertifiedReal:
    """The hull of the ratio through which r in I_which enters its kappas
    at the two endpoints of I_which.  It is a Moebius map of r with its
    pole at theta2 (I_1, I_3) or theta1 (I_2), so continuous and monotone
    on an interval without the pole: once the root enclosure puts the pole
    outside the closed interval, the ratio's image of I_which lies in the
    hull.  Raises IndeterminateSignError when the enclosure meets it."""
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


def kappa_envelope(j: int, t: int, roots: RootTriple) -> CertifiedReal:
    """Enclosure of the solution-dependent kappa_j over all of I_which: its
    expression evaluated once on `_ratio_hull`, which holds the ratio at
    every point of I_which (`log` raises unless it is positive).  The ratio
    occurs once in the expression, and every operation on it is monotone,
    directed rounding included: so (single use, Moore 1966) the result has
    the bits of the hull of the expression at the two endpoint ratios."""
    if j not in KAPPA_CLAIMS or j in T_ONLY_KAPPAS:
        raise ValueError("kappa_%d is determined by t alone" % j)
    k = _KappaTerms(t, roots)
    claim = KAPPA_CLAIMS[j]
    return claim.expr(k, _ratio_hull(claim.which, k))


class KappaRow(NamedTuple):
    j: int
    enclosure: CertifiedReal
    target: Tuple[Fraction, Fraction]
    passed: bool


@dataclass(frozen=True)
class KappaReport:
    t: int
    rows: Tuple[KappaRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


def verify_kappas(t: int, precision: Optional[int] = None) -> KappaReport:
    """All sixteen kappa enclosures checked against the claimed target
    intervals.  Each enclosure is compared with its open target's ends
    exactly (`endpoint_cmp`): a row passes when the enclosure lies
    strictly inside the target, and fails when it lies outside it (so no
    value it holds meets the claim); an enclosure that holds both a target
    end and a point of the target decides neither and raises
    IndeterminateSignError naming j, t and the end.  An enclosure that
    cannot be formed at this precision (roots not separated, a ratio's
    pole not certified outside its interval, a division or logarithm of
    an enclosure that touches zero) raises IndeterminateSignError or
    PrecisionInsufficientError.

    Each row has the bits `kappa_t_only` or `kappa_envelope` gives on
    the same RootTriple; one `_KappaTerms` serves all sixteen, and each
    kappa of one interval is evaluated once, on its shared `_ratio_hull`."""
    k = _KappaTerms(t, isolate_roots(t, precision))
    encs = {j: KAPPA_CLAIMS[j].expr(k) for j in T_ONLY_KAPPAS}
    for which, js in _ENVELOPE_KAPPAS.items():
        q = _ratio_hull(which, k)
        for j in js:
            encs[j] = KAPPA_CLAIMS[j].expr(k, q)
    rows = []
    for j, claim in KAPPA_CLAIMS.items():
        enc, target = encs[j], claim.target
        (a, b), (lo, hi) = enc._ival, target
        # the target's ends as integer pairs, read from its one stored copy
        lo_num, lo_den, hi_num, hi_den = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        above_lo = endpoint_cmp(a, lo_num, lo_den) > 0
        passed = above_lo and endpoint_cmp(b, hi_num, hi_den) < 0
        # neither inside the open target nor outside it: it holds an end
        if not passed and endpoint_cmp(b, lo_num, lo_den) > 0 and endpoint_cmp(a, hi_num, hi_den) < 0:
            raise IndeterminateSignError(
                "kappa_%d's enclosure [%.6g, %.6g] at t=%d holds its target's end %g"
                " (%d bits)" % (j, enc.lower, enc.upper, t, target[above_lo], k.prec))
        rows.append(KappaRow(j, enc, target, passed))
    return KappaReport(t, tuple(rows))
