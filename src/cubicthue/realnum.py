"""Certified midpoint-radius real arithmetic.

Every analytic quantity in the engine (roots, logarithms, linear forms,
reduction ratios) flows through :class:`CertifiedReal`, an enclosure
held as a raw mpmath interval (a pair of mpf endpoints).  Each operation
calls mpmath's outward-rounded interval kernels (``mpmath.libmp.mpi_*``)
at an explicit precision, so no global precision state is read or
written, and the exact dyadic endpoints are accessible as
:class:`fractions.Fraction` values.  Operations never guess: whenever an
enclosure straddles a forbidden region the operation raises and the
caller escalates precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, List, NamedTuple, Tuple, Union

from mpmath.libmp import (fzero, mpf_lt, mpf_sign, mpi_abs, mpi_add, mpi_div,
                          mpi_log, mpi_mul, mpi_neg, mpi_pow_int, mpi_sub,
                          to_rational)

from .errors import IndeterminateSignError, PrecisionInsufficientError

Rational = Union[int, Fraction]


def reduction_precision(Q: int) -> int:
    """Working bits for Baker-Davenport work at denominator bound Q:
    ~40 guard digits beyond Q^2."""
    digits10 = len(str(Q))
    return math.ceil(3.33 * (2 * digits10 + 40))


def _mpf_to_fraction(x) -> Fraction:
    p, q = to_rational(x)
    return Fraction(int(p), int(q))


def _rounded(man: int, exp: int, prec: int, up: bool, inexact: bool = False):
    """(m, e) with m * 2^e the prec-bit rounding of man * 2^exp (man > 0)
    toward zero, or away from it when `up`; `inexact` marks a nonzero
    remainder below man's last bit.  m is odd, as in an mpf."""
    drop = man.bit_length() - prec
    if drop > 0:
        inexact = inexact or man & ((1 << drop) - 1) != 0
        man >>= drop
        exp += drop
    if up and inexact:
        man += 1
    zeros = (man & -man).bit_length() - 1
    return man >> zeros, exp + zeros


def _rational_side(r: Rational, prec: int, upper: bool):
    """The upper (or lower) endpoint of mpmath's iv.mpf(num) / iv.mpf(den)
    for r at prec bits (`_quotient_side` of its numerator and
    denominator)."""
    return _quotient_side(r.numerator, r.denominator, prec, upper)


def _quotient_side(num: int, den: int, prec: int, upper: bool):
    """The upper (or lower) endpoint of mpmath's iv.mpf(num) / iv.mpf(den)
    at prec bits, computed in integers, for a reduced pair (den > 0,
    gcd(num, den) = 1), so that it is the endpoint of the rational
    num/den.  iv.mpf rounds each integer outward to prec bits, and the
    interval division then takes, for the side that points away from
    zero (the upper side of a positive quotient, the lower of a negative
    one), the numerator's endpoint rounded away from zero over the
    denominator's rounded toward it, and the quotient rounded away from
    zero; for the side toward zero, all three the other way.  The
    quotient carries prec + 1 or more bits and a sticky remainder flag
    into its rounding, so it is the directed rounding of the exact
    quotient, as mpf_div's is."""
    if not num:
        return fzero
    away = (num > 0) == upper
    man, exp = _rounded(abs(num), 0, prec, away)
    if den != 1:
        d, d_exp = _rounded(den, 0, prec, not away)
        exp -= d_exp
        if d != 1:
            # man << shift has at least prec + 1 more bits than d
            shift = prec + d.bit_length() - man.bit_length() + 1
            man, rem = divmod(man << shift, d)
            man, exp = _rounded(man, exp - shift, prec, away, rem != 0)
    return (int(num < 0), man, exp, man.bit_length())


def _rational_mpi(r: Rational, prec: int):
    """The enclosure iv.mpf(num) / iv.mpf(den) gives r at prec bits; an
    integer of at most prec bits is its own two endpoints."""
    lo = _rational_side(r, prec, False)
    if r.denominator == 1 and abs(r.numerator).bit_length() <= prec:
        return lo, lo
    return lo, _rational_side(r, prec, True)


def _straddles_zero(ival) -> bool:
    return mpf_sign(ival[0]) <= 0 <= mpf_sign(ival[1])


class CertifiedReal:
    """An enclosure [lower, upper] of an exact real number, tagged with
    the working precision (bits) used to produce it.  `ival` is a raw
    mpmath interval, a pair of mpf endpoints (``iv.mpf(...)._mpi_``)."""

    __slots__ = ("_mpi", "precision")

    def __init__(self, ival: tuple, precision: int):
        self._mpi = ival
        self.precision = precision

    # -- construction -------------------------------------------------

    @classmethod
    def from_rational(cls, r: Rational, precision: int) -> "CertifiedReal":
        return cls(_rational_mpi(r, precision), precision)

    @classmethod
    def from_endpoints(cls, lo: Rational, hi: Rational, precision: int) -> "CertifiedReal":
        if not lo <= hi:
            raise ValueError("lower endpoint exceeds upper endpoint")
        return cls((_rational_side(lo, precision, False),
                    _rational_side(hi, precision, True)), precision)

    @classmethod
    def hull(cls, values: Iterable["CertifiedReal"]) -> "CertifiedReal":
        vals = list(values)
        if not vals:
            raise ValueError("empty hull")
        lo, hi = vals[0]._mpi
        for v in vals[1:]:
            a, b = v._mpi
            if mpf_lt(a, lo):
                lo = a
            if mpf_lt(hi, b):
                hi = b
        return cls((lo, hi), max(v.precision for v in vals))

    # -- exact endpoint access ----------------------------------------

    @property
    def lower(self) -> Fraction:
        return _mpf_to_fraction(self._mpi[0])

    @property
    def upper(self) -> Fraction:
        return _mpf_to_fraction(self._mpi[1])

    @property
    def midpoint(self) -> Fraction:
        lo, hi = self.lower, self.upper
        return (lo + hi) / 2

    @property
    def radius(self) -> Fraction:
        lo, hi = self.lower, self.upper
        return (hi - lo) / 2

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    # -- predicates ---------------------------------------------------

    def contains(self, r: Rational) -> bool:
        return self.lower <= Fraction(r) <= self.upper

    def contains_zero(self) -> bool:
        return _straddles_zero(self._mpi)

    def is_positive(self) -> bool:
        return mpf_sign(self._mpi[0]) > 0

    # -- arithmetic ---------------------------------------------------
    # Each operation runs one libmp interval kernel at the larger of the
    # operands' precisions; an int or Fraction operand is enclosed at
    # the precision of the CertifiedReal it meets.

    def _operand(self, other) -> Tuple[tuple, int]:
        if isinstance(other, (int, Fraction)):
            return _rational_mpi(other, self.precision), self.precision
        return other._mpi, max(self.precision, other.precision)

    def __add__(self, other):
        b, prec = self._operand(other)
        return CertifiedReal(mpi_add(self._mpi, b, prec), prec)

    __radd__ = __add__

    def __sub__(self, other):
        b, prec = self._operand(other)
        return CertifiedReal(mpi_sub(self._mpi, b, prec), prec)

    def __rsub__(self, other):
        b, prec = self._operand(other)
        return CertifiedReal(mpi_sub(b, self._mpi, prec), prec)

    def __mul__(self, other):
        b, prec = self._operand(other)
        return CertifiedReal(mpi_mul(self._mpi, b, prec), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b, prec = self._operand(other)
        if _straddles_zero(b):
            raise IndeterminateSignError("division by enclosure containing zero")
        return CertifiedReal(mpi_div(self._mpi, b, prec), prec)

    def __rtruediv__(self, other):
        if self.contains_zero():
            raise IndeterminateSignError("division by enclosure containing zero")
        b, prec = self._operand(other)
        return CertifiedReal(mpi_div(b, self._mpi, prec), prec)

    def __neg__(self):
        return CertifiedReal(mpi_neg(self._mpi, self.precision), self.precision)

    def __abs__(self):
        return CertifiedReal(mpi_abs(self._mpi, self.precision), self.precision)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise TypeError("only non-negative integer powers are supported")
        return CertifiedReal(mpi_pow_int(self._mpi, k, self.precision), self.precision)

    def log(self) -> "CertifiedReal":
        if not self.is_positive():
            raise IndeterminateSignError(
                "log requires an enclosure strictly above zero, got [%s, %s]"
                % (self.lower, self.upper))
        return CertifiedReal(mpi_log(self._mpi, self.precision), self.precision)

    # -- serialization ------------------------------------------------

    def __float__(self) -> float:
        return float(self.midpoint)

    def as_decimal_string(self, digits: int = 30) -> str:
        mid = self.midpoint
        rad = self.radius
        return "%s ± %s @ %d bits" % (
            _decimal(mid, digits), _decimal(rad, 3), self.precision)

    def __repr__(self):
        return "CertifiedReal(%s)" % self.as_decimal_string(20)


def certified_below(a, b, undecided: str) -> bool:
    """a < b for every value of the enclosures a and b (True), a >= b for
    every value (False); overlapping enclosures raise
    IndeterminateSignError(undecided).  A rational side is enclosed at
    the other side's precision, and the endpoints are compared exactly."""
    if not isinstance(a, CertifiedReal):
        a = CertifiedReal.from_rational(a, b.precision)
    elif not isinstance(b, CertifiedReal):
        b = CertifiedReal.from_rational(b, a.precision)
    if mpf_lt(a._mpi[1], b._mpi[0]):
        return True
    if not mpf_lt(a._mpi[0], b._mpi[1]):
        return False
    raise IndeterminateSignError(undecided)


def endpoint_cmp(x, num: int, den: int = 1) -> int:
    """The sign (-1, 0 or 1) of x - num/den for an mpf endpoint x and
    den > 0: the sign of man * 2^exp * den - num, computed in integers.
    A NaN or infinite endpoint raises ValueError instead of reading as
    0."""
    sign, man, exp, _ = x
    if not man and x != fzero:
        raise ValueError("endpoint %r is not finite" % (x,))
    if sign:
        man = -man
    d = (man << exp) * den - num if exp >= 0 else man * den - (num << -exp)
    return (d > 0) - (d < 0)


def _decimal(r: Fraction, digits: int) -> str:
    if r == 0:
        return "0"
    sign = "-" if r < 0 else ""
    r = abs(r)
    e = math.floor(math.log10(float(r))) if float(r) > 0 else -400
    scaled = r / Fraction(10) ** e
    # one leading digit plus `digits` following
    q = int(scaled * 10 ** digits)
    s = str(q)
    return "%s%s.%se%+d" % (sign, s[0], s[1:] or "0", e)


class Convergent(NamedTuple):
    p: int
    q: int
    index: int


def _convergents_of_fraction(x: Fraction, Q: int) -> List[Convergent]:
    """All continued-fraction convergents of an exact rational with q <= Q."""
    out: List[Convergent] = []
    pm1, qm1, pm2, qm2 = 1, 0, 0, 1
    num, den = x.numerator, x.denominator
    idx = 0
    while den != 0:
        a = num // den
        p = a * pm1 + pm2
        q = a * qm1 + qm2
        if q > Q:
            break
        out.append(Convergent(p, q, idx))
        idx += 1
        pm2, qm2, pm1, qm1 = pm1, qm1, p, q
        num, den = den, num - a * den
    return out


def lockstep_expansion(a: int, b: int, c: int, d: int, Q: int) -> Iterator[Convergent]:
    """The convergents p/q with q <= Q that every real in [a/b, c/d]
    shares (a/b <= c/d, b > 0, d > 0), produced one at a time.

    Both endpoints are expanded in lockstep, each as an unreduced integer
    pair (num, den) with den > 0.  The reals in the interval share every
    partial quotient on which the endpoints agree: the reals whose
    expansion starts with given quotients form an interval.  The
    expansion stops once the next shared convergent has q > Q, or when
    both endpoint expansions terminate at the same step: the endpoints
    are then equal, and the convergents are all of theirs.  When the
    endpoints disagree on a partial quotient, every real in the interval
    has a quotient there at least the lower endpoint's, f, so its next
    convergent has q >= f * q_(n-1) + q_(n-2): past Q, the expansion
    stops there too.  Otherwise, or when one endpoint's expansion
    terminates alone, after the convergent it ends on, it raises
    PrecisionInsufficientError: the expansion of the reals inside is then
    not determined by the interval.  A consumer that stops at a
    convergent never meets what the interval does past it.
    """
    pm1, qm1, pm2, qm2 = 1, 0, 0, 1
    index = 0
    while True:
        fa, ra = divmod(a, b)
        fb, rc = divmod(c, d)
        # the shared q, or where the endpoints disagree the least next q of
        # any real inside: the lower endpoint's quotient is the smaller one
        q = fa * qm1 + qm2
        if q > Q:
            return
        if fa != fb:
            raise PrecisionInsufficientError(
                "endpoints disagree on partial quotient %d (denominator %d <= Q=%d)"
                % (index, qm1, Q))
        p = fa * pm1 + pm2
        yield Convergent(p, q, index)
        index += 1
        pm2, qm2, pm1, qm1 = pm1, qm1, p, q
        if ra == 0 and rc == 0:
            return
        if ra == 0 or rc == 0:
            raise PrecisionInsufficientError(
                "endpoint expansion terminated at denominator %d <= Q=%d" % (qm1, Q))
        # [a/b, c/d] - fa inverts to [d/rc, b/ra]
        a, b, c, d = d, rc, b, ra


def shared_convergents(x: CertifiedReal, Q: int) -> Iterator[Convergent]:
    """The convergents p/q (q <= Q) of the exact real enclosed by x, in
    order and one at a time: those every real in the enclosure shares
    (`lockstep_expansion`), which for a zero-radius input are the exact
    Euclidean ones.  An enclosure too wide to pin the expansion down up
    to Q raises PrecisionInsufficientError when the expansion reaches
    the point where it parts.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    (a, b), (c, d) = to_rational(x._mpi[0]), to_rational(x._mpi[1])
    return lockstep_expansion(a, b, c, d, Q)


def continued_fraction_convergents(x: CertifiedReal, Q: int) -> List[Convergent]:
    """Every convergent of `shared_convergents(x, Q)`; raises if the
    enclosure does not pin down the expansion up to Q."""
    return list(shared_convergents(x, Q))


def dyadic_numerators(ival) -> Tuple[int, int, int]:
    """The endpoints of the raw interval `ival` over one denominator
    2^k, as (a, b, k) with ival = [a/2^k, b/2^k] and k >= 1."""
    (a, da), (b, db) = to_rational(ival[0]), to_rational(ival[1])
    k = max(da.bit_length(), db.bit_length(), 2) - 1
    return a << (k + 1 - da.bit_length()), b << (k + 1 - db.bit_length()), k


def integer_distance_num(a: int, b: int, k: int) -> Tuple[int, int, int]:
    """Exact bounds on the distance from every real in [a/2^k, b/2^k]
    (a <= b, k >= 1, so 1/2 is 2^(k-1)) to its nearest integer, as
    (lo, hi, k) for the bounds lo/2^k and hi/2^k, with
    0 <= lo <= hi <= 2^(k-1).

    A shift splits each endpoint into its floor and its remainder.  The
    bounds are the endpoints' own distances, except that an integer in
    the interval pulls the lower to 0 and a half-integer the upper to
    1/2."""
    one, half = 1 << k, 1 << (k - 1)
    if b - a >= one:
        return 0, half, k
    fa, ra = a >> k, a & (one - 1)
    fb, rb = b >> k, b & (one - 1)
    lo, hi = sorted((min(ra, one - ra), min(rb, one - rb)))
    if fa < fb or ra == 0:
        lo = 0
    if fa == fb:
        has_half = ra <= half <= rb
    else:
        # fb = fa + 1: the half-integer of a's unit is below b, and the
        # one of b's unit above a
        has_half = ra <= half or half <= rb
    if has_half:
        hi = half
    return lo, hi, k
