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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

from mpmath.libmp import (from_int, mpf_lt, mpf_sign, mpi_abs, mpi_add, mpi_div,
                          mpi_log, mpi_mul, mpi_neg, mpi_pow_int, mpi_sub,
                          round_ceiling, round_floor, to_rational)

from .errors import IndeterminateSignError, PrecisionInsufficientError

Rational = Union[int, Fraction]

DEFAULT_PRECISION = 256


def reduction_precision(Q: int) -> int:
    """Working bits for Baker-Davenport work at denominator bound Q:
    ~40 guard digits beyond Q^2."""
    digits10 = len(str(Q))
    return math.ceil(3.33 * (2 * digits10 + 40))


def _mpf_to_fraction(x) -> Fraction:
    p, q = to_rational(x)
    return Fraction(int(p), int(q))


def _rational_mpi(r: Rational, prec: int):
    """The enclosure iv.mpf(num) / iv.mpf(den) gives r at prec bits:
    both integers rounded outward, then divided (a division by 1 is
    exact and skipped)."""
    num, den = r.numerator, r.denominator
    x = (from_int(num, prec, round_floor), from_int(num, prec, round_ceiling))
    if den == 1:
        return x
    return mpi_div(x, (from_int(den, prec, round_floor),
                       from_int(den, prec, round_ceiling)), prec)


def _straddles_zero(ival) -> bool:
    return mpf_sign(ival[0]) <= 0 <= mpf_sign(ival[1])


class CertifiedReal:
    """An enclosure [lower, upper] of an exact real number, tagged with
    the working precision (bits) used to produce it.  `ival` is a raw
    mpmath interval (a pair of mpf endpoints) or an ``iv.mpf``."""

    __slots__ = ("_mpi", "precision")

    def __init__(self, ival, precision: int):
        self._mpi = ival if isinstance(ival, tuple) else ival._mpi_
        self.precision = precision

    # -- construction -------------------------------------------------

    @classmethod
    def from_rational(cls, r: Rational, precision: int = DEFAULT_PRECISION) -> "CertifiedReal":
        return cls(_rational_mpi(r, precision), precision)

    @classmethod
    def from_endpoints(cls, lo: Rational, hi: Rational,
                       precision: int = DEFAULT_PRECISION) -> "CertifiedReal":
        if not lo <= hi:
            raise ValueError("lower endpoint exceeds upper endpoint")
        return cls((_rational_mpi(lo, precision)[0], _rational_mpi(hi, precision)[1]),
                   precision)

    @classmethod
    def subdivide(cls, lo: Rational, hi: Rational, pieces: int,
                  precision: int = DEFAULT_PRECISION) -> List["CertifiedReal"]:
        """[lo, hi] cut into `pieces` equal parts enclosed as by
        from_endpoints, each cut point rounded once for both its parts."""
        if not lo <= hi:
            raise ValueError("lower endpoint exceeds upper endpoint")
        step = Fraction(hi - lo) / pieces
        cuts = [_rational_mpi(lo + i * step, precision) for i in range(pieces + 1)]
        return [cls((a[0], b[1]), precision) for a, b in zip(cuts, cuts[1:])]

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

    def is_negative(self) -> bool:
        return mpf_sign(self._mpi[1]) < 0

    def sign(self) -> int:
        if self.is_positive():
            return 1
        if self.is_negative():
            return -1
        if self.lower == self.upper == 0:
            return 0
        raise IndeterminateSignError(
            "enclosure [%s, %s] straddles zero" % (self.lower, self.upper))

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
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k < 0:
            if self.contains_zero():
                raise IndeterminateSignError("negative power of enclosure containing zero")
            return 1 / self.__pow__(-k)
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


# -- module-level operation surface ------------------------------------


def enclose_rational(r: Rational, precision: int = DEFAULT_PRECISION) -> CertifiedReal:
    return CertifiedReal.from_rational(r, precision)


@dataclass(frozen=True)
class Convergent:
    p: int
    q: int
    index: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


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


def continued_fraction_convergents(x: CertifiedReal, Q: int) -> List[Convergent]:
    """Convergents p/q (q <= Q) of the exact real enclosed by x.

    With a zero-radius input the expansion is the exact Euclidean one.
    Otherwise both endpoints are expanded in lockstep, each as an
    unreduced integer pair (num, den) with den > 0; a disagreement in
    any partial quotient before the denominator exceeds Q means the
    enclosure is too wide to pin down the expansion.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    (a, b), (c, d) = to_rational(x._mpi[0]), to_rational(x._mpi[1])
    if a * d == c * b:
        return _convergents_of_fraction(Fraction(a, b), Q)
    out: List[Convergent] = []
    pm1, qm1, pm2, qm2 = 1, 0, 0, 1
    idx = 0
    while True:
        fa, ra = divmod(a, b)
        fb, rc = divmod(c, d)
        if fa != fb:
            raise PrecisionInsufficientError(
                "endpoints disagree on partial quotient %d (denominator %d <= Q=%d)"
                % (idx, qm1, Q))
        p = fa * pm1 + pm2
        q = fa * qm1 + qm2
        if q > Q:
            return out
        out.append(Convergent(p, q, idx))
        idx += 1
        pm2, qm2, pm1, qm1 = pm1, qm1, p, q
        if ra == 0 or rc == 0:
            # an endpoint terminated; the true expansion beyond this
            # point is not determined by the enclosure
            raise PrecisionInsufficientError(
                "endpoint expansion terminated at denominator %d <= Q=%d" % (qm1, Q))
        # [a/b, c/d] - fa inverts to [d/rc, b/ra]
        a, b, c, d = d, rc, b, ra


def _dist_to_nearest_int(r: Fraction) -> Fraction:
    fl = r.numerator // r.denominator
    return min(r - fl, fl + 1 - r)


def nearest_integer_distance(x: CertifiedReal) -> Tuple[Fraction, Fraction]:
    """Exact bounds (lo, hi) on the distance from the enclosed real to
    the nearest integer, with 0 <= lo <= hi <= 1/2."""
    lo, hi = x.lower, x.upper
    if hi - lo >= 1:
        return Fraction(0), Fraction(1, 2)
    dlo, dhi = _dist_to_nearest_int(lo), _dist_to_nearest_int(hi)
    out_lo = min(dlo, dhi)
    out_hi = max(dlo, dhi)
    # an integer inside the interval pulls the minimum to 0
    if lo.numerator // lo.denominator < hi.numerator // hi.denominator or lo.denominator == 1:
        out_lo = Fraction(0)
    # a half-integer inside pulls the maximum to 1/2
    s, t = lo - Fraction(1, 2), hi - Fraction(1, 2)
    if math.ceil(s) <= math.floor(t):
        out_hi = Fraction(1, 2)
    return out_lo, out_hi
