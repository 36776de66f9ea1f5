"""Certified real arithmetic on integer endpoints.

Every analytic quantity in the engine (roots, logarithms, linear forms,
reduction ratios) flows through :class:`CertifiedReal`, an enclosure
[lower, upper] whose endpoints are dyadic numbers m * 2^e held as integer
pairs (m, e).  Each operation computes the exact result of its endpoints
(or, for division and the logarithm, enough of it) and rounds every
endpoint on its own side to the working precision: the lower endpoint
toward -inf, the upper toward +inf.  The precision is explicit in every
call, so no global state is read or written, and the exact endpoints are
accessible as :class:`fractions.Fraction` values.  Operations never
guess: whenever an enclosure straddles a forbidden region the operation
raises and the caller escalates precision.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple, Union

from .errors import IndeterminateSignError, PrecisionInsufficientError

Rational = Union[int, Fraction]
# an endpoint (m, e) stands for m * 2^e
Endpoint = Tuple[int, int]

_ZERO: Endpoint = (0, 0)
_ONE: Endpoint = (1, 0)


def reduction_precision(Q: int) -> int:
    """Working bits for Baker-Davenport work at denominator bound Q:
    ~40 guard digits beyond Q^2."""
    digits10 = len(str(Q))
    return math.ceil(3.33 * (2 * digits10 + 40))


# -- endpoints --------------------------------------------------------------
# An endpoint (m, e) is the dyadic number m * 2^e.  Results of arithmetic
# keep whatever trailing zero bits their mantissa has, so two endpoints
# are equal when their values are (`_cmp`), not their pairs;
# `_normal` gives the odd-mantissa form where one is needed.
#
# Every kernel rounds inline, in its own frame: an exact result m * 2^e
# with more than prec significant bits drops its drop = bits(m) - prec
# low bits, as m >> drop toward -inf (a lower endpoint) and as
# -((-m) >> drop) toward +inf (an upper one), and adds drop to e.

def _normal(x: Endpoint) -> Endpoint:
    """x with an odd mantissa, or (0, 0)."""
    m, e = x
    if not m:
        return _ZERO
    zeros = (m & -m).bit_length() - 1
    return m >> zeros, e + zeros


def _ratio(x: Endpoint) -> Tuple[int, int]:
    """x as an integer pair (num, den), den > 0 a power of two."""
    m, e = x
    return (m << e, 1) if e >= 0 else (m, 1 << -e)


def _fraction(x: Endpoint) -> Fraction:
    return Fraction(*_ratio(x))


def _float(x: Endpoint) -> float:
    """float(_fraction(x)) without the Fraction's gcd: that float is the
    true quotient of its numerator and denominator, and an int true
    division is correctly rounded whatever common factor they share."""
    m, e = x
    return float(m << e) if e >= 0 else m / (1 << -e)


def _cmp(x: Endpoint, y: Endpoint) -> int:
    """The sign (-1, 0 or 1) of x - y."""
    (m, e), (n, f) = x, y
    d = (m << (e - f)) - n if e >= f else m - (n << (f - e))
    return (d > 0) - (d < 0)


def _quotient_side(num: int, den: int, prec: int, upper: bool) -> Endpoint:
    """The upper (or lower) endpoint of the rational num/den at prec
    bits, for a reduced pair (den > 0, gcd(num, den) = 1), computed as
    the interval quotient of the two integers' enclosures, each rounded
    outward to prec bits.  The upper endpoint of the quotient of
    [N_lo, N_hi] / [D_lo, D_hi] is N_hi / D_lo for num > 0 and
    N_hi / D_hi for num < 0, rounded up; the lower one is N_lo / D_hi
    or N_lo / D_lo, rounded down.  The mantissa is odd.

    The quotient n / d of the rounded integers is formed as in
    `_div_ival`: n is scaled so that the integer quotient has at least
    prec + 1 bits, and its floor (or ceiling) then rounds to the floor
    (or ceiling) of n / d."""
    e = f = 0
    drop = num.bit_length() - prec
    if drop > 0:
        num, e = (-((-num) >> drop) if upper else num >> drop), drop
    drop = den.bit_length() - prec
    if drop > 0:
        den, f = (-((-den) >> drop) if (num < 0) == upper else den >> drop), drop
    shift = prec + den.bit_length() - num.bit_length() + 1
    if shift < 0:
        shift = 0
    num <<= shift
    q, e = (-(-num // den) if upper else num // den), e - f - shift
    drop = q.bit_length() - prec
    if drop > 0:
        q, e = (-((-q) >> drop) if upper else q >> drop), e + drop
    if not q:
        return _ZERO
    zeros = (q & -q).bit_length() - 1
    return q >> zeros, e + zeros


def _rational_ival(r: Rational, prec: int) -> Tuple[Endpoint, Endpoint]:
    """The enclosure of r at prec bits; an integer of at most prec bits
    is its own two endpoints, with an odd mantissa."""
    num, den = r.numerator, r.denominator
    if den == 1 and num.bit_length() <= prec:
        if not num:
            return _ZERO, _ZERO
        zeros = (num & -num).bit_length() - 1
        x = num >> zeros, zeros
        return x, x
    return _quotient_side(num, den, prec, False), _quotient_side(num, den, prec, True)


# -- the logarithm ------------------------------------------------------------
#
# ln x for a dyadic x = m 2^e > 0 is first bracketed in fixed point: an
# integer pair L <= 2^w ln x <= H.  Write x = 2^E y with y in [1, 2); let
# c1 = j/2^R be the nearest point to y on the grid 2^-R (j = 2^(R+1) is
# taken as E + 1 and j = 2^R), and c2 = i/2^S the nearest point to y/c1 on
# the grid 2^-S.  Then, with c = c1 c2,
#     ln x = E ln 2 + ln c1 + ln c2 + 2 atanh(z),   z = (y - c)/(y + c).
# |y - c1| <= 2^-(R+1) and |y/c1 - c2| <= 2^-(S+1), so |y - c| <=
# c1 2^-(S+1) while y + c > c1: |z| < 2^-(S+1).  ln 2 = 2 atanh(1/3) and
# the table values ln(j/2^R) and ln(i/2^S) = 2 atanh((i - 2^S)/(i + 2^S))
# (arguments at most 1/3) come from the same series (`_atanh_fixed`).
# Near 1 (E = 0, c = 1) only the atanh term is left, so the bracket has
# the relative precision of z.
#
# Ziv's rounding test (Ziv 1991) turns the bracket into an endpoint: L and
# H are rounded to prec bits in the endpoint's direction, and the result
# stands when the two agree, since rounding is monotone.  Otherwise w
# grows by 64 bits and the bracket is recomputed.  ln x is irrational for
# every dyadic x != 1, so it lies on no rounding boundary and the loop
# ends; x = 1 returns 0 before it.  A table value is kept at the largest
# w it was asked for, rounded up to a multiple of 64.

_R, _S = 8, 16
_GRID, _FINE = 1 << _R, 1 << _S
_CONST_GUARD = 32
# (j, bits) -> (W, C): ln(j/2^bits) at the largest W asked for (`_ln_dyadic`)
_LN: Dict[Tuple[int, int], Tuple[int, int]] = {}


def _atanh_fixed(num: int, den: int, w: int) -> Tuple[int, int]:
    """(S, err) with S <= 2^w atanh(z) < S + err for z = num/den in
    [0, 1/3], by the series sum z^(2i+1)/(2i+1) summed in two streams:
    the terms z^(4i+1)/(4i+1) and z^2 times z^(4i+1)/(4i+3).

    Every product and quotient is floored.  Z = floor(2^w z) falls short
    of 2^w z by less than 1; Q = floor(Z^2 / 2^w) of 2^w z^2 by less than
    1 + 2z < 2; Q2 = floor(Q^2 / 2^w) of 2^w z^4 by less than
    1 + 4z^2 < 2.  The powers P_0 = Z, P_i = floor(P_(i-1) Q2 / 2^w)
    stand for t_i = 2^w z^(4i+1), and 0 <= t_i - P_i < e_i with e_0 = 1
    and e_i <= z^4 e_(i-1) + 2z + 1 < 2 (P_(i-1) <= t_0 = 2^w z bounds
    P_(i-1) (z^4 - Q2/2^w)).  The loop adds floor(P_i/(4i+1)) to S0 and
    floor(P_i/(4i+3)) to S1 for i = 0..n, where P_n = 0 ends it.  S0 is
    short by less than 1 + 1.4 n plus a tail below 0.03 (t_i for i > n
    is at most t_n z^(4(i-n)), t_n < 2), and S1 by less than
    4/3 + 1.3 n + 0.03.  S = S0 + floor(S1 Q / 2^w), and the odd part is
    short by less than z^2 (S1's shortfall) + S1 * 2/2^w + 1, where
    S1 <= 2^w z/3 * 81/80.  So 0 <= 2^w atanh(z) - S < 2.4 + 1.6 n,
    below 2n + 4."""
    z = (num << w) // den
    q = (z * z) >> w
    q2 = (q * q) >> w
    s0 = p = z
    s1 = z // 3
    k = 1
    while p:
        p = (p * q2) >> w
        k += 4
        s0 += p // k
        s1 += p // (k + 2)
    return s0 + ((s1 * q) >> w), (k - 1) // 2 + 4


def _twice_atanh(num: int, den: int, w: int) -> Tuple[int, int]:
    """(L, H) with L <= 2^w * 2 atanh(num/den) <= H, |num|/den <= 1/3."""
    s, err = _atanh_fixed(abs(num), den, w)
    s, err = 2 * s, 2 * err
    return (s, s + err) if num >= 0 else (-s - err, -s)


def _ln_dyadic(j: int, bits: int, w: int) -> int:
    """C with C <= 2^w ln(j/2^bits) < C + 2, for j/2^bits in [1/2, 2]:
    the bracket of `_twice_atanh` at _CONST_GUARD more bits, whose width
    is far below 2^_CONST_GUARD, floored to w bits.  Each value is kept
    at W, the largest w asked for rounded up to a multiple of 64, so that
    a few sizes serve every w, and shifted down for a smaller w:
    C_W >> d, with C_W = 2^d (C_W >> d) + r and r < 2^d, keeps
    C <= 2^w v < (C_W + 2)/2^d <= C + 1 + 1/2^d.  The rounding test
    accepts only the one correct rounding, so which W served a bracket
    does not show in any endpoint."""
    W, c = _LN.get((j, bits), (-1, 0))
    if W < w:
        one = 1 << bits
        W = -(-w // 64) * 64
        c = _twice_atanh(j - one, j + one, W + _CONST_GUARD)[0] >> _CONST_GUARD
        _LN[j, bits] = W, c
    return c >> (W - w)


def _log_ival(a: Endpoint, b: Endpoint, prec: int) -> Tuple[Endpoint, Endpoint]:
    """[ln a rounded down, ln b rounded up] at prec bits, 0 < a <= b.

    a = m 2^e is reduced to a = 2^E (j/2^R) (i/2^S) e^(2 atanh z) with
    z = N/D, D > 0.  The bracket starts at w = prec plus the fraction
    bits it needs before its rounding can succeed, and no more, since
    each spare bit lengthens the series: -log2 |ln a| (when c1 != 1 or
    E != 0, y stays 2^-(R+1) from the grid points 1 and 2 and
    |ln a| > 2^-(R+2); when only c2 != 1, |ln a| > 2^-(S+2); else
    |ln a| >= |2z| >= 2^(bits(N) - bits(D))), the 2|E| ulps of error of
    E ln 2, and 20 for the series and the rounding test.

    ln b is ln a + 2 atanh((b - a)/(b + a)) when that argument is below
    2^-(S+1): for the narrow enclosures the engine forms, its series
    then needs a term or two, and b is not reduced: the rounding test
    makes ln b correctly rounded whatever w served it.  Further apart,
    each end is the log of its own point enclosure."""
    (m, e), (n, f) = a, b
    zeros = (m & -m).bit_length() - 1
    m, e = m >> zeros, e + zeros
    zeros = (n & -n).bit_length() - 1
    n, f = n >> zeros, f + zeros
    g = e if e < f else f
    gap, total = (n << (f - g)) - (m << (e - g)), (n << (f - g)) + (m << (e - g))
    if gap and total.bit_length() - gap.bit_length() <= _S + 1:
        return _log_ival(a, a, prec)[0], _log_ival(b, b, prec)[1]
    lo = _ZERO if m == 1 and not e else None
    hi = _ZERO if n == 1 and not f else None
    k = m.bit_length() - 1                        # y = m / 2^k
    j = (((m << (_R + 1)) >> k) + 1) >> 1         # round(y 2^R)
    if j == _GRID << 1:
        j, k = _GRID, k + 1
    i = ((((m << (_R + _S + 1)) >> k) // j) + 1) >> 1   # round(y 2^(R+S) / j)
    top, c = m << (_R + _S), (j * i) << k
    E, N, D = e + k, top - c, top + c
    if E or j != _GRID:
        mag = _R + 2
    else:
        mag = _S + 2 if i != _FINE else D.bit_length() - N.bit_length()
    w = prec + mag + E.bit_length() + 20
    while lo is None or hi is None:
        # L <= 2^w ln a <= H
        L, H = _twice_atanh(N, D, w)
        if j != _GRID:
            c = _ln_dyadic(j, _R, w)
            L, H = L + c, H + c + 2
        if i != _FINE:
            c = _ln_dyadic(i, _S, w)
            L, H = L + c, H + c + 2
        if E:
            c = E * _ln_dyadic(2, 0, w)
            L, H = (L + c, H + c + 2 * E) if E > 0 else (L + c + 2 * E, H + c)
        if lo is None:
            # the rounding test on L and H, each rounded down
            u, du = L, L.bit_length() - prec
            if du > 0:
                u >>= du
            else:
                du = 0
            v, dv = H, H.bit_length() - prec
            if dv > 0:
                v >>= dv
            else:
                dv = 0
            if (u << (du - dv) == v) if du >= dv else (u == v << (dv - du)):
                lo = u, du - w
        if hi is None:
            if gap:
                c0, c1 = _twice_atanh(gap, total, w)
                L, H = L + c0, H + c1
            # the rounding test on the bracket of ln b, each end rounded up
            u, du = L, L.bit_length() - prec
            if du > 0:
                u = -((-u) >> du)
            else:
                du = 0
            v, dv = H, H.bit_length() - prec
            if dv > 0:
                v = -((-v) >> dv)
            else:
                dv = 0
            if (u << (du - dv) == v) if du >= dv else (u == v << (dv - du)):
                hi = u, du - w
        w += 64
    return lo, hi


class CertifiedReal:
    """An enclosure [lower, upper] of an exact real number, tagged with
    the working precision (bits) used to produce it.  `ival` is the pair
    of endpoints ((m_lo, e_lo), (m_hi, e_hi))."""

    __slots__ = ("_ival", "precision")

    def __init__(self, ival: Tuple[Endpoint, Endpoint], precision: int):
        self._ival = ival
        self.precision = precision

    # -- construction -------------------------------------------------

    @classmethod
    def from_rational(cls, r: Rational, precision: int) -> "CertifiedReal":
        return cls(_rational_ival(r, precision), precision)

    @classmethod
    def from_endpoints(cls, lo: Rational, hi: Rational, precision: int) -> "CertifiedReal":
        if not lo <= hi:
            raise ValueError("lower endpoint exceeds upper endpoint")
        return cls((_quotient_side(lo.numerator, lo.denominator, precision, False),
                    _quotient_side(hi.numerator, hi.denominator, precision, True)), precision)

    @classmethod
    def hull(cls, values: Iterable["CertifiedReal"]) -> "CertifiedReal":
        vals = list(values)
        if not vals:
            raise ValueError("empty hull")
        lo, hi = vals[0]._ival
        for v in vals[1:]:
            a, b = v._ival
            if _cmp(a, lo) < 0:
                lo = a
            if _cmp(hi, b) < 0:
                hi = b
        return cls((lo, hi), max(v.precision for v in vals))

    # -- exact endpoint access ----------------------------------------

    @property
    def lower(self) -> Fraction:
        return _fraction(self._ival[0])

    @property
    def upper(self) -> Fraction:
        return _fraction(self._ival[1])

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

    def contains_zero(self) -> bool:
        return self._ival[0][0] <= 0 <= self._ival[1][0]

    def is_positive(self) -> bool:
        return self._ival[0][0] > 0

    # -- arithmetic ---------------------------------------------------
    # Each operation runs at the larger of the operands' precisions; an
    # int or Fraction operand is enclosed at the precision of the
    # CertifiedReal it meets.  Both endpoints are formed exactly and
    # rounded inline in the operation's frame, the lower toward -inf and
    # the upper toward +inf.

    def __add__(self, other):
        p = self.precision
        if other.__class__ is CertifiedReal:
            (c, g), (d, h) = other._ival
            if other.precision > p:
                p = other.precision
        else:
            (c, g), (d, h) = _rational_ival(other, p)
        (a, e), (b, f) = self._ival
        if e >= g:
            a, e = (a << (e - g)) + c, g
        else:
            a += c << (g - e)
        drop = a.bit_length() - p
        if drop > 0:
            a, e = a >> drop, e + drop
        if f >= h:
            b, f = (b << (f - h)) + d, h
        else:
            b += d << (h - f)
        drop = b.bit_length() - p
        if drop > 0:
            b, f = -((-b) >> drop), f + drop
        return CertifiedReal(((a, e), (b, f)), p)

    __radd__ = __add__

    def __sub__(self, other):
        p = self.precision
        if other.__class__ is CertifiedReal:
            (c, g), (d, h) = other._ival
            if other.precision > p:
                p = other.precision
        else:
            (c, g), (d, h) = _rational_ival(other, p)
        (a, e), (b, f) = self._ival
        # [a - d, b - c]
        if e >= h:
            a, e = (a << (e - h)) - d, h
        else:
            a -= d << (h - e)
        drop = a.bit_length() - p
        if drop > 0:
            a, e = a >> drop, e + drop
        if f >= g:
            b, f = (b << (f - g)) - c, g
        else:
            b -= c << (g - f)
        drop = b.bit_length() - p
        if drop > 0:
            b, f = -((-b) >> drop), f + drop
        return CertifiedReal(((a, e), (b, f)), p)

    def __rsub__(self, other):
        p = self.precision
        (c, g), (d, h) = _rational_ival(other, p)
        (a, e), (b, f) = self._ival
        # [c - b, d - a]
        if g >= f:
            c, g = (c << (g - f)) - b, f
        else:
            c -= b << (f - g)
        drop = c.bit_length() - p
        if drop > 0:
            c, g = c >> drop, g + drop
        if h >= e:
            d, h = (d << (h - e)) - a, e
        else:
            d -= a << (e - h)
        drop = d.bit_length() - p
        if drop > 0:
            d, h = -((-d) >> drop), h + drop
        return CertifiedReal(((c, g), (d, h)), p)

    def __mul__(self, other):
        p = self.precision
        if other.__class__ is CertifiedReal:
            y = other._ival
            if other.precision > p:
                p = other.precision
        else:
            y = _rational_ival(other, p)
        return CertifiedReal(_mul_ival(self._ival, y, p), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self.precision
        if other.__class__ is CertifiedReal:
            y = other._ival
            if other.precision > p:
                p = other.precision
        else:
            y = _rational_ival(other, p)
        if y[0][0] <= 0 <= y[1][0]:
            raise IndeterminateSignError("division by enclosure containing zero")
        return CertifiedReal(_div_ival(self._ival, y, p), p)

    def __rtruediv__(self, other):
        if self.contains_zero():
            raise IndeterminateSignError("division by enclosure containing zero")
        p = self.precision
        return CertifiedReal(_div_ival(_rational_ival(other, p), self._ival, p), p)

    def __neg__(self):
        (a, e), (b, f) = self._ival
        p = self.precision
        # [-b, -a]
        b = -b
        drop = b.bit_length() - p
        if drop > 0:
            b, f = b >> drop, f + drop
        a = -a
        drop = a.bit_length() - p
        if drop > 0:
            a, e = -((-a) >> drop), e + drop
        return CertifiedReal(((b, f), (a, e)), p)

    def __abs__(self):
        (a, e), (b, f) = self._ival
        p = self.precision
        if a >= 0:
            pass
        elif b <= 0:
            a, e, b, f = -b, f, -a, e
        else:
            # [0, max(-a, b)]
            if _cmp((-a, e), (b, f)) >= 0:
                b, f = -a, e
            a, e = 0, 0
        drop = a.bit_length() - p
        if drop > 0:
            a, e = a >> drop, e + drop
        drop = b.bit_length() - p
        if drop > 0:
            b, f = -((-b) >> drop), f + drop
        return CertifiedReal(((a, e), (b, f)), p)

    def __pow__(self, k: int):
        """The exact powers of the endpoints, each rounded once."""
        if not isinstance(k, int) or k < 0:
            raise TypeError("only non-negative integer powers are supported")
        p = self.precision
        if k == 0:
            return CertifiedReal((_ONE, _ONE), p)
        (a, e), (b, f) = self._ival
        if k & 1 or a >= 0:
            a, e, b, f = a ** k, e * k, b ** k, f * k
        elif b <= 0:
            a, e, b, f = b ** k, f * k, a ** k, e * k
        else:
            # an even power of an enclosure of 0: [0, max(a^k, b^k)]
            if _cmp((-a, e), (b, f)) >= 0:
                b, f = a, e
            a, e, b, f = 0, 0, b ** k, f * k
        drop = a.bit_length() - p
        if drop > 0:
            a, e = a >> drop, e + drop
        drop = b.bit_length() - p
        if drop > 0:
            b, f = -((-b) >> drop), f + drop
        return CertifiedReal(((a, e), (b, f)), p)

    def log(self) -> "CertifiedReal":
        if not self.is_positive():
            raise IndeterminateSignError(
                "log requires an enclosure strictly above zero, got [%s, %s]"
                % (self.lower, self.upper))
        return CertifiedReal(_log_ival(*self._ival, self.precision), self.precision)

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


def _mul_ival(x, y, prec: int):
    """[a, b] * [c, d]: the least and greatest endpoint products, picked
    by the operands' signs, each formed exactly and rounded outward."""
    ((a, e), (b, f)), ((c, g), (d, h)) = x, y
    if a >= 0:
        if c >= 0:
            lo, le, hi, he = a * c, e + g, b * d, f + h
        elif d <= 0:
            lo, le, hi, he = b * c, f + g, a * d, e + h
        else:
            lo, le, hi, he = b * c, f + g, b * d, f + h
    elif b <= 0:
        if c >= 0:
            lo, le, hi, he = a * d, e + h, b * c, f + g
        elif d <= 0:
            lo, le, hi, he = b * d, f + h, a * c, e + g
        else:
            lo, le, hi, he = a * d, e + h, a * c, e + g
    elif c >= 0:
        lo, le, hi, he = a * d, e + h, b * d, f + h
    elif d <= 0:
        lo, le, hi, he = b * c, f + g, a * c, e + g
    else:
        # both straddle zero: the products are exact, so compare them
        lo, le, hi, he = a * d, e + h, a * c, e + g
        if _cmp((lo, le), (b * c, f + g)) >= 0:
            lo, le = b * c, f + g
        if _cmp((hi, he), (b * d, f + h)) < 0:
            hi, he = b * d, f + h
    drop = lo.bit_length() - prec
    if drop > 0:
        lo, le = lo >> drop, le + drop
    drop = hi.bit_length() - prec
    if drop > 0:
        hi, he = -((-hi) >> drop), he + drop
    return (lo, le), (hi, he)


def _div_ival(x, y, prec: int):
    """[a, b] / [c, d] for a divisor that excludes zero: for c > 0, the
    numerator's sign picks the endpoint quotients; for d < 0, x/y is
    (-x)/(-y).  Each quotient n / d scales n so that the integer
    quotient has at least prec + 1 bits; the floor (or ceiling) of that
    quotient then rounds to the floor (or ceiling) of n / d."""
    ((a, e), (b, f)), ((c, g), (d, h)) = x, y
    if c < 0:
        a, e, b, f, c, g, d, h = -b, f, -a, e, -d, h, -c, g
    # lo = n0 / d0, hi = n1 / d1
    if a >= 0:
        n0, e0, d0, f0, n1, e1, d1, f1 = a, e, d, h, b, f, c, g
    elif b <= 0:
        n0, e0, d0, f0, n1, e1, d1, f1 = a, e, c, g, b, f, d, h
    else:
        n0, e0, d0, f0, n1, e1, d1, f1 = a, e, c, g, b, f, c, g
    shift = prec + d0.bit_length() - n0.bit_length() + 1
    if shift < 0:
        shift = 0
    lo, le = (n0 << shift) // d0, e0 - f0 - shift
    drop = lo.bit_length() - prec
    if drop > 0:
        lo, le = lo >> drop, le + drop
    shift = prec + d1.bit_length() - n1.bit_length() + 1
    if shift < 0:
        shift = 0
    hi, he = -(-(n1 << shift) // d1), e1 - f1 - shift
    drop = hi.bit_length() - prec
    if drop > 0:
        hi, he = -((-hi) >> drop), he + drop
    return (lo, le), (hi, he)


def certified_below(a, b, undecided: str) -> bool:
    """a < b for every value of the enclosures a and b (True), a >= b for
    every value (False); overlapping enclosures raise
    IndeterminateSignError(undecided).  A rational side is enclosed at
    the other side's precision, and the endpoints are compared exactly."""
    if not isinstance(a, CertifiedReal):
        a = CertifiedReal.from_rational(a, b.precision)
    elif not isinstance(b, CertifiedReal):
        b = CertifiedReal.from_rational(b, a.precision)
    if _cmp(a._ival[1], b._ival[0]) < 0:
        return True
    if _cmp(a._ival[0], b._ival[1]) >= 0:
        return False
    raise IndeterminateSignError(undecided)


def endpoint_cmp(x: Endpoint, num: int, den: int = 1) -> int:
    """The sign (-1, 0 or 1) of x - num/den for an endpoint x and den > 0:
    the sign of m * 2^e * den - num, computed in integers."""
    m, e = x
    d = (m << e) * den - num if e >= 0 else m * den - (num << -e)
    return (d > 0) - (d < 0)


def _decimal(r: Fraction, digits: int) -> str:
    """r as d.ddd...e+X with `digits` digits after the point, truncated
    toward zero: the exact quotient rounded down to digits + 1
    significant digits, with an exponent range that holds any r."""
    if r == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = digits + 1, decimal.ROUND_DOWN
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        return "{:.{}e}".format(decimal.Decimal(r.numerator) / r.denominator, digits)


class Convergent(NamedTuple):
    p: int
    q: int


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
        yield Convergent(p, q)
        index += 1
        pm2, qm2, pm1, qm1 = pm1, qm1, p, q
        if ra == 0 and rc == 0:
            return
        if ra == 0 or rc == 0:
            raise PrecisionInsufficientError(
                "endpoint expansion terminated at denominator %d <= Q=%d" % (qm1, Q))
        # [a/b, c/d] - fa inverts to [d/rc, b/ra]
        a, b, c, d = d, rc, b, ra


def continued_fraction_convergents(x: CertifiedReal, Q: int) -> List[Convergent]:
    """The convergents p/q (q <= Q) of the exact real enclosed by x: those
    every real in the enclosure shares (`lockstep_expansion`), which for
    a zero-radius input are the exact Euclidean ones.  Raises
    PrecisionInsufficientError if the enclosure does not pin the
    expansion down up to Q."""
    a, b, k = dyadic_numerators(x._ival)
    return list(lockstep_expansion(a, 1 << k, b, 1 << k, Q))


def dyadic_numerators(ival) -> Tuple[int, int, int]:
    """The endpoints of the raw interval `ival` over one denominator
    2^k, as (a, b, k) with ival = [a/2^k, b/2^k] and k >= 1."""
    (a, e), (b, f) = ival
    k = max(1, -e, -f)
    return a << (e + k), b << (f + k), k
