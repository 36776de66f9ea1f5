import decimal
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import (finf, fnan, fninf, from_man_exp, fzero, mpf_log, mpf_pos,
                          round_ceiling, round_floor, to_rational)

from cubicthue import bounds, exponents, forms, realnum, reduction, roots
from cubicthue.errors import IndeterminateSignError, PrecisionInsufficientError
from cubicthue.realnum import (CertifiedReal, Convergent, continued_fraction_convergents,
                               _float, _fraction, _quotient_side, _rational_ival,
                               dyadic_numerators, endpoint_cmp,
                               lockstep_expansion, reduction_precision)
from mpmath_oracle import endpoint_of, ival_of
from oracles import contains, convergents_of_fraction, decimal_by_fractions, rational_side


def _rand_fraction(rng, digits=9):
    num = rng.randrange(-10 ** digits, 10 ** digits)
    den = rng.randrange(1, 10 ** digits)
    return Fraction(num, den)


def test_endpoint_float_is_the_fraction_float():
    """`_float` rounds an endpoint as float(Fraction) does: on exact ties
    (an odd 54-bit mantissa), on mantissas with factors of two, at both
    signs, subnormal and above 2^53; and raises where it overflows."""
    rng = random.Random(20140213)
    cases = [(0, 0), (1, 0), (-3, 5), (1, -1075), (3, -1076), (-(1 << 60) + 1, 0)]
    for _ in range(300):
        m = rng.randrange(1 << 53, 1 << 54) | 1           # halfway between two floats
        cases.append((m * rng.choice((1, -1)), rng.randrange(-1200, 40)))
        m = rng.randrange(1, 1 << rng.randrange(1, 400)) << rng.randrange(0, 8)
        cases.append((m * rng.choice((1, -1)), rng.randrange(-1200, 200)))
    for x in cases:
        expected = float(_fraction(x))
        got = _float(x)
        assert got == expected and math.copysign(1, got) == math.copysign(1, expected), x
    with pytest.raises(OverflowError):
        _float((1, 1024))


def test_enclose_rational_one_third():
    x = CertifiedReal.from_rational(Fraction(1, 3), 64)
    assert contains(x, Fraction(1, 3))
    assert x.radius <= Fraction(1, 2 ** 62)


def test_enclose_zero_exact():
    x = CertifiedReal.from_rational(0, 64)
    assert x.radius == 0
    assert x.lower == x.upper == 0


def test_enclose_tiny_rational_narrow():
    x = CertifiedReal.from_rational(Fraction(1, 10 ** 120), 512)
    assert contains(x, Fraction(1, 10 ** 120))
    assert x.width < Fraction(1, 10 ** 150)


def test_log_of_one_contains_zero():
    one = CertifiedReal.from_rational(1, 128)
    assert contains(one.log(), 0)


def test_log_of_e_contains_one():
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = 128
        e_iv = mpmath.iv.exp(mpmath.iv.mpf(1))
        e = CertifiedReal(ival_of(e_iv._mpi_), 128)
    finally:
        mpmath.iv.prec = old
    assert contains(e.log(), 1)


def test_add_sub_roundtrip_contains():
    rng = random.Random(11)
    for _ in range(500):
        a, b = _rand_fraction(rng), _rand_fraction(rng)
        x = CertifiedReal.from_rational(a, 64)
        y = CertifiedReal.from_rational(b, 64)
        assert contains((x + y) - y, a)


def test_inclusion_isotonicity_per_operator():
    rng = random.Random(12)
    for _ in range(2500):
        a, b = _rand_fraction(rng), _rand_fraction(rng)
        x = CertifiedReal.from_rational(a, 64)
        y = CertifiedReal.from_rational(b, 64)
        assert contains(x + y, a + b)
        assert contains(x - y, a - b)
        assert contains(x * y, a * b)
        if b != 0 and not y.contains_zero():
            assert contains(x / y, a / b)


def test_power_isotonicity():
    rng = random.Random(13)
    for _ in range(500):
        a = _rand_fraction(rng, 4)
        x = CertifiedReal.from_rational(a, 128)
        for k in (0, 1, 2, 3, 7):
            assert contains(x ** k, a ** k)
    with pytest.raises(TypeError):
        CertifiedReal.from_rational(2, 64) ** -1


def test_log_against_high_precision_reference():
    rng = random.Random(14)
    for _ in range(100):
        a = abs(_rand_fraction(rng, 6)) + 1
        enc = CertifiedReal.from_rational(a, 64).log()
        with mpmath.workdps(60):
            ref = mpmath.log(mpmath.mpf(a.numerator) / mpmath.mpf(a.denominator))
            lo = mpmath.mpf(enc.lower.numerator) / mpmath.mpf(enc.lower.denominator)
            hi = mpmath.mpf(enc.upper.numerator) / mpmath.mpf(enc.upper.denominator)
            assert lo <= ref <= hi


def test_precision_monotonicity():
    def expr(prec):
        x = CertifiedReal.from_rational(Fraction(1, 3), prec)
        y = CertifiedReal.from_rational(Fraction(1, 7), prec)
        z = CertifiedReal.from_rational(Fraction(22, 5), prec)
        return ((x + y) * z).log() / (z - y)

    radii = [expr(p).radius for p in (64, 128, 256, 512)]
    for narrow, wide in zip(radii[1:], radii):
        assert narrow <= wide


def test_division_by_straddling_zero_raises():
    x = CertifiedReal.from_rational(1, 64)
    y = CertifiedReal.from_endpoints(Fraction(-1, 10), Fraction(1, 10), 64)
    with pytest.raises(IndeterminateSignError):
        x / y


def test_log_of_straddling_raises():
    y = CertifiedReal.from_endpoints(Fraction(-1, 10), Fraction(1, 10), 64)
    with pytest.raises(IndeterminateSignError):
        y.log()


def test_hull():
    a = CertifiedReal.from_rational(Fraction(1, 3), 64)
    b = CertifiedReal.from_rational(Fraction(2, 3), 64)
    h = CertifiedReal.hull([a, b])
    assert contains(h, Fraction(1, 3)) and contains(h, Fraction(2, 3))


def test_reduction_precision_policy():
    # ceil(3.33 * (2*61 + 40)) at Q = 10^60
    assert reduction_precision(10 ** 60) == 540
    assert reduction_precision(10 ** 10) > 100


def test_reduction_precision_is_the_float_rule_in_integers(monkeypatch):
    """reduction_precision's integer ceiling of 3.33 bits a digit equals
    ceil(3.33 * (2 d + 40)), the float formula it replaced, for every
    digit count d of Q from 1 to 200000.  It reads d as len(str(Q)); so
    that a d-digit Q need not be formed (nor converted past Python's
    4300-digit str limit), `str` is the identity in realnum here, and a
    range of d items stands for Q."""
    for Q in (1, 9, 10, 10 ** 30 - 1, 10 ** 30, 10 ** 60):
        assert reduction_precision(Q) == math.ceil(3.33 * (2 * len(str(Q)) + 40))
    monkeypatch.setattr(realnum, "str", lambda Q: Q, raising=False)
    for d in range(1, 200001):
        assert reduction_precision(range(d)) == math.ceil(3.33 * (2 * d + 40)), d


def test_convergents_terminating_rational():
    x = CertifiedReal.from_rational(Fraction(45, 16), 128)
    convs = continued_fraction_convergents(x, 100)
    assert [(c.p, c.q) for c in convs] == [(2, 1), (3, 1), (14, 5), (45, 16)]


def test_convergents_golden_ratio_fibonacci():
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = 256
        phi = (1 + mpmath.iv.sqrt(5)) / 2
        x = CertifiedReal(ival_of(phi._mpi_), 256)
    finally:
        mpmath.iv.prec = old
    convs = continued_fraction_convergents(x, 100)
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    expected = [(p, q) for p, q in zip(fib[1:], fib[:-1]) if q <= 100]
    assert [(c.p, c.q) for c in convs] == expected


def test_convergents_big_rational_matches_euclid_oracle():
    rng = random.Random(15)
    for _ in range(25):
        num = rng.randrange(10 ** 199, 10 ** 200)
        den = rng.randrange(10 ** 199, 10 ** 200)
        x = Fraction(num, den)
        # widened enclosure exercises the lockstep endpoint expansion
        eps = Fraction(1, 10 ** 60)
        enc = CertifiedReal.from_endpoints(x - eps, x + eps, 512)
        got = continued_fraction_convergents(enc, 10 ** 9)
        want = convergents_of_fraction(x, 10 ** 9)
        assert [(c.p, c.q) for c in got] == [(c.p, c.q) for c in want]
        for c in got:
            assert abs(x * c.q - c.p) < Fraction(1, c.q)


def test_convergent_denominators_increase_and_coprime():
    import math
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = 256
        x = CertifiedReal(ival_of(mpmath.iv.sqrt(2)._mpi_), 256)
    finally:
        mpmath.iv.prec = old
    convs = continued_fraction_convergents(x, 10 ** 4)
    for prev, cur in zip(convs, convs[1:]):
        assert cur.q >= prev.q
    for c in convs:
        assert math.gcd(c.p, c.q) == 1


def test_convergents_wide_enclosure_raises():
    enc = CertifiedReal.from_endpoints(Fraction(1, 3), Fraction(2, 3), 64)
    with pytest.raises(PrecisionInsufficientError):
        continued_fraction_convergents(enc, 10 ** 6)


# the reduction's norm bound q*||q*x|| is an integer-distance lower bound
# on dyadic numerators; at q = 1 it is the distance itself
def _distance_lower(ival, q=1):
    """(n, k): n/2^k bounds below q times the distance from q*x to its
    nearest integer, over every x in the raw interval `ival`."""
    num = dyadic_numerators(ival)
    return reduction._norm_lower(num, q), num[2]


def test_nearest_integer_distance_values():
    def distance(r):
        return _distance_lower(CertifiedReal.from_rational(r, 128)._ival)

    n, k = distance(Fraction(37, 10))
    assert 10 * n <= 3 << k and 10 ** 9 * ((3 << k) - 10 * n) < 10 << k
    n, k = distance(Fraction(5, 2))
    assert n == 1 << (k - 1)
    assert distance(12)[0] == 0


def test_nearest_integer_distance_wide_input():
    wide = CertifiedReal.from_endpoints(0, 10, 64)
    assert _distance_lower(wide._ival)[0] == 0


def test_nearest_integer_distance_straddles_integer():
    enc = CertifiedReal.from_endpoints(Fraction(19, 10), Fraction(21, 10), 64)
    assert _distance_lower(enc._ival)[0] == 0


def _dist_to_nearest_int(r):
    fl = r.numerator // r.denominator
    return min(r - fl, fl + 1 - r)


def _reference_distance(lo, hi):
    """The least distance to the nearest integer over [lo, hi], in
    Fraction arithmetic: 0 if an integer lies in it, else the nearer
    endpoint's, as the distance is concave between two integers."""
    if math.ceil(lo) <= hi:
        return Fraction(0)
    return min(_dist_to_nearest_int(lo), _dist_to_nearest_int(hi))


def _dyadic_interval(rng):
    """A raw interval with dyadic endpoints of assorted signs, scales and
    widths; a and b are numerators over 2^k."""
    k = rng.choice((0, 1, 2, 5, 30, 64, 200, 540))
    unit = 1 << k
    base = rng.randrange(-50, 50) * unit
    shape = rng.randrange(7)
    if shape == 0:                      # an integer endpoint
        a = base
    elif shape == 1:                    # a half-integer endpoint
        a = base + unit // 2
    elif shape == 2:                    # zero
        a = 0
    else:
        a = base + rng.randrange(unit)
    width = rng.choice((0, 1, rng.randrange(unit + 1), unit - 1, unit, unit + 1,
                        rng.randrange(10 * unit + 1)))
    b = a + width
    if rng.random() < 0.5:
        a, b = -b, -a
    # the two endpoints may come over different powers of two
    ka, kb = k + rng.choice((0, 0, 3)), k + rng.choice((0, 0, 7))
    return (from_man_exp(a << (ka - k), -ka), from_man_exp(b << (kb - k), -kb))


def test_integer_distance_matches_the_fraction_reference():
    rng = random.Random(19)
    kinds = set()
    for _ in range(12000):
        ival = _dyadic_interval(rng)
        q = rng.choice((1, 1, rng.randrange(2, 1000)))
        lo, hi = (q * Fraction(*to_rational(e)) for e in ival)
        n, k = _distance_lower(ival_of(ival), q)
        assert 0 <= n <= q << (k - 1)
        assert Fraction(n, 1 << k) == q * _reference_distance(lo, hi)
        kinds.add("negative" if lo < 0 else "nonnegative")
        kinds.add("zero" if 0 in (lo, hi) else "nonzero")
        kinds.add("wide" if hi - lo >= 1 else "narrow")
        kinds.add("integer endpoint" if lo.denominator == 1 or hi.denominator == 1
                  else "inner endpoints")
        if hi - lo < 1:
            # the least integer above lo
            kinds.add("integer inside" if lo.numerator // lo.denominator + 1 < hi
                      else "no integer inside")
    assert kinds == {"negative", "nonnegative", "zero", "nonzero", "wide", "narrow",
                     "integer endpoint", "inner endpoints", "integer inside",
                     "no integer inside"}


def _iv_quotient(r, prec):
    """The reference enclosure of r at prec bits: mpmath's
    iv.mpf(num) / iv.mpf(den), each integer rounded outward and then
    divided by mpmath's interval division."""
    return _at(prec, lambda: ival_of(
        (mpmath.iv.mpf(r.numerator) / mpmath.iv.mpf(r.denominator))._mpi_))


def test_one_sided_endpoints_match_the_two_sided_enclosure():
    rng = random.Random(20)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 1), Fraction(-7, 3)]
    for _ in range(300):
        digits = rng.choice((3, 20, 200, 700))
        den = rng.choice((1, rng.randrange(1, 10 ** digits)))
        values.append(Fraction(rng.randrange(-10 ** digits, 10 ** digits), den))
    for prec in (64, 65, 100, 128, 540, 720, 1080, 2160):
        for r in values:
            both = _iv_quotient(r, prec)
            assert (rational_side(r, prec, False), rational_side(r, prec, True)) == both
            assert _rational_ival(r, prec) == both
            assert CertifiedReal.from_endpoints(r, r, prec)._ival == both
    for lo, hi in zip(values, values[1:]):
        lo, hi = min(lo, hi), max(lo, hi)
        assert CertifiedReal.from_endpoints(lo, hi, 200)._ival == \
            (_iv_quotient(lo, 200)[0], _iv_quotient(hi, 200)[1])


def test_integer_rounding_matches_mpmath_bit_for_bit():
    """The integer directed rounding of a rational gives the very
    endpoints of iv.mpf(num) / iv.mpf(den), for numerators and
    denominators of fewer, as many and more bits than the precision, and
    so does its (num, den) form on the reduced pair, as isolate_roots
    calls it: there denominators are t^5 or t^8 times a power of two."""
    rng = random.Random(21)
    kinds = set()
    for _ in range(6000):
        prec = rng.choice((53, 64, 65, 128, 540, 1080, 2160, rng.randrange(53, 2161)))

        def bits():
            return rng.choice((1, 2, prec - 1, prec, prec + 1, 2 * prec,
                               rng.randrange(1, 3 * prec)))

        num = rng.getrandbits(bits())
        den = rng.choice((1, 1 << bits(), (1 << bits()) + 1, rng.getrandbits(bits()) | 1,
                          (rng.getrandbits(bits()) | 1) << rng.randrange(1, prec)))
        if rng.random() < 0.05:
            num = rng.choice((0, 1, (1 << prec) - 1, 1 << prec, (1 << prec) + 1))
        r = Fraction(num * rng.choice((1, -1)), den)
        want = _iv_quotient(r, prec)
        assert _rational_ival(r, prec) == want, (r, prec)
        assert tuple(_quotient_side(r.numerator, r.denominator, prec, upper)
                     for upper in (False, True)) == want, (r, prec)
        kinds.add("negative" if r < 0 else "positive" if r > 0 else "zero")
        kinds.add("integer" if r.denominator == 1 else "fraction")
        for name, n in (("numerator", r.numerator), ("denominator", r.denominator)):
            kinds.add("%s %s precision" % (name, "above" if abs(n).bit_length() > prec
                                           else "within"))
        d = r.denominator
        if d & 1 == 0 and d & (d - 1):
            kinds.add("denominator odd times a power of two")
    assert kinds == {"negative", "positive", "zero", "integer", "fraction",
                     "numerator above precision", "numerator within precision",
                     "denominator above precision", "denominator within precision",
                     "denominator odd times a power of two"}


def test_decimal_serialization_mentions_precision():
    s = CertifiedReal.from_rational(Fraction(1, 3), 96).as_decimal_string()
    assert "96 bits" in s and "±" in s


def test_decimal_exponent_is_exact_beyond_the_float_range():
    assert realnum._decimal(Fraction(1, 10 ** 900), 3) == "1.000e-900"
    assert realnum._decimal(Fraction(10 ** 400), 3) == "1.000e+400"
    assert realnum._decimal(Fraction(10 ** 400 - 1), 3) == "9.999e+399"
    assert realnum._decimal(-Fraction(10 ** 900 + 1, 10 ** 1800), 2) == "-1.00e-900"
    rng = random.Random(24)
    for _ in range(300):
        r = (Fraction(rng.randrange(1, 10 ** 30), rng.randrange(1, 10 ** 30))
             * Fraction(10) ** rng.randrange(-1000, 1000))
        with decimal.localcontext(decimal.Context(prec=80)):
            want = (decimal.Decimal(r.numerator) / r.denominator).adjusted()
        assert realnum._decimal(r, 5).endswith("e%+d" % want)
    # a radius below the smallest double, as `roots --precision 3000` shows
    radius = CertifiedReal.from_rational(Fraction(1, 3), 3000).as_decimal_string().split("± ")[1]
    assert re.fullmatch(r"[1-9]\.\d{3}e-90\d @ 3000 bits", radius), radius


def test_decimal_matches_the_fraction_truncation():
    # the digits `roots` prints (40), the repr's (20), the default (30) and
    # a radius's (3), for numerators up to 3000 bits and denominators up
    # to 2^9000, powers of two and ten and their neighbours among them
    rng = random.Random(31)
    for _ in range(200):
        num = rng.getrandbits(rng.choice((1, 8, 64, 400, 3000))) * rng.choice((1, -1))
        den = rng.choice((1 << rng.randrange(9001), 10 ** rng.randrange(2000),
                          rng.getrandbits(rng.choice((8, 300, 9000))) | 1))
        den += rng.choice((0, 0, 1, -1)) if den > 2 else 0
        for r in (Fraction(num, den), Fraction(den, num or 1)):
            for digits in (3, 20, 30, 40):
                assert realnum._decimal(r, digits) == decimal_by_fractions(r, digits), \
                    (r, digits)


# -- CertifiedReal against mpmath.iv ------------------------------------
# CertifiedReal rounds each endpoint as the interval kernels that
# mpmath.iv dispatches to do, at an explicit precision; every endpoint
# must match the same iv expression evaluated with iv.prec set to that
# precision.

def _at(prec, fn):
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = prec
        return fn()
    finally:
        mpmath.iv.prec = old


def _iv_rational(r):
    r = Fraction(r)
    return mpmath.iv.mpf(r.numerator) / mpmath.iv.mpf(r.denominator)


def _iv_endpoints(ref):
    a, b = ref._mpi_
    return Fraction(*to_rational(a)), Fraction(*to_rational(b))


def _assert_same(x, ref):
    assert (x.lower, x.upper) == _iv_endpoints(ref)


def _rand_operand(rng, prec, kind=None):
    """A rational, or a random enclosure with rational endpoints, as a
    (CertifiedReal, iv.mpf) pair; numerators and denominators run to
    200 digits, far wider than the precision.  A `kind` asks for an
    enclosure that straddles zero, one whose endpoints are dyadics of
    a few bits (every sum and product of two fits in the precision), or
    one whose ends are negative numerators over a root bracket's
    denominator t^5 2^w, as theta1's are."""
    if kind == "straddle":
        a = -abs(_rand_fraction(rng, rng.choice((3, 40))))
        b = abs(_rand_fraction(rng, rng.choice((3, 40))))
    elif kind == "dyadic":
        k = rng.randrange(0, 6)
        a = Fraction(rng.randrange(-99, 99), 2 ** k)
        b = a + Fraction(rng.randrange(0, 99), 2 ** rng.randrange(0, 6))
    elif kind == "theta1":
        den = rng.randrange(10, 576242) ** 5 << roots.bracket_bits(prec)
        num = rng.randrange(1, 2 << roots.bracket_bits(prec))
        a, b = Fraction(-num - 2, den), Fraction(-num, den)
    else:
        digits = rng.choice((3, 12, 40, 200))
        a = _rand_fraction(rng, digits)
        if rng.random() < 0.4:
            return CertifiedReal.from_rational(a, prec), _at(prec, lambda: _iv_rational(a))
        b = a + abs(_rand_fraction(rng, rng.choice((3, 12))))
    ref = _at(prec, lambda: mpmath.iv.mpf([_iv_rational(a).a, _iv_rational(b).b]))
    return CertifiedReal.from_endpoints(a, b, prec), ref


def _check_operations(x, X, px, y, Y, py, r):
    """Every operation on the operands x (at px bits) and y (at py), and
    on x and the rational r, against the same iv expression at the
    operation's precision."""
    _assert_same(x, X)
    p = max(px, py)
    _assert_same(x + y, _at(p, lambda: X + Y))
    _assert_same(x - y, _at(p, lambda: X - Y))
    _assert_same(x * y, _at(p, lambda: X * Y))
    if not y.contains_zero():
        _assert_same(x / y, _at(p, lambda: X / Y))
    R = _at(px, lambda: _iv_rational(r))
    _assert_same(x + r, _at(px, lambda: X + R))
    _assert_same(r + x, _at(px, lambda: R + X))
    _assert_same(x - r, _at(px, lambda: X - R))
    _assert_same(r - x, _at(px, lambda: R - X))
    _assert_same(x * r, _at(px, lambda: X * R))
    _assert_same(r * x, _at(px, lambda: R * X))
    if r != 0:
        _assert_same(x / r, _at(px, lambda: X / R))
    if not x.contains_zero():
        _assert_same(r / x, _at(px, lambda: R / X))
    _assert_same(-x, _at(px, lambda: -X))
    _assert_same(abs(x), _at(px, lambda: abs(X)))
    for k in (0, 1, 2, 3, 7):
        ref = _at(px, lambda: X ** k)
        if k < 3 or k * max(e[3] for e in X._mpi_) < 1000:
            _assert_same(x ** k, ref)
        else:
            # mpmath then rounds the partial powers of its
            # square-and-multiply outward; the exact power, rounded
            # once, lies inside its enclosure
            lo, hi = _iv_endpoints(ref)
            assert lo <= (x ** k).lower and (x ** k).upper <= hi
    if x.is_positive():
        _assert_same(x.log(), _at(px, lambda: mpmath.iv.log(X)))
    _assert_same(CertifiedReal.hull([x, y]),
                 mpmath.iv.mpf([min(X.a, Y.a), max(X.b, Y.b)]))
    assert CertifiedReal.hull([x, y]).precision == p


def _kernel_outputs(x, X, px, y, Y, py, carried=False):
    """x - y and x * y with their iv references, whose endpoints keep
    the trailing zeros of a rounded mantissa; `carried` adds
    [2^px - 1, 2^px], formed as a difference whose upper end carried to
    the (px + 1)-bit 2^px, and its negation."""
    p = max(px, py)
    out = [(x - y, _at(p, lambda: X - Y), p), (x * y, _at(p, lambda: X * Y), p)]
    if carried:
        c = CertifiedReal.from_rational((1 << px) - 1, px) - Fraction(-1, 2)
        C = _at(px, lambda: mpmath.iv.mpf((1 << px) - 1) - mpmath.iv.mpf(-0.5))
        out += [(c, C, px), (-c, _at(px, lambda: -C), px)]
    return out


def test_operations_match_mpmath_iv_bit_for_bit():
    rng = random.Random(16)
    precs = (20, 53, 64, 128, 300)
    for n in range(300):
        px, py = rng.choice(precs), rng.choice(precs)
        x, X = _rand_operand(rng, px)
        y, Y = _rand_operand(rng, py)
        r = rng.choice((rng.randrange(-10 ** 30, 10 ** 30), _rand_fraction(rng, 25)))
        _check_operations(x, X, px, y, Y, py, r)
        for z, Z, pz in _kernel_outputs(x, X, px, y, Y, py) if n % 3 == 0 else ():
            _check_operations(z, Z, pz, y, Y, py, r)
    # the engine's working precisions, and the cases the kernels branch
    # on: each operand shape against each, an int and a Fraction on either
    # side of - and /, operands at two precisions
    shapes = (None, "straddle", "dyadic", "theta1")
    engine = (340, 373, 452, 480, 2984)
    seen = set()
    for i in range(128):
        px, py = rng.choice(engine), rng.choice(engine + precs)
        kx, ky = shapes[i % 4], shapes[i // 4 % 4]
        x, X = _rand_operand(rng, px, kx)
        y, Y = _rand_operand(rng, py, ky)
        r = rng.randrange(-10 ** 30, 10 ** 30) if i % 2 else _rand_fraction(rng, 25)
        _check_operations(x, X, px, y, Y, py, r)
        for z, Z, pz in _kernel_outputs(x, X, px, y, Y, py, carried=i < 8):
            _check_operations(z, Z, pz, y, Y, py, r)
            (a, _), (b, _) = z._ival
            if not (a & 1 and b & 1):
                seen.add("unnormalized")
            if b == 1 << pz:
                seen.add("carried")
        seen.add(px)
        if px != py:
            seen.add("two precisions")
        if x.contains_zero() and y.contains_zero():
            seen.add("both straddle zero")
        if not x.contains_zero():
            seen.add("%s / x" % type(r).__name__)
        if kx == ky == "dyadic":
            # endpoints that fit in the precision: the sum is exact
            s = x + y
            assert (s.lower, s.upper) == (x.lower + y.lower, x.upper + y.upper)
        if kx == "theta1":
            assert x.upper < 0
    assert seen == {*engine, "two precisions", "both straddle zero", "int / x", "Fraction / x",
                    "unnormalized", "carried"}


# -- the logarithm against a high-precision oracle --------------------------

def _log_oracle(x, prec):
    """ln of the endpoint x rounded down and up to prec bits, as
    Fractions: mpmath's log at prec + 200 bits, in the same direction,
    rounded again to prec bits.  The prec-bit grid lies on the finer
    one, so this is the rounding of ln x itself unless ln x lies within
    a few ulps at prec + 200 bits of a prec-bit boundary.  The bits of
    x's mantissa come on top: when x - 1 cancels more bits than it
    works with, mpf_log returns x - 1 nudged by an ulp, and for x > 1
    it nudges it the wrong way (ln x < x - 1), so its lower endpoint at
    1 + 2^-353 and 53 bits is 2^-353, above ln x."""
    v = from_man_exp(*x)
    wp = prec + 200 + x[0].bit_length()
    return tuple(Fraction(*to_rational(mpf_pos(mpf_log(v, wp, rnd), prec, rnd)))
                 for rnd in (round_floor, round_ceiling))


def _log_arguments(rng, prec):
    """(kind, endpoint) pairs for the log tests."""
    n = prec + 64
    yield "near 1", ((1 << n) + 1, -n)
    yield "near 1", ((1 << n) - 1, -n)
    yield "near 1", ((1 << 40) + rng.getrandbits(20), -40)
    yield "near 1", ((1 << 40) - rng.getrandbits(20) - 1, -40)
    yield "near 1", ((1 << 20) + 1, -20)
    yield "near 1", ((1 << 20) - 1, -20)
    for k in (1, -1, 2, -3, 64, -64, 1000, -1000):
        yield "power of two", (1, k)
    for one in ((1, 0), (2, -1), (1 << 40, -40)):
        yield "one", one
    yield "exponent 10^4", (rng.getrandbits(prec) | 1, 10 ** 4)
    yield "exponent -10^4", (rng.getrandbits(prec) | 1, -10 ** 4)
    yield "more bits than the precision", (rng.getrandbits(3 * prec) | (1 << 3 * prec), -3 * prec)
    yield "more bits than the precision", (rng.getrandbits(2 * prec) | 1, rng.randrange(-9 * prec, prec))
    for _ in range(6):
        yield "other", (rng.getrandbits(prec) | 1, rng.randrange(-3 * prec, prec))


def test_log_endpoints_are_the_directed_roundings_of_ln():
    rng = random.Random(22)
    kinds = set()
    for prec in (24, 53, 64, 128, 354, 540, 1080):
        for kind, x in _log_arguments(rng, prec):
            kinds.add(kind)
            enc = CertifiedReal((x, x), prec).log()
            assert (enc.lower, enc.upper) == _log_oracle(x, prec), (kind, x, prec)
            if kind == "one":
                assert enc.lower == enc.upper == 0
    assert kinds == {"near 1", "power of two", "one", "exponent 10^4",
                     "exponent -10^4", "more bits than the precision", "other"}


def test_log_of_an_interval_rounds_each_endpoint():
    """The upper endpoint of a narrow enclosure comes from the lower's
    bracket and a short series; a wide one is evaluated on its own.
    Either way each endpoint is its own directed rounding."""
    rng = random.Random(23)
    for prec in (53, 128, 354, 720):
        for _ in range(40):
            a = (rng.getrandbits(prec) | (1 << prec), rng.randrange(-prec - 40, -prec + 40))
            gap = rng.choice((1, rng.getrandbits(prec // 2), rng.getrandbits(prec - 10),
                              rng.getrandbits(prec + 8)))
            b = (a[0] + gap, a[1])
            enc = CertifiedReal((a, b), prec).log()
            assert (enc.lower, enc.upper) == (_log_oracle(a, prec)[0], _log_oracle(b, prec)[1])
        # across 1, with the two logs far apart in magnitude
        n = prec + 300
        a, b = ((1 << n) - (1 << 200), -n), ((1 << n) + 1, -n)
        enc = CertifiedReal((a, b), prec).log()
        assert (enc.lower, enc.upper) == (_log_oracle(a, prec)[0], _log_oracle(b, prec)[1])
        enc = CertifiedReal(((1, 0), b), prec).log()
        assert enc.lower == 0 and enc.upper == _log_oracle(b, prec)[1]


def test_log_table_values_keep_their_bound_when_shifted_down():
    realnum._LN.clear()
    # the first w fills each value; the smaller ones shift it down
    for w in (1024, 64, 448, 1088):
        for j, bits in ((257, 8), (300, 8), (511, 8), (65535, 16), (65600, 16), (2, 0)):
            c = realnum._ln_dyadic(j, bits, w)
            with mpmath.workprec(w + 100):
                v = mpmath.log(mpmath.mpf(j) / 2 ** bits) * mpmath.mpf(2) ** w
            assert c <= v < c + 2, (j, bits, w)


def test_arithmetic_ignores_and_keeps_global_iv_prec():
    def values():
        x = CertifiedReal.from_rational(Fraction(1, 3), 200)
        y = CertifiedReal.from_endpoints(Fraction(1, 7), Fraction(2, 7), 200)
        z = ((x + y) * x - 2 / y) ** 3
        return [z, abs(-z).log(), CertifiedReal.hull([x, y])]

    want = [(v.lower, v.upper) for v in values()]
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = 20
        got = [(v.lower, v.upper) for v in values()]
        assert mpmath.iv.prec == 20
    finally:
        mpmath.iv.prec = old
    assert got == want
    assert all(v.precision == 200 for v in values())


def exact_enclosures() -> dict:
    """The exact endpoints of all sixteen kappa enclosures at t in
    {10, 2000, 2001, 576241, 10^6} and of the exponent-recovery residuals
    at t in {2, 9, 10, 50, 100}, as written to
    tests/data/exact_enclosures.json.  Recovery at t < 10 isolates the
    roots by critical-point splitting, at t >= 10 in the series windows."""
    out = {"kappas": {}, "exponents": {}}
    for t in (10, 2000, 2001, 576241, 10 ** 6):
        rep = roots.verify_kappas(t)
        out["kappas"][str(t)] = [[r.j, str(r.enclosure.lower), str(r.enclosure.upper)]
                                 for r in rep.rows]
    for t in (2, 9, 10, 50, 100):
        rows = []
        for x, y in forms.known_solutions(t).solutions:
            p = exponents.recover_exponents(t, x, y)
            rows.append([x, y, p.delta, p.n, p.m,
                         str(p.residual.lower), str(p.residual.upper)])
        out["exponents"][str(t)] = rows
    return out


def test_exact_enclosures_match_golden():
    # the kappa rows were rewritten when each envelope became the hull of
    # its two endpoint values; the exponent rows date from CertifiedReal
    # wrapping iv.mpf values under a saved and restored global iv.prec
    path = Path(__file__).parent / "data" / "exact_enclosures.json"
    assert exact_enclosures() == json.loads(path.read_text())


def test_kappas_and_recovery_decide_without_fractions(monkeypatch):
    # every verdict on these paths compares endpoints in integers;
    # none converts an endpoint to a Fraction first
    calls = []
    to_fraction = realnum._fraction

    def counting(x):
        calls.append(x)
        return to_fraction(x)

    monkeypatch.setattr(realnum, "_fraction", counting)
    exponents._unit_logs.cache_clear()
    for t in (10, 576241):
        assert roots.verify_kappas(t).all_pass
    for x, y in forms.known_solutions(50).solutions:
        exponents.recover_exponents(50, x, y)
    assert bounds.check_height_bounds(roots.isolate_roots(10)) == (True, True, True)
    assert calls == []
    # the count sees a conversion when one happens
    roots.verify_kappas(10).rows[0].enclosure.lower
    assert len(calls) == 1


# -- exact endpoint comparison ---------------------------------------------

def _oracle_cmp(x, r):
    m, e = x
    d = m * Fraction(2) ** e - r
    return (d > 0) - (d < 0)


def test_endpoint_cmp_matches_fraction_oracle():
    rng = random.Random(41)
    dyadic = [Fraction(0), Fraction(3), Fraction(5), Fraction(8), Fraction(-3, 1024)]
    checked = {-1: 0, 0: 0, 1: 0}
    for _ in range(3000):
        kind = rng.randrange(4)
        if kind == 0:
            # a target that is dyadic, and an endpoint equal to it or beside it
            r = rng.choice(dyadic)
            p, q = r.numerator, r.denominator
            x = endpoint_of(from_man_exp(p * 2 ** 40 + rng.choice((-1, 0, 0, 1)),
                                         -40 - (q.bit_length() - 1)))
        elif kind == 1:
            # a non-dyadic rational and its directed rounding at a few bits
            r = _rand_fraction(rng, rng.choice((3, 20, 60))) + Fraction(1, 3 * 7 ** rng.randrange(9))
            x = rational_side(r, rng.choice((8, 64, 300)), rng.randrange(2) == 1)
        else:
            # any signed mantissa, exp >= 0 (kind 2) or exp < 0 (kind 3)
            man = rng.getrandbits(rng.randrange(1, 200)) * rng.choice((-1, 1))
            exp = rng.randrange(0, 80) if kind == 2 else -rng.randrange(1, 300)
            x = endpoint_of(from_man_exp(man, exp))
            r = rng.choice(dyadic + [_rand_fraction(rng, rng.choice((3, 40)))])
        want = _oracle_cmp(x, r)
        assert endpoint_cmp(x, r.numerator, r.denominator) == want
        # an unreduced pair names the same rational
        g = rng.randrange(1, 10 ** 6)
        assert endpoint_cmp(x, r.numerator * g, r.denominator * g) == want
        checked[want] += 1
    assert min(checked.values()) > 100
    zero = endpoint_of(fzero)
    assert endpoint_cmp(zero, 0) == 0
    assert endpoint_cmp(zero, 1, 3) == -1 and endpoint_cmp(zero, -1, 3) == 1


def test_endpoint_cmp_refuses_non_finite_endpoints():
    # an integer endpoint (m, e) is finite by construction: mpmath's
    # infinities and NaN have no such form, so none reaches endpoint_cmp
    # to be read as 0
    for x in (finf, fninf, fnan):
        for num in (-1, 0, 1):
            with pytest.raises(ValueError, match="not finite"):
                endpoint_cmp(endpoint_of(x), num)


# -- continued fractions in integers --------------------------------------

def _reference_convergents(x, Q):
    """Lockstep expansion of both endpoints as Fractions, as the package
    did it before expanding unreduced integer pairs, with its rule for a
    disagreement: the lower endpoint's quotient bounds every real's."""
    lo, hi = x.lower, x.upper
    if lo == hi:
        return convergents_of_fraction(lo, Q)
    out = []
    pm1, qm1, pm2, qm2 = 1, 0, 0, 1
    idx = 0
    while True:
        fa = lo.numerator // lo.denominator
        fb = hi.numerator // hi.denominator
        if fa != fb:
            if fa * qm1 + qm2 > Q:
                return out
            raise PrecisionInsufficientError(
                "endpoints disagree on partial quotient %d (denominator %d <= Q=%d)"
                % (idx, qm1, Q))
        p = fa * pm1 + pm2
        q = fa * qm1 + qm2
        if q > Q:
            return out
        out.append(Convergent(p, q))
        idx += 1
        pm2, qm2, pm1, qm1 = pm1, qm1, p, q
        frac_lo, frac_hi = lo - fa, hi - fa
        if frac_lo == 0 or frac_hi == 0:
            raise PrecisionInsufficientError(
                "endpoint expansion terminated at denominator %d <= Q=%d" % (qm1, Q))
        lo, hi = 1 / frac_hi, 1 / frac_lo


def _outcome(fn, x, Q):
    try:
        return fn(x, Q)
    except PrecisionInsufficientError as exc:
        return ("raise", str(exc))


def test_convergents_match_fraction_expansion():
    rng = random.Random(17)
    cases = [
        CertifiedReal.from_rational(Fraction(45, 16), 128),                  # exact point
        # an exact dyadic endpoint whose expansion ends before Q is reached
        CertifiedReal.from_endpoints(Fraction(45, 16) - Fraction(1, 2 ** 90),
                                     Fraction(45, 16), 128),
        CertifiedReal.from_endpoints(Fraction(-7, 4),
                                     Fraction(-7, 4) + Fraction(1, 2 ** 70), 128),
        # partial quotients 1 and 3 disagree at index 1
        CertifiedReal.from_endpoints(Fraction(1, 3), Fraction(2, 3), 64),
    ]
    for _ in range(300):
        a = _rand_fraction(rng, rng.choice((5, 30, 120)))
        eps = Fraction(1, 10 ** rng.randrange(0, 100))
        prec = rng.choice((64, 256, 540))
        cases.append(CertifiedReal.from_endpoints(a, a + eps, prec))
    kinds = set()
    for x in cases:
        for Q in (1, 10 ** 3, 10 ** 20, 10 ** 60):
            want = _outcome(_reference_convergents, x, Q)
            assert _outcome(continued_fraction_convergents, x, Q) == want
            # "endpoints disagree ..." or "endpoint expansion terminated ..."
            kinds.add(want[1].split()[1] if isinstance(want, tuple) else "convergents")
    assert kinds == {"convergents", "disagree", "expansion"}


def test_shared_convergents_are_those_of_every_point_inside():
    """Where the expansion of an interval ends without raising, every
    rational in it has exactly those convergents up to Q, also where the
    endpoints part on a quotient that takes the next q past Q."""
    rng = random.Random(19)
    parted = 0
    for _ in range(300):
        a = _rand_fraction(rng, rng.choice((5, 30)))
        b = a + Fraction(1, 10 ** rng.randrange(2, 40))
        ends = a.numerator, a.denominator, b.numerator, b.denominator
        shared = []
        with pytest.raises(PrecisionInsufficientError) as exc:
            shared.extend(lockstep_expansion(*ends, 10 ** 100))
        # Q at the last shared q, where the endpoints part next, below or above
        last = shared[-1].q if shared else 1
        for Q in {last, rng.randrange(1, last + 1), last * 10 ** 6}:
            try:
                got = list(lockstep_expansion(*ends, Q))
            except PrecisionInsufficientError:
                continue
            for x in (a, b, (a + b) / 2, a + (b - a) * Fraction(rng.randrange(1, 1000), 1000)):
                assert convergents_of_fraction(x, Q) == got
            parted += got == shared and "disagree" in str(exc.value)
    assert parted > 50


def test_lockstep_of_equal_endpoints_is_the_euclidean_expansion():
    # an exact point given as two unreduced pairs: both expansions end at
    # the same step, and the convergents are exactly Euclid's
    rng = random.Random(18)
    for _ in range(2000):
        x = _rand_fraction(rng, rng.choice((3, 12, 40)))
        j, k = rng.randrange(1, 50), rng.randrange(1, 50)
        for Q in (10, 10 ** 6, 10 ** 40):
            got = lockstep_expansion(x.numerator * j, x.denominator * j,
                                     x.numerator * k, x.denominator * k, Q)
            assert list(got) == convergents_of_fraction(x, Q)
    # an expansion that ends alone leaves the reals inside undetermined
    with pytest.raises(PrecisionInsufficientError, match="terminated"):
        list(lockstep_expansion(45 * 2 ** 86 - 1, 2 ** 90, 45, 16, 10 ** 6))
