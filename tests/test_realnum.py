import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import to_rational

from cubicthue import exponents, forms, roots
from cubicthue.errors import IndeterminateSignError, PrecisionInsufficientError
from cubicthue.realnum import (CertifiedReal, Convergent, continued_fraction_convergents,
                               _convergents_of_fraction, enclose_rational,
                               nearest_integer_distance, reduction_precision)


def _rand_fraction(rng, digits=9):
    num = rng.randrange(-10 ** digits, 10 ** digits)
    den = rng.randrange(1, 10 ** digits)
    return Fraction(num, den)


def test_enclose_rational_one_third():
    x = enclose_rational(Fraction(1, 3), 64)
    assert x.contains(Fraction(1, 3))
    assert x.radius <= Fraction(1, 2 ** 62)


def test_enclose_zero_exact():
    x = enclose_rational(0, 64)
    assert x.radius == 0
    assert x.lower == x.upper == 0


def test_enclose_tiny_rational_narrow():
    x = enclose_rational(Fraction(1, 10 ** 120), 512)
    assert x.contains(Fraction(1, 10 ** 120))
    assert x.width < Fraction(1, 10 ** 150)


def test_log_of_one_contains_zero():
    one = enclose_rational(1, 128)
    assert one.log().contains(0)


def test_log_of_e_contains_one():
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = 128
        e_iv = mpmath.iv.exp(mpmath.iv.mpf(1))
        e = CertifiedReal(e_iv, 128)
    finally:
        mpmath.iv.prec = old
    assert e.log().contains(1)


def test_add_sub_roundtrip_contains():
    rng = random.Random(11)
    for _ in range(500):
        a, b = _rand_fraction(rng), _rand_fraction(rng)
        x = enclose_rational(a, 64)
        y = enclose_rational(b, 64)
        assert ((x + y) - y).contains(a)


def test_inclusion_isotonicity_per_operator():
    rng = random.Random(12)
    for _ in range(2500):
        a, b = _rand_fraction(rng), _rand_fraction(rng)
        x = enclose_rational(a, 64)
        y = enclose_rational(b, 64)
        assert (x + y).contains(a + b)
        assert (x - y).contains(a - b)
        assert (x * y).contains(a * b)
        if b != 0 and not y.contains_zero():
            assert (x / y).contains(a / b)


def test_power_isotonicity():
    rng = random.Random(13)
    for _ in range(500):
        a = _rand_fraction(rng, 4)
        x = enclose_rational(a, 128)
        for k in (0, 1, 2, 3, 7):
            assert (x ** k).contains(a ** k)
        if a != 0:
            assert (x ** -2).contains(a ** -2)


def test_log_against_high_precision_reference():
    rng = random.Random(14)
    for _ in range(100):
        a = abs(_rand_fraction(rng, 6)) + 1
        enc = enclose_rational(a, 64).log()
        with mpmath.workdps(60):
            ref = mpmath.log(mpmath.mpf(a.numerator) / mpmath.mpf(a.denominator))
            lo = mpmath.mpf(enc.lower.numerator) / mpmath.mpf(enc.lower.denominator)
            hi = mpmath.mpf(enc.upper.numerator) / mpmath.mpf(enc.upper.denominator)
            assert lo <= ref <= hi


def test_precision_monotonicity():
    def expr(prec):
        x = enclose_rational(Fraction(1, 3), prec)
        y = enclose_rational(Fraction(1, 7), prec)
        z = enclose_rational(Fraction(22, 5), prec)
        return ((x + y) * z).log() / (z - y)

    radii = [expr(p).radius for p in (64, 128, 256, 512)]
    for narrow, wide in zip(radii[1:], radii):
        assert narrow <= wide


def test_division_by_straddling_zero_raises():
    x = enclose_rational(1, 64)
    y = CertifiedReal.from_endpoints(Fraction(-1, 10), Fraction(1, 10), 64)
    with pytest.raises(IndeterminateSignError):
        x / y
    with pytest.raises(IndeterminateSignError):
        y ** -1


def test_log_of_straddling_raises():
    y = CertifiedReal.from_endpoints(Fraction(-1, 10), Fraction(1, 10), 64)
    with pytest.raises(IndeterminateSignError):
        y.log()


def test_sign_determinations():
    assert enclose_rational(Fraction(3, 7), 64).sign() == 1
    assert enclose_rational(Fraction(-3, 7), 64).sign() == -1
    assert enclose_rational(0, 64).sign() == 0
    wide = CertifiedReal.from_endpoints(-1, 1, 64)
    with pytest.raises(IndeterminateSignError):
        wide.sign()


def test_hull():
    a = enclose_rational(Fraction(1, 3), 64)
    b = enclose_rational(Fraction(2, 3), 64)
    h = CertifiedReal.hull([a, b])
    assert h.contains(Fraction(1, 3)) and h.contains(Fraction(2, 3))


def test_subdivide_matches_from_endpoints_per_piece():
    rng = random.Random(91)
    for _ in range(50):
        lo, width = _rand_fraction(rng), abs(_rand_fraction(rng))
        hi, pieces, prec = lo + width, rng.randrange(1, 20), rng.choice((53, 180, 540))
        step = (hi - lo) / pieces
        want = [CertifiedReal.from_endpoints(lo + i * step, lo + (i + 1) * step, prec)
                for i in range(pieces)]
        got = CertifiedReal.subdivide(lo, hi, pieces, prec)
        assert [(g._mpi, g.precision) for g in got] == [(w._mpi, w.precision) for w in want]
    assert len(CertifiedReal.subdivide(2, 2, 3, 64)) == 3
    with pytest.raises(ValueError):
        CertifiedReal.subdivide(Fraction(1, 2), Fraction(1, 3), 4, 64)


def test_reduction_precision_policy():
    # ceil(3.33 * (2*61 + 40)) at Q = 10^60
    assert reduction_precision(10 ** 60) == 540
    assert reduction_precision(10 ** 10) > 100


def test_convergents_terminating_rational():
    x = enclose_rational(Fraction(45, 16), 128)
    convs = continued_fraction_convergents(x, 100)
    assert [(c.p, c.q) for c in convs] == [(2, 1), (3, 1), (14, 5), (45, 16)]


def test_convergents_golden_ratio_fibonacci():
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = 256
        phi = (1 + mpmath.iv.sqrt(5)) / 2
        x = CertifiedReal(phi, 256)
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
        want = _convergents_of_fraction(x, 10 ** 9)
        assert [(c.p, c.q) for c in got] == [(c.p, c.q) for c in want]
        for c in got:
            assert abs(x * c.q - c.p) < Fraction(1, c.q)


def test_convergent_denominators_increase_and_coprime():
    import math
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = 256
        x = CertifiedReal(mpmath.iv.sqrt(2), 256)
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


def test_nearest_integer_distance_values():
    lo, hi = nearest_integer_distance(enclose_rational(Fraction(37, 10), 128))
    assert lo <= Fraction(3, 10) <= hi and hi - lo < Fraction(1, 10 ** 9)
    lo, hi = nearest_integer_distance(enclose_rational(Fraction(5, 2), 128))
    assert lo <= Fraction(1, 2) <= hi
    lo, hi = nearest_integer_distance(enclose_rational(12, 128))
    assert lo == 0 and hi == 0


def test_nearest_integer_distance_wide_input():
    wide = CertifiedReal.from_endpoints(0, 10, 64)
    lo, hi = nearest_integer_distance(wide)
    assert lo == 0 and hi == Fraction(1, 2)


def test_nearest_integer_distance_straddles_integer():
    enc = CertifiedReal.from_endpoints(Fraction(19, 10), Fraction(21, 10), 64)
    lo, hi = nearest_integer_distance(enc)
    assert lo == 0
    assert hi <= Fraction(1, 2)


def test_decimal_serialization_mentions_precision():
    s = enclose_rational(Fraction(1, 3), 96).as_decimal_string()
    assert "96 bits" in s and "±" in s


# -- CertifiedReal against mpmath.iv ------------------------------------
# CertifiedReal runs the interval kernels that mpmath.iv dispatches to,
# at an explicit precision; every endpoint must match the same iv
# expression evaluated with iv.prec set to that precision.

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


def _rand_operand(rng, prec):
    """A rational, or a random enclosure with rational endpoints, as a
    (CertifiedReal, iv.mpf) pair; numerators and denominators run to
    200 digits, far wider than the precision."""
    digits = rng.choice((3, 12, 40, 200))
    a = _rand_fraction(rng, digits)
    if rng.random() < 0.4:
        return enclose_rational(a, prec), _at(prec, lambda: _iv_rational(a))
    b = a + abs(_rand_fraction(rng, rng.choice((3, 12))))
    ref = _at(prec, lambda: mpmath.iv.mpf([_iv_rational(a).a, _iv_rational(b).b]))
    return CertifiedReal.from_endpoints(a, b, prec), ref


def test_operations_match_mpmath_iv_bit_for_bit():
    rng = random.Random(16)
    precs = (20, 53, 64, 128, 300)
    for _ in range(300):
        px, py = rng.choice(precs), rng.choice(precs)
        x, X = _rand_operand(rng, px)
        y, Y = _rand_operand(rng, py)
        _assert_same(x, X)
        p = max(px, py)
        _assert_same(x + y, _at(p, lambda: X + Y))
        _assert_same(x - y, _at(p, lambda: X - Y))
        _assert_same(x * y, _at(p, lambda: X * Y))
        if not y.contains_zero():
            _assert_same(x / y, _at(p, lambda: X / Y))
        r = rng.choice((rng.randrange(-10 ** 30, 10 ** 30), _rand_fraction(rng, 25)))
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
            _assert_same(x ** -2, _at(px, lambda: 1 / X ** 2))
        _assert_same(-x, _at(px, lambda: -X))
        _assert_same(abs(x), _at(px, lambda: abs(X)))
        for k in (0, 1, 3, 7):
            _assert_same(x ** k, _at(px, lambda: X ** k))
        if x.is_positive():
            _assert_same(x.log(), _at(px, lambda: mpmath.iv.log(X)))
        _assert_same(CertifiedReal.hull([x, y]),
                     mpmath.iv.mpf([min(X.a, Y.a), max(X.b, Y.b)]))
        assert CertifiedReal.hull([x, y]).precision == p


def test_arithmetic_ignores_and_keeps_global_iv_prec():
    def values():
        x = enclose_rational(Fraction(1, 3), 200)
        y = CertifiedReal.from_endpoints(Fraction(1, 7), Fraction(2, 7), 200)
        z = ((x + y) * x - 2 / y) ** 3
        return [z, abs(-z).log(), x ** -2, CertifiedReal.hull([x, y])]

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
    {10, 2000, 576241} and of the exponent-recovery residuals at
    t in {2, 50}, as written to tests/data/exact_enclosures.json."""
    out = {"kappas": {}, "exponents": {}}
    for t in (10, 2000, 576241):
        rep = roots.verify_kappas(t)
        out["kappas"][str(t)] = [[r.j, str(r.enclosure.lower), str(r.enclosure.upper)]
                                 for r in rep.rows]
    for t in (2, 50):
        rows = []
        for x, y in forms.known_solutions(t).solutions:
            p = exponents.recover_exponents(t, x, y)
            rows.append([x, y, p.delta, p.n, p.m,
                         str(p.residual.lower), str(p.residual.upper)])
        out["exponents"][str(t)] = rows
    return out


def test_exact_enclosures_match_golden():
    # the golden file was written while CertifiedReal still wrapped
    # iv.mpf values under a saved and restored global iv.prec
    path = Path(__file__).parent / "data" / "exact_enclosures.json"
    assert exact_enclosures() == json.loads(path.read_text())


# -- continued fractions in integers --------------------------------------

def _reference_convergents(x, Q):
    """Lockstep expansion of both endpoints as Fractions, as the package
    did it before expanding unreduced integer pairs."""
    lo, hi = x.lower, x.upper
    if lo == hi:
        return _convergents_of_fraction(lo, Q)
    out = []
    pm1, qm1, pm2, qm2 = 1, 0, 0, 1
    idx = 0
    while True:
        fa = lo.numerator // lo.denominator
        fb = hi.numerator // hi.denominator
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
        enclose_rational(Fraction(45, 16), 128),                  # exact point
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
