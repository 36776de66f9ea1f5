import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import pytest

from cubicthue import bounds
from cubicthue.bounds import (check_height_bounds, contradiction_threshold,
                              derive_t_max, e_enclosure, lambda_log_arguments,
                              matveev_family_coefficient, matveev_for_family,
                              w0_prefactor)
from cubicthue.errors import (HeightBoundViolatedError, IndeterminateSignError,
                              VerificationFailedError)
from cubicthue.realnum import CertifiedReal, certified_below
from cubicthue.roots import _KappaTerms, _ratio_hull, default_precision, isolate_roots
from oracles import lambda_log_arguments_per_type, ratio_hull_per_interval, siegel_residual

def _lambda(which, n, m, roots):
    """Lambda_which at integer exponents (n, m), from the log arguments
    the reduction reads."""
    a1, a2, a3 = lambda_log_arguments(which, roots)
    return m * a1.log() + n * a2.log() + a3.log()


def _matveev_C():
    """Matveev's C(n, chi) at n = 3 logarithms and chi = 1."""
    return Fraction(16, 6) * 9 * 5 * 16 ** 4 * Fraction(3, 2) * e_enclosure() ** 4


def _matveev_C0():
    """Matveev's C0(n, D) at n = 3 and D = 6."""
    ln6 = bounds._ln(6)
    return Fraction(101, 5) + Fraction(11, 2) * bounds._ln(3) + 2 * ln6 + (1 + ln6).log()


# the float formulas the enclosures replaced, kept here as an oracle only
def _float_C(n, chi):
    return (16 / (math.factorial(n) * chi) * math.e ** n * (2 * n + 1 + 2 * chi)
            * (n + 2) * (4 * n + 4) ** (n + 1) * (math.e * n / 2) ** chi)


def _float_C0(n, D):
    return math.log(math.exp(4.4 * n + 7) * n ** 5.5 * D * D * math.log(math.e * D))


def _within_ulps(x: float, enc: CertifiedReal, ulps: int) -> bool:
    return abs(x - float(enc)) <= ulps * math.ulp(x) and enc.width < math.ulp(x)


def test_siegel_residual_examples():
    r10 = isolate_roots(10)
    res = siegel_residual(10, 1, r10)
    assert res.contains_zero()
    assert res.width < Fraction(1, 10 ** 20)
    assert siegel_residual(0, 1, isolate_roots(50)).contains_zero()
    assert siegel_residual(-999, 99700300, r10).contains_zero()


def test_siegel_residual_arbitrary_pairs():
    rng = random.Random(41)
    for t in (2, 10, 97):
        roots = isolate_roots(t)
        for _ in range(50):
            x = rng.randrange(-10 ** 6, 10 ** 6)
            y = rng.randrange(-10 ** 6, 10 ** 6)
            assert siegel_residual(x, y, roots).contains_zero()


def test_lambda_values_at_special_solutions():
    roots = isolate_roots(10, 500)
    # type II special (t,1): Lambda_2 at (n,m)=(1,0) is tiny
    L2 = _lambda(2, 1, 0, roots)
    hi = max(abs(L2.lower), abs(L2.upper))
    assert hi < Fraction(1, 10 ** 5)
    # type I special at (n,m)=(-1,-4): the pre-exclusion bound chain gives
    # |Lambda_1| < 2 (t^3-3)^(1-n) (t^9-4t^6)^m
    L1 = _lambda(1, -1, -4, roots)
    hi = max(abs(L1.lower), abs(L1.upper))
    cap = 2 * Fraction(997) ** 2 * Fraction(10 ** 9 - 4 * 10 ** 6) ** -4
    assert hi < cap
    # type III special at (n,m)=(-1,1) obeys the displayed decay bound
    L3 = _lambda(3, -1, 1, roots)
    hi = max(abs(L3.lower), abs(L3.upper))
    assert float(hi) < 2 * 10 ** -8.9
    with pytest.raises(ValueError):
        lambda_log_arguments(4, roots)


def test_lambda_log_of_one_plus_tau():
    # |Lambda| <= 2|tau| with tau built directly from the solution
    for t in (10, 50):
        roots = isolate_roots(t, 500)
        th1, th2, th3 = roots.thetas
        x, y = t, 1
        tau2 = ((th3 - th1) * (x - y * th2)) / ((th2 - th1) * (x - y * th3))
        L2 = _lambda(2, 1, 0, roots)
        lam_hi = max(abs(L2.lower), abs(L2.upper))
        assert abs(tau2).upper < Fraction(1, 2)
        assert lam_hi <= 2 * abs(tau2).upper


def _outcome(f, *args):
    """f(*args) as a tuple of enclosures, or its exception as text."""
    try:
        got = f(*args)
    except IndeterminateSignError as exc:
        return "IndeterminateSignError: %s" % exc
    return got if isinstance(got, tuple) else (got,)


def _bits(outcome):
    return outcome if isinstance(outcome, str) else [(a._ival, a.precision) for a in outcome]


def test_each_type_ratio_from_one_formula_has_the_per_type_bits():
    # the log arguments from Siegel's identity at root `which` and the
    # interval ratios from one row each give the per-type branches' bits
    # or their exception; where the branches' alpha2 holds 0, abs makes
    # it [0, y] instead, and the log of either raises
    straddles = 0
    for t in (*range(10, 61), 2001, 10 ** 5, 576241, 10 ** 6):
        for precision in (113, 170, 340, 452, default_precision(t)):
            roots = isolate_roots(t, precision)
            k = _KappaTerms(t, roots)
            for which in (1, 2, 3):
                got = _outcome(lambda_log_arguments, which, roots)
                want = _outcome(lambda_log_arguments_per_type, which, roots)
                if not isinstance(want, str) and want[1].contains_zero():
                    straddles += 1
                    assert got[1].lower == 0 and got[1].upper >= want[1].upper
                    for a2 in (got[1], want[1]):
                        with pytest.raises(IndeterminateSignError):
                            a2.log()
                    got, want = (got[0], got[2]), (want[0], want[2])
                assert _bits(got) == _bits(want), (which, t, precision)
                assert _bits(_outcome(_ratio_hull, which, k)) == \
                    _bits(_outcome(ratio_hull_per_interval, which, k)), (which, t, precision)
    # measured: type I at 113 bits, t = 576241 and 10^6
    assert straddles == 2


def test_matveev_constants():
    C, C0 = _matveev_C(), _matveev_C0()
    assert abs(float(C) / 6.44e8 - 1) < 0.01
    assert abs(float(C0) - 30.9) < 0.1
    assert _within_ulps(_float_C(3, 1), C, 4)
    assert _within_ulps(_float_C0(3, 6), C0, 4)


def test_matveev_bound_direct():
    # C * C0 * D^2 * Omega / ln^3 t at D = 6 and A = (18, 18, 36) * ln t:
    # two enclosures of the same real, each narrower than 1
    K = matveev_family_coefficient()
    product = _matveev_C() * _matveev_C0() * 6 ** 2 * (18 * 18 * 36)
    assert K.width < 1 and product.width < 1
    assert K.lower <= product.upper and product.lower <= K.upper
    assert _within_ulps(_float_C(3, 1) * _float_C0(3, 6) * 6 ** 2 * (18 * 18 * 36), K, 4)
    # the display float is correctly rounded: both endpoints round to it
    assert float(K) == float(K.lower) == float(K.upper) == 8343947451864178.0


def test_family_coefficient_window(monkeypatch):
    K = matveev_family_coefficient()
    lo, hi = bounds.MATVEEV_WINDOW
    assert certified_below(lo, K, "") and certified_below(K, hi, "")
    assert matveev_for_family(isolate_roots(10)).in_target_window
    # the 1.07e15 cap is certified to be at least K / 7.9 = 1.0562e15
    decay = bounds.LAMBDA_DECAY[2]
    assert 1.056e15 < float(K.upper / decay) <= bounds.EXPONENT_CAP
    assert certified_below(K / decay, bounds.EXPONENT_CAP, "")
    # a typed cap below K / 7.9 would narrow t_max, and is refused
    monkeypatch.setattr(bounds, "EXPONENT_CAP", 105 * 10 ** 13)
    with pytest.raises(VerificationFailedError, match="EXPONENT_CAP"):
        derive_t_max()
    # a window that K misses is a certified false, not an error
    monkeypatch.setattr(bounds, "MATVEEV_WINDOW", (830 * 10 ** 13, 834 * 10 ** 13))
    assert not matveev_for_family(isolate_roots(10)).in_target_window


def test_w0_prefactor_below_35():
    w0 = w0_prefactor()
    assert w0.upper < 35
    assert _within_ulps(1.5 * math.e * 0.5 * 6 * math.log(6 * math.e), w0, 4)
    assert float(w0) == float(w0.lower) == float(w0.upper) == 34.14955065583991


def test_w0_prefactor_is_certified_below_35(monkeypatch):
    assert certified_below(w0_prefactor(), 35, "")
    # the prefactor is ~34.15, so a cap of 34 fails the Matveev step
    monkeypatch.setattr(bounds, "W0_PREFACTOR_CAP", 34)
    with pytest.raises(HeightBoundViolatedError, match="W0 prefactor exceeds 34"):
        matveev_for_family(isolate_roots(10))


def test_e_enclosure_is_certified(monkeypatch):
    e = e_enclosure()
    with mpmath.workdps(40):
        e_digits = Fraction(mpmath.nstr(mpmath.e, 35))
    assert e.lower < e_digits < e.upper
    assert e.width < Fraction(1, 10 ** 17)
    # a bracket that misses e is refused; one that holds it too tightly
    # for LOG_PRECISION decides nothing
    monkeypatch.setattr(bounds, "E_BRACKET", ("2.7", "2.71"))
    with pytest.raises(VerificationFailedError, match="e is not in"):
        e_enclosure()
    monkeypatch.setattr(bounds, "E_BRACKET", ("2.718281828459045235360287",
                                               "2.718281828459045235360288"))
    with pytest.raises(IndeterminateSignError, match="undecided at 64 bits"):
        e_enclosure()


def test_matveev_for_family():
    res10 = matveev_for_family(isolate_roots(10))
    assert all(res10.height_checks)
    assert res10.in_target_window
    K = matveev_family_coefficient()
    res_big = matveev_for_family(isolate_roots(576241))
    for res in (res10, res_big):
        assert (res.coefficient.lower, res.coefficient.upper) == (K.lower, K.upper)
    with pytest.raises(ValueError):
        matveev_for_family(isolate_roots(9))


def test_height_checks_sampled():
    for t in (10, 100, 10 ** 5):
        assert check_height_bounds(isolate_roots(t)) == (True, True, True)


def test_height_checks_decide_three_ways():
    # at 24 bits h_unit's enclosure [6.86, 6.92] contains 3 ln 10 = 6.9078:
    # undecided, which must not read as failed
    with pytest.raises(IndeterminateSignError, match="h_unit"):
        check_height_bounds(isolate_roots(10, 24))
    with pytest.raises(IndeterminateSignError):
        matveev_for_family(isolate_roots(10, 24))
    # the roots of t = 11 measured against ln 10 break the inequalities
    # outright: certified false, and reported as a failed check
    wrong = dataclasses.replace(isolate_roots(11), t=10)
    assert check_height_bounds(wrong) == (False, False, True)
    with pytest.raises(HeightBoundViolatedError):
        matveev_for_family(wrong)
    # h < bound is certified only by disjoint enclosures, either way round
    enc = lambda lo, hi: CertifiedReal.from_endpoints(lo, hi, 64)
    assert certified_below(enc(1, 2), enc(3, 4), "h") is True
    assert certified_below(enc(3, 4), enc(1, 3), "h") is False
    for h, bound in ((enc(2, 4), enc(1, 3)), (enc(1, 3), enc(2, 4)), (enc(1, 4), enc(2, 3))):
        with pytest.raises(IndeterminateSignError, match="h undecided"):
            certified_below(h, bound, "h undecided")
    # a rational side is enclosed at the other side's precision
    assert certified_below(1, enc(2, 3), "h") is True
    assert certified_below(enc(2, 3), 2, "h") is False
    with pytest.raises(IndeterminateSignError):
        certified_below(Fraction(5, 2), enc(2, 3), "h")


def test_derive_t_max():
    t_max, n_max = derive_t_max()
    assert t_max == 576241
    assert n_max == 8.883102365288762e+18


def test_t_max_refuses_a_growth_that_breaks_its_monotonicity_premise(monkeypatch):
    # the bisection is sound when ln(35 g(10)) > 3, g = c t^3 ln t; at
    # c = 10^-5, 35 g(10) is about 0.81
    monkeypatch.setattr(bounds, "GROWTH", {**bounds.GROWTH, 2: (Fraction(1, 10 ** 5), 3)})
    with pytest.raises(VerificationFailedError, match=r"ln\(35 g\(10\)\) <= 3"):
        derive_t_max()


def test_feasibility_flips_once():
    t_max = 576241
    samples = [10, 1000, 100000, t_max - 1, t_max, t_max + 1,
               t_max + 1000, 10 ** 7]
    flags = [bounds._growth_feasible(t) for t in samples]
    assert flags == [True, True, True, True, True, False, False, False]


@pytest.mark.parametrize("bits", [8, 12, 16, 20, 24, 32])
def test_feasibility_undecided_is_not_false(bits, monkeypatch):
    # at a few bits the predicate near t_max raises rather than answer,
    # and what it does answer is the 64-bit flag
    t_max = 576241
    samples = [10, 1000, 100000, t_max - 1, t_max, t_max + 1,
               t_max + 1000, 10 ** 7]
    want = [True, True, True, True, True, False, False, False]
    monkeypatch.setattr(bounds, "LOG_PRECISION", bits)
    for t, flag in zip(samples, want):
        try:
            assert bounds._growth_feasible(t) is flag
        except IndeterminateSignError as exc:
            assert "t=%d undecided at %d bits" % (t, bits) in str(exc)
    if bits <= 20:
        with pytest.raises(IndeterminateSignError):
            bounds._growth_feasible(t_max)
    with pytest.raises(IndeterminateSignError, match="undecided at %d bits" % bits):
        derive_t_max()


def test_contradiction_threshold_values():
    # which=2 at t=10: -27.65 * 1000 * ln(10)^2
    want = -27.65 * 1000 * math.log(10) ** 2
    assert abs(contradiction_threshold(2, 10) - want) < 1e-6
    assert contradiction_threshold(1, 10) == pytest.approx(
        -7.7 * 8.6 * 10 ** 6 * math.log(10) ** 2)
    assert contradiction_threshold(3, 10) == pytest.approx(
        -8.9 * 9.8 * 10 ** 3 * math.log(10) ** 2)
    # decay * growth, exactly; the floats the sweep margins are taken against
    assert bounds.CONTRADICTION_COEFF == {1: (Fraction(3311, 50), 6),
                                          2: (Fraction(553, 20), 3),
                                          3: (Fraction(4361, 50), 3)}
    assert [contradiction_threshold(w, t) for w in (1, 2, 3) for t in (10, 576241)] == [
        -351091692.8758796, -4.265614000345206e+38,
        -146597.48275472774, -9.308400183732682e+20,
        -462431.553195926, -2.9362700326407394e+21]
