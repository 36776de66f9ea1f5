import dataclasses
import math
import random
from fractions import Fraction

import pytest

from cubicthue import bounds
from cubicthue.bounds import (check_height_bounds, contradiction_threshold,
                              derive_t_max, lambda_value, matveev_C, matveev_C0,
                              matveev_family_coefficient, matveev_for_family,
                              siegel_residual, w0_prefactor, w0_prefactor_upper)
from cubicthue.errors import HeightBoundViolatedError, IndeterminateSignError
from cubicthue.realnum import CertifiedReal
from cubicthue.roots import isolate_roots


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
    L2 = lambda_value(2, 1, 0, roots)
    hi = max(abs(L2.value.lower), abs(L2.value.upper))
    assert hi < Fraction(1, 10 ** 5)
    # type I special at (n,m)=(-1,-4): the pre-exclusion bound chain gives
    # |Lambda_1| < 2 (t^3-3)^(1-n) (t^9-4t^6)^m
    L1 = lambda_value(1, -1, -4, roots)
    hi = max(abs(L1.value.lower), abs(L1.value.upper))
    cap = 2 * Fraction(997) ** 2 * Fraction(10 ** 9 - 4 * 10 ** 6) ** -4
    assert hi < cap
    # type III special at (n,m)=(-1,1) obeys the displayed decay bound
    L3 = lambda_value(3, -1, 1, roots)
    hi = max(abs(L3.value.lower), abs(L3.value.upper))
    assert float(hi) < 2 * 10 ** -8.9


def test_lambda_log_of_one_plus_tau():
    # |Lambda| <= 2|tau| with tau built directly from the solution
    for t in (10, 50):
        roots = isolate_roots(t, 500)
        th1, th2, th3 = roots.thetas
        x, y = t, 1
        tau2 = ((th3 - th1) * (x - y * th2)) / ((th2 - th1) * (x - y * th3))
        L2 = lambda_value(2, 1, 0, roots)
        lam_hi = max(abs(L2.value.lower), abs(L2.value.upper))
        assert abs(tau2).upper < Fraction(1, 2)
        assert lam_hi <= 2 * abs(tau2).upper


def test_matveev_constants():
    C = matveev_C(3, 1)
    assert abs(C - (16 / 6) * math.e ** 3 * 9 * 5 * 16 ** 4 * (3 * math.e / 2)) < 1e-3
    assert abs(C / 6.44e8 - 1) < 0.01
    C0 = matveev_C0(3, 6)
    assert abs(C0 - 30.9) < 0.1


def test_matveev_bound_direct():
    # C * C0 * D^2 * Omega / ln^3 t at D = 6 and A = (18, 18, 36) * ln t
    assert matveev_family_coefficient() == (matveev_C(3, 1) * matveev_C0(3, 6)
                                            * 6 ** 2 * (18 * 18 * 36))


def test_family_coefficient_window():
    coef = matveev_family_coefficient()
    assert 8.30e15 <= coef <= 8.40e15
    # provenance of the 1.07e15 cap: the published rounded 8.4e15 over 7.9
    assert abs(8.4e15 / 7.9 - 1.07e15) / 1.07e15 < 0.01


def test_w0_prefactor_below_35():
    assert w0_prefactor() < 35


def test_w0_prefactor_is_certified_below_35(monkeypatch):
    upper = w0_prefactor_upper()
    assert upper.upper < 35
    assert upper.lower > w0_prefactor()
    assert bounds.E_UPPER > Fraction(math.e)
    # the prefactor is ~34.15, so a cap of 34 fails the Matveev step
    monkeypatch.setattr(bounds, "W0_PREFACTOR_CAP", 34)
    with pytest.raises(HeightBoundViolatedError, match="W0 prefactor exceeds 34"):
        matveev_for_family(2, isolate_roots(10))


def test_matveev_for_family():
    res10 = matveev_for_family(2, isolate_roots(10))
    assert all(res10.height_checks)
    assert res10.coefficient == matveev_family_coefficient()
    res_big = matveev_for_family(2, isolate_roots(576241))
    assert res_big.coefficient == res10.coefficient
    with pytest.raises(ValueError):
        matveev_for_family(2, isolate_roots(9))


def test_height_checks_sampled():
    for t in (10, 100, 10 ** 5):
        assert check_height_bounds(isolate_roots(t)) == (True, True, True)


def test_height_checks_decide_three_ways():
    # at 24 bits h_unit's enclosure [6.86, 6.92] contains 3 ln 10 = 6.9078:
    # undecided, which must not read as failed
    with pytest.raises(IndeterminateSignError, match="h_unit"):
        check_height_bounds(isolate_roots(10, 24))
    with pytest.raises(IndeterminateSignError):
        matveev_for_family(2, isolate_roots(10, 24))
    # the roots of t = 11 measured against ln 10 break the inequalities
    # outright: certified false, and reported as a failed check
    wrong = dataclasses.replace(isolate_roots(11), t=10)
    assert check_height_bounds(wrong) == (False, False, True)
    with pytest.raises(HeightBoundViolatedError):
        matveev_for_family(2, wrong)
    # h < bound is certified only by disjoint enclosures, either way round
    enc = lambda lo, hi: CertifiedReal.from_endpoints(lo, hi, 64)
    assert bounds._certified_below(enc(1, 2), enc(3, 4), "h") is True
    assert bounds._certified_below(enc(3, 4), enc(1, 3), "h") is False
    for h, bound in ((enc(2, 4), enc(1, 3)), (enc(1, 3), enc(2, 4)), (enc(1, 4), enc(2, 3))):
        with pytest.raises(IndeterminateSignError, match="undecided"):
            bounds._certified_below(h, bound, "h")


def test_derive_t_max():
    t_max, n_max = derive_t_max()
    assert t_max == 576241
    assert 8.8e18 <= n_max <= 9.0e18
    with pytest.raises(ValueError):
        derive_t_max(which=1)


def test_feasibility_flips_once():
    t_max = 576241
    samples = [10, 1000, 100000, t_max - 1, t_max, t_max + 1,
               t_max + 1000, 10 ** 7]
    flags = [bounds._growth_feasible(t) for t in samples]
    assert flags == [True, True, True, True, True, False, False, False]


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


def test_lambda_coefficients_recorded():
    roots = isolate_roots(10)
    L = lambda_value(2, 5, 3, roots)
    assert L.coefficients == (3, 5, 1)
    assert L.which == 2 and L.t == 10
    with pytest.raises(ValueError):
        bounds.lambda_log_arguments(4, roots)
