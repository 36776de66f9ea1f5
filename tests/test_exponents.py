import math
from fractions import Fraction

import pytest

from cubicthue import exponents
from cubicthue.bounds import GROWTH
from cubicthue.errors import VerificationFailedError
from cubicthue.exponents import SolutionType, classify, recover_exponents
from cubicthue.forms import family_form, known_solutions
from cubicthue.realnum import CertifiedReal
from cubicthue.roots import isolate_roots
from oracles import contains


def test_classify_examples():
    assert classify(10, -999, 99700300) == SolutionType.TYPE_I
    assert classify(10, 10, 1) == SolutionType.SMALL
    assert classify(10, 1, 2) == SolutionType.NONE


def test_classify_known_nontrivial_solutions():
    for t in (10, 17, 100):
        x, y = 1 - t ** 3, t ** 8 - 3 * t ** 5 + 3 * t * t
        assert classify(t, x, y) == SolutionType.TYPE_I
    assert classify(10, 1, 0) == SolutionType.SMALL
    assert classify(10, 0, 1) == SolutionType.SMALL


def test_classify_rejects_small_t():
    with pytest.raises(ValueError):
        classify(9, 1, 2)


def test_recover_type_ii_special():
    for t in (2, 10, 50):
        pair = recover_exponents(t, t, 1)
        assert (pair.n, pair.m) == (1, 0)
        assert pair.delta == 0


def test_recover_type_i_special():
    for t in (2, 10, 50):
        pair = recover_exponents(t, 1 - t ** 3, t ** 8 - 3 * t ** 5 + 3 * t * t)
        assert (pair.n, pair.m) == (-1, -4)


def test_recover_type_iii_special():
    for t in (2, 10, 50):
        pair = recover_exponents(t, t ** 4 - 2 * t, 1)
        assert (pair.m, pair.n) == (1, -1)


def test_recover_trivial_solutions():
    pair = recover_exponents(7, 1, 0)
    assert (pair.delta, pair.n, pair.m) == (0, 0, 0)
    pair = recover_exponents(7, 0, 1)
    assert (pair.n, pair.m) == (0, -1)


def test_recover_rejects_non_solution():
    with pytest.raises(ValueError):
        recover_exponents(10, 3, 4)


def test_recover_residual_certified():
    for t in (2, 31):
        for (x, y) in known_solutions(t).solutions:
            pair = recover_exponents(t, x, y)
            assert pair.residual.upper < Fraction(1, 100)


def _power(x, k):
    """x^k for an enclosure x and an integer k of either sign."""
    return x ** k if k >= 0 else 1 / x ** -k


def test_roundtrip_reexpansion():
    # rebuild (x, y) from the recovered exponents via two embeddings
    for t in (2, 5, 10, 37, 100):
        roots = isolate_roots(t, 640)
        th1, th2 = roots.theta1, roots.theta2
        for (x, y) in known_solutions(t).solutions:
            pair = recover_exponents(t, x, y)
            sign = -1 if pair.delta else 1
            u1 = sign * _power(t - th1, pair.n) * _power(th1, -pair.m)
            u2 = sign * _power(t - th2, pair.n) * _power(th2, -pair.m)
            y_enc = (u1 - u2) / (th2 - th1)
            x_enc = u1 + y_enc * th1
            assert contains(y_enc, y) and contains(x_enc, x)
            assert y_enc.width < Fraction(1, 2) and x_enc.width < Fraction(1, 2)


def test_unit_power_matches_every_embedding():
    # the coefficients in Z[theta] evaluated at each certified root
    # enclose (t - theta_i)^n * theta_i^(-m): the two inverses are right
    for t in (2, 9, 10, 57):
        roots = isolate_roots(t, 640)
        for n in range(-3, 4):
            for m in range(-3, 4):
                c0, c1, c2 = exponents._unit_power(t, n, m)
                for th in roots.thetas:
                    diff = (c0 + c1 * th + c2 * th * th
                            - _power(t - th, n) * _power(th, -m))
                    assert diff.contains_zero(), (t, n, m)
                    assert abs(diff).upper < Fraction(1, 10 ** 20)


def test_recovery_rejects_exponents_the_identity_refutes(monkeypatch):
    # a solve that rounds to the wrong exponents is refused exactly,
    # whatever the precision
    solve = exponents._solve_at_precision

    def off_by_one(t, x, y, prec):
        n, m, residual = solve(t, x, y, prec)
        return n + 1, m, residual

    monkeypatch.setattr(exponents, "_solve_at_precision", off_by_one)
    with pytest.raises(VerificationFailedError):
        recover_exponents(10, 10, 1)


def _special_solutions(t):
    """The solution of each type's degenerate exponent case: I (k = 0),
    II (m = 0), III (m = n0)."""
    return {SolutionType.TYPE_I: (1 - t ** 3, t ** 8 - 3 * t ** 5 + 3 * t * t),
            SolutionType.TYPE_II: (t, 1), SolutionType.TYPE_III: (t ** 4 - 2 * t, 1)}


def test_k_relation_values():
    # k = 3n-m-1 (type I), k = n-3m-1 (type II) and s = n+m (type III)
    # vanish on the exponents recovered for the type's special solution
    relation = {SolutionType.TYPE_I: lambda n, m: 3 * n - m - 1,
                SolutionType.TYPE_II: lambda n, m: n - 3 * m - 1,
                SolutionType.TYPE_III: lambda n, m: n + m}
    for t in (2, 10, 37):
        for sol_type, (x, y) in _special_solutions(t).items():
            pair = recover_exponents(t, x, y)
            assert relation[sol_type](pair.n, pair.m) == 0


def test_growth_bound_values():
    # max(|m|, |n|) >= c t^p ln t, enclosed at t = 10
    T = CertifiedReal.from_rational(10, 128)
    bound = {which: float(c * T ** p * T.log()) for which, (c, p) in GROWTH.items()}
    assert abs(bound[2] - 8059.0478) < 0.01
    assert abs(bound[1] - 8.6e6 * math.log(10)) < 1.0
    assert abs(bound[3] - 9.8e3 * math.log(10)) < 0.01


def test_special_solutions_evaluated_exactly():
    assert _special_solutions(3)[SolutionType.TYPE_I] == (-26, 5859)
    assert _special_solutions(5)[SolutionType.TYPE_III] == (615, 1)
    for t in (2, 9, 20):
        for pair in _special_solutions(t).values():
            assert family_form(3, t)(*pair) == 1
            assert pair in known_solutions(t)


def test_positivity_relation():
    # (x - y*th3)/(x - y*th2) > 0 and x - y*th1 > 0 for |y| >= 2 solutions
    for t in (10, 31, 100):
        roots = isolate_roots(t, 640)
        th1, th2, th3 = roots.thetas
        for (x, y) in known_solutions(t).solutions:
            if abs(y) < 2:
                continue
            ratio = (x - y * th3) / (x - y * th2)
            assert ratio.is_positive()
            assert (x - y * th1).is_positive()


def test_unit_size_type_i():
    for t in (10, 31, 100):
        th1 = isolate_roots(t, 640).theta1
        x, y = 1 - t ** 3, t ** 8 - 3 * t ** 5 + 3 * t * t
        assert abs(x - y * th1).upper < 1


def test_parity_relations():
    for t in (10, 23, 100):
        n, m = recover_exponents(t, t ** 4 - 2 * t, 1).n, \
            recover_exponents(t, t ** 4 - 2 * t, 1).m
        assert (n - m) % 2 == 0          # type III: equal parity
        n2, m2 = recover_exponents(t, t, 1).n, recover_exponents(t, t, 1).m
        assert (n2 - m2) % 2 == 1        # type II: opposite parity


def test_exponent_pair_tuple():
    pair = recover_exponents(5, 5, 1)
    assert (pair.delta, pair.n, pair.m) == (0, 1, 0)


def _count_isolations(monkeypatch):
    calls = []

    def counting(t, precision=None):
        calls.append((t, precision))
        return isolate_roots(t, precision)

    exponents._unit_logs.cache_clear()
    monkeypatch.setattr(exponents, "isolate_roots", counting)
    return calls


def test_known_solutions_of_one_t_share_one_root_isolation(monkeypatch):
    calls = _count_isolations(monkeypatch)
    sols = known_solutions(57).solutions
    assert len(sols) == 5
    for x, y in sols:
        recover_exponents(57, x, y)
    assert calls == [(57, 320)]
    # at 96 bits the first solution escalates to 192 bits; each
    # precision is isolated once and stays in the memo
    calls.clear()
    exponents._unit_logs.cache_clear()
    default = exponents.RECOVERY_PRECISION
    monkeypatch.setattr(exponents, "RECOVERY_PRECISION", 96)
    pairs = [recover_exponents(57, x, y) for x, y in sols]
    assert calls == [(57, 96), (57, 192)]
    assert exponents._unit_logs.cache_info().currsize == 2
    monkeypatch.setattr(exponents, "RECOVERY_PRECISION", default)
    again = [recover_exponents(57, x, y) for x, y in sols]
    assert [(p.delta, p.n, p.m) for p in pairs] == [(p.delta, p.n, p.m) for p in again]


def test_unit_log_memo_is_bounded(monkeypatch):
    _count_isolations(monkeypatch)
    for t in range(10, 110):
        exponents._unit_logs(t, 64)
    info = exponents._unit_logs.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < 100
