import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cubicthue import forms, roots, search
from cubicthue.errors import PrecisionInsufficientError, VerificationFailedError
from cubicthue.forms import BinaryCubicForm, family_form, monic_cubic
from cubicthue.realnum import (CertifiedReal, continued_fraction_convergents,
                               lockstep_expansion)
from cubicthue.roots import isolate_real_roots_monic_cubic
from cubicthue.search import (DELONE_NAGELL_TABLE, MANY_SOLUTIONS_TABLE,
                              SPORADIC_CLASSES_TABLE, thue_solutions_bruteforce,
                              verify_sporadic_tables, verify_theorem)
from oracles import apply_gl2


def test_bruteforce_delone_nagell_example():
    rep = thue_solutions_bruteforce(BinaryCubicForm(1, 0, -1, 1), 100)
    assert rep.solutions == ((-1, 1), (0, 1), (1, 0), (1, 1), (4, -3))
    for (x, y) in rep.solutions:
        assert rep.form(x, y) == 1


def test_bruteforce_49_form_nine_solutions():
    rep = thue_solutions_bruteforce(BinaryCubicForm(1, -1, -2, 1), 10 ** 4)
    assert rep.count == 9


def test_bruteforce_sum_of_cubes():
    rep = thue_solutions_bruteforce(family_form(3, 0), 10)
    assert rep.solutions == ((0, 1), (1, 0))


def test_bruteforce_rejects_non_monic():
    with pytest.raises(ValueError):
        thue_solutions_bruteforce(BinaryCubicForm(2, 0, 0, 1), 10)
    with pytest.raises(ValueError):
        thue_solutions_bruteforce(family_form(3, 2), -1)


def test_counts_monotone_in_y_bound():
    F = BinaryCubicForm(1, -1, -2, 1)
    counts = [thue_solutions_bruteforce(F, yb).count for yb in (1, 5, 50, 500)]
    assert counts == sorted(counts)


def test_verify_theorem_examples():
    assert verify_theorem(-1, 100)
    rep = thue_solutions_bruteforce(family_form(3, -1), 100)
    assert rep.count == 6 and (6, -5) in rep.solutions
    assert verify_theorem(2, 1000)
    assert verify_theorem(0, 100)


def test_verify_theorem_small_range():
    for t in range(-5, 6):
        if t in (0, 1):
            continue
        assert verify_theorem(t, 300), t


def test_two_dimensional_scan_cross_check():
    # completeness of the bounded search against a full scan: every x
    # up to the Cauchy bound, so the whole solution set with |y| <= 50
    for F, _, _ in MANY_SOLUTIONS_TABLE:
        assert thue_solutions_bruteforce(F, 50).solutions == _scan(F, 50), F


def _scan(F, y_bound):
    """Every solution of F(x,y)=1 with |y| <= y_bound, by scanning every
    x up to |y| times the Cauchy bound M of z^3 + b z^2 + c z + d - 1/y^3,
    which z = x/y solves."""
    _, b, c, d = F.coefficients
    M = 2 + max(abs(b), abs(c), abs(d))
    assert (M * max(y_bound, 1)) ** 3 < 2 ** 62      # no int64 overflow
    found = []
    for y in range(-y_bound, y_bound + 1):
        xs = np.arange(-M * max(abs(y), 1), M * max(abs(y), 1) + 1, dtype=np.int64)
        vals = ((xs + b * y) * xs + c * y * y) * xs + d * y ** 3
        found += [(int(x), y) for x in xs[vals == 1]]
    return tuple(sorted(found))


def _oracle_forms():
    rng = random.Random(2014)
    forms = [BinaryCubicForm(1, -27, -30, -8),      # two roots in one critical zone
             BinaryCubicForm(1, 3, 3, 1),           # (x + y)^3
             BinaryCubicForm(1, 0, -3, 2),          # (x - y)^2 (x + 2y)
             BinaryCubicForm(1, -5, 8, -4),         # (x - y)(x - 2y)^2
             BinaryCubicForm(1, 0, 0, 0),           # x^3
             BinaryCubicForm(1, 0, 0, -1)]          # a single integer root line
    forms += [F for F, _, _ in DELONE_NAGELL_TABLE]
    for _ in range(100):
        # shifted products of linear factors: roots at or near integers
        r1, r2, r3 = (rng.randrange(-6, 7) for _ in range(3))
        forms.append(BinaryCubicForm(1, -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3,
                                     -r1 * r2 * r3 + rng.randrange(-2, 3)))
    for _ in range(100):
        forms.append(BinaryCubicForm(1, *(rng.randrange(-20, 21) for _ in range(3))))
    return forms


def test_bruteforce_matches_exhaustive_scan():
    forms = _oracle_forms()
    discs = [F.discriminant() for F in forms]
    assert sum(d < 0 for d in discs) >= 20 and sum(d == 0 for d in discs) >= 5
    for F in forms:
        assert thue_solutions_bruteforce(F, 15).solutions == _scan(F, 15), F
    # a solution at every y
    assert thue_solutions_bruteforce(BinaryCubicForm(1, 3, 3, 1), 15).count == 31


def test_search_past_the_threshold_matches_exhaustive_scan():
    # at y <= 200 most forms have y0 <= 200, so the convergents of the
    # real roots carry the search beyond y0
    Y = 200
    oracle = _oracle_forms()
    below = beyond = 0
    past = {-1: 0, 1: 0}
    for F in oracle:
        found = thue_solutions_bruteforce(F, Y).solutions
        assert found == _scan(F, Y), F
        y0 = search._threshold(F, search._brackets(F, Y), Y, F.discriminant())
        if y0 <= Y:
            past[1 if F.discriminant() > 0 else -1] += 1
        beyond += sum(abs(y) >= y0 for _, y in found)
        below += sum(abs(y) < y0 for _, y in found)
    # 209 forms: 74 of the 77 with one real root and 97 of the 122 with
    # three go past y0, and 80 of 1221 solutions lie beyond it
    assert len(oracle) == 209
    assert past[-1] >= 50 and past[1] >= 80
    assert below >= 1000 and beyond >= 50


def _integer_root_forms(count, seed):
    """(x - r y)(x^2 + p x y + q y^2) with distinct roots."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        r, p, q = (rng.randrange(-6, 7) for _ in range(3))
        F = BinaryCubicForm(1, p - r, q - r * p, -r * q)
        if F.discriminant() != 0:
            found.append(F)
    return found


def test_integer_root_forms_match_exhaustive_scan():
    # an integer root no longer sends the root-line scan over every y
    Y = 200
    past = 0
    for F in _integer_root_forms(60, 37):
        assert thue_solutions_bruteforce(F, Y).solutions == _scan(F, Y), F
        disc = F.discriminant()
        past += search._threshold(F, search._brackets(F, Y), Y, disc) <= Y
    assert past >= 50


def test_integer_root_forms_search_logarithmically(monkeypatch):
    scan = search._scan

    def few_rows(F, brackets, y_max, disc):
        # checked before the scan, which would never end at y_max = Y
        assert y_max < 10
        return scan(F, brackets, y_max, disc)

    expand = search.lockstep_expansion

    def irrational_root(lo, m, hi, m_, y_bound):
        # the expansion of an integer root inside its bracket never settles
        assert all(F(n, 1) != 0 for n in range(-(-lo // m), hi // m + 1))
        return expand(lo, m, hi, m_, y_bound)

    monkeypatch.setattr(search, "_scan", few_rows)
    monkeypatch.setattr(search, "lockstep_expansion", irrational_root)
    Y = 10 ** 30
    F = BinaryCubicForm(1, 0, 0, -1)
    assert thue_solutions_bruteforce(F, Y).solutions == ((0, -1), (1, 0))
    # x (x - y)(x + y): three integer roots
    F = BinaryCubicForm(1, 0, -1, 0)
    assert thue_solutions_bruteforce(F, Y).solutions == ((1, 0),)


def _double_root_forms(count, seed):
    """(x - r y)^2 (x - s y) with r != s."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        r, s = (rng.randrange(-8, 9) for _ in range(2))
        if r != s:
            found.append(BinaryCubicForm(1, -(2 * r + s), r * r + 2 * r * s, -r * r * s))
    return found


def test_double_root_forms_match_exhaustive_scan(monkeypatch):
    Y = 300
    forms = _double_root_forms(60, 39)
    assert all(F.discriminant() == 0 for F in forms)
    with_second = 0
    for F in forms:
        found = thue_solutions_bruteforce(F, Y).solutions
        assert found == _scan(F, Y), F
        with_second += len(found) == 2
        # the second solution has |y| = 1 or 2, at or past these bounds
        for y_bound in (0, 1, 2):
            assert thue_solutions_bruteforce(F, y_bound).solutions == _scan(F, y_bound), F
    # r - s = +-1 or +-2 gives a second solution
    assert with_second >= 10

    def no_scan(F, brackets, y_max, disc):
        raise AssertionError("a double root needs no root-line scan")

    monkeypatch.setattr(search, "_scan", no_scan)
    # (x - y)^2 (x + 2y), and (x - 2y)^2 (x - y), whose r - s = 1
    assert thue_solutions_bruteforce(BinaryCubicForm(1, 0, -3, 2), 10 ** 30).solutions \
        == ((1, 0),)
    assert thue_solutions_bruteforce(BinaryCubicForm(1, -5, 8, -4), 10 ** 30).solutions \
        == ((1, 0), (3, 2))


def test_threshold_is_the_least_y_the_true_roots_allow():
    # y0 against the roots to 50 digits: from y0 on the premise of
    # Legendre's bound holds, and one below y0 it fails even with the
    # true bound lowered by what brackets of width w can lose
    Y = 200
    checked = 0
    for F in _oracle_forms():
        brackets = search._brackets(F, Y)
        y0 = search._threshold(F, brackets, Y, F.discriminant())
        if y0 > Y:
            continue
        w = max(mpmath.mpf(hi - lo) / m for lo, hi, m in brackets)
        _, b, c, _ = F.coefficients
        with mpmath.workdps(50):
            zs = mpmath.polyroots(F.coefficients, maxsteps=200, extraprec=200)
            reals = sorted(z.real for z in zs if abs(z.imag) < mpmath.mpf(10) ** -30)
            if len(reals) == 3:
                gap = min(v - u for u, v in zip(reals, reals[1:]))

                def premise(y, g):
                    return g * y > 1 and (g * y - 1) ** 2 > 2 * y
                bound, lowered = gap, gap - 2 * w
                # y0 is the least y the premise allows for the g that
                # _threshold takes from the brackets
                g = min(Fraction(lo, ld) - Fraction(hi, hd)
                        for (_, hi, hd), (lo, _, ld) in zip(brackets, brackets[1:]))
                assert y0 == 1 or not premise(y0 - 1, g), F
            else:
                def premise(y, m):
                    return m * y > 2
                r, = reals
                bound = max(z.imag for z in zs) ** 2
                lowered = min((3 * x * x + 2 * b * x + 4 * c - b * b) / 4
                              for x in (r - w, r + w))
            assert premise(y0, bound), F
            assert y0 == 1 or not premise(y0 - 1, lowered), F
        checked += 1
    assert checked >= 150


def test_search_brackets_stay_within_the_evaluation_budget(monkeypatch):
    # the sporadic-table forms, whose brackets the theorem-range count of
    # test_cubic_evaluation_counts does not see: with Newton started from
    # the Newton-polygon root estimates, 33.53 exact cubic evaluations per
    # form at the width that settles every convergent up to y_bound 5000,
    # against 34.94 from the midpoints of the pieces
    count = [0]
    evaluate = roots.monic_cubic

    def counting(*args):
        count[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(roots, "monic_cubic", counting)
    table = [F for F, _, _ in MANY_SOLUTIONS_TABLE + SPORADIC_CLASSES_TABLE
             + DELONE_NAGELL_TABLE]
    for F in table:
        search._brackets(F, 5000)
    assert count[0] <= 34 * len(table), count[0] / len(table)


def test_search_decides_without_fractions(monkeypatch):
    # y0 is decided by integer cross-multiplication, like the scan and the
    # convergents: no Fraction is constructed anywhere in a search
    calls = []
    construct = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for y_bound in (1000, 10 ** 30):
        for t in range(-30, 31):
            thue_solutions_bruteforce(family_form(3, t), y_bound)
    verify_sporadic_tables(5000)
    assert calls == []
    # the count sees a construction when one happens
    roots.solution_interval(1, 10)
    assert calls


def test_convergents_stop_cleanly_past_the_bound():
    # [7; N, 2] and [7; N - 1, 2] disagree at index 1, on N - 1 against N,
    # so every real between them has its next q >= N - 1
    N = 10 ** 6
    lo, hi = 7 + 1 / Fraction(2 * N + 1, 2), 7 + 1 / Fraction(2 * N - 1, 2)
    ends = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    assert [(c.p, c.q) for c in lockstep_expansion(*ends, N - 2)] == [(7, 1)]
    with pytest.raises(PrecisionInsufficientError, match="partial quotient 1 "):
        list(lockstep_expansion(*ends, N - 1))
    # the reduction reads the same enclosure by the same rule
    enc = CertifiedReal.from_endpoints(lo, hi, 128)
    assert [(c.p, c.q) for c in continued_fraction_convergents(enc, 5000)] == [(7, 1)]


def test_search_brackets_settle_every_convergent():
    # the width lemma of `_brackets`: the expansion of no bracket of an
    # irrational root raises before y_bound, so each root is bracketed once
    tables = MANY_SOLUTIONS_TABLE + SPORADIC_CLASSES_TABLE + DELONE_NAGELL_TABLE
    cases = (_oracle_forms() + [family_form(3, t) for t in range(-60, 62)]
             + [F for F, _, _ in tables])
    expanded = 0
    for F in cases:
        _, b, c, d = F.coefficients
        for Y in (1, 5, 5000, 10 ** 30):
            for lo, hi, m in search._brackets(F, Y):
                if all(monic_cubic(b, c, d, n) for n in range(-(-lo // m), hi // m + 1)):
                    list(lockstep_expansion(lo, m, hi, m, Y))
                    expanded += 1
    assert expanded >= 3000
    # at the width 1/(2 Y^2 + 2) the search once asked for, the bracket of
    # theta3 of F_{3,2} leaves a quotient in dispute below Y = 5000
    Y = 5000
    lo, hi, m = isolate_real_roots_monic_cubic(-14, 24, 1, 1, 2 * Y * Y + 2)[2]
    with pytest.raises(PrecisionInsufficientError):
        list(lockstep_expansion(lo, m, hi, m, Y))


def test_deep_bounds_return_the_published_lists():
    # y_bound = 10^30 holds every published solution (|y| <= t^8 ~ 6.6e11);
    # t = 0 and t = 1 are the forms x^3 + y^3 and x^3 - xy^2 + y^3
    assert family_form(3, 1) == DELONE_NAGELL_TABLE[0][0]
    for t in range(-30, 31):
        assert verify_theorem(t, 10 ** 30), t
    counts = {r.form.coefficients: r.count for r in verify_sporadic_tables(10 ** 30)}
    for F, _, n_f in MANY_SOLUTIONS_TABLE + SPORADIC_CLASSES_TABLE + DELONE_NAGELL_TABLE:
        assert counts[F.coefficients] == n_f, F
    assert [counts[F.coefficients] for F, _, _ in MANY_SOLUTIONS_TABLE] == [9, 6, 6, 6, 6]
    assert [counts[F.coefficients] for F, _, _ in DELONE_NAGELL_TABLE] == [5, 4, 4]


def test_wrong_table_row_raises(monkeypatch):
    F, disc, n_f = DELONE_NAGELL_TABLE[0]
    monkeypatch.setattr(search, "DELONE_NAGELL_TABLE", ((F, disc + 1, n_f),))
    with pytest.raises(VerificationFailedError, match="discriminant -22"):
        verify_sporadic_tables(10)


def test_wrong_known_solution_raises(monkeypatch):
    monkeypatch.setattr(forms, "family_form", lambda i, t: BinaryCubicForm(1, 0, 0, 2))
    with pytest.raises(VerificationFailedError, match="not a solution at t=2"):
        forms.known_solutions(2)


def test_sporadic_tables_reports():
    reports = verify_sporadic_tables(y_bound=2000)
    assert all(r.to_json()["bounded_verification"] for r in reports)
    by_coeffs = {r.form.coefficients: r for r in reports}
    assert by_coeffs[(1, 0, -3, 1)].count >= 6
    assert by_coeffs[(1, 2, -5, 1)].count >= 6
    assert by_coeffs[(1, 1, -3, -1)].count >= 5
    assert by_coeffs[(1, 1, -3, -1)].form.discriminant() == 148


def test_sporadic_row_810661_is_a_family_member():
    row = BinaryCubicForm(1, 21, -1, -22)
    assert (row, 810661, 5) in SPORADIC_CLASSES_TABLE
    assert apply_gl2(family_form(3, -2), ((1, 1), (0, -1))) == row
    assert apply_gl2(family_form(4, 2), ((1, -1), (0, -1))) == row


def test_table_discriminants():
    for F, disc, _ in MANY_SOLUTIONS_TABLE + search.SPORADIC_CLASSES_TABLE + DELONE_NAGELL_TABLE:
        assert F.discriminant() == disc


def test_report_serialization_and_expectations():
    rep = thue_solutions_bruteforce(family_form(3, 2), 200)
    rec = rep.to_json()
    assert rec["schema"] == 1 and rec["count"] == rep.count
    bad = search.SearchReport(rep.form, rep.y_bound, rep.solutions,
                              expected_min_count=rep.count + 1)
    assert not bad.matches_expected
