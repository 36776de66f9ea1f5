import random

import numpy as np
import pytest

from cubicthue import search
from cubicthue.forms import BinaryCubicForm, evaluate, family_form
from cubicthue.search import (DELONE_NAGELL_TABLE, MANY_SOLUTIONS_TABLE,
                              thue_solutions_bruteforce, verify_sporadic_tables,
                              verify_theorem)


def test_bruteforce_delone_nagell_example():
    rep = thue_solutions_bruteforce(BinaryCubicForm(1, 0, -1, 1), 100)
    assert rep.solutions == ((-1, 1), (0, 1), (1, 0), (1, 1), (4, -3))
    for (x, y) in rep.solutions:
        assert evaluate(rep.form, x, y) == 1


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
    # completeness of the bounded search against a full scan
    xs = np.arange(-10 ** 6, 10 ** 6 + 1, dtype=np.int64)
    x3 = xs * xs * xs
    x2 = xs * xs
    for F, _, _ in MANY_SOLUTIONS_TABLE:
        found = []
        for y in range(-50, 51):
            vals = x3 + F.b * y * x2 + F.c * y * y * xs + F.d * y ** 3
            for x in xs[vals == 1]:
                found.append((int(x), y))
        rep = thue_solutions_bruteforce(F, 50)
        narrowed = [(x, y) for (x, y) in rep.solutions if abs(x) <= 10 ** 6]
        assert sorted(found) == sorted(narrowed)


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


def test_sporadic_tables_reports():
    reports = verify_sporadic_tables(y_bound=2000)
    assert all(r.bounded_verification for r in reports)
    by_coeffs = {r.form.coefficients: r for r in reports}
    assert by_coeffs[(1, 0, -3, 1)].count >= 6
    assert by_coeffs[(1, 2, -5, 1)].count >= 6
    assert by_coeffs[(1, 1, -3, -1)].count >= 5
    assert by_coeffs[(1, 1, -3, -1)].form.discriminant() == 148


def test_table_discriminants():
    for F, disc, _ in MANY_SOLUTIONS_TABLE + search.SPORADIC_CLASSES_TABLE + DELONE_NAGELL_TABLE:
        assert F.discriminant() == disc


def test_report_serialization_and_expectations():
    rep = thue_solutions_bruteforce(family_form(3, 2), 200)
    rec = rep.to_json()
    assert rec["schema"] == 1 and rec["count"] == rep.count
    expect = search.SearchReport(rep.form, rep.y_bound, rep.solutions,
                                 expected_set=rep.solutions)
    assert expect.matches_expected
    bad = search.SearchReport(rep.form, rep.y_bound, rep.solutions,
                              expected_min_count=rep.count + 1)
    assert not bad.matches_expected
