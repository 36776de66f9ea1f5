import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cubicthue import cli, exponents, roots, search
from cubicthue.forms import BinaryCubicForm, discriminant, family_form, known_solutions
from cubicthue.errors import IndeterminateSignError, PrecisionInsufficientError
from cubicthue.realnum import CertifiedReal
from cubicthue.roots import (KAPPA_CLAIMS, isolate_real_roots_monic_cubic,
                             isolate_roots, kappa_envelope, kappa_t_only,
                             verify_kappas)
from oracles import contains, intervals_disjoint


def _reference_bisect(B, C, D, lo, hi, width):
    """Plain-Fraction bisection as the package did it before the integer
    Newton bracket: halve until at most `width` wide, centring a
    width/2 bracket on any exact zero met on the way."""
    f = lambda x: ((x + B) * x + C) * x + D
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return (lo - width / 4, lo + width / 4)
    if fhi == 0:
        return (hi - width / 4, hi + width / 4)
    if (flo < 0) == (fhi < 0):
        raise PrecisionInsufficientError("no sign change over bracket")
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return (mid - width / 4, mid + width / 4)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo, hi


def _as_fractions(bracket):
    """A bracket (N0, N1, M) of roots._bracket as the pair N0/M, N1/M."""
    N0, N1, M = bracket
    return Fraction(N0, M), Fraction(N1, M)


def _bracket_of(B, C, D, lo, hi, width):
    """roots._bracket on [lo, hi], written over the least common
    denominator of its ends, with the bracket as a pair of Fractions."""
    S = math.lcm(lo.denominator, hi.denominator)
    A = lo.numerator * (S // lo.denominator)
    delta = hi.numerator * (S // hi.denominator) - A
    return _as_fractions(roots._bracket(B, C, D, A, delta, S,
                                        width.numerator, width.denominator))


def _width(precision):
    return Fraction(1, 2 ** max(precision - 8, 32))


BRACKET_PRECISIONS = (180, 270, 540, 1080)


def _oracle_bisect(t, lo, hi, steps=320):
    """Independent plain-Fraction bisection, no package machinery."""
    _, B, C, D = family_form(3, t).coefficients
    f = lambda x: ((x + B) * x + C) * x + D
    flo = f(lo)
    assert flo != 0 and f(hi) != 0 and (flo < 0) != (f(hi) < 0)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if (f(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_theta2_window_t10():
    triple = isolate_roots(10)
    assert triple.theta2.lower > 10 + Fraction(1, 10 ** 5)
    assert triple.theta2.upper < 10 + Fraction(113, 10 ** 7)


def test_theta1_t10_against_bisection_oracle():
    # frozen from the oracle below: -1.00200300300e-5 to 11 digits
    oracle = _oracle_bisect(10, Fraction(-1, 10 ** 4), Fraction(0))
    assert abs(oracle + Fraction(100200300300, 10 ** 16)) < Fraction(1, 10 ** 16)
    th1 = isolate_roots(10).theta1
    assert abs(th1.midpoint - oracle) < Fraction(1, 10 ** 60)


def test_vieta_product_t2():
    triple = isolate_roots(2)
    prod = triple.theta1 * triple.theta2 * triple.theta3
    assert contains(prod, -1)


def test_roots_ordered_disjoint():
    for t in (2, 3, 9, 10, 11, 50, 576241):
        tr = isolate_roots(t)
        assert tr.theta1.upper < tr.theta2.lower < tr.theta2.upper < tr.theta3.lower


def test_roots_window_claims():
    for t in (10, 100, 5000):
        tr = isolate_roots(t)
        t5, t8 = Fraction(t) ** 5, Fraction(t) ** 8
        assert -Fraction(113, 100) / t5 < tr.theta1.lower and tr.theta1.upper < 0
        assert t < tr.theta2.lower and tr.theta2.upper < t + Fraction(113, 100) / t5
        assert t ** 4 - 2 * t - Fraction(113, 100) / t8 < tr.theta3.lower
        assert tr.theta3.upper < t ** 4 - 2 * t


def test_roots_resubstitute_contains_zero():
    for t in (2, 5, 10, 137):
        _, B, C, D = family_form(3, t).coefficients
        for th in isolate_roots(t).thetas:
            val = ((th + B) * th + C) * th + D
            assert val.contains_zero()


def test_isolate_roots_rejects_degenerate_t():
    for t in (0, 1):
        with pytest.raises(ValueError):
            isolate_roots(t)


def test_kappa_examples_t_only():
    tr10 = isolate_roots(10)
    k6 = kappa_t_only(6, 10, tr10)
    assert Fraction(3) < k6.lower and k6.upper < Fraction(301, 100)
    k10 = kappa_t_only(10, 10, tr10)
    assert Fraction(49, 10) < k10.lower and k10.upper < 5
    k16 = kappa_t_only(16, 100, isolate_roots(100))
    assert Fraction(-1, 10) < k16.lower and k16.upper < Fraction(1, 10)


def test_kappa_examples_envelope():
    tr10 = isolate_roots(10)
    k4 = kappa_envelope(4, 10, tr10)
    assert Fraction(18, 10) < k4.lower and k4.upper < Fraction(22, 10)
    k8 = kappa_envelope(8, 50, isolate_roots(50))
    assert 0 < k8.lower and k8.upper < Fraction(31, 10)
    k14 = kappa_envelope(14, 10, tr10)
    assert Fraction(259, 10) < k14.lower and k14.upper < Fraction(266, 10)


def test_kappa_index_routing():
    tr10 = isolate_roots(10)
    with pytest.raises(ValueError):
        kappa_t_only(4, 10, tr10)
    with pytest.raises(ValueError):
        kappa_envelope(6, 10, tr10)
    with pytest.raises(ValueError):
        kappa_t_only(6, 9, isolate_roots(9))


def test_verify_kappas_small_and_extreme():
    for t in (10, 576241, 10 ** 7):
        rep = verify_kappas(t)
        assert rep.all_pass, [r.j for r in rep.rows if not r.passed]
        assert len(rep.rows) == 16


def test_verify_kappas_rejects_small_t():
    with pytest.raises(ValueError):
        verify_kappas(9)


def test_kappa_asymptotic_midpoints():
    limits = {1: 3, 5: 8, 10: 5}
    for j, limit in limits.items():
        gaps = []
        for t in (10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6):
            enc = kappa_t_only(j, t, isolate_roots(t))
            gaps.append(abs(enc.midpoint - limit))
        for wide, narrow in zip(gaps, gaps[1:]):
            assert narrow < wide


def _assert_kappa_lines(t, precision):
    """The kappa worker's lines at t: one per row, each the text
    json.dumps(record, sort_keys=True) gives, with the row's j,
    endpoints, target and verdict."""
    rep = verify_kappas(t, precision)
    text, t_out, all_pass, error = cli._kappa_report_row(t, precision, None)
    assert (t_out, all_pass, error) == (t, rep.all_pass, None)
    lines = text.splitlines()
    assert len(lines) == 16 and text.endswith("\n")
    for line, row in zip(lines, rep.rows):
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True)
        assert rec == {"schema": 1, "t": t, "kappa": row.j,
                       "lower": float(row.enclosure.lower), "upper": float(row.enclosure.upper),
                       "target": [float(row.target[0]), float(row.target[1])],
                       "pass": row.passed}
    return rep


def test_kappa_report_serialization(monkeypatch):
    for t, precision in [(t, None) for t in (10, 11, 2000, 2001, 576241, 10 ** 6)] + [(10, 64)]:
        assert _assert_kappa_lines(t, precision).all_pass
    # a target moved above the enclosure, as the strict-verdict test moves
    # it, fails its row, and the line carries the moved target
    row = verify_kappas(11).rows[4]
    hi = row.enclosure.upper
    monkeypatch.setitem(KAPPA_CLAIMS, row.j, KAPPA_CLAIMS[row.j]._replace(target=(hi, hi + 1)))
    rep = _assert_kappa_lines(11, None)
    assert [r.passed for r in rep.rows] == [r.j != row.j for r in rep.rows]


def test_intervals_disjoint_sampled():
    for t in (10, 11, 100, 576241):
        assert intervals_disjoint(t)
        assert intervals_disjoint(t, y_abs=5)


def _reference_intervals(t, y_abs):
    """I_1, I_2, I_3 as the package wrote them out before they had one
    definition (the kappa hulls took 1 - 1/|y|^3 = 7/8)."""
    c113 = Fraction(113, 100)
    cy = 1 - Fraction(1, y_abs ** 3)
    t5, t8 = Fraction(t) ** 5, Fraction(t) ** 8
    return ((-c113 / t5, -cy / t5), (t + cy / t5, t + c113 / t5),
            (t ** 4 - 2 * t - c113 / t8, t ** 4 - 2 * t - cy / t8))


def test_solution_interval_is_the_one_definition():
    for t in (10, 11, 100, 2000, 576241, 10 ** 7):
        for y_abs in (2, 3, 5, 10 ** 4):
            want = _reference_intervals(t, y_abs)
            got = tuple(roots.solution_interval(w, t, y_abs) for w in (1, 2, 3))
            assert got == want
            assert all(type(e) is Fraction for iv in got for e in iv)
            (_, sup1), (inf2, sup2), (inf3, _) = want
            assert intervals_disjoint(t, y_abs) == (sup1 < inf2 < sup2 < inf3)
        hull = tuple(roots.solution_interval(w, t) for w in (1, 2, 3))
        assert hull == _reference_intervals(t, 2)
        assert hull[0][1] == -Fraction(7, 8) / Fraction(t) ** 5
    with pytest.raises(ValueError):
        roots.solution_interval(4, 10)


def test_kappa_targets_cover_all_sixteen():
    assert list(KAPPA_CLAIMS) == list(range(1, 17))
    assert roots.T_ONLY_KAPPAS == tuple(j for j, c in KAPPA_CLAIMS.items() if c.which is None)
    assert all(c.which in (None, 1, 2, 3) for c in KAPPA_CLAIMS.values())
    assert {j: c.which for j, c in KAPPA_CLAIMS.items() if c.which} == {4: 1, 7: 1, 8: 2,
                                                                       11: 2, 14: 3}
    assert all(type(lo) is type(hi) is Fraction and lo < hi
               for lo, hi in (c.target for c in KAPPA_CLAIMS.values()))


def test_bisect_detects_missing_sign_change():
    with pytest.raises(PrecisionInsufficientError):
        roots._bracket(0, 0, 1, 1, 1, 1, 1, 100)


def test_generic_isolation_small_t():
    # 2 <= t < 10 goes through full-range critical-point splitting
    for t in (2, 3, 7, 9, -1, -5):
        tr = isolate_roots(t)
        _, B, C, D = family_form(3, t).coefficients
        for th in tr.thetas:
            assert (((th + B) * th + C) * th + D).contains_zero()


def _assert_isolates_all(B, C, D, width, expected):
    brackets = _monic_brackets(B, C, D, width)
    assert len(brackets) == expected, (B, C, D, brackets)
    f = lambda x: ((x + B) * x + C) * x + D
    for (lo, hi), (nxt, _) in zip(brackets, brackets[1:] + [(None, None)]):
        assert hi - lo <= width
        assert f(lo) * f(hi) < 0 or f((lo + hi) / 2) == 0
        assert nxt is None or hi < nxt


def test_isolation_separates_two_roots_in_one_critical_zone():
    # roots ~ -0.616 and -0.462 both lie in the isqrt bracket [-2/3, -1/3]
    # of the critical point ~ -0.53, where P keeps one sign
    _assert_isolates_all(-27, -30, -8, Fraction(1, 2 ** 20), 3)


def test_isolation_finds_every_distinct_real_root():
    rng = random.Random(7)
    for _ in range(400):
        if rng.random() < 0.5:
            # close roots: a product of linear factors, shifted slightly
            r = [rng.randrange(-40, 41) for _ in range(3)]
            B, C, D = (-sum(r), r[0] * r[1] + r[0] * r[2] + r[1] * r[2],
                       -r[0] * r[1] * r[2] + rng.randrange(-3, 4))
        else:
            B, C, D = (rng.randrange(-60, 61) for _ in range(3))
        disc = discriminant(BinaryCubicForm(1, B, C, D))
        if disc < 0:
            expected = 1
        elif disc > 0:
            expected = 3
        else:
            expected = len({x for x in range(-200, 201) if ((x + B) * x + C) * x + D == 0})
        _assert_isolates_all(B, C, D, Fraction(1, 2 ** 30), expected)


def _series_windows(t):
    """The isolating windows of theta1, theta2, theta3 for t >= 10."""
    t5, t8 = Fraction(t) ** 5, Fraction(t) ** 8
    return [(-2 / t5, Fraction(0)), (Fraction(t), t + 2 / t5),
            (t ** 4 - 2 * t - 2 / t8, Fraction(t ** 4 - 2 * t))]


@pytest.mark.parametrize("t", (10, 11, 137, 2000, 576241, 10 ** 7))
def test_bisect_matches_reference_on_series_windows(t):
    _, B, C, D = family_form(3, t).coefficients
    for precision in BRACKET_PRECISIONS:
        width = _width(precision)
        for lo, hi in _series_windows(t):
            assert _bracket_of(B, C, D, lo, hi, width) == \
                _reference_bisect(B, C, D, lo, hi, width), (t, precision, lo)


# rungs of the reduction's ladder (540 bits its default at Q = 10^60,
# 135-1080 from capped starts, 4584 the larger-Q rung) and the kappa
# default (None)
SERIES_PRECISIONS = (135, 180, 270, None, 540, 720, 1080, 4584)
_rng = random.Random(13)
SERIES_TS = [10, 11, 2000, 576241, 10 ** 7] + [_rng.randrange(10, 10 ** 7 + 1)
                                               for _ in range(60)]
del _rng


def test_isolate_roots_matches_bisect_on_series_windows():
    """The integer path of isolate_roots gives each enclosure the bits
    from_endpoints gives the bracket _bracket finds in the same window,
    as a pair of Fractions."""
    for t in SERIES_TS:
        _, B, C, D = family_form(3, t).coefficients
        for precision in SERIES_PRECISIONS:
            tr = isolate_roots(t, precision)
            width = _width(tr.precision)
            for th, (lo, hi) in zip(tr.thetas, _series_windows(t)):
                want = CertifiedReal.from_endpoints(
                    *_bracket_of(B, C, D, lo, hi, width), tr.precision)
                assert (th._ival, th.precision) == (want._ival, want.precision), \
                    (t, precision, lo)


def test_theta1_bracket_width_is_the_series_cell(monkeypatch):
    """`series_cell_halvings` gives the number of halvings that
    isolate_roots applies to theta1's window: its bracket is exactly
    2 / (t^5 2^K) wide, and lies inside [-2/t^5, 0]."""
    brackets, bracket = [], roots._bracket
    monkeypatch.setattr(roots, "_bracket",
                        lambda *args: brackets.append(bracket(*args)) or brackets[-1])
    for t in SERIES_TS:
        for precision in (64, 113, 226, 340, 452):
            brackets.clear()
            isolate_roots(t, precision)
            N0, N1, M = brackets[0]
            K = roots.series_cell_halvings(t, precision)
            assert Fraction(N1 - N0, M) == Fraction(2, t ** 5 << K), (t, precision)
            assert -2 * M <= N0 * t ** 5 and N1 <= 0


# the most exact cubic evaluations (Newton's and the certificate's) one
# series window of SERIES_TS needs at each of SERIES_PRECISIONS; a
# level-by-level doubling schedule averages 12 at 540 bits
MAX_WINDOW_EVALUATIONS = {135: 7, 180: 8, 270: 8, None: 8, 540: 9, 720: 10,
                          1080: 10, 4584: 12}


def test_series_windows_take_the_newton_path(monkeypatch):
    count, counts = [0], []
    evaluate, bracket = roots.monic_cubic, roots._bracket

    def counting(*args):
        count[0] += 1
        return evaluate(*args)

    def window(*args):
        count[0] = 0
        out = bracket(*args)
        counts.append(count[0])
        return out

    def no_fallback(*args):
        raise AssertionError("a series window fell back to integer bisection")

    monkeypatch.setattr(roots, "monic_cubic", counting)
    monkeypatch.setattr(roots, "_bracket", window)
    monkeypatch.setattr(roots, "_bisection_index", no_fallback)
    for precision in SERIES_PRECISIONS:
        counts.clear()
        for t in SERIES_TS:
            isolate_roots(t, precision)
        assert len(counts) == 3 * len(SERIES_TS)
        assert max(counts) <= MAX_WINDOW_EVALUATIONS[precision], precision


def test_cubic_evaluation_counts(monkeypatch):
    """Evaluation counts, not timings, guard the root isolation's cost.
    Each count is of every exact cubic evaluation (`monic_cubic` call):
    Newton's, the certificate's and the critical-point cuts'.  Newton
    runs on the final grid from its start: on the series windows from the
    roots' series in 1/t, at most 4.5 per root at the reduction's 340
    bits; on the critical-point pieces from the Newton-polygon estimates,
    at most 10.2 per root for `isolate_roots` over t in [-30, 9] at 340
    bits and 24.3 per form for the search over the theorem range at
    y_bound 1000."""
    count = [0]
    evaluate = roots.monic_cubic

    def counting(*args):
        count[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(roots, "monic_cubic", counting)
    rng = random.Random(41)
    ts = [*range(10, 1001), *(rng.randrange(1001, 576242) for _ in range(200))]
    for t in ts:
        isolate_roots(t, 340)
    assert 10 * count[0] <= 45 * 3 * len(ts), count[0] / (3 * len(ts))
    count[0] = 0
    ts = [t for t in range(-30, 10) if t not in (0, 1)]
    for t in ts:
        isolate_roots(t, 340)
    assert 10 * count[0] <= 102 * 3 * len(ts), count[0] / (3 * len(ts))
    count[0] = 0
    forms = [family_form(3, t) for t in range(-30, 31) if t not in (0, 1)]
    for F in forms:
        search._brackets(F, 1000)
    assert 10 * count[0] <= 243 * len(forms), count[0] / len(forms)


def test_bisect_exact_root_at_grid_midpoint():
    # (x - 1)(x^2 + x + 1) = x^3 - 1 vanishes at the first midpoint of [0, 2]
    w = Fraction(1, 2 ** 40)
    got = _as_fractions(roots._bracket(0, 0, -1, 0, 2, 1, 1, 2 ** 40))
    assert got == (1 - w / 4, 1 + w / 4)
    assert got == _reference_bisect(0, 0, -1, Fraction(0), Fraction(2), w)
    # (x - 3)(x^2 + 1) vanishes at the second-level midpoint of [0, 4]
    got = _as_fractions(roots._bracket(-3, 1, -3, 0, 4, 1, 1, 2 ** 40))
    assert got == (3 - w / 4, 3 + w / 4)
    # (x - 2)^2 (x + 1) has its double root 2 on a cut of the critical-
    # point splitting, and the simple root -1 between the cuts -5 and -1/3
    got = _monic_brackets(-3, 0, 4, w)
    assert got == [_reference_bisect(-3, 0, 4, Fraction(-5), Fraction(-1, 3), w),
                   (2 - w / 4, 2 + w / 4)]


def test_bisect_window_with_three_roots_replays_bisection():
    # not monotone on the window, so the integer bisection decides
    _, B, C, D = family_form(3, 2).coefficients
    lo, hi = Fraction(-1000), Fraction(1001, 3)
    for precision in (100, 540):
        width = _width(precision)
        assert _bracket_of(B, C, D, lo, hi, width) == \
            _reference_bisect(B, C, D, lo, hi, width)


def test_bisect_falls_back_when_newton_misses(monkeypatch):
    monkeypatch.setattr(roots, "_newton_index", lambda *args: 0)
    _, B, C, D = family_form(3, 137).coefficients
    lo, hi = Fraction(137), 137 + 2 / Fraction(137) ** 5
    width = _width(270)
    assert _bracket_of(B, C, D, lo, hi, width) == \
        _reference_bisect(B, C, D, lo, hi, width)


@pytest.mark.parametrize("lo, hi, index", [
    # the root 2^(1/3) = 1.2599... lies just right of [1, 5/4], and just
    # left of [63/50, 3/2]; the cell one step outside holds it
    (Fraction(1), Fraction(5, 4), lambda k: 1 << k),
    (Fraction(63, 50), Fraction(3, 2), lambda k: -(1 << k)),
])
def test_bisect_keeps_newton_inside_the_window(monkeypatch, lo, hi, index):
    # x^3 - 2 rises on either window; an index Newton returns outside it
    # must not certify the sign change next to it
    monkeypatch.setattr(roots, "_newton_index",
                        lambda B, C, D, A, delta, S, neg, k, start=None: index(k))
    with pytest.raises(PrecisionInsufficientError, match="no sign change"):
        _bracket_of(0, 0, -2, lo, hi, hi - lo)


def test_bracket_does_not_depend_on_the_newton_start(monkeypatch):
    # the windows critical-point splitting hands _bracket, at the small t
    # and for seeded random cubics, half of them with an integer root;
    # each window's bracket is the Fraction bisection's, from every start,
    # the splitting's own among them
    windows, bracket = [], roots._bracket
    monkeypatch.setattr(roots, "_bracket",
                        lambda *args: windows.append(args) or bracket(*args))
    # the slope sign of each window that reaches _bisection_index: 0 when
    # P is not known to be monotone there, else the certificate failed
    slopes, reached = [], []
    slope_sign, bisection_index = roots._slope_sign, roots._bisection_index
    monkeypatch.setattr(roots, "_slope_sign",
                        lambda *args: slopes.append(slope_sign(*args)) or slopes[-1])
    monkeypatch.setattr(roots, "_bisection_index",
                        lambda *args: reached.append(slopes[-1]) or bisection_index(*args))
    for t in (2, 3, 7, 9, -1, -5):
        for precision in BRACKET_PRECISIONS:
            isolate_roots(t, precision)
    assert len(windows) == 6 * len(BRACKET_PRECISIONS) * 3
    rng = random.Random(29)
    integer_root = {}
    for _ in range(300):
        if rng.random() < 0.5:
            r, p, q = (rng.randrange(-50, 51) for _ in range(3))
            B, C, D = p - r, q - r * p, -r * q
            integer_root[B, C, D] = r
        else:
            B, C, D = (rng.randrange(-10 ** 6, 10 ** 6 + 1) for _ in range(3))
        isolate_real_roots_monic_cubic(B, C, D, 1, 2 ** rng.choice((20, 64, 200)))
    on_root = zero_slope = failed_certificate = 0
    for B, C, D, A, delta, S, wn, wd, *given in windows:
        j = rng.randrange(80)
        inside = ((A << j) + rng.randrange(1, delta << j), S << j)
        starts = [*given, inside, (A - delta, S), (A + 2 * delta, S), (A, S), (A + delta, S)]
        r = integer_root.get((B, C, D))
        if r is not None and A <= r * S <= A + delta:
            starts.append((r, 1))
            on_root += 1
        reached.clear()
        want = bracket(B, C, D, A, delta, S, wn, wd)
        zero_slope += reached == [0]
        failed_certificate += reached not in ([], [0])
        assert _as_fractions(want) == _reference_bisect(
            B, C, D, Fraction(A, S), Fraction(A + delta, S), Fraction(wn, wd)), (B, C, D, A)
        for start in starts:
            assert bracket(B, C, D, A, delta, S, wn, wd, start) == want, (B, C, D, A, start)
    assert len(windows) >= 500 and on_root >= 50
    # measured: 7 and 5 of 834 windows
    assert zero_slope >= 1 and failed_certificate >= 1, (zero_slope, failed_certificate)


def test_bisect_short_window_is_returned_as_is():
    _, B, C, D = family_form(3, 10).coefficients
    lo, hi = -Fraction(2, 10 ** 5), Fraction(0)
    assert _bracket_of(B, C, D, lo, hi, Fraction(1)) == (lo, hi)


@pytest.mark.parametrize("t, precision", [(10, None), (11, None), (1999, None),
                                          (576241, None), (10 ** 7, None), (1991, 100)])
def test_verify_kappas_rows_match_the_per_kappa_functions(monkeypatch, t, precision):
    # targets that hold every enclosure, so that a wide one at 100 bits
    # gives its row instead of straddling its target
    for j, claim in KAPPA_CLAIMS.items():
        monkeypatch.setitem(KAPPA_CLAIMS, j, claim._replace(target=(-2 ** 4096, 2 ** 4096)))
    rep = verify_kappas(t, precision)
    tr = isolate_roots(t, precision)
    for row in rep.rows:
        if row.j in roots.T_ONLY_KAPPAS:
            want = kappa_t_only(row.j, t, tr)
        else:
            want = kappa_envelope(row.j, t, tr)
        assert (row.enclosure._ival, row.enclosure.precision) == (want._ival, want.precision)


def test_kappa_verdicts_are_strict_on_both_sides(monkeypatch):
    # a target that ends exactly on an enclosure endpoint, on the inside,
    # decides neither way; one that starts or stops there, on the outside,
    # fails its row; and one a hair wider on both sides passes
    hair = Fraction(1, 2 ** 2000)
    for row in verify_kappas(10).rows:
        lo, hi = row.enclosure.lower, row.enclosure.upper
        # the passing target last, as it stays in the table for the next rows
        for target, want in (((hi, hi + 1), False), ((lo - 1, lo), False), ((lo, hi + 1), lo),
                             ((lo - 1, hi), hi), ((lo - hair, hi + hair), True)):
            monkeypatch.setitem(KAPPA_CLAIMS, row.j, KAPPA_CLAIMS[row.j]._replace(target=target))
            if isinstance(want, bool):
                assert verify_kappas(10).rows[row.j - 1].passed is want, (row.j, target)
                continue
            with pytest.raises(IndeterminateSignError) as exc:
                verify_kappas(10)
            assert str(exc.value).startswith("kappa_%d's enclosure [%.6g, %.6g] at t=10 holds "
                                             "its target's end %g (" % (row.j, lo, hi, want))


def test_a_straddled_kappa_target_is_undecided():
    # at 100 bits kappa_3's enclosure at t = 59 holds 5, the lower end of
    # its target (5, 5.02); at the default precision it lies inside
    with pytest.raises(IndeterminateSignError,
                       match=r"kappa_3's enclosure \[4\.99996, 5\.00036\] at t=59 holds "
                             r"its target's end 5 \(100 bits\)"):
        verify_kappas(59, 100)
    assert verify_kappas(59).all_pass


def test_verify_kappas_shares_roots_endpoints_and_ln_t(monkeypatch):
    t = 1500
    isolations, intervals, logs = [], [], []
    isolate, interval, log = roots.isolate_roots, roots.solution_interval, CertifiedReal.log

    def counting_isolate(*args):
        isolations.append(args)
        return isolate(*args)

    def counting_interval(*args):
        intervals.append(args)
        return interval(*args)

    def counting_log(self):
        logs.append(self._ival)
        return log(self)

    monkeypatch.setattr(roots, "isolate_roots", counting_isolate)
    monkeypatch.setattr(roots, "solution_interval", counting_interval)
    monkeypatch.setattr(CertifiedReal, "log", counting_log)
    assert verify_kappas(t).all_pass
    assert len(isolations) == 1
    assert intervals == [(w, t) for w in (1, 2, 3)]
    T = CertifiedReal.from_rational(t, roots.default_precision(t))
    assert logs.count(T._ival) == 1
    # operation counts, not timings, guard the cost: ln t, the six t-only
    # logs, and one for each of kappa_7, kappa_11 and kappa_14 on its ratio
    # hull (13 when each envelope took the log at both endpoint ratios)
    assert len(logs) == 10
    # exponent recovery forms the determinant of the unit logs once per t
    # and precision, not once per solution; and the factors |theta_i| and
    # |t - theta_i| of (0, 1) and (t, 1) are the unit logs' arguments, so
    # the five recoveries take the four unit logs and two for each of the
    # other three solutions (14 when every solution took its own two)
    logs.clear()
    products = []
    mul = CertifiedReal.__mul__

    def counting_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(CertifiedReal, "__mul__", counting_mul)
    exponents._unit_logs.cache_clear()
    sols = known_solutions(57).solutions
    for x, y in sols:
        exponents.recover_exponents(57, x, y)
    _, u, v, _, _ = exponents._unit_logs(57, exponents.RECOVERY_PRECISION)
    is_unit_log = lambda x: any(x is w for w in (*u, *v))
    assert len(sols) == 5
    assert len(logs) == 10
    # products of two unit logs: the determinant's two, formed once, and
    # the four of the solve for each of (0, 1) and (t, 1), whose logs are
    # unit logs (a determinant per solution would make 18)
    assert sum(is_unit_log(a) and is_unit_log(b) for a, b in products) == 10


# -- envelopes from the two endpoints of each solution interval ----------

def _kappa_sample():
    """t in [10, 59], 200 seeded t in [2001, 576241], 576241, 10^6, 10^7."""
    return [*range(10, 60), *random.Random(11).sample(range(2001, 576242), 200),
            576241, 10 ** 6, 10 ** 7]


# sha256 of the t-only rows over _kappa_sample(), one json.dumps([t, j,
# str(lower), str(upper)]) per row, as the 16-piece engine wrote them
T_ONLY_DIGEST = "f6ba4a253e28db3b914a99e1d80998402a1429af33e3ce901a7371fe83bda560"
# the same of the envelope rows, as the engine wrote them when it hulled
# each envelope kappa's values at the two endpoint ratios
ENVELOPE_DIGEST = "940136845dae1a50c57b7fd86d5b87a799d7e43b1bee2aefb87e8b635dc634e6"


def _ratio(which, k, r):
    if which == 1:
        return (r - k.th3) / (r - k.th2)
    if which == 2:
        return (k.th3 - r) / (r - k.th1)
    return (r - k.th1) / (r - k.th2)


def _sixteen_piece_envelope(j, t, triple):
    """kappa_j hulled over 16 equal pieces of I_which, each piece an
    interval operand as from_endpoints encloses it: the envelope as the
    package formed it before the endpoint argument, bit for bit."""
    which, expr = KAPPA_CLAIMS[j].which, KAPPA_CLAIMS[j].expr
    k = roots._KappaTerms(t, triple)
    lo, hi = roots.solution_interval(which, t)
    step = (hi - lo) / 16
    pieces = [CertifiedReal.from_endpoints(lo + i * step, lo + (i + 1) * step, k.prec)
              for i in range(16)]
    return CertifiedReal.hull(expr(k, _ratio(which, k, r)) for r in pieces)


def test_endpoint_envelopes_lie_inside_the_sixteen_piece_oracle():
    digest, envelope_digest = hashlib.sha256(), hashlib.sha256()
    for t in _kappa_sample():
        rep = verify_kappas(t)
        assert rep.all_pass, (t, [r.j for r in rep.rows if not r.passed])
        tr = isolate_roots(t)
        for row in rep.rows:
            enc = row.enclosure
            line = json.dumps([t, row.j, str(enc.lower), str(enc.upper)]).encode()
            if row.j in roots.T_ONLY_KAPPAS:
                want = kappa_t_only(row.j, t, tr)
                assert (enc._ival, enc.precision) == (want._ival, want.precision)
                digest.update(line)
            else:
                oracle = _sixteen_piece_envelope(row.j, t, tr)
                assert oracle.lower <= enc.lower and enc.upper <= oracle.upper, (t, row.j)
                envelope_digest.update(line)
    assert digest.hexdigest() == T_ONLY_DIGEST
    assert envelope_digest.hexdigest() == ENVELOPE_DIGEST


@pytest.mark.parametrize("t", (10, 11, 2000, 576241, 10 ** 7))
def test_kappa_at_interior_points_lies_inside_the_envelope(t):
    tr = isolate_roots(t)
    k = roots._KappaTerms(t, tr)
    envelope_kappas = [(j, c.which) for j, c in KAPPA_CLAIMS.items() if c.which is not None]
    for j, which in envelope_kappas:
        env = kappa_envelope(j, t, tr)
        lo, hi = roots.solution_interval(which, t)
        for i in range(1, 9):
            r = CertifiedReal.from_rational(lo + i * (hi - lo) / 9, k.prec)
            point = KAPPA_CLAIMS[j].expr(k, _ratio(which, k, r))
            assert env.lower <= point.lower and point.upper <= env.upper, (j, i)


def _pole_triple(which, overlap):
    """The roots of t = 16 with the pole of the I_which ratio (theta2 on
    I_1 and I_3, theta1 on I_2) replaced by an enclosure that overlaps
    the inside of I_which, or that ends on the endpoint of I_which with
    the offset 7/8 = 1 - 1/2^3: at t = 16 that endpoint is dyadic, so an
    enclosure can end exactly on it."""
    tr = isolate_roots(16)
    lo, hi = roots.solution_interval(which, 16)
    w = hi - lo
    if overlap:
        pole = CertifiedReal.from_endpoints(lo + w / 3, lo + 2 * w / 3, tr.precision)
    elif which == 2:
        pole = CertifiedReal.from_endpoints(lo - w, lo, tr.precision)
        assert pole.upper == lo
    else:
        pole = CertifiedReal.from_endpoints(hi, hi + w, tr.precision)
        assert pole.lower == hi
    return dataclasses.replace(tr, **{"theta1" if which == 2 else "theta2": pole})


@pytest.mark.parametrize("overlap", (False, True))
@pytest.mark.parametrize("which", (1, 2, 3))
def test_envelope_refuses_a_pole_that_meets_the_interval(which, overlap):
    triple = _pole_triple(which, overlap)
    for j, claim in KAPPA_CLAIMS.items():
        if claim.which == which:
            with pytest.raises(IndeterminateSignError, match="pole of the I_%d ratio" % which):
                kappa_envelope(j, 16, triple)


@pytest.mark.parametrize("overlap", (False, True))
def test_verify_kappas_refuses_a_pole_that_meets_the_interval(overlap, monkeypatch):
    # theta2 moved up to I_3 leaves every t-only kappa formable, so the
    # pole test is the one that refuses
    triple = _pole_triple(3, overlap)
    monkeypatch.setattr(roots, "isolate_roots", lambda t, precision=None: triple)
    with pytest.raises(IndeterminateSignError, match="pole of the I_3 ratio"):
        verify_kappas(16)


# -- byte goldens of the root brackets -----------------------------------

ROOT_GOLDEN = Path(__file__).parent / "data" / "root_brackets_digest.json"
GOLDEN_PRECISIONS = (64, 200, 320, 540, 1080)
# the widths 1/(2 Y^2 + 2) the search asks for at Y = 10 and Y = 10^30,
# and one whose numerator is not 1
GOLDEN_WIDTHS = (Fraction(1, 202), Fraction(7, 2 ** 45), Fraction(1, 2 * 10 ** 60 + 2))


def _monic_brackets(B, C, D, width):
    """isolate_real_roots_monic_cubic as pairs of Fractions."""
    return [_as_fractions(br) for br in
            isolate_real_roots_monic_cubic(B, C, D, width.numerator, width.denominator)]


def _golden_forms():
    """Every sporadic table form and every form F_{3,t}, t in [-30, 30]."""
    tables = search.MANY_SOLUTIONS_TABLE + search.SPORADIC_CLASSES_TABLE + \
        search.DELONE_NAGELL_TABLE
    return [F for F, _, _ in tables] + [family_form(3, t) for t in range(-30, 31)]


def _root_enclosures_digest(ts, precisions):
    """sha256 over the exact enclosure endpoints of isolate_roots(t, p)."""
    h = hashlib.sha256()
    for t in ts:
        for precision in precisions:
            tr = isolate_roots(t, precision)
            h.update(json.dumps([t, tr.precision, [[str(th.lower), str(th.upper)]
                                                   for th in tr.thetas]]).encode())
    return h.hexdigest()


def test_small_t_root_enclosures_match_the_golden():
    """The exact enclosure endpoints isolate_roots gives for t < 10,
    where the roots come from critical-point splitting."""
    ts = [t for t in range(-30, 10) if t not in (0, 1)]
    assert _root_enclosures_digest(ts, GOLDEN_PRECISIONS) == \
        json.loads(ROOT_GOLDEN.read_text())["isolate_roots_sha256"]


# the reduction's rungs at Q = 10^30 and 10^60 (340 and 452 bits), their
# halves and quarters from capped starts, the larger-Q rung (2984 bits)
# and the kappa default (None)
GOLDEN_SERIES_PRECISIONS = (113, 170, 226, 340, 452, 2984, None)


def test_series_window_root_enclosures_match_the_golden():
    """The exact enclosure endpoints isolate_roots gives for t >= 10,
    where each root is bracketed in its series window."""
    rng = random.Random(26)
    ts = [*range(10, 201), *sorted(rng.randrange(10, 576242) for _ in range(200)), 10 ** 6]
    assert _root_enclosures_digest(ts, GOLDEN_SERIES_PRECISIONS) == \
        json.loads(ROOT_GOLDEN.read_text())["series_roots_sha256"]


def test_monic_cubic_brackets_match_the_golden():
    h = hashlib.sha256()
    for F in _golden_forms():
        _, B, C, D = F.coefficients
        for width in GOLDEN_WIDTHS:
            brackets = _monic_brackets(B, C, D, width)
            h.update(json.dumps([[B, C, D], str(width),
                                 [[str(lo), str(hi)] for lo, hi in brackets]]).encode())
    assert h.hexdigest() == json.loads(ROOT_GOLDEN.read_text())["monic_brackets_sha256"]
