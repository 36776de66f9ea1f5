"""End-to-end acceptance gate.  Each test emits a single PASS/FAIL line
(visible with pytest -s or in captured output on failure)."""

import json
import math
import os
import random
import sys
from fractions import Fraction

from cubicthue import bounds, cli, exponents, forms, reduction, roots, search
from cubicthue.parallel import parallel_map
from cubicthue.realnum import CertifiedReal, continued_fraction_convergents
from oracles import (contains, convergents_of_fraction, family_discriminant_poly,
                     siegel_residual)

# one worker per core this process may run on
WORKERS = len(os.sched_getaffinity(0))


def _verdict(name, ok):
    print("ACCEPTANCE %-28s %s" % (name + ":", "PASS" if ok else "FAIL"),
          file=sys.stderr)
    assert ok, name


def test_criterion_1_matveev_constant():
    res = bounds.matveev_for_family(roots.isolate_roots(10))
    ok = res.in_target_window and all(res.height_checks)
    _verdict("1 matveev-constant", ok)


def test_criterion_2_absolute_bound():
    t_max, n_max = bounds.derive_t_max()
    _verdict("2 absolute-bound", t_max == 576241 and 8.8e18 <= n_max <= 9.0e18)


def _kappa_ok(t):
    return roots.verify_kappas(t).all_pass


def test_criterion_3_kappa_certification(hang_watchdog):
    ts = list(range(10, 2001)) + [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 576241]
    results = list(parallel_map(_kappa_ok, ts, WORKERS))
    _verdict("3 kappa-certification", all(results))


def test_criterion_4_reduction_sweep_slice(tmp_path, hang_watchdog):
    # t in [10, 2000] and 100 seeded samples up to t_max
    out = tmp_path / "sweep.jsonl"
    rc = cli.main(["sweep", "--samples", "100", "--workers", str(WORKERS),
                   "--output", str(out)])
    outcomes = [json.loads(line) for line in out.read_text().splitlines()]
    floor_ln = -120 * math.log(10)     # ln(1e-120 * min(1, |beta|)), |beta| > 1
    ok = (rc == 0 and len(outcomes) == 1991 + 100
          and all(o["status"] == "success" and o["contradiction"]
                  and o["margin"] > 100
                  and o["lambda_lower_ln"] > floor_ln
                  for o in outcomes))
    _verdict("4 reduction-sweep", ok)


def _theorem_ok(t):
    return search.verify_theorem(t, 5000)


def test_criterion_5_theorem_bounded_verification(hang_watchdog):
    ts = [t for t in range(-30, 31) if t not in (0, 1)]
    results = list(parallel_map(_theorem_ok, ts, WORKERS))
    rep = search.thue_solutions_bruteforce(forms.family_form(3, -1), 5000)
    ok = all(results) and rep.count == 6 and (6, -5) in rep.solutions
    _verdict("5 theorem-verification", ok)


def test_criterion_6_sporadic_tables():
    reports = search.verify_sporadic_tables(y_bound=10 ** 4)
    by_coeffs = {r.form.coefficients: r for r in reports}
    ok = all(r.matches_expected for r in reports)
    many_counts = [by_coeffs[F.coefficients].count for F, _, _ in search.MANY_SOLUTIONS_TABLE]
    ok &= all(c >= n for c, (_, _, n) in zip(many_counts, search.MANY_SOLUTIONS_TABLE))
    ok &= many_counts[0] >= 9
    ok &= all(by_coeffs[F.coefficients].count >= 5
              for F, _, _ in search.SPORADIC_CLASSES_TABLE)
    dn_counts = [by_coeffs[F.coefficients].count
                 for F, _, _ in search.DELONE_NAGELL_TABLE]
    ok &= dn_counts == [5, 4, 4]
    _verdict("6 sporadic-tables", ok)


def test_criterion_7_discriminant_identity():
    ok = all(forms.family_form(3, t).discriminant()
             == family_discriminant_poly(t)
             for t in range(-100, 101))
    _verdict("7 discriminant-identity", ok)


def _recover_ok(t):
    expect = {
        (t, 1): (1, 0),
        (t ** 4 - 2 * t, 1): (-1, 1),
        (1 - t ** 3, t ** 8 - 3 * t ** 5 + 3 * t * t): (-1, -4),
    }
    for (x, y) in forms.known_solutions(t).solutions:
        pair = exponents.recover_exponents(t, x, y)
        want = expect.get((x, y))
        if want is not None and (pair.n, pair.m) != want:
            return False
        if not pair.residual.upper < Fraction(1, 100):
            return False
    return True


def test_criterion_8_exponent_recovery(hang_watchdog):
    ts = list(range(2, 101))
    results = list(parallel_map(_recover_ok, ts, WORKERS))
    _verdict("8 exponent-recovery", all(results))


def _siegel_suite():
    rng = random.Random(20140213)
    cache = {}
    for _ in range(1000):
        t = rng.choice((2, 3, 5, 10, 17, 40, 97))
        if t not in cache:
            cache[t] = roots.isolate_roots(t)
        x = rng.randrange(-10 ** 6, 10 ** 6)
        y = rng.randrange(-10 ** 6, 10 ** 6)
        if not siegel_residual(x, y, cache[t]).contains_zero():
            return False
    return True


def _isotonicity_suite():
    rng = random.Random(20140214)
    for _ in range(10 ** 4):
        a = Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 9))
        b = Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 9))
        x, y = CertifiedReal.from_rational(a, 64), CertifiedReal.from_rational(b, 64)
        op = rng.randrange(4)
        if op == 0 and not contains(x + y, a + b):
            return False
        if op == 1 and not contains(x - y, a - b):
            return False
        if op == 2 and not contains(x * y, a * b):
            return False
        if op == 3 and b != 0 and not y.contains_zero() \
                and not contains(x / y, a / b):
            return False
    return True


def _cf_oracle_suite():
    rng = random.Random(20140215)
    for _ in range(1000):
        x = Fraction(rng.randrange(1, 10 ** 40), rng.randrange(1, 10 ** 40))
        got = continued_fraction_convergents(CertifiedReal.from_rational(x, 256), 10 ** 6)
        want = convergents_of_fraction(x, 10 ** 6)
        if [(c.p, c.q) for c in got] != [(c.p, c.q) for c in want]:
            return False
    return True


def _bd_oracle_suite():
    rng = random.Random(20140216)
    for _ in range(100):
        g1 = Fraction(rng.getrandbits(300), 2 ** 299)
        g2 = Fraction(rng.getrandbits(300), 2 ** 299)
        A, Q = rng.randrange(10 ** 3, 10 ** 6), 10 ** 9
        prec = 420
        beta = CertifiedReal.from_rational(Fraction(3, 2), prec)
        alpha = CertifiedReal.from_rational(g1 * Fraction(3, 2), prec)
        delta = CertifiedReal.from_rational(g2 * Fraction(3, 2), prec)
        inst = reduction.ReductionInstance(2, 10, beta, A, Q,
                                           alpha / beta, delta / beta, prec)
        verdict = reduction.baker_davenport(inst)
        thr = Fraction(101 * A, 100) + 2
        want = None
        for conv in convergents_of_fraction(g1, Q):
            prod = conv.q * g2
            fl = prod.numerator // prod.denominator
            dist = min(prod - fl, fl + 1 - prod)
            if conv.q * dist >= thr:
                want = (conv.p, conv.q)
                break
        if verdict.success != (want is not None):
            return False
        if want is not None and (verdict.p, verdict.q) != want:
            return False
    return True


def test_criterion_9_property_suites():
    ok = (_siegel_suite() and _isotonicity_suite()
          and _cf_oracle_suite() and _bd_oracle_suite())
    _verdict("9 property-suites", ok)
