import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from cubicthue import reduction
from cubicthue.realnum import (CertifiedReal, _convergents_of_fraction,
                               nearest_integer_distance)
from cubicthue.reduction import (ReductionInstance, baker_davenport,
                                 build_instance, contradiction_check,
                                 reduce_single, reverify_verdict, verify_range)


def test_build_instance_which2_t10():
    inst = build_instance(2, 10)
    beta_abs = abs(inst.beta)
    # |beta| = |ln((t-th1)/(t-th3))| ~ 3 ln 10 - small
    assert 6.5 < float(beta_abs.lower) < 3 * math.log(10)
    assert inst.gamma1.width < Fraction(1, 10 ** 122)
    assert inst.gamma2.width < Fraction(1, 10 ** 120)


def test_build_instance_which3():
    inst = build_instance(3, 10)
    assert inst.which == 3
    assert abs(inst.beta).lower > 0


def test_build_instance_rejects_small_t():
    with pytest.raises(ValueError):
        build_instance(2, 9)


def test_baker_davenport_success_t10():
    inst = build_instance(2, 10)
    verdict = baker_davenport(inst)
    assert verdict.success
    assert 1 <= verdict.q <= inst.Q
    assert verdict.q_norm_lower >= Fraction(101 * inst.A, 100) + 2
    # |Lambda_2| > |beta| / Q^2 > 10^-120 here since |beta| > 1
    assert verdict.lambda_lower_ln > math.log(10 ** -120)
    assert reverify_verdict(inst, verdict)
    assert contradiction_check(2, 10, verdict)


def test_contradiction_margins():
    for t in (10, 576241):
        outcome = reduce_single(2, t)
        assert outcome.status == "success"
        assert outcome.contradiction
        assert outcome.margin > 100
    # fabricated verdict below the threshold fails the check
    fake = reduction.Verdict(True, 1, 1, Fraction(1), -10 ** 9, None, 1)
    assert not contradiction_check(2, 10, fake)


def test_contradiction_check_requires_success():
    with pytest.raises(ValueError):
        contradiction_check(2, 10, reduction.Verdict(False, None, None, None,
                                                     None, None, 0))


def _exact_instance(g1, g2, A, Q, prec=420):
    """Instance whose gamma values enclose the given rationals, built
    through enclosure division so the widths are realistic."""
    beta = CertifiedReal.from_rational(Fraction(3, 2), prec)
    alpha = CertifiedReal.from_rational(g1 * Fraction(3, 2), prec)
    delta = CertifiedReal.from_rational(g2 * Fraction(3, 2), prec)
    return ReductionInstance(2, 10, beta, A, Q, alpha / beta, delta / beta, prec)


def _oracle_first_convergent(g1, g2, A, Q):
    thr = Fraction(101 * A, 100) + 2
    for conv in _convergents_of_fraction(g1, Q):
        prod = conv.q * g2
        dist = min(prod - math.floor(prod), math.floor(prod) + 1 - prod)
        if conv.q * dist >= thr:
            return (conv.p, conv.q)
    return None


def test_degenerate_integer_gamma2_fails():
    rng = random.Random(71)
    g1 = Fraction(rng.getrandbits(300), 2 ** 299)
    inst = _exact_instance(g1, Fraction(2), A=10 ** 3, Q=10 ** 9)
    verdict = baker_davenport(inst)
    assert not verdict.success
    assert verdict.convergents_scanned > 0


def test_synthetic_log_instance_matches_oracle():
    import mpmath
    prec = 420
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = prec
        alpha = CertifiedReal(mpmath.iv.log(2), prec)
        beta = CertifiedReal(mpmath.iv.log(3), prec)
        delta = CertifiedReal(mpmath.iv.log(mpmath.iv.mpf(5) / 4), prec)
    finally:
        mpmath.iv.prec = old
    A, Q = 10 ** 3, 10 ** 10
    inst = ReductionInstance(2, 10, beta, A, Q, alpha / beta, delta / beta, prec)
    verdict = baker_davenport(inst)
    # oracle on high-precision rational stand-ins for the gamma values
    g1 = inst.gamma1.midpoint
    g2 = inst.gamma2.midpoint
    want = _oracle_first_convergent(g1, g2, A, Q)
    assert verdict.success == (want is not None)
    if want is not None:
        assert (verdict.p, verdict.q) == want
        assert reverify_verdict(inst, verdict)


def test_synthetic_instances_match_oracle_batch():
    rng = random.Random(72)
    matched = 0
    for _ in range(100):
        g1 = Fraction(rng.getrandbits(300), 2 ** 299)
        g2 = Fraction(rng.getrandbits(300), 2 ** 299)
        A = rng.randrange(10 ** 3, 10 ** 6)
        inst = _exact_instance(g1, g2, A, Q=10 ** 9)
        verdict = baker_davenport(inst)
        want = _oracle_first_convergent(g1, g2, A, 10 ** 9)
        assert verdict.success == (want is not None)
        if want is not None:
            assert (verdict.p, verdict.q) == want
            matched += 1
    assert matched > 50   # failures should be rare for random targets


def test_reduce_single_outcome_record():
    outcome = reduce_single(2, 11)
    assert outcome.status == "success" and outcome.escalations == 0
    rec = outcome.to_json()
    assert rec["schema"] == 1 and rec["t"] == 11
    assert json.dumps(rec)


def _jsonl(outcomes):
    return "\n".join(json.dumps(o.to_json()) for o in outcomes)


def _digest(outcomes):
    """The checkpoint hash of these records, recomputed in full."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps(o.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def _all_success(outcomes):
    return all(o.status == "success" and o.contradiction for o in outcomes)


def test_verify_range_empty():
    outcomes = verify_range(2, 30, 20)
    assert iter(outcomes) is outcomes
    outcomes = list(outcomes)
    assert outcomes == []
    assert _all_success(outcomes)


def test_verify_range_rejects_low_start():
    # at the call, before any outcome is taken
    with pytest.raises(ValueError):
        verify_range(2, 5, 20)


def test_verify_range_deterministic_across_workers():
    r1 = list(verify_range(2, 10, 30))
    r4 = list(verify_range(2, 10, 30, workers=4))
    assert _jsonl(r1) == _jsonl(r4)
    assert _digest(r1) == _digest(r4)
    assert _all_success(r1)


def test_verify_range_extra_ts_sorted_dedup():
    outcomes = verify_range(2, 10, 12, extra_ts=[11, 500])
    assert [o.t for o in outcomes] == [10, 11, 12, 500]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_range_checkpoint_resume(tmp_path):
    ck = str(tmp_path / "ck.json")
    full = list(verify_range(2, 10, 20, checkpoint_path=ck))
    state = _read_json(ck)
    assert state["last_t"] == 20
    assert state["hash"] == _digest(full)
    # resuming with a complete checkpoint does no further work
    again = list(verify_range(2, 10, 20, checkpoint_path=ck))
    assert again == []
    # checkpoint for different parameters is ignored
    other = verify_range(2, 10, 12, A=10 ** 6, checkpoint_path=ck)
    assert [o.t for o in other] == [10, 11, 12]


def test_verify_range_checkpoints_every_interval(monkeypatch, tmp_path):
    monkeypatch.setattr(reduction, "CHECKPOINT_INTERVAL", 4)
    write = reduction._write_checkpoint
    runs = {}
    for workers in (1, 2):
        ck = tmp_path / ("ck%d.json" % workers)
        states = []

        def recording(*args):
            write(*args)
            states.append(ck.read_bytes())

        monkeypatch.setattr(reduction, "_write_checkpoint", recording)
        outcomes = verify_range(2, 10, 20, workers=workers, checkpoint_path=str(ck))
        runs[workers] = (_jsonl(outcomes), states)
    assert runs[1] == runs[2]
    jsonl = runs[1][0]
    states = [json.loads(b) for b in runs[1][1]]
    # every fourth outcome, then the last
    assert [s["last_t"] for s in states] == [13, 17, 20]
    outcomes = list(verify_range(2, 10, 20))
    assert _jsonl(outcomes) == jsonl
    for state, n in zip(states, (4, 8, 11)):
        assert state["hash"] == _digest(outcomes[:n])


def test_verify_range_checkpoints_only_taken_outcomes(monkeypatch, tmp_path):
    monkeypatch.setattr(reduction, "CHECKPOINT_INTERVAL", 4)
    ck = tmp_path / "ck.json"
    outcomes = verify_range(2, 10, 20, workers=2, checkpoint_path=str(ck))
    taken = [next(outcomes) for _ in range(4)]
    # the fourth outcome is out, but the caller has not asked past it
    assert not ck.exists()
    taken.append(next(outcomes))
    assert _read_json(ck) == {"which": 2, "A": str(reduction.DEFAULT_A),
                              "Q": str(reduction.DEFAULT_Q), "last_t": 13,
                              "hash": _digest(taken[:4])}
    outcomes.close()
    assert _read_json(ck)["last_t"] == 13


def _stub_outcome(args):
    which, t, A, Q, precision = args
    return reduction.ReductionOutcome(t, which, "success", 540, Q, 7, 1.5, -270.0,
                                      300.0, True, 0)


def test_verify_range_serializes_each_record_once(monkeypatch, tmp_path):
    monkeypatch.setattr(reduction, "_reduce_star", _stub_outcome)
    monkeypatch.setattr(reduction, "CHECKPOINT_INTERVAL", 4)
    calls = []
    to_json = reduction.ReductionOutcome.to_json
    monkeypatch.setattr(reduction.ReductionOutcome, "to_json",
                        lambda self: calls.append(self.t) or to_json(self))
    ck = tmp_path / "ck.json"
    n = sum(1 for _ in verify_range(2, 10, 409, checkpoint_path=str(ck)))
    assert n == 400 and calls == list(range(10, 410))
    state = _read_json(ck)
    assert state["last_t"] == 409
    monkeypatch.setattr(reduction.ReductionOutcome, "to_json", to_json)
    jobs = [(2, t, reduction.DEFAULT_A, reduction.DEFAULT_Q, None) for t in range(10, 410)]
    assert state["hash"] == _digest(map(_stub_outcome, jobs))


def test_escalation_soundness():
    # higher starting precision must not change the verdict
    base = reduce_single(2, 13)
    finer = reduce_single(2, 13, precision=2 * reduction.reduction_precision(reduction.DEFAULT_Q))
    assert base.status == finer.status == "success"
    assert base.q == finer.q


def test_reverify_rejects_tampered_verdict():
    inst = build_instance(2, 10)
    verdict = baker_davenport(inst)
    bad = reduction.Verdict(True, verdict.p + 1, verdict.q, verdict.q_norm_lower,
                            verdict.lambda_lower_ln, verdict.margin, 1)
    assert not reverify_verdict(inst, bad)
    assert not reverify_verdict(inst, reduction.Verdict(False, None, None, None,
                                                        None, None, 0))


def test_norm_check_reads_the_lower_bound():
    """At the first convergent past 2*threshold, q*gamma2 is enclosed so
    that q * ||q*gamma2|| is below the threshold at the enclosure's lower
    bound and above it at the upper: only the lower bound is certified,
    so neither the scan nor the re-verification may accept it."""
    A, prec = 100, 420
    threshold = Fraction(101 * A, 100) + 2
    g1 = Fraction(random.Random(73).getrandbits(300), 2 ** 299)
    conv = next(c for c in _convergents_of_fraction(g1, 10 ** 9) if c.q > 2 * threshold)
    p, q = conv.p, conv.q
    # q*gamma2 spans [7 + d_lo, 7 + d_hi] with q*d_lo < threshold < q*d_hi <= q/2
    d_lo, d_hi = threshold / (2 * q), (threshold / q + Fraction(1, 2)) / 2
    gamma2 = CertifiedReal.from_endpoints((7 + d_lo) / q, (7 + d_hi) / q, prec)
    beta = CertifiedReal.from_rational(Fraction(3, 2), prec)
    gamma1 = CertifiedReal.from_rational(g1 * Fraction(3, 2), prec) / beta
    inst = ReductionInstance(2, 10, beta, A, q, gamma1, gamma2, prec)
    lo, hi = nearest_integer_distance(gamma2 * q)
    assert q * lo < threshold <= q * hi
    assert [c.q for c in reduction.continued_fraction_convergents(gamma1, q)
            if c.q >= 2 * threshold] == [q]
    assert not baker_davenport(inst).success
    assert not reverify_verdict(inst, reduction.Verdict(True, p, q, None, None, None, 1))


def test_reduce_single_rejects_success_that_fails_reverification(monkeypatch):
    monkeypatch.setattr(reduction, "reverify_verdict", lambda inst, verdict: False)
    out = reduce_single(2, 10)
    assert out.status != "success"
    assert out.escalations == reduction.MAX_PRECISION_ESCALATIONS + 1
