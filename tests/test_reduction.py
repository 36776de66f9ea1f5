import dataclasses
import hashlib
import json
import math
import multiprocessing
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from cubicthue import bounds, cli, reduction, roots
from cubicthue.errors import IndeterminateSignError, PrecisionInsufficientError
from cubicthue.realnum import (CertifiedReal, continued_fraction_convergents,
                               dyadic_numerators)
from cubicthue.reduction import (ReductionInstance, baker_davenport,
                                 build_instance, contradiction_check,
                                 reduce_single, reverify_verdict)
from oracles import contradiction_on_enclosures, convergents_of_fraction


def test_build_instance_which2_t10():
    # the paper's Q = 10^60, at its 540 bits
    inst = build_instance(2, 10, Q=10 ** 60)
    beta_abs = abs(inst.beta)
    # |beta| = |ln((t-th1)/(t-th3))| ~ 3 ln 10 - small
    assert 6.5 < float(beta_abs.lower) < 3 * math.log(10)
    assert inst.gamma1.width < Fraction(1, 10 ** 122)
    assert inst.gamma2.width < Fraction(1, 10 ** 120)


def test_build_instance_which2_t10_default_q():
    inst = build_instance(2, 10)
    assert (inst.Q, inst.precision) == (10 ** 30, 340)
    beta_abs = abs(inst.beta)
    assert 6.5 < float(beta_abs.lower) < 3 * math.log(10)
    # 1/(100 Q^2) and 1/Q^2 are 10^-62 and 10^-60
    assert inst.gamma1.width < Fraction(1, 10 ** 92)
    assert inst.gamma2.width < Fraction(1, 10 ** 92)


def test_build_instance_which3():
    inst = build_instance(3, 10)
    assert inst.which == 3
    assert abs(inst.beta).lower > 0


def test_build_instance_rejects_small_t():
    with pytest.raises(ValueError):
        build_instance(2, 9)


def _count_logs(monkeypatch):
    logs = []
    log = CertifiedReal.log

    def counting(self):
        logs.append(self)
        return log(self)

    monkeypatch.setattr(CertifiedReal, "log", counting)
    return logs


def _count_isolations(monkeypatch):
    """The precision of each `isolate_roots` call the reduction makes: the
    work a rung does before its logarithms, and what a refused one saves."""
    isolated, isolate = [], reduction.isolate_roots

    def counting(t, precision):
        isolated.append(precision)
        return isolate(t, precision)

    monkeypatch.setattr(reduction, "isolate_roots", counting)
    return isolated


def test_build_instance_checks_gamma1_before_the_third_log(monkeypatch):
    """A precision the width floor admits but too low for gamma1 fails on
    gamma1's width without taking log a3; at the default precision all
    three logs are taken.  At the paper's Q = 10^60, whose precision is
    540 bits."""
    logs = _count_logs(monkeypatch)
    with pytest.raises(PrecisionInsufficientError,
                       match=r"^gamma1 width .* exceeds 1/\(100 Q\^2\)$"):
        build_instance(2, 10, Q=10 ** 60, precision=426)
    assert len(logs) == 2
    logs.clear()
    build_instance(2, 10, Q=10 ** 60)
    assert len(logs) == 3


def test_build_instance_checks_gamma1_before_the_third_log_default_q(monkeypatch):
    """The same at the default Q = 10^30 and its 340 bits."""
    logs = _count_logs(monkeypatch)
    with pytest.raises(PrecisionInsufficientError,
                       match=r"^gamma1 width .* exceeds 1/\(100 Q\^2\)$"):
        build_instance(2, 1000, precision=258)
    assert len(logs) == 2
    logs.clear()
    assert build_instance(2, 1000).precision == 340
    assert len(logs) == 3


@pytest.mark.parametrize("Q, precisions", [(10 ** 30, (85, 113, 170, 226)),
                                           (10 ** 60, (135, 180, 270, 360))])
def test_build_instance_refuses_below_the_width_floor_before_isolating(
        monkeypatch, Q, precisions):
    """A precision at which gamma1_width_floor reaches 1/(100 Q^2) is
    refused before any root is isolated or logarithm taken."""
    isolated, logs = _count_isolations(monkeypatch), _count_logs(monkeypatch)
    for precision in precisions:
        with pytest.raises(PrecisionInsufficientError,
                           match=r"^gamma1 width floor .* reaches 1/\(100 Q\^2\)$"):
            build_instance(2, 1000, Q=Q, precision=precision)
    assert isolated == logs == []


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
    # fabricated verdicts at Q = 1, where ln(|beta|/Q^2) = ln|beta| is
    # E ln 2 for |beta| = 2^E: the threshold at t = 10 is -146597.48, and
    # ln 10 between 3 ln 2 and 4 ln 2 leaves it in [-212555, -119562]
    ln2 = math.log(2)
    assert not contradiction_check(2, 10, _verdict_at((1, -10 ** 9)))
    assert contradiction_check(2, 10, _verdict_at((1, round(-80000 / ln2))))
    assert not contradiction_check(2, 10, _verdict_at((1, round(-280000 / ln2))))
    # within the slack of the bit-length bounds the check decides neither
    # way, where the enclosures decide
    for ln_beta, want in ((-130000, True), (-180000, False)):
        beta_lower = (1, round(ln_beta / ln2))
        assert contradiction_on_enclosures(2, 10, beta_lower, 1) is want
        with pytest.raises(IndeterminateSignError, match="threshold at t=10"):
            contradiction_check(2, 10, _verdict_at(beta_lower))


def _verdict_at(beta_lower, Q=1):
    """A fabricated success verdict with |beta|'s lower endpoint
    beta_lower = (m, e), for m 2^e, at the convergent bound Q; its display
    floats are left out, as the check must not read them."""
    return reduction.Verdict(True, 1, 1, None, None, None, 1, beta_lower, Q)


def test_integer_contradiction_agrees_with_the_enclosures():
    """At sampled t of each type and at both Q of the sweeps, the integer
    decision on |beta|'s lower endpoint is the one the 64-bit interval
    logarithms give; on fabricated endpoints spread across the threshold
    it never contradicts them, and it decides all but a band of them."""
    rng = random.Random(61)
    ts = [10, 11, 57, 2000, 576241] + [rng.randrange(12, 576241) for _ in range(5)]
    for Q in (10 ** 30, 10 ** 60):
        for which in (1, 2, 3):
            for t in ts:
                triple = roots.isolate_roots(t, reduction.reduction_precision(Q))
                beta = bounds.lambda_log_arguments(which, triple)[1].log()
                beta_lower = abs(beta)._ival[0]
                want = contradiction_on_enclosures(which, t, beta_lower, Q)
                assert contradiction_check(which, t, _verdict_at(beta_lower, Q)) is want is True
    outcomes = {True: 0, False: 0, "undecided": 0}
    for _ in range(300):
        which, t = rng.choice((1, 2, 3)), rng.choice(ts)
        Q = rng.choice((1, 10 ** 30, 10 ** 60))
        thr = -bounds.contradiction_threshold(which, t)
        beta_lower = (rng.getrandbits(80) | 1 << 79,
                      round(-thr * rng.uniform(0.2, 2.5) / math.log(2)) - 79)
        want = contradiction_on_enclosures(which, t, beta_lower, Q)
        try:
            got = contradiction_check(which, t, _verdict_at(beta_lower, Q))
        except IndeterminateSignError:
            got = "undecided"
        else:
            assert got is want, (which, t, beta_lower, Q)
        outcomes[got] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_contradiction_is_decided_on_the_documented_bounds():
    """contradiction_check against the bounds of its docstring taken in
    Fractions, each end of ln 2^E's bracket the min or max of E (or E + 1) times
    the two bounds on ln 2, at every |beta| = 2^E around the two values
    of E where its verdict changes."""
    lo2, hi2, k = bounds.LN2
    ln2 = (Fraction(lo2, 2 ** k), Fraction(hi2, 2 ** k))

    def ln_bits(E):
        return min(E * r for r in ln2), max((E + 1) * r for r in ln2)

    seen = set()
    for which, t, Q in ((2, 10, 10 ** 30), (1, 11, 10 ** 60), (3, 576241, 3), (2, 2000, 1)):
        coef, p = bounds.CONTRADICTION_COEFF[which]
        (q_lo, q_hi), (t_lo, t_hi) = ln_bits(Q.bit_length() - 1), ln_bits(t.bit_length() - 1)
        T_lo, T_hi = -coef * t ** p * t_hi ** 2, -coef * t ** p * t_lo ** 2
        for edge in (T_hi + 2 * q_hi, T_lo + 2 * q_lo):
            E0 = math.floor(edge / ln2[0])
            for E in range(E0 - 4, E0 + 5):
                b_lo, b_hi = ln_bits(E)
                want = (True if b_lo - 2 * q_hi > T_hi else
                        False if b_hi - 2 * q_lo <= T_lo else None)
                seen.add(want)
                if want is None:
                    with pytest.raises(IndeterminateSignError):
                        contradiction_check(which, t, _verdict_at((1, E), Q))
                else:
                    assert contradiction_check(which, t, _verdict_at((1, E), Q)) is want
    assert seen == {True, False, None}


def test_ln_bit_bounds_are_on_their_sides(monkeypatch):
    """Each end of ln_bit_bounds against ln(m 2^e) to 60 digits, at the
    powers of two, where the lower end is tight, and just below them,
    where the upper end is; with the two bounds on ln 2 swapped, the
    check fails."""
    def check():
        k = bounds.LN2[2]
        for E in (-300, -3, -1, 0, 1, 2, 3, 19, 64, 1000):
            for m, e in ((1, E), ((1 << 200) - 1, E - 199)):
                lo, hi = bounds.ln_bit_bounds(m, e)
                with mpmath.workdps(60):
                    x = mpmath.log(mpmath.mpf(m) * mpmath.mpf(2) ** e) * 2 ** k
                    assert lo <= x < hi, (m, e)

    check()
    lo2, hi2, k = bounds.LN2
    monkeypatch.setattr(bounds, "LN2", (hi2, lo2, k))
    with pytest.raises(AssertionError):
        check()


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
    for conv in convergents_of_fraction(g1, Q):
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
    from mpmath_oracle import ival_of
    prec = 420
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = prec
        alpha = CertifiedReal(ival_of(mpmath.iv.log(2)._mpi_), prec)
        beta = CertifiedReal(ival_of(mpmath.iv.log(3)._mpi_), prec)
        delta = CertifiedReal(ival_of(mpmath.iv.log(mpmath.iv.mpf(5) / 4)._mpi_), prec)
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
    # only failed records carry a reason
    assert "reason" not in rec
    assert json.dumps(rec)


def _digest(outcomes):
    """The checkpoint hash of these records, recomputed in full."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps(o.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def _reduced(lo, hi):
    return [reduce_single(2, t) for t in range(lo, hi + 1)]


def _sweep_records(lo, hi, resumed=(), samples=0):
    """The records of the sweep stage over [lo, hi] that follow the
    `resumed` ones, driven as `cli._run` drives it."""
    stage = cli._cmd_sweep(None, 1, cli.DEFAULT_SEED, lo, hi, 2, reduction.DEFAULT_Q,
                           reduction.DEFAULT_A, samples, False)
    assert isinstance(next(stage), cli._Checkpointed)
    records = []
    try:
        records.append(stage.send(resumed))
        records.extend(stage)
    except StopIteration:
        pass
    return records


def test_sweep_empty(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert cli.main(["sweep", "--t-lo", "30", "--t-hi", "20", "--output", str(out)]) == 0
    assert out.read_text() == "\n"
    assert capsys.readouterr().out == "sweep which=2: 0/0 success+contradiction\n"


def test_sweep_rejects_low_start(monkeypatch, tmp_path, capsys):
    # before any t is handed to the workers or any record is written
    streams = []
    monkeypatch.setattr(cli, "parallel_map",
                        lambda fn, jobs, workers: streams.append(jobs) or (o for o in ()))
    out = tmp_path / "out.jsonl"
    assert cli.main(["sweep", "--t-lo", "5", "--t-hi", "20", "--output", str(out)]) \
        == cli.EXIT_USAGE
    assert capsys.readouterr().err == "cubicthue sweep: error: sweep range starts at t >= 10\n"
    assert streams == [] and not out.exists()
    # an empty range is no claim about its start
    assert cli.main(["sweep", "--t-lo", "5", "--t-hi", "4", "--output", str(out)]) == 0
    assert [len(jobs) for jobs in streams] == [0]


@pytest.mark.parametrize("A, Q", [(3 * 10 ** 18, 0), (3 * 10 ** 18, -1), (0, 10 ** 60),
                                  (-5, 10 ** 60)])
def test_bounds_below_one_are_refused(A, Q, capsys):
    with pytest.raises(ValueError):
        build_instance(2, 10, A, Q)
    assert cli.main(["sweep", "--t-lo", "10", "--t-hi", "12", "--A", str(A),
                     "--Q", str(Q)]) == cli.EXIT_USAGE
    assert "must be >= 1" in capsys.readouterr().err
    with pytest.raises(ValueError):
        reduce_single(2, 10, A, Q)


def test_sweep_deterministic_across_workers(tmp_path, hang_watchdog):
    runs = [_sweep(tmp_path, "w" + workers, "--workers", workers, t_hi=30)
            for workers in ("1", "4")]
    (ck1, out1), (ck4, out4) = runs
    assert out1.read_bytes() == out4.read_bytes()
    assert ck1.read_bytes() == ck4.read_bytes()


def test_sweep_extra_ts_sorted_dedup(monkeypatch):
    # a sample inside the range is reduced once, in its place
    monkeypatch.setattr(cli, "_sample_ts", lambda seed, count, lo, hi: [11, 500])
    assert [r["t"] for r in _sweep_records(10, 12, samples=2)] == [10, 11, 12, 500]


def test_sweep_streams_the_sorted_deduplicated_ts(monkeypatch):
    """The sweep's jobs are a stream, not a list, in the order of the
    sorted set of the range and the samples, less those a resumed run
    wrote: with samples below, inside, next to and above the range, on a
    range and an empty one, resumed from each side."""
    streams = []
    monkeypatch.setattr(cli, "parallel_map",
                        lambda fn, jobs, workers: streams.append(jobs) or (o for o in ()))
    extra = [12, 19, 20, 25, 30, 31, 40, 5000]
    monkeypatch.setattr(cli, "_sample_ts", lambda seed, count, lo, hi: extra)
    for lo, hi in ((20, 30), (30, 20)):
        for after in (None, 5, 12, 19, 20, 24, 25, 30, 31, 35, 45, 5000):
            _sweep_records(lo, hi, [] if after is None else [{"t": after}], len(extra))
            jobs = streams.pop()
            old = sorted(set(list(range(lo, hi + 1)) + extra))
            old = [t for t in old if after is None or t > after]
            assert (len(jobs), list(jobs), list(jobs)) == (len(old), old, old)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _sweep(tmp_path, name, *extra, t_hi=20):
    """`cubicthue sweep` over [10, t_hi] with a checkpoint; the paths of
    its checkpoint and output."""
    ck, out = tmp_path / (name + ".json"), tmp_path / (name + ".jsonl")
    assert cli.main(["sweep", "--t-lo", "10", "--t-hi", str(t_hi), "--checkpoint", str(ck),
                     "--output", str(out), *extra]) == 0
    return ck, out


def test_sweep_checkpoint_resume(tmp_path):
    ck, _ = _sweep(tmp_path, "ck")
    full = _reduced(10, 20)
    state = _read_json(ck)
    assert state["last_t"] == 20
    assert state["hash"] == _digest(full)
    # resuming after the checkpoint's last t does no further work
    records = [o.to_json() for o in full]
    assert _sweep_records(10, 20, records) == []
    assert [r["t"] for r in _sweep_records(10, 20, records[:8])] == [18, 19, 20]
    # a checkpoint for different parameters is refused and left alone
    before = ck.read_bytes()
    with pytest.raises(ValueError, match="checkpoint"):
        cli._load_checkpoint(str(ck), {**state["config"], "A": str(10 ** 6)})
    assert ck.read_bytes() == before


def test_sweep_checkpoints_every_interval(monkeypatch, tmp_path, hang_watchdog):
    monkeypatch.setattr(cli, "CHECKPOINT_INTERVAL", 4)
    write = cli._write_checkpoint
    runs = {}
    for workers in (1, 2):
        states = []

        def recording(path, *args):
            write(path, *args)
            states.append(Path(path).read_bytes())

        monkeypatch.setattr(cli, "_write_checkpoint", recording)
        _, out = _sweep(tmp_path, "ck%d" % workers, "--workers", str(workers))
        runs[workers] = (out.read_text(), states)
    assert runs[1] == runs[2]
    jsonl = runs[1][0]
    states = [json.loads(b) for b in runs[1][1]]
    # every fourth outcome, then the last
    assert [s["last_t"] for s in states] == [13, 17, 20]
    outcomes = _reduced(10, 20)
    assert "".join(json.dumps(o.to_json(), sort_keys=True) + "\n"
                   for o in outcomes) == jsonl
    for state, n in zip(states, (4, 8, 11)):
        assert state["hash"] == _digest(outcomes[:n])


def test_sweep_checkpoints_only_taken_outcomes(monkeypatch, tmp_path, hang_watchdog):
    monkeypatch.setattr(cli, "CHECKPOINT_INTERVAL", 4)
    write = cli._write_checkpoint
    ck, out = tmp_path / "ck.json", tmp_path / "out.jsonl"
    seen = []

    def checking(path, config, last_t, digest):
        # every record the checkpoint counts is in the output already
        lines = out.read_text().splitlines()
        assert json.loads(lines[-1])["t"] == last_t
        assert digest == hashlib.sha256("".join(lines).encode()).hexdigest()
        write(path, config, last_t, digest)
        seen.append(_read_json(ck))

    monkeypatch.setattr(cli, "_write_checkpoint", checking)
    assert cli.main(["sweep", "--t-lo", "10", "--t-hi", "20", "--workers", "2",
                     "--checkpoint", str(ck), "--output", str(out)]) == 0
    taken = _reduced(10, 13)
    config = {"which": 2, "A": str(reduction.DEFAULT_A), "Q": str(reduction.DEFAULT_Q),
              "t_range": [10, 20], "extra_ts": [],
              "precision": reduction.reduction_precision(reduction.DEFAULT_Q)}
    assert seen[0] == {"config": config, "last_t": 13, "hash": _digest(taken)}
    assert [s["last_t"] for s in seen] == [13, 17, 20]
    # a sweep closed early shuts its pool down
    stage = cli._cmd_sweep(None, 2, cli.DEFAULT_SEED, 10, 20, 2, reduction.DEFAULT_Q,
                           reduction.DEFAULT_A, 0, False)
    next(stage)
    stage.send(())
    stage.close()
    assert multiprocessing.active_children() == []


def _stub_outcome(which, t, A, Q, precision):
    return reduction.ReductionOutcome(t, which, "success", 540, Q, 7, 1.5, -270.0,
                                      300.0, True, 0)


def test_sweep_serializes_each_record_once(monkeypatch, tmp_path):
    monkeypatch.setattr(reduction, "reduce_single", _stub_outcome)
    monkeypatch.setattr(cli, "CHECKPOINT_INTERVAL", 4)
    calls, dumps = [], []
    to_json = reduction.ReductionOutcome.to_json
    monkeypatch.setattr(reduction.ReductionOutcome, "to_json",
                        lambda self: calls.append(self.t) or to_json(self))
    json_dumps = json.dumps
    monkeypatch.setattr(cli.json, "dumps",
                        lambda *a, **k: dumps.append(1) or json_dumps(*a, **k))
    ck, out = tmp_path / "ck.json", tmp_path / "out.jsonl"
    assert cli.main(["sweep", "--t-lo", "10", "--t-hi", "409", "--checkpoint", str(ck),
                     "--output", str(out)]) == 0
    n = len(out.read_text().splitlines())
    assert n == 400 and calls == list(range(10, 410)) and len(dumps) == 400
    monkeypatch.undo()
    state = _read_json(ck)
    assert state["last_t"] == 409
    stubs = [_stub_outcome(2, t, reduction.DEFAULT_A, reduction.DEFAULT_Q, None)
             for t in range(10, 410)]
    assert state["hash"] == _digest(stubs)


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
    so neither the scan nor the re-verification may accept it.  The
    enclosure sits just above an integer, where the lower bound is the
    distance of its lower endpoint, and mirrored just below one, where it
    is the distance of its upper endpoint."""
    A, prec = 100, 420
    threshold = Fraction(101 * A, 100) + 2
    g1 = Fraction(random.Random(73).getrandbits(300), 2 ** 299)
    conv = next(c for c in convergents_of_fraction(g1, 10 ** 9) if c.q > 2 * threshold)
    p, q = conv.p, conv.q
    # distances d_lo < d_hi from the integer with q*d_lo < threshold < q*d_hi <= q/2
    d_lo, d_hi = threshold / (2 * q), (threshold / q + Fraction(1, 2)) / 2
    beta = CertifiedReal.from_rational(Fraction(3, 2), prec)
    gamma1 = CertifiedReal.from_rational(g1 * Fraction(3, 2), prec) / beta
    assert [c.q for c in continued_fraction_convergents(gamma1, q)
            if c.q >= 2 * threshold] == [q]
    # q*gamma2 spans [7 + d_lo, 7 + d_hi], then [8 - d_hi, 8 - d_lo]
    for lo_end, hi_end in ((7 + d_lo, 7 + d_hi), (8 - d_hi, 8 - d_lo)):
        gamma2 = CertifiedReal.from_endpoints(lo_end / q, hi_end / q, prec)
        inst = ReductionInstance(2, 10, beta, A, q, gamma1, gamma2, prec)
        a, b, k = dyadic_numerators(gamma2._ival)
        assert reduction._norm_lower((a, b, k), q) < threshold * (1 << k)
        assert not baker_davenport(inst).success
        assert not reverify_verdict(inst, reduction.Verdict(True, p, q, None, None, None, 1))


def test_norm_check_meets_the_threshold_exactly():
    """With A = 100 the threshold 1.01*A + 2 is 103.  gamma1 = 1/512 has
    the one convergent 1/512 past 2*threshold, and q*gamma2 is the exact
    dyadic 7 + 103/512 or 8 - 103/512, so q*||q*gamma2|| is exactly the
    threshold and passes; 2^-300 nearer the integer it does not."""
    A, q, prec = 100, 512, 420
    beta = CertifiedReal.from_rational(Fraction(3, 2), prec)
    gamma1 = CertifiedReal.from_rational(Fraction(1, q), prec)
    eps = Fraction(1, 2 ** 300)
    for n, sign in ((7, 1), (8, -1)):
        for d, passes in ((Fraction(103, q), True), (Fraction(103, q) - eps, False)):
            gamma2 = CertifiedReal.from_rational((n + sign * d) / q, prec)
            assert gamma2.width == 0
            inst = ReductionInstance(2, 10, beta, A, q, gamma1, gamma2, prec)
            verdict = baker_davenport(inst)
            assert verdict.success == passes
            assert reverify_verdict(inst, reduction.Verdict(True, 1, q, None, None,
                                                            None, 1)) == passes
            if passes:
                assert (verdict.p, verdict.q, verdict.q_norm_lower) == (1, q, 103)


def _eager_verdict(inst):
    """baker_davenport with the whole expansion of gamma1 read first, as
    it was before the scan read it lazily; the norm bounds are recomputed
    in Fractions on the exact product interval q * gamma2."""
    threshold = Fraction(101 * inst.A + 200, 100)
    convergents = continued_fraction_convergents(inst.gamma1, inst.Q)
    for scanned, conv in enumerate(convergents, 1):
        lo, hi = conv.q * inst.gamma2.lower, conv.q * inst.gamma2.upper
        bound = conv.q * (0 if math.floor(hi) > math.floor(lo) or lo.denominator == 1
                          else min(_dist(lo), _dist(hi)))
        if bound >= threshold:
            b = abs(inst.beta).lower
            lam = math.log(b.numerator) - math.log(b.denominator) - 2 * math.log(inst.Q)
            return reduction.Verdict(
                True, conv.p, conv.q, float(bound), lam,
                lam - reduction.contradiction_threshold(inst.which, inst.t), scanned,
                abs(inst.beta)._ival[0], inst.Q)
    return reduction.Verdict(False, None, None, None, None, None, len(convergents))


def _dist(r):
    return min(r - math.floor(r), math.ceil(r) - r)


def test_lazy_scan_matches_the_eager_oracle():
    """On random enclosures of random gamma1, gamma2: where reading the
    whole expansion first does not raise, the lazy scan gives the same
    verdict, field for field; where it raises, the lazy scan raises the
    same error or accepts a convergent before the expansion breaks."""
    rng = random.Random(74)
    # its own stream, so that the draws above keep their values
    wide = random.Random(76)
    kinds = set()
    for _ in range(400):
        prec = rng.choice((128, 200, 420))
        Q = rng.choice((10 ** 9, 10 ** 12, 10 ** 20))
        # an A near Q leaves few convergents able to pass
        A = rng.choice((rng.randrange(10 ** 3, 10 ** 6), Q // rng.choice((3, 10, 100))))
        g1 = Fraction(rng.getrandbits(300), 2 ** 299)
        g2 = Fraction(rng.getrandbits(300), 2 ** 299)
        if rng.random() < 0.6:
            inst = _exact_instance(g1, g2, A, Q, prec)
            if wide.random() < 0.3:
                # a wider gamma2, whose norm bounds can straddle the threshold
                inst = dataclasses.replace(inst, gamma2=CertifiedReal.from_endpoints(
                    g2, g2 + Fraction(1, 2 ** wide.randrange(4, 40)), prec))
        else:
            # a wider gamma1, whose expansion breaks somewhere below Q
            eps = Fraction(1, 2 ** rng.randrange(20, 80))
            beta = CertifiedReal.from_rational(Fraction(3, 2), prec)
            inst = ReductionInstance(2, 10, beta, A, Q,
                                     CertifiedReal.from_endpoints(g1, g1 + eps, prec),
                                     CertifiedReal.from_rational(g2, prec), prec)
        try:
            want = _eager_verdict(inst)
        except PrecisionInsufficientError as exc:
            try:
                got = baker_davenport(inst)
            except PrecisionInsufficientError as lazy:
                assert str(lazy) == str(exc)
                kinds.add("both raise")
            else:
                assert got.success and reverify_verdict(inst, got)
                kinds.add("eager raised, lazy succeeds")
            continue
        assert baker_davenport(inst) == want
        kinds.add("success" if want.success else "failure")
    assert kinds == {"success", "failure", "both raise", "eager raised, lazy succeeds"}


def _synthetic_instance(gamma1, passes):
    """gamma1 as given, with A = 100 and Q = 10^12; q*gamma2 at q = 512
    is 7 + 103/512, whose q*||.|| is the threshold 103, or 2^-300 nearer
    7, which fails."""
    A, q, prec = 100, 512, 420
    d = Fraction(103, q) - (0 if passes else Fraction(1, 2 ** 300))
    beta = CertifiedReal.from_rational(Fraction(3, 2), prec)
    gamma2 = CertifiedReal.from_rational((7 + d) / q, prec)
    return ReductionInstance(2, 10, beta, A, 10 ** 12, gamma1, gamma2, prec)


# 1/512 - [2^-40, 2^-41] shares the quotients 0, 512 and then disagrees;
# 1/512 - [2^-40, 0] ends on 1/512 at its upper endpoint alone
_BREAKS_AFTER_512 = {
    "disagree": (Fraction(1, 512) - Fraction(1, 2 ** 40), Fraction(1, 512) - Fraction(1, 2 ** 41)),
    "terminated": (Fraction(1, 512) - Fraction(1, 2 ** 40), Fraction(1, 512)),
}


@pytest.mark.parametrize("kind", sorted(_BREAKS_AFTER_512))
def test_lazy_scan_accepts_before_the_expansion_breaks(kind):
    """The one behaviour change of the lazy scan: an enclosure of gamma1
    that pins its expansion down only up to the accepted q = 512 used to
    raise, and now succeeds."""
    gamma1 = CertifiedReal.from_endpoints(*_BREAKS_AFTER_512[kind], 420)
    inst = _synthetic_instance(gamma1, passes=True)
    with pytest.raises(PrecisionInsufficientError, match=kind):
        continued_fraction_convergents(gamma1, inst.Q)
    verdict = baker_davenport(inst)
    assert (verdict.success, verdict.p, verdict.q, verdict.q_norm_lower,
            verdict.convergents_scanned) == (True, 1, 512, 103, 2)
    assert reverify_verdict(inst, verdict)


@pytest.mark.parametrize("kind", sorted(_BREAKS_AFTER_512))
def test_lazy_scan_raises_when_the_expansion_breaks_first(kind):
    gamma1 = CertifiedReal.from_endpoints(*_BREAKS_AFTER_512[kind], 420)
    inst = _synthetic_instance(gamma1, passes=False)
    with pytest.raises(PrecisionInsufficientError) as eager:
        continued_fraction_convergents(gamma1, inst.Q)
    with pytest.raises(PrecisionInsufficientError, match=kind) as lazy:
        baker_davenport(inst)
    assert str(lazy.value) == str(eager.value)


def test_scan_fails_where_the_expansion_parts_past_q():
    """Every real in the "disagree" enclosure has its third quotient at
    least 2^22 - 1, so its next q at least (2^22 - 1) * 512 + 1: below
    that Q the expansion ends there, and a scan that found no convergent
    fails instead of raising."""
    gamma1 = CertifiedReal.from_endpoints(*_BREAKS_AFTER_512["disagree"], 420)
    inst = _synthetic_instance(gamma1, passes=False)
    next_q = (2 ** 22 - 1) * 512 + 1
    verdict = baker_davenport(dataclasses.replace(inst, Q=next_q - 1))
    assert (verdict.success, verdict.convergents_scanned) == (False, 2)
    with pytest.raises(PrecisionInsufficientError, match="disagree on partial quotient 2 "):
        baker_davenport(dataclasses.replace(inst, Q=next_q))


def test_exact_product_norm_is_never_looser_than_the_rounded_product():
    """The norm bound on the exact interval [q*lo, q*hi] is at least q
    times the integer distance of the outward-rounded enclosure gamma2 * q."""
    rng = random.Random(75)
    tighter = 0
    for _ in range(3000):
        prec = rng.choice((64, 128, 540, 1080))
        g2 = Fraction(rng.getrandbits(prec + 20), 1 << rng.randrange(prec - 10, prec + 30))
        gamma2 = CertifiedReal.from_endpoints(g2, g2 + Fraction(rng.randrange(1, 2 ** 20),
                                                                2 ** prec), prec)
        q = rng.choice((1, rng.getrandbits(rng.randrange(1, 200)) + 1))
        a, b, k = dyadic_numerators(gamma2._ival)
        exact = Fraction(reduction._norm_lower((a, b, k), q), 1 << k)
        r_a, r_b, r_k = dyadic_numerators((gamma2 * q)._ival)
        rounded = Fraction(q * reduction._norm_lower((r_a, r_b, r_k), 1), 1 << r_k)
        assert exact >= rounded
        tighter += exact > rounded
    assert tighter > 0


def test_reverify_bounds_the_gamma1_error_strictly():
    """|gamma1 - p/q| < q^-2 at both endpoints: an endpoint exactly q^-2
    away fails, one 2^-300 nearer passes."""
    q = 512
    for sign in (1, -1):
        for off, passes in ((Fraction(1, q * q), False),
                            (Fraction(1, q * q) - Fraction(1, 2 ** 300), True)):
            edge = CertifiedReal.from_rational(Fraction(1, q) + sign * off, 420)
            inst = _synthetic_instance(CertifiedReal.hull([edge, CertifiedReal.from_rational(
                Fraction(1, q), 420)]), passes=True)
            assert reverify_verdict(inst, reduction.Verdict(True, 1, q, None, None,
                                                            None, 1)) == passes


def test_reduce_single_rejects_success_that_fails_reverification(monkeypatch):
    monkeypatch.setattr(reduction, "reverify_verdict", lambda inst, verdict: False)
    out = reduce_single(2, 10)
    assert out.status != "success"
    assert out.escalations == reduction.MAX_PRECISION_ESCALATIONS + 1
    assert out.to_json()["reason"] == "re-verification failed"


def test_failed_record_says_why_the_last_attempt_failed(monkeypatch):
    def no_precision(which, t, A, Q, precision):
        raise PrecisionInsufficientError("too coarse at %d bits" % precision)

    attempts = reduction.MAX_PRECISION_ESCALATIONS + 2
    # 1.01*A + 2 exceeds q/2 for every q <= 10^5 * Q, so no convergent can pass
    rec = reduce_single(2, 10, A=10 ** 14, Q=10 ** 6).to_json()
    assert rec["status"] == "failed" and rec["escalations"] == attempts - 1
    assert rec["reason"].startswith("no convergent with q <= Q reaches")
    monkeypatch.setattr(reduction, "build_instance", no_precision)
    rec = reduce_single(2, 10).to_json()
    assert rec["reason"] == "too coarse at %d bits" % rec["precision"]


DIGESTS = Path(__file__).parent / "data" / "reduce_digest.json"


def _record_sha256(t, precision=None, Q=reduction.DEFAULT_Q):
    return hashlib.sha256(json.dumps(reduce_single(2, t, Q=Q, precision=precision).to_json(),
                                     sort_keys=True).encode()).hexdigest()


def test_reduce_records_match_the_byte_golden():
    """Seeded t in [2001, 576241] at Q = 10^60 and its 540 bits, and
    seeded t started at 270 and 180 bits, which climb the escalation
    ladder."""
    cases = _read_json(DIGESTS)["cases"]
    assert len(cases) == 140
    got = [[t, prec, _record_sha256(t, prec, Q=10 ** 60)] for t, prec, _ in cases]
    assert got == cases


def test_default_q_keeps_the_accepted_convergent():
    """On the byte golden's t, Q = 10^30 accepts the convergent that
    Q = 10^60 accepts, with the same certified norm; the conclusion
    |Lambda| > |beta|/Q^2 is then stronger by 2 * 30 * ln 10."""
    for t, prec, _ in _read_json(DIGESTS)["cases"]:
        if prec is not None:
            continue
        small, paper = reduce_single(2, t), reduce_single(2, t, Q=10 ** 60)
        assert small.status == paper.status == "success"
        assert (small.Q, small.precision, small.escalations) == (10 ** 30, 340, 0)
        assert (small.q, small.q_norm_lower) == (paper.q, paper.q_norm_lower), t
        assert abs(small.lambda_lower_ln - paper.lambda_lower_ln
                   - 60 * math.log(10)) < 1e-6


DEFAULT_DIGESTS = Path(__file__).parent / "data" / "reduce_default_digest.json"
# t in [2001, 576241] whose accepted q exceeds 10^30: they reach the last
# rung, Q = 10^35 at 2984 bits
LAST_RUNG_TS = (251349, 450939, 520941)


def _default_cases():
    """Every t in [10, 200] and 100 seeded t in [2001, 576241] at the
    default precision, 20 seeded t each started at 170 and 113 bits,
    which climb the ladder, and the last-rung t."""
    rng = random.Random(20261019)
    cases = [(t, None) for t in range(10, 201)]
    cases += [(t, None) for t in sorted(rng.sample(range(2001, 576242), 100))]
    for prec in (170, 113):
        cases += [(t, prec) for t in sorted(rng.sample(range(2001, 576242), 20))]
    return cases + [(t, None) for t in LAST_RUNG_TS]


def test_reduce_records_at_the_default_q_match_their_golden():
    cases = _read_json(DEFAULT_DIGESTS)["cases"]
    assert [(t, prec) for t, prec, _ in cases] == _default_cases()
    assert [[t, prec, _record_sha256(t, prec)] for t, prec, _ in cases] == cases


def test_last_rung_keeps_the_paper_q():
    top = reduction.Q_ESCALATION_FACTOR * reduction.DEFAULT_Q
    for t in LAST_RUNG_TS:
        small, paper = reduce_single(2, t), reduce_single(2, t, Q=10 ** 60)
        assert small.status == "success" and small.contradiction
        assert (small.Q, small.precision, small.escalations) == (
            top, reduction.reduction_precision(top) * 8, 4)
        assert small.q == paper.q and small.q > 10 ** 30
        assert small.q_norm_lower == paper.q_norm_lower


def test_ladder_runs_only_the_rungs_that_can_succeed(monkeypatch):
    """A 113- or 170-bit start has its rungs below 340 bits refused on the
    gamma1 width floor, before their roots are isolated; a last-rung t
    skips the higher precisions at Q = 10^30 once its scan is exhausted
    there; a default start isolates once.  The records are those of the
    full ladder (the byte goldens above)."""
    isolated = _count_isolations(monkeypatch)
    rng = random.Random(22)
    top = reduction.Q_ESCALATION_FACTOR * reduction.DEFAULT_Q
    for t in sorted(rng.sample(range(100, 576242), 12)):
        for start, escalations in ((113, 2), (170, 1), (None, 0)):
            isolated.clear()
            out = reduce_single(2, t, precision=start)
            assert (out.status, out.precision, out.escalations) == (
                "success", 340 if start is None else start << escalations, escalations)
            assert isolated == [out.precision], (t, start)
    for t in LAST_RUNG_TS:
        isolated.clear()
        out = reduce_single(2, t)
        assert (out.Q, out.escalations) == (top, 4)
        assert isolated == [340, reduction.reduction_precision(top) * 8], t


def _failed_scan(exhausted):
    def scan(inst):
        if not exhausted:
            raise PrecisionInsufficientError("endpoints disagree")
        return reduction.Verdict(False, None, None, None, None, None, 1)
    return scan


@pytest.mark.parametrize("exhausted", [False, True])
def test_exhausted_scan_jumps_to_the_q_rung(monkeypatch, exhausted):
    """A scan that fails cleanly leaves Q after its one instance; one that
    raises every time runs each precision rung at Q first."""
    isolated = _count_isolations(monkeypatch)
    monkeypatch.setattr(reduction, "baker_davenport", _failed_scan(exhausted))
    out = reduce_single(2, 2001)
    assert out.status == "failed" and out.escalations == 4
    top = reduction.DEFAULT_Q * reduction.Q_ESCALATION_FACTOR
    assert isolated == [340 << i for i in range(1 if exhausted else 4)] + [
        reduction.reduction_precision(top) * 8]


def test_a_clean_failure_skips_the_rungs_left_at_its_q(monkeypatch):
    """Whichever precision rung at Q first fails without raising, it is
    the last one isolated at Q: the next is the Q rung's."""
    isolated = _count_isolations(monkeypatch)
    top = reduction.DEFAULT_Q * reduction.Q_ESCALATION_FACTOR
    for clean in range(reduction.MAX_PRECISION_ESCALATIONS + 1):
        def scan(inst):
            if len(isolated) <= clean:
                raise PrecisionInsufficientError("endpoints disagree")
            return reduction.Verdict(False, None, None, None, None, None, 1)

        monkeypatch.setattr(reduction, "baker_davenport", scan)
        isolated.clear()
        out = reduce_single(2, 2001)
        assert (out.status, out.escalations) == ("failed", 4)
        assert isolated == [340 << i for i in range(clean + 1)] + [
            reduction.reduction_precision(top) * 8], clean


def test_a_scan_that_raises_does_not_stop_the_precision_rungs(monkeypatch):
    isolated = _count_isolations(monkeypatch)
    scan = reduction.baker_davenport

    def raise_once(inst):
        if len(isolated) == 1:
            raise PrecisionInsufficientError("endpoints disagree")
        return scan(inst)

    monkeypatch.setattr(reduction, "baker_davenport", raise_once)
    out = reduce_single(2, 2001)
    assert (out.status, out.precision, out.escalations) == ("success", 680, 1)
    assert isolated == [340, 680]


def test_a_ladder_below_the_width_floor_isolates_no_roots(monkeypatch):
    """At t = 10^200 the floor refuses every rung, the Q rung's too: the
    outcome fails with the floor's reason and no root is isolated.  At
    t = 10^150 the floor admits the 2720-bit rung and the Q rung, which
    isolate their roots, and the Q rung's scan gives the reason."""
    isolated = _count_isolations(monkeypatch)
    top = reduction.DEFAULT_Q * reduction.Q_ESCALATION_FACTOR
    out = reduce_single(2, 10 ** 200)
    assert (out.status, out.Q, out.precision, out.escalations) == ("failed", top, 2984, 4)
    assert out.reason.startswith("gamma1 width floor") and isolated == []
    out = reduce_single(2, 10 ** 150)
    assert (out.status, out.Q, out.precision, out.escalations) == ("failed", top, 2984, 4)
    assert out.reason == ("endpoints disagree on partial quotient 0 "
                          "(denominator 0 <= Q=%d)" % top)
    assert isolated == [2720, 2984]


def test_gamma1_width_floor_is_sound():
    """Differential check of the floor: wherever the gamma1 enclosure of
    build_instance's steps is formed, the floor is at most its width; and
    wherever build_instance refuses a precision on the floor, that
    enclosure is not formed or fails the width test too."""
    rng = random.Random(23)
    ts = [10, 11, 576241] + rng.sample(range(12, 576241), 12)
    formed = refused = 0
    for t in ts:
        for precision in (64, 80, 96, 113, 128, 150, 170, 200, 226, 256, 300, 340, 400, 452):
            floor = Fraction(*reduction.gamma1_width_floor(t, precision))
            try:
                a1, a2, _ = bounds.lambda_log_arguments(2, roots.isolate_roots(t, precision))
                gamma1 = a1.log() / a2.log()
            except (PrecisionInsufficientError, IndeterminateSignError):
                gamma1 = None
            else:
                formed += 1
                assert floor <= gamma1.width, (t, precision)
            for Q in (reduction.DEFAULT_Q, 10 ** 60):
                try:
                    build_instance(2, t, Q=Q, precision=precision)
                except (PrecisionInsufficientError, IndeterminateSignError) as exc:
                    if str(exc).startswith("gamma1 width floor"):
                        refused += 1
                        assert gamma1 is None or 100 * Q * Q * gamma1.width >= 1, (t, precision)
    assert formed > 100 and refused > 100


def _largest_fifth_power_root_below(n):
    r = round(n ** 0.2)
    while r ** 5 >= n:
        r -= 1
    while (r + 1) ** 5 < n:
        r += 1
    return r


def test_gamma1_width_floor_never_fires_at_the_default_precision():
    """At reduction_precision(Q) and on the Q rung, Q * Q_ESCALATION_FACTOR
    at 8 times its reduction_precision, for every t in [10, t_max], at
    the default Q and at the paper's Q = 10^60: so no ladder that starts
    at its default precision sees the floor refuse a rung up to t_max.
    The floor depends on t through bits(t), K (constant while t^5 stays
    between two powers of two) and -9/(4 t^6 2^K), which grows with t:
    on each run of t with one bits(t) and one K it is largest at the
    run's last t, so those are the t checked."""
    t_max = 576241
    ends = {t_max} | {min(2 ** b - 1, t_max) for b in range(4, t_max.bit_length() + 1)}
    ends |= {_largest_fifth_power_root_below(2 ** j) for j in range(17, 5 * 20)}
    ends = sorted(t for t in ends if 10 <= t <= t_max)
    assert ends[0] == 10 and ends[-1] == t_max and len(ends) == 80
    for Q in (reduction.DEFAULT_Q, 10 ** 60):
        top = Q * reduction.Q_ESCALATION_FACTOR
        for q, precision in ((Q, reduction.reduction_precision(Q)),
                             (top, reduction.reduction_precision(top) * 8)):
            assert all(Fraction(*reduction.gamma1_width_floor(t, precision))
                       < Fraction(1, 100 * q * q) for t in ends), (q, precision)


AGGREGATE = Path(__file__).parent / "data" / "reduce_aggregate.json"


def _aggregate_cases():
    """At Q = 10^60: every t in [10, 1199] and 1200 seeded t in
    [2001, 576241] at its 540 bits, then 130 seeded t each started at 270, 180 and 135
    bits; the 135-bit ones take three attempts (two escalations)."""
    rng = random.Random(20261018)
    cases = [(t, None) for t in range(10, 1200)]
    cases += [(t, None) for t in sorted(rng.sample(range(2001, 576242), 1200))]
    for prec in (270, 180, 135):
        cases += [(t, prec) for t in sorted(rng.sample(range(2001, 576242), 130))]
    return cases


def test_reduce_records_match_the_aggregate_golden():
    want = _read_json(AGGREGATE)
    cases = _aggregate_cases()
    assert len(cases) == want["count"]
    h = hashlib.sha256()
    for t, prec in cases:
        h.update(json.dumps(reduce_single(2, t, Q=10 ** 60, precision=prec).to_json(),
                            sort_keys=True).encode())
    assert h.hexdigest() == want["sha256"]
