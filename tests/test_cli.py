import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cubicthue import bounds, cli, exponents, realnum, reduction, roots, search

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"


def run(argv):
    return cli.main(argv)


def test_tmax_exit_ok(capsys):
    assert run(["tmax"]) == 0
    out = capsys.readouterr().out
    assert "576241" in out


def test_verify_theorem_t_minus_one(capsys):
    assert run(["verify-theorem", "--t", "-1", "--y-bound", "100"]) == 0
    out = capsys.readouterr().out
    assert "6 solutions" in out


def test_reduce_success(capsys):
    assert run(["reduce", "--t", "10", "--Q", "1e60", "--A", "3e18"]) == 0
    out = capsys.readouterr().out
    assert "reduction success" in out


def test_roots_command(capsys):
    assert run(["roots", "--t", "10"]) == 0
    recs = [json.loads(line) for line in
            capsys.readouterr().out.splitlines() if line.startswith("{")]
    assert len(recs) == 3
    assert all(r["schema"] == 1 for r in recs)


def test_kappas_range(capsys):
    assert run(["kappas", "--t-lo", "10", "--t-hi", "12"]) == 0
    out = capsys.readouterr().out
    assert "3/3 parameter values fully certified" in out


def test_exponents_command(capsys):
    assert run(["exponents", "--t", "5"]) == 0
    out = capsys.readouterr().out
    assert "all 5 known solutions" in out


def test_matveev_command(capsys):
    assert run(["matveev"]) == 0
    assert "within target window" in capsys.readouterr().out


def test_search_requires_one_target(capsys):
    assert run(["search"]) == 3
    assert run(["search", "--t", "2", "--coeffs", "1", "0", "0", "1"]) == 3


def test_search_by_coeffs(capsys):
    assert run(["search", "--coeffs", "1", "0", "-1", "1", "--y-bound", "100"]) == 0
    assert "5 solutions" in capsys.readouterr().out


def test_verify_tables_small_bound(capsys):
    # counts may fall short of N_F at a tiny bound; command still runs
    rc = run(["verify-tables", "--y-bound", "2000"])
    assert rc in (0, 1)


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 3
    assert run([]) == 3


@pytest.mark.parametrize("argv", [
    ["roots", "--t", "0"],
    ["exponents", "--t", "1"],
    ["reduce", "--t", "5"],
    ["kappas", "--t-lo", "5", "--t-hi", "6"],
    ["kappas", "--t-lo", "5", "--t-hi", "6", "--workers", "2"],
    ["sweep", "--t-lo", "5", "--t-hi", "6"],
    ["search", "--coeffs", "2", "0", "0", "1"],
    ["verify-theorem", "--t", "3", "--y-bound", "-1"],
    ["reduce", "--t", "10", "--Q", "0"],
    ["reduce", "--t", "10", "--A", "-5"],
    ["sweep", "--t-lo", "10", "--t-hi", "11", "--Q", "0"],
    ["certify-all", "--Q", "0"],
    ["certify-all", "--A", "0"],
    ["matveev", "--t", "5"],
])
def test_out_of_range_input_is_a_usage_error(argv, capsys):
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("cubicthue %s: error: " % argv[0])
    assert len(err.splitlines()) == 1


def test_kappas_certifies_an_extra_t_inside_the_range_once(capsys):
    assert run(["kappas", "--t-lo", "999", "--t-hi", "1001", "--extra-t", "1000"]) == 0
    out = capsys.readouterr().out
    recs = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    assert len(recs) == 48
    assert [r["t"] for r in recs[::16]] == [999, 1000, 1001]
    assert "kappas: 3/3 parameter values fully certified" in out


MATVEEV_RECORD = (
    b'{"coefficient": 8343947451864178.0, "height_checks": [true, true, true], '
    b'"in_target_window": true, "schema": 1, "t": 10, "w0_prefactor": 34.14955065583991, '
    b'"which": 2}\n')


def test_matveev_record_at_the_default_precision(tmp_path):
    out = tmp_path / "o.jsonl"
    assert run(["matveev", "--output", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == MATVEEV_RECORD


def test_matveev_record_names_its_t(tmp_path):
    out = tmp_path / "o.jsonl"
    assert run(["matveev", "--t", "20", "--output", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == MATVEEV_RECORD.replace(b'"t": 10', b'"t": 20')


@pytest.mark.parametrize("precision", ["20", "24", "28"])
def test_matveev_below_the_needed_precision_is_inconclusive(precision, tmp_path, capsys):
    # at 24 and 28 bits the h_unit enclosure contains 3 ln 10: undecided,
    # not failed; at 20 bits a root difference is not even separated from 0
    out = tmp_path / "o.jsonl"
    out.write_text("earlier run\n")
    assert run(["matveev", "--precision", precision, "--output", str(out)]) \
        == cli.EXIT_INCONCLUSIVE
    err = capsys.readouterr().err
    assert err.startswith("cubicthue matveev: inconclusive: ")
    assert len(err.splitlines()) == 1
    assert out.read_text() == "earlier run\n"


def test_failed_check_is_one_stderr_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bounds, "check_height_bounds", lambda roots: (True, True, False))
    out = tmp_path / "o.jsonl"
    assert run(["matveev", "--output", str(out)]) == cli.EXIT_VERIFICATION_FAILED
    err = capsys.readouterr().err
    assert err.startswith("cubicthue matveev: verification failed: height inequality")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_exponents_below_the_needed_precision_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(exponents, "RECOVERY_PRECISION", 8)
    monkeypatch.setattr(exponents, "RECOVERY_ESCALATIONS", 0)
    exponents._unit_logs.cache_clear()
    try:
        assert run(["exponents", "--t", "57"]) == cli.EXIT_INCONCLUSIVE
    finally:
        exponents._unit_logs.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("cubicthue exponents: inconclusive: exponent recovery")
    assert len(err.splitlines()) == 1


def test_bad_bound_is_refused_before_the_first_record(tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    assert run(["certify-all", "--Q", "0", "--output", str(out)]) == cli.EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_kappas_below_the_needed_precision_is_inconclusive(workers, capsys):
    argv = ["kappas", "--t-lo", "1990", "--t-hi", "1991", "--extra-t", "10",
            "--precision", "64", "--workers", workers]
    assert run(argv) == cli.EXIT_INCONCLUSIVE
    cap = capsys.readouterr()
    err = cap.err.splitlines()
    assert [line.split(":")[1] for line in err] == [" t=1990 inconclusive", " t=1991 inconclusive"]
    recs = [json.loads(line) for line in cap.out.splitlines() if line.startswith("{")]
    assert {r["t"] for r in recs} == {10} and len(recs) == 16
    assert "kappas: 1/3 parameter values fully certified" in cap.out


def test_kappas_reports_a_pole_that_meets_its_interval_as_inconclusive(monkeypatch,
                                                                         capsys):
    tr = roots.isolate_roots(16)
    lo, hi = roots.solution_interval(3, 16)
    # theta2 moved onto I_3, the pole of the ratio kappa_14 ranges over
    pole = realnum.CertifiedReal.from_endpoints(lo, hi, tr.precision)
    monkeypatch.setattr(roots, "isolate_roots",
                        lambda t, precision=None: dataclasses.replace(tr, theta2=pole))
    assert run(["kappas", "--t-lo", "16", "--t-hi", "16", "--workers", "1"]) \
        == cli.EXIT_INCONCLUSIVE
    cap = capsys.readouterr()
    assert cap.err == "kappas: t=16 inconclusive: the pole of the I_3 ratio meets I_3\n"
    assert "kappas: 0/1 parameter values fully certified" in cap.out
    assert not [line for line in cap.out.splitlines() if line.startswith("{")]


def test_kappas_with_a_straddled_target_is_inconclusive(capsys):
    # kappa_3's enclosure at t = 59 and 60, 100 bits, holds its target's end 5
    assert run(["kappas", "--t-lo", "59", "--t-hi", "60", "--precision", "100",
                "--workers", "1"]) == cli.EXIT_INCONCLUSIVE
    cap = capsys.readouterr()
    assert [line.split(" holds ")[1] for line in cap.err.splitlines()] == [
        "its target's end 5 (100 bits)"] * 2
    assert cap.err.startswith("kappas: t=59 inconclusive: kappa_3's enclosure [4.99996, 5.00036]")
    assert "FAILURE" not in cap.out
    assert "kappas: 0/2 parameter values fully certified" in cap.out


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_kappas_with_a_failed_row_exits_one(monkeypatch, tmp_path, capsys):
    rep = roots.verify_kappas(10)
    failed = dataclasses.replace(rep, rows=(rep.rows[0]._replace(passed=False),)
                                 + rep.rows[1:])
    monkeypatch.setattr(roots, "verify_kappas", lambda t, precision=None: failed)
    path = tmp_path / "k.jsonl"
    assert run(["kappas", "--t-lo", "10", "--t-hi", "10", "--workers", "1",
                "--output", str(path)]) == cli.EXIT_VERIFICATION_FAILED
    out = capsys.readouterr().out
    assert "kappa FAILURE at t=10\n" in out
    assert "kappas: 0/1 parameter values fully certified" in out
    recs = _records(path)
    assert len(recs) == 16 and [r["pass"] for r in recs] == [False] + [True] * 15


def _outcome(**changes):
    """A real reduction outcome at t = 10 with the given fields replaced."""
    return dataclasses.replace(reduction.reduce_single(2, 10), **changes)


@pytest.mark.parametrize("changes, code, line", [
    ({"contradiction": False}, cli.EXIT_VERIFICATION_FAILED,
     "t=10: reduction success but no contradiction"),
    ({"status": "failed", "contradiction": False, "reason": "scan exhausted"},
     cli.EXIT_INCONCLUSIVE, "t=10: reduction inconclusive after escalation"),
])
def test_reduce_exit_without_a_contradiction(changes, code, line, monkeypatch, tmp_path,
                                             capsys):
    outcome = _outcome(**changes)
    monkeypatch.setattr(reduction, "reduce_single", lambda *args: outcome)
    path = tmp_path / "r.jsonl"
    assert run(["reduce", "--t", "10", "--output", str(path)]) == code
    assert capsys.readouterr().out == line + "\n"
    assert _records(path) == [{**outcome.to_json(), "schema": 1}]


_UNDECIDED = {"status": "failed", "contradiction": False, "reason": "scan exhausted"}


@pytest.mark.parametrize("changes, code", [
    ((_UNDECIDED,), cli.EXIT_INCONCLUSIVE),
    (({"contradiction": False},), cli.EXIT_VERIFICATION_FAILED),
    # a failed claim is not hidden by an undecided t, before or after it
    (({"contradiction": False}, _UNDECIDED), cli.EXIT_VERIFICATION_FAILED),
    ((_UNDECIDED, {"contradiction": False}), cli.EXIT_VERIFICATION_FAILED),
])
def test_sweep_exit_with_a_record_short_of_a_contradiction(changes, code, monkeypatch,
                                                           tmp_path, capsys):
    # t = 10 succeeds, and each t after it takes one set of changes
    outcomes = [_outcome()] + [_outcome(t=11 + i, **c) for i, c in enumerate(changes)]
    monkeypatch.setattr(cli, "parallel_map", lambda fn, jobs, workers: (o for o in outcomes))
    path = tmp_path / "s.jsonl"
    assert run(["sweep", "--t-lo", "10", "--t-hi", str(10 + len(changes)),
                "--output", str(path)]) == code
    assert capsys.readouterr().out == \
        "sweep which=2: 1/%d success+contradiction\n" % len(outcomes)
    assert _records(path) == [o.to_json() for o in outcomes]


def _stage_stub(ran, name, status=cli.EXIT_OK):
    """A stand-in for the stage `name`: a generator that notes in `ran`
    that it ran, and returns `status` without a record."""
    def stage(**options):
        ran.append(name)
        return status
        yield
    return stage


_CERTIFY_ALL_STAGES = ("_cmd_kappas", "_cmd_matveev", "_cmd_tmax", "_cmd_sweep",
                       "_cmd_verify_tables")


@pytest.mark.parametrize("kappas, sweep, want", [
    (cli.EXIT_VERIFICATION_FAILED, cli.EXIT_INCONCLUSIVE, cli.EXIT_VERIFICATION_FAILED),
    (cli.EXIT_INCONCLUSIVE, cli.EXIT_VERIFICATION_FAILED, cli.EXIT_VERIFICATION_FAILED),
    (cli.EXIT_INCONCLUSIVE, cli.EXIT_OK, cli.EXIT_INCONCLUSIVE),
    (cli.EXIT_USAGE, cli.EXIT_VERIFICATION_FAILED, cli.EXIT_USAGE),
    (cli.EXIT_INCONCLUSIVE, cli.EXIT_USAGE, cli.EXIT_USAGE),
])
def test_certify_all_exits_with_its_worst_stage(kappas, sweep, want, monkeypatch, tmp_path):
    # a failed claim outranks an undecided stage, and a usage error both
    status = {"_cmd_kappas": kappas, "_cmd_sweep": sweep}
    for name in _CERTIFY_ALL_STAGES:
        monkeypatch.setattr(cli, name, _stage_stub([], name, status.get(name, cli.EXIT_OK)))
    monkeypatch.setattr(search, "verify_theorem", lambda t, y_bound: True)
    path = tmp_path / "c.jsonl"
    assert run(["certify-all", "--y-bound", "50", "--output", str(path)]) == want


def test_certify_all_theorem_range_failure_exits_one(monkeypatch, tmp_path, capsys):
    for name in _CERTIFY_ALL_STAGES:
        monkeypatch.setattr(cli, name, _stage_stub([], name))
    monkeypatch.setattr(search, "verify_theorem", lambda t, y_bound: t != 5)
    path = tmp_path / "c.jsonl"
    assert run(["certify-all", "--y-bound", "50", "--output", str(path)]) \
        == cli.EXIT_VERIFICATION_FAILED
    out = capsys.readouterr().out
    assert "theorem verification FAILED at t=5\n" in out
    assert "theorem range [-30,30]: 1 failures" in out
    assert _records(path) == [{"schema": 1, "stage": "theorem-range", "t_range": [-30, 30],
                               "y_bound": 50, "failures": 1}]


# per command, a cheap valid argv and the flags it does not read
_ARGV = {"roots": ["--t", "10"], "kappas": ["--t-lo", "10", "--t-hi", "10"],
         "exponents": ["--t", "5"], "matveev": [], "tmax": [], "reduce": ["--t", "10"],
         "search": ["--t", "2", "--y-bound", "10"],
         "verify-theorem": ["--t", "2", "--y-bound", "10"],
         "verify-tables": ["--y-bound", "10"]}
_UNREAD = ([(c, "--precision") for c in ("exponents", "tmax", "search",
                                         "verify-theorem", "verify-tables")]
           + [(c, "--workers") for c in ("roots", "exponents", "matveev", "tmax", "reduce",
                                         "search", "verify-theorem", "verify-tables")]
           + [(c, "--seed") for c in _ARGV])


@pytest.mark.parametrize("command, flag", _UNREAD)
def test_unread_flag_is_a_usage_error(command, flag, capsys):
    assert run([command] + _ARGV[command] + [flag, "2"]) == cli.EXIT_USAGE
    assert "unrecognized arguments: %s 2" % flag in capsys.readouterr().err


def test_sweep_and_certify_all_keep_the_flags_they_read():
    ap = cli.build_parser()
    args = ap.parse_args(["sweep", "--t-lo", "10", "--t-hi", "12", "--samples", "3",
                          "--seed", "7", "--workers", "2", "--precision", "600",
                          "--checkpoint", "ck.json", "--output", "out.jsonl"])
    assert (args.seed, args.workers, args.precision) == (7, 2, 600)
    args = ap.parse_args(["certify-all", "--seed", "7", "--workers", "2",
                          "--precision", "600"])
    assert (args.seed, args.workers, args.precision) == (7, 2, 600)


def _commands_reading(flag):
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {name for name, p in sub.choices.items()
            if any(flag in a.option_strings for a in p._actions)}


@pytest.mark.parametrize("flag", ["--precision", "--workers", "--seed"])
def test_readme_flag_table_matches_parser(flag):
    # the row of the README's flag table lists exactly the commands that
    # accept the flag
    rows = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("| `%s`" % flag)]
    assert len(rows) == 1, rows
    listed = set(re.findall(r"`([a-z-]+)`", rows[0].split("|")[2]))
    assert listed == _commands_reading(flag)


def test_sweep_refuses_a_checkpoint_for_other_parameters(capsys, tmp_path):
    ck, out = tmp_path / "ck.json", tmp_path / "out.jsonl"
    argv = ["sweep", "--t-lo", "10", "--t-hi", "11", "--samples", "1",
            "--checkpoint", str(ck), "--output", str(out)]
    assert run(argv) == 0
    before = ck.read_bytes(), out.read_bytes()
    # the precision the engine picks by itself is the same sweep
    assert run(argv + ["--precision", str(realnum.reduction_precision(reduction.DEFAULT_Q))]) \
        == 0
    # one field of the configuration changed at a time
    for other in (["--A", "1e6"], ["--Q", "1e31"], ["--which", "3"], ["--t-lo", "11"],
                  ["--t-hi", "12"], ["--full"], ["--samples", "2"], ["--seed", "7"],
                  ["--precision", "400"]):
        capsys.readouterr()
        assert run(argv + other) == cli.EXIT_USAGE, other
        err = capsys.readouterr().err
        assert err.startswith("cubicthue sweep: error: checkpoint %s was written for the "
                              "sweep " % ck)
        assert len(err.splitlines()) == 1
        assert (ck.read_bytes(), out.read_bytes()) == before


def test_sweep_refuses_a_checkpoint_without_its_sweep(capsys, tmp_path):
    # a checkpoint in the format that recorded only which, A and Q
    ck, out = tmp_path / "ck.json", tmp_path / "out.jsonl"
    argv = ["sweep", "--t-lo", "10", "--t-hi", "11", "--checkpoint", str(ck),
            "--output", str(out)]
    assert run(argv) == 0
    state = json.loads(ck.read_text())
    ck.write_text(json.dumps({"which": 2, "A": str(reduction.DEFAULT_A),
                              "Q": str(reduction.DEFAULT_Q), "last_t": state["last_t"],
                              "hash": state["hash"]}))
    before = ck.read_bytes(), out.read_bytes()
    capsys.readouterr()
    assert run(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "cubicthue sweep: error: checkpoint %s was written for the sweep null, not " % ck)
    assert (ck.read_bytes(), out.read_bytes()) == before


def test_sweep_refuses_a_checkpoint_without_last_t_or_hash(capsys, tmp_path):
    ck = tmp_path / "ck.json"
    argv = ["sweep", "--t-lo", "10", "--t-hi", "11", "--checkpoint", str(ck),
            "--output", str(tmp_path / "out.jsonl")]
    assert run(argv) == 0
    state = json.loads(ck.read_text())
    for key in ("last_t", "hash"):
        ck.write_text(json.dumps({k: v for k, v in state.items() if k != key}))
        before = ck.read_bytes()
        capsys.readouterr()
        assert run(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "cubicthue sweep: error: checkpoint %s lacks an integer last_t or a "
            "string hash\n" % ck)
        assert ck.read_bytes() == before


def test_sweep_refuses_a_checkpoint_that_is_not_json(capsys, tmp_path):
    ck, out = tmp_path / "ck.json", tmp_path / "out.jsonl"
    argv = ["sweep", "--t-lo", "10", "--t-hi", "11", "--checkpoint", str(ck),
            "--output", str(out)]
    assert run(argv) == 0
    ck.write_text('{"last_t": 11, "hash"')
    before = out.read_bytes()
    capsys.readouterr()
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("cubicthue sweep: error: checkpoint %s is not valid JSON: "
                          % ck)
    assert len(err.splitlines()) == 1
    assert out.read_bytes() == before


def test_refused_run_leaves_the_output_file_as_it_was(capsys, tmp_path):
    out = tmp_path / "o.jsonl"
    argv = ["sweep", "--t-lo", "10", "--t-hi", "12",
            "--checkpoint", str(tmp_path / "ck.json"), "--output", str(out)]
    assert run(argv) == 0
    before = out.read_bytes()
    assert len(before.splitlines()) == 3
    for refused in (argv + ["--A", "1e6"],
                    ["roots", "--t", "0", "--output", str(out)],
                    ["kappas", "--t-lo", "10", "--t-hi", "10", "--extra-t", "5",
                     "--output", str(out)],
                    ["search", "--output", str(out)]):
        assert run(refused) == cli.EXIT_USAGE
        assert out.read_bytes() == before
    # nor is a missing one created
    missing = tmp_path / "missing.jsonl"
    assert run(["roots", "--t", "0", "--output", str(missing)]) == cli.EXIT_USAGE
    assert not missing.exists()


@pytest.mark.parametrize("argv", [
    ["exponents", "--t", "10", "--output", "{missing}/x"],
    ["sweep", "--t-lo", "10", "--t-hi", "11", "--output", "{dir}"],
    # refused before the first record
    ["sweep", "--t-lo", "10", "--t-hi", "11", "--checkpoint", "{missing}/ck"],
    # no records: the file is opened at the end, for its newline
    ["kappas", "--t-lo", "11", "--t-hi", "10", "--output", "{missing}/x"],
])
def test_unwritable_output_is_a_usage_error(argv, capsys, tmp_path):
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert re.fullmatch(r"cubicthue %s: error: \[Errno \d+\] [^\n]*\n" % argv[0], err)


@pytest.mark.parametrize("argv", [
    ["sweep", "--t-lo", "10", "--t-hi", "11"],
    ["certify-all", "--t-lo", "10", "--t-hi", "11", "--y-bound", "5"],
])
def test_unwritable_checkpoint_is_refused_before_any_work(argv, capsys, tmp_path):
    argv = argv + ["--checkpoint", str(tmp_path / "missing" / "ck"),
                   "--output", str(tmp_path / "o.jsonl")]
    assert run(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"cubicthue %s: error: \[Errno \d+\] [^\n]*ck\.tmp'\n" % argv[0],
                        captured.err)
    # no --output, and no probe file either
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_probe_leaves_no_new_file(tmp_path):
    ck = tmp_path / "ck.json"
    cli._check_checkpoint_writable(str(ck))
    assert list(tmp_path.iterdir()) == []
    # a leftover PATH.tmp from a run stopped mid-write is kept as it was
    (tmp_path / "ck.json.tmp").write_text("partial")
    cli._check_checkpoint_writable(str(ck))
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [("ck.json.tmp", "partial")]


def test_sweep_small_range(capsys, tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--t-lo", "10", "--t-hi", "14", "--output", str(out_path)]
    assert run(argv) == 0
    recs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["t"] for r in recs] == [10, 11, 12, 13, 14]
    assert all(r["contradiction"] for r in recs)
    # the records are the only output: there is no CSV projection of them
    csv_path = tmp_path / "sweep.csv"
    assert run(argv + ["--csv", str(csv_path)]) == cli.EXIT_USAGE
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    assert not csv_path.exists()


def test_sweep_derives_t_max_only_when_it_reads_it(monkeypatch, tmp_path):
    derive = bounds.derive_t_max
    calls = []
    monkeypatch.setattr(bounds, "derive_t_max",
                        lambda *a: calls.append("tmax") or derive(*a))
    monkeypatch.setattr(cli, "parallel_map", lambda fn, jobs, workers: (o for o in ()))
    sweep = ["sweep", "--t-lo", "10", "--t-hi", "11", "--output", str(tmp_path / "o")]
    assert run(sweep) == 0 and calls == []
    assert run(sweep + ["--samples", "3"]) == 0 and calls == ["tmax"]
    assert run(sweep + ["--full"]) == 0 and calls == ["tmax"] * 2
    # certify-all keeps its own tmax stage
    for name in ("_cmd_kappas", "_cmd_matveev", "_cmd_sweep", "_cmd_verify_tables"):
        monkeypatch.setattr(cli, name, _stage_stub([], name))
    assert run(["certify-all", "--y-bound", "5", "--output", str(tmp_path / "c")]) == 0
    assert calls == ["tmax"] * 3
    assert json.loads((tmp_path / "c").read_text().splitlines()[0])["t_max"] == 576241


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_checkpoint_never_passes_the_written_output(workers, monkeypatch, tmp_path,
                                                          hang_watchdog):
    monkeypatch.setattr(cli, "CHECKPOINT_INTERVAL", 4)
    emit = cli._Output.emit
    emitted = []

    def failing(self, record):
        emitted.append(record["t"])
        if len(emitted) == 6:
            raise OSError("disk full")
        return emit(self, record)

    monkeypatch.setattr(cli._Output, "emit", failing)
    printed = []
    monkeypatch.setattr(cli, "print", lambda *args, **kwargs: printed.append(
        (args[0], multiprocessing.active_children())), raising=False)
    ck, out = tmp_path / "ck.json", tmp_path / "out.jsonl"
    assert run(["sweep", "--t-lo", "10", "--t-hi", "20", "--workers", workers,
                "--checkpoint", str(ck), "--output", str(out)]) == cli.EXIT_USAGE
    # the error is printed while its traceback still holds the sweep's
    # iterator: the pool is down before the error leaves the sweep, not
    # only once that traceback is freed
    assert printed == [("cubicthue sweep: error: disk full", [])]
    lines = out.read_text().splitlines()
    written = [json.loads(line)["t"] for line in lines]
    assert written == [10, 11, 12, 13, 14]
    state = json.loads(ck.read_text())
    assert state["last_t"] <= written[-1]
    # the checkpoint hash is the digest of the written records it counts
    counted = written.index(state["last_t"]) + 1
    assert state["hash"] == hashlib.sha256(
        "".join(lines[:counted]).encode()).hexdigest()


def _sweep_argv(tmp_path, name, t_hi=20):
    ck, out = tmp_path / (name + ".json"), tmp_path / (name + ".jsonl")
    return (["sweep", "--t-lo", "10", "--t-hi", str(t_hi), "--checkpoint", str(ck),
             "--output", str(out)], ck, out)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_resumes_after_a_failed_write(workers, monkeypatch, tmp_path, capsys,
                                            hang_watchdog):
    monkeypatch.setattr(cli, "CHECKPOINT_INTERVAL", 4)
    argv, full_ck, full_out = _sweep_argv(tmp_path, "full")
    assert run(argv) == 0
    argv, ck, out = _sweep_argv(tmp_path, "cut")
    argv += ["--workers", workers]
    emit = cli._Output.emit
    emitted = []

    def failing(self, record):
        emitted.append(record["t"])
        if len(emitted) == 6:
            raise OSError("disk full")
        return emit(self, record)

    monkeypatch.setattr(cli._Output, "emit", failing)
    assert run(argv) == cli.EXIT_USAGE
    # the pool is down, its task thread stopped reading the ts
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == "cubicthue sweep: error: disk full\n"
    monkeypatch.setattr(cli._Output, "emit", emit)
    assert json.loads(ck.read_text())["last_t"] == 13
    # t = 14 is written but not counted, and a line cut mid-write follows
    with open(out, "a") as fh:
        fh.write(full_out.read_text().splitlines()[5][:40])
    assert [json.loads(line)["t"] for line in out.read_text().splitlines()[:-1]] \
        == [10, 11, 12, 13, 14]
    assert run(argv) == 0
    assert out.read_bytes() == full_out.read_bytes()
    assert ck.read_bytes() == full_ck.read_bytes()


def test_the_cli_maps_no_openssl(tmp_path):
    """The checkpoint's digest is CPython's built-in SHA-256, so neither
    importing the CLI nor a two-worker sweep with a checkpoint loads
    hashlib's OpenSSL module."""
    code = ("import sys\n"
            "from cubicthue import cli\n"
            "loaded = '_hashlib' in sys.modules\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(loaded, '_hashlib' in sys.modules, rc)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, "sweep", "--t-lo", "10", "--t-hi", "16",
         "--workers", "2", "--checkpoint", str(tmp_path / "ck.json"),
         "--output", str(tmp_path / "out.jsonl")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "False False 0", done.stderr
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 7


def test_sweep_and_kappas_stream_their_ts(monkeypatch, tmp_path):
    """`sweep --full` and the kappa range to t_max hand the pool a stream
    whose length is their t count and whose size is that of a 10-t one."""
    streams = []

    def recording(fn, jobs, workers):
        streams.append(jobs)
        return (r for r in ())

    monkeypatch.setattr(cli, "parallel_map", recording)
    out = ["--output", str(tmp_path / "out.jsonl")]
    for argv in (["sweep", "--full"], ["sweep", "--t-lo", "10", "--t-hi", "19"],
                 ["kappas", "--t-lo", "2001", "--t-hi", "576241"],
                 ["kappas", "--t-lo", "2001", "--t-hi", "2010"]):
        assert run(argv + out) == 0
    sweep_full, sweep_10, kappas_full, kappas_10 = streams
    assert [len(s) for s in streams] == [576232, 10, 574241, 10]
    assert sys.getsizeof(sweep_full) == sys.getsizeof(sweep_10)
    assert sys.getsizeof(kappas_full) == sys.getsizeof(kappas_10)


def test_kappas_stream_the_range_then_new_extras(monkeypatch, capsys):
    """The kappa jobs are the range and then each extra t not in it, once,
    in first-seen order: below, inside, next to and above the range."""
    streams = []
    monkeypatch.setattr(cli, "parallel_map",
                        lambda fn, jobs, workers: streams.append(jobs) or iter(()))
    extra = [40, 25, 12, 20, 31, 25, 19, 30, 12, 576241, 10 ** 6]
    for lo, hi in ((20, 30), (30, 20)):
        for ex in (extra, extra[::-1], []):
            assert list(cli._cmd_kappas(None, 1, lo, hi, ex)) == []
            jobs = streams.pop()
            old = list(dict.fromkeys([*range(lo, hi + 1), *ex]))
            assert (len(jobs), list(jobs), list(jobs)) == (len(old), old, old)
            assert capsys.readouterr().out == \
                "kappas: %d/%d parameter values fully certified\n" % (len(old), len(old))


def test_sweep_rerun_of_a_finished_run_leaves_its_output(capsys, tmp_path):
    argv, ck, out = _sweep_argv(tmp_path, "done", t_hi=14)
    assert run(argv) == 0
    before = out.read_bytes(), ck.read_bytes()
    assert run(argv) == 0
    assert (out.read_bytes(), ck.read_bytes()) == before
    # the verdict still judges the five records it did not write again
    assert capsys.readouterr().out.splitlines()[-1] \
        == "sweep which=2: 5/5 success+contradiction"


def test_a_resumed_sweep_judges_the_records_it_resumed(monkeypatch, tmp_path, capsys):
    """A reduction that fails at t = 11, before the checkpoint at t = 12
    that a run stopped at t = 14 resumes from: the resumed run gives the
    uninterrupted run's summary, exit code, output and checkpoint."""
    reduce_single = reduction.reduce_single
    monkeypatch.setattr(reduction, "reduce_single", lambda which, t, *a, **k: (
        _outcome(t=11, status="failed", contradiction=False, reason="scan exhausted")
        if t == 11 else reduce_single(which, t, *a, **k)))
    monkeypatch.setattr(cli, "CHECKPOINT_INTERVAL", 3)
    argv, full_ck, full_out = _sweep_argv(tmp_path, "full", t_hi=16)
    summary = "sweep which=2: 6/7 success+contradiction\n"
    assert run(argv) == cli.EXIT_INCONCLUSIVE
    assert capsys.readouterr().out == summary
    argv, ck, out = _sweep_argv(tmp_path, "cut", t_hi=16)
    emit = cli._Output.emit

    def failing(self, record):
        if record["t"] == 14:
            raise OSError("disk full")
        return emit(self, record)

    monkeypatch.setattr(cli._Output, "emit", failing)
    assert run(argv) == cli.EXIT_USAGE
    monkeypatch.setattr(cli._Output, "emit", emit)
    assert json.loads(ck.read_text())["last_t"] == 12
    capsys.readouterr()
    assert run(argv) == cli.EXIT_INCONCLUSIVE
    assert capsys.readouterr().out == summary
    assert (out.read_bytes(), ck.read_bytes()) == (full_out.read_bytes(), full_ck.read_bytes())


def test_sweep_resume_refuses_an_output_that_does_not_match(capsys, tmp_path):
    argv, ck, out = _sweep_argv(tmp_path, "ck", t_hi=14)
    assert run(argv) == 0
    lines = out.read_text().splitlines()
    tampered = [lines[0], lines[1].replace('"escalations": 0', '"escalations": 1')]
    # the last: records judged before the hash is checked, one not a reduction's
    for text in ("\n".join(tampered + lines[2:]) + "\n",
                 "\n".join(lines[:3]) + "\n",
                 "\n".join(lines),
                 "\n".join([lines[0], '{"t": 11}']
                           + lines[2:]) + "\n"):
        out.write_text(text)
        before = out.read_bytes(), ck.read_bytes()
        capsys.readouterr()
        assert run(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "cubicthue sweep: error: %s does not hold the records its checkpoint "
            "counts through t=14\n" % out)
        assert (out.read_bytes(), ck.read_bytes()) == before
    out.unlink()
    assert run(argv) == cli.EXIT_USAGE
    assert not out.exists()


def test_sweep_resume_needs_the_output(capsys, tmp_path):
    argv, ck, out = _sweep_argv(tmp_path, "ck", t_hi=11)
    assert run(argv) == 0
    before = ck.read_bytes()
    capsys.readouterr()
    assert run(argv[:-2]) == cli.EXIT_USAGE
    assert capsys.readouterr() == (
        "", "cubicthue sweep: error: resuming from a checkpoint needs the "
            "--output it counts\n")
    assert ck.read_bytes() == before


def test_certify_all_refuses_a_checkpoint_that_counts_records(monkeypatch, capsys,
                                                              tmp_path):
    ck, out = tmp_path / "ck.json", tmp_path / "c.jsonl"
    argv = ["certify-all", "--t-lo", "10", "--t-hi", "11", "--checkpoint", str(ck),
            "--output", str(out)]
    assert run(["sweep"] + argv[1:7] + ["--output", str(tmp_path / "s.jsonl")]) == 0
    stages = []
    for name in _CERTIFY_ALL_STAGES:
        monkeypatch.setattr(cli, name, _stage_stub(stages, name))
    capsys.readouterr()
    assert run(argv) == cli.EXIT_USAGE
    assert stages == [] and not out.exists()
    assert capsys.readouterr().err == (
        "cubicthue certify-all: error: checkpoint %s already counts records; "
        "certify-all does not resume\n" % ck)
    ck.unlink()
    assert run(argv + ["--y-bound", "5"]) == 0 and len(stages) == 5


def test_certify_all_checkpoint_counts_every_line_before_it(tmp_path):
    """certify-all's checkpoint is written while its sweep stage runs; its
    hash covers all the lines of --output up to the sweep's last record,
    the records of the stages before the sweep included."""
    ck, out = tmp_path / "ck.json", tmp_path / "c.jsonl"
    assert run(["certify-all", "--t-lo", "10", "--t-hi", "11", "--y-bound", "20", "--Q", "1e60",
                "--checkpoint", str(ck), "--output", str(out)]) == cli.EXIT_OK
    lines = out.read_text().splitlines()
    counted = max(i for i, line in enumerate(lines) if '"status": ' in line) + 1
    state = json.loads(ck.read_text())
    assert state["last_t"] == json.loads(lines[counted - 1])["t"]
    assert state["hash"] == hashlib.sha256("".join(lines[:counted]).encode()).hexdigest()
    assert state["config"]["t_range"] == [10, 11] and len(state["config"]["extra_ts"]) == 100
    assert "kappa" in lines[0] and "matches_expected" in lines[-1]


def test_certify_all_theorem_range_starts_at_most_one_pool(monkeypatch, capsys, tmp_path):
    for name in _CERTIFY_ALL_STAGES:
        monkeypatch.setattr(cli, name, _stage_stub([], name))
    pools = []
    Pool = multiprocessing.Pool

    def counting(*args, **kwargs):
        pools.append(args)
        return Pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    path = tmp_path / "theorem.jsonl"
    assert run(["certify-all", "--y-bound", "50", "--workers", "2",
                "--output", str(path)]) == 0
    assert pools == []
    assert json.loads(path.read_text()) == {
        "schema": 1, "stage": "theorem-range", "t_range": [-30, 30],
        "y_bound": 50, "failures": 0}
    assert "theorem range [-30,30]: 0 failures" in capsys.readouterr().out


def test_byte_identical_output_for_identical_config(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["kappas", "--t-lo", "10", "--t-hi", "11",
                "--output", str(a)]) == 0
    assert run(["kappas", "--t-lo", "10", "--t-hi", "11",
                "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("CUBICTHUE_WORKERS", "2")
    a = tmp_path / "a.jsonl"
    assert run(["kappas", "--t-lo", "10", "--t-hi", "11",
                "--output", str(a)]) == 0
    assert a.read_text().strip()


def test_the_command_is_one_of_its_workers(monkeypatch, tmp_path, hang_watchdog):
    """--workers 2, or CUBICTHUE_WORKERS=2, starts one pool process, since
    the command computes too; --workers 1 or a single t starts none."""
    started = []
    Pool = multiprocessing.Pool

    def counting(processes):
        pool = Pool(processes)
        started.append(len(multiprocessing.active_children()))
        return pool

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    out = ["--output", str(tmp_path / "out.jsonl")]
    for command in ("kappas", "sweep"):
        assert run([command, "--t-lo", "10", "--t-hi", "11", "--workers", "2"] + out) == 0
        with monkeypatch.context() as env:
            env.setenv("CUBICTHUE_WORKERS", "2")
            assert run([command, "--t-lo", "10", "--t-hi", "11"] + out) == 0
            assert run([command, "--t-lo", "10", "--t-hi", "10"] + out) == 0
        assert run([command, "--t-lo", "10", "--t-hi", "11", "--workers", "1"] + out) == 0
    assert started == [1, 1, 1, 1]
    assert multiprocessing.active_children() == []


def test_precision_cap_applies_to_default_precision(monkeypatch, capsys):
    monkeypatch.setenv("CUBICTHUE_PRECISION_CAP", "200")
    assert run(["roots", "--t", "10"]) == 0
    assert "at 200 bits" in capsys.readouterr().out
    seen = []
    verify_kappas = roots.verify_kappas
    monkeypatch.setattr(roots, "verify_kappas",
                        lambda t, p: seen.append(p) or verify_kappas(t, p))
    run(["kappas", "--t-lo", "10", "--t-hi", "11"])
    assert seen == [200, 200]
    reduce_single = reduction.reduce_single
    monkeypatch.setattr(reduction, "reduce_single",
                        lambda w, t, A, Q, p: seen.append(p) or reduce_single(w, t, A, Q, p))
    run(["reduce", "--t", "10"])
    assert seen[-1] == 200
    # a cap above the default leaves it alone; --precision is capped too
    monkeypatch.setenv("CUBICTHUE_PRECISION_CAP", "1000")
    run(["reduce", "--t", "10"])
    assert seen[-1] == realnum.reduction_precision(reduction.DEFAULT_Q)
    run(["reduce", "--t", "10", "--precision", "2000"])
    assert seen[-1] == 1000
    monkeypatch.delenv("CUBICTHUE_PRECISION_CAP")
    run(["reduce", "--t", "10"])
    assert seen[-1] is None


def test_precision_cap_bounds_only_where_the_ladder_starts(monkeypatch, capsys, tmp_path):
    """CUBICTHUE_PRECISION_CAP=170 writes the bytes --precision 170
    writes: the ladder starts at 170 bits and still climbs past the cap,
    to 340 bits."""
    outputs = []
    for env, flag in ((None, ["--precision", "170"]), ("170", [])):
        if env is None:
            monkeypatch.delenv("CUBICTHUE_PRECISION_CAP", raising=False)
        else:
            monkeypatch.setenv("CUBICTHUE_PRECISION_CAP", env)
        path = tmp_path / ("sweep%d.jsonl" % len(outputs))
        assert run(["reduce", "--t", "2001"] + flag) == cli.EXIT_OK
        assert run(["sweep", "--t-lo", "2001", "--t-hi", "2002",
                    "--output", str(path)] + flag) == cli.EXIT_OK
        outputs.append((capsys.readouterr(), path.read_bytes()))
    assert outputs[0] == outputs[1]
    (reduce_out, _), sweep_out = outputs[0]
    records = [json.loads(line) for line in reduce_out.splitlines()[:1]
               + sweep_out.decode().splitlines()]
    assert [(r["t"], r["precision"], r["escalations"]) for r in records] == [
        (2001, 340, 1), (2001, 340, 1), (2002, 340, 1)]


def test_precision_below_one_bit_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    for argv in (["roots", "--t", "10", "--precision", "0"],
                 ["reduce", "--t", "10", "--precision", "-5"],
                 ["kappas", "--t-lo", "10", "--t-hi", "11", "--precision", "0"],
                 ["matveev", "--precision", "0"],
                 ["sweep", "--t-lo", "10", "--t-hi", "11", "--precision", "0"]):
        assert run(argv + ["--output", str(out)]) == cli.EXIT_USAGE, argv
        assert capsys.readouterr().err == ("cubicthue %s: error: --precision must be "
                                           "at least 1, got %s\n" % (argv[0], argv[-1]))
        assert not out.exists()
    assert run(["roots", "--t", "10", "--precision", "1"]) == cli.EXIT_OK


def test_workers_below_one_is_a_usage_error(monkeypatch, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    for argv in (["kappas", "--t-lo", "10", "--t-hi", "10", "--workers", "0"],
                 ["sweep", "--t-lo", "10", "--t-hi", "10", "--workers", "-1"],
                 ["certify-all", "--t-lo", "10", "--t-hi", "10", "--workers", "0"]):
        assert run(argv + ["--output", str(out)]) == cli.EXIT_USAGE, argv
        assert capsys.readouterr() == ("", "cubicthue %s: error: --workers must be at "
                                           "least 1, got %s\n" % (argv[0], argv[-1]))
        assert not out.exists()
    for workers in ("0", "-2"):
        monkeypatch.setenv("CUBICTHUE_WORKERS", workers)
        for argv in (["kappas", "--t-lo", "10", "--t-hi", "10"],
                     ["sweep", "--t-lo", "10", "--t-hi", "10"]):
            assert run(argv + ["--output", str(out)]) == cli.EXIT_USAGE, argv
            assert capsys.readouterr() == ("", "cubicthue %s: error: CUBICTHUE_WORKERS must "
                                               "be at least 1, got %s\n" % (argv[0], workers))
            assert not out.exists()
        # --workers is read first, so the variable is not
        assert run(["sweep", "--t-lo", "10", "--t-hi", "10", "--workers", "1"]) == cli.EXIT_OK
        capsys.readouterr()


def test_precision_cap_below_one_bit_is_a_usage_error(monkeypatch, capsys):
    for cap in ("0", "-3"):
        monkeypatch.setenv("CUBICTHUE_PRECISION_CAP", cap)
        for argv in (["roots", "--t", "10"], ["matveev"],
                     ["reduce", "--t", "10", "--precision", "200"],
                     ["sweep", "--t-lo", "10", "--t-hi", "11"],
                     # read once before the first t, so an empty range reads it too
                     ["kappas", "--t-lo", "10", "--t-hi", "11", "--workers", "2"],
                     ["kappas", "--t-lo", "11", "--t-hi", "10"]):
            assert run(argv) == cli.EXIT_USAGE, (cap, argv)
            err = "cubicthue %s: error: CUBICTHUE_PRECISION_CAP must be at least 1, got %s\n"
            assert capsys.readouterr() == ("", err % (argv[0], cap))


def test_precision_cap_that_is_no_integer_names_the_variable(monkeypatch, capsys,
                                                             tmp_path):
    out = tmp_path / "out.jsonl"
    monkeypatch.setenv("CUBICTHUE_PRECISION_CAP", "abc")
    for argv in (["roots", "--t", "10"], ["matveev"],
                 ["sweep", "--t-lo", "10", "--t-hi", "11"],
                 ["kappas", "--t-lo", "10", "--t-hi", "11", "--workers", "2"],
                 ["kappas", "--t-lo", "11", "--t-hi", "10"]):
        assert run(argv + ["--output", str(out)]) == cli.EXIT_USAGE, argv
        assert capsys.readouterr() == ("", "cubicthue %s: error: CUBICTHUE_PRECISION_CAP "
                                           "must be an integer, got 'abc'\n" % argv[0])
        assert not out.exists()


def test_workers_that_is_no_integer_names_the_variable(monkeypatch, capsys, tmp_path):
    out = tmp_path / "out.jsonl"
    monkeypatch.setenv("CUBICTHUE_WORKERS", "abc")
    for argv in (["kappas", "--t-lo", "10", "--t-hi", "11"],
                 ["sweep", "--t-lo", "10", "--t-hi", "11"]):
        assert run(argv + ["--output", str(out)]) == cli.EXIT_USAGE, argv
        assert capsys.readouterr() == ("", "cubicthue %s: error: CUBICTHUE_WORKERS "
                                           "must be an integer, got 'abc'\n" % argv[0])
        assert not out.exists()
    # --workers is read first, so the variable is not
    assert run(["kappas", "--t-lo", "10", "--t-hi", "10", "--workers", "1",
                "--output", str(out)]) == cli.EXIT_OK


def test_sci_notation_parsing():
    assert cli._int_from_sci("1e60") == 10 ** 60
    assert cli._int_from_sci("3e18") == 3 * 10 ** 18
    assert cli._int_from_sci("576241") == 576241
    for text in ("1.5", "abc", "inf", "nan", "snan", ""):
        with pytest.raises(argparse.ArgumentTypeError, match="is not an integer"):
            cli._int_from_sci(text)


@pytest.mark.parametrize("argv", [
    ["search", "--t", "2", "--y-bound", "1.5"],
    ["verify-theorem", "--t", "2", "--y-bound", "abc"],
    ["verify-tables", "--y-bound", "1e-3"],
    ["certify-all", "--y-bound", "inf"],
])
def test_y_bound_that_is_no_integer_is_a_usage_error(argv, capsys):
    assert run(argv) == cli.EXIT_USAGE
    assert "error: argument --y-bound: %r is not an integer" % argv[-1] \
        in capsys.readouterr().err


def test_y_bound_in_sci_notation_writes_the_same_bytes(tmp_path, capsys):
    outputs = []
    for y_bound in ("1e30", str(10 ** 30)):
        path = tmp_path / ("%s.jsonl" % y_bound)
        assert run(["search", "--t", "2", "--y-bound", y_bound, "--output", str(path)]) == 0
        outputs.append((path.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert b'"y_bound": 1000000000000000000000000000000' in outputs[0][0]


def test_verify_theorem_at_t_one_matches_the_five_solutions(capsys):
    # F_{3,1} is the discriminant -23 form, with (4, -3) beside the list
    assert run(["verify-theorem", "--t", "1", "--y-bound", "10"]) == 0
    out = capsys.readouterr().out
    assert out == ('{"count": 5, "pass": true, "schema": 1, "solutions": [[-1, 1], '
                   '[0, 1], [1, 0], [1, 1], [4, -3]], "t": 1, "y_bound": 10}\n'
                   "t=1: 5 solutions, matches published list\n")


def test_seeded_samples_deterministic():
    s1 = cli._sample_ts(cli.DEFAULT_SEED, 100, 2001, 576241)
    s2 = cli._sample_ts(cli.DEFAULT_SEED, 100, 2001, 576241)
    assert s1 == s2 and len(set(s1)) == 100
    assert all(2001 <= t <= 576241 for t in s1)


def test_verify_theorem_searches_once(monkeypatch, capsys):
    calls = []
    bruteforce = search.thue_solutions_bruteforce

    def counting(*args, **kwargs):
        calls.append(args)
        return bruteforce(*args, **kwargs)

    monkeypatch.setattr(search, "thue_solutions_bruteforce", counting)
    assert run(["verify-theorem", "--t", "-1", "--y-bound", "100"]) == 0
    assert len(calls) == 1
    assert "matches published list" in capsys.readouterr().out


def test_output_streams_each_record(tmp_path):
    path = tmp_path / "out.jsonl"
    out = cli._Output(str(path))
    out.emit({"t": 10})
    assert path.read_text() == '{"schema": 1, "t": 10}\n'
    out.emit({"t": 11})
    out.close()
    assert path.read_text().splitlines()[1] == '{"schema": 1, "t": 11}'


def test_output_without_records_is_one_newline(tmp_path):
    path = tmp_path / "out.jsonl"
    out = cli._Output(str(path))
    out.close()
    assert path.read_bytes() == b"\n"


@pytest.mark.parametrize("argv, golden", [
    (["sweep", "--t-lo", "10", "--t-hi", "14", "--Q", "1e60"], "sweep_10_14.jsonl"),
    (["kappas", "--t-lo", "10", "--t-hi", "11"], "kappas_10_11.jsonl"),
    (["roots", "--t", "2"], "roots_t2.jsonl"),
    (["roots", "--t", "576241"], "roots_t576241.jsonl"),
    (["exponents", "--t", "2"], "exponents_t2.jsonl"),
    (["exponents", "--t", "9"], "exponents_t9.jsonl"),
    (["exponents", "--t", "57"], "exponents_t57.jsonl"),
    (["exponents", "--t", "100"], "exponents_t100.jsonl"),
    (["exponents", "--t", "576241"], "exponents_t576241.jsonl"),
])
def test_output_bytes_match_golden(argv, golden, tmp_path):
    # the golden files were written by the Fraction-bisection engine
    path = tmp_path / golden
    assert run(argv + ["--output", str(path)]) == 0
    assert path.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_certify_all_bytes_match_golden(workers, tmp_path):
    # written by the engine whose stages were hand-wired, each with its
    # own process-pool code
    path = tmp_path / "certify.jsonl"
    assert run(["certify-all", "--t-lo", "10", "--t-hi", "12", "--y-bound", "50",
                "--Q", "1e60", "--workers", workers, "--output", str(path)]) == 0
    assert path.read_bytes() == (DATA / "certify_all_10_12.jsonl").read_bytes()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@pytest.mark.parametrize("expected", json.loads((DATA / "cli_transcripts.json").read_text()),
                         ids=lambda e: " ".join(e["argv"]))
def test_transcript_matches_golden(expected, tmp_path, capsys):
    """Every command at cheap arguments, and the README's exit 2 and 3
    examples: stdout, stderr, exit code and the bytes of --output and
    --checkpoint (their sha256, None for no file) as the golden has them."""
    paths = {"output": tmp_path / "out.jsonl", "checkpoint": tmp_path / "ck.json"}
    rc = run([a.format(**paths) for a in expected["argv"]])
    cap = capsys.readouterr()
    assert {"argv": expected["argv"], "exit": rc, "stdout": cap.out, "stderr": cap.err,
            "output_sha256": _sha256(paths["output"]),
            "checkpoint_sha256": _sha256(paths["checkpoint"])} == expected


def test_bench_full_records_the_default_q_and_t_max():
    """BENCH_full.json records `sweep --full` at the default Q and at
    the paper's Q = 10^60; it must name the Q and t_max the code uses
    now, so a change of either cannot leave it stale unnoticed.  The
    sweep itself is not re-run here."""
    rec = json.loads((ROOT / "BENCH_full.json").read_text())
    t_max = bounds.derive_t_max()[0]
    assert rec["t_max"] == t_max
    default, paper = rec["runs"]
    assert default["Q"] == str(reduction.DEFAULT_Q)
    assert paper["Q"] == str(10 ** 60)
    for run_ in (default, paper):
        assert run_["records"] == run_["success_contradiction"] == t_max - 9
        assert run_["precision"] == realnum.reduction_precision(int(run_["Q"]))


def test_closed_stdout_pipe_ends_quietly_with_exit_141():
    """`cubicthue kappas ... | head -1`: the records outgrow the pipe
    buffer, so the run is still writing when its reader closes the pipe
    after one line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "cubicthue.cli", "kappas",
                             "--t-lo", "10", "--t-hi", "300"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    proc.stderr.close()
    assert json.loads(first)["t"] == 10
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
