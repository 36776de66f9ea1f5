import hashlib
import json
import multiprocessing
from pathlib import Path

import pytest

from cubicthue import cli, realnum, reduction, roots, search

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
])
def test_out_of_range_input_is_a_usage_error(argv, capsys):
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("cubicthue %s: error: " % argv[0])
    assert len(err.splitlines()) == 1


# per command, a cheap valid argv and the flags it does not read
_ARGV = {"roots": ["--t", "10"], "kappas": ["--t-lo", "10", "--t-hi", "10"],
         "exponents": ["--t", "5"], "matveev": [], "tmax": [], "reduce": ["--t", "10"],
         "search": ["--t", "2", "--y-bound", "10"],
         "verify-theorem": ["--t", "2", "--y-bound", "10"],
         "verify-tables": ["--y-bound", "10"]}
_UNREAD = ([(c, "--precision") for c in ("exponents", "tmax", "search",
                                         "verify-theorem", "verify-tables")]
           + [(c, "--workers") for c in ("roots", "exponents", "matveev", "tmax", "reduce")]
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


def test_sweep_small_range(capsys, tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    csv_path = tmp_path / "sweep.csv"
    rc = run(["sweep", "--t-lo", "10", "--t-hi", "14",
              "--output", str(out_path), "--csv", str(csv_path)])
    assert rc == 0
    recs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert [r["t"] for r in recs] == [10, 11, 12, 13, 14]
    assert all(r["contradiction"] for r in recs)
    assert csv_path.read_text().startswith("t,status")


def test_sweep_csv_summary_shape(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    assert run(["sweep", "--t-lo", "10", "--t-hi", "12", "--output",
                str(tmp_path / "sweep.jsonl"), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("t,status,precision")
    assert len(lines) == 4


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_checkpoint_never_passes_the_written_output(workers, monkeypatch, tmp_path):
    monkeypatch.setattr(reduction, "CHECKPOINT_INTERVAL", 4)
    emit = cli._Output.emit
    emitted = []

    def failing(self, record):
        emitted.append(record["t"])
        if len(emitted) == 6:
            raise OSError("disk full")
        emit(self, record)

    monkeypatch.setattr(cli._Output, "emit", failing)
    ck, out, csv_path = tmp_path / "ck.json", tmp_path / "out.jsonl", tmp_path / "out.csv"
    try:
        run(["sweep", "--t-lo", "10", "--t-hi", "20", "--workers", workers,
             "--checkpoint", str(ck), "--output", str(out), "--csv", str(csv_path)])
    except OSError as exc:
        assert str(exc) == "disk full"
        # the pool is down before the error leaves the sweep, not only
        # once the traceback that holds its iterator is freed
        assert multiprocessing.active_children() == []
    else:
        pytest.fail("the sweep went on after a failed write")
    lines = out.read_text().splitlines()
    written = [json.loads(line)["t"] for line in lines]
    assert written == [10, 11, 12, 13, 14]
    assert [int(row.split(",")[0]) for row in csv_path.read_text().splitlines()[1:]] \
        == written
    state = json.loads(ck.read_text())
    assert state["last_t"] <= written[-1]
    # the checkpoint hash is the digest of the written records it counts
    counted = written.index(state["last_t"]) + 1
    assert state["hash"] == hashlib.sha256(
        "".join(lines[:counted]).encode()).hexdigest()


def test_certify_all_theorem_range_starts_at_most_one_pool(monkeypatch, capsys, tmp_path):
    for name in ("_cmd_kappas", "_cmd_matveev", "_cmd_tmax", "_cmd_sweep",
                 "_cmd_verify_tables"):
        monkeypatch.setattr(cli, name, lambda args, out: cli.EXIT_OK)
    pools = []
    Pool = multiprocessing.Pool

    def counting(*args, **kwargs):
        pools.append(args)
        return Pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    path = tmp_path / "theorem.jsonl"
    assert run(["certify-all", "--y-bound", "50", "--workers", "2",
                "--output", str(path)]) == 0
    assert len(pools) <= 1
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


def test_sci_notation_parsing():
    assert cli._int_from_sci("1e60") == 10 ** 60
    assert cli._int_from_sci("3e18") == 3 * 10 ** 18
    assert cli._int_from_sci("576241") == 576241


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
    (["sweep", "--t-lo", "10", "--t-hi", "14"], "sweep_10_14.jsonl"),
    (["kappas", "--t-lo", "10", "--t-hi", "11"], "kappas_10_11.jsonl"),
    (["roots", "--t", "2"], "roots_t2.jsonl"),
    (["roots", "--t", "576241"], "roots_t576241.jsonl"),
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
                "--workers", workers, "--output", str(path)]) == 0
    assert path.read_bytes() == (DATA / "certify_all_10_12.jsonl").read_bytes()
