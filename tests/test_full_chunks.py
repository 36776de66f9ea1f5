"""Spot checks of the two full runs against their chunk golden,
tests/data/full_chunks.json (see tests/full_chunks.py): a few chunks are
recomputed in process, by the command that writes them."""

import hashlib
import json
from pathlib import Path

import pytest

import full_chunks
from cubicthue import cli

GOLDEN = json.loads(full_chunks.GOLDEN.read_text())
BENCH_FULL = Path(__file__).resolve().parent.parent / "BENCH_full.json"


def _chunk(tmp_path, monkeypatch, command, t):
    """{i: digest} of the chunk i that holds t, from `command` run over
    its t alone."""
    monkeypatch.delenv("CUBICTHUE_PRECISION_CAP", raising=False)
    lo, hi = full_chunks.chunk_span(full_chunks.chunk_of(t))
    out = tmp_path / "out.jsonl"
    assert cli.main([command, "--t-lo", str(lo), "--t-hi", str(hi), "--workers", "1",
                     "--output", str(out)]) == 0
    with open(out, "rb") as fh:
        return full_chunks.chunk_digests(fh)


# the first chunk; the one that holds t = 468600, whose accepted q has
# the smallest q_norm_lower of the sweep; and the last, which holds t_max
@pytest.mark.parametrize("t", [10, 468600, 576241])
def test_sweep_chunk_matches_the_full_run(tmp_path, monkeypatch, t):
    i = full_chunks.chunk_of(t)
    assert _chunk(tmp_path, monkeypatch, "sweep", t) == {
        i: GOLDEN["runs"]["sweep"]["chunks"][i]}


@pytest.mark.parametrize("t", [10, 576241])
def test_kappa_chunk_matches_the_full_run(tmp_path, monkeypatch, t):
    i = full_chunks.chunk_of(t)
    assert _chunk(tmp_path, monkeypatch, "kappas", t) == {
        i: GOLDEN["runs"]["kappas"]["chunks"][i]}


def test_chunk_golden_covers_both_full_runs():
    """One chunk per 512 t of [10, t_max] in each run, and the sweep's whole
    --output is the one BENCH_full.json measured."""
    chunks = full_chunks.chunk_of(full_chunks.T_MAX) + 1
    assert (GOLDEN["t_lo"], GOLDEN["t_max"], GOLDEN["chunk_t"], chunks) == (
        10, 576241, 512, 1126)
    for run, argv in full_chunks.RUNS.items():
        assert GOLDEN["runs"][run]["argv"] == argv
        assert len(GOLDEN["runs"][run]["chunks"]) == chunks
    bench = json.loads(BENCH_FULL.read_text())["runs"][0]
    assert bench["argv"][:4] == full_chunks.RUNS["sweep"]
    assert bench["output_sha256"] == GOLDEN["runs"]["sweep"]["sha256"]


def test_the_first_differing_chunk_is_named(tmp_path):
    # one line per t in [10, 1545]: chunk i is lines[512 i : 512 (i + 1)]
    lines = [b'{"t": %d}\n' % t for t in range(10, 1546)]
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"".join(lines))
    chunks, whole = full_chunks.file_digests(path)
    assert whole == hashlib.sha256(b"".join(lines)).hexdigest()
    assert chunks == [hashlib.sha256(b"".join(lines[512 * i:512 * (i + 1)])).hexdigest()
                      for i in range(3)]
    lines[1100] = b'{"t": 1110, "x": 1}\n'                # t = 1110 is in chunk 2
    path.write_bytes(b"".join(lines))
    assert full_chunks.first_difference(full_chunks.file_digests(path)[0], chunks) == 2
    assert full_chunks.first_difference(chunks[:2], chunks) == 2
    assert full_chunks.first_difference(chunks, chunks) is None
    path.write_bytes(b"".join(lines[600:] + lines[:600]))
    with pytest.raises(ValueError, match="out of t order"):
        full_chunks.file_digests(path)
