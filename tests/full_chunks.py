"""Chunk digests of the two full runs, against tests/data/full_chunks.json.

A chunk is the --output lines of CHUNK_T consecutive t, counted from
T_LO: chunk i holds the records of t in [T_LO + CHUNK_T i,
T_LO + CHUNK_T (i + 1)), and its digest is the sha256 of those lines,
newlines included.  The golden holds every chunk's digest of each run
in RUNS and the sha256 of its whole --output file.

    cubicthue sweep --full --workers 2 --output sweep.jsonl
    python tests/full_chunks.py sweep sweep.jsonl
    cubicthue kappas --t-lo 10 --t-hi 576241 --workers 2 --output kappas.jsonl
    python tests/full_chunks.py kappas kappas.jsonl

checks a run's --output against its golden and names the first chunk
that differs (exit 1).  With --write, the file's digests replace the
run's golden instead.  Standard library only.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "full_chunks.json"
T_LO, T_MAX, CHUNK_T = 10, 576241, 512
RUNS = {
    "sweep": ["sweep", "--full", "--workers", "2"],
    "kappas": ["kappas", "--t-lo", str(T_LO), "--t-hi", str(T_MAX), "--workers", "2"],
}


def chunk_of(t):
    return (t - T_LO) // CHUNK_T


def chunk_span(i):
    """The first and last t of chunk i."""
    lo = T_LO + CHUNK_T * i
    return lo, min(lo + CHUNK_T - 1, T_MAX)


def chunk_digests(lines):
    """{chunk index: sha256 hex digest} of an --output's lines (bytes,
    each with its newline), which must come in nondecreasing t."""
    digests, current, h = {}, None, None
    for line in lines:
        i = chunk_of(json.loads(line)["t"])
        if i != current:
            if current is not None and i < current:
                raise ValueError("records out of t order at chunk %d" % i)
            if h is not None:
                digests[current] = h.hexdigest()
            current, h = i, hashlib.sha256()
        h.update(line)
    if h is not None:
        digests[current] = h.hexdigest()
    return digests


def file_digests(path):
    """The chunk digests of an --output file, as a list from chunk 0, and
    the sha256 of the whole file."""
    whole = hashlib.sha256()

    def lines():
        with open(path, "rb") as fh:
            for line in fh:
                whole.update(line)
                yield line

    chunks = chunk_digests(lines())
    if sorted(chunks) != list(range(len(chunks))):
        raise ValueError("%s does not cover every chunk from t = %d" % (path, T_LO))
    return [chunks[i] for i in range(len(chunks))], whole.hexdigest()


def first_difference(got, want):
    """The index of the first chunk where the lists differ, or None."""
    for i in range(max(len(got), len(want))):
        if i >= len(got) or i >= len(want) or got[i] != want[i]:
            return i
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("run", choices=sorted(RUNS))
    ap.add_argument("output", help="the run's --output file")
    ap.add_argument("--write", action="store_true",
                    help="record the file's digests as the run's golden")
    args = ap.parse_args(argv)
    chunks, whole = file_digests(args.output)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {
        "about": "per run: the cubicthue argv (with --output FILE), the sha256 "
                 "of FILE, and of each chunk of its lines: chunk i holds t in "
                 "[t_lo + chunk_t i, t_lo + chunk_t (i + 1)); see tests/full_chunks.py",
        "t_lo": T_LO, "t_max": T_MAX, "chunk_t": CHUNK_T, "runs": {}}
    if args.write:
        golden["runs"][args.run] = {"argv": RUNS[args.run], "sha256": whole,
                                    "chunks": chunks}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print("%s: wrote %d chunks, sha256 %s" % (args.run, len(chunks), whole))
        return 0
    want = golden["runs"][args.run]
    i = first_difference(chunks, want["chunks"])
    if i is not None:
        print("%s: chunk %d (t in [%d, %d]) differs; %d chunks, %d in the golden"
              % ((args.run, i) + chunk_span(i) + (len(chunks), len(want["chunks"]))))
        return 1
    print("%s: all %d chunks match; sha256 %s" % (
        args.run, len(chunks), "matches" if whole == want["sha256"] else "DIFFERS"))
    return 0 if whole == want["sha256"] else 1


if __name__ == "__main__":
    sys.exit(main())
