"""Mutation gate: each row of table.json names a file, an exact old text
that occurs once in it, the new text that breaks the code, and the tests
that must fail on the result.  A mutant edited at several places gives
`old` and `new` as lists of one length: each old text occurs once in the
file and is replaced by its new text.  This script copies the
repository (without `.git` and caches) into a temporary directory, and
for each row applies it there, runs its tests and restores the file.  A row
whose tests all fail is killed; one whose tests all pass survived; one
with only some failing is reported with the tests that passed.  The
listed tests are first run once on the unchanged copy, where every one
must pass.  Exits 1 unless every row is killed.

    python mutants/run.py

Standard library only; the tests run with pytest, one row at a time.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "mutants", "table.json")


def _failed(workdir, ids):
    """The subset of `ids` (pytest node ids, without parameters) that fail
    in `workdir`: a test fails when any of its cases fails or errs, or
    when none of them ran."""
    report = os.path.join(workdir, "report.xml")
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--junitxml", report, *ids],
                   cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    failed = {}
    if os.path.exists(report):
        for case in ET.parse(report).iter("testcase"):
            # classname "tests.test_roots", name "test_x[param]"
            test = "%s.py::%s" % (case.get("classname").replace(".", "/"),
                                  case.get("name").split("[")[0])
            failed[test] = failed.get(test, False) or any(
                child.tag in ("failure", "error") for child in case)
    return {i for i in ids if failed.get(i, True)}


def edits(row):
    """The row's (old, new) text pairs: one, or one per list entry."""
    if isinstance(row["old"], str):
        return [(row["old"], row["new"])]
    return list(zip(row["old"], row["new"], strict=True))


def main():
    with open(TABLE) as fh:
        rows = json.load(fh)
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_out"))
        for test in sorted(_failed(work, sorted({i for row in rows for i in row["kills"]}))):
            print("fails unmutated: %s" % test)
            bad += 1
        for row in rows:
            path = os.path.join(work, row["file"])
            with open(path) as fh:
                text = fh.read()
            counts = [text.count(old) for old, _ in edits(row)]
            if counts != [1] * len(counts):
                print("NOT APPLIED  %s: the old texts occur %s times in %s"
                      % (row["name"], counts, row["file"]))
                bad += 1
                continue
            mutated = text
            for old, new in edits(row):
                mutated = mutated.replace(old, new)
            with open(path, "w") as fh:
                fh.write(mutated)
            survivors = set(row["kills"]) - _failed(work, row["kills"])
            with open(path, "w") as fh:
                fh.write(text)
            if not row["kills"] or survivors == set(row["kills"]):
                print("SURVIVED     %s" % row["name"])
                bad += 1
            elif survivors:
                print("PARTIAL      %s: passed %s" % (row["name"], ", ".join(sorted(survivors))))
                bad += 1
            else:
                print("killed       %s" % row["name"])
    print("%d rows, %d not killed" % (len(rows), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
