import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = json.loads((ROOT / "mutants" / "table.json").read_text())
_SPEC = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
RUN = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(RUN)


def test_each_mutant_applies_once_and_names_tests_that_exist():
    # `python mutants/run.py` applies each row by exact text: an old text
    # that no longer occurs once, or a test that is gone, breaks its row;
    # a row edited at several places must find each of its old texts once
    assert len({row["name"] for row in TABLE}) == len(TABLE)
    for row in TABLE:
        text = (ROOT / row["file"]).read_text()
        edits = RUN.edits(row)
        assert edits and row["kills"], row["name"]
        for old, new in edits:
            assert text.count(old) == 1, (row["name"], old)
            assert new != old, row["name"]
        for test in row["kills"]:
            path, name = test.split("::")
            assert re.search(r"^def %s\(" % name, (ROOT / path).read_text(), re.M), test
