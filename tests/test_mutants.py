import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = json.loads((ROOT / "mutants" / "table.json").read_text())


def test_each_mutant_applies_once_and_names_tests_that_exist():
    # `python mutants/run.py` applies each row by exact text: an old text
    # that no longer occurs once, or a test that is gone, breaks its row
    assert len({row["name"] for row in TABLE}) == len(TABLE)
    for row in TABLE:
        text = (ROOT / row["file"]).read_text()
        assert text.count(row["old"]) == 1, row["name"]
        assert row["new"] != row["old"] and row["kills"], row["name"]
        for test in row["kills"]:
            path, name = test.split("::")
            assert re.search(r"^def %s\(" % name, (ROOT / path).read_text(), re.M), test
