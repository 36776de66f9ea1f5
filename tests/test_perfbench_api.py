"""The benchmark drives the engine through module attributes, some of
them only in its traced pass, which the default run skips; every name it
reads must exist."""

import ast
import importlib
from pathlib import Path

MODULES = ("bounds", "exponents", "forms", "realnum", "reduction", "roots", "search")
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_perfbench_reads_only_engine_names_that_exist():
    reads = {(path.name, node.value.id, node.attr)
             for path in sorted(PERFBENCH.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in MODULES}
    # the traced pass's own calls are among them
    assert ("workloads.py", "realnum", "continued_fraction_convergents") in reads
    missing = sorted(r for r in reads
                     if not hasattr(importlib.import_module("cubicthue." + r[1]), r[2]))
    assert missing == []
