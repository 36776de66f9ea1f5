"""Every function and class the engine defines has a caller: the engine
itself or the benchmark refers to it.  An import, a test or the name's
own definition does not count, so code kept only for the tests fails."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "cubicthue").glob("*.py"))
PERFBENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))


def _referenced(node: ast.AST) -> set:
    """The names `node` reads, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_engine_function_has_a_caller():
    defined, referenced = [], set()
    for path in SRC + PERFBENCH:
        for stmt in ast.parse(path.read_text()).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path in SRC:
                    defined.append("%s.%s" % (path.stem, stmt.name))
            referenced |= names
    uncalled = [name for name in defined if name.split(".")[1] not in referenced]
    assert uncalled == []
