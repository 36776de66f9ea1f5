"""Every function and class the engine defines has a caller: the engine
itself or the benchmark refers to it, and every method, property and
annotated field of an engine class is read as an attribute there.  An
import, a test or the name's own definition does not count, so code kept
only for the tests fails."""

import ast
from collections import Counter
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


def _attribute_reads(node: ast.AST) -> Counter:
    """How often `node` reads each attribute name."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _members(cls: ast.ClassDef):
    """(name, definition) of each non-dunder method or property and each
    annotated field (a dataclass or NamedTuple field) of the class."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                yield stmt.name, stmt
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt


def test_every_engine_class_member_is_read():
    members, reads = [], Counter()
    for path in SRC + PERFBENCH:
        tree = ast.parse(path.read_text())
        reads.update(_attribute_reads(tree))
        if path in SRC:
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef):
                    members += [("%s.%s.%s" % (path.stem, cls.name, name),
                                 _attribute_reads(node)[name])
                                for name, node in _members(cls)]
    unread = [m for m, own in members if reads[m.rsplit(".", 1)[1]] <= own]
    assert unread == []
