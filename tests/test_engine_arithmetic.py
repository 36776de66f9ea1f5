"""The engine's proof constants live on CertifiedReal: its modules import
no mpmath, which only the tests use, as an oracle, and use no float e,
exp or factorial."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "cubicthue"
FLOAT_NAMES = {"e", "exp", "factorial"}


def _violations(source: str):
    """(line, what) for each mpmath import and each use of math.e,
    math.exp or math.factorial."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + a.name) for a in node.names
                      if a.name.split(".")[0] == "mpmath"]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "mpmath":
                found.append((node.lineno, "from " + node.module))
            elif node.module == "math":
                found += [(node.lineno, "from math import " + a.name)
                          for a in node.names if a.name in FLOAT_NAMES]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr in FLOAT_NAMES):
            found.append((node.lineno, "math." + node.attr))
    return found


def test_engine_has_no_float_constants_or_global_mpmath_context():
    found = {path.name: _violations(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert "realnum.py" in found and "bounds.py" in found
    assert {name: v for name, v in found.items() if v} == {}


def test_the_guard_sees_each_forbidden_form():
    source = ("import math\nimport mpmath\nfrom mpmath import mp\nfrom mpmath.libmp import mpf_lt\n"
              "from math import exp, log\nx = math.e ** 2 * math.factorial(3)\n"
              "y = math.exp(1) + math.log(2)\n")
    assert sorted(_violations(source)) == [
        (2, "import mpmath"), (3, "from mpmath"), (4, "from mpmath.libmp"),
        (5, "from math import exp"),
        (6, "math.e"), (6, "math.factorial"), (7, "math.exp")]


def test_the_command_line_runs_without_mpmath():
    code = "import sys, cubicthue.cli; print(sorted(m for m in sys.modules if 'mpmath' in m))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
