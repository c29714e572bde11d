"""Source invariants of the package, checked on the AST of every module.

The runtime needs only the standard library, and all arithmetic is exact:
no module may import a third-party package, write a float or complex
literal, or use the name ``float``.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddcircuits"
MODULES = sorted(PACKAGE.glob("*.py"))


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                found.append(f"line {node.lineno}: non-stdlib import {name}")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: use of float")
    return found


def test_package_has_modules():
    assert PACKAGE / "ratlin.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact_and_stdlib_only(path):
    assert violations(path.read_text(encoding="utf-8")) == []


def test_checker_flags_each_kind():
    source = (
        "import numpy\n"
        "from scipy.linalg import lu\n"
        "from .ratlin import rank\n"
        "x = 0.5\n"
        "y = 2j\n"
        "z = float(1)\n"
    )
    assert [v.split(":")[0] for v in violations(source)] == [
        "line 1",
        "line 2",
        "line 4",
        "line 5",
        "line 6",
    ]
