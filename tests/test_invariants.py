"""Source invariants of the package, checked on the AST of every module.

The runtime needs only the standard library, and all arithmetic is exact:
no module may import a third-party package, write a float or complex
literal, or use the name ``float``.  The integer elimination kernel holds
rows of ints, where ``int / int`` would silently give a float, so its
functions may not use true division at all.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddcircuits"
MODULES = sorted(PACKAGE.glob("*.py"))

# The functions, per module, that compute on integer rows.
INTEGER_KERNEL = {
    "ratlin.py": ("_pivot", "_echelon_kernel"),
    "lp.py": ("_bland",),
    "circuits.py": ("_extend",),
}


def violations(source: str, integer_functions=()) -> list[str]:
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
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
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name in integer_functions:
            for node in ast.walk(func):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    found.append(f"line {node.lineno}: true division in {func.name}")
    return found


def test_package_has_modules():
    assert PACKAGE / "ratlin.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact_and_stdlib_only(path):
    source = path.read_text(encoding="utf-8")
    assert violations(source, INTEGER_KERNEL.get(path.name, ())) == []


@pytest.mark.parametrize("module", INTEGER_KERNEL)
def test_integer_kernel_functions_exist(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert set(INTEGER_KERNEL[module]) <= defined


def test_checker_flags_each_kind():
    source = (
        "import numpy\n"
        "from scipy.linalg import lu\n"
        "from .ratlin import rank\n"
        "x = 0.5\n"
        "y = 2j\n"
        "z = float(1)\n"
        "def _pivot(rows, r, col):\n"
        "    rows[0][0] /= 2\n"
        "    rows[r] = [a / 2 for a in rows[r]]\n"
        "    return rows[0][0] // 2\n"
        "def other(x):\n"
        "    return x / 2\n"
    )
    assert [v.split(":")[0] for v in violations(source, ("_pivot",))] == [
        "line 1",
        "line 2",
        "line 4",
        "line 5",
        "line 6",
        "line 8",
        "line 9",
    ]
