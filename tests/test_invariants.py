"""Source invariants of the package, checked on the AST of every module.

The runtime needs only the standard library, and all arithmetic is exact:
no module may import a third-party package, write a float or complex
literal, or use the name ``float``.  The integer kernel (the elimination,
the circuit scan and the circuit test's int core, the image, slack, ratio
test and walk behind the active-set walk and the conformal decomposition,
the move of an augmentation iterate, the approximate step's choice of a
term, the OCNP decision, the row parser that the instance parser reads
rows with, and the int builder that every polyhedron is built with) holds rows
and vectors of ints, where ``int / int`` would silently give a float, so
its functions may not use true division at all.  Nor may they compute with Fractions:
they name no rational type except to build a Fraction that they return or
yield as it is, call no rational vector method, and pass a rational
argument on to a call without touching it.  A module-level private
helper (``_name``) that nothing else in the package refers to is dead code,
and so is an imported name its module never reads (the re-exports of
``__init__`` aside).
Elimination has one home: rows are pivoted only in the simplex, so only
``ratlin`` and ``lp`` use the elimination step and its row update, and
every kernel is a block of columns built by ``ratlin._kernel``, which
only ``polyhedron`` (A's block and the pointedness check) and
``circuits`` (the circuit test) call instead of stacking matrices for
``kernel_basis``.  Only those two cut a block with ``ratlin._cut``, so
``lp`` and ``conformal`` go through the walk.
Maximal steps have one home too: besides ``polyhedron``, only the circuit
scan in ``ddstep`` and the decomposition in ``conformal`` run the ratio
test and move an int point by ``polyhedron._move``; ``lp`` steps through
the walk and ``max_step``.
Products with B go through each polyhedron's integer image of B
(``polyhedron._image``), and the simplex reads A, b, B and d only from
the integer images; only the functions of ``certify``, the
independent checkers, multiply by the rational B itself, and ``certify``
imports nothing from the modules whose results it checks, nor any
private helper.  A polyhedron's int form has one builder: only
``Polyhedron._build`` assigns ``_a_image`` and ``_b_image``, and only ``Polyhedron._from_ints`` makes a Polyhedron by
``__new__``, past the checks of its constructor.  Pointedness is decided in one place: only the
``Polyhedron`` constructor raises ``NotPointedError``, and besides
``polyhedron`` only ``errors`` (which defines it), ``cli`` (which maps it
to exit 65) and ``__init__`` (which re-exports it) refer to it.  Text
becomes an int in one place: only ``ratlin._to_int`` calls the builtin
``int``, behind the token grammar, and no command-line option converts
its value with ``type=int``.  Every exception class of ``errors`` other
than ``ToolkitError`` has a ``raise`` site in another module that can
fire, that is, one outside any statement marked ``# pragma: no cover``.
Every public name the benchmark's tracer wraps (``TRACED`` in
``perfbench/tracing.py``) is a callable of its package module, so cutting
one fails here and not only in a traced benchmark run.
No module imports ``dataclasses``, which writes and compiles each
decorated class's methods from source text at every import: the result
types derive from ``record.Record``, and a fresh interpreter that imports
the CLI loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddcircuits"
MODULES = sorted(PACKAGE.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The functions, per module, that compute on integer rows and vectors,
# among them the int row parser, the int builder that every polyhedron
# is built with, and the OCNP decision and the approximate step, which
# hand their Fraction arguments on untouched.
INTEGER_KERNEL = {
    "ratlin.py": (
        "_pivot",
        "_combine",
        "_cut",
        "_kernel",
        "_rat_pair",
        "_primitive",
    ),
    "lp.py": ("_flip", "_bland", "_simplex"),
    "circuits.py": ("_children", "enumerate_circuits", "_is_circuit"),
    "ocnp.py": ("decide_ocnp",),
    "ddstep.py": ("_rule", "_approx_step"),
    "polyhedron.py": (
        "_image",
        "_slack",
        "_ratio_test",
        "_move",
        "_a_block",
        "_tighten",
        "_walk",
        "_parse_row",
        "_from_ints",
        "_build",
        "_image_of",
        "_solves_a",
        "_box_rows",
    ),
    "conformal.py": ("_terms",),
    "reductions.py": ("build_reduction", "_incidence_rows", "longest_cycle_oracle"),
}

# The rational types, and the methods of RatVec, RatMat and Circuit that
# compute with Fractions: the integer kernel may use neither.
RATIONAL_TYPES = {"Fraction", "Rat", "RatVec", "Point"}
RATIONAL_METHODS = {"dot", "matvec", "vec", "is_zero"}

# The modules allowed to refer to each elimination entry point.  Rows are
# pivoted only in the simplex; every kernel is a block that ``_kernel``
# builds, in ``polyhedron`` and in the circuit test.  The circuit scan walks
# flats in kernel coordinates, from the block of A's kernel; it and the
# active-set walk restrict a block by the column step ``_cut``.
ELIMINATION_HOMES = {
    "_pivot": {"ratlin.py", "lp.py"},
    "_combine": {"ratlin.py", "lp.py"},
    "kernel_basis": {"ratlin.py", "__init__.py"},
    "_kernel": {"ratlin.py", "polyhedron.py", "circuits.py"},
    "_cut": {"ratlin.py", "circuits.py", "polyhedron.py"},
}

# The modules allowed to refer to each helper of a maximal step.
STEP_HOMES = {
    "_ratio_test": {"polyhedron.py", "ddstep.py", "conformal.py"},
    "_move": {"polyhedron.py", "ddstep.py", "conformal.py"},
}

# The functions, per module, that read A, b, B and d only through the
# integer images: the simplex builds its tableau rows from ``P._a_image``
# and ``P._b_image``, its ratio test, flips, vertex and ray read only the
# tableau, and the uniqueness check builds its tangent cone.
IMAGE_READERS = {
    "lp.py": (
        "solve_lp",
        "_simplex",
        "_flip",
        "_bland",
        "_to_x",
        "_vertex",
        "_ray",
        "verify_unique",
    )
}

# A polyhedron's int form, the one function that assigns it, and the one
# that makes a Polyhedron by ``__new__``: (module, function), a method
# named by its class.
INT_FORM = {"_a_image", "_b_image"}
INT_FORM_BUILDER = ("polyhedron.py", "Polyhedron._build")
BARE_MAKER = ("polyhedron.py", "Polyhedron._from_ints")

# The module whose functions may compute ``P.B.matvec``: the checkers,
# which stay independent of the integer image they check.
CHECKERS = "certify.py"

# The modules whose results the checkers check, none of which they import.
CHECKED_MODULES = {"lp", "circuits", "conformal", "ddstep", "ocnp", "reductions", "cli"}

# The modules that may refer to NotPointedError, and the one that raises it.
NOT_POINTED_HOMES = {"errors.py", "polyhedron.py", "cli.py", "__init__.py"}
NOT_POINTED_RAISER = "polyhedron.py"

# The one function that may call the builtin ``int``: (module, function).
INT_CONVERTER = ("ratlin.py", "_to_int")


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


def fraction_arithmetic(source: str, integer_functions) -> list[str]:
    """``line N: f`` for each place where a function f of
    ``integer_functions`` computes with Fractions: a name of
    ``RATIONAL_TYPES`` other than the callee of a call whose value f
    returns or yields as it is (alone, or as an item of a tuple, list or
    comprehension), an attribute of ``RATIONAL_METHODS``, or a parameter
    annotated with a rational type used other than as an argument of a
    call.  Annotations are not read."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name not in integer_functions:
            continue
        arguments = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        rational = {a.arg for a in arguments if a.annotation and _names(a.annotation) & RATIONAL_TYPES}
        parents: dict[ast.AST, ast.AST] = {}
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.AnnAssign):
                children = [node.target] + ([node.value] if node.value else [])
            else:
                children = list(ast.iter_child_nodes(node))
            for child in children:
                parents[child] = node
            stack.extend(children)
            parent = parents.get(node)
            if isinstance(node, ast.Name) and node.id in RATIONAL_TYPES:
                bad = not _returned_as_built(node, parents)
            elif isinstance(node, ast.Name) and node.id in rational:
                bad = not (isinstance(parent, ast.Call) and node in parent.args)
            else:
                bad = isinstance(node, ast.Attribute) and node.attr in RATIONAL_METHODS
            if bad:
                found.append((node.lineno, func.name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _returned_as_built(name: ast.Name, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether ``name`` is the callee of a call whose value is returned or
    yielded as it is, alone or as an item of a tuple, list or comprehension."""
    call = parents.get(name)
    if not isinstance(call, ast.Call) or call.func is not name:
        return False
    child, node = call, parents.get(call)
    while isinstance(node, (ast.Tuple, ast.List)) or (
        isinstance(node, (ast.ListComp, ast.GeneratorExp)) and node.elt is child
    ):
        child, node = node, parents.get(node)
    return isinstance(node, (ast.Return, ast.Yield))


def unreferenced_private_helpers(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each module-level ``_name`` function or class that
    no code outside its own definition refers to, in any of ``sources``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(_refers_to(t, name, skip=node) for t in trees.values()):
                found.append(f"{module}:{name}")
    return found


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each name an import binds that the module never
    reads; ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append(f"line {node.lineno}: {name}")
    return found


def misplaced_references(sources: dict[str, str], homes_of=ELIMINATION_HOMES) -> list[str]:
    """``module:name`` for each module that refers to a name of
    ``homes_of`` outside its allowed modules."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for name, homes in homes_of.items():
            if module not in homes and _refers_to(tree, name):
                found.append(f"{module}:{name}")
    return found


def rational_b_products(module: str, source: str) -> list[str]:
    """``line N: f`` for each call ``<expr>.B.matvec(...)`` in a module-level
    function f (``<module>`` outside any), unless ``module`` is ``CHECKERS``
    and f a function."""
    found = []
    for stmt in ast.parse(source).body:
        is_function = isinstance(stmt, ast.FunctionDef)
        if is_function and module == CHECKERS:
            continue
        owner = stmt.name if is_function else "<module>"
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "matvec"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "B"
            ):
                found.append(f"line {node.lineno}: {owner}")
    return found


def rational_b_reads(source: str, functions) -> list[str]:
    """``line N: f`` for each read of ``<expr>.A.entries``, ``<expr>.b``,
    ``<expr>.B.entries`` or ``<expr>.d`` in a function f of ``functions``."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name not in functions:
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and (
                node.attr in ("b", "d")
                or node.attr == "entries"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr in ("A", "B")
            ):
                found.append(f"line {node.lineno}: {func.name}")
    return found


def int_form_writes(module: str, source: str) -> list[str]:
    """``line N: f`` for each assignment to an attribute of ``INT_FORM``
    (also by ``setattr``) in a function f other than ``INT_FORM_BUILDER``,
    and for each ``__new__`` call of a Polyhedron in one other than
    ``BARE_MAKER``: a call that names ``Polyhedron``, or any in its class.
    f is a module-level function, ``Class.method`` or ``Class``, and
    ``<module>`` outside any."""
    found = []
    for owner, node in _owned_nodes(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {
                t.attr
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
            }
            bad = bool(names & INT_FORM) and (module, owner) != INT_FORM_BUILDER
        elif isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "setattr"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
        ):
            named = {a.value for a in node.args if isinstance(a, ast.Constant)}
            bad = bool(named & INT_FORM) and (module, owner) != INT_FORM_BUILDER
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            bad = (
                node.func.attr == "__new__"
                and (owner.startswith("Polyhedron.") or _refers_to(node, "Polyhedron"))
                and (module, owner) != BARE_MAKER
            )
        else:
            bad = False
        if bad:
            found.append((node.lineno, owner))
    return [f"line {line}: {owner}" for line, owner in sorted(found)]


def _owned_nodes(tree: ast.Module):
    """(owner, node) for every node of ``tree``, with the owner named as
    ``int_form_writes`` names it."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                owner = stmt.name
                if isinstance(item, ast.FunctionDef):
                    owner = f"{stmt.name}.{item.name}"
                yield from ((owner, node) for node in ast.walk(item))
        else:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else "<module>"
            yield from ((owner, node) for node in ast.walk(stmt))


def checker_imports(source: str) -> list[str]:
    """``line N: name`` for each import of a module of ``CHECKED_MODULES``
    (``from .lp import``, ``from . import lp``, ``import ddcircuits.lp``)
    and each imported name that starts with ``_``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom):
            modules, names = [node.module or ""], [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            if set(module.split(".")) & CHECKED_MODULES:
                found.append(f"line {node.lineno}: {module}")
        for name in names:
            if name in CHECKED_MODULES or name.startswith("_"):
                found.append(f"line {node.lineno}: {name}")
    return found


def not_pointed_outside_home(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module outside ``NOT_POINTED_HOMES`` that
    refers to NotPointedError, and ``module:line N`` for each ``raise`` of it
    outside ``NOT_POINTED_RAISER``."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        if module not in NOT_POINTED_HOMES and _refers_to(tree, "NotPointedError"):
            found.append(f"{module}:NotPointedError")
        if module == NOT_POINTED_RAISER:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc and _refers_to(node.exc, "NotPointedError"):
                found.append(f"{module}:line {node.lineno}")
    return found


def int_conversions(module: str, source: str) -> list[str]:
    """``line N: f`` for each call ``int(...)`` in a module-level function or
    class f (``<module>`` outside any) other than ``INT_CONVERTER``, and
    ``line N: type=int`` for each call that passes ``type=int``."""
    found = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if _is_int(node.func) and (module, owner) != INT_CONVERTER:
                found.append(f"line {node.lineno}: {owner}")
            if any(kw.arg == "type" and _is_int(kw.value) for kw in node.keywords):
                found.append(f"line {node.lineno}: type=int")
    return found


def unraised_errors(sources: dict[str, str]) -> list[str]:
    """The name of each class ``errors.py`` defines, ``ToolkitError`` aside,
    that no other module raises outside a statement whose first line is
    marked ``# pragma: no cover``, the mark of a raise that cannot fire."""
    defined = [
        node.name
        for node in ast.parse(sources["errors.py"]).body
        if isinstance(node, ast.ClassDef) and node.name != "ToolkitError"
    ]
    raised = set()
    for module, source in sources.items():
        if module == "errors.py":
            continue
        lines = source.splitlines()
        stack: list[ast.AST] = [ast.parse(source)]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.stmt) and "pragma: no cover" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
            stack.extend(ast.iter_child_nodes(node))
    return [name for name in defined if name not in raised]


def _is_int(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


def _refers_to(tree: ast.AST, name: str, skip: ast.AST | None = None) -> bool:
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name
        ):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


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


def test_no_unreferenced_private_helpers():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_helpers(sources) == []


def test_checker_flags_unreferenced_helpers():
    sources = {
        "a.py": (
            "def _used(x):\n"
            "    return x\n"
            "def _shared():\n"
            "    return 1\n"
            "def _dead(x):\n"
            "    return _dead(x - 1) if x else 0\n"
            "class _Sentinel:\n"
            "    pass\n"
            "class _Unused:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
            "def public(x: _Sentinel):\n"
            "    def _inner():\n"
            "        return x\n"
            "    return _used(x)\n"
        ),
        "b.py": "from .a import _shared\n\nx = _shared()\n",
    }
    assert unreferenced_private_helpers(sources) == ["a.py:_dead", "a.py:_Unused"]


def test_no_unused_imports():
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in MODULES
        if path.name != "__init__.py"  # its imports are the public re-exports
    }
    assert {module: names for module, names in found.items() if names} == {}


def test_checker_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "import sys\n"
        "from .lp import LpOptimal, solve_lp\n"
        "from .reductions import (\n"
        "    format_digraph,\n"
        "    load_digraph,\n"
        ")\n"
        "def f(path) -> LpOptimal:\n"
        "    sys = 1\n"
        "    return solve_lp(load_digraph(os.path.join(path, 'x')))\n"
    )
    assert unused_imports(source) == [
        "line 3: js",
        "line 4: sys",
        "line 6: format_digraph",
    ]


def test_elimination_stays_in_its_modules():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert misplaced_references(sources) == []


def test_checker_flags_misplaced_elimination():
    sources = {
        "ratlin.py": "def _pivot(rows, r, col):\n    pass\ndef kernel_basis(M):\n    pass\n",
        "lp.py": "from .ratlin import _pivot\nfrom . import ratlin\nratlin._kernel([], 3)\n",
        "circuits.py": "from .ratlin import _kernel, _combine\n",
        "conformal.py": (
            "from .ratlin import kernel_basis as kb\nker = ratlin._kernel\n"
            "block = ratlin._cut(block, 3)\n"
        ),
        "__init__.py": "from .ratlin import kernel_basis\n",
        "polyhedron.py": "from .ratlin import _kernel\ndef f(_pivot):\n    return _pivot\n",
    }
    assert misplaced_references(sources) == [
        "lp.py:_kernel",
        "circuits.py:_combine",
        "conformal.py:kernel_basis",
        "conformal.py:_kernel",
        "conformal.py:_cut",
        "polyhedron.py:_pivot",
    ]


def test_maximal_steps_stay_in_their_modules():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert misplaced_references(sources, STEP_HOMES) == []


def test_checker_flags_misplaced_step_helpers():
    sources = {
        "polyhedron.py": "def _ratio_test(S, a):\n    pass\ndef _move(X, S, D, w, a, j):\n    pass\n",
        "ddstep.py": "from .polyhedron import _ratio_test, _move\n",
        "ocnp.py": "from .polyhedron import _move\n",
        "conformal.py": "from . import polyhedron\npolyhedron._move([], [], 1, [], [], 0)\n",
        "lp.py": "from .polyhedron import _image, _move as step\nj = polyhedron._ratio_test\n",
    }
    assert misplaced_references(sources, STEP_HOMES) == [
        "ocnp.py:_move",
        "lp.py:_ratio_test",
        "lp.py:_move",
    ]


def test_rational_b_products_only_in_checkers():
    found = {
        path.name: rational_b_products(path.name, path.read_text(encoding="utf-8"))
        for path in MODULES
    }
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_checker_flags_rational_b_products():
    source = (
        "bx = P.B.matvec(x)\n"
        "def _slack(P, x):\n"
        "    return P.d - P.B.matvec(x)\n"
        "def lift(P, v):\n"
        "    return P.B.matvec(v)\n"
        "def verify_conformal(P, s):\n"
        "    def inner(g):\n"
        "        return P.B.matvec(g)\n"
        "    return inner\n"
        "def is_extreme_ray(P, L):\n"
        "    return P.A.matvec(L.x), S.matvec(L.x), P.B.take_rows(())\n"
        "def scan(P, g):\n"
        "    return [P.B.matvec(g)]\n"
    )
    assert rational_b_products("certify.py", source) == ["line 1: <module>"]
    # the checkers' names exempt nothing outside their module
    assert rational_b_products("conformal.py", source) == [
        "line 1: <module>",
        "line 3: _slack",
        "line 5: lift",
        "line 8: verify_conformal",
        "line 13: scan",
    ]


@pytest.mark.parametrize("module", IMAGE_READERS)
def test_simplex_reads_b_through_the_image(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert rational_b_reads(source, IMAGE_READERS[module]) == []


@pytest.mark.parametrize("module", IMAGE_READERS)
def test_image_readers_exist(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert set(IMAGE_READERS[module]) <= defined


def test_checker_flags_rational_b_reads():
    source = (
        "def solve_lp(P, c):\n"
        "    rows = P.B.entries\n"
        "    return P.d, P.B.m, P.A.m, P._a_image.bounds, P._b_image.bounds\n"
        "def _simplex(P, c):\n"
        "    rows = P.A.entries\n"
        "    return P.b, P._a_image.rows\n"
        "def verify_unique(P, c):\n"
        "    return P.A.entries, P.b, P.B.entries, P.d\n"
    )
    assert rational_b_reads(source, ("solve_lp", "_simplex")) == [
        "line 2: solve_lp",
        "line 3: solve_lp",
        "line 5: _simplex",
        "line 6: _simplex",
    ]


def test_int_form_has_one_builder():
    found = {
        path.name: int_form_writes(path.name, path.read_text(encoding="utf-8"))
        for path in MODULES
    }
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_checker_flags_a_second_int_form_builder():
    source = (
        "class Polyhedron:\n"
        "    def _build(self, n, a_rows, b, b_rows, d):\n"
        "        self._a_image = _image_of(a_rows, b)\n"
        "        self._b_image = _image_of(b_rows, d)\n"
        "    @classmethod\n"
        "    def _from_ints(cls, n, a_rows, b, b_rows, d):\n"
        "        P = cls.__new__(cls)\n"
        "        P._build(n, a_rows, b, b_rows, d)\n"
        "        return P\n"
        "    def _core(self, n, a_rows):\n"
        "        self._a_image = a_rows\n"
        "        self._b_image += ()\n"
        "    @classmethod\n"
        "    def _lazy(cls, image):\n"
        "        P = cls.__new__(cls)\n"
        "        P._b_image: _IntImage = image\n"
        "        return P\n"
        "def _lazy_image(P):\n"
        "    if P._b_image is None:\n"
        "        setattr(P, '_b_image', _image_of(P._B, P._d))\n"
        "    return P._b_image\n"
        "class _Unbounded:\n"
        "    def __new__(cls):\n"
        "        return super().__new__(cls)\n"
        "Q = Polyhedron.__new__(Polyhedron)\n"
        "R = object.__new__(Polyhedron)\n"
    )
    assert int_form_writes("polyhedron.py", source) == [
        "line 11: Polyhedron._core",
        "line 12: Polyhedron._core",
        "line 15: Polyhedron._lazy",
        "line 16: Polyhedron._lazy",
        "line 20: _lazy_image",
        "line 25: <module>",
        "line 26: <module>",
    ]
    # the builder and the maker are exempt only in their module
    assert int_form_writes("lp.py", source)[:3] == [
        "line 3: Polyhedron._build",
        "line 4: Polyhedron._build",
        "line 7: Polyhedron._from_ints",
    ]


def test_checkers_import_no_checked_code():
    assert checker_imports((PACKAGE / CHECKERS).read_text(encoding="utf-8")) == []


def test_checker_flags_checker_imports():
    source = (
        "from __future__ import annotations\n"
        "from fractions import Fraction\n"
        "from .polyhedron import Polyhedron, _image\n"
        "from .ratlin import RatMat, rank as _rank\n"
        "from .lp import solve_lp\n"
        "from . import circuits, ratlin\n"
        "import ddcircuits.conformal\n"
        "from ddcircuits.ddstep import augment\n"
        "from .ocnp import decide_ocnp\n"
        "from .reductions import Digraph\n"
        "from .cli import main\n"
        "def f():\n"
        "    from .ratlin import _kernel\n"
    )
    assert checker_imports(source) == [
        "line 3: _image",
        "line 5: lp",
        "line 6: circuits",
        "line 7: ddcircuits.conformal",
        "line 8: ddcircuits.ddstep",
        "line 9: ocnp",
        "line 10: reductions",
        "line 11: cli",
        "line 13: _kernel",
    ]


@pytest.mark.parametrize("module", INTEGER_KERNEL)
def test_integer_kernel_makes_no_fraction_arithmetic(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert fraction_arithmetic(source, INTEGER_KERNEL[module]) == []


def test_checker_flags_fraction_arithmetic():
    source = (
        "def _walk(P, cone, X: list[int], S, D: int, x: RatVec) -> Iterator[Fraction]:\n"
        "    t: Fraction = Fraction(S[0], D)\n"
        "    X = [e + t for e in X]\n"
        "    u = -x\n"
        "    X, den = _int_vector(x)\n"
        "    g = circuit.vec\n"
        "    yield Fraction(S[0], D), g\n"
        "    yield [Fraction(e, D) for e in X]\n"
        "    yield Fraction(S[0], D) * 2\n"
        "    yield RatVec.zeros(len(X))\n"
        "    return f(Fraction(1))\n"
        "def _slack(P, x: Point):\n"
        "    return x.dot(x), _point(x, 1), P.A.matvec(x), x.dim\n"
        "def _terms(P, z: Sequence[Rat]):\n"
        "    while not z.is_zero():\n"
        "        return Fraction(1) + Fraction(2)\n"
        "def other(x: RatVec):\n"
        "    return -x + Fraction(1, 2)\n"
        "def _parse_row(line_no, line, count, what):\n"
        "    pairs = [_rat_pair(tok) for tok in line.split()]\n"
        "    row = [Fraction(p, q) for p, q in pairs]\n"
        "    return _int_vector(row)\n"
    )
    assert fraction_arithmetic(source, ("_walk", "_slack", "_terms", "_parse_row")) == [
        "line 2: _walk",
        "line 4: _walk",
        "line 6: _walk",
        "line 9: _walk",
        "line 10: _walk",
        "line 11: _walk",
        "line 13: _slack",
        "line 13: _slack",
        "line 13: _slack",
        "line 13: _slack",
        "line 15: _terms",
        "line 15: _terms",
        "line 16: _terms",
        "line 16: _terms",
        "line 21: _parse_row",
    ]


def test_checker_flags_true_division_in_image():
    source = (
        "def _image(P, v):\n"
        "    den = lcm(*(e.denominator for e in v))\n"
        "    return [Fraction(t, den) for t in v] + [t / den for t in v]\n"
        "def max_step(P, x):\n"
        "    return [b / 2 for b in x]\n"
    )
    assert violations(source, INTEGER_KERNEL["polyhedron.py"]) == [
        "line 3: true division in _image"
    ]


def test_pointedness_is_decided_in_polyhedron():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert not_pointed_outside_home(sources) == []


def test_checker_flags_not_pointed_outside_polyhedron():
    sources = {
        "errors.py": "class NotPointedError(Exception):\n    pass\n",
        "polyhedron.py": "def f():\n    raise NotPointedError('line')\n",
        "__init__.py": "from .errors import NotPointedError\n",
        "cli.py": (
            "from . import errors\n"
            "CODES = {errors.NotPointedError: 65}\n"
            "def g():\n"
            "    raise errors.NotPointedError\n"
        ),
        "lp.py": (
            "from .errors import NotPointedError\n"
            "def solve_lp(P):\n"
            "    if not P.pointed:\n"
            "        raise NotPointedError('solve_lp requires a pointed polyhedron')\n"
        ),
    }
    assert not_pointed_outside_home(sources) == [
        "cli.py:line 4",
        "lp.py:NotPointedError",
        "lp.py:line 4",
    ]


def test_text_becomes_an_int_in_one_converter():
    found = {
        path.name: int_conversions(path.name, path.read_text(encoding="utf-8"))
        for path in MODULES
    }
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_checker_flags_int_conversions():
    source = (
        "n = int('3')\n"
        "def _to_int(digits):\n"
        "    return int(digits)\n"
        "def _walk(ker, cone):\n"
        "    return len(ker) == int(cone)\n"
        "def build(p):\n"
        "    p.add_argument('--seed', type=int)\n"
        "    p.add_argument('--nodes', type=parse_count)\n"
        "    return isinstance(p, int), [int]\n"
        "class Reader:\n"
        "    def read(self, tok):\n"
        "        return int(tok)\n"
    )
    assert int_conversions("ratlin.py", source) == [
        "line 1: <module>",
        "line 5: _walk",
        "line 7: type=int",
        "line 12: Reader",
    ]
    assert "line 3: _to_int" in int_conversions("cli.py", source)


def dataclass_imports(source: str) -> list[str]:
    """``line N: dataclasses`` for each import of ``dataclasses`` anywhere
    in ``source``, inside functions too; a relative import names a package
    module and is not flagged."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] == "dataclasses"]
    return found


def test_no_module_imports_dataclasses():
    found = {path.name: dataclass_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {module: lines for module, lines in found.items() if lines} == {}


def test_checker_flags_dataclass_imports():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import os, dataclasses as dc\n"
        "from .dataclasses import Record\n"
        "from .record import dataclasses\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "    import dataclassesx\n"
    )
    assert dataclass_imports(source) == [
        "line 1: dataclasses",
        "line 2: dataclasses",
        "line 3: dataclasses",
        "line 7: dataclasses",
    ]


def test_cli_import_loads_no_code_generator():
    # -S: no site hook runs, so only the package's own imports count.
    code = "import sys, ddcircuits.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_every_error_class_is_raised():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unraised_errors(sources) == []


def test_checker_flags_unraised_errors():
    sources = {
        "errors.py": (
            "class ToolkitError(Exception):\n"
            "    pass\n"
            "class ParseError(ToolkitError):\n"
            "    pass\n"
            "class GuardError(ToolkitError):\n"
            "    pass\n"
            "class DeadError(ToolkitError):\n"
            "    pass\n"
            "class SelfError(ToolkitError):\n"
            "    pass\n"
            "class MappedError(ToolkitError):\n"
            "    pass\n"
            "def f():\n"
            "    raise SelfError('only here')\n"
        ),
        "polyhedron.py": (
            "from . import errors\n"
            "def parse(text):\n"
            "    if not text:\n"
            "        raise errors.ParseError('empty', 1, 1)\n"
            "    try:\n"
            "        pass\n"
            "    except ValueError as exc:\n"
            "        raise GuardError from exc\n"
        ),
        "lp.py": (
            "def solve(P):\n"
            "    if P.empty:  # pragma: no cover - x0 is feasible\n"
            "        raise DeadError('the LP is infeasible')\n"
            "    raise ValueError(DeadError)\n"
        ),
        "cli.py": "CODES = {MappedError: 4}\n",
    }
    assert unraised_errors(sources) == ["DeadError", "SelfError", "MappedError"]


def traced_names(source: str) -> tuple[str, ...]:
    """The ``module.name`` strings of the ``TRACED`` tuple in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED assignment")


def unresolved_names(names) -> list[str]:
    """Each ``module.name`` of ``names`` that is not a callable of
    ``ddcircuits.<module>``."""
    found = []
    for name in names:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"ddcircuits.{module}"), attr, None)):
            found.append(name)
    return found


def test_traced_names_resolve():
    names = traced_names(TRACER.read_text(encoding="utf-8"))
    assert names
    assert unresolved_names(names) == []


def test_checker_flags_untraceable_names():
    source = (
        "import time\n"
        "TRACED = (\n"
        "    'ratlin.rank',\n"
        "    'circuits.not_defined',\n"
        "    'polyhedron.UNBOUNDED',\n"
        "    'polyhedron.max_step',\n"
        ")\n"
        "_KEEP_RESULTS = ('ratlin.gone',)\n"
    )
    names = traced_names(source)
    assert unresolved_names(names) == ["circuits.not_defined", "polyhedron.UNBOUNDED"]
