"""Static checks that stand in for a linter: no unused imports and no f-string
without a placeholder in the package modules or the tests, every name that
``qchsh.__all__`` exports exists, each export and each public method of an
exported class is used by some package module other than ``__init__.py``,
each private module-level name is read by another part of the package,
the optimizer reads states only through the correlation matrix it is given,
no exported callable takes a ``basis`` parameter, no package module reaches
into numpy's private modules, the CLI builds its parser on the first
``main`` call, once, and not at import, the public surface keeps the size
ROADMAP.md records, each ``*_ATOL`` tolerance is assigned in one package
module and read by package code, and every module-level array of the
package is read-only."""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qchsh
import qchsh.cli

PACKAGE = Path(qchsh.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]


def _placeholder_free_fstrings(source: str) -> list[int]:
    """Lines of the f-strings that hold no placeholder (pyflakes F541).

    The format spec of a placeholder, as in ``f"{x:.3e}"``, is an f-string
    node of its own in the tree, and is not counted.
    """
    tree = ast.parse(source)
    specs = {
        id(node.format_spec)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and id(node) not in specs
        and not any(isinstance(value, ast.FormattedValue) for value in node.values)
    ]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_fstring_has_a_placeholder(path):
    assert _placeholder_free_fstrings(path.read_text(encoding="utf-8")) == []


def test_placeholder_free_fstring_is_reported():
    source = (
        'a = f"plain"\n'
        'b = f"{x:.3e}" + f"{x:{width}}"\n'
        'c = "not an f-string"\n'
        'd = (f"joined "\n'
        '     f"{x}")\n'
        'e = (f"joined "\n'
        '     f"plain")\n'
    )
    assert _placeholder_free_fstrings(source) == [1, 6]


def test_every_exported_name_resolves():
    missing = [name for name in qchsh.__all__ if not hasattr(qchsh, name)]
    assert missing == []
    assert len(set(qchsh.__all__)) == len(qchsh.__all__)


def _names_used_in_package() -> set[str]:
    used = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    return used


def test_every_export_is_used_in_the_package():
    used = _names_used_in_package()
    assert [name for name in qchsh.__all__ if name not in used] == []


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level functions, classes and constants that no module reads.

    A name is read where a module loads it, imports it or reads it as an
    attribute, outside the statement that defines it.  Reads by the tests
    do not count.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {statement.name}
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = getattr(statement, "targets", [getattr(statement, "target", None)])
                names = {
                    node.id for target in targets for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                }
            else:
                names = set()
            defined += [
                (module, name) for name in sorted(names)
                if name.startswith("_") and not name.startswith("__")
            ]
            reads = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
                elif isinstance(node, ast.alias):
                    reads.add(node.name)
            read |= reads - names
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_every_private_name_is_read_in_the_package():
    # a private helper that only tests call is test code, and lives in the tests
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _unread_private_names(sources) == []


def test_unread_private_name_is_reported():
    sources = {
        "a.py": (
            "_READ = 1\n"
            "_UNREAD, _PAIR = 2, 3\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) + _READ + _PAIR\n"
            "class _Imported: ...\n"
            "def _attribute(): ...\n"
            "def public(): ...\n"
            "__version__ = '1'\n"
        ),
        "b.py": "import a\nfrom a import _Imported\na._attribute()\n",
    }
    assert _unread_private_names(sources) == ["a.py: _UNREAD", "a.py: _recursive"]


def _attributes_read(sources) -> set[str]:
    """Every attribute name the sources read, as in ``obj.name``."""
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
    }


def _unused_public_methods(classes, read: set[str]) -> list[str]:
    return [
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, _ in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_") and name not in read
    ]


def test_every_public_method_is_called_in_the_package():
    classes = [obj for obj in map(qchsh.__dict__.get, qchsh.__all__) if inspect.isclass(obj)]
    read = _attributes_read(path.read_text(encoding="utf-8") for path in MODULES)
    assert _unused_public_methods(classes, read) == []


def test_unused_public_method_is_reported():
    class Planted:
        def called(self): ...

        def uncalled(self): ...

        def _private(self): ...

    read = _attributes_read(["x.called()\n", "uncalled = x._private\n"])
    assert _unused_public_methods([Planted], read) == ["Planted.uncalled"]


def test_optimizer_takes_correlations_not_states():
    tree = ast.parse((PACKAGE / "optimizer.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports if node.module == "states"] == []
    names = {alias.name for node in imports for alias in node.names}
    assert "correlation_matrix" not in names


def _private_numpy_paths(source: str) -> list[str]:
    """Dotted numpy paths with a private part (``numpy._core``, ``numpy.linalg._x``)
    that the source imports or reads as an attribute of ``numpy`` or ``np``."""
    tree = ast.parse(source)
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            paths += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
                paths.append(".".join(["numpy"] + parts[::-1]))
    private = []
    for path in paths:
        parts = path.split(".")
        if parts[0] == "numpy" and any(
            part.startswith("_") and not part.startswith("__") for part in parts[1:]
        ):
            private.append(path)
    return private


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_numpy_module(path):
    assert _private_numpy_paths(path.read_text(encoding="utf-8")) == []


def test_private_numpy_module_is_reported():
    source = (
        "import numpy as np\n"
        "import numpy._core.umath\n"
        "from numpy.linalg import _umath_linalg, eigh\n"
        "from numpy._core import multiarray\n"
        "np.linalg._umath_linalg.eigh_lo(x)\n"
        "np.linalg.eigh(x)\n"
        "np.__version__\n"
    )
    assert set(_private_numpy_paths(source)) == {
        "numpy._core.multiarray",
        "numpy._core.umath",
        "numpy.linalg._umath_linalg",
        "numpy.linalg._umath_linalg.eigh_lo",
    }


# Counts the ArgumentParser objects built by the import and by each of three
# main calls, in a fresh interpreter.
_PARSER_COUNT = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import qchsh
import qchsh.cli
counts = [len(built)]
for _ in range(3):
    with contextlib.redirect_stdout(io.StringIO()):
        qchsh.cli.main(["verify", "--suite", "lemma1", "--dims", "2:2", "--trials", "10"])
    counts.append(len(built))
print(*counts)
"""


def _parser_counts() -> list[int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _PARSER_COUNT],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return [int(word) for word in run.stdout.split()]


def test_cli_parser_is_built_on_first_main_call_only():
    at_import, *after_calls = _parser_counts()
    # import qchsh and qchsh.cli build nothing, so start-up keeps its cost
    assert at_import == 0
    # the first call builds the parser and its subparsers; later calls reuse them
    assert after_calls[0] > 0
    assert after_calls == [after_calls[0]] * 3


def _signatures(name: str, obj) -> list[tuple[str, list[str]]]:
    """(label, parameter names) of an exported function, or of a class's
    constructor and each of its public methods (``self`` left out); none for
    a constant."""
    if inspect.isclass(obj):
        methods = [
            (f"{name}.{method}", list(inspect.signature(fn).parameters)[1:])
            for method, fn in inspect.getmembers(obj, inspect.isfunction)
            if not method.startswith("_")
        ]
        return [(name, list(inspect.signature(obj).parameters))] + methods
    return [(name, list(inspect.signature(obj).parameters))] if callable(obj) else []


def _parameter_count(obj) -> int:
    return sum(len(parameters) for _, parameters in _signatures("", obj))


def _taking(parameter: str, exports: dict) -> list[str]:
    """The exported callables, constructors and public methods with this parameter."""
    return [
        label
        for name, obj in exports.items()
        for label, parameters in _signatures(name, obj)
        if parameter in parameters
    ]


def test_no_public_callable_takes_a_basis():
    # d fixes the Gell-Mann basis, and every input carries its d
    assert _taking("basis", {name: getattr(qchsh, name) for name in qchsh.__all__}) == []


def test_basis_parameter_is_reported():
    class Planted:
        def __init__(self, basis): ...

        def method(self, x, basis=None): ...

        def _private(self, basis): ...

    def free(basis): ...

    def other(d): ...

    exports = {"Planted": Planted, "free": free, "other": other, "CONSTANT": 1.0}
    assert _taking("basis", exports) == ["Planted", "Planted.method", "free"]


def _cli_option_count() -> int:
    """Options of every subcommand, ``--help`` not counted."""
    subparsers = [a for a in qchsh.cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    return sum(
        1
        for group in subparsers
        for sub in group.choices.values()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )


def test_public_surface_size():
    # 44 + 27 = 71 settable values.  A change to the surface changes these
    # counts; ROADMAP.md records them.
    assert len(qchsh.__all__) == 27
    api = sum(_parameter_count(getattr(qchsh, name)) for name in qchsh.__all__)
    assert (api, _cli_option_count()) == (44, 27)


def _tolerance_homes(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each ``*_ATOL`` name assigned at module level, with the modules that assign it."""
    homes: dict[str, list[str]] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith("_ATOL"):
                    homes.setdefault(target.id, []).append(module)
    return homes


def test_each_tolerance_is_assigned_in_one_module():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    homes = _tolerance_homes(sources)
    assert homes["HERMITIAN_ATOL"] == ["representation.py"]
    assert {name: paths for name, paths in homes.items() if len(paths) != 1} == {}


def test_tolerance_assigned_twice_is_reported():
    sources = {
        "a.py": "X_ATOL = 1e-10\nY_ATOL: float = 1e-12\nlimit = 1.0\n",
        "b.py": "from a import Y_ATOL\nX_ATOL = 2e-10\ndef f():\n    Z_ATOL = 1.0\n",
    }
    assert _tolerance_homes(sources) == {"X_ATOL": ["a.py", "b.py"], "Y_ATOL": ["a.py"]}


def _unread_tolerances(sources: dict[str, str]) -> list[str]:
    """The module-level ``*_ATOL`` names that no source loads or reads as an attribute.

    An import alone is not a read.  Reads by the tests do not count.
    """
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in _tolerance_homes(sources) if name not in read)


def test_every_tolerance_is_read_in_the_package():
    # a tolerance that a change leaves without a reader is dead surface
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _unread_tolerances(sources) == []


def test_unread_tolerance_is_reported():
    sources = {
        "a.py": (
            "READ_ATOL = 1e-10\n"
            "UNREAD_ATOL = 1e-12\n"
            "IMPORTED_ATOL = 1.0\n"
            "ATTRIBUTE_ATOL = 2.0\n"
            "def f(x):\n"
            "    return x < READ_ATOL\n"
        ),
        "b.py": (
            "import a\n"
            "from a import IMPORTED_ATOL\n"
            "ANNOTATED_ATOL: float = 1.0\n"
            "print(a.ATTRIBUTE_ATOL)\n"
        ),
    }
    assert _unread_tolerances(sources) == ["ANNOTATED_ATOL", "IMPORTED_ATOL", "UNREAD_ATOL"]


def _module_arrays(modules) -> dict[str, np.ndarray]:
    """Every ndarray bound to a name at module level, by its dotted name."""
    return {
        f"{module.__name__}.{name}": value
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, np.ndarray)
    }


def _writable(arrays: dict[str, np.ndarray]) -> list[str]:
    return [name for name, array in arrays.items() if array.flags.writeable]


def test_every_module_level_array_is_read_only():
    # a table shared by every call in the process cannot be changed by one
    arrays = _module_arrays(importlib.import_module(f"qchsh.{path.stem}") for path in MODULES)
    assert {
        "qchsh.cli._POWERS_OF_TEN", "qchsh.optimizer._PLUS_MINUS", "qchsh.representation._PAIR_SUMS"
    } <= set(arrays)
    assert _writable(arrays) == []


def test_writable_module_array_is_reported():
    planted = types.ModuleType("planted")
    planted.TABLE = np.arange(3.0)
    planted.FROZEN = np.arange(3.0)
    planted.FROZEN.setflags(write=False)
    planted.VIEW = planted.FROZEN[1:]
    planted.SCALAR = np.float64(1.0)
    arrays = _module_arrays([planted])
    assert set(arrays) == {"planted.TABLE", "planted.FROZEN", "planted.VIEW"}
    assert _writable(arrays) == ["planted.TABLE"]
