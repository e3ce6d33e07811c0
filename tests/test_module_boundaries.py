"""numpy is imported by one package module, exactla/_numeric.py, so making
that import lazy stays a change to one module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "exactla"


def _numpy_imports(path):
    """Line numbers of the statements in path that import numpy or a
    numpy submodule, by import statement, __import__ or import_module."""
    def is_numpy(name):
        return name == "numpy" or name.startswith("numpy.")

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(is_numpy(a.name) for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level and is_numpy(node.module):
            yield node.lineno
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str) and is_numpy(node.args[0].value)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            yield node.lineno


def test_only_the_numeric_module_imports_numpy():
    found = {path.name: list(_numpy_imports(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("_numeric.py"), "the scan no longer sees _numeric.py's import"
    offenders = [f"{name}:{line}" for name, lines in found.items() for line in lines]
    assert not offenders, "numpy imported outside _numeric.py: " + ", ".join(offenders)
