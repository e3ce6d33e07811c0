"""Every function, method and class in the package has a reader.

A name defined in ``src/exactla`` that no code reads is code nothing
reaches.  A read is a reference in code, not a mention in prose: a name, an
attribute, an import alias or a string that is exactly the identifier (as
monkeypatch.setattr takes it), in the package modules, the tests or the
benchmark, or a word of README.md.  Docstrings and comments do not count,
and neither does a re-export in ``__init__.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "exactla").glob("*.py")
                 if p.name != "__init__.py")
SEARCHED = (MODULES + sorted((ROOT / "tests").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py")))


def _definitions(trees):
    """(name, path, line) of every non-dunder def and class in the package."""
    for path in MODULES:
        for node in ast.walk(trees[path]):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, path, node.lineno


def _references(tree):
    """Every identifier the code of one module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def test_every_defined_name_is_used():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SEARCHED}
    used = {name for tree in trees.values() for name in _references(tree)}
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    dead = [f"{path.name}:{line} {name}" for name, path, line in _definitions(trees)
            if name not in used]
    assert not dead, "defined but never used: " + ", ".join(dead)
