"""Every function, method and class in the package has a reader.

A name defined in ``src/exactla`` that occurs, as a whole word, nowhere but
on its own ``def``/``class`` line is code nothing reaches.  The search covers
the package modules, the tests, the benchmark and README.md; a re-export in
``__init__.py`` does not count as a use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "exactla").glob("*.py")
                 if p.name != "__init__.py")
SEARCHED = (MODULES + sorted((ROOT / "tests").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "README.md"])


def _definitions():
    """(name, path, line) of every non-dunder def and class in the package."""
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, path, node.lineno


def test_every_defined_name_is_used():
    lines = {path: path.read_text(encoding="utf-8").splitlines()
             for path in SEARCHED}
    dead = []
    for name, def_path, def_line in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(word.search(text)
                   for path, texts in lines.items()
                   for lineno, text in enumerate(texts, 1)
                   if (path, lineno) != (def_path, def_line))
        if not used:
            dead.append(f"{def_path.name}:{def_line} {name}")
    assert not dead, "defined but never used: " + ", ".join(dead)
