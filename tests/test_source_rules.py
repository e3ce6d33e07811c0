"""Rules over the source text itself: the package's checks survive python -O,
and every Python file parses at the declared floor, requires-python >= 3.10."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_package_has_no_assert_statement():
    # python -O strips assert statements; every check raises a typed error instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "exactla").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/exactla: " + ", ".join(found)


def test_every_file_parses_as_python_3_10():
    paths = [path for top in ("src", "tests", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    assert any(path.name == "cli.py" for path in paths)
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))
