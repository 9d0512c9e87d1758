"""Each module of the package reaches another's names through its public
interface only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fdivbounds"


def test_no_relative_import_of_an_underscore_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno} imports {alias.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, found
