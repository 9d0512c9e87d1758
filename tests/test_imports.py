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


def _references(paths) -> set:
    """Every name the files read: AST names, attribute names and imported
    names with their aliases (a docstring or other string is not read)."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update({node.name, node.asname} - {None})
    return found


def test_every_module_level_definition_is_read():
    """Each module-level function or class of the package is read by name
    from the package or the benchmark, or is exported in ``__all__``: a
    definition that only tests reach is dead code."""
    import fdivbounds

    modules = sorted(PACKAGE.glob("*.py"))
    readers = modules + sorted((PACKAGE.parents[1] / "perfbench").rglob("*.py"))
    read = _references(readers) | set(fdivbounds.__all__)
    unread = [
        f"{path.name}: {node.name}"
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    ]
    assert not unread, unread
