"""Source hygiene: no unused imports in the package, a pinned import
graph between its modules, and a clean ``__all__``."""

import ast
from pathlib import Path

import pytest

import ncwords

MODULES = sorted(Path(ncwords.__file__).parent.glob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports its imports by listing them in __all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def sibling_imports(path):
    """The package modules that ``path`` imports, by relative import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_import_graph():
    # Each definition has one owning module; in particular the cumulants
    # take the basis-word check from words, not from the cooperad.
    edges = {(p.stem, sibling) for p in MODULES for sibling in sibling_imports(p)}
    package = {"words", "surjections", "cooperad", "probability", "cumulants"}
    assert edges == {("__init__", name) for name in package} | {
        ("cli", "cooperad"),
        ("cli", "cumulants"),
        ("cli", "probability"),
        ("cli", "surjections"),
        ("cli", "words"),
        ("cooperad", "surjections"),
        ("cooperad", "words"),
        ("cumulants", "probability"),
        ("cumulants", "surjections"),
        ("cumulants", "words"),
        ("surjections", "words"),
    }


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "words.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_all_names_resolve_once():
    names = ncwords.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(ncwords, n)] == []
