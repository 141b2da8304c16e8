"""Source hygiene: no unused imports in the package, a pinned import
graph between its modules, the package names that the test oracles use,
a clean ``__all__``, and a cold import of the CLI that loads only what
the cumulant and word commands run."""

import ast
import os
import subprocess
import sys
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
        ("probability", "words"),
        ("surjections", "words"),
    }


def test_oracles_take_no_route_they_check():
    # tests/oracles.py checks the package's routes, so it takes from the
    # package only the value types and the word operations of its lemma
    # checks: no cumulant or decomposition route
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "ncwords")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ncwords":
            names.update(a.name for a in node.names)
    assert names == {"Alphabet", "MomentFunctional", "Word", "apply_map", "reduce_word", "restrict"}


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "words.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_all_names_resolve_once():
    names = ncwords.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(ncwords, n)] == []


COLD_IMPORT = """
import sys

import ncwords.cli

loaded = {"dataclasses", "inspect", "ncwords.cooperad"} & set(sys.modules)
assert not loaded, sorted(loaded)

import ncwords

assert ncwords.cooperad.decompose is ncwords.decompose
from ncwords import cooperad, decompose

assert decompose is cooperad.decompose
names = {}
exec("from ncwords import *", names)
assert sorted(set(names) - {"__builtins__"}) == sorted(ncwords.__all__)
assert not hasattr(ncwords, "nope")
"""


def test_cli_import_loads_only_what_it_runs():
    # A fresh interpreter, as a user's command has: the cooperad, which no
    # cumulant or word command needs, loads on first use of its names.
    src = Path(ncwords.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
