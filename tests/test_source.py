"""Checks on the package source itself, read with the stdlib ``ast`` module."""

import ast
from pathlib import Path

import pytest

import qotsim

MODULES = sorted(Path(qotsim.__file__).resolve().parent.glob("*.py"))


def imported_names(tree):
    """The name each import statement of ``tree`` binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def read_names(tree):
    """Every name ``tree`` reads: as a ``Name`` (which covers the base of an
    ``Attribute``), or as a string listed in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(elt.value for elt in node.value.elts)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree) if name not in read]
    assert unused == []
