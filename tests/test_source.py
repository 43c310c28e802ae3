"""Checks on the package source itself, read with the stdlib ``ast`` module."""

import ast
import re
from pathlib import Path

import pytest

import qotsim

MODULES = sorted(Path(qotsim.__file__).resolve().parent.glob("*.py"))


def test_version_matches_pyproject():
    # the golden CSVs are pinned within a version, so the package and its
    # metadata must name the same one (read without tomllib, which Python
    # 3.10 lacks)
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [qotsim.__version__]


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


TESTS = Path(__file__).resolve().parent
#: every file whose reads count: the package, its tests and its benchmark
READERS = sorted(MODULES + [*TESTS.glob("*.py"), *(TESTS.parent / "perfbench").glob("*.py")])


def module_definitions(tree):
    """Each module-level function, class and constant of ``tree``, and each
    name a module-level ``for`` or ``with`` statement binds (dunder names such
    as ``__all__`` excepted), with the lines its definition spans: for a loop
    or ``with`` block, the whole statement, body included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.For, ast.With)):
            targets = [node.target] if isinstance(node, ast.For) else [i.optional_vars for i in node.items]
            names = [n.id for t in targets if t is not None for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, range(node.lineno, node.end_lineno + 1)


def name_reads(tree):
    """Each name ``tree`` reads, with its line: a loaded ``Name``, the attribute
    of an ``Attribute``, or a name that an import statement takes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def dead_definitions(modules, readers):
    """``file:line: name`` for each module-level definition in ``modules`` that
    no file of ``readers`` reads outside the definition itself."""
    reads = {}
    for path in readers:
        for name, line in name_reads(ast.parse(path.read_text(), filename=str(path))):
            reads.setdefault(name, set()).add((path, line))
    return [f"{path.name}:{lines[0]}: {name}"
            for path in modules
            for name, lines in module_definitions(ast.parse(path.read_text(), filename=str(path)))
            if all(p == path and line in lines for p, line in reads.get(name, ()))]


def test_every_module_level_definition_is_read():
    assert dead_definitions(MODULES, READERS) == []


def test_an_unread_helper_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("LIMIT = 3\n\n\ndef helper(n):\n    return helper(n - 1) if n else LIMIT\n\n\n"
                      "def used():\n    return 1\n\n\nfor _row, _col in [(LIMIT, 0)]:\n    print(_row, _col)\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from module import used\n")
    # a loop's targets are read only inside the loop, so it reports both
    assert dead_definitions([module], [module, reader]) == [
        "module.py:4: helper", "module.py:12: _row", "module.py:12: _col"]


#: the longest line in ``src/`` when this check was added, so that a line
#: count cannot fall by packing code into wider lines
MAX_LINE = 108


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_source_line_is_wider_than_the_limit(path):
    wide = [f"{path.name}:{n}: {len(line)}" for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert wide == []
