"""Source-level rules for the package.

* No ``assert`` statement: asserts vanish under ``python -O``, so they
  cannot serve as runtime checks.
* Immutability has one home: only ``nadic._Frozen`` defines
  ``__setattr__``.
* Every name in ``ncsolenoid.__all__`` resolves.
"""

import ast
from pathlib import Path

import ncsolenoid

SOURCES = sorted(Path(ncsolenoid.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_no_assert_statements():
    found = [
        "%s.py:%d" % (stem, node.lineno)
        for stem, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_frozen_defines_setattr():
    found = []
    for stem, tree in TREES.items():
        for owner in ast.walk(tree):
            for node in ast.iter_child_nodes(owner):
                if isinstance(node, ast.FunctionDef) and node.name == "__setattr__":
                    found.append("%s.%s" % (stem, getattr(owner, "name", "<module>")))
    assert found == ["nadic._Frozen"]


def test_every_exported_name_resolves():
    assert [name for name in ncsolenoid.__all__ if not hasattr(ncsolenoid, name)] == []
