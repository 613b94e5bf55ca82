"""Source-level rules for the package.

* No ``assert`` statement: asserts vanish under ``python -O``, so they
  cannot serve as runtime checks.
* Immutability has one home: only ``nadic._Frozen`` defines
  ``__setattr__``.
* Value equality has one home: only ``nadic._Value`` defines ``__eq__``
  and ``__hash__``.
* Every name in ``ncsolenoid.__all__`` resolves.
* ``import ncsolenoid`` loads neither ``dataclasses`` nor ``typing``
  (the start-up cost of the CLI and of every library user).
"""

import ast
import os
import subprocess
import sys
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


def test_only_value_defines_eq_and_hash():
    found = []
    for stem, tree in TREES.items():
        for owner in ast.walk(tree):
            for node in ast.iter_child_nodes(owner):
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [
                    "%s.%s.%s" % (stem, getattr(owner, "name", "<module>"), name)
                    for name in names
                    if name in ("__eq__", "__hash__")
                ]
    assert sorted(found) == ["nadic._Value.__eq__", "nadic._Value.__hash__"]


def test_every_exported_name_resolves():
    assert [name for name in ncsolenoid.__all__ if not hasattr(ncsolenoid, name)] == []


def test_import_loads_neither_dataclasses_nor_typing():
    # -S skips site, as a bare interpreter start does; PYTHONPATH still applies.
    env = dict(os.environ, PYTHONPATH=str(Path(ncsolenoid.__file__).parent.parent))
    code = "import sys, ncsolenoid; print(sorted({'dataclasses', 'typing'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
