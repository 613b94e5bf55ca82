"""Source-level rules for the package.

* No ``assert`` statement: asserts vanish under ``python -O``, so they
  cannot serve as runtime checks.
* Immutability has one home: only ``nadic._Frozen`` defines
  ``__setattr__``, and no ``object.__setattr__`` call is left in the
  package; slots are written at construction only, through
  ``_Frozen._fill``; only ``_Frozen`` defines ``_fill`` (no per-class
  setter table such as ``_slot_setters`` or ``_BUNDLE_SLOTS``, and no
  ``Angle._plus``), and the ``_setters`` it binds for each slotted class
  are read only in ``_Frozen.__init_subclass__`` and ``_Frozen._fill``
  and by the one named setter, ``(_set_value,) = Angle._setters``, that
  ``Angle._of`` calls.
* Points of Q_N below the public API are lowest-terms integer pairs
  (num, exp), and only ``nadic._pair_sum`` adds them (``+`` on two tuples
  joins them): no pair is an operand of ``+`` or reaches ``coboundary``
  in the cores that read pairs or in the loops that draw them (followed
  from a draw through ``iter``, ``zip``, ``enumerate`` and ``tuple`` to
  the loop variables), and ``QnRational.__add__`` calls ``_pair_sum``.
* Value equality has one home: only ``nadic._Value`` defines ``__eq__``
  and ``__hash__``.
* Group subtraction and the operand check of ``__add__`` have one home:
  only ``nadic._Value`` defines ``_require_same`` and ``__sub__``.
* The integer check has one home: ``isinstance(x, bool)`` appears only in
  ``nadic.check_int``, ``nadic.as_fraction`` and the two operators that
  must return NotImplemented, ``Angle.__mul__`` and ``AngleMatrix.__pow__``.
* A prefix carrier is a read-only window with one exactness check:
  ``.prefix`` is read only in ``nadic``, and only
  ``nadic.NadicInteger.exact_value`` raises the "exact carrier" /
  "finite prefix" error.
* Element and carrier files have one reader, ``codec``: no class defines
  ``from_json``.
* The carrier type check has one home: ``isinstance(x, NadicInteger)``
  appears only in ``nadic.check_carrier``.
* The trusted constructors ``_of`` and ``AngleMatrix._canonical``, the
  trusted residue read ``NadicInteger._at``, the towers ``nadic._tower``
  and ``nadic._view`` (with its on-demand rows ``nadic._Lazy``), the pair
  sum ``nadic._pair_sum``, the cores ``ktheory._xi``, ``_zeta``,
  ``_prufer``, ``_mu``, ``_carry`` and ``GeneratorCochain._eval``, and
  ``multiplier._terms`` with the integer cores ``_psi_frac``,
  ``_theta_frac`` and ``_bichar_frac`` skip the argument checks, so they
  never run on user input: ``codec`` and ``cli`` do not call them, and no
  private name enters ``ncsolenoid.__all__``.
* The cores read a carrier as a tower (N, J, P) and a sequence as its
  terms (c, A, P), numerator row A[n] = alpha_n * c * N**n (built by
  ``multiplier._terms`` through ``multiplier._numerator``), by subscript
  only: ``ktheory._xi``, ``_zeta``, ``_mu``, ``_prufer`` and
  ``multiplier._numerator``, ``_psi_frac``, ``_theta_frac`` and
  ``_bichar_frac`` contain no ``._at``, ``.modulus``, ``.base`` or ``**``.
* The fraction wire format has one home: the string ``"%d/%d"`` appears
  only in ``nadic.format_fraction``.
* The N-adic residue has one home: ``pow(x, -1, m)`` appears only in
  ``nadic.residue``, and only ``NadicInteger._at`` and ``sequences._move``
  call it.
* The exact-pair move has one home: only ``sequences`` defines ``_move``,
  which makes ``AngleSequence.shift``, negation and the isomorphism
  moves; ``classify`` defines neither ``_move`` nor a separate search
  ``_search`` beside ``isomorphic``.
* The multiplicative order has one home: only ``nadic`` (which defines
  it), ``sequences`` (``AngleSequence.period``) and the ``__init__``
  export name ``multiplicative_order``.
* The CLI's subcommands are declared in one table: ``add_parser(`` and
  ``add_subparsers(`` each appear once in ``cli.py``.  A handler returns
  its document: only ``cli.main`` calls ``dump_json`` and picks the exit
  code, and no ``cmd_*`` returns an int or an ``EXIT_*`` name.
* Seeded draws have one home: no ``randrange``, ``randint`` or
  ``choice`` call is left in the package; ``nadic._below`` draws with
  ``getrandbits``.
* Certificates are checked apart from their producers: ``oracle``
  imports nothing from ``classify``, and ``oracle.bundle_check`` reads
  the bundle unitaries only as printed, through ``to_json`` (no
  ``rows``, ``perm``, ``num``, ``den`` or ``scaled``, no ``@`` or ``**``).
* One oracle check per identity, and none that cannot fail: ``oracle``
  imports no ``r_digit`` (the nesting of the colimit stages is the
  coherence identity it checks through ``connecting_matrix``), and
  ``oracle.brute_symmetrizer`` calls ``_theta_frac``, so its spot checks
  read Theta apart from the term values that decide membership.
* Only the oracles check a witness: no module but ``oracle`` raises
  ``AssertionError``, and ``ktheory.cohomologous`` takes exactly
  ``(J, R, depth=8)``, with no replay knobs.
* ``bundle_data`` builds and does not check: the relation helpers
  ``_twisted_commute`` and ``_power_is_one`` and the "bundle relation"
  raises are gone, and ``AngleMatrix.__pow__`` multiplies through ``@``
  without reading the fields.
* The colimit oracle reads its points at z = 0, the CLI reads a Q_N
  argument through ``QnRational.from_fraction``, and the oracle keeps no
  wrapper its callers see through (``colimit_report(...)["match"]``, the
  draws of ``nadic._sampler``): the names ``int_window``, ``_parse_qn``,
  ``colimit_compare``, ``sample_qn``, ``_emit``, ``segment`` and ``_dense``
  appear nowhere in the package; nor do the dropped named setters
  ``_set_deep``, ``_set_num``, ``_set_exp`` and ``_set_modulus``, or
  ``frac_part`` (``Fraction % 1`` does its job).
* Every name in ``ncsolenoid.__all__`` resolves.
* Every public name has a reader.  The public names are the module-level
  defs, classes and constants of each module but ``__init__`` and
  ``__main__``, and the public methods and properties of those classes.
  A reader is a use outside the name's own definition, docstrings and
  comments: in the package (``__init__`` aside), in ``bench/`` or
  ``demos/``, or in the two test modules that pass unedited,
  ``test_acceptance`` and ``test_iso_digest``.  A method is read as
  ``.name``; a module-level name also as a bare name, an import, or a
  word of a string that is not a docstring.  A name with no reader is
  deleted unless ``PAPER_OBJECTS`` says which object of the paper it is.
* ``import ncsolenoid`` loads neither ``dataclasses`` nor ``typing``
  (the start-up cost of the CLI and of every library user).
* A line ratchet: the package sources together (``cat *.py | wc -l``)
  stay at or below ``SOURCE_LINES``; a change that deletes lines lowers
  the pin with it.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import ncsolenoid

ROOT = Path(__file__).resolve().parent.parent
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


def _definitions(wanted):
    """'module.Owner.name' for each def of, or assignment to, a name in wanted."""
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
                    if name in wanted
                ]
    return sorted(found)


def _scoped_nodes(node, scope):
    """Every node below node, with the dotted class and function names around it."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = "%s.%s" % (scope, child.name)
        yield from _scoped_nodes(child, inner)


def test_only_frozen_defines_setattr():
    assert _definitions({"__setattr__"}) == ["nadic._Frozen.__setattr__"]


def test_no_object_setattr_call_is_left():
    found = [
        "%s.py:%d" % (stem, node.lineno)
        for stem, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and getattr(node.value, "id", None) == "object"
    ]
    assert found == []


def test_slot_writes_have_one_home():
    names = {"_fill", "_setters", "_slot_setters", "_BUNDLE_SLOTS", "_plus"}
    assert _definitions(names) == ["nadic._Frozen._fill"]


def test_only_frozen_and_the_angle_binding_read_the_setters():
    # a read writes no slot: no residue cache or trusted constructor takes a setter of its own
    readers = sorted(
        scope
        for stem, tree in TREES.items()
        for node, scope in _scoped_nodes(tree, stem)
        if isinstance(node, ast.Attribute) and node.attr == "_setters"
    )
    assert readers == ["nadic._Frozen.__init_subclass__", "nadic._Frozen._fill", "sequences"]
    bindings = [ast.unparse(n) for n in TREES["sequences"].body if "_setters" in ast.unparse(n)]
    assert bindings == ["_set_value, = Angle._setters"]  # unparse drops the parentheses


PAIR_READERS = (
    "ktheory._xi", "ktheory._zeta", "ktheory._prufer", "ktheory._mu",
    "ktheory.GeneratorCochain._eval", "multiplier._psi_frac", "multiplier._theta_frac",
    "multiplier._bichar_frac", "oracle._fuzz_xi", "oracle._fuzz_zeta", "oracle._fuzz_psi_bichar",
    "oracle.coboundary_solve", "oracle.brute_symmetrizer",
)


def _makes_pairs(value, pairs):
    """Whether an expression is a draw, a pair sum, or a tuple or iterator that holds one.

    A draw is ``draw(...)`` or a loop's ``_sampler(...)(count)``; ``iter``,
    ``zip``, ``enumerate`` and ``tuple`` pass through the pairs of their
    arguments, draws or names in pairs.
    """
    if isinstance(value, ast.Tuple):
        return any(_makes_pairs(v, pairs) for v in value.elts)
    if not isinstance(value, ast.Call):
        return False
    if isinstance(value.func, ast.Call):
        return getattr(value.func.func, "id", None) == "_sampler"
    name = getattr(value.func, "id", None)
    return name in ("draw", "_pair_sum") or name in ("iter", "zip", "enumerate", "tuple") and any(
        getattr(v, "id", None) in pairs or _makes_pairs(v, pairs) for v in value.args
    )


def _pair_names(node):
    """The names of a def that hold pairs: point parameters, targets of draws and sums, and
    the loop variables over them (an ``enumerate`` index aside), to a fixed point."""
    names = {a.arg for a in node.args.args if a.arg in ("x", "y", "g", "h")}
    while True:
        grown = set(names)
        for n in ast.walk(node):
            if isinstance(n, ast.Assign) and _makes_pairs(n.value, names):
                target = n.targets[0]
            elif isinstance(n, ast.For) and _makes_pairs(n.iter, names):
                target = n.target
                if isinstance(n.iter, ast.Call) and getattr(n.iter.func, "id", None) == "enumerate":
                    target = target.elts[1]
            else:
                continue
            grown |= {t.id for t in ast.walk(target) if isinstance(t, ast.Name)}
        if grown == names:
            return names
        names = grown


def test_only_pair_sum_adds_pairs():
    assert _definitions({"_pair_sum"}) == ["nadic.<module>._pair_sum"]
    found = []
    for dotted in PAIR_READERS:
        node = _function(dotted)
        pairs = _pair_names(node)
        for n in ast.walk(node):
            operands = []
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add):
                operands = [n.left, n.right]
            elif isinstance(n, ast.Call) and getattr(n.func, "id", None) == "coboundary":
                operands = n.args
            while any(isinstance(o, ast.Subscript) for o in operands):  # g[0] is a pair too
                operands = [o.value if isinstance(o, ast.Subscript) else o for o in operands]
            if any(getattr(o, "id", None) in pairs for o in operands):
                found.append("%s:%d" % (dotted, n.lineno))
    assert found == []
    called = {getattr(n.func, "id", None) for n in ast.walk(_function("nadic.QnRational.__add__"))
              if isinstance(n, ast.Call)}
    assert "_pair_sum" in called


TOWER_CORES = (
    "ktheory._xi", "ktheory._zeta", "ktheory._mu", "ktheory._prufer", "multiplier._numerator",
    "multiplier._psi_frac", "multiplier._theta_frac", "multiplier._bichar_frac",
)


def test_the_cores_read_a_tower_by_subscript_only():
    found = []
    for dotted in TOWER_CORES:
        for n in ast.walk(_function(dotted)):
            if isinstance(n, ast.Attribute) and n.attr in ("_at", "modulus", "base"):
                found.append("%s:%d .%s" % (dotted, n.lineno, n.attr))
            elif isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Pow):
                found.append("%s:%d **" % (dotted, n.lineno))
    assert found == []


def test_only_value_defines_eq_and_hash():
    assert _definitions({"__eq__", "__hash__"}) == ["nadic._Value.__eq__", "nadic._Value.__hash__"]


def test_only_value_defines_require_same_and_sub():
    assert _definitions({"_require_same", "__sub__"}) == [
        "nadic._Value.__sub__",
        "nadic._Value._require_same",
    ]


def _isinstance_scopes(cls):
    """The scopes of every isinstance(x, ...) call whose classes name cls, sorted."""
    found = []
    for stem, tree in TREES.items():
        for node, scope in _scoped_nodes(tree, stem):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
                continue
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(k, "id", None) == cls for k in kinds):
                found.append(scope)
    return sorted(found)


def test_only_the_integer_checks_test_for_bool():
    assert _isinstance_scopes("bool") == [
        "classify.AngleMatrix.__pow__",
        "nadic.as_fraction",
        "nadic.check_int",
        "sequences.Angle.__mul__",
    ]


def test_prefix_is_read_only_in_nadic():
    found = [
        "%s.py:%d" % (stem, node.lineno)
        for stem, tree in TREES.items()
        if stem != "nadic"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "prefix"
    ]
    assert found == []


def test_only_exact_value_raises_the_exactness_error():
    found = []
    for stem, tree in TREES.items():
        for node, scope in _scoped_nodes(tree, stem):
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant)
                and isinstance(c.value, str)
                and ("exact carrier" in c.value or "finite prefix" in c.value)
                for c in ast.walk(node)
            ):
                found.append(scope)
    assert found == ["nadic.NadicInteger.exact_value"]


def test_no_class_defines_from_json():
    found = [
        "%s.%s" % (stem, node.name)
        for stem, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(f, "name", None) == "from_json" for f in node.body)
    ]
    assert found == []


def test_only_check_carrier_tests_for_a_carrier():
    assert _isinstance_scopes("NadicInteger") == ["nadic.check_carrier"]


UNCHECKED = ("_of", "_canonical", "_at", "_tower", "_view", "_Lazy", "_pair_sum", "_xi", "_zeta",
             "_prufer", "_mu", "_carry", "_eval", "_terms", "_psi_frac", "_theta_frac",
             "_bichar_frac")


def test_trusted_constructors_stay_off_user_input():
    found = [
        "%s.py:%d" % (stem, node.lineno)
        for stem in ("codec", "cli")
        for node in ast.walk(TREES[stem])
        if getattr(node, "attr", getattr(node, "id", None)) in UNCHECKED
    ]
    assert found == []
    assert [name for name in ncsolenoid.__all__ if name.startswith("_")] == []


def test_the_fraction_wire_format_has_one_home():
    found = [
        scope
        for stem, tree in TREES.items()
        for node, scope in _scoped_nodes(tree, stem)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "%d/%d" in node.value
    ]
    assert found == ["nadic.format_fraction"]


def test_the_nadic_residue_has_one_home():
    found = [
        scope
        for stem, tree in TREES.items()
        for node, scope in _scoped_nodes(tree, stem)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "pow"
        and len(node.args) == 3
        and ast.unparse(node.args[1]) == "-1"
    ]
    assert found == ["nadic.residue"]
    callers = [
        scope
        for stem, tree in TREES.items()
        for node, scope in _scoped_nodes(tree, stem)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "residue"
    ]
    assert sorted(callers) == ["nadic.NadicInteger._at", "sequences._move"]


def test_the_pair_move_has_one_home():
    assert _definitions({"_move", "_search"}) == ["sequences.<module>._move"]


def test_the_multiplicative_order_has_one_home():
    found = sorted(
        {
            stem
            for stem, tree in TREES.items()
            for node in ast.walk(tree)
            if "multiplicative_order" in (getattr(node, a, None) for a in ("id", "attr", "name"))
        }
    )
    assert found == ["__init__", "nadic", "sequences"]


def test_subcommands_are_declared_only_in_the_table():
    text = (Path(ncsolenoid.__file__).parent / "cli.py").read_text()
    assert (text.count("add_parser("), text.count("add_subparsers(")) == (1, 1)


def _exit_code(expr):
    """Whether a returned expression is an exit code: an int, an EXIT_* name or a choice of them."""
    if isinstance(expr, ast.IfExp):
        return _exit_code(expr.body) or _exit_code(expr.orelse)
    return (isinstance(expr, ast.Constant) and isinstance(expr.value, int)) or (
        isinstance(expr, ast.Name) and expr.id.startswith("EXIT_")
    )


def test_handlers_return_documents_that_only_main_prints():
    printers = [
        scope
        for stem, tree in TREES.items()
        for node, scope in _scoped_nodes(tree, stem)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "dump_json"
    ]
    assert printers == ["cli.main"]
    codes = [
        "cli.%s:%d" % (fn.name, node.lineno)
        for fn in TREES["cli"].body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Return) and _exit_code(node.value)
    ]
    assert codes == []


def test_seeded_draws_have_one_home():
    found = [
        "%s.py:%d" % (stem, node.lineno)
        for stem, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("randrange", "randint", "choice")
    ]
    assert found == []


def test_oracle_imports_nothing_from_classify():
    found = [
        "oracle.py:%d" % node.lineno
        for node in ast.walk(TREES["oracle"])
        if (isinstance(node, ast.ImportFrom) and "classify" in (node.module or ""))
        or (isinstance(node, ast.Import) and any("classify" in a.name for a in node.names))
    ]
    assert found == []


def _function(dotted):
    """The def node at a dotted path, e.g. classify.AngleMatrix.__pow__."""
    stem = dotted.split(".")[0]
    return next(
        node
        for node, scope in _scoped_nodes(TREES[stem], stem)
        if isinstance(node, ast.FunctionDef) and "%s.%s" % (scope, node.name) == dotted
    )


def _matrix_reads(node):
    """The matrix fields and methods read, and the @ and ** operators used, below node."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr in ("rows", "perm", "num", "den", "scaled"):
            found.add(n.attr)
        elif isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, (ast.MatMult, ast.Pow)):
            found.add(type(n.op).__name__)
    return sorted(found)


def test_bundle_check_reads_only_the_dense_rows():
    # the dense rows it reads are the printed ones, the answer `bundle` gives
    for name in ("bundle_check", "_phases", "_compose"):
        assert _matrix_reads(_function("oracle." + name)) == []
    calls = [n for n in ast.walk(_function("oracle.bundle_check")) if isinstance(n, ast.Call)]
    assert "to_json" in {getattr(n.func, "attr", None) for n in calls}


def test_the_colimit_oracle_reads_no_stage_digit():
    found = [
        "oracle.py:%d" % node.lineno
        for node in ast.walk(TREES["oracle"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(a.name == "r_digit" for a in node.names)
    ]
    assert found == []


def test_brute_symmetrizer_spot_checks_through_theta():
    node = _function("oracle.brute_symmetrizer")
    called = {getattr(n.func, "id", None) for n in ast.walk(node) if isinstance(n, ast.Call)}
    assert "_theta_frac" in called


def test_bundle_data_builds_and_does_not_check():
    assert _definitions({"_twisted_commute", "_power_is_one"}) == []
    raises = [
        "%s.py:%d" % (stem, node.lineno)
        for stem, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "bundle relation" in ast.unparse(node)
    ]
    assert raises == []
    assert _matrix_reads(_function("classify.AngleMatrix.__pow__")) == ["MatMult"]


def test_only_the_oracle_raises_assertion_error():
    found = [
        "%s.py:%d" % (stem, node.lineno)
        for stem, tree in TREES.items()
        if stem != "oracle"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "AssertionError" in ast.unparse(node)
    ]
    assert found == []


def test_cohomologous_has_no_replay_knobs():
    assert ast.unparse(_function("ktheory.cohomologous").args) == "J, R, depth=8"


def test_the_removed_knobs_stay_removed():
    found = [
        "%s.py: %s" % (path.stem, name)
        for path in SOURCES
        for name in (
            "int_window", "_parse_qn", "colimit_compare", "sample_qn", "_emit", "segment", "_dense",
            "_set_deep", "_set_num", "_set_exp", "_set_modulus", "frac_part",
        )
        if name in path.read_text()
    ]
    assert found == []


READERS = [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_iso_digest.py"]

#: Public names that only tests call, each with the object of the paper it is.
PAPER_OBJECTS = {
    "multiplier.psi_phase": "the multiplier Psi_alpha on Q_N^2",
    "ktheory.zeta_cocycle": "zeta_J, the carry cocycle pulled back along the Pruefer pairing",
    "ktheory.mu_cochain": "the cochain mu_J with zeta_J + d(-mu_J) = xi_J",
    "ktheory.prufer_pair": "the Pruefer pairing p/N**k -> p J_k / N**k of Q_N into Q/Z",
    "ktheory.cross_section_carry": "the carry cocycle of the section Q/Z -> [0, 1)",
}


def _public_names():
    """'module.name' and 'module.Class.method' -> (definition node, is a method)."""
    found = {}
    for stem, tree in TREES.items():
        if stem in ("__init__", "__main__"):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    found["%s.%s" % (stem, name)] = (node, False)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        found["%s.%s.%s" % (stem, node.name, m.name)] = (m, True)
    return found


def _uses(tree):
    """How often each use occurs below tree, docstrings aside: '.attr', '=name' (a bare name
    read, or an import) or "'word" (a word of a string)."""
    found, stack = Counter(), [tree]
    while stack:
        node = stack.pop()
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Attribute):
            found["." + node.attr] += 1
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found["=" + node.id] += 1
        elif isinstance(node, ast.alias):
            found["=" + node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update("'" + word for word in re.findall(r"\w+", node.value))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(
            node, clean=False
        ) is not None:
            children.remove(node.body[0])
        stack += children
    return found


def test_every_public_name_has_a_reader():
    outside = sum((_uses(ast.parse(path.read_text())) for path in READERS), Counter())
    inside = sum((_uses(tree) for stem, tree in TREES.items() if stem != "__init__"), Counter())
    unread = []
    for dotted, (node, is_method) in sorted(_public_names().items()):
        name = dotted.rsplit(".", 1)[1]
        ways = ["." + name] if is_method else ["." + name, "=" + name, "'" + name]
        own = _uses(node)  # a use inside the definition itself reads nothing
        if not any(outside[w] or inside[w] > own[w] for w in ways):
            unread.append(dotted)
    assert [d for d in unread if d not in PAPER_OBJECTS] == []
    assert [d for d in unread if d in PAPER_OBJECTS] == sorted(PAPER_OBJECTS)  # none is stale


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


SOURCE_LINES = 2568  # lower it when lines go; never raise it to let lines in


def test_the_package_stays_within_its_line_ratchet():
    assert sum(path.read_text().count("\n") for path in SOURCES) <= SOURCE_LINES
