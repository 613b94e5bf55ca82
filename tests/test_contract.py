"""The CLI contract on valid input, first slice (ROADMAP item 19).

Every leaf subcommand, run through ``cli.main`` in-process at its default
arguments on exact element and carrier files, exits 0 or 3, or exits 2
with a domain error that README's exit-code paragraph lists (an aperiodic
``bundle`` input, a ``bundle`` head denominator above 2048), and takes
less than 2 s of ``time.process_time()``.  The files range over scales
from 2 to products of two primes past 10**17, head and carrier
denominators up to 10**18, periodic and aperiodic elements, and K0
points p / N**k with k <= 64.  Prefix carriers (item 18) and
``iso --bound`` above 32 (item 2) are outside this slice.
"""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ncsolenoid.cli import main

#: Products of two primes past 10**17.
SEMIPRIMES = (
    (10**9 + 7) * (10**9 + 9),
    433494437 * 2971215073,
    999999937 * 998244353,
)
BUDGET_S = 2.0
#: The exit-2 messages README's exit-code paragraph lists for valid files, per subcommand.
DOMAIN_ERRORS = {
    "bundle": ("bundle data is defined for periodic sequences only", "bundle data needs q <= 2048"),
}

scales = st.one_of(st.integers(min_value=2, max_value=30), st.sampled_from(SEMIPRIMES))
denominators = st.one_of(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=10**18))
numerators = st.integers(min_value=-10**18, max_value=10**18)


def _prime_to(d, N):
    while gcd(d, N) > 1:
        d //= gcd(d, N)
    return d


@st.composite
def values(draw, N):
    """A rational b/d with d prime to N."""
    return Fraction(draw(numerators), _prime_to(draw(denominators), N))


@st.composite
def elements(draw, N=None):
    """An exact element {N, alpha0, carrier}: periodic (carrier -alpha0) or drawn apart."""
    N = draw(scales) if N is None else N
    periodic = draw(st.booleans())
    c = draw(denominators)
    c = _prime_to(c, N) if periodic else c
    head = Fraction(draw(st.integers(min_value=0, max_value=c - 1)), c)
    w = -head if periodic else draw(values(N))
    return {"N": N, "alpha0": str(head), "carrier": {"value": str(w)}}


@st.composite
def relatives(draw, el):
    """An element at el's scale over el's head and carrier denominators, periodic when el is."""
    head, w = Fraction(el["alpha0"]), Fraction(el["carrier"]["value"])
    head = Fraction(draw(st.integers(min_value=0, max_value=head.denominator - 1)), head.denominator)
    w = -head if w == -Fraction(el["alpha0"]) else Fraction(draw(numerators), w.denominator)
    return {"N": el["N"], "alpha0": str(head), "carrier": {"value": str(w)}}


@st.composite
def points(draw, N):
    """A point p / N**k of Q_N with k <= 64, as a fraction string."""
    return str(Fraction(draw(numerators), N ** draw(st.integers(min_value=0, max_value=64))))


def _z(draw):
    return str(draw(numerators))


@st.composite
def calls(draw, command):
    """(argv, files) of one call of command on valid exact files."""
    el = draw(elements())
    N = el["N"]
    files = {"el": el}
    if command in ("info", "simple", "symmetrizer", "bundle"):
        return [command, "el"], files
    # "--x=-1/2"; a spaced "--x -1/2" reads the same (the last row below)
    if command == "k0 trace":
        return ["k0", "trace", "--z=" + _z(draw), "--x=" + draw(points(N)), "el"], files
    if command == "k0 member":
        first = str(Fraction(draw(numerators), draw(denominators)))
        return ["k0", "member", "--first=" + first, "--second=" + draw(points(N)), "el"], files
    if command == "k0 add":
        return ["k0", "add", "--az=" + _z(draw), "--ax=" + draw(points(N)),
                "--bz=" + _z(draw), "--bx=" + draw(points(N)), "el"], files
    if command == "cohomologous":
        files["r"] = {"N": N, "value": str(draw(values(N)))}
        return ["cohomologous", "el", "r"], files
    # iso: the same file, a pair that passes the invariants, one scale or two
    files["other"] = draw(st.one_of(st.just(el), relatives(el), elements(N), elements()))
    return ["iso", "el", "other"], files


def _run(tmp, argv, files):
    """(exit code, stderr, CPU seconds) of cli.main on argv, file keys replaced by paths."""
    paths = {}
    for key, obj in files.items():
        path = tmp / ("%s.json" % key)
        path.write_text(json.dumps(obj))
        paths[key] = str(path)
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([paths.get(a, a) for a in argv])
    return code, err.getvalue(), time.process_time() - start


def _breach(command, code, err, cpu):
    """None if the call kept the contract, else what it broke."""
    if cpu >= BUDGET_S:
        return "took %.2f CPU s" % cpu
    if code in (0, 3):
        return None
    if code == 2 and any(m in err for m in DOMAIN_ERRORS.get(command, ())):
        return None
    return "exit %d: %s" % (code, err.strip())


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


COMMANDS = ("info", "simple", "symmetrizer", "k0 trace", "k0 member", "k0 add",
            "cohomologous", "iso", "bundle")


@pytest.mark.parametrize("command", COMMANDS)
@given(st.data())
def test_every_leaf_keeps_the_contract_on_valid_exact_files(tmp, command, data):
    argv, files = data.draw(calls(command))
    code, err, cpu = _run(tmp, argv, files)
    assert _breach(command, code, err, cpu) is None, (argv, files)


def test_selftest_keeps_the_contract_at_its_defaults(tmp):
    code, err, cpu = _run(tmp, ["selftest"], {})
    assert _breach("selftest", code, err, cpu) is None


def test_a_negative_fraction_after_its_flag_reads_as_its_value(tmp, capsys):
    """Once a breach of ROADMAP item 19: argparse took "-1/3" for an option, so
    ``--x -1/3`` exited 2 with a usage error where ``--x=-1/3`` answered."""
    path = tmp / "half3.json"
    path.write_text(json.dumps({"N": 3, "alpha0": "1/2", "carrier": {"value": "-1/2"}}))
    got = []
    for x in (["--x", "-1/3"], ["--x=-1/3"]):
        code = main(["k0", "trace", "--z", "1"] + x + [str(path)])
        got.append((code, capsys.readouterr().out))
    assert got[0] == got[1] == (0, '{"trace": "1/2"}\n')
