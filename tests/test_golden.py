"""Replay the golden CLI corpus: exact stdout bytes and exit code per case.

Each case in ``golden/cases.json`` gives an argv (element files relative
to ``golden/``) and its exit code; its stdout is ``golden/expected/
<name>.out``.  A slice of the cases also runs through ``python -m
ncsolenoid`` in a fresh process.  After an intended change of output,
rewrite both with

    PYTHONPATH=src python3 tests/test_golden.py --regenerate
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncsolenoid
from ncsolenoid.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def replay(case):
    """Run one case through cli.main; return (exit code, stdout bytes)."""
    argv = [str(GOLDEN / a) if a.startswith("elements/") else a for a in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_golden_case(case):
    code, out = replay(case)
    assert out == (GOLDEN / "expected" / (case["name"] + ".out")).read_bytes()
    assert code == case["exit"]


#: one case per subcommand, with a spaced negative value (k0_add_n5), an exit 3 and an exit 2
ENTRY_POINT_CASES = (
    "info_periodic_n5", "simple_periodic", "symmetrizer_periodic_n5", "k0_trace_half",
    "k0_member_yes", "k0_add_n5", "cohomologous_yes_integers", "iso_yes_cross_scale",
    "iso_unknown", "bundle_periodic", "usage_error", "selftest_seed_7",
)


@pytest.mark.parametrize("name", ENTRY_POINT_CASES)
def test_the_entry_point_prints_the_golden_bytes(name):
    # python -m ncsolenoid in a fresh process, as a user runs it
    case = next(case for case in CASES if case["name"] == name)
    src = str(Path(ncsolenoid.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "ncsolenoid", *case["argv"]], cwd=GOLDEN, capture_output=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert done.stdout == (GOLDEN / "expected" / (name + ".out")).read_bytes()
    assert done.returncode == case["exit"]


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    for case in CASES:
        case["exit"], out = replay(case)
        (GOLDEN / "expected" / (case["name"] + ".out")).write_bytes(out)
    lines = ",\n".join(" " + json.dumps(case) for case in CASES)
    (GOLDEN / "cases.json").write_text("[\n" + lines + "\n]\n")
