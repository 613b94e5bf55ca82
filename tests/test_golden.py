"""Replay the golden CLI corpus: exact stdout bytes and exit code per case.

Each case in ``golden/cases.json`` gives an argv (element files relative
to ``golden/``) and its exit code; its stdout is ``golden/expected/
<name>.out``.  After an intended change of output, rewrite both with

    PYTHONPATH=src python3 tests/test_golden.py --regenerate
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

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


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    for case in CASES:
        case["exit"], out = replay(case)
        (GOLDEN / "expected" / (case["name"] + ".out")).write_bytes(out)
    lines = ",\n".join(" " + json.dumps(case) for case in CASES)
    (GOLDEN / "cases.json").write_text("[\n" + lines + "\n]\n")
