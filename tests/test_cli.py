import argparse
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncsolenoid.classify import AngleMatrix, isomorphic, replay_witness
from ncsolenoid import cli
from ncsolenoid.cli import main
from ncsolenoid.codec import sequence_from_file


@pytest.fixture
def n5_file(tmp_path):
    path = tmp_path / "n5.json"
    path.write_text('{"N": 5, "alpha0": "1/62", "carrier": {"value": "-1/62"}}')
    return str(path)


@pytest.fixture
def half_file(tmp_path):
    path = tmp_path / "half.json"
    path.write_text('{"N": 3, "alpha0": "1/2", "carrier": {"value": "-1/2"}}')
    return str(path)


@pytest.fixture
def thirds2_file(tmp_path):
    path = tmp_path / "t2.json"
    path.write_text('{"N": 2, "alpha0": "1/3", "carrier": {"value": "-1/3"}}')
    return str(path)


@pytest.fixture
def thirds4_file(tmp_path):
    path = tmp_path / "t4.json"
    path.write_text('{"N": 4, "alpha0": "1/3", "carrier": {"value": "-1/3"}}')
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_info(capsys, n5_file):
    code, out = run(capsys, ["info", n5_file])
    assert code == 0
    assert out["type"] == "RationalPeriodic"
    assert out["values"][:3] == ["1/62", "25/62", "5/62"]


def test_simple_and_symmetrizer(capsys, n5_file):
    code, out = run(capsys, ["simple", n5_file])
    assert (code, out) == (0, {"simple": False})
    code, out = run(capsys, ["symmetrizer", n5_file])
    assert (code, out) == (0, {"variant": "ScaledLattice", "b": 62})


def test_k0_trace(capsys, half_file):
    code, out = run(capsys, ["k0", "trace", "--z", "1", "--x", "1/3", half_file])
    assert (code, out) == (0, {"trace": "3/2"})


def test_k0_member(capsys, half_file):
    code, out = run(capsys, ["k0", "member", "--first", "1/3", "--second", "1/3", half_file])
    assert (code, out) == (0, {"member": True})
    code, out = run(capsys, ["k0", "member", "--first", "1/2", "--second", "1/3", half_file])
    assert (code, out) == (0, {"member": False})


def test_k0_add(capsys, half_file):
    code, out = run(
        capsys,
        ["k0", "add", "--az", "0", "--ax", "1/3", "--bz", "0", "--bx", "2/3", half_file],
    )
    assert code == 0
    assert out == {"z": "1", "x": {"num": "1", "exp": 0}}


def test_cohomologous(capsys, half_file):
    code, out = run(capsys, ["cohomologous", half_file, half_file])
    assert code == 0
    assert out["cohomologous"] is True
    assert out["witness"]["psi"]["0"] == "0"


def test_iso_yes(capsys, thirds2_file, thirds4_file):
    code, out = run(capsys, ["iso", thirds2_file, thirds4_file, "--bound", "8"])
    assert code == 0
    assert out["verdict"] == "Yes"
    assert out["witness"]["R"] == 2


def test_iso_unknown_exit_code(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text('{"N": 3, "alpha0": "1/2", "carrier": {"value": "0"}}')
    b = tmp_path / "b.json"
    b.write_text('{"N": 3, "alpha0": "1/2", "carrier": {"value": "2"}}')
    code, out = run(capsys, ["iso", str(a), str(b), "--bound", "4"])
    assert code == 3
    assert out["verdict"] == "Unknown"


BIG = 10 ** 30 + 57  # past the Miller-Rabin proof bound, so factoring it raises
SEMI = (10 ** 17 + 3) * (1001 * 10 ** 14 + 9)  # 35 digits; rho finds no factor within its budget


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"N": 2, "alpha0": "1/%d", "carrier": {"value": "-1/%d"}}' % (BIG, BIG),
                     id="periodic-head-denominator"),
        pytest.param('{"N": %d, "alpha0": "1/2", "carrier": {"value": "0"}}' % BIG,
                     id="aperiodic-scale"),
    ],
)
def test_iso_of_a_file_with_itself_answers_yes_before_factoring(capsys, tmp_path, text):
    # both files once exited 2 with "cannot prove ... prime"
    path = tmp_path / "a.json"
    path.write_text(text)
    start = time.process_time()
    code, out = run(capsys, ["iso", str(path), str(path)])
    assert time.process_time() - start < 0.05
    raw = json.loads(text)
    assert (code, out) == (0, {"verdict": "Yes", "witness": {
        "R": raw["N"], "mu": 1, "nu": 1, "direction": "forward", "shift": 0, "block": 1, "sign": 1,
        "matched": {"alpha0": raw["alpha0"], "carrier": raw["carrier"]["value"]},
    }})
    a, b = sequence_from_file(str(path)), sequence_from_file(str(path))
    verdict = isomorphic(a, b)
    assert verdict.witness == out["witness"] and replay_witness(a, b, verdict)


def _element(n, head, carrier):
    return '{"N": %d, "alpha0": "%s", "carrier": {"value": "%s"}}' % (n, head, carrier)


def test_iso_at_a_scale_rho_cannot_split_exits_3(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, carrier in zip(paths, ("1/3", "2/3")):
        path.write_text(_element(SEMI, "1/2", carrier))
    start = time.process_time()
    got = run(capsys, ["iso"] + [str(path) for path in paths])
    assert time.process_time() - start < 2
    assert got == (3, {"verdict": "Unknown", "bound": 32})


# the head alpha_3 = (1/2 + J_3) / BIG**3 of the head-1/2, carrier-1/3 sequence shifted by 3;
# its carrier is (1/3 - J_3) / BIG**3 = -2/3
THIRDS_3 = "%d/%d" % ((Fraction(1, 2) + pow(3, -1, BIG ** 3)) / BIG ** 3).as_integer_ratio()


@pytest.mark.parametrize(
    "texts, code, want",
    [
        pytest.param(
            (_element(2 * BIG, "1/2", "0"), _element(3 * BIG, "1/2", "0")),
            0,
            {"verdict": "No", "reason": "prime supports differ (%d vs %d)" % (2 * BIG, 3 * BIG)},
            id="support",
        ),
        pytest.param(
            (_element(BIG, "1/2", "1/3"), _element(BIG, "1/2", "1/7")),
            0,
            {"verdict": "No", "reason": "carrier denominators differ (3 vs 7)"},
            id="carrier",
        ),
        pytest.param(
            (_element(2, "1/%d" % BIG, "-1/%d" % BIG), _element(2, "3/%d" % BIG, "-3/%d" % BIG)),
            3,
            {"verdict": "Unknown", "bound": 32},
            id="period",
        ),
        pytest.param(
            (_element(BIG, "1/2", "1/3"), _element(BIG, "1/2", "2/3")),
            3,
            {"verdict": "Unknown", "bound": 32},
            id="scale-search",
        ),
        pytest.param(
            (_element(2 * BIG, "1/2", "1/3"), _element(2 * BIG, "1/2", "2/3")),
            3,
            {"verdict": "Unknown", "bound": 32},
            id="composite-scale-search",
        ),
        pytest.param(
            (_element(BIG, THIRDS_3, "-2/3"), _element(BIG, "1/2", "1/3")),
            0,
            {"verdict": "Yes", "witness": {
                "R": BIG, "mu": 1, "nu": 1, "direction": "forward", "shift": 3, "block": 1,
                "sign": 1, "matched": {"alpha0": THIRDS_3, "carrier": "-2/3"},
            }},
            id="scale-shift",
        ),
        pytest.param(
            (_element(SEMI, "1/2", "1/3"), _element(SEMI ** 2, "1/2", "1/3")),
            0,
            {"verdict": "Yes", "witness": {
                "R": SEMI, "mu": 1, "nu": SEMI, "direction": "forward", "shift": 0, "block": 1,
                "sign": 1, "matched": {"alpha0": "1/2", "carrier": "1/3"},
            }},
            id="cross-scale-equal",
        ),
    ],
)
def test_iso_answers_at_an_unprovable_scale_or_period_without_factoring_it(
    capsys, tmp_path, texts, code, want
):
    # each exited 2 with "cannot prove ... prime": the first three while R and the period were
    # factored before the invariants, the next three from factoring R for the search's blocks;
    # the last factored its R = SEMI for the blocks, past any deadline, before the zero move
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, text in zip(paths, texts):
        path.write_text(text)
    start = time.process_time()
    got = run(capsys, ["iso"] + [str(path) for path in paths])
    assert time.process_time() - start < 0.05
    assert got == (code, want)


def test_bundle_past_the_size_limit_exits_2_naming_q(capsys, tmp_path, refuse_the_order):
    # it once died with a MemoryError traceback and exit 1, the code of a failed selftest
    q = 2**61 - 1
    path = tmp_path / "big.json"
    path.write_text(_element(2, "1/%d" % q, "-1/%d" % q))
    start = time.process_time()
    code = main(["bundle", str(path)])
    assert time.process_time() - start < 0.05
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: bundle data needs q <= 2048; this sequence has q = %d\n" % q


def test_bundle(capsys, thirds2_file):
    code, out = run(capsys, ["bundle", thirds2_file])
    assert code == 0
    assert (out["q"], out["k"], out["lambda"]) == (3, 2, "1/3")


def test_missing_file_is_a_domain_error(capsys, tmp_path):
    code, _ = run(capsys, ["info", str(tmp_path / "nope.json")])
    assert code == 2


def test_a_scale_that_is_not_an_integer_is_a_domain_error(capsys, tmp_path, half_file):
    element = tmp_path / "element.json"
    element.write_text('{"N": "3", "alpha0": "1/2", "carrier": {"value": "-1/2"}}')
    carrier = tmp_path / "carrier.json"
    carrier.write_text('{"N": true, "value": "1"}')
    assert main(["info", str(element)]) == 2
    assert "scale must be an integer" in capsys.readouterr().err
    assert main(["cohomologous", str(carrier), half_file]) == 2
    assert "scale must be an integer" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden" / "elements"
HALF3_CARRIER, IOTA0_3 = str(GOLDEN / "half3_carrier.json"), str(GOLDEN / "iota0_3.json")


@pytest.mark.parametrize(
    "command, text, message",
    [
        pytest.param(["info"], None, None, id="carrier-file-info"),
        pytest.param(["simple"], None, None, id="carrier-file-simple"),
        pytest.param(["iso", IOTA0_3], None, None, id="carrier-file-iso"),
        pytest.param(["info"], '{"N": 3, "carrier": {"value": "-1/2"}}', None,
                     id="missing-alpha0"),
        pytest.param(["simple"], '{"N": 3, "alpha0": "1/2", "carier": {"value": "-1/2"}}', None,
                     id="misspelled-carrier"),
        pytest.param(["info"], '{"N": 3, "alpha0": "1/2", "carrier": {"value": "0"}, "x": 1}',
                     None, id="extra-key"),
        pytest.param(["info"], '{"N": 3, "alpha0": "0", "carrier": {"prefix": [1], "value": "0"}}',
                     None, id="value-and-prefix"),
        pytest.param(["info"], '{"N": 3, "alpha0": "0", "carrier": {"prefix": 5}}', None,
                     id="prefix-int"),
        pytest.param(["info"], '{"N": 3, "alpha0": "0", "carrier": {"prefix": true}}', None,
                     id="prefix-bool"),
        pytest.param(["cohomologous", IOTA0_3], '{"N": 3, "value": "0", "prefix": [1]}', None,
                     id="carrier-file-value-and-prefix"),
        pytest.param(["cohomologous", IOTA0_3], '{"N": 3, "value": "0", "x": 1}', None,
                     id="carrier-file-extra-key"),
        pytest.param(["cohomologous", IOTA0_3], '{"value": "0"}',
                     "carrier files need an N field", id="carrier-file-without-N"),
    ],
)
def test_a_file_of_another_shape_exits_2_with_empty_stdout(
    capsys, tmp_path, command, text, message
):
    # message, where a row gives one, pins the whole error line
    path = HALF3_CARRIER
    if text is not None:
        path = str(tmp_path / "element.json")
        Path(path).write_text(text)
    assert main(command[:1] + [path] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message is None or captured.err == "error: %s: %s\n" % (path, message)


def test_float_literals_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"N": 3, "alpha0": 0.5, "carrier": {"value": "0"}}')
    code, _ = run(capsys, ["info", str(path)])
    assert code == 2


def test_deeply_nested_json_is_a_domain_error(capsys, tmp_path):
    # exit 1 is reserved for a failing selftest oracle
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["info", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_selftest_small(capsys):
    code = main(["selftest", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0
    out = json.loads(captured.out)
    assert out["passed"] is True
    assert "selftest" in captured.err


def test_selftest_checks_the_bundle_as_printed(capsys, monkeypatch):
    printed = AngleMatrix.to_json

    def misprint(m):  # u's phase 1/3 in row 1 prints as 2/3; v and every field stay right
        rows = printed(m)
        if rows[1][1] == "1/3":
            rows[1][1] = "2/3"
        return rows

    monkeypatch.setattr(AngleMatrix, "to_json", misprint)
    assert main(["selftest", "--seed=7"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["kind"] for r in reports if not r["passed"]] == ["bundle"]


def test_selftest_reports_a_printed_cell_it_cannot_parse(capsys, monkeypatch):
    printed = AngleMatrix.to_json

    def misprint(m):  # u's phase 1/3 in row 1 prints as "1/x", no rational literal
        rows = printed(m)
        if rows[1][1] == "1/3":
            rows[1][1] = "1/x"
        return rows

    monkeypatch.setattr(AngleMatrix, "to_json", misprint)
    assert main(["selftest", "--seed=7"]) == 1
    captured = capsys.readouterr()
    reports = json.loads(captured.out)["reports"]
    assert [r["kind"] for r in reports if not r["passed"]] == ["bundle"]
    assert captured.err.endswith("selftest bundle: FAIL\n")


# the 28 selftest seeds of the benchmark's cli-session plan, then 1, 2, 3, 7 and the default seed
SELFTEST_PIN_SEEDS = (
    454465, 994632, 251731, 180447, 16922, 573988, 39883, 750385, 511751, 213973,
    350768, 908836, 119874, 863435, 70320, 666370, 993933, 725290, 512239, 608946,
    751392, 923594, 802286, 172601, 279995, 379386, 458262, 393613,
    1, 2, 3, 7, 20260817,
)


#: The bundle row's report and stderr line, the last row of every selftest.
BUNDLE_ROW = (', {"kind": "bundle", "passed": true}]}', "selftest bundle: ok\n")


def test_selftest_output_is_pinned_at_33_seeds(capsys):
    # one digest over stdout, stderr and exit code: a faster draw or formula path
    # must draw the same points and report the same checks at every seed; without
    # the bundle row, the output is the one pinned before that row was added
    digest, without = hashlib.sha256(), hashlib.sha256()
    for seed in SELFTEST_PIN_SEEDS:
        code = main(["selftest", "--seed", str(seed)])
        captured = capsys.readouterr()
        out, err = captured.out, captured.err
        assert out.endswith(BUNDLE_ROW[0] + "\n") and err.endswith(BUNDLE_ROW[1])
        stripped = out.replace(BUNDLE_ROW[0], "]}"), err[: -len(BUNDLE_ROW[1])]
        for d, (o, e) in ((digest, (out, err)), (without, stripped)):
            d.update(b"%d\0%d\0" % (seed, code))
            d.update(o.encode() + b"\0" + e.encode() + b"\0")
    assert without.hexdigest() == "1d2c1f051f7bd2c474f57f324804b54df314de7598d2fc9bc60a0b5d91052f62"
    assert digest.hexdigest() == "e1ab8ff5331ec27e22e88151ff0f01f2f0068aaabdba1c3d0a6ef3df42669117"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param('{"N": 3, "alpha0": "0", "carrier": {"prefix": 5}}',
                     "a prefix must be a list of digits", id="prefix-int"),
        pytest.param('{"N": 3, "alpha0": "0", "carrier": {"prefix": [1, 3]}}',
                     "digits must lie below 3", id="digit-at-scale"),
        pytest.param('{"N": 3, "alpha0": "0", "carrier": {"prefix": [1, -1]}}',
                     "digit must be at least 0", id="negative-digit"),
        pytest.param('{"N": 3, "alpha0": "1/x", "carrier": {"value": "0"}}',
                     "not a rational literal", id="bad-head"),
        pytest.param('{"N": 3, "alpha0": "0", "carrier": {"value": "1/0"}}',
                     "not a rational literal", id="bad-carrier-value"),
        pytest.param('{"N": 3, "alpha0": "3/2", "carrier": {"value": "0"}}',
                     "head angle must lie in [0, 1)", id="head-out-of-range"),
        pytest.param('{"N": 6, "alpha0": "0", "carrier": {"value": "1/4"}}',
                     "denominator 4 shares a factor with scale 6", id="carrier-denominator"),
        pytest.param('{"N": 1, "alpha0": "0", "carrier": {"value": "0"}}',
                     "scale must be at least 2", id="scale-one"),
        pytest.param('{"N": "3", "alpha0": "0", "carrier": {"value": "0"}}',
                     "scale must be an integer", id="scale-string"),
        pytest.param('{"N": 3,', "Expecting property name enclosed in double quotes: line 1 "
                     "column 9 (char 8)", id="malformed-json"),
    ],
)
def test_a_bad_value_exits_2_naming_the_file(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = str(GOLDEN / "half3.json")
    for argv in (["info", str(bad)], ["iso", good, str(bad)], ["cohomologous", str(bad), good]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s: " % bad)
        assert message in captured.err


def test_a_bad_value_in_a_carrier_file_names_the_file(capsys, tmp_path):
    bad = tmp_path / "carrier.json"
    bad.write_text('{"N": 3, "prefix": [0, 7]}')
    assert main(["cohomologous", IOTA0_3, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: digits must lie below 3\n" % bad


TOP_USAGE = (
    "usage: ncsolenoid [-h]\n"
    "                  {info,simple,symmetrizer,k0,cohomologous,iso,bundle,selftest}\n"
    "                  ...\n"
)
TOP_HELP = TOP_USAGE + """
Exact invariants of twisted solenoid algebras over Q_N.

positional arguments:
  {info,simple,symmetrizer,k0,cohomologous,iso,bundle,selftest}
    info                describe an element file
    simple              simplicity of the twisted algebra
    symmetrizer         symmetrizer subgroup description
    k0                  K0 queries
    cohomologous        compare two carrier cocycles
    iso                 isomorphism classification
    bundle              bundle data of a periodic element
    selftest            run the oracle suite at reduced sizes

options:
  -h, --help            show this help message and exit
"""
K0_USAGE = "usage: ncsolenoid k0 [-h] {trace,member,add} ...\n"
K0_TRACE_HELP = """usage: ncsolenoid k0 trace [-h] --z Z --x X file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
  --z Z
  --x X       Q_N element as a fraction, e.g. 2/9
"""
INFO_HELP = """usage: ncsolenoid info [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
"""
REQUIRED = "ncsolenoid: error: the following arguments are required: command\n"
UNRECOGNIZED = "ncsolenoid: error: unrecognized arguments: extra\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        pytest.param([], 2, "", TOP_USAGE + REQUIRED, id="empty"),
        pytest.param(["-h"], 0, TOP_HELP, "", id="help"),
        pytest.param(["nope"], 2, "", TOP_USAGE + "ncsolenoid: error: argument command: invalid "
                     "choice: 'nope' (choose from 'info', 'simple', 'symmetrizer', 'k0', "
                     "'cohomologous', 'iso', 'bundle', 'selftest')\n", id="unknown-command"),
        pytest.param(["--version"], 2, "", TOP_USAGE + REQUIRED, id="version"),
        pytest.param(["k0"], 2, "", K0_USAGE + "ncsolenoid k0: error: the following arguments "
                     "are required: k0_command\n", id="k0-alone"),
        pytest.param(["k0", "nope"], 2, "", K0_USAGE + "ncsolenoid k0: error: argument "
                     "k0_command: invalid choice: 'nope' (choose from 'trace', 'member', 'add')\n",
                     id="k0-unknown"),
        pytest.param(["k0", "trace", "-h"], 0, K0_TRACE_HELP, "", id="k0-trace-help"),
        pytest.param(["info", "-h"], 0, INFO_HELP, "", id="info-help"),
        pytest.param(["info", "FILE", "extra"], 2, "", TOP_USAGE + UNRECOGNIZED, id="info-extra"),
        pytest.param(["k0", "trace", "--z", "1", "--x", "1/3", "FILE", "extra"], 2, "",
                     TOP_USAGE + UNRECOGNIZED, id="k0-trace-extra"),
        pytest.param(["iso", "A", "B", "--bound", "x"], 2, "",
                     "usage: ncsolenoid iso [-h] [--bound BOUND] file_a file_b\n"
                     "ncsolenoid iso: error: argument --bound: invalid int value: 'x'\n",
                     id="iso-bound"),
        pytest.param(["selftest", "--seed", "x"], 2, "",
                     "usage: ncsolenoid selftest [-h] [--seed SEED]\n"
                     "ncsolenoid selftest: error: argument --seed: invalid int value: 'x'\n",
                     id="selftest-seed"),
    ],
)
def test_usage_help_and_error_text(capsys, monkeypatch, argv, code, out, err):
    # the golden corpus pins stdout and exit codes; this pins argparse's own text
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["info", "FILE"], id="info"),
        pytest.param(["k0", "trace", "--z", "1", "--x", "1/3", "FILE"], id="k0-trace"),
    ],
)
def test_a_call_builds_only_the_parsers_of_its_subcommand(monkeypatch, capsys, argv):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    counts = []
    for _ in range(2):
        built.clear()
        assert main(argv) == 2  # FILE does not exist
        counts.append(len(built))
    assert counts == [1, 1]  # the same on a second call: nothing is cached
    assert "FILE" in capsys.readouterr().err


# element files of the golden corpus, read from its directory
HALF3, THIRDS2, TRACE = "half3.json", "thirds2.json", ["k0", "trace", "--z", "1", "--x", "1/3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["info", HALF3],
        ["simple", HALF3],
        ["symmetrizer", HALF3],
        TRACE + [HALF3],
        ["k0", "member", "--first", "1/3", "--second", "1/3", HALF3],
        ["k0", "add", "--az", "0", "--ax", "1/3", "--bz", "0", "--bx", "2/3", HALF3],
        ["cohomologous", "half3_carrier.json", "iota0_3.json"],
        ["iso", THIRDS2, "thirds4.json", "--bound", "8"],
        ["bundle", THIRDS2],
        ["selftest", "--seed", "7"],
        ["info", HALF3, "extra"],
        TRACE + [HALF3, "extra"],
        ["symmetrizer", "--bogus", HALF3],
        ["k0", "add", "--bogus", "1", "--az", "0", "--ax", "0", "--bz", "0", "--bx", "0", HALF3],
        ["iso", THIRDS2, THIRDS2, "--bound", "x"],
        ["k0", "trace", "--z", "one", "--x", "1/3", HALF3],
        ["info"],
        ["k0", "member", "--first", "1/3", HALF3],
        ["cohomologous", "half3_carrier.json"],
        ["selftest", "--se", "7"],
        ["iso", THIRDS2, THIRDS2, "--bo", "4"],
        ["info", "--", HALF3],
        TRACE + ["--", HALF3],
        ["-h"],
        ["info", "-h"],
        ["k0", "-h"],
        ["k0", "add", "-h"],
        ["selftest", "--help"],
        ["k0"],
        ["k0", "k0"],
        ["info", "k0"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_one_parser_answers_as_the_full_table_does(capsys, monkeypatch, argv):
    # the full build is the reference: exit code, stdout and stderr are the same byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(GOLDEN)
    got = []
    for decline in (False, True):
        if decline:
            monkeypatch.setattr(cli, "_leaf_parser", lambda argv: None)
        code = main(argv)
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    assert got[0] == got[1]
