"""Tests of the benchmark itself: corpus determinism, answer checks, metric names.

    python3 -m pytest -q bench
"""

import collections
import filecmp
import json
import os
import re
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import truth  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def write(workload, seed, directory):
    plan.build(workload, seed).write(str(directory))
    return sorted(os.listdir(directory))


def mix(directory):
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        queries = json.load(fh)["queries"]
    return collections.Counter((q["kind"], q["cls"], json.dumps(q["sweep"])) for q in queries)


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_seed_fixes_the_corpus_and_only_the_numbers_change(workload, tmp_path):
    a, b, other = tmp_path / "a", tmp_path / "b", tmp_path / "other"
    names = write(workload, 7, a)
    assert write(workload, 7, b) == names
    _match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    write(workload, 8, other)
    assert (a / "manifest.json").read_bytes() != (other / "manifest.json").read_bytes()
    assert mix(a) == mix(other)


def test_every_sweep_point_is_in_some_corpus():
    points = set()
    for workload in plan.WORKLOADS:
        for q in plan.build(workload, 1).queries:
            if q["sweep"]:
                family, label, _x = q["sweep"]
                points.update((family, "%s.%s" % (family, label)))
    for name in run.metric_units("per_layer"):
        if name.endswith(".growth"):
            assert name[: -len(".growth")] in points, name
        elif name.endswith(".ms"):
            assert name[: -len(".ms")] in points, name


@pytest.fixture
def periodic(tmp_path):
    plan.build("periodic-invariants", 3).write(str(tmp_path))
    w = worker.Worker(str(tmp_path))
    w.parse_corpus()
    return w


def first(w, kind):
    return next(i for i, q in enumerate(w.queries) if q["kind"] == kind)


def test_answers_at_the_seed_pass_their_checks(periodic):
    for kind in ("trace", "bundle_data", "period", "symmetrizer"):
        i = first(periodic, kind)
        assert periodic.run_query(i, periodic.queries[i], False)[3] == "ok"


def test_cli_answers_at_the_seed_pass_their_checks(tmp_path, monkeypatch):
    plan.build("cli-session", 3).write(str(tmp_path))
    w = worker.Worker(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    cmds = {}
    for i, q in enumerate(w.queries):
        cmds.setdefault(q["args"]["cmd"], i)
    assert len(cmds) == 10
    for i in cmds.values():
        assert w.run_query(i, w.queries[i], False)[3] in ("ok", "unknown"), w.queries[i]["args"]["argv"]


def test_an_off_by_one_trace_is_counted_failed(periodic, monkeypatch):
    import ncsolenoid

    real = ncsolenoid.trace
    monkeypatch.setattr(ncsolenoid, "trace", lambda elem: real(elem) + 1)
    i = first(periodic, "trace")
    sample = periodic.run_query(i, periodic.queries[i], False)
    assert sample[3] == "refuted"
    counts = run.accounting([sample])[0]
    assert counts["refuted"] == 1


def test_a_flipped_iso_verdict_is_counted_failed(tmp_path, monkeypatch):
    import ncsolenoid
    from ncsolenoid.classify import IsoVerdict

    plan.build("iso-search", 3).write(str(tmp_path))
    w = worker.Worker(str(tmp_path))
    w.parse_corpus()
    i = next(i for i, q in enumerate(w.queries) if q["cls"] == "shift-yes")
    assert w.run_query(i, w.queries[i], False)[3] == "ok"
    monkeypatch.setattr(ncsolenoid, "isomorphic", lambda a, b, bound: IsoVerdict.no("flipped"))
    assert w.run_query(i, w.queries[i], False)[3] == "refuted"


def test_a_no_on_an_unrelated_pair_is_not_counted_answered(tmp_path, monkeypatch):
    import ncsolenoid
    from ncsolenoid.classify import IsoVerdict

    plan.build("iso-search", 3).write(str(tmp_path))
    w = worker.Worker(str(tmp_path))
    w.parse_corpus()
    i = next(i for i, q in enumerate(w.queries) if q["cls"] == "unrelated")
    monkeypatch.setattr(ncsolenoid, "isomorphic", lambda a, b, bound: IsoVerdict.no("gave up"))
    sample = w.run_query(i, w.queries[i], False)
    assert sample[3] == "unverified"
    counts, _unknown, unverified, _decisions, _decided = run.accounting([sample])
    assert unverified == 1 and not any(counts.values())
    result = {"samples": [sample], "setup": [1.0], "peak_rss_kb": 1024, "reference_ms": [run.REFERENCE_MS]}
    assert run.end_to_end(result)["answered_ratio"] == 0


def test_query_times_are_scaled_by_the_reference_loop():
    samples = [[0, "trace", 2_000_000, "ok", None, False], [0, "trace", 1_000_000, "ok", None, False]]
    result = {"samples": samples, "setup": [1.0], "peak_rss_kb": 1024, "reference_ms": [run.REFERENCE_MS * 2, 99.0]}
    got = run.end_to_end(result)
    assert got["query_p50_ms"] == 0.5 and got["queries_per_s"] == 2000


def test_a_witness_that_does_not_replay_is_refuted():
    a = (2, Fraction(2, 7), Fraction(3, 11))
    b = truth.shifted(a, 3)
    good = {"R": 2, "mu": 1, "nu": 1, "direction": "forward", "shift": 3, "block": 1, "sign": 1,
            "matched": {"alpha0": truth.wire(b[1]), "carrier": truth.wire(b[2])}}
    assert truth.witness_holds(b, a, good)
    assert not truth.witness_holds(b, a, dict(good, shift=2))
    exp = {"truth": "yes", "a": [b[0], truth.wire(b[1]), truth.wire(b[2])], "b": [a[0], truth.wire(a[1]), truth.wire(a[2])]}
    with pytest.raises(checks.Refuted):
        checks.check({"kind": "isomorphic", "args": {}, "expect": exp}, {"verdict": "Yes", "witness": dict(good, sign=-1)}, {})
    assert checks.check({"kind": "isomorphic", "args": {}, "expect": exp}, {"verdict": "Unknown"}, {}) == "unknown"


def test_unit_pairs_are_certified_by_theta():
    c = plan.Corpus("iso-search", 1)
    a = c.sequence(12, Fraction(1, 13), Fraction(-1, 13))
    b = c.sequence(12, Fraction(8, 13), Fraction(-8, 13))
    plan.certify_unit_pair(c, a, b, 8)
    with pytest.raises(SystemExit):
        plan.certify_unit_pair(c, a, b, 9)


def test_bundle_relations_are_checked_on_the_matrices():
    import ncsolenoid

    alpha = ncsolenoid.AngleSequence.constant(5, Fraction(3, 7))
    got = ncsolenoid.bundle_data(alpha).to_json()
    raw = [5, "3/7", "-3/7"]
    query = {"kind": "bundle_data", "args": {"el": "x"}, "expect": {}}
    assert checks.check(query, got, {"x": raw}) == "ok"
    got["v"] = [row[1:] + row[:1] for row in got["v"]]
    with pytest.raises(checks.Refuted):
        checks.check(query, got, {"x": raw})


def test_metric_names_are_well_formed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "Deadline %d CPU s per query" % plan.DEADLINE_S in w["why"]


def test_bind_puts_the_original_bindings_back():
    import ncsolenoid
    import tracer as tracing
    from ncsolenoid import classify, nadic

    originals = (ncsolenoid.isomorphic, classify.isomorphic, nadic.NadicInteger.__dict__["at"])
    patches = tracing.install(tracing.Tracer())
    try:
        assert ncsolenoid.isomorphic is not originals[0]
        assert classify.isomorphic is not originals[1]
        tracing.bind(patches, False)
        assert (ncsolenoid.isomorphic, classify.isomorphic, nadic.NadicInteger.__dict__["at"]) == originals
    finally:
        tracing.bind(patches, False)


def test_known_defect_probes_are_counted_apart_from_the_queries():
    assert all(plan.build(workload, 1).probes for workload in plan.WORKLOADS)
    ok = [0, "shift-yes", 1000, "ok", None, True]
    wrong = [0, "unit-yes", 1000, "refuted", "No on a pair built to be isomorphic", True]
    result = {"origin": "src", "version": "0", "passes": 1, "samples": [ok], "paired": [ok], "traced": [ok],
              "probes": [wrong], "totals": {}, "setup": [1.0], "imports": [1.0]}
    got = run.summarise("iso-search", 1, 1, 1, run.metric_units("per_layer"), result, [{"sweep": None}])
    assert got["correct"] and got["failed"] == 0
    assert got["metrics"]["failed.refuted"]["value"] == 1
    assert got["metrics"]["failed_ratio"]["value"] == 0.5
