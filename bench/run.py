"""The ncsolenoid benchmark: seeded workloads, checked answers, named metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``.  For one workload the script builds the seeded corpus under
``.bench_run/``, starts the workload process to issue the queries
(see ``worker.py``), times further starts of it for set-up while that
process pauses between queries, and prints a short report followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run; names and units are those of
``BENCHMARK.json``.  ``--workload all`` runs every workload in turn and
prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import plan  # noqa: E402
from tracer import LAYERS  # noqa: E402

RUN_DIR = os.path.join(ROOT, ".bench_run")

#: The environment of every process the benchmark starts: bytecode is
#: cached under RUN_DIR, as an installed package would have it, so that a
#: start does not compile the package again.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPYCACHEPREFIX"] = os.path.join(RUN_DIR, "pycache")

#: CPU ms of worker.reference_ms() at its fastest on the 2-vCPU Xeon VM the
#: benchmark was built on.  Query times are scaled by this over the
#: reference's least time in the same run (see end_to_end).
REFERENCE_MS = 15.0

#: A run must end within this many seconds of starting.
RUN_BUDGET_S = 170

FAILURES = ("refuted", "raised", "exit_code", "deadline")

#: Outcomes of a query that ran to an answer, right or wrong.
ANSWERED = ("ok", "unknown", "unverified", "refuted")


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics, in the order of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}

# The ROADMAP baseline table, row by row: where each row is measured, or why not.
ROADMAP_ROWS = (
    ("CLI info", "cli-session", "query class info, in-process; start-up and import are setup_s"),
    ("CLI iso, thirds at scales 2 and 4", "cli-session", "query class iso, in-process"),
    ("CLI selftest", "cli-session", "query class selftest, in-process"),
    ("CLI bundle, q=101", None, "not run: about 11 s a call, past the 3 s per-query deadline"),
    ("bundle_data, q=31", "periodic-invariants", "classify.bundle_data.q31.ms"),
    ("bundle_data, q=62", "periodic-invariants", "classify.bundle_data.q62.ms"),
    ("bundle_data, q=101", None, "not run: about 11 s a call, past the 3 s per-query deadline"),
    ("symmetrizer, q=10007", "periodic-invariants", "multiplier.symmetrizer.q10007.ms"),
    ("symmetrizer, q=100003", None, "not run: about 53 s a call, past the deadline and the run"),
    ("colimit_report, depth 6", None, "not run: no workload sweeps the colimit depth (see README)"),
    ("colimit_report, depth 10", None, "not run: no workload sweeps the colimit depth (see README)"),
)


class BenchError(Exception):
    pass


# -- statistics --------------------------------------------------------------


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def slope(points):
    """Least-squares slope of log(ms) against log(size)."""
    xs = [math.log(x) for x, y in points if y > 0]
    ys = [math.log(y) for x, y in points if y > 0]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def percentile_region(samples, pct):
    """Classes and latency range (ms) of the queries within two points of a percentile.

    A narrow range means neighbouring ranks cost about the same, so the
    percentile does not jump when a few queries trade places.
    """
    classes = {s[0]: s[1] for s in samples}
    ordered = sorted(zip(latencies(samples), classes.values()))
    i = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    w = max(1, len(ordered) // 50)
    near = ordered[max(0, i - w): i + w + 1]
    return sorted({cls for _ms, cls in near}), near[0][0], near[-1][0]


# -- processes -----------------------------------------------------------------


def _deadline_left(started):
    left = RUN_BUDGET_S - (perf_counter() - started)
    if left <= 0:
        raise BenchError("run budget of %d s exhausted" % RUN_BUDGET_S)
    return left


def start_worker(corpus, extra, started):
    """Start the workload process; returns (process, CPU seconds its set-up took, import CPU ms)."""
    # -S: without the site module, whose scan of the host's site-packages
    # (50 ms or more, and most of the noise of a start) no change to the
    # package can move; the worker needs nothing from site-packages.
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"), corpus, *extra]
    # Unbuffered, so that select() sees every line the worker has written.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
    try:
        line = read_line(proc, started)
        if not line.startswith("ready "):
            proc.wait(timeout=_deadline_left(started))
            raise BenchError("workload process failed during set-up (exit %s)" % proc.returncode)
        _ready, import_ms, setup_s = line.split()
        return proc, float(setup_s), float(import_ms)
    except BaseException:
        stop(proc)
        raise


def read_line(proc, started):
    if not select.select([proc.stdout], [], [], _deadline_left(started))[0]:
        raise BenchError("workload process overran the run budget")
    return proc.stdout.readline().decode()


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc, started):
    try:
        proc.communicate(timeout=_deadline_left(started))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process overran the run budget") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError("workload process exited with %d" % proc.returncode)


def time_setup(corpus, setup, imports, started):
    """One more start of the workload process, stopped once it is ready."""
    proc, ready, import_ms = start_worker(corpus, ["--setup-only"], started)
    finish(proc, started)
    setup.append(ready)
    imports.append(import_ms)


# -- one workload --------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, units, started):
    corpus = os.path.join(RUN_DIR, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(corpus, ignore_errors=True)
    built = plan.build(workload, seed)
    # The probes are asked only in the traced run.
    plan.certify(built, trace)
    built.write(corpus)
    try:
        # An untimed start fills the bytecode cache.
        finish(start_worker(corpus, ["--setup-only"], started)[0], started)
        extra = ["--seconds", str(seconds)] + (["--trace"] if trace else [])
        proc, ready, import_ms = start_worker(corpus, extra, started)
        setup, imports = [ready], [import_ms]
        try:
            while read_line(proc, started) == "pause\n":
                time_setup(corpus, setup, imports, started)
                proc.stdin.write(b"go\n")
        except BaseException:
            stop(proc)
            raise
        finish(proc, started)
        while len(setup) < plan.SETUP_STARTS:
            time_setup(corpus, setup, imports, started)
        with open(os.path.join(corpus, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
            queries = json.load(fh)["queries"]
        if trace:
            os.replace(os.path.join(corpus, "spans.tsv"), os.path.join(RUN_DIR, "spans-%s-%d.tsv" % (workload, seed)))
    finally:
        shutil.rmtree(corpus, ignore_errors=True)
    result["setup"] = setup
    result["imports"] = imports
    return summarise(workload, seed, seconds, trace, units, result, queries)


def accounting(samples):
    """Failures by category, Unknown verdicts, unverified Nos, decision queries, and Yes or No verdicts."""
    counts = {f: 0 for f in FAILURES}
    unknown = unverified = decisions = decided = 0
    for _i, _cls, _ns, outcome, _note, decision in samples:
        if outcome in counts:
            counts[outcome] += 1
        if decision:
            decisions += 1
            unknown += outcome == "unknown"
            unverified += outcome == "unverified"
            decided += outcome in ("ok", "unverified", "refuted")
    return counts, unknown, unverified, decisions, decided


def latencies(samples):
    """Each query's latency in ms, in query order: the least of its repeats across passes.

    The host's speed swings by a third within seconds, so the slower
    repeats measure the host; the fastest is the query's own cost.
    """
    repeats = {}
    for s in samples:
        repeats.setdefault(s[0], []).append(s[2] / 1e6)
    return [min(v) for v in repeats.values()]


def host_scale(result):
    """REFERENCE_MS over the least time of the reference loop in this run.

    The host runs slower for minutes at a time, longer than a run, so even
    the fastest repeat of a query moves by a third from run to run.  The
    reference loop, timed between passes, slows with it; scaling by it
    reports query times at the reference's nominal speed.
    """
    return REFERENCE_MS / min(result["reference_ms"])


def end_to_end(result):
    samples = result["samples"]
    ms = latencies(samples)
    scale = host_scale(result)
    completed = sum(1 for s in samples if s[3] in ANSWERED) / len(samples)
    return {
        "queries_per_s": completed * len(ms) / (sum(ms) / 1000) / scale,
        "query_p50_ms": nearest_rank(ms, 50) * scale,
        "query_p90_ms": nearest_rank(ms, 90) * scale,
        "answered_ratio": sum(1 for s in samples if s[3] == "ok") / len(samples),
        "setup_s": statistics.median(result["setup"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(names, result, queries):
    """The per-layer metrics of the given names, each read off its name.

    ``<layer>.calls`` and ``<layer>.self_ms`` sum a module's functions;
    ``<family>.<label>.ms`` is the plain-pass latency of a sweep point and
    ``<family>.growth`` the log-log slope over its sweep; any other
    ``<function>.calls`` or ``<function>.self_ms`` is one traced function.
    ``failed_ratio`` and ``failed.<category>`` count the plain pass and the
    known-defect probes together.
    """
    totals, plain, probes = result["totals"], result["samples"], result["probes"]
    _counts, unknown, unverified, decisions, decided = accounting(plain)
    counts = accounting(plain + probes)[0]
    out = {
        "classify.isomorphic.decided_ratio": decided / decisions if decisions else 0.0,
        "cli.import_ms": statistics.median(result["imports"]),
        "trace_overhead_ratio": sum(s[2] for s in result["traced"]) / sum(s[2] for s in result["paired"]) - 1,
        "failed_ratio": sum(counts.values()) / len(plain + probes),
        "unknown_ratio": unknown / decisions if decisions else 0.0,
        "unverified_no": unverified,
    }
    out.update(("failed." + f, n) for f, n in counts.items())
    sweeps = {}
    for query, sample in zip(queries, plain):
        if query["sweep"] and sample[3] in ("ok", "unknown", "unverified"):
            family, label, x = query["sweep"]
            sweeps.setdefault(family, []).append((label, x, sample[2] / 1e6))
    for name in names:
        if name in out:
            continue
        if name.endswith(".growth"):
            out[name] = slope([(x, y) for _label, x, y in sweeps.get(name[: -len(".growth")], [])])
            continue
        base, what = name.rsplit(".", 1)
        if what == "ms":
            family, label = base.rsplit(".", 1)
            at = [y for got, _x, y in sweeps.get(family, []) if got == label]
            out[name] = statistics.median(at) if at else 0.0
            continue
        mine = [v for k, v in totals.items() if k.startswith(base + ".")] if base in LAYERS else [totals.get(base, (0, 0))]
        out[name] = sum(v[0] for v in mine) if what == "calls" else sum(v[1] for v in mine) / 1e6
    return out


def summarise(workload, seed, seconds, trace, units, result, queries):
    samples = result["samples"] + result.get("paired", []) + result.get("traced", [])
    counts, unknown, unverified, decisions, _decided = accounting(result["samples"])
    failed = sum(1 for s in samples if s[3] in FAILURES)
    if trace:
        values = per_layer(units, result, queries)
    else:
        values = end_to_end(result)
    lines = [
        "workload  %s (seed %d, %s s, trace %d; closed loop, one client)" % (workload, seed, seconds, trace),
        "package   %s, version %s" % (result["origin"], result["version"]),
        "queries   %d samples: %d queries x %d pass(es)%s, deadline %d CPU s each"
        % (len(samples), len(queries), result["passes"], " plain + 1 paired untraced/traced" if trace else "", plan.DEADLINE_S),
        "failures  %s (failed_ratio %.4f); unknown %d and unverified No %d of %d decisions"
        % (", ".join("%s %d" % kv for kv in counts.items()), sum(counts.values()) / len(result["samples"]),
           unknown, unverified, decisions),
    ]
    if trace:
        probes = accounting(result["probes"])[0]
        lines.append("probes    %d known-defect inputs asked once, apart from the queries: %s"
                     % (len(result["probes"]), ", ".join("%s %d" % kv for kv in probes.items())))
    if not trace:
        ms = latencies(result["samples"])
        lines.append("unscaled  p50 %.6g ms, p90 %.6g ms; reference loop %.6g ms at least (scale %.4f)"
                     % (nearest_rank(ms, 50), nearest_rank(ms, 90), min(result["reference_ms"]), host_scale(result)))
    for pct in (50, 90):
        classes, lo, hi = percentile_region(result["samples"], pct)
        lines.append("p%d       %.4g-%.4g ms within 2 points, classes %s" % (pct, lo, hi, ", ".join(classes)))
    notes = sorted({"%s: %s" % (s[1], s[4]) for s in samples + result.get("probes", []) if s[4]})
    lines.extend("  %s" % n for n in notes[:8])
    for row, where, what in ROADMAP_ROWS:
        if where in (workload, None):
            lines.append("roadmap   %-36s %s" % (row, what))
    lines.extend("%-42s %14.6g %s" % (name, values[name], units[name]) for name in units)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "ncsolenoid", "__init__.py")):
        print("error: no src/ncsolenoid in %s; run from the root of a checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workloads = plan.WORKLOADS if args.workload == "all" else (args.workload,)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            got = run_workload(workload, args.seed, args.seconds, args.trace, units, started)
            started = perf_counter()
            print("\n".join(got["lines"]), flush=True)
            out["correct"] = out["correct"] and got["correct"]
            out["attempted"] += got["attempted"]
            out["failed"] += got["failed"]
            prefix = workload + "." if args.workload == "all" else ""
            out["metrics"].update({prefix + k: v for k, v in got["metrics"].items()})
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
