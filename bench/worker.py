"""One workload process: set up, then issue the corpus's queries in a closed loop.

    python3 -S bench/worker.py CORPUS_DIR (--setup-only | --seconds S [--trace])

Set-up is what a user of the library pays before the first query: the
interpreter, ``import ncsolenoid`` and parsing every element file
through ``codec``.  When set-up is done the worker prints ``ready`` with
the CPU time set-up took; with ``--setup-only`` it stops there.
Otherwise it runs whole passes over the query list until another pass
would overrun ``--seconds`` (but at least ``MIN_PASSES`` and 100
queries), checks every answer outside the timed
region, and writes ``result.json`` into the corpus directory.  With
``--trace`` it runs one plain pass, then installs the tracer and runs
each query once without the wrappers and once traced, and then asks each
known-defect probe of the corpus once, without the wrappers.

Every time is the calling thread's CPU time (the package runs on one
thread).  On a shared virtual machine the wall time of a fixed piece of
work swings by a fifth from one minute to the next with the time the
hypervisor gives to other guests, which CPU time does not count.  The
per-query deadline is CPU time too (``ITIMER_PROF``), so a query cut at
the deadline always costs the same.

A CLI query calls ``ncsolenoid.cli.main(argv)`` in this process, with the
corpus directory as working directory, and reads what it prints: argument
parsing, ``codec`` and the command, as ``python -m ncsolenoid`` runs them
after start-up.  Interpreter start and import are set-up, timed as
``setup_s``; timing them per call through a child process measured
mostly the host, whose process starts varied by a third between runs.

Every S / SETUP_STARTS seconds, between two queries, the worker prints
``pause`` and waits for a line on its standard input, so that the caller
can time another start of the workload process while this one is idle;
set-up is thereby sampled across the whole run.
"""

from __future__ import annotations

import os
import sys
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The package is imported before anything else, so that its import time
# holds every module it needs, as in a fresh interpreter.
sys.path[:0] = [SRC, HERE]
_start = process_time()
import ncsolenoid  # noqa: E402

IMPORT_MS = (process_time() - _start) * 1000

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from time import perf_counter, thread_time_ns  # noqa: E402

import checks  # noqa: E402
from plan import SETUP_STARTS  # noqa: E402
from truth import wire  # noqa: E402

MIN_SAMPLES = 100

#: Passes a workload makes at least, so that each query's latency is the
#: least of several repeats spread over the run.
MIN_PASSES = 3


class Deadline(BaseException):
    """Raised by SIGPROF when a query passes its deadline."""


def _on_deadline(_signum, _frame):
    raise Deadline()


def reference_ms():
    """CPU ms of a fixed integer loop that calls no package code: how fast the host runs arithmetic now."""
    start = thread_time_ns()
    s = 0
    for k in range(200_000):
        s += k * k % 7
    return (thread_time_ns() - start) / 1e6


def run_cli(argv):
    """ncsolenoid.cli.main(argv) in this process: (exit code, what it printed to stdout)."""
    from ncsolenoid import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def check_origin():
    """Stop unless ncsolenoid came from this checkout's src."""
    origin = os.path.realpath(ncsolenoid.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("imported ncsolenoid from %s, not from %s" % (origin, SRC))


def cli_answer(cmd, code, text):
    """(status, parsed output) of a CLI call by its documented exit codes: 0, 3 for Unknown, 2 for domain errors."""
    if code == 2:
        return "raised", "exit code 2"
    if code not in ((0, 3) if cmd == "iso" else (0,)):
        return "exit_code", "exit code %d" % code
    try:
        value = json.loads(text)
    except ValueError:
        return "answered", {"unparsed": text[:200]}
    if cmd == "iso" and (code == 3) != (value.get("verdict") == "Unknown"):
        return "exit_code", "exit code %d for verdict %s" % (code, value.get("verdict"))
    return "answered", value


class Worker:
    def __init__(self, corpus, seconds=None):
        self.corpus = corpus
        self.pause_every = seconds / SETUP_STARTS if seconds else None
        self.next_pause = perf_counter() + (self.pause_every or 0)
        with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        self.workload = self.manifest["workload"]
        self.deadline = self.manifest["deadline_s"]
        self.queries = self.manifest["queries"]
        self.probes = self.manifest["probes"]
        self.elements = self.manifest["elements"]
        self.tracer = None
        signal.signal(signal.SIGPROF, _on_deadline)

    # -- set-up -----------------------------------------------------------

    def parse_corpus(self):
        """Every element file through codec: sequences and standalone carriers."""
        from ncsolenoid import codec

        self.objects = {}
        for name, raw in self.elements.items():
            path = os.path.join(self.corpus, name + ".json")
            if raw[1] is None:
                self.objects[name] = codec.carrier_from_file(path)
            else:
                self.objects[name] = codec.sequence_from_file(path)

    def pause_if_due(self):
        """Let the caller time a set-up start while this process is idle."""
        if self.pause_every and perf_counter() >= self.next_pause:
            print("pause", flush=True)
            sys.stdin.readline()
            self.next_pause = perf_counter() + self.pause_every

    # -- one query --------------------------------------------------------

    def timed(self, call):
        """Run call() under the deadline; (status, value, ns)."""
        signal.setitimer(signal.ITIMER_PROF, self.deadline)
        # The thread's clock: the process clock only ticks coarsely while
        # ITIMER_PROF is armed.
        start = thread_time_ns()
        try:
            try:
                value = call()
                status = "answered"
            except Deadline:
                value, status = None, "deadline"
            except Exception as err:  # any exception on valid input is a failed query
                value, status = "%s: %s" % (type(err).__name__, err), "raised"
            finally:
                took = thread_time_ns() - start
                signal.setitimer(signal.ITIMER_PROF, 0)
        except Deadline:
            took = thread_time_ns() - start
            value, status = None, "deadline"
        return status, value, took

    def run_query(self, index, query, traced):
        self.pause_if_due()
        call = self.prepare(query)
        if self.tracer:
            self.tracer.query = index
            self.tracer.active = traced
        status, value, took = self.timed(call)
        if self.tracer:
            self.tracer.active = False
            self.tracer.stack.clear()  # a deadline can leave frames behind
        if status == "answered":
            status, value = self.as_json(query, value)
        outcome, note = status, None
        if status == "answered":
            try:
                outcome = checks.check(query, value, self.elements)
            except checks.Refuted as err:
                outcome, note = "refuted", str(err)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
                outcome, note = "refuted", "unreadable answer: %s" % err
        elif status in ("raised", "exit_code"):
            note = value
        decision = query["kind"] == "isomorphic" or query["args"].get("cmd") == "iso"
        return [index, query["cls"], took, outcome, note, decision]

    # -- library calls ----------------------------------------------------

    def fresh(self, name):
        """A new copy of a parsed sequence, so its residue cache starts cold."""
        from ncsolenoid import AngleSequence, NadicInteger

        obj = self.objects[name]
        return AngleSequence(obj.modulus, obj.base, NadicInteger.from_value(obj.carrier.value, obj.modulus))

    def prepare(self, query):
        """A zero-argument callable making exactly the library call under test."""
        import ncsolenoid as ns
        from ncsolenoid import ExtensionElement, QnRational

        kind, a = query["kind"], query["args"]
        if kind == "cli":
            return lambda: run_cli(a["argv"])
        if kind in ("classify_type", "is_simple", "symmetrizer", "bundle_data"):
            fn, seq = getattr(ns, kind), self.fresh(a["el"])
            return lambda: fn(seq)
        if kind == "period":
            return self.fresh(a["el"]).period
        if kind == "trace":
            seq = self.fresh(a["el"])
            elem = ExtensionElement(seq, a["z"], QnRational(a["x"][0], a["x"][1], seq.modulus))
            return lambda: ns.trace(elem)
        if kind == "isomorphic":
            x, y = self.fresh(a["a"]), self.fresh(a["b"])
            return lambda: ns.isomorphic(x, y, bound=a["bound"])
        raise ValueError("unknown query kind %r" % kind)

    def as_json(self, query, value):
        """(status, the answer in the shape the CLI prints it); a CLI exit code can make it a failure."""
        kind = query["kind"]
        if kind == "cli":
            return cli_answer(query["args"]["cmd"], *value)
        if kind == "classify_type":
            return "answered", {"type": value.value}
        if kind == "is_simple":
            return "answered", {"simple": value}
        if kind == "period":
            return "answered", {"period": value}
        if kind == "trace":
            return "answered", {"trace": wire(value)}
        return "answered", value.to_json()

    # -- passes -----------------------------------------------------------

    def run(self, seconds):
        """Whole passes until another would overrun the run, but at least MIN_PASSES.

        After each pass the reference loop is timed three times.
        """
        samples, passes, reference = [], 0, []
        start = perf_counter()
        while True:
            t = perf_counter()
            for i, query in enumerate(self.queries):
                samples.append(self.run_query(i, query, False))
            passes += 1
            reference.extend(reference_ms() for _ in range(3))
            took = perf_counter() - t
            if passes >= MIN_PASSES and len(samples) >= MIN_SAMPLES and perf_counter() - start + took > seconds:
                return samples, passes, reference

    def run_traced(self, spans_path):
        import tracer as tracing

        plain = [self.run_query(i, q, False) for i, q in enumerate(self.queries)]
        self.tracer = tracing.Tracer()
        patches = tracing.install(self.tracer)
        self.tracer.active = True
        self.parse_corpus()
        self.tracer.active = False
        # Each query runs with the original bindings and then traced, back
        # to back, so that the overhead ratio holds the whole cost of the
        # wrappers and is not skewed by the host's speed drifting between
        # passes.
        paired, traced = [], []
        for i, q in enumerate(self.queries):
            tracing.bind(patches, False)
            paired.append(self.run_query(i, q, False))
            tracing.bind(patches, True)
            traced.append(self.run_query(i, q, True))
        tracing.bind(patches, False)
        probes = [self.run_query(i, q, False) for i, q in enumerate(self.probes)]
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tquery\tname\tstart_ns\tend_ns\n")
            fh.writelines(self.tracer.span_lines())
        return plain, paired, traced, probes, self.tracer.totals()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    check_origin()
    worker = Worker(args.corpus, args.seconds)
    worker.parse_corpus()
    os.chdir(args.corpus)  # CLI queries name element files relative to it
    print("ready %.3f %.6f" % (IMPORT_MS, process_time()), flush=True)
    if args.setup_only:
        return 0
    result = {"origin": os.path.relpath(ncsolenoid.__file__, ROOT), "version": ncsolenoid.__version__}
    if args.trace:
        plain, paired, traced, probes, totals = worker.run_traced(os.path.join(args.corpus, "spans.tsv"))
        result.update(samples=plain, paired=paired, traced=traced, probes=probes, totals=totals, passes=1)
    else:
        samples, passes, reference = worker.run(args.seconds)
        result.update(samples=samples, passes=passes, reference_ms=reference,
                      peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(os.path.join(args.corpus, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
