"""Answer checks: each compares an answer with ground truth from ``truth``.

An answer arrives in the JSON shape the CLI prints, whether it came from
a CLI call or from a library call (the worker converts).  ``check``
returns "ok", "unknown" for an Unknown verdict, "unverified" for a No on
a pair whose truth is open, or "refuted" with a reason; failures by exception, exit code or deadline are decided by the
caller before an answer exists.
"""

from __future__ import annotations

from fractions import Fraction

import truth
from truth import wire

PERIODIC = "RationalPeriodic"
APERIODIC = "RationalAperiodic"


class Refuted(Exception):
    pass


def need(cond, why):
    if not cond:
        raise Refuted(why)


def _seq(raw):
    scale, head, w = raw
    return scale, Fraction(head), Fraction(w)


def _periodic_answers(kind, got, raw):
    scale, head, w = _seq(raw)
    periodic = w == -head
    q = head.denominator
    if kind == "type":
        need(got.get("type") == (PERIODIC if periodic else APERIODIC), "wrong type")
    elif kind == "simple":
        need(got.get("simple") is (not periodic), "simple is not 'carrier != -head'")
    elif kind == "period":
        p = got.get("period")
        if periodic:
            need(isinstance(p, int) and truth.is_order(scale, q, p), "period is not the order of N mod q")
        else:
            need(p is None, "aperiodic input given a period")
    elif kind == "symmetrizer":
        want = {"variant": "ScaledLattice", "b": q} if periodic else {"variant": "Trivial"}
        need(got == want, "symmetrizer %r, expected %r" % (got, want))
    elif kind == "info":
        need(got.get("N") == scale and got.get("alpha0") == wire(head), "info echoes the wrong element")
        values = got.get("values", [])
        need(len(values) == 8, "info lists %d values" % len(values))
        for n, v in enumerate(values):
            need(Fraction(v) == truth.term(scale, head, w, n), "info value %d is wrong" % n)
        _periodic_answers("type", got, raw)
    elif kind == "bundle":
        need(periodic, "bundle answered for aperiodic input")
        need(got.get("q") == q and got.get("p") == head.numerator, "bundle q or p is wrong")
        lam = Fraction(got["lambda"])
        need(lam == head, "bundle lambda is not the head")
        need(truth.is_order(scale, q, got.get("k")), "bundle k is not the order of N mod q")
        u, v = truth.monomial(got["u"]), truth.monomial(got["v"])
        need(len(u[0]) == q and len(v[0]) == q, "bundle matrices are not q x q")
        need(truth.mono_mul(v, u) == truth.mono_scaled(truth.mono_mul(u, v), lam), "v u != lambda u v")
        need(truth.is_identity(truth.mono_pow(u, q)), "u**q != 1")
        need(truth.is_identity(truth.mono_pow(v, q)), "v**q != 1")


def _k0_sum(exp, got):
    scale, w = exp["scale"], Fraction(exp["w"])
    num, k = int(got["x"]["num"]), int(got["x"]["exp"])
    first = truth.k0_first(scale, w, int(got["z"]), num, k)
    second = Fraction(num, scale ** k)
    want = (Fraction(exp["first"]), Fraction(exp["second"]))
    need((first, second) == want, "K0 point differs from the coordinatewise sum")


def _cohomologous(exp, got):
    """The verdict must match the truth, and a witness must be psi_k = (psi(1) + J_k - R_k) / N**k."""
    need(got.get("cohomologous") is exp["cohomologous"], "cohomology verdict is wrong")
    if not exp["cohomologous"]:
        return
    table = {int(k): int(v) for k, v in got["witness"]["psi"].items()}
    need(table.get(0) == Fraction(exp["psi1"]), "witness psi(1) is not -(J - R)")
    scale, wj, wr, psi1 = exp["scale"], Fraction(exp["wj"]), Fraction(exp["wr"]), table.get(0)
    for k, v in table.items():
        gap = psi1 + truth.residue(wj, scale, k) - truth.residue(wr, scale, k)
        need(v * scale ** k == gap, "witness is not linear at level %d" % k)


def _iso(exp, got):
    verdict = got.get("verdict")
    built = exp["truth"]
    if verdict == "Unknown":
        return "unknown"
    if verdict == "Yes":
        need(built != "no", "Yes on a pair built to be non-isomorphic")
        need(truth.witness_holds(_seq(exp["a"]), _seq(exp["b"]), got.get("witness", {})),
             "the Yes witness does not verify")
        return "ok"
    need(verdict == "No", "unrecognised verdict %r" % (verdict,))
    need(built != "yes", "No on a pair built to be isomorphic")
    # The benchmark knows no obstruction for an open pair, so a No there
    # cannot be confirmed: it is neither a failure nor a correct answer.
    return "ok" if built == "no" else "unverified"


def check(query, got, elements):
    """'ok', 'unknown', 'unverified', or raise Refuted."""
    kind, args, exp = query["kind"], query["args"], query["expect"]
    if kind == "cli":
        kind = args["cmd"]
    el = args.get("el")
    raw = elements.get(el) if el else None
    if kind in ("classify_type", "is_simple", "period", "symmetrizer", "info", "simple", "bundle", "bundle_data"):
        name = {"classify_type": "type", "is_simple": "simple", "bundle_data": "bundle"}.get(kind, kind)
        _periodic_answers(name, got, raw)
    elif kind == "trace":
        need(got.get("trace") == exp["trace"], "trace %r, expected %r" % (got.get("trace"), exp["trace"]))
    elif kind == "add":
        _k0_sum(exp, got)
    elif kind == "member":
        need(got.get("member") is exp["member"], "membership is wrong")
    elif kind == "cohomologous":
        _cohomologous(exp, got)
    elif kind in ("isomorphic", "iso"):
        return _iso(exp, got)
    elif kind == "selftest":
        need(got.get("passed") is True, "selftest reports a failure")
    else:
        raise ValueError("no check for query kind %r" % kind)
    return "ok"
