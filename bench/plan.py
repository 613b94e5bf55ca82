"""Seeded corpora for the workloads.

Each workload has a fixed plan: which query classes it issues, how many of
each, and at which sizes (denominator q, period, depth, bound, scale).
The seed draws every number inside that plan (heads, carriers, numerators,
integer parts, query order), so two seeds give different corpora that
cost the same to answer.  That is what lets runs with different seeds be
compared as repeats of one measurement.

A corpus is a directory of element files, which is all the program sees,
plus ``manifest.json``, which only the benchmark reads: the query list
with the ground truth each answer is checked against.  Ground truth comes
from how an input was built or from ``truth``, never from the procedure
under test.

The query list holds only inputs the package answers right.  Inputs that
expose its known defects are kept beside it as probes: the traced run
asks each once and counts how each fails, so that a fix shows as fewer
failures, while the timed queries and ``correct`` stay free of them.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import gcd

from truth import k0_first, lowest, negated, order, shifted, term, wire

WORKLOADS = ("cli-session", "periodic-invariants", "iso-search")

#: Seconds a single query may take before it counts as failed.
DEADLINE_S = 3

#: The scale 1000000007 * 998244353: trial division cannot factor it
#: within the deadline.
SEMIPRIME = 1000000007 * 998244353

#: Starts of the workload process timed for set-up in one run.
SETUP_STARTS = 11

#: Window of (g, h) pairs on which every built unit pair is certified.
THETA_WINDOW = 2000

PRIME_SCALES = (2, 3, 5, 7)
COMPOSITE_SCALES = (6, 10, 12, 15)

# Head denominators whose multiplicative order exceeds the package's
# ORDER_CAP = 10**6 at the given scale.  Only traces are timed on them;
# the order queries, which raise there, are probes.
OVER_CAP = ((2, 2000003), (5, 1000003))

# (scale, q) with periods 504, 1500, 5003, 10036.  Longer periods, and a
# bundle at q = 53, would take so much of a pass that a run made too few
# passes for the fastest repeat of each query to be steady.
SYMMETRIZER_SWEEP = ((2, 1009), (2, 3001), (2, 10007), (2, 10037))

BUNDLE_SWEEP = (7, 11, 13, 17, 23, 31, 41, 62)

# Primes near 1000 for the order queries of periodic-invariants: at a
# head denominator of 50 or less an order query takes about 10 us, where
# the timer and the caches decide more than the package does.
ORDER_QS = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069)

# The block of ten bundles at q = 23 that holds p90 in periodic-invariants:
# (scale, numerator), drawn once, because a bundle's cost moves by a third
# with its numerator and p90 would follow whichever numerators a seed drew.
_block = random.Random("bundle-block")
BUNDLE_BLOCK = tuple(
    ((2, 3, 5, 7, 6, 10, 12, 15)[i % 8], _block.randrange(1, 23)) for i in range(10)
)

# Scales 2 * P with P prime, log-spaced from 10**5 to 10**7.
LARGE_PRIME_SCALES = (
    100042, 129154, 166814, 215482, 278266, 359386, 464158, 599486, 774274, 1000018,
    1291574, 1668118, 2154442, 2782562, 3593822, 4641614, 5994878, 7742638, 10000022,
)

# Seeds of the 28 selftests in cli-session, drawn once: a selftest's cost
# moves by half with its seed, and p90 falls among the selftests.
_selftests = random.Random("selftest-seeds")
SELFTEST_SEEDS = tuple(_selftests.randrange(1, 10 ** 6) for _ in range(28))

UNKNOWN_SWEEP = tuple((n, b) for n in (2, 3, 5) for b in (8, 16, 32, 64, 128))


def _unit_pair_plan():
    """Unit-related periodic pairs: (scale, q, u, c) with u = +-(a product of the scale's primes).

    Drawn once from a fixed generator over the whole grid, like a survey
    sample, numerators c included: the search cost of a pair depends on c
    so much that drawing it per run would move p50 from seed to seed.  At
    a composite scale u is a proper divisor d > 1 of the scale times 1 or
    the scale, a unit that a shift and a block shift realise; other units
    are in UNIT_PROBES.
    """
    rng, signs = random.Random("unit-pairs"), random.Random("unit-signs")
    numerators = random.Random("unit-numerators")
    qs = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    plan = []
    for scale in COMPOSITE_SCALES:
        divisors = [d for d in range(2, scale) if scale % d == 0]
        for _ in range(8):
            q = rng.choice([q for q in qs if gcd(q, scale) == 1])
            plan.append((scale, q, signs.choice((1, -1)) * rng.choice(divisors) * scale ** rng.randrange(2)))
    for scale in PRIME_SCALES:
        for k in (1, 2):
            q = rng.choice([q for q in qs if gcd(q, scale) == 1])
            plan.append((scale, q, signs.choice((1, -1)) * scale ** k))
    return tuple((n, q, u, numerators.choice([c for c in range(1, q) if gcd(c, q) == 1])) for n, q, u in plan)


UNIT_PAIRS = _unit_pair_plan()


def _unit_probe_plan():
    """Composite-scale unit pairs (scale, q, u, c) with u = +-p**e * r**f over the scale's primes p, r.

    Drawn once.  The seed answers some of these with a wrong No, so they
    are probes, not timed queries.
    """
    rng = random.Random("unit-probes")
    exps = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3))
    qs = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    plan = []
    for scale in COMPOSITE_SCALES:
        p, r = [p for p in (2, 3, 5) if scale % p == 0]
        for _ in range(8):
            q = rng.choice([q for q in qs if gcd(q, scale) == 1])
            e, f = rng.choice(exps)
            c = rng.choice([c for c in range(1, q) if gcd(c, q) == 1])
            plan.append((scale, q, rng.choice((1, -1)) * p ** e * r ** f, c))
    return tuple(plan)


UNIT_PROBES = _unit_probe_plan()


class Corpus:
    """Elements (files the program reads) and queries (what the benchmark asks)."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.elements = {}
        self.queries = []
        self.probes = []  # known-defect inputs, asked apart from the queries
        self.unit_pairs = []  # (a, b, u, probe) to certify before the run

    # -- elements ---------------------------------------------------------

    def _add(self, obj, raw):
        name = "e%03d" % len(self.elements)
        self.elements[name] = {"json": obj, "raw": raw}
        return name

    def sequence(self, scale, head, w):
        head, w = Fraction(head), Fraction(w)
        obj = {"N": scale, "alpha0": wire(head), "carrier": {"value": wire(w)}}
        return self._add(obj, [scale, wire(head), wire(w)])

    def carrier(self, scale, w):
        return self._add({"N": scale, "value": wire(w)}, [scale, None, wire(Fraction(w))])

    def raw(self, name):
        scale, head, w = self.elements[name]["raw"]
        return scale, (Fraction(head) if head is not None else None), Fraction(w)

    # -- value draws ------------------------------------------------------

    def unit(self, q):
        while True:
            c = self.rng.randrange(1, q)
            if gcd(c, q) == 1:
                return c

    def periodic(self, scale, q):
        c = self.unit(q)
        return self.sequence(scale, Fraction(c, q), Fraction(-c, q))

    def carrier_value(self, scale):
        """A non-integral exact carrier value a/b with gcd(b, scale) == 1."""
        while True:
            b = self.rng.randrange(3, 40)
            a = self.rng.randrange(-60, 61)
            if gcd(b, scale) == 1 and Fraction(a, b).denominator > 1:
                return Fraction(a, b)

    def aperiodic_values(self, scale, head_den=None, w_den=None):
        """(head, w) of an aperiodic sequence; given denominators are kept exactly."""
        while True:
            b = head_den or self.rng.randrange(2, 30)
            head = Fraction(self.rng.randrange(0, b), b)
            if w_den is None:
                w = self.carrier_value(scale)
            else:
                w = Fraction(self.rng.randrange(-60, 61), w_den)
            if w == -head or w.denominator == 1:
                continue
            if (head_den and head.denominator != head_den) or (w_den and w.denominator != w_den):
                continue
            return head, w

    def aperiodic(self, scale):
        return self.sequence(scale, *self.aperiodic_values(scale))

    def partner(self, name, cohomologous):
        """A carrier value differing from the element's by an integer, or by a non-integer."""
        scale, _head, w = self.raw(name)
        if cohomologous:
            return w - self.rng.randint(-31, 31)
        d = self.rng.choice([d for d in (7, 11, 13) if scale % d])
        return w + Fraction(self.rng.randint(1, d - 1), d)

    def qn(self, scale, max_exp=5):
        """A random nonzero Q_N element as (num, exp) in lowest terms."""
        while True:
            num, exp = lowest(self.rng.randint(-200, 200), self.rng.randint(0, max_exp), scale)
            if num:
                return num, exp

    # -- queries ----------------------------------------------------------

    def ask(self, kind, cls, args, expect=None, sweep=None, probe=False):
        (self.probes if probe else self.queries).append(
            {"kind": kind, "cls": cls, "args": args, "expect": expect or {}, "sweep": sweep}
        )

    def write(self, directory):
        os.makedirs(directory, exist_ok=True)
        for name, el in self.elements.items():
            with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(el["json"], sort_keys=True) + "\n")
        manifest = {
            "workload": self.workload,
            "seed": self.seed,
            "deadline_s": DEADLINE_S,
            "elements": {name: el["raw"] for name, el in self.elements.items()},
            "queries": self.queries,
            "probes": self.probes,
        }
        with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=0) + "\n")


# -- expected answers -------------------------------------------------------


def expect_trace(c, el, z, num, exp):
    scale, head, w = c.raw(el)
    return {"trace": wire(z + num * term(scale, head, w, exp))}


def expect_member(c, el, first, num, exp):
    scale, _head, w = c.raw(el)
    return {"member": (Fraction(first) - k0_first(scale, w, 0, num, exp)).denominator == 1}


def expect_sum(c, el, terms):
    """The K0 point of a twisted sum: coordinatewise sum of the concrete points."""
    scale, _head, w = c.raw(el)
    first = sum(k0_first(scale, w, z, num, exp) for z, num, exp in terms)
    second = sum(Fraction(num, scale ** exp) for _z, num, exp in terms)
    return {"first": wire(first), "second": wire(second), "scale": scale, "w": wire(w)}


def expect_cohomologous(c, j, r):
    scale, _h, wj = c.raw(j)
    _s, _h2, wr = c.raw(r)
    diff = wj - wr
    exp = {"cohomologous": diff.denominator == 1, "wj": wire(wj), "wr": wire(wr), "scale": scale}
    if exp["cohomologous"]:
        exp["psi1"] = wire(-diff)
    return exp


# -- workloads -----------------------------------------------------------------


def _k0_terms(c, scale):
    z = c.rng.randint(-9, 9)
    num, exp = c.qn(scale)
    return z, num, exp


def fname(name):
    """The file name of an element."""
    return name + ".json"


def _x_arg(scale, num, exp):
    return wire(Fraction(num, scale ** exp))


def build_cli_session(c):
    """Sequential CLI calls: every subcommand over a small mixed corpus.

    Per pass: 60 plain calls (7 or 8 per subcommand), 12 iso calls and 28
    selftests; one iso call at the semiprime scale is a probe.  A plain or
    iso call costs a few ms and a selftest about 80, so p50 falls inside
    the plain calls and p90 inside the selftests, away from the boundary
    between those groups, with ten calls beyond it.
    """
    seqs = []
    for scale in (2, 3, 5, 6, 10, 12):
        seqs.append(c.aperiodic(scale))
        q = [q for q in (7, 11, 13) if gcd(q, scale) == 1][c.rng.randrange(2)]
        seqs.append(c.periodic(scale, q))
    pick = lambda: seqs[c.rng.randrange(len(seqs))]
    periodic_small = [s for s in seqs if c.raw(s)[1].denominator <= 13 and c.raw(s)[2] == -c.raw(s)[1]]

    def plain(kind, n):
        for _ in range(n):
            el = pick()
            scale = c.raw(el)[0]
            if kind == "info":
                c.ask("cli", "info", {"argv": ["info", fname(el)], "cmd": "info", "el": el})
            elif kind == "simple":
                c.ask("cli", "simple", {"argv": ["simple", fname(el)], "cmd": "simple", "el": el})
            elif kind == "symmetrizer":
                c.ask("cli", "symmetrizer", {"argv": ["symmetrizer", fname(el)], "cmd": "symmetrizer", "el": el})
            elif kind == "k0-trace":
                z, num, exp = _k0_terms(c, scale)
                argv = ["k0", "trace", "--z=%d" % z, "--x=" + _x_arg(scale, num, exp), fname(el)]
                c.ask("cli", "k0-trace", {"argv": argv, "cmd": "trace"}, expect_trace(c, el, z, num, exp))
            elif kind == "k0-member":
                num, exp = c.qn(scale)
                first = k0_first(scale, c.raw(el)[2], c.rng.randint(-5, 5), num, exp)
                if c.rng.random() < 0.5:
                    first += Fraction(1, c.rng.choice((2, 3, 7)))
                argv = ["k0", "member", "--first=" + wire(first), "--second=" + _x_arg(scale, num, exp), fname(el)]
                c.ask("cli", "k0-member", {"argv": argv, "cmd": "member"}, expect_member(c, el, first, num, exp))
            elif kind == "k0-add":
                a, b = _k0_terms(c, scale), _k0_terms(c, scale)
                argv = ["k0", "add", "--az=%d" % a[0], "--ax=" + _x_arg(scale, *a[1:]),
                        "--bz=%d" % b[0], "--bx=" + _x_arg(scale, *b[1:]), fname(el)]
                c.ask("cli", "k0-add", {"argv": argv, "cmd": "add"}, expect_sum(c, el, [a, b]))
            elif kind == "cohomologous":
                r = c.carrier(scale, c.partner(el, c.rng.random() < 0.5))
                c.ask("cli", "cohomologous", {"argv": ["cohomologous", fname(el), fname(r)], "cmd": "cohomologous"},
                      expect_cohomologous(c, el, r))
            elif kind == "bundle":
                el = periodic_small[c.rng.randrange(len(periodic_small))]
                c.ask("cli", "bundle", {"argv": ["bundle", fname(el)], "cmd": "bundle", "el": el})

    for kind, n in (("info", 8), ("simple", 7), ("symmetrizer", 7), ("k0-trace", 8), ("k0-member", 7),
                    ("k0-add", 8), ("cohomologous", 8), ("bundle", 7)):
        plain(kind, n)

    # iso: thirds at scales 2 and 4 (the README example), shift Yes, No by prime support or
    # by simplicity, Unknown at the default bound.
    for _ in range(3):
        cc = c.rng.choice((1, 2))
        a = c.sequence(2, Fraction(cc, 3), Fraction(-cc, 3))
        b = c.sequence(4, Fraction(cc, 3), Fraction(-cc, 3))
        _iso(c, "iso", a, b, "yes", cli=True)
    for scale in (2, 3, 5):
        head, w = c.aperiodic_values(scale)
        a = c.sequence(scale, head, w)
        b = c.sequence(*shifted((scale, head, w), c.rng.randint(1, 6)))
        _iso(c, "iso", b, a, "yes", cli=True)
    for m, n in ((2, 3), (6, 10)):
        _iso(c, "iso", c.aperiodic(m), c.aperiodic(n), "no", cli=True)
    for m, n in ((2, 4), (6, 12)):
        q = 7 if m == 2 else 13
        _iso(c, "iso", c.periodic(m, q), c.aperiodic(n), "no", cli=True)
    for scale in (2, 3):
        hb = c.rng.randrange(2, 30)
        wd = c.carrier_value(scale).denominator
        a = c.sequence(scale, *c.aperiodic_values(scale, hb, wd))
        b = c.sequence(scale, *c.aperiodic_values(scale, hb, wd))
        _iso(c, "iso", a, b, "open", cli=True)
    for seed in SELFTEST_SEEDS:
        c.ask("cli", "selftest", {"argv": ["selftest", "--seed=%d" % seed], "cmd": "selftest"})
    head, w = c.aperiodic_values(SEMIPRIME)
    a = c.sequence(SEMIPRIME, head, w)
    b = c.sequence(*shifted((SEMIPRIME, head, w), 2))
    _iso(c, "iso-semiprime", b, a, "yes", cli=True, probe=True)


def _iso(c, cls, a, b, truth, bound=32, cli=False, sweep=None, probe=False):
    expect = {"truth": truth, "a": list(c.elements[a]["raw"]), "b": list(c.elements[b]["raw"])}
    if cli:
        argv = ["iso", fname(a), fname(b), "--bound=%d" % bound]
        c.ask("cli", cls, {"argv": argv, "cmd": "iso"}, expect, sweep, probe)
    else:
        c.ask("isomorphic", cls, {"a": a, "b": b, "bound": bound}, expect, sweep, probe)


def build_periodic_invariants(c):
    """Periodic sequences at prime and composite scales.

    Per pass: 36 order queries (classify_type, is_simple, period) at q
    near 1000 with order q / 2 or more, 36 traces and 10 symmetrizers at
    small q, the bundle_data sweep over q = 7 to 62 plus the block of ten
    more at q = 23, and the symmetrizer period sweep, 104 queries; two of
    the traces are on the over-cap slice, whose
    order queries are probes.  p50 falls among the order queries, which
    take 60 to 130 us, clear of the traces at about 10 us, and p90 in the
    middle of the block, with ten queries beyond it.
    """
    scales = PRIME_SCALES + COMPOSITE_SCALES
    light_q = (7, 9, 11, 13, 17, 19, 23, 25, 29, 31, 37, 41, 43, 47, 49)
    light = []
    for i in range(30):
        scale = scales[i % len(scales)]
        q = [q for q in light_q if gcd(q, scale) == 1][i % 7]
        light.append(c.periodic(scale, q))
    ordered = []
    for i in range(24):
        scale = scales[i % len(scales)]
        q = [q for q in ORDER_QS if gcd(q, scale) == 1 and order(scale, q) >= q // 2][i % 3]
        ordered.append(c.periodic(scale, q))
    for j, kind in enumerate(("classify_type", "is_simple", "period") * 12):
        c.ask(kind, kind, {"el": ordered[j % len(ordered)]})
    for i in range(10):
        c.ask("symmetrizer", "symmetrizer", {"el": light[i]})
    for i in range(34):
        el = light[i % len(light)]
        z, num, exp = _k0_terms(c, c.raw(el)[0])
        c.ask("trace", "trace", {"el": el, "z": z, "x": [num, exp]}, expect_trace(c, el, z, num, exp))

    for i, q in enumerate(BUNDLE_SWEEP):
        coprime = [n for n in scales if gcd(n, q) == 1]
        scale = 5 if q == 62 else coprime[i % len(coprime)]
        el = c.periodic(scale, q)
        c.ask("bundle_data", "bundle_data", {"el": el}, sweep=["classify.bundle_data", "q%d" % q, q])
    for scale, cc in BUNDLE_BLOCK:
        el = c.sequence(scale, Fraction(cc, 23), Fraction(-cc, 23))
        c.ask("bundle_data", "bundle_data", {"el": el}, sweep=["classify.bundle_data", "q23", 23])
    for scale, q in SYMMETRIZER_SWEEP:
        el = c.periodic(scale, q)
        c.ask("symmetrizer", "symmetrizer-sweep", {"el": el}, sweep=["multiplier.symmetrizer", "q%d" % q, order(scale, q)])
    for scale, q in OVER_CAP:
        el = c.periodic(scale, q)
        z, num, exp = _k0_terms(c, scale)
        c.ask("trace", "trace", {"el": el, "z": z, "x": [num, exp]}, expect_trace(c, el, z, num, exp))
        for kind in ("classify_type", "is_simple", "period", "symmetrizer"):
            c.ask(kind, "over-cap", {"el": el}, probe=True)


def _shift_pair(c, scale, s, cls, sweep=None, probe=False):
    """A pair built to be isomorphic: an aperiodic sequence and its s-th shift, negated for odd s."""
    head, w = c.aperiodic_values(scale)
    a = c.sequence(scale, head, w)
    moved = shifted((scale, head, w), s)
    if s % 2:
        moved = negated(moved)
    _iso(c, cls, c.sequence(*moved), a, "yes", sweep=sweep, probe=probe)


def build_iso_search(c):
    """isomorphic on five kinds of pair, answers checked against how each pair was built.

    Per pass: 30 shift-related aperiodic pairs (Yes) plus 28 more at scale
    10 and shift 3, 40 unit-related periodic pairs (Yes), 15 unrelated
    aperiodic pairs swept over the bound (truth open), 32 cross-scale or
    cross-support pairs (No), and the large-prime scale sweep (Yes) plus
    ten more at scale 599486.  Probes: the composite-scale unit pairs of
    UNIT_PROBES and one semiprime-scale shift pair.  The two blocks of
    like pairs hold p50 and p90, so neither falls where neighbouring ranks
    differ much in cost and the percentiles do not jump from seed to seed.
    """
    for scale in (2, 3, 5, 6, 10, 12):
        for s in (0, 3, 9, 20, 31):
            _shift_pair(c, scale, s, "shift-yes")
    for _ in range(28):
        _shift_pair(c, 10, 3, "shift-yes")
    for probe, pairs in ((False, UNIT_PAIRS), (True, UNIT_PROBES)):
        for scale, q, u, cc in pairs:
            a = c.sequence(scale, Fraction(cc, q), Fraction(-cc, q))
            cb = (cc * u) % q
            b = c.sequence(scale, Fraction(cb, q), Fraction(-cb, q))
            c.unit_pairs.append((a, b, u, probe))
            _iso(c, "unit-yes", a, b, "yes", probe=probe)
    for scale, bound in UNKNOWN_SWEEP:
        hb = c.rng.randrange(2, 30)
        wd = c.carrier_value(scale).denominator
        a = c.sequence(scale, *c.aperiodic_values(scale, hb, wd))
        b = c.sequence(scale, *c.aperiodic_values(scale, hb, wd))
        _iso(c, "unrelated", a, b, "open", bound, sweep=["classify.isomorphic", "bound%d" % bound, bound])
    for m, n in ((2, 4), (4, 2), (6, 12), (12, 6)):
        for _ in range(2):
            q = 7 if 2 in (m, n) or 4 in (m, n) else 13
            _iso(c, "no", c.periodic(m, q), c.aperiodic(n), "no")
    for m, n in ((2, 3), (6, 10), (5, 7), (12, 15)):
        for _ in range(6):
            _iso(c, "no", c.aperiodic(m), c.aperiodic(n), "no")
    for scale in LARGE_PRIME_SCALES:
        _shift_pair(c, scale, 3, "large-prime", ["classify.isomorphic.scale", "n%d" % scale, scale])
    for _ in range(10):
        _shift_pair(c, 599486, 3, "large-prime")
    _shift_pair(c, SEMIPRIME, 2, "semiprime", probe=True)


def certify_unit_pair(c, a, b, u):
    """Check Theta_b(g, h) == Theta_a(sigma g, sigma h), sigma = diag(u, 1), on a seeded window.

    Multiplication by u = +-prod p**e over primes p of the scale is an
    automorphism of Q_N, so agreement on every pair makes the twisted
    algebras isomorphic (Theta determines the multiplier class, Kleppner
    1965).  Uses the package's multiplier formula, not its classifier.
    """
    from ncsolenoid.multiplier import theta_phase
    from ncsolenoid.nadic import NadicInteger, QnRational
    from ncsolenoid.sequences import AngleSequence

    def build(name):
        scale, head, w = c.raw(name)
        return AngleSequence(scale, head, NadicInteger.from_value(w, scale))

    sa, sb = build(a), build(b)
    scale = sa.modulus
    rng = random.Random("theta:%d:%s:%s" % (c.seed, a, b))

    def qn():
        return QnRational(rng.randint(-60, 60), rng.randint(0, 4), scale)

    for _ in range(THETA_WINDOW):
        g, h = (qn(), qn()), (qn(), qn())
        if theta_phase(sb, g, h) != theta_phase(sa, (g[0].scaled(u), g[1]), (h[0].scaled(u), h[1])):
            raise SystemExit("built unit pair %s, %s fails its Theta certificate" % (a, b))


BUILDERS = {
    "cli-session": build_cli_session,
    "periodic-invariants": build_periodic_invariants,
    "iso-search": build_iso_search,
}


def build(workload, seed):
    """The corpus of one run."""
    c = Corpus(workload, seed)
    BUILDERS[workload](c)
    c.rng.shuffle(c.queries)
    return c


def certify(c, probes):
    """Certify the built unit pairs of a corpus, those of the probes only if asked; untimed, before the run."""
    for a, b, u, probe in c.unit_pairs:
        if probes or not probe:
            certify_unit_pair(c, a, b, u)
