"""The ten headline checks, one test each, exact arithmetic throughout.

Each test prints a single PASS line (visible under pytest -s) and
enforces its own time budget where one is stated.
"""

import random
import time
from fractions import Fraction

from ncsolenoid.classify import bundle_data, isomorphic, prime_case_isomorphic, replay_witness
from ncsolenoid.ktheory import (
    ExtensionElement,
    KPairElement,
    as_extension,
    as_pair,
    coboundary,
    cohomologous,
    trace,
    xi_cocycle,
)
from ncsolenoid.multiplier import Symmetrizer, is_simple, symmetrizer, theta_phase
from ncsolenoid.nadic import NadicInteger, QnRational
from ncsolenoid.oracle import brute_symmetrizer, cocycle_fuzz, colimit_report
from ncsolenoid.classify import AngleMatrix
from ncsolenoid.sequences import Angle, AngleSequence

SEED = 20260817


def _point(rng, m, e):
    """A point p / 3**k of Q_3 with |p| <= m and k <= e, drawn p first."""
    return QnRational(rng.randrange(-m, m + 1), rng.randrange(0, e + 1), 3)


def _elapsed(t0):
    return time.monotonic() - t0


def test_criterion_01_symmetrizer_62():
    t0 = time.monotonic()
    a = AngleSequence(5, Fraction(1, 62), NadicInteger.from_value(Fraction(-1, 62), 5))
    assert symmetrizer(a) == Symmetrizer.scaled_lattice(62)
    pts = brute_symmetrizer(a, window_num=130, window_exp=4, spot_checks=2000, seed=SEED)
    coords = {QnRational(0, 0, 5)}
    for k in range(5):
        for mult in (62, -62, 124, -124):
            coords.add(QnRational(mult, k, 5))
    assert pts == frozenset((x, y) for x in coords for y in coords)
    took = _elapsed(t0)
    assert took < 10
    print("[criterion 01] PASS symmetrizer 62 lattice, brute window exact (%.2fs)" % took)


def test_criterion_02_theta_parity():
    t0 = time.monotonic()
    a = AngleSequence.constant(3, Fraction(1, 2))
    rng = random.Random(SEED)
    half = Angle(Fraction(1, 2))
    for _ in range(200):
        g = (_point(rng, 60, 5), _point(rng, 60, 5))
        h = (_point(rng, 60, 5), _point(rng, 60, 5))
        got = theta_phase(a, g, h)
        parity = (g[0].num * h[1].num - g[1].num * h[0].num) % 2
        assert got == (half if parity else Angle(0))
        assert got.value in (0, Fraction(1, 2))
    took = _elapsed(t0)
    assert took < 1
    print("[criterion 02] PASS theta parity rule on 200 pairs (%.2fs)" % took)


def test_criterion_03_trivial_and_simple():
    for n in (2, 3, 5):
        a = AngleSequence(n, 0, NadicInteger.iota(1, n))
        assert symmetrizer(a) == Symmetrizer.trivial()
        assert is_simple(a)
    print("[criterion 03] PASS trivial symmetrizer and simplicity for N in {2, 3, 5}")


def _carrier_suite(n):
    out = [NadicInteger.iota(0, n), NadicInteger.iota(1, n), NadicInteger.iota(-1, n)]
    if n % 2:
        out.append(NadicInteger.from_value(Fraction(-1, 2), n))
    return out


def test_criterion_04_xi_cocycle_suite():
    t0 = time.monotonic()
    configs = 0
    for n in (2, 3, 6, 10, 12):
        for J in _carrier_suite(n):
            rep = cocycle_fuzz("xi", J, trials=1000, seed=SEED)
            assert rep.passed, rep.failures
            configs += 1
    took = _elapsed(t0)
    assert took < 5
    print(
        "[criterion 04] PASS xi symmetry and cocycle law, 1000 triples x %d configs (%.2fs)"
        % (configs, took)
    )


def test_criterion_05_zeta_relation():
    configs = 0
    for n in (2, 3, 6, 10, 12):
        for J in _carrier_suite(n):
            rep = cocycle_fuzz("zeta", J, trials=500, seed=SEED)
            assert rep.passed, rep.failures
            configs += 1
    print("[criterion 05] PASS zeta + d(-mu) = xi, 500 pairs x %d configs" % configs)


def test_criterion_06_omega_and_trace():
    a = AngleSequence.constant(3, Fraction(1, 2))
    rng = random.Random(SEED)
    inputs = set()
    images = set()
    for _ in range(200):
        e = ExtensionElement(a, rng.randint(-40, 40), _point(rng, 40, 6))
        f = ExtensionElement(a, rng.randint(-40, 40), _point(rng, 40, 6))
        # homomorphism, exact roundtrip both ways
        assert as_pair(e + f) == as_pair(e) + as_pair(f)
        assert as_extension(as_pair(e)) == e
        inputs.add((e.z, e.x))
        images.add((as_pair(e).first, as_pair(e).second))
        # additivity of the trace lift
        assert trace(e + f) == trace(e) + trace(f)
    # injective on the sample (surjective onto K0 points by the roundtrip)
    assert len(images) == len(inputs)
    for k in range(11):
        point = KPairElement(a, Fraction(a.carrier.at(k), 3**k), QnRational(1, k, 3))
        assert trace(as_extension(point)) == a.value(k)
    print("[criterion 06] PASS omega homomorphism, bijection sample, trace lift values")


def test_criterion_07_colimit_depth_6():
    t0 = time.monotonic()
    assert colimit_report(AngleSequence.constant(3, Fraction(1, 2)), depth=6)["match"]
    rng = random.Random(SEED)
    for n in (2, 5):
        d = rng.choice([q for q in (3, 7, 11, 13) if q % n])
        carrier = NadicInteger.from_value(Fraction(rng.randint(-30, 30), d), n)
        a = AngleSequence(n, Fraction(rng.randint(0, 5), 7), carrier)
        assert colimit_report(a, depth=6)["match"]
    took = _elapsed(t0)
    assert took < 30
    print("[criterion 07] PASS colimit oracle at depth 6, three carriers (%.2fs)" % took)


def test_criterion_08_classification():
    a2 = AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))
    a4 = AngleSequence.constant(4, Fraction(1, 3))
    yes = isomorphic(a2, a4, bound=16)
    assert yes.is_yes
    assert replay_witness(a2, a4, yes)

    b = AngleSequence(2, Fraction(1, 5), NadicInteger.from_value(Fraction(-1, 5), 2))
    assert b.period() == 4
    assert isomorphic(a2, b, bound=16).is_no

    half3 = AngleSequence.constant(3, Fraction(1, 2))
    for seq, q in ((half3, 1), (b, 1), (b, 3)):
        verdict = prime_case_isomorphic(seq, seq.shift(q), bound=8)
        assert verdict.is_yes and "shift" in verdict.witness
        assert replay_witness(seq, seq.shift(q), verdict)
    print("[criterion 08] PASS cross-scale Yes with replay, denominator No, shift pairs Yes")


def test_criterion_09_cohomologous_grid():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    pairs = [(_point(rng, 50, 5), _point(rng, 50, 5)) for _ in range(20)]
    for a in range(-20, 21):
        for b in range(-20, 21):
            J, R = NadicInteger.iota(a, 3), NadicInteger.iota(b, 3)
            psi = cohomologous(J, R, depth=6)
            assert psi is not None
            assert psi.psi1() == b - a
            for x, y in pairs:  # the witness replays: xi_J - xi_R = d(psi)
                assert xi_cocycle(J, x, y) - xi_cocycle(R, x, y) == coboundary(psi, x, y)
    none = cohomologous(NadicInteger.from_value(Fraction(-1, 2), 3), NadicInteger.iota(0, 3))
    assert none is None
    took = _elapsed(t0)
    print("[criterion 09] PASS witness grid 41 x 41 with replay, plus the none case (%.2fs)" % took)


def test_criterion_10_bundle_data():
    a2 = AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))
    data = bundle_data(a2)
    assert (data.q, data.k) == (3, 2)
    assert data.lam == Angle(Fraction(1, 3))
    assert data.v @ data.u == (data.u @ data.v).scaled(data.lam)
    assert data.u**3 == AngleMatrix.identity(3)
    assert data.v**3 == AngleMatrix.identity(3)

    five = AngleSequence(5, Fraction(1, 62), NadicInteger.from_value(Fraction(-1, 62), 5))
    data5 = bundle_data(five)
    assert (data5.q, data5.k) == (62, 3)
    print("[criterion 10] PASS bundle data q=3 k=2 lambda=1/3 with relations, and q=62 k=3")
