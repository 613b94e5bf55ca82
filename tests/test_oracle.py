import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from ncsolenoid import ktheory, multiplier, nadic, oracle
from ncsolenoid.classify import AngleMatrix, BundleData, bundle_data
from ncsolenoid.cli import main
from ncsolenoid.ktheory import cohomologous, embedding_matrix
from ncsolenoid.nadic import NadicInteger, QnRational
from ncsolenoid.oracle import (
    DEFAULT_SEED,
    FuzzReport,
    _sampler,
    brute_symmetrizer,
    bundle_check,
    coboundary_solve,
    cocycle_fuzz,
    colimit_report,
)
from ncsolenoid.sequences import Angle, AngleSequence


def test_fuzz_report_shape():
    rep = FuzzReport("xi", 10, 7, 40, [])
    assert rep.passed
    blob = rep.to_json()
    assert blob == {
        "kind": "xi",
        "trials": 10,
        "seed": 7,
        "checks": 40,
        "passed": True,
        "failures": [],
    }
    bad = FuzzReport("xi", 1, 7, 4, ["boom"])
    assert not bad.passed


def test_the_fuzz_draws_are_pinned():
    # sampler shapes at N = 3: the fuzzes' (60, 6) and a replay's (40, 7); the draws are
    # lowest-terms pairs (num, exp), and the fault-injection rows name trial indices, so a
    # faster draw path must draw these points; a loop draws its points in one call
    digest = hashlib.sha256()
    for max_num, max_exp in ((60, 6), (40, 7)):
        for seed in (5, 7, DEFAULT_SEED):
            for point in _sampler(random.Random(seed), 3, max_num, max_exp)(600):
                digest.update(b"%d/%d " % point)
    assert digest.hexdigest() == "716e623ea6b7a5ce7018affff926675e8fe4fb409d818d514b6272b0ff6b07e3"


def _reference_point(rng, N, max_num, max_exp):
    """One draw of a point by its definition: randrange for p, then for k, then lowest terms."""
    p, k = rng.randrange(-max_num, max_num + 1), rng.randrange(0, max_exp + 1)
    while k > 0 and p % N == 0:
        p, k = p // N, k - 1
    return p, k


@pytest.mark.parametrize(
    "N, max_num, max_exp",
    [(2, 0, 0), (3, 60, 6), (3, 40, 7), (5, 0, 4), (6, 50, 0), (10, 1, 3), (12, 2**20 + 1, 12)],
)
def test_a_loop_draws_its_points_in_one_call_on_the_per_point_stream(N, max_num, max_exp):
    ours, theirs = random.Random(N * max_exp), random.Random(N * max_exp)
    draw = _sampler(ours, N, max_num, max_exp)
    got = draw(1500) + draw(2) + draw(0) + draw(498)  # 2,000 points, in loops of any size
    assert got == [_reference_point(theirs, N, max_num, max_exp) for _ in range(2000)]
    assert ours.getrandbits(64) == theirs.getrandbits(64)


def test_selftest_checks_its_arguments_once():
    # the fuzzes and replay loops call the unchecked cores on points they drew
    # themselves; the public checks run on what selftest builds, about 3,700
    # check_point calls per selftest before the cores; the bundle row's element
    # is the eighth checked carrier
    names = {nadic.check_point.__code__: "check_point", nadic.check_carrier.__code__: "check_carrier"}
    counts = dict.fromkeys(names.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    out, previous = io.StringIO(), sys.getprofile()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(count)
        try:
            code = main(["selftest", "--seed", "7"])
        finally:
            sys.setprofile(previous)
    golden = Path(__file__).parent / "golden" / "expected" / "selftest_seed_7.out"
    assert (code, out.getvalue()) == (0, golden.read_text())
    assert counts == {"check_point": 2, "check_carrier": 8}


def test_selftest_builds_points_only_for_the_symmetrizer_members():
    # the fuzzes and replays draw and add integer pairs (num, exp); a selftest built
    # 3,125 QnRationals when they drew points, and the cores read only .num and .exp.
    # The brute symmetrizer filters its window as pairs and builds a point per member:
    # at seed 7 its window of 81 numerators at 3 levels holds only the identity
    of, callers = QnRational._of.__func__.__code__, []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is of:
            caller = frame.f_back
            while caller.f_code.co_name.startswith("<"):  # a comprehension's own frame
                caller = caller.f_back
            callers.append(caller.f_code.co_name)

    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(count)
        try:
            code = main(["selftest", "--seed=7"])
        finally:
            sys.setprofile(previous)
    assert code == 0
    assert callers == ["brute_symmetrizer"]


def test_selftest_reads_each_residue_once_per_oracle_call():
    # the oracles' cores read residues from towers built once per call, each level
    # through NadicInteger._at: 64 reads in 8 towers, 24 for the term values and stage
    # matrices, each stage's embedding read once, and one for the cohomologous witness;
    # a selftest made 4,731 reads when every core call read its own, and 106 when the
    # witness replayed itself on two towers of its own
    at, reads = NadicInteger._at.__code__, [0]

    def count(frame, event, arg):
        if event == "call" and frame.f_code is at:
            reads[0] += 1

    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(count)
        try:
            code = main(["selftest", "--seed=7"])
        finally:
            sys.setprofile(previous)
    assert (code, reads[0]) == (0, 89)


# ---------------------------------------------------------------- symmetrizer


def test_brute_symmetrizer_62(five_62):
    pts = brute_symmetrizer(five_62, window_num=130, window_exp=4, spot_checks=500, seed=3)
    coords = {QnRational(0, 0, 5)}
    for k in range(5):
        for n in (62, -62, 124, -124):
            coords.add(QnRational(n, k, 5))
    assert pts == frozenset((x, y) for x in coords for y in coords)


def test_brute_symmetrizer_spot_checks_theta_on_its_members(five_62, monkeypatch):
    # membership reads the terms from value; the spot checks read Theta through
    # multiplier._numerator, so a numerator off by one at level 3 must raise
    honest = multiplier._numerator
    monkeypatch.setattr(
        "ncsolenoid.multiplier._numerator", lambda a, n, b: honest(a, n, b) + (n == 3)
    )
    with pytest.raises(AssertionError, match="^member "):
        brute_symmetrizer(five_62, window_num=130, window_exp=4, spot_checks=2000)


@st.composite
def symmetrizer_windows(draw):
    """A periodic or aperiodic element at N in {2, 3, 5, 6, 10}, a window and spot checks."""
    N = draw(st.sampled_from([2, 3, 5, 6, 10]))
    b = draw(st.sampled_from([b for b in range(1, 131) if gcd(b, N) == 1]))
    head = Fraction(draw(st.integers(0, b - 1)), b)
    value = -head if draw(st.booleans()) else Fraction(draw(st.integers(-99, 99)), b)
    alpha = AngleSequence(N, head, NadicInteger.from_value(value, N))
    return alpha, draw(st.integers(0, 200)), draw(st.integers(0, 4)), draw(st.integers(0, 6))


@given(symmetrizer_windows(), st.integers(0, 2**32))
@example((AngleSequence(5, Fraction(1, 62), NadicInteger.from_value(Fraction(-1, 62), 5)),
          40, 2, 3), 7)  # the selftest's window, smaller than the lcm 62
@example((AngleSequence(10, Fraction(3, 7), NadicInteger.from_value(Fraction(-3, 7), 10)),
          200, 4, 6), 1)
@example((AngleSequence(2, Fraction(0), NadicInteger.from_value(Fraction(5, 3), 2)), 0, 0, 2), 3)
def test_brute_symmetrizer_members_are_the_points_of_the_definition(args, seed):
    # the definition point by point in the window's order: p/N**k (lowest terms) clears when
    # p * alpha_{k+j} is integral for every j <= window_exp; the spot checks pick members in
    # that order, interleaved with two window draws each
    alpha, window_num, window_exp, spot_checks = args
    N = alpha.modulus
    terms = [alpha.value(m) for m in range(2 * window_exp + 1)]
    want = [(p, k) for k in range(window_exp + 1) for p in range(-window_num, window_num + 1)
            if (k == 0 or p % N) and all((p * terms[k + j]).denominator == 1
                                         for j in range(window_exp + 1))]
    assume(len(want) <= 120)  # the answer is the product of the members with themselves
    rng, checked = random.Random(seed), []
    want_checked = [((want[rng.randrange(len(want))], want[rng.randrange(len(want))]),
                     tuple(_reference_point(rng, N, window_num, window_exp) for _ in range(2)))
                    for _ in range(spot_checks)]

    def theta(t, g, h):
        checked.append((g, h))
        return honest(t, g, h)

    honest = oracle._theta_frac
    with mock.patch.object(oracle, "_theta_frac", theta):
        got = brute_symmetrizer(alpha, window_num, window_exp, spot_checks, seed)
    points = [QnRational(p, k, N) for p, k in want]
    assert got == frozenset((x, y) for x in points for y in points)
    assert checked == want_checked


def test_brute_symmetrizer_zero_is_whole_window():
    pts = brute_symmetrizer(AngleSequence.zero(3), window_num=10, window_exp=2, spot_checks=50)
    coords = {(p, k) for k in range(3) for p in range(-10, 11) if p == 0 or p % 3 or k == 0}
    reduced = set()
    for p, k in coords:
        while k and p and p % 3 == 0:
            p, k = p // 3, k - 1
        reduced.add((p, k) if p else (0, 0))
    assert len(pts) == len(reduced) ** 2


def test_brute_symmetrizer_aperiodic_is_origin():
    a = AngleSequence(3, Fraction(1, 2), NadicInteger.iota(0, 3))
    pts = brute_symmetrizer(a, window_num=20, window_exp=4, spot_checks=50)
    assert pts == frozenset({(QnRational(0, 0, 3), QnRational(0, 0, 3))})


# ---------------------------------------------------------------- colimit


def test_colimit_matches(three_half):
    report = colimit_report(three_half, depth=3, num_window=8)
    assert report["match"]
    assert report["stages"] == 4
    assert report["covered"] > 0
    assert report["failures"] == []
    assert colimit_report(three_half, depth=2, num_window=6)["match"]


def test_colimit_stage_image_frozen(three_half):
    # stage 2 sends (0, 1) to its second column (J_4 / 81, 1 / 81) with J_4 = 40
    E = embedding_matrix(three_half, 2)
    assert (E[0][1], E[1][1]) == (Fraction(40, 81), Fraction(1, 81))


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("connecting_matrix", lambda alpha, k: ((1, 5), (0, 9))),
        ("embedding_matrix", lambda alpha, k: ((1, 0), (0, Fraction(1, 9 ** k)))),
    ],
)
def test_colimit_coherence_checks_the_library_stage_matrices(three_half, monkeypatch, name, wrong):
    # three_half has r_k = 4, so either stand-in breaks the identity at stage 0
    assert colimit_report(three_half, depth=2, num_window=4)["match"]
    monkeypatch.setattr("ncsolenoid.oracle." + name, wrong)
    report = colimit_report(three_half, depth=2, num_window=4)
    assert not report["match"]
    assert report["failures"][0] == "mirrored connecting identity fails at stage 0"


def test_colimit_random_carrier():
    rng = random.Random(11)
    d = rng.choice([5, 7, 11])
    carrier = NadicInteger.from_value(Fraction(rng.randint(-20, 20), d), 2)
    a = AngleSequence(2, Fraction(1, 3), carrier)
    assert colimit_report(a, depth=2, num_window=6)["match"]


# ---------------------------------------------------------------- fuzz sweeps


def test_cocycle_fuzz_xi_passes_on_mixed_scales():
    for carrier in (
        NadicInteger.iota(1, 2),
        NadicInteger.iota(-1, 12),
        NadicInteger.from_value(Fraction(-1, 2), 3),
        NadicInteger.from_value(Fraction(3, 7), 10),
    ):
        rep = cocycle_fuzz("xi", carrier, trials=150, seed=9)
        assert rep.passed, rep.failures


def test_cocycle_fuzz_zeta_passes(three_half):
    rep = cocycle_fuzz("zeta", three_half.carrier, trials=150, seed=9)
    assert rep.passed, rep.failures


def test_cocycle_fuzz_psi_passes(five_62):
    rep = cocycle_fuzz("psi_bichar", five_62, trials=60, seed=9)
    assert rep.passed, rep.failures


def test_cocycle_fuzz_validates_inputs(three_half):
    with pytest.raises(TypeError):
        cocycle_fuzz("xi", three_half)
    with pytest.raises(TypeError):
        cocycle_fuzz("psi_bichar", three_half.carrier)
    with pytest.raises(ValueError):
        cocycle_fuzz("nope", three_half.carrier)


# ---------------------------------------------------------------- coboundary solve


def test_coboundary_solve_agrees_with_direct_route():
    J, R = NadicInteger.iota(5, 3), NadicInteger.iota(0, 3)
    solved = coboundary_solve(J, R, seed=4)
    direct = cohomologous(J, R)
    assert solved is not None
    assert solved.table == {k: direct.table[k] for k in solved.table}


def test_coboundary_solve_refuses_a_candidate_its_replay_fails(monkeypatch, capsys):
    # xi_J exact at the digit points (1/N**d, (N-1)/N**d) and 1 off at unequal exponents (J's
    # tower has J_1 = 2, R's is zero): the digits give a candidate, and its replay refutes it
    J, R = NadicInteger.iota(5, 3), NadicInteger.iota(0, 3)
    xi = oracle._xi
    monkeypatch.setattr(oracle, "_xi", lambda T, x, y: xi(T, x, y) + (x[1] != y[1] and T[1][1] > 0))
    assert coboundary_solve(J, R) is None
    assert main(["selftest"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["passed"] for r in reports if r["kind"] == "coboundary"] == [False]


def test_coboundary_solve_none_case():
    J = NadicInteger.from_value(Fraction(-1, 2), 3)
    assert coboundary_solve(J, NadicInteger.iota(0, 3)) is None


@pytest.mark.parametrize(
    "J, R, psi1",
    [
        # a fixed 8 digits gave candidates -22, 42, 42 at the last three depths: no answer
        pytest.param(-439883, -439841, 42, id="integer-gap-read-too-shallow"),
        # 8 digits passed psi(1) = 27, where J - R is no integer
        pytest.param(Fraction(20, 13), 9343, None, id="false-pass"),
        # 8 digits gave psi(1) = 30
        pytest.param(-4394, -12, 4382, id="wrong-psi1"),
        # J - R = 256/3 is 0 mod 2**8, so 8 digits saw only zeros; it takes 19
        pytest.param(Fraction(256, 3), 0, None, id="256/3"),
    ],
)
def test_coboundary_solve_reads_the_digits_the_heights_require(J, R, psi1):
    J, R = NadicInteger.from_value(J, 2), NadicInteger.from_value(R, 2)
    for witness in (cohomologous(J, R), coboundary_solve(J, R)):
        assert (witness if witness is None else witness.psi1()) == psi1


def test_coboundary_solve_agrees_with_cohomologous_on_seeded_carrier_pairs():
    # 2,000 pairs with numerators up to 10**6 over denominators prime to N, about half of
    # them an integer apart; reading a fixed 8 digits disagreed on 242 of them.  The two
    # tables must agree on every level both hold, not only at psi(1)
    rng = random.Random(DEFAULT_SEED)
    dens, disagree = (1, 7, 11, 13), []
    for _ in range(2000):
        N = rng.choice((2, 3, 5, 6, 10))
        J = Fraction(rng.randint(-10**6, 10**6), rng.choice(dens))
        if rng.randint(0, 1):
            R = J - rng.randint(-50, 50)
        else:
            R = Fraction(rng.randint(-10**6, 10**6), rng.choice(dens))
        J, R = NadicInteger.from_value(J, N), NadicInteger.from_value(R, N)
        got = [w if w is None else w.table for w in (coboundary_solve(J, R), cohomologous(J, R))]
        if None not in got:  # the tables on every level both hold
            got = [[t[k] for k in range(min(map(len, got)))] for t in got]
        if got[0] != got[1]:
            disagree.append((J, R, got))
    assert disagree == []


def test_selftest_fails_on_a_witness_off_at_a_deeper_level(monkeypatch):
    # right at level 0 and off by one at level 3: a row comparing psi(1) alone passed it
    honest = ktheory.cohomologous

    def off(J, R, depth=8):
        psi = honest(J, R, depth)
        return ktheory.GeneratorCochain(psi.modulus, {**psi.table, 3: psi.table[3] + 1})

    monkeypatch.setattr("ncsolenoid.ktheory.cohomologous", off)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["selftest", "--seed=7"])
    failed = [r["kind"] for r in json.loads(out.getvalue())["reports"] if not r["passed"]]
    assert (code, failed) == (1, ["coboundary"])


def test_coboundary_solve_reflexive(three_half):
    psi = coboundary_solve(three_half.carrier, three_half.carrier)
    assert psi is not None
    assert all(v == 0 for v in psi.table.values())


def test_coboundary_solve_random_integer_pairs():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(10):
        a, b = rng.randint(-15, 15), rng.randint(-15, 15)
        psi = coboundary_solve(NadicInteger.iota(a, 5), NadicInteger.iota(b, 5))
        assert psi is not None and psi.psi1() == b - a


# ---------------------------------------------------------------- bundle check


#: (q, p) with 1 <= q <= 40 and p a unit mod q, the head p/q of a periodic element.
small_heads = st.integers(1, 40).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(0, q - 1).filter(lambda p: gcd(p, q) == 1))
)


@given(small_heads)
@example((1, 0))
def test_bundle_check_passes_what_bundle_data_builds(pair):
    q, p = pair
    N = next(n for n in (2, 3, 5, 7) if q % n)
    head = Fraction(p, q)
    alpha = AngleSequence(N, head, NadicInteger.from_value(-head, N))
    assert bundle_check(alpha, bundle_data(alpha)) == []


def _forged(data, **fields):
    """A hand-built BundleData: the fields of data, some replaced."""
    names = ("q", "p", "k", "lam", "u", "v", "base_label")
    return BundleData(*(fields.get(name, getattr(data, name)) for name in names))


def test_bundle_check_names_each_wrong_field(thirds_2):
    data = bundle_data(thirds_2)
    printed = data.u.to_json()
    two_phases = SimpleNamespace(to_json=lambda: [["0", "0", None]] + printed[1:])
    wide = SimpleNamespace(to_json=lambda: [row + [None] for row in printed])  # 3 x 4
    unparsed = SimpleNamespace(to_json=lambda: [[e and "1/x" for e in printed[0]]] + printed[1:])
    for fields, failure in [
        ({"k": 1}, "k is not the least k >= 1 with alpha_k = alpha_0"),
        ({"k": 4}, "k is not the least k >= 1 with alpha_k = alpha_0"),  # a period, not the least
        ({"lam": Angle(Fraction(2, 3))}, "lam is not e(alpha_0)"),
        ({"q": 4}, "p/q is not alpha_0 in lowest terms"),
        ({"u": two_phases}, "u is not q x q with one phase per row"),
        ({"u": wide}, "u is not q x q with one phase per row"),
        ({"u": unparsed}, "u is not q x q with one phase per row"),
        ({"v": AngleMatrix.cyclic(4)}, "v is not q x q with one phase per row"),
    ]:
        assert bundle_check(thirds_2, _forged(data, **fields)) == [failure]
    # nothing but the printed matrices is read
    printed_only = {name: SimpleNamespace(to_json=getattr(data, name).to_json) for name in "uv"}
    assert bundle_check(thirds_2, _forged(data, **printed_only)) == []


# ---------------------------------------------------------------- colimit fault injection


def test_colimit_report_at_depth_6_with_the_default_windows(three_half):
    assert colimit_report(three_half) == {
        "match": True,
        "stages": 7,
        "stage_points": 1009,
        "covered": 637,
        "checks": 1658,
        "failures": [],
    }


def test_colimit_report_at_a_composite_scale():
    a = AngleSequence(6, Fraction(1, 5), NadicInteger.from_value(Fraction(7, 11), 6))
    assert colimit_report(a, depth=3, num_window=4) == {
        "match": True,
        "stages": 4,
        "stage_points": 193,
        "covered": 63,
        "checks": 262,
        "failures": [],
    }


def test_colimit_nesting_fails_on_a_wrong_stage_digit(three_half, monkeypatch):
    # three_half has r_k = 4; nesting is the (0, 1) entry of the coherence identity,
    # so a stand-in digit 5 in the connecting matrix breaks it at the one stage
    monkeypatch.setattr("ncsolenoid.ktheory.r_digit", lambda alpha, k: 5)
    report = colimit_report(three_half, depth=1, num_window=1)
    assert report == {
        "match": False,
        "stages": 2,
        "stage_points": 13,
        "covered": 9,
        "checks": 24,
        "failures": ["mirrored connecting identity fails at stage 0"],
    }


class _OffAtFive(NadicInteger):
    """A carrier whose residue at level 5 is off by one, on every read path."""

    __slots__ = ()

    def _at(self, k):
        return super()._at(k) + (k == 5)


def test_colimit_membership_and_coverage_fail_on_a_wrong_residue():
    a = AngleSequence(3, Fraction(1, 2), _OffAtFive(3, value=Fraction(-1, 2)))
    report = colimit_report(a, depth=3, num_window=1)
    assert report == {
        "match": False,
        "stages": 4,
        "stage_points": 25,
        "covered": 19,
        "checks": 52,
        "failures": [
            "mirrored connecting identity fails at stage 2",
            "stage 3 point (0, -3) misses K0",
            "stage 3 point (0, 3) misses K0",
            "K0 point (-122/243, -1/243) has no stage preimage",
            "K0 point (122/243, 1/243) has no stage preimage",
        ],
    }


def test_the_xi_fuzz_reads_its_tower_through_the_residue_read():
    report = cocycle_fuzz("xi", _OffAtFive(3, value=Fraction(-1, 2)), trials=8, seed=5)
    assert report.failures == ["pairing-lift route disagrees at trial %d" % t for t in (1, 2, 5, 6)]


# ---------------------------------------------------------------- fuzz fault injection
#
# Each stand-in is wrong on one class of inputs; the fuzz must name every
# trial where one of its laws sees the fault.  The lists are pinned, so a
# fuzz that reuses one value across its checks cannot blind any of them.

# The stand-ins take what the cores take: points as lowest-terms pairs (num, exp),
# and points of (Q_N)**2 as pairs of them.

HALF = Fraction(1, 2)


def _frac(pair, plus):
    """num/den + plus as an integer pair (num, den), the return form of the integer cores."""
    value = Fraction(*pair) + plus
    return value.numerator, value.denominator


FUZZ_FAULTS = [
    pytest.param(
        "_xi", lambda J, x, y: ktheory._xi(J, x, y) + (x[0] > 0 > y[0]), "xi",
        ["cocycle identity fails at trial 2", "symmetry fails at trial 5",
         "cocycle identity fails at trial 5", "pairing-lift route disagrees at trial 5",
         "symmetry fails at trial 6", "cocycle identity fails at trial 6",
         "symmetry fails at trial 7", "cocycle identity fails at trial 7"],
        id="xi-asymmetric",
    ),
    pytest.param(
        "_xi", lambda J, x, y: ktheory._xi(J, x, y) + (x[1] == y[1] > 0), "xi",
        ["cocycle identity fails at trial 0", "pairing-lift route disagrees at trial 0",
         "pairing-lift route disagrees at trial 1"],
        id="xi-equal-levels",
    ),
    pytest.param(
        "_xi", lambda J, x, y: ktheory._xi(J, x, y) + (y[0] == 0), "xi",
        ["normalisation fails at trial %d" % t for t in range(4)]
        + ["symmetry fails at trial 4", "cocycle identity fails at trial 4"]
        + ["normalisation fails at trial %d" % t for t in range(4, 8)],
        id="xi-at-zero",
    ),
    pytest.param(
        "_xi", lambda J, x, y: ktheory._xi(J, x, y) + (x[1] == y[1] > 0), "zeta",
        ["zeta + d(-mu) != xi at trial 0", "zeta + d(-mu) != xi at trial 1"],
        id="zeta-fuzz-xi-equal-levels",
    ),
    pytest.param(
        "_zeta", lambda J, x, y: ktheory._zeta(J, x, y) ^ (x[1] == 0), "zeta",
        ["zeta disagrees with its carry form at trial 4", "zeta + d(-mu) != xi at trial 4",
         "zeta disagrees with its carry form at trial 6", "zeta + d(-mu) != xi at trial 6",
         "zeta disagrees with its carry form at trial 7", "zeta + d(-mu) != xi at trial 7"],
        id="zeta-flipped-at-level-0",
    ),
    pytest.param(
        "_zeta", lambda J, x, y: ktheory._zeta(J, x, y) * (1 + (x[0] < 0)), "zeta",
        ["zeta out of range at trial 3", "zeta disagrees with its carry form at trial 3",
         "zeta + d(-mu) != xi at trial 3"],
        id="zeta-out-of-range",
    ),
    pytest.param(
        "_theta_frac",
        lambda a, g, h: _frac(multiplier._theta_frac(a, g, h), HALF if g[0][1] > h[0][1] else 0),
        "psi_bichar",
        ["theta not antisymmetric at trial 0", "theta not antisymmetric at trial 1",
         "theta not additive in slot 2 at trial 1", "theta not antisymmetric at trial 2",
         "theta not antisymmetric at trial 4", "theta not additive in slot 1 at trial 4",
         "theta not additive in slot 2 at trial 4", "theta not antisymmetric at trial 5"],
        id="theta-level-ordered",
    ),
    pytest.param(
        "_theta_frac",
        lambda a, g, h: _frac(multiplier._theta_frac(a, g, h), HALF if g == h else 0),
        "psi_bichar",
        ["theta not alternating at trial %d" % t for t in range(6)],
        id="theta-on-the-diagonal",
    ),
    pytest.param(
        "_bichar_frac",
        lambda z, x, e, c, g, h: _frac(
            multiplier._bichar_frac(z, x, e, c, g, h), Fraction(g[1][0] % 2, 3)
        ),
        "psi_bichar",
        ["psi disagrees with its bicharacter form at trial %d" % t for t in (1, 2, 3)],
        id="bicharacter-odd-second-numerator",
    ),
]


@pytest.mark.parametrize("name, wrong, kind, failures", FUZZ_FAULTS)
def test_cocycle_fuzz_names_every_trial_a_wrong_formula_fails(
    three_half, five_62, monkeypatch, name, wrong, kind, failures
):
    subject, trials = (five_62, 6) if kind == "psi_bichar" else (three_half.carrier, 8)
    honest = cocycle_fuzz(kind, subject, trials=trials, seed=5)
    monkeypatch.setattr("ncsolenoid.oracle." + name, wrong)
    report = cocycle_fuzz(kind, subject, trials=trials, seed=5)
    assert honest.passed and not report.passed
    assert report.checks == honest.checks == trials * {"xi": 4, "zeta": 3, "psi_bichar": 5}[kind]
    assert report.failures == failures


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda a: colimit_report(a, depth=-1), "depth", id="colimit-depth"),
        pytest.param(lambda a: colimit_report(a, depth=0, num_window=-3), "num_window",
                     id="colimit-num_window"),
        pytest.param(lambda a: cocycle_fuzz("xi", a.carrier, trials=-5), "trials", id="xi-trials"),
        pytest.param(lambda a: cocycle_fuzz("zeta", a.carrier, trials=0), "trials",
                     id="zeta-trials-0"),
        pytest.param(lambda a: brute_symmetrizer(a, window_num=-1, window_exp=-1), "window_num",
                     id="symmetrizer-windows"),
        pytest.param(lambda a: brute_symmetrizer(a, window_exp=-1), "window_exp",
                     id="symmetrizer-window_exp"),
        pytest.param(lambda a: brute_symmetrizer(a, spot_checks=-1), "spot_checks",
                     id="symmetrizer-spot_checks"),
    ],
)
def test_oracle_sizes_that_would_check_nothing_raise_and_name_the_argument(three_half, call, name):
    # each of these once reported a pass with 0 checks, or died with IndexError
    with pytest.raises(ValueError, match="^%s must be at least" % name):
        call(three_half)


def test_oracle_sizes_at_their_least_still_check(three_half):
    a = three_half
    report = colimit_report(a, depth=0, num_window=0)
    assert report["match"] and report["checks"] == 2
    assert len(brute_symmetrizer(a, window_num=0, window_exp=0, spot_checks=0)) == 1
    assert cocycle_fuzz("xi", a.carrier, trials=1).checks == 4
