import random
from fractions import Fraction

import pytest

from ncsolenoid.ktheory import cohomologous, embedding_matrix
from ncsolenoid.nadic import NadicInteger, QnRational
from ncsolenoid.oracle import (
    DEFAULT_SEED,
    FuzzReport,
    brute_symmetrizer,
    coboundary_solve,
    cocycle_fuzz,
    colimit_compare,
    colimit_report,
    sample_qn,
)
from ncsolenoid.sequences import AngleSequence


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


def test_sample_qn_is_reduced_and_deterministic():
    a = [sample_qn(random.Random(3), 6, 50, 4) for _ in range(5)]
    b = [sample_qn(random.Random(3), 6, 50, 4) for _ in range(5)]
    assert a == b
    for x in a:
        assert x.num == 0 or x.num % 6 or x.exp == 0


# ---------------------------------------------------------------- symmetrizer


def test_brute_symmetrizer_62(five_62):
    pts = brute_symmetrizer(five_62, window_num=130, window_exp=4, spot_checks=500, seed=3)
    coords = {QnRational(0, 0, 5)}
    for k in range(5):
        for n in (62, -62, 124, -124):
            coords.add(QnRational(n, k, 5))
    assert pts == frozenset((x, y) for x in coords for y in coords)


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
    report = colimit_report(three_half, depth=3, num_window=8, int_window=3)
    assert report["match"]
    assert report["stages"] == 4
    assert report["covered"] > 0
    assert report["failures"] == []
    assert colimit_compare(three_half, depth=2, num_window=6, int_window=2)


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
    assert colimit_report(three_half, depth=2, num_window=4, int_window=1)["match"]
    monkeypatch.setattr("ncsolenoid.oracle." + name, wrong)
    report = colimit_report(three_half, depth=2, num_window=4, int_window=1)
    assert not report["match"]
    assert report["failures"][0] == "mirrored connecting identity fails at stage 0"


def test_colimit_random_carrier():
    rng = random.Random(11)
    d = rng.choice([5, 7, 11])
    carrier = NadicInteger.from_value(Fraction(rng.randint(-20, 20), d), 2)
    a = AngleSequence(2, Fraction(1, 3), carrier)
    assert colimit_compare(a, depth=2, num_window=6, int_window=2)


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
    direct = cohomologous(J, R, seed=4)
    assert solved is not None
    assert solved.table == {k: direct.table[k] for k in solved.table}


def test_coboundary_solve_none_case():
    J = NadicInteger.from_value(Fraction(-1, 2), 3)
    assert coboundary_solve(J, NadicInteger.iota(0, 3)) is None


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


# ---------------------------------------------------------------- colimit fault injection


def test_colimit_report_at_depth_6_with_the_default_windows(three_half):
    assert colimit_report(three_half) == {
        "match": True,
        "stages": 7,
        "stage_points": 12937,
        "covered": 8281,
        "checks": 21482,
        "failures": [],
    }


def test_colimit_report_at_a_composite_scale():
    a = AngleSequence(6, Fraction(1, 5), NadicInteger.from_value(Fraction(7, 11), 6))
    assert colimit_report(a, depth=3, num_window=4, int_window=2) == {
        "match": True,
        "stages": 4,
        "stage_points": 965,
        "covered": 315,
        "checks": 1298,
        "failures": [],
    }


def test_colimit_nesting_fails_on_a_wrong_stage_digit(three_half, monkeypatch):
    # three_half has r_k = 4; a stand-in digit 5 breaks every nesting step
    monkeypatch.setattr("ncsolenoid.oracle.r_digit", lambda alpha, k: 5)
    report = colimit_report(three_half, depth=1, num_window=1, int_window=0)
    assert report == {
        "match": False,
        "stages": 2,
        "stage_points": 13,
        "covered": 9,
        "checks": 24,
        "failures": [
            "stage 0 point (0, -3) not nested",
            "stage 0 point (0, -2) not nested",
            "stage 0 point (0, -1) not nested",
            "stage 0 point (0, 1) not nested",
            "stage 0 point (0, 2) not nested",
            "stage 0 point (0, 3) not nested",
        ],
    }


class _OffAtFive(NadicInteger):
    """A carrier whose residue at level 5 is off by one."""

    __slots__ = ()

    def at(self, k):
        return super().at(k) + (k == 5)


def test_colimit_membership_and_coverage_fail_on_a_wrong_residue():
    a = AngleSequence(3, Fraction(1, 2), _OffAtFive(3, value=Fraction(-1, 2)))
    report = colimit_report(a, depth=3, num_window=1, int_window=0)
    assert report == {
        "match": False,
        "stages": 4,
        "stage_points": 25,
        "covered": 19,
        "checks": 52,
        "failures": [
            "mirrored connecting identity fails at stage 2",
            "stage 2 point (0, -3) not nested",
            "stage 2 point (0, -2) not nested",
            "stage 2 point (0, -1) not nested",
            "stage 2 point (0, 1) not nested",
            "stage 2 point (0, 2) not nested",
            "stage 2 point (0, 3) not nested",
            "stage 3 point (0, -3) misses K0",
            "stage 3 point (0, 3) misses K0",
            "K0 point (-122/243, -1/243) has no stage preimage",
        ],
    }
