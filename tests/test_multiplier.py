from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ncsolenoid.multiplier import (
    SequenceKind,
    Symmetrizer,
    bicharacter,
    classify_type,
    is_simple,
    psi_phase,
    symmetrizer,
    theta_phase,
)
from ncsolenoid.nadic import NadicInteger, QnRational
from ncsolenoid.oracle import brute_symmetrizer
from ncsolenoid.sequences import Angle, AngleSequence


def qn_pairs(scale):
    coord = st.builds(
        QnRational,
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=0, max_value=4),
        st.just(scale),
    )
    return st.tuples(coord, coord)


# ---------------------------------------------------------------- phases


def test_psi_phase_frozen(three_half):
    g = (QnRational(1, 1, 3), QnRational(0, 0, 3))
    h = (QnRational(0, 0, 3), QnRational(1, 1, 3))
    assert psi_phase(three_half, g, h) == Angle(Fraction(1, 2))
    assert psi_phase(three_half, h, g) == Angle(0)
    assert theta_phase(three_half, g, h) == Angle(Fraction(1, 2))


def test_theta_parity_rule(three_half):
    # constant 1/2 makes Theta depend only on the parity of p1 p4 - p2 p3
    g = (QnRational(3, 1, 3), QnRational(2, 0, 3))
    h = (QnRational(1, 2, 3), QnRational(5, 1, 3))
    p = 3 * 5 - 2 * 1
    assert theta_phase(three_half, g, h) == Angle(Fraction(p % 2, 2))


@given(qn_pairs(3), qn_pairs(3), qn_pairs(3))
def test_theta_is_a_skew_bicharacter(g, h, f):
    a = AngleSequence.constant(3, Fraction(1, 2))
    t = theta_phase
    assert t(a, g, h) == -t(a, h, g)
    assert t(a, g, g) == Angle(0)
    gh = (g[0] + h[0], g[1] + h[1])
    assert t(a, gh, f) == t(a, g, f) + t(a, h, f)


@given(qn_pairs(5), qn_pairs(5))
def test_psi_equals_single_corner_bicharacter(g, h):
    a = AngleSequence(5, Fraction(1, 62), NadicInteger.from_value(Fraction(-1, 62), 5))
    z = AngleSequence.zero(5)
    assert bicharacter(z, a, z, z, g, h) == psi_phase(a, g, h)


def test_phase_input_validation(three_half):
    with pytest.raises(ValueError):
        psi_phase(three_half, (QnRational(1, 0, 2), QnRational(0, 0, 2)), (QnRational(0, 0, 2), QnRational(0, 0, 2)))
    with pytest.raises(ValueError):
        psi_phase(three_half, (1, 2), (3, 4))


# ---------------------------------------------------------------- symmetrizer


def test_symmetrizer_variants(five_62, three_half, thirds_2, fifths_2):
    assert symmetrizer(five_62) == Symmetrizer.scaled_lattice(62)
    assert symmetrizer(three_half) == Symmetrizer.scaled_lattice(2)
    assert symmetrizer(thirds_2) == Symmetrizer.scaled_lattice(3)
    assert symmetrizer(fifths_2) == Symmetrizer.scaled_lattice(5)
    assert symmetrizer(AngleSequence.zero(7)) == Symmetrizer.full()
    trivial = AngleSequence(3, Fraction(1, 2), NadicInteger.iota(0, 3))
    assert symmetrizer(trivial) == Symmetrizer.trivial()


@st.composite
def periodic_seqs(draw):
    n = draw(st.sampled_from([2, 3, 5, 6, 10, 12]))
    q = draw(st.integers(min_value=1, max_value=60).filter(lambda q: gcd(q, n) == 1))
    head = Fraction(draw(st.integers(min_value=0, max_value=q - 1)), q)
    return AngleSequence(n, head, NadicInteger.from_value(-head, n))


@given(periodic_seqs())
def test_symmetrizer_scale_is_the_lcm_over_one_period(a):
    b = 1
    for n in range(a.period()):
        d = a.value(n).denominator
        b = b * d // gcd(b, d)
    expected = Symmetrizer.full() if b == 1 else Symmetrizer.scaled_lattice(b)
    assert symmetrizer(a) == expected


def test_symmetrizer_holds_brute_points_at_a_composite_scale():
    a = AngleSequence.constant(12, Fraction(1, 7))
    described = symmetrizer(a)
    assert described == Symmetrizer.scaled_lattice(7)
    pts = brute_symmetrizer(a, window_num=20, window_exp=3, spot_checks=200, seed=5)
    assert all(described.contains(g) for g in pts)
    assert (QnRational(7, 0, 12), QnRational(-7, 2, 12)) in pts
    assert (QnRational(1, 0, 12), QnRational(0, 0, 12)) not in pts


def test_symmetrizer_contains():
    s = Symmetrizer.scaled_lattice(62)
    assert s.contains((QnRational(124, 3, 5), QnRational(0, 0, 5)))
    assert not s.contains((QnRational(2, 1, 5), QnRational(62, 0, 5)))
    assert Symmetrizer.trivial().contains((QnRational(0, 0, 5), QnRational(0, 0, 5)))
    assert not Symmetrizer.trivial().contains((QnRational(1, 0, 5), QnRational(0, 0, 5)))
    assert Symmetrizer.full().contains((QnRational(7, 2, 5), QnRational(-3, 1, 5)))


def test_symmetrizer_validation():
    with pytest.raises(ValueError):
        Symmetrizer("ScaledLattice", 1)
    with pytest.raises(ValueError):
        Symmetrizer("Full", 3)
    with pytest.raises(ValueError):
        Symmetrizer("Lattice")


def test_symmetrizer_json():
    assert Symmetrizer.scaled_lattice(62).to_json() == {"variant": "ScaledLattice", "b": 62}
    assert Symmetrizer.trivial().to_json() == {"variant": "Trivial"}
    assert Symmetrizer.full().to_json() == {"variant": "Full"}


def test_symmetrizer_matches_brute_on_small_windows(thirds_2, fifths_2):
    for seq, b in ((thirds_2, 3), (fifths_2, 5)):
        pts = brute_symmetrizer(seq, window_num=12, window_exp=3, spot_checks=200, seed=5)
        described = symmetrizer(seq)
        assert all(described.contains(g) for g in pts)
        gen = (QnRational(b, 0, 2), QnRational(-b, 1, 2))
        assert gen in pts


def test_symmetrizer_rejects_prefix_carrier():
    a = AngleSequence(3, 0, NadicInteger.from_prefix([1, 2], 3))
    with pytest.raises(ValueError):
        symmetrizer(a)
    with pytest.raises(ValueError):
        is_simple(a)


# ---------------------------------------------------------------- simplicity


def test_is_simple_cases(five_62, three_half):
    assert not is_simple(five_62)
    assert not is_simple(three_half)
    assert not is_simple(AngleSequence.zero(3))
    for n in (2, 3, 5):
        assert is_simple(AngleSequence(n, 0, NadicInteger.iota(1, n)))


@pytest.mark.parametrize("n, q", [(2, 2000003), (5, 1000003)])
def test_periodicity_decisions_above_the_order_cap(n, q):
    # the order of n mod q, the period, is q - 1 > 10**6
    head = Fraction(1, q)
    periodic = AngleSequence(n, head, NadicInteger.from_value(-head, n))
    assert periodic.period() == q - 1
    assert not is_simple(periodic)
    assert classify_type(periodic) is SequenceKind.RATIONAL_PERIODIC
    assert symmetrizer(periodic) == Symmetrizer.scaled_lattice(q)
    aperiodic = AngleSequence(n, head, NadicInteger.from_value(head, n))
    assert is_simple(aperiodic)
    assert classify_type(aperiodic) is SequenceKind.RATIONAL_APERIODIC
    assert symmetrizer(aperiodic) == Symmetrizer.trivial()


def test_classify_type(five_62):
    assert classify_type(five_62) is SequenceKind.RATIONAL_PERIODIC
    ap = AngleSequence(3, Fraction(1, 2), NadicInteger.iota(0, 3))
    assert classify_type(ap) is SequenceKind.RATIONAL_APERIODIC
    assert SequenceKind.RATIONAL_PERIODIC.value == "RationalPeriodic"
