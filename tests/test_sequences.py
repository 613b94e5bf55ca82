import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from ncsolenoid.codec import sequence_from_file
from ncsolenoid.nadic import NadicInteger
from ncsolenoid.sequences import Angle, AngleSequence

scales = st.sampled_from([2, 3, 5, 6, 10, 12])


@st.composite
def angle_seqs(draw, scale=None):
    n = scale if scale is not None else draw(scales)
    b = draw(st.integers(min_value=1, max_value=30))
    a = draw(st.integers(min_value=0, max_value=b - 1))
    d = draw(
        st.integers(min_value=1, max_value=40).filter(lambda d: gcd(d, n) == 1)
    )
    c = draw(st.integers(min_value=-40, max_value=40))
    carrier = NadicInteger.from_value(Fraction(c, d), n)
    return AngleSequence(n, Fraction(a, b), carrier)


# ---------------------------------------------------------------- Angle


def test_angle_reduces_mod_one():
    assert Angle(Fraction(7, 3)).value == Fraction(1, 3)
    assert Angle(Fraction(-1, 4)).value == Fraction(3, 4)


def test_angle_arithmetic():
    a = Angle(Fraction(2, 3))
    b = Angle(Fraction(2, 3))
    assert (a + b).value == Fraction(1, 3)
    assert (-a).value == Fraction(1, 3)
    assert (5 * a).value == Fraction(1, 3)
    assert (a - b).value == 0


def test_angle_rejects_floats():
    with pytest.raises(ValueError):
        Angle(0.5)


# ---------------------------------------------------------------- terms


def test_five_62_value_cycle(five_62):
    want = [Fraction(1, 62), Fraction(25, 62), Fraction(5, 62)]
    assert [five_62.value(n) for n in range(6)] == want + want
    assert [five_62.digit(n) for n in range(7)] == [2, 0, 0, 2, 0, 0, 2]


def test_three_half_tower(three_half):
    assert [three_half.carrier.at(k) for k in range(7)] == [0, 1, 4, 13, 40, 121, 364]
    assert all(three_half.value(n) == Fraction(1, 2) for n in range(8))
    assert all(three_half.digit(n) == 1 for n in range(6))


def test_constructor_validates_head():
    with pytest.raises(ValueError):
        AngleSequence(3, Fraction(3, 2), NadicInteger.iota(0, 3))
    with pytest.raises(ValueError):
        AngleSequence(3, Fraction(1, 2), NadicInteger.iota(0, 2))


@given(angle_seqs())
def test_division_law(a):
    # N * alpha_{n+1} == alpha_n on the circle
    for n in range(6):
        lhs = a.modulus * a.value(n + 1)
        assert lhs - a.value(n) == int(lhs - a.value(n))


@given(angle_seqs())
def test_digits_recover_division_choices(a):
    N = a.modulus
    for n in range(5):
        j = a.digit(n)
        assert 0 <= j < N
        assert a.value(n + 1) == (a.value(n) + j) / N


@st.composite
def exact_or_prefix_seqs(draw):
    n = draw(st.sampled_from([2, 3, 4, 6, 12]))
    b = draw(st.integers(min_value=1, max_value=60))
    head = Fraction(draw(st.integers(min_value=0, max_value=b - 1)), b)
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=60).filter(lambda d: gcd(d, n) == 1))
        c = draw(st.integers(min_value=-10 ** 6, max_value=10 ** 6))
        carrier = NadicInteger.from_value(Fraction(c, d), n)
    else:
        digits = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=12))
        carrier = NadicInteger.from_prefix(digits, n)
    return AngleSequence(n, head, carrier)


@given(exact_or_prefix_seqs())
def test_every_term_lies_in_the_unit_interval(a):
    # holds by construction: 0 <= head < 1 and 0 <= J_n < N**n
    depth = 12 if a.carrier.length is None else a.carrier.length
    for n in range(depth + 1):
        assert 0 <= a.value(n) < 1


# ---------------------------------------------------------------- group ops


@given(angle_seqs())
def test_neg_matches_termwise(a):
    b = -a
    for n in range(6):
        assert b.value(n) == (-Angle(a.value(n))).value


@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda _: scales.flatmap(lambda n: st.tuples(angle_seqs(n), angle_seqs(n)))
))
def test_add_matches_termwise(pair):
    a, b = pair
    s = a + b
    for n in range(6):
        assert s.value(n) == (Angle(a.value(n)) + Angle(b.value(n))).value


@given(scales.flatmap(lambda n: st.tuples(angle_seqs(n), angle_seqs(n))))
def test_add_keeps_exact_carriers_exact(pair):
    a, b = pair
    assert (a + b).carrier.is_exact
    assert (-a).carrier.is_exact


def test_shift_frozen(thirds_2):
    s = thirds_2.shift(1)
    assert s.base == Fraction(2, 3)
    assert s.carrier.value == Fraction(-2, 3)
    assert [s.value(n) for n in range(4)] == [thirds_2.value(n + 1) for n in range(4)]


@given(angle_seqs(), st.integers(min_value=0, max_value=4))
def test_shift_reindexes(a, s):
    b = a.shift(s)
    for n in range(5):
        assert b.value(n) == a.value(s + n)


def test_zero_and_constant():
    z = AngleSequence.zero(7)
    assert z.has_finite_range() and z.base == 0 and z.carrier.value == 0
    assert all(z.value(n) == 0 for n in range(4))
    c = AngleSequence.constant(3, Fraction(1, 2))
    assert all(c.value(n) == Fraction(1, 2) for n in range(4))
    with pytest.raises(ValueError):
        AngleSequence.constant(3, Fraction(1, 3))


def test_constant_is_the_periodic_sequence_at_its_head():
    # constant only when (N - 1) * q is an integer; 11/7 is not
    a = AngleSequence.constant(12, Fraction(1, 7))
    assert a.carrier.value == Fraction(-1, 7)
    assert [a.value(n) for n in range(6)] == [Fraction(c, 7) for c in (1, 3, 2, 6, 4, 5)]
    assert a.period() == 6


# ---------------------------------------------------------------- periodicity


def test_period_of_periodic_examples(five_62, thirds_2, three_half, fifths_2):
    assert five_62.period() == 3
    assert thirds_2.period() == 2
    assert three_half.period() == 1
    assert fifths_2.period() == 4


def test_aperiodic_examples():
    a = AngleSequence(3, Fraction(1, 2), NadicInteger.iota(0, 3))
    assert a.period() is None
    assert not a.has_finite_range()
    b = AngleSequence(2, 0, NadicInteger.iota(1, 2))
    assert b.period() is None


@pytest.mark.parametrize(
    "head, w",
    [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(-1, 3)),
        (Fraction(1, 3), Fraction(-1, 7)),  # numerators agree, denominators differ
        (Fraction(2, 7), Fraction(-3, 7)),  # denominators agree, numerators differ
        (Fraction(2, 7), Fraction(2, 7)),
    ],
)
def test_finite_range_is_carrier_value_minus_head(head, w):
    a = AngleSequence(2, head, NadicInteger.from_value(w, 2))
    assert a.has_finite_range() == (w == -head)


def test_period_raises_on_prefix_carrier():
    a = AngleSequence(3, 0, NadicInteger.from_prefix([1, 2], 3))
    with pytest.raises(ValueError):
        a.period()


@given(angle_seqs())
def test_period_is_minimal_value_recurrence(a):
    p = a.period()
    if p is not None:
        for n in range(4):
            assert a.value(n + p) == a.value(n)
        for q in range(1, p):
            assert any(a.value(n + q) != a.value(n) for n in range(p))


# ---------------------------------------------------------------- json


def _read_back(tmp_path, blob):
    """Write blob as an element file and read it through codec."""
    path = tmp_path / "element.json"
    path.write_text(json.dumps(blob))
    return sequence_from_file(str(path))


def test_sequence_json_round_trip(five_62, tmp_path):
    blob = five_62.to_json()
    assert blob == {"N": 5, "alpha0": "1/62", "carrier": {"value": "-1/62"}}
    assert _read_back(tmp_path, blob) == five_62


@pytest.mark.parametrize("scale", ["3", True, None, 1])
def test_from_json_rejects_a_scale_that_is_not_an_integer_above_one(scale, tmp_path):
    # the scale is validated once, by the constructors that codec calls
    with pytest.raises(ValueError, match="scale must be"):
        _read_back(tmp_path, {"N": scale, "alpha0": "1/2", "carrier": {"value": "-1/2"}})


def test_sequence_json_prefix_round_trip(tmp_path):
    a = AngleSequence(3, Fraction(1, 2), NadicInteger.from_prefix([0, 2, 1], 3))
    back = _read_back(tmp_path, a.to_json())
    assert back == a
    assert [back.digit(n) for n in range(3)] == [0, 2, 1]
