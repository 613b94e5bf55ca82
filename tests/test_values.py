"""Value equality: the eight value classes compare and hash by their fields.

Each builder below makes an instance from plain arguments and names the
identity fields the class compares by, read off the instance here rather
than through the class's own key.  The slot writes of every frozen class
go through ``_Frozen._fill``, which takes exactly one value per slot.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncsolenoid.classify import AngleMatrix, BundleData, IsoVerdict, bundle_data
from ncsolenoid.ktheory import ExtensionElement, GeneratorCochain, KPairElement, as_pair
from ncsolenoid.multiplier import Symmetrizer
from ncsolenoid.nadic import NadicInteger, QnRational
from ncsolenoid.oracle import FuzzReport
from ncsolenoid.sequences import Angle, AngleSequence

# Small domains, so that independent draws often coincide.
scales = st.sampled_from([2, 3])
small = st.integers(min_value=-2, max_value=2)
fractions = st.builds(Fraction, small, st.sampled_from([1, 5, 7]))
heads = st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(2, 7)])


@st.composite
def carriers(draw, scale):
    if draw(st.booleans()):
        return ("value", draw(fractions))
    return ("prefix", tuple(draw(st.lists(st.integers(0, scale - 1), max_size=2))))


def make_carrier(scale, spec):
    kind, data = spec
    if kind == "value":
        return NadicInteger.from_value(data, scale)
    return NadicInteger.from_prefix(list(data), scale)


@st.composite
def sequence_args(draw, scale=None):
    n = draw(scales) if scale is None else scale
    return (n, draw(heads), draw(carriers(n)))


def make_sequence(n, head, spec):
    return AngleSequence(n, head, make_carrier(n, spec))


# An exact sequence at scale 3, an integer and a point of Q_3.
element_args = st.tuples(
    st.tuples(st.just(3), heads, st.tuples(st.just("value"), fractions)),
    small,
    st.builds(QnRational, small, st.integers(0, 2), st.just(3)),
)


@st.composite
def matrix_args(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    phases = st.sampled_from([Fraction(0), Fraction(1, 2)])
    return (tuple(draw(st.permutations(range(n)))), tuple(draw(phases) for _ in range(n)))


def make_matrix(perm, phases):
    return AngleMatrix(perm, [Angle(e) for e in phases])


def make_kpair(alpha_args, z, x):
    return as_pair(ExtensionElement(make_sequence(*alpha_args), z, x))


def make_symmetrizer(variant, b):
    return Symmetrizer(variant, b if variant == "ScaledLattice" else None)


# (strategy of constructor arguments, builder, identity fields)
CASES = {
    "QnRational": (
        st.tuples(small, st.integers(0, 2), scales),
        QnRational,
        lambda x: (x.modulus, x.num, x.exp),
    ),
    "NadicInteger": (
        scales.flatmap(lambda n: st.tuples(st.just(n), carriers(n))),
        make_carrier,
        lambda x: (x.modulus, x.value, x.prefix),
    ),
    "Angle": (st.tuples(fractions), Angle, lambda x: x.value),
    "AngleSequence": (
        sequence_args(),
        make_sequence,
        lambda x: (x.modulus, x.base, x.carrier),
    ),
    "ExtensionElement": (
        element_args,
        lambda alpha_args, z, x: ExtensionElement(make_sequence(*alpha_args), z, x),
        lambda x: (x.alpha, x.z, x.x),
    ),
    "KPairElement": (
        element_args,
        make_kpair,
        lambda x: (x.alpha, x.first, x.second),
    ),
    "Symmetrizer": (
        st.tuples(st.sampled_from(["Trivial", "Full", "ScaledLattice"]), st.sampled_from([2, 3])),
        make_symmetrizer,
        lambda x: (x.variant, x.b),
    ),
    "AngleMatrix": (matrix_args(), make_matrix, lambda x: x.to_json()),
}


@st.composite
def value_pairs(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    args, build, fields = CASES[name]
    return build, fields, draw(args), draw(args)


@settings(max_examples=400)
@given(value_pairs())
def test_values_are_equal_exactly_when_their_fields_are(case):
    build, fields, args_a, args_b = case
    a, twin, b = build(*args_a), build(*args_a), build(*args_b)
    assert a is not twin
    assert a == twin and hash(a) == hash(twin)
    assert (a == b) == (fields(a) == fields(b))
    assert (a != b) == (fields(a) != fields(b))
    if a == b:
        assert hash(a) == hash(b)
    assert a != fields(a)


@given(sequence_args(), st.integers(min_value=0, max_value=6))
def test_residue_queries_change_neither_equality_nor_hash(args, depth):
    seq = make_sequence(*args)
    before = hash(seq), hash(seq.carrier)
    top = depth if seq.carrier.length is None else min(depth, seq.carrier.length)
    for k in range(top + 1):
        seq.carrier.at(k)
    assert (hash(seq), hash(seq.carrier)) == before
    assert seq == make_sequence(*args)
    assert seq.carrier == make_carrier(args[0], args[2])


@given(scales, fractions, st.integers(min_value=0, max_value=6))
def test_exact_and_prefix_carriers_with_common_residues_differ(n, value, depth):
    exact = NadicInteger.from_value(value, n)
    prefix = NadicInteger.from_prefix([exact.digit(i) for i in range(depth)], n)
    assert [prefix.at(k) for k in range(depth + 1)] == [exact.at(k) for k in range(depth + 1)]
    assert exact != prefix
    assert AngleSequence(n, Fraction(0), exact) != AngleSequence(n, Fraction(0), prefix)


def test_the_other_frozen_classes_compare_by_identity(thirds_2):
    made = [
        lambda: IsoVerdict.unknown(4),
        lambda: bundle_data(thirds_2),
        lambda: FuzzReport("xi", 1, 2, 3, []),
        lambda: GeneratorCochain(3, {0: 1}),
    ]
    for make in made:
        a = make()
        assert a == a and a != make()


@pytest.mark.parametrize("count", [0, 3, 5])
def test_fill_with_the_wrong_number_of_values_raises(count):
    with pytest.raises(ValueError):
        object.__new__(IsoVerdict)._fill(*range(count))


def test_each_slotted_class_binds_one_setter_per_slot():
    for cls in (QnRational, NadicInteger, Angle, AngleSequence, ExtensionElement, KPairElement,
                Symmetrizer, AngleMatrix, IsoVerdict, BundleData, FuzzReport, GeneratorCochain):
        assert len(cls._setters) == len(cls.__slots__) > 0

    class Unslotted(NadicInteger):
        __slots__ = ()

    assert Unslotted._setters is NadicInteger._setters
    assert Unslotted(3, value=Fraction(1, 2)).at(2) == NadicInteger(3, value=Fraction(1, 2)).at(2)
