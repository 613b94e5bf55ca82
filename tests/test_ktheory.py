import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncsolenoid.ktheory import (
    MIRROR,
    ExtensionElement,
    GeneratorCochain,
    KPairElement,
    as_extension,
    as_pair,
    coboundary,
    cohomologous,
    connecting_matrix,
    cross_section_carry,
    embedding_matrix,
    k_member,
    mat_mul,
    mu_cochain,
    prufer_pair,
    r_digit,
    trace,
    xi_cocycle,
    zeta_cocycle,
)
from ncsolenoid.nadic import NadicInteger, QnRational
from ncsolenoid.sequences import AngleSequence

J12 = NadicInteger.iota(1, 2)


def qns(scale, max_num=50, max_exp=6):
    return st.builds(
        QnRational,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=0, max_value=max_exp),
        st.just(scale),
    )


carriers = st.sampled_from(
    [
        NadicInteger.iota(0, 2),
        NadicInteger.iota(1, 2),
        NadicInteger.iota(-1, 2),
        NadicInteger.from_value(Fraction(-1, 2), 3),
        NadicInteger.from_value(Fraction(2, 7), 6),
        NadicInteger.iota(-3, 10),
    ]
)


# ---------------------------------------------------------------- cocycles


def test_xi_frozen_values():
    assert xi_cocycle(J12, QnRational(1, 1, 2), QnRational(1, 1, 2)) == 1
    assert xi_cocycle(J12, QnRational(1, 1, 2), QnRational(1, 2, 2)) == 0
    assert xi_cocycle(J12, QnRational(3, 2, 2), QnRational(1, 2, 2)) == 1
    assert xi_cocycle(J12, QnRational(1, 1, 2), QnRational(-1, 1, 2)) == 0


def test_xi_zero_carrier_is_zero():
    Z = NadicInteger.iota(0, 3)
    for x, y in [((1, 1), (2, 2)), ((4, 3), (-5, 1))]:
        assert xi_cocycle(Z, QnRational(*x, 3), QnRational(*y, 3)) == 0


@given(carriers.flatmap(lambda J: st.tuples(st.just(J), qns(J.modulus), qns(J.modulus), qns(J.modulus))))
def test_xi_symmetry_and_cocycle_identity(args):
    J, x, y, w = args
    zero = QnRational(0, 0, J.modulus)
    assert xi_cocycle(J, x, y) == xi_cocycle(J, y, x)
    assert xi_cocycle(J, x, zero) == 0
    lhs = xi_cocycle(J, x, y) + xi_cocycle(J, x + y, w)
    rhs = xi_cocycle(J, y, w) + xi_cocycle(J, x, y + w)
    assert lhs == rhs


@given(carriers.flatmap(lambda J: st.tuples(st.just(J), qns(J.modulus), qns(J.modulus))))
def test_xi_is_the_coboundary_of_the_pairing_lift(args):
    # v(x) = p J_k / N**k satisfies v(x) + v(y) - v(x+y) == xi(x, y)
    J, x, y = args
    N = J.modulus

    def lift(u):
        return Fraction(u.num * J.at(u.exp), N**u.exp)

    assert lift(x) + lift(y) - lift(x + y) == xi_cocycle(J, x, y)


def test_mu_frozen_values():
    assert mu_cochain(J12, QnRational(1, 1, 2)) == 0
    assert mu_cochain(J12, QnRational(3, 1, 2)) == -1
    assert mu_cochain(J12, QnRational(-1, 1, 2)) == 1
    assert mu_cochain(J12, QnRational(1, 0, 2)) == 0


def test_cross_section_carry():
    assert cross_section_carry(Fraction(1, 2), Fraction(1, 2)) == 1
    assert cross_section_carry(Fraction(1, 3), Fraction(1, 2)) == 0
    assert cross_section_carry(0, Fraction(3, 4)) == 0


@given(carriers.flatmap(lambda J: st.tuples(st.just(J), qns(J.modulus), qns(J.modulus))))
def test_zeta_relation(args):
    J, x, y = args
    z = zeta_cocycle(J, x, y)
    assert z in (0, 1)
    neg_mu = lambda u: -mu_cochain(J, u)
    assert z + coboundary(neg_mu, x, y) == xi_cocycle(J, x, y)


def test_prufer_pair_lands_in_prufer_group():
    J = NadicInteger.from_value(Fraction(-1, 2), 3)
    for num, exp in [(1, 1), (5, 2), (-7, 3)]:
        t = prufer_pair(J, QnRational(num, exp, 3))
        assert t.value.denominator in (1, 3, 9, 27)


# ---------------------------------------------------------------- cochains


def test_generator_cochain_validation():
    with pytest.raises(ValueError):
        GeneratorCochain(3, {1: 5})
    with pytest.raises(ValueError):
        GeneratorCochain(3, {0: "x"})
    c = GeneratorCochain(3, {0: -5, 1: -1, 2: 0})
    assert c.table == {0: -5, 1: -1, 2: 0}
    assert c.psi1() == -5
    assert c(QnRational(7, 1, 3)) == -7
    with pytest.raises(ValueError):
        c(QnRational(1, 5, 3))


def test_cohomologous_frozen_witness():
    psi = cohomologous(NadicInteger.iota(5, 3), NadicInteger.iota(0, 3), depth=4)
    assert [psi.table[k] for k in range(5)] == [-5, -1, 0, 0, 0]
    # deep, with J - R = m: every level of the table is (J_k - R_k - m) / N**k
    m, R = -98765, Fraction(-5, 7)
    J, R = NadicInteger.from_value(R + m, 6), NadicInteger.from_value(R, 6)
    psi = cohomologous(J, R, depth=3000)
    assert psi.table == {k: Fraction(J.at(k) - R.at(k) - m, 6**k) for k in range(3000, -1, -1)}


def test_cohomologous_none_case():
    got = cohomologous(NadicInteger.from_value(Fraction(-1, 2), 3), NadicInteger.iota(0, 3))
    assert got is None


def test_cohomologous_reflexive(three_half):
    psi = cohomologous(three_half.carrier, three_half.carrier)
    assert all(v == 0 for v in psi.table.values())


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30))
def test_cohomologous_integer_carriers(a, b):
    psi = cohomologous(NadicInteger.iota(a, 5), NadicInteger.iota(b, 5))
    assert psi is not None
    assert psi.psi1() == b - a


# ---------------------------------------------------------------- extension group


def test_extension_add_frozen(three_half):
    a = ExtensionElement(three_half, 0, QnRational(1, 1, 3))
    b = ExtensionElement(three_half, 0, QnRational(2, 1, 3))
    assert a + a == b
    s = a + b
    assert (s.z, s.x) == (1, QnRational(1, 0, 3))


def test_extension_group_laws(three_half):
    rngs = [(-1, 1), (2, 2), (5, 0), (-4, 3)]
    elems = [ExtensionElement(three_half, z, QnRational(n, k, 3)) for z, (n, k) in zip((0, 1, -2, 3), rngs)]
    zero = ExtensionElement(three_half, 0, QnRational(0, 0, 3))
    for e in elems:
        assert e + zero == e
        assert e + (-e) == zero
    for a in elems:
        for b in elems:
            assert a + b == b + a
    assert (elems[0] + elems[1]) + elems[2] == elems[0] + (elems[1] + elems[2])


def test_trace_frozen(three_half):
    assert trace(ExtensionElement(three_half, 1, QnRational(1, 1, 3))) == Fraction(3, 2)
    assert trace(ExtensionElement(three_half, 0, QnRational(1, 1, 3))) == Fraction(1, 2)


@st.composite
def trace_points(draw):
    """(alpha, z, p, k): an exact periodic or aperiodic sequence at N in {2, 3, 6, 10, 12}."""
    n = draw(st.sampled_from((2, 3, 6, 10, 12)))
    prime_to = st.integers(1, 40).filter(lambda d: math.gcd(d, n) == 1)
    periodic = draw(st.booleans())
    den = draw(prime_to) * (1 if periodic else draw(st.sampled_from((1, n, n**3))))
    head = Fraction(draw(st.integers(0, den - 1)), den)
    w = -head if periodic else Fraction(draw(st.integers(-300, 300)), draw(prime_to))
    alpha = AngleSequence(n, head, NadicInteger.from_value(w, n))
    return alpha, draw(st.integers(-50, 50)), draw(st.integers(-500, 500)), draw(st.integers(0, 8))


@given(trace_points())
def test_trace_is_z_plus_p_times_the_term(point):
    alpha, z, p, k = point
    e = ExtensionElement(alpha, z, QnRational(p, k, alpha.modulus))
    x = e.x  # in lowest terms: p / N**k may cancel to a lower level
    want = z + x.num * alpha.value(x.exp)
    assert trace(e) == want
    assert trace(as_pair(e)) == want
    assert type(trace(e)) is Fraction


@st.composite
def pair_points(draw):
    """A K0 point (first, p/N**k) over an exact sequence or a prefix carrier of >= k digits."""
    if draw(st.booleans()):
        alpha, z, p, k = draw(trace_points())
    else:
        n = draw(st.sampled_from((2, 3, 6, 10)))
        digits = draw(st.lists(st.integers(0, n - 1), max_size=8))
        head = Fraction(draw(st.integers(0, 59)), 60)
        alpha = AngleSequence(n, head, NadicInteger.from_prefix(digits, n))
        z, p, k = draw(st.integers(-50, 50)), draw(st.integers(-500, 500)), draw(st.integers(0, len(digits)))
    return as_pair(ExtensionElement(alpha, z, QnRational(p, k, alpha.modulus)))


@given(pair_points())
def test_trace_of_a_pair_matches_its_cocycle_presentation(point):
    assert trace(point) == trace(as_extension(point))
    assert type(trace(point)) is Fraction


@pytest.mark.parametrize("head", [Fraction(0), Fraction(1, 2)])
def test_trace_past_a_prefix_window_raises_as_the_definition_does(head):
    alpha = AngleSequence(3, head, NadicInteger.from_prefix([1, 2], 3))
    e = ExtensionElement(alpha, 1, QnRational(2, 4, 3))
    with pytest.raises(ValueError) as by_trace:
        trace(e)
    with pytest.raises(ValueError) as by_definition:
        e.z + e.x.num * alpha.value(e.x.exp)
    assert str(by_trace.value) == str(by_definition.value)
    assert "exceeds recorded prefix" in str(by_trace.value)
    inside = ExtensionElement(alpha, 1, QnRational(2, 2, 3))
    assert trace(inside) == trace(as_pair(inside)) == 1 + 2 * alpha.value(2)


@pytest.mark.parametrize("head", [Fraction(0), Fraction(1, 2)])
def test_k0_negation_and_a_sum_to_zero_read_no_carrier(head):
    # xi(x, -x) == 0 for every carrier, so these answer exactly past a prefix window
    J = NadicInteger.from_prefix([1, 2], 3)
    alpha, x = AngleSequence(3, head, J), QnRational(1, 5, 3)
    e = ExtensionElement(alpha, 4, x)
    assert -e == ExtensionElement(alpha, -4, -x)
    assert e - e == e + (-e) == ExtensionElement(alpha, 0, QnRational(0, 0, 3))
    assert xi_cocycle(J, x, -x) == xi_cocycle(J, -x, x) == 0


def test_trace_additive(three_half):
    a = ExtensionElement(three_half, 2, QnRational(5, 2, 3))
    b = ExtensionElement(three_half, -1, QnRational(7, 3, 3))
    s = a + b
    # the cocycle shifts z by exactly the carry of the alpha-values
    assert trace(s) - trace(a) - trace(b) == int(trace(s) - trace(a) - trace(b))


# ---------------------------------------------------------------- pair picture


def test_k_member(three_half):
    assert k_member(three_half, Fraction(1, 3), QnRational(1, 1, 3))
    assert not k_member(three_half, Fraction(1, 2), QnRational(1, 1, 3))
    assert k_member(three_half, 7, QnRational(0, 0, 3))


def test_pair_round_trip(three_half):
    e = ExtensionElement(three_half, 2, QnRational(5, 2, 3))
    p = as_pair(e)
    assert as_extension(p) == e


def test_pair_validates_membership(three_half):
    with pytest.raises(ValueError):
        KPairElement(three_half, Fraction(1, 2), QnRational(1, 1, 3))


def test_pair_json_round_trip(three_half):
    p = as_pair(ExtensionElement(three_half, 1, QnRational(2, 2, 3)))
    blob = p.to_json()
    assert set(blob) == {"first", "second"}


def test_extension_json_round_trip(three_half):
    e = ExtensionElement(three_half, -3, QnRational(2, 1, 3))
    assert e.to_json() == {"z": "-3", "x": {"num": "2", "exp": 1}}


# ---------------------------------------------------------------- stage matrices


def test_r_digit_and_matrices(three_half):
    assert r_digit(three_half, 0) == 4
    assert r_digit(three_half, 1) == 4
    assert connecting_matrix(three_half, 0) == ((1, 4), (0, 9))
    assert embedding_matrix(three_half, 1) == (
        (Fraction(1), Fraction(4, 9)),
        (Fraction(0), Fraction(1, 9)),
    )


def test_mirrored_stage_identity(three_half, five_62):
    for seq in (three_half, five_62):
        for k in range(4):
            F = connecting_matrix(seq, k)
            U0 = embedding_matrix(seq, k)
            U1 = embedding_matrix(seq, k + 1)
            assert mat_mul(U1, mat_mul(MIRROR, mat_mul(F, MIRROR))) == U0
            # without the mirror the product differs whenever r_k != 0
            if F[0][1]:
                assert mat_mul(U1, F) != U0
