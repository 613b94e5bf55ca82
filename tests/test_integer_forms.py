"""The integer forms of the value operations agree with the Fraction formulas.

``QnRational`` addition aligns exponents in integers, the ``Angle``
operators reduce mod 1 by an integer floor, ``psi_phase``, ``prufer_pair``,
``mu_cochain`` and ``zeta_cocycle`` read integer residues,
``cross_section_carry`` floors one integer quotient, and ``theta_phase``
and ``bicharacter`` form one numerator over a common denominator.  Each
test writes the Fraction formula out as its oracle, at scales 2 to 30
(composite ones included).  On prefix carriers read past their window,
both forms raise the same ValueError.  The unchecked cores, which take
points as lowest-terms pairs (num, exp) and a carrier as a tower (N, J, P),
agree with their public wrappers, on the on-demand view the wrappers pass
and on a dense tower; a tower holds the residues and powers ``at`` reads.
"""

from fractions import Fraction
from math import floor, gcd

from hypothesis import example, given, strategies as st

from ncsolenoid.ktheory import (
    GeneratorCochain, _mu, _prufer, _xi, _zeta, cross_section_carry, mu_cochain, prufer_pair,
    xi_cocycle, zeta_cocycle,
)
from ncsolenoid.multiplier import (
    _bichar_frac, _psi_frac, _terms, _theta_frac, bicharacter, psi_phase, theta_phase,
)
from ncsolenoid.nadic import NadicInteger, QnRational, _pair_sum, _tower, _view
from ncsolenoid.sequences import Angle, AngleSequence

scales = st.integers(min_value=2, max_value=30)
rationals = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 60))
heads = st.integers(1, 60).flatmap(
    lambda b: st.builds(Fraction, st.integers(0, b - 1), st.just(b))
)


def points(n):
    return st.builds(QnRational, st.integers(-10**6, 10**6), st.integers(0, 8), st.just(n))


@st.composite
def carriers(draw, n):
    """An exact carrier, or a prefix of at most six digits."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 60))
        while gcd(d, n) != 1:
            d //= gcd(d, n)
        return NadicInteger.from_value(Fraction(draw(st.integers(-10**4, 10**4)), d), n)
    return NadicInteger.from_prefix(draw(st.lists(st.integers(0, n - 1), max_size=6)), n)


def outcome(f, *args):
    """f(*args), or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as err:
        return "ValueError: %s" % err


def lowest_terms(q, n):
    """(p, k) with q = p / n**k, k least: the old from_fraction normal form."""
    k = 0
    while (q * n ** k).denominator != 1:
        k += 1
    return int(q * n ** k), k


def mod_one(q):
    return q - floor(q)


@given(scales.flatmap(lambda n: st.tuples(points(n), points(n))))
def test_qn_sum_and_difference_match_the_fraction_form(pair):
    x, y = pair
    n = x.modulus
    for got, want in ((x + y, x.fraction + y.fraction), (x - y, x.fraction - y.fraction)):
        assert (got.num, got.exp) == lowest_terms(want, n)
        assert got == QnRational(got.num, got.exp, n)
    assert ((-x).num, (-x).exp) == lowest_terms(-x.fraction, n)


@given(rationals, rationals)
def test_angle_operators_match_the_fraction_form(a, b):
    x, y = Angle(a), Angle(b)
    assert (x + y).value == mod_one(a + b)
    assert (x - y).value == mod_one(a - b)
    assert (-x).value == mod_one(-a)
    for got in (x + y, x - y, -x):
        assert type(got.value) is Fraction
        assert got == Angle(got.value)


@st.composite
def psi_args(draw):
    n = draw(scales)
    alpha = AngleSequence(n, draw(heads), draw(carriers(n)))
    return alpha, (draw(points(n)), draw(points(n))), (draw(points(n)), draw(points(n)))


def old_psi(alpha, g, h):
    n = g[0].exp + h[1].exp
    return Angle(mod_one(alpha.value(n) * g[0].num * h[1].num))


@given(psi_args())
def test_psi_phase_matches_the_fraction_form(args):
    assert outcome(psi_phase, *args) == outcome(old_psi, *args)


def old_lift(J, x):
    return Fraction(x.num * J.at(x.exp), J.modulus ** x.exp)


@given(scales.flatmap(lambda n: st.tuples(carriers(n), points(n))))
def test_prufer_pair_and_mu_match_the_fraction_form(args):
    J, x = args
    assert outcome(prufer_pair, J, x) == outcome(lambda: Angle(mod_one(old_lift(J, x))))
    assert outcome(mu_cochain, J, x) == outcome(lambda: -floor(old_lift(J, x)))


def old_zeta(J, x, y):
    return floor(mod_one(old_lift(J, x)) + mod_one(old_lift(J, y)))


@given(scales.flatmap(lambda n: st.tuples(carriers(n), points(n), points(n))))
def test_zeta_cocycle_matches_the_fraction_form(args):
    got = outcome(zeta_cocycle, *args)
    assert got == outcome(old_zeta, *args)
    assert type(got) in (int, str)  # an int, or the text of a ValueError


@given(rationals, rationals)
@example(Fraction(1, 3), Fraction(2, 3))  # the sum is exactly 1
@example(Fraction(-1, 4), Fraction(1, 4))
def test_cross_section_carry_matches_the_fraction_form(a, b):
    want = floor(mod_one(a) + mod_one(b))
    assert cross_section_carry(a, b) == cross_section_carry(Angle(a), Angle(b)) == want


def old_theta(alpha, g, h):
    n, m = g[0].exp + h[1].exp, h[0].exp + g[1].exp
    psi_gh = alpha.value(n) * g[0].num * h[1].num
    return Angle(mod_one(psi_gh - alpha.value(m) * h[0].num * g[1].num))


@given(psi_args())
def test_theta_phase_matches_the_fraction_form_and_psi(args):
    alpha, g, h = args
    want = outcome(old_theta, alpha, g, h)
    assert outcome(theta_phase, alpha, g, h) == want
    assert outcome(lambda: psi_phase(alpha, g, h) - psi_phase(alpha, h, g)) == want


@st.composite
def bicharacter_args(draw):
    """Four sequences at one scale, each with its own head denominator."""
    n = draw(scales)
    seqs = [AngleSequence(n, draw(heads), draw(carriers(n))) for _ in range(4)]
    return (*seqs, (draw(points(n)), draw(points(n))), (draw(points(n)), draw(points(n))))


def old_bicharacter(zeta, xi, eta, chi, g, h):
    (g1, g2), (h1, h2) = g, h
    return Angle(mod_one(
        zeta.value(g1.exp + h1.exp) * g1.num * h1.num
        + eta.value(g2.exp + h1.exp) * g2.num * h1.num
        + chi.value(g2.exp + h2.exp) * g2.num * h2.num
        + xi.value(g1.exp + h2.exp) * g1.num * h2.num
    ))


@given(bicharacter_args())
def test_bicharacter_matches_the_fraction_form(args):
    assert outcome(bicharacter, *args) == outcome(old_bicharacter, *args)


def test_a_prefix_past_its_window_raises_the_same_error():
    J = NadicInteger.from_prefix([1, 2], 3)
    alpha = AngleSequence(3, Fraction(1, 2), J)
    x, y = QnRational(1, 3, 3), QnRational(1, 0, 3)
    g, h = (x, x), (x, x)
    message = "ValueError: depth 6 exceeds recorded prefix of length 2"
    assert outcome(psi_phase, alpha, g, h) == outcome(old_psi, alpha, g, h) == message
    assert outcome(theta_phase, alpha, g, h) == outcome(old_theta, alpha, g, h) == message
    exact = AngleSequence.constant(3, Fraction(1, 4))
    args = (exact, alpha, exact, exact, g, h)
    assert outcome(bicharacter, *args) == outcome(old_bicharacter, *args) == message
    message = "ValueError: depth 3 exceeds recorded prefix of length 2"
    assert outcome(prufer_pair, J, x) == outcome(lambda: old_lift(J, x)) == message
    assert outcome(mu_cochain, J, x) == message
    for pair in ((x, y), (y, x)):
        assert outcome(zeta_cocycle, J, *pair) == outcome(old_zeta, J, *pair) == message


@st.composite
def core_args(draw):
    """Four sequences, four points and a cochain table to depth 8, at one scale."""
    n = draw(st.sampled_from([2, 3, 6, 10]))
    seqs = [AngleSequence(n, draw(heads), draw(carriers(n))) for _ in range(4)]
    table = draw(st.lists(st.integers(-10**6, 10**6), min_size=9, max_size=9))
    return seqs, [draw(points(n)) for _ in range(4)], GeneratorCochain(n, enumerate(table))


def phase(pair):
    return Angle(mod_one(Fraction(*pair)))


@given(core_args())
def test_each_pair_core_matches_its_public_wrapper(args):
    (a, b, c, d), (x, y, z, w), psi = args
    J, n = a.carrier, a.modulus
    X, Y, Z, W = ((u.num, u.exp) for u in (x, y, z, w))
    s = x + y
    assert _pair_sum(X, Y, n) == (s.num, s.exp) == lowest_terms(x.fraction + y.fraction, n)
    # the view the wrappers pass, and on exact carriers a dense tower to the deepest level, 16
    forms = [(_view(J), _terms)]
    if all(u.carrier.is_exact for u in (a, b, c, d)):
        forms.append((_tower(J, 16), lambda u: _terms(u, 16)))
    for tower, terms in forms:
        for core, wrapper in ((_xi, xi_cocycle), (_zeta, zeta_cocycle)):
            assert outcome(core, tower, X, Y) == outcome(wrapper, J, x, y)
        got = outcome(lambda: phase(_prufer(tower, X)))
        assert got == outcome(prufer_pair, J, x)
        assert type(got) is str or got.value.as_integer_ratio() == _prufer(tower, X)
        assert outcome(_mu, tower, X) == outcome(mu_cochain, J, x)
        for core, wrapper in ((_psi_frac, psi_phase), (_theta_frac, theta_phase)):
            got = outcome(lambda: phase(core(terms(a), (X, Y), (Z, W))))
            assert got == outcome(wrapper, a, (x, y), (z, w))
        got = outcome(lambda: phase(_bichar_frac(*map(terms, (a, b, c, d)), (X, Y), (Z, W))))
        assert got == outcome(bicharacter, a, b, c, d, (x, y), (z, w))
    assert psi._eval(X) == psi(x)


@given(st.sampled_from([2, 3, 6, 10]).flatmap(lambda n: st.tuples(carriers(n), st.integers(0, 12))))
def test_a_tower_and_its_view_hold_the_residues_and_powers_of_n(args):
    J, K = args
    n, K = J.modulus, K if J.is_exact else min(K, J.length)
    want = [J.at(k) for k in range(K + 1)], [n ** k for k in range(K + 1)]
    assert _tower(J, K) == (n, *want)
    N, residues, powers = _view(J)
    assert N == n
    assert ([residues[k] for k in range(K + 1)], [powers[k] for k in range(K + 1)]) == want
