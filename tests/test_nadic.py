import json
import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ncsolenoid.codec import carrier_from_file
from ncsolenoid.ktheory import xi_cocycle
from ncsolenoid.nadic import (
    NadicInteger,
    QnRational,
    _below,
    _pair_sum,
    _sampler,
    _tower,
    _view,
    as_fraction,
    format_fraction,
    is_prime,
    multiplicative_order,
    prime_factors,
)
from ncsolenoid.sequences import AngleSequence

scales = st.sampled_from([2, 3, 5, 6, 10, 12])


def qn(scale):
    return st.builds(
        QnRational,
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=0, max_value=8),
        st.just(scale),
    )


# ---------------------------------------------------------------- helpers


def test_as_fraction_accepts_strings_ints_fractions():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-7") == Fraction(-7)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(ValueError):
        as_fraction(0.5)
    with pytest.raises(ValueError):
        as_fraction(True)


def test_format_fraction():
    assert format_fraction(Fraction(-3, 7)) == "-3/7"
    assert format_fraction(Fraction(4)) == "4"


def test_prime_factors():
    assert prime_factors(12) == (2, 2, 3)
    assert prime_factors(360) == (2, 2, 2, 3, 3, 5)
    assert prime_factors(2) == (2,)
    # at c = 1 rho's 128-step batch reaches gcd n, and single steps from its start split it
    assert prime_factors(101 * 103) == (101, 103)


def test_is_prime():
    assert [n for n in range(2, 14) if is_prime(n)] == [2, 3, 5, 7, 11, 13]


def test_multiplicative_order():
    assert multiplicative_order(2, 3) == 2
    assert multiplicative_order(5, 62) == 3
    assert multiplicative_order(2, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(2, 4)


def _is_prime_by_trial(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _prime_divisors_by_trial(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_multiplicative_order_has_no_cap():
    # certificate: 2**t == 1 mod q, and 2**(t/r) != 1 for every prime r | t
    q, t = 2000003, 2000002
    assert multiplicative_order(2, q) == t
    assert pow(2, t, q) == 1
    assert all(pow(2, t // r, q) != 1 for r in _prime_divisors_by_trial(t))


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=2000))
# lambda(2**e) = 2**(e-2) for e >= 3, and repeated primes; each n has order lambda(m)
@example(3, 8)
@example(3, 16)
@example(9, 16)  # order 2 < lambda(16): the walk over the factors of t must start afresh
@example(3, 2**11)
@example(5, 96)
@example(5, 162)
def test_multiplicative_order_matches_power_stepping(n, m):
    assume(gcd(n, m) == 1)
    t, acc = 1, n % m
    while acc != 1 % m:
        acc = acc * n % m
        t += 1
    assert multiplicative_order(n, m) == t


@given(st.integers(min_value=2, max_value=10**6 - 1))
def test_prime_factors_are_ascending_primes_with_product_n(n):
    factors = prime_factors(n)
    assert prod(factors) == n
    assert list(factors) == sorted(factors)
    assert all(_is_prime_by_trial(p) for p in factors)


LARGE_PRIMES = (998244353, 1000000007, 2**61 - 1)


@settings(max_examples=20)  # rho takes ~10**4.5 steps on each 30-bit prime
@given(
    st.sets(st.sampled_from(LARGE_PRIMES), min_size=1),
    st.integers(min_value=1, max_value=10**4),
)
def test_prime_factors_split_products_of_large_primes(large, small):
    factors = list(prime_factors(small * prod(large)))
    assert factors == sorted(factors)
    for p in large:
        factors.remove(p)
    assert prod(factors) == small
    assert all(_is_prime_by_trial(p) for p in factors)


def test_is_prime_at_large_inputs():
    assert is_prime(2**61 - 1)
    assert is_prime(1000000007)
    assert not is_prime(1000000007 * 998244353)


# 3317044064679887385961981 = 1287836182261 * 2575672364521 passes Miller-Rabin
# with all 13 bases; 2**89 - 1 is a prime above that bound.
@pytest.mark.parametrize("n", [1287836182261 * 2575672364521, 6 * (2**89 - 1)])
def test_prime_factors_refuses_an_unproven_prime(n):
    with pytest.raises(ValueError, match="proven only below 3317044064679887385961981"):
        prime_factors(n)


SEMI = (10 ** 17 + 3) * (1001 * 10 ** 14 + 9)  # 35 digits; rho finds no factor within its budget


def test_rho_gives_up_at_its_budget():
    for call in (lambda: prime_factors(SEMI), AngleSequence.constant(2, Fraction(1, SEMI)).period):
        start = time.process_time()
        with pytest.raises(ValueError, match="within 524288 rho squarings"):
            call()
        assert time.process_time() - start < 2


# ---------------------------------------------------------------- seeded draws

# widths 1 to 2**20; at 2**k no draw is rejected, at 2**k + 1 almost half of them
widths = st.one_of(
    st.integers(1, 2**20),
    st.integers(0, 20).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])),
).filter(lambda n: n >= 1)


@given(st.integers(0, 2**32), widths, st.integers(-10**6, 10**6))
def test_a_draw_below_n_is_the_stream_of_randrange_and_choice(seed, n, a):
    ours, theirs = random.Random(seed), random.Random(seed)
    below = _below(ours, n)
    assert [a + below() for _ in range(20)] == [theirs.randrange(a, a + n) for _ in range(20)]
    seq = range(a, a + n)
    assert [seq[below()] for _ in range(20)] == [theirs.choice(seq) for _ in range(20)]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: _below(rng, 0),
        lambda rng: _below(rng, -5),
        lambda rng: _sampler(rng, 3, -1, 6),
        lambda rng: _sampler(rng, 3, 60, -1),
    ],
)
def test_an_empty_draw_raises_instead_of_spinning(make):
    # getrandbits(0) is always 0, so a draw below n <= 0 would never end
    with pytest.raises(ValueError, match="empty range"):
        make(random.Random(1))


# ---------------------------------------------------------------- QnRational


def test_qn_normalizes_to_reduced_form():
    x = QnRational(10, 1, 5)
    assert (x.num, x.exp) == (2, 0)
    assert QnRational(0, 3, 5) == QnRational(0, 0, 5)


def test_qn_from_fraction_minimal_exponent():
    x = QnRational.from_fraction(Fraction(7, 36), 6)
    assert (x.num, x.exp) == (7, 2)
    with pytest.raises(ValueError):
        QnRational.from_fraction(Fraction(1, 7), 6)


def test_qn_arithmetic():
    a = QnRational(1, 1, 3)
    b = QnRational(2, 2, 3)
    assert (a + b).fraction == Fraction(5, 9)
    assert (a - b).fraction == Fraction(1, 9)
    assert (-a).fraction == Fraction(-1, 3)
    assert a.scaled(3) == QnRational(1, 0, 3)


def test_qn_json_round_trip():
    x = QnRational(-7, 2, 6)
    assert x.to_json() == {"num": "-7", "exp": 2}


@given(scales.flatmap(lambda n: st.tuples(qn(n), qn(n), qn(n))))
def test_qn_group_laws(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + (-a) == QnRational(0, 0, a.modulus)
    assert (a + b).fraction == a.fraction + b.fraction


def test_a_zero_sum_ends_at_once():
    # cancelling the exponent one factor of N at a time took about 0.5 s at this exponent
    x = QnRational(1, 10 ** 7, 3)
    start = time.process_time()
    assert _pair_sum((1, 10 ** 7), (-1, 10 ** 7), 3) == (0, 0)
    assert (x + (-x), x - x) == (QnRational(0, 0, 3),) * 2
    assert time.process_time() - start < 0.05


# ---------------------------------------------------------------- NadicInteger


def test_iota_tower_values():
    J = NadicInteger.iota(5, 3)
    assert [J.at(k) for k in range(6)] == [0, 2, 5, 5, 5, 5]
    assert [J.digit(n) for n in range(5)] == [2, 1, 0, 0, 0]


def test_iota_negative_tower():
    J = NadicInteger.iota(-1, 2)
    assert [J.at(k) for k in range(7)] == [0, 1, 3, 7, 15, 31, 63]
    assert all(J.digit(n) == 1 for n in range(6))


def test_rational_value_tower():
    J = NadicInteger.from_value(Fraction(-1, 62), 5)
    assert [J.at(k) for k in range(8)] == [0, 2, 2, 2, 252, 252, 252, 31502]
    assert [J.digit(n) for n in range(7)] == [2, 0, 0, 2, 0, 0, 2]


def test_from_value_requires_coprime_denominator():
    with pytest.raises(ValueError):
        NadicInteger.from_value(Fraction(1, 10), 2)


def test_segment():
    # the segments S(k, m) = (J_m - J_k) / N**k of the xi formula, as xi_cocycle reads them
    J = NadicInteger.from_value(Fraction(-1, 2), 3)
    unit, third, ninth = (QnRational(1, k, 3) for k in range(3))
    assert xi_cocycle(J, third, QnRational(1, 3, 3)) == -4  # -S(1, 3)
    assert xi_cocycle(J, unit, ninth) == -J.at(2)  # -S(0, 2)
    assert xi_cocycle(J, ninth, ninth) == 0  # 2 * S(2, 2)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


@st.composite
def carriers(draw):
    """A factory of one exact or prefix carrier, and the deepest level to read: two past a window."""
    n = draw(scales)
    if draw(st.booleans()):
        value = Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**3)))
        assume(gcd(value.denominator, n) == 1)
        return (lambda: NadicInteger.from_value(value, n)), 12
    digits = draw(st.lists(st.integers(0, n - 1), max_size=8))
    return (lambda: NadicInteger.from_prefix(digits, n)), len(digits) + 2


@given(carriers())
def test_segment_reads_one_residue(args):
    # xi(1/N**k, 1/N**m) = -S(k, m) for k < m, and J_k = J_m mod N**k, so xi reads J_m
    # alone as J_m // N**k; past a prefix the deeper read raises
    make, top = args
    two_reads = lambda J, k, m: -((J.at(m) - J.at(k)) // J.modulus ** k)
    N = make().modulus
    for m in range(top + 1):
        for k in range(m):
            got = _outcome(xi_cocycle, make(), QnRational(1, k, N), QnRational(1, m, N))
            assert got == _outcome(two_reads, make(), k, m)


def test_prefix_carrier():
    J = NadicInteger.from_prefix([1, 0, 2, 1], 3)
    assert not J.is_exact
    assert J.length == 4
    assert [J.at(k) for k in range(5)] == [0, 1, 1, 19, 46]
    with pytest.raises(ValueError):
        J.at(5)


def test_prefix_digit_bounds():
    with pytest.raises(ValueError):
        NadicInteger.from_prefix([3], 3)
    with pytest.raises(ValueError):
        NadicInteger.from_prefix([-1], 3)


def test_carrier_arithmetic_matches_residues():
    a = NadicInteger.from_value(Fraction(1, 7), 3)
    b = NadicInteger.iota(4, 3)
    for k in range(6):
        m = 3**k
        assert (a + b).at(k) == (a.at(k) + b.at(k)) % m
        assert (-a).at(k) == (-a.at(k)) % m


def test_prefix_digits_are_the_recorded_window():
    J = NadicInteger.from_prefix([1, 0, 2, 1], 3)
    assert [J.digit(n) for n in range(J.length)] == [1, 0, 2, 1]
    with pytest.raises(ValueError):
        J.digit(J.length)
    with pytest.raises(ValueError):
        J.digit(-1)


def test_prefix_arithmetic_raises():
    # a prefix is a read-only window: sums and negatives need the whole tower
    a = NadicInteger.from_prefix([1, 1, 1], 2)
    b = NadicInteger.iota(1, 2)
    for op in (lambda: a + b, lambda: b + a, lambda: a - b, lambda: b - a, lambda: -a):
        with pytest.raises(ValueError, match="undecidable from a finite prefix"):
            op()
    seq = AngleSequence(2, Fraction(1, 3), a)
    exact = AngleSequence.constant(2, Fraction(1, 3))
    for op in (
        lambda: seq + exact,
        lambda: exact + seq,
        lambda: seq - exact,
        lambda: exact - seq,
        lambda: -seq,
        lambda: seq.shift(1),
    ):
        with pytest.raises(ValueError, match="exact carrier"):
            op()


@given(
    scales.flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=-200, max_value=200),
            st.integers(min_value=-200, max_value=200),
        )
    )
)
def test_iota_is_a_ring_hom_on_towers(args):
    n, z, w = args
    J = NadicInteger.iota(z, n) + NadicInteger.iota(w, n)
    K = NadicInteger.iota(z + w, n)
    assert all(J.at(k) == K.at(k) for k in range(8))


@given(scales, st.integers(min_value=-10**9, max_value=10**9))
def test_tower_coherence(n, z):
    J = NadicInteger.iota(z, n)
    for k in range(7):
        assert J.at(k + 1) % n**k == J.at(k)
        assert 0 <= J.at(k) < n**k


def test_carrier_json_round_trip(tmp_path):
    path = tmp_path / "carrier.json"
    J = NadicInteger.from_value(Fraction(-1, 62), 5)
    assert J.to_json() == {"value": "-1/62"}
    path.write_text(json.dumps(dict(J.to_json(), N=5)))
    assert carrier_from_file(str(path)) == J
    P = NadicInteger.from_prefix([2, 0, 0, 2], 5)
    assert P.to_json() == {"prefix": [2, 0, 0, 2]}
    path.write_text(json.dumps(dict(P.to_json(), N=5)))
    back = carrier_from_file(str(path))
    assert back == P
    assert back.at(4) == P.at(4)


def test_reading_many_levels_retains_one_residue():
    # a read stores no residue, so reading 2,000 levels retains nothing of them
    J = NadicInteger.from_value(Fraction(-1, 2), 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(1, 2001):
            J.at(k)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024


def test_a_read_writes_no_slot():
    # every slot is set at construction: the residue, digit, tower and view reads change none
    slots = lambda J: {name: getattr(J, name) for name in J.__slots__}
    exact = NadicInteger.from_value(Fraction(-1, 62), 5)
    prefix = NadicInteger.from_prefix([k % 5 for k in range(60)], 5)
    for J in (exact, prefix):
        before = slots(J)
        _, row, _ = _view(J)
        tower = _tower(J, 50)[1]
        assert [J.at(3), J.digit(7), row[40]] == [tower[3], tower[8] // 5**7, tower[40]]
        assert slots(J) == before
    with pytest.raises(ValueError):
        prefix.at(61)
    assert slots(prefix) == before
