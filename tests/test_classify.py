import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ncsolenoid import classify, nadic, sequences
from ncsolenoid.classify import (
    AngleMatrix,
    IsoVerdict,
    MAX_BUNDLE_Q,
    _proper_divisors,
    bundle_data,
    isomorphic,
    prime_case_isomorphic,
    replay_witness,
)
from ncsolenoid.cli import main
from ncsolenoid.ktheory import (
    ExtensionElement, KPairElement, k_member, mu_cochain, prufer_pair, trace, xi_cocycle,
    zeta_cocycle,
)
from ncsolenoid.multiplier import (
    bicharacter, classify_type, is_simple, psi_phase, symmetrizer, theta_phase,
)
from ncsolenoid.nadic import NadicInteger, QnRational, _prime_to, format_fraction, prime_factors
from ncsolenoid.oracle import bundle_check
from ncsolenoid.sequences import Angle, AngleSequence, _move


# ---------------------------------------------------------------- moves


def _support_differs(n, m):
    """Whether isomorphic separates the zero sequences at scales n and m by prime support."""
    verdict = isomorphic(AngleSequence.zero(n), AngleSequence.zero(m))
    return verdict.is_no and verdict.reason.startswith("prime supports differ")


def test_same_prime_support():
    assert not _support_differs(4, 2)
    assert not _support_differs(12, 6)
    assert _support_differs(2, 3)
    assert _support_differs(6, 10)


@given(st.integers(min_value=2, max_value=5000), st.integers(min_value=2, max_value=5000))
def test_same_prime_support_compares_the_prime_sets(n, m):
    assert _support_differs(n, m) == (set(prime_factors(n)) != set(prime_factors(m)))
    assert _support_differs(n, n * m) == (not set(prime_factors(m)) <= set(prime_factors(n)))
    assert not _support_differs(n * m, m * n * n)


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
def test_gcd_stripping_removes_exactly_the_primes_of_r(n, r):
    want = n
    for p in set(prime_factors(r)) if r > 1 else ():
        while want % p == 0:
            want //= p
    part, k = _prime_to(n, r)
    assert part == want
    # k is the least power of r that n / part divides
    assert (r ** k) % (n // part) == 0 and (k == 0 or (r ** (k - 1)) % (n // part))


@given(st.integers(min_value=2, max_value=5000))
def test_proper_divisors_match_the_range_scan(n):
    assert _proper_divisors(prime_factors(n)) == [d for d in range(1, n) if n % d == 0]


@st.composite
def exact_sequences(draw, scales=(2, 3, 4, 6, 10, 12)):
    """An exact sequence at a scale n: periodic (carrier value -head), or aperiodic.

    An aperiodic head is a/(p**e * b) and its carrier value c/d, with p | n and b, d prime to n.
    """
    n = draw(st.sampled_from(scales))
    prime_to = st.integers(1, 30).filter(lambda d: math.gcd(d, n) == 1)
    periodic = draw(st.booleans())
    smooth = 1 if periodic else draw(st.sampled_from(prime_factors(n))) ** draw(st.integers(0, 3))
    den = smooth * draw(prime_to)
    head = Fraction(draw(st.integers(0, den - 1)), den)
    w = -head if periodic else Fraction(draw(st.integers(-200, 200)), draw(prime_to))
    return AngleSequence(n, head, NadicInteger.from_value(w, n))


def _pair(seq):
    return seq.base, seq.carrier.value


def _from_pair(pair, scale):
    """The sequence of a moved pair; its constructor checks that the pair is canonical."""
    return AngleSequence(scale, pair[0], NadicInteger.from_value(pair[1], scale))


def _zero_move(scale, mu, nu, pair):
    """The witness of the search's first candidate, the zero move."""
    return {
        "R": scale, "mu": mu, "nu": nu, "direction": "forward", "shift": 0, "block": 1, "sign": 1,
        "matched": {"alpha0": format_fraction(pair[0]), "carrier": format_fraction(pair[1])},
    }


@given(exact_sequences(scales=tuple(range(2, 31))), st.integers(0, 40))
def test_identical_inputs_answer_with_the_witness_of_the_search(seq, bound):
    twin = _from_pair(_pair(seq), seq.modulus)
    verdict = isomorphic(seq, twin, bound)
    assert verdict.is_yes and replay_witness(seq, twin, verdict)
    assert verdict.witness == _zero_move(seq.modulus, 1, 1, _pair(seq))


def _no_factoring(n):
    raise AssertionError("prime_factors(%d)" % n)


@given(exact_sequences(), st.data())
def test_equal_pairs_at_two_scales_answer_with_the_zero_move_before_factoring(seq, data):
    n, mu = seq.modulus, 1
    for p in set(prime_factors(n)):
        mu *= p ** data.draw(st.integers(0, 3))
    wide = _from_pair(_pair(seq), n * mu)
    for a, b, witness in ((seq, wide, (n, 1, mu)), (wide, seq, (n, mu, 1))):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "prime_factors", _no_factoring)
            verdict = isomorphic(a, b)
        assert verdict.is_yes and verdict.witness == _zero_move(*witness, _pair(seq))
        assert replay_witness(a, b, verdict)


@given(exact_sequences(), st.integers(0, 6), st.data())
def test_moves_agree_with_shift_negation_and_the_block_rule(seq, q, data):
    n = seq.modulus
    d = data.draw(st.sampled_from(_proper_divisors(prime_factors(n))))
    shifted = _from_pair(_move(_pair(seq), n**q, 1), n)
    negated = _from_pair(_move(_pair(seq), 1, -1), n)
    for k in range(8):
        assert shifted.value(k) == seq.value(q + k)
        assert negated.value(k) == -seq.value(k) % 1
    blocked = _from_pair(_move(_pair(seq), d, 1), n)
    for k in range(8):
        assert blocked.value(k) == (seq.value(k) + seq.digit(k) % d) / d
    # one division by n**q * d is the shift, then the block; the sign comes last
    for sign in (1, -1):
        moved = _move(_move(_pair(seq), n**q, 1), d, 1)
        assert _move(_pair(seq), n**q * d, sign) == _move(moved, 1, sign)


@given(exact_sequences(), st.data())
def test_rescaling_keeps_the_pair_verbatim(seq, data):
    """The pair of alpha at scale R * mu, read at scale R, has terms frac(mu**n * alpha_n)."""
    n, mu = seq.modulus, 1
    for p in set(prime_factors(seq.modulus)):
        mu *= p ** data.draw(st.integers(0, 2))
    wide = _from_pair(_pair(seq), n * mu)
    assert [seq.value(k) for k in range(6)] == [mu ** k * wide.value(k) % 1 for k in range(6)]


def test_isomorphic_builds_no_sequence_or_carrier(monkeypatch, thirds_2, thirds_4, five_62):
    a6 = AngleSequence(6, Fraction(1, 2), NadicInteger.from_value(Fraction(1, 5), 6))
    pairs = [(thirds_2, thirds_4), (five_62, five_62), (a6.shift(3), -a6), (a6, -a6.shift(1)),
             (a6, thirds_2), (AngleSequence.constant(12, Fraction(1, 13)),
                              AngleSequence.constant(12, Fraction(8, 13)))]
    built = []

    def counted(real):
        def init(self, *args, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)
        return init

    for cls in (AngleSequence, NadicInteger):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    kinds = []
    for a, b in pairs:
        verdict = isomorphic(a, b, bound=8)
        kinds.append(verdict.kind)
        assert not verdict.is_yes or replay_witness(a, b, verdict)
    assert built == []
    assert kinds == ["yes", "yes", "yes", "yes", "no", "unknown"]


# ---------------------------------------------------------------- what the search factors


def test_isomorphic_factors_only_r_and_only_past_the_invariants(
    monkeypatch, thirds_2, thirds_4, five_62, fifths_2
):
    factored = []

    def counted(n):
        factored.append(n)
        return prime_factors(n)

    def no_order(*args):
        raise AssertionError("multiplicative_order%r" % (args,))

    monkeypatch.setattr(classify, "prime_factors", counted)
    for module in (nadic, sequences, classify):
        monkeypatch.setattr(module, "multiplicative_order", no_order, raising=False)
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    cases = [
        # a No from an invariant factors nothing
        (AngleSequence.zero(6), AngleSequence.zero(10), "no", []),
        (thirds_2, fifths_2, "no", []),
        (_from_pair((Fraction(1, 14), fifth), 6), _from_pair((Fraction(1, 22), fifth), 6), "no", []),
        (thirds_2, _from_pair((third, third), 2), "no", []),
        # equal pairs, at one scale or two, and prefix carriers factor nothing either
        (five_62, five_62, "yes", []),
        (thirds_2, thirds_4, "yes", []),
        (AngleSequence(4, third, NadicInteger.from_prefix([2, 3], 4)), thirds_4, "unknown", []),
        # everything else factors R once, and nothing else
        (five_62, AngleSequence.constant(5, Fraction(3, 62)), "no", [5]),  # exhausted
        (*_units_pair(), "unknown", [12]),
        (_from_pair((third, fifth), 6).shift(2), _from_pair((third, fifth), 6), "yes", [6]),
    ]
    for a, b, kind, calls in cases:
        factored.clear()
        assert (isomorphic(a, b, bound=16).kind, factored) == (kind, calls)


BIG = 10 ** 30 + 57  # past the Miller-Rabin proof bound, so factoring it raises
THIRDS = _from_pair((Fraction(1, 2), Fraction(1, 3)), BIG)
SEMI = (10 ** 17 + 3) * (1001 * 10 ** 14 + 9)  # 35 digits; rho finds no factor within its budget


@pytest.mark.parametrize(
    "a, b, want",
    [
        pytest.param(
            _from_pair((Fraction(1, 2), Fraction(0)), 2 * BIG),
            _from_pair((Fraction(1, 2), Fraction(0)), 3 * BIG),
            {"verdict": "No", "reason": "prime supports differ (%d vs %d)" % (2 * BIG, 3 * BIG)},
            id="support",
        ),
        pytest.param(
            _from_pair((Fraction(1, 2), Fraction(1, 3)), BIG),
            _from_pair((Fraction(1, 2), Fraction(1, 7)), BIG),
            {"verdict": "No", "reason": "carrier denominators differ (3 vs 7)"},
            id="carrier",
        ),
        pytest.param(
            AngleSequence.constant(2, Fraction(1, BIG)),
            AngleSequence.constant(2, Fraction(3, BIG)),
            {"verdict": "Unknown", "bound": 32},
            id="period",
        ),
        pytest.param(
            THIRDS,
            _from_pair((Fraction(1, 2), Fraction(2, 3)), BIG),
            {"verdict": "Unknown", "bound": 32},
            id="scale-search",
        ),
        pytest.param(
            _from_pair((Fraction(1, 2), Fraction(1, 3)), 2 * BIG),
            _from_pair((Fraction(1, 2), Fraction(2, 3)), 2 * BIG),
            {"verdict": "Unknown", "bound": 32},
            id="composite-scale-search",
        ),
        pytest.param(
            THIRDS.shift(3),
            THIRDS,
            {"verdict": "Yes", "witness": {
                "R": BIG, "mu": 1, "nu": 1, "direction": "forward", "shift": 3, "block": 1,
                "sign": 1,
                "matched": {"alpha0": format_fraction(THIRDS.value(3)), "carrier": "-2/3"},
            }},
            id="scale-shift",
        ),
        pytest.param(
            _from_pair((Fraction(1, 2), Fraction(1, 3)), SEMI),
            _from_pair((Fraction(1, 2), Fraction(1, 3)), SEMI ** 2),
            {"verdict": "Yes", "witness": _zero_move(SEMI, 1, SEMI, _pair(THIRDS))},
            id="cross-scale-equal",
        ),
    ],
)
def test_isomorphic_answers_at_an_unprovable_scale_or_period_without_factoring_it(a, b, want):
    # each raised "cannot prove ... prime": the first three while R and the period were
    # factored before the invariants, the next three from factoring R for the search's blocks;
    # the last factored its R = SEMI for the blocks, past any deadline, before the zero move
    start = time.process_time()
    verdict = isomorphic(a, b)
    assert time.process_time() - start < 0.05
    assert verdict.to_json() == want
    assert not verdict.is_yes or replay_witness(a, b, verdict)


def test_a_scale_rho_cannot_split_answers_unknown():
    # the search needs the blocks of R = SEMI; rho ran unbounded on it, past 20 s
    a = _from_pair((Fraction(1, 2), Fraction(1, 3)), SEMI)
    b = _from_pair((Fraction(1, 2), Fraction(2, 3)), SEMI)
    start = time.process_time()
    verdict = isomorphic(a, b)
    assert time.process_time() - start < 2
    assert verdict.to_json() == {"verdict": "Unknown", "bound": 32}


def test_prime_case_answers_at_an_unprovable_scale_through_isomorphic():
    # it raised "cannot prove ... prime" from is_prime, where isomorphic answers Yes at once
    a = AngleSequence.constant(BIG, Fraction(1, 2))
    start = time.process_time()
    verdict = prime_case_isomorphic(a, a)
    assert time.process_time() - start < 0.05
    assert verdict.is_yes and verdict.to_json() == isomorphic(a, a).to_json()
    assert replay_witness(a, a, verdict)
    # a proven composite still refuses, whichever side it is on
    for b in (AngleSequence.constant(2 * BIG, Fraction(1, 3)), AngleSequence.zero(4)):
        for pair in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="prime scales only"):
                prime_case_isomorphic(*pair)


@st.composite
def prime_power_periodic_pairs(draw):
    """Two periodic sequences with one head denominator q at a prime-power scale, and a bound."""
    n = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25, 27]))
    q = draw(st.integers(2, 60).filter(lambda q: math.gcd(q, n) == 1))
    units = st.integers(1, q - 1).filter(lambda c: math.gcd(c, q) == 1)
    a, b = (AngleSequence.constant(n, Fraction(draw(units), q)) for _ in "ab")
    return a, b, draw(st.integers(0, 40))


@settings(max_examples=200)
@given(prime_power_periodic_pairs())
# at N = 2 the period of 1/17 is 8, and 3/17 is not +-2**i / 17
@example((AngleSequence.constant(2, Fraction(1, 17)), AngleSequence.constant(2, Fraction(3, 17)), 7))
@example((AngleSequence.constant(2, Fraction(1, 17)), AngleSequence.constant(2, Fraction(3, 17)), 6))
# at N = 25 the period of 1/24 is 1, and 7/24 is not +-5**i / 24
@example((AngleSequence.constant(25, Fraction(1, 24)), AngleSequence.constant(25, Fraction(7, 24)), 0))
def test_an_exhausted_search_reports_the_period_of_the_sequence(pair):
    a, b, bound = pair
    verdict = isomorphic(a, b, bound)
    if verdict.is_yes:
        assert replay_witness(a, b, verdict)
    elif a.period() - 1 <= bound:
        assert verdict.reason == (
            "periodic search exhausted (period %d, both directions, all blocks, both signs)"
            % a.period()
        )
    else:
        assert verdict.kind == "unknown"


# ---------------------------------------------------------------- verdicts


def test_verdict_json_shapes():
    assert IsoVerdict.no("x").to_json() == {"verdict": "No", "reason": "x"}
    assert IsoVerdict.unknown(5).to_json() == {"verdict": "Unknown", "bound": 5}
    y = IsoVerdict.yes({"R": 2})
    assert y.to_json()["verdict"] == "Yes"
    assert y.is_yes and not y.is_no and y.kind != "unknown"


def test_isomorphic_cross_scale_yes(thirds_2, thirds_4):
    verdict = isomorphic(thirds_2, thirds_4, bound=16)
    assert verdict.is_yes
    w = verdict.witness
    assert (w["R"], w["mu"], w["nu"]) == (2, 1, 2)
    assert replay_witness(thirds_2, thirds_4, verdict)


def test_isomorphic_denominator_no(thirds_2, fifths_2):
    verdict = isomorphic(thirds_2, fifths_2, bound=16)
    assert verdict.is_no
    assert "denominators" in verdict.reason


def test_isomorphic_prime_support_no(thirds_2):
    other = AngleSequence.constant(3, Fraction(1, 2))
    verdict = isomorphic(thirds_2, other)
    assert verdict.is_no
    assert "prime supports" in verdict.reason


def test_isomorphic_is_symmetric(thirds_2, thirds_4, fifths_2):
    for a, b in ((thirds_2, thirds_4), (thirds_2, fifths_2)):
        assert isomorphic(a, b, 8).kind == isomorphic(b, a, 8).kind


def test_isomorphic_reflexive(five_62, thirds_2):
    for seq in (five_62, thirds_2):
        verdict = isomorphic(seq, seq, bound=4)
        assert verdict.is_yes
        assert replay_witness(seq, seq, verdict)


def test_periodic_exhaustion_is_complete_no(five_62):
    # same scale and period but different value cycles: 1/62 vs 3/62
    other = AngleSequence(5, Fraction(3, 62), NadicInteger.from_value(Fraction(-3, 62), 5))
    assert other.period() == five_62.period()
    verdict = isomorphic(five_62, other, bound=32)
    assert verdict.is_no
    assert "exhausted" in verdict.reason


def test_isomorphic_finds_a_shift_at_a_semiprime_scale():
    scale = 1000000007 * 998244353
    a = AngleSequence(scale, Fraction(1, 2), NadicInteger.from_value(Fraction(1, 3), scale))
    verdict = isomorphic(a.shift(2), a)
    assert verdict.is_yes
    w = verdict.witness
    assert (w["R"], w["direction"], w["shift"], w["block"], w["sign"]) == (
        scale, "forward", 2, 1, 1,
    )
    assert replay_witness(a.shift(2), a, verdict)


def test_prime_case_shift_pairs(three_half, fifths_2):
    for seq, q in ((three_half, 1), (fifths_2, 2), (fifths_2, 3)):
        verdict = prime_case_isomorphic(seq, seq.shift(q), bound=8)
        assert verdict.is_yes
        assert "shift" in verdict.witness
        assert replay_witness(seq, seq.shift(q), verdict)


def test_prime_case_distinct_primes(thirds_2, three_half):
    assert prime_case_isomorphic(thirds_2, three_half).to_json() == {
        "verdict": "No", "reason": "prime supports differ (2 vs 3)"
    }
    with pytest.raises(ValueError):
        prime_case_isomorphic(thirds_2, AngleSequence.zero(4))


def test_unknown_on_aperiodic_exhaustion():
    a = AngleSequence(3, Fraction(1, 2), NadicInteger.iota(0, 3))
    b = AngleSequence(3, Fraction(1, 2), NadicInteger.iota(2, 3))
    verdict = isomorphic(a, b, bound=4)
    assert verdict.kind == "unknown"
    assert verdict.to_json() == {"verdict": "Unknown", "bound": 4}


def test_replay_rejects_non_yes(thirds_2, fifths_2):
    verdict = isomorphic(thirds_2, fifths_2)
    with pytest.raises(ValueError):
        replay_witness(thirds_2, fifths_2, verdict)


def _thirds_witness(**forged):
    """a = b = constant(4, 1/3), its Yes witness with the given fields forged, and the replay."""
    a = AngleSequence.constant(4, Fraction(1, 3))
    verdict = isomorphic(a, a)
    return replay_witness(a, a, IsoVerdict.yes(dict(verdict.witness, **forged)))


def test_replay_accepts_the_true_witness():
    assert _thirds_witness()
    a = AngleSequence.constant(4, Fraction(1, 3))
    assert isomorphic(a, a).witness == {
        "R": 4, "mu": 1, "nu": 1, "direction": "forward", "shift": 0, "block": 1, "sign": 1,
        "matched": {"alpha0": "1/3", "carrier": "-1/3"},
    }


@pytest.mark.parametrize(
    "forged",
    [
        {"R": 2, "mu": 7, "nu": 9},
        {"R": 4.0},
        {"mu": 5},
        {"nu": 5},
        {"direction": "sideways"},
        {"direction": ["forward"]},
        {"shift": -1},
        {"shift": True},
        {"shift": 1.0},
        {"block": 4},  # R itself is not a proper divisor
        {"block": 3},
        {"block": 0},
        {"sign": 5},
        {"sign": -1},
        {"matched": {"alpha0": "1/2", "carrier": "0"}},
        {"matched": {"alpha0": "1/3", "carrier": "-1/3", "extra": 0}},
    ],
    ids=lambda forged: ",".join("%s=%r" % kv for kv in forged.items()),
)
def test_replay_rejects_a_forged_field(forged):
    assert not _thirds_witness(**forged)


def test_replay_rejects_a_witness_at_a_divisor_of_R():
    a = AngleSequence.constant(6, Fraction(1, 5))
    verdict = isomorphic(a, a)
    assert replay_witness(a, a, verdict)
    assert not replay_witness(a, a, IsoVerdict.yes(dict(verdict.witness, R=2, mu=3, nu=3)))
    assert not replay_witness(a, a, IsoVerdict.yes({"R": 6}))
    assert not replay_witness(a, a, IsoVerdict.yes("forward"))


APERIODIC = AngleSequence(3, Fraction(1, 2), NadicInteger.iota(0, 3))
PERIOD_2 = AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))


@pytest.mark.parametrize(
    "seq, shift, replays",
    [
        # a move scales s = h + w by 1/R**q, so on an aperiodic pair the input fixes q
        pytest.param(APERIODIC, 10**9, False, id="aperiodic-1e9"),
        pytest.param(APERIODIC, 10**18, False, id="aperiodic-1e18"),
        # a periodic pair moves to head c R**-q mod b over b: every multiple of the period replays
        pytest.param(AngleSequence.constant(3, Fraction(1, 2)), 10**9, True, id="constant-1e9"),
        pytest.param(PERIOD_2, 10**18, True, id="period-2-1e18"),
        pytest.param(PERIOD_2, 10**9 + 1, False, id="period-2-odd"),
    ],
)
def test_a_replay_costs_no_more_than_its_input_at_any_shift(seq, shift, replays):
    # the replay computed R**q: 0.39 s at q = 2 * 10**6, and minutes at a forged 10**9
    verdict = IsoVerdict.yes(dict(isomorphic(seq, seq).witness, shift=shift))
    start = time.process_time()
    assert replay_witness(seq, seq, verdict) is replays
    assert time.process_time() - start < 0.05


# points at levels 10**4 and 10**4 + 1; on (G, H), Psi and Theta read levels 10**4 + 1 and 0,
# and the bicharacter levels 10**4, 0, 1 and 10**4 + 1
DEEP_X, DEEP_Y = QnRational(1, 10**4, 3), QnRational(1, 10**4 + 1, 3)
G, H = (DEEP_X, QnRational(1, 0, 3)), (QnRational(1, 0, 3), QnRational(1, 1, 3))


@pytest.mark.parametrize(
    "evaluate",
    [
        pytest.param(lambda a: xi_cocycle(a.carrier, DEEP_X, DEEP_Y), id="xi_cocycle"),
        pytest.param(lambda a: zeta_cocycle(a.carrier, DEEP_X, DEEP_Y), id="zeta_cocycle"),
        pytest.param(lambda a: mu_cochain(a.carrier, DEEP_Y), id="mu_cochain"),
        pytest.param(lambda a: prufer_pair(a.carrier, DEEP_Y), id="prufer_pair"),
        pytest.param(lambda a: psi_phase(a, G, H), id="psi_phase"),
        pytest.param(lambda a: theta_phase(a, G, H), id="theta_phase"),
        pytest.param(lambda a: bicharacter(a, a, a, a, G, H), id="bicharacter"),
        pytest.param(lambda a: ExtensionElement(a, 0, DEEP_X) + ExtensionElement(a, 0, DEEP_Y),
                     id="extension-add"),
        pytest.param(lambda a: ExtensionElement(a, 0, DEEP_X) - ExtensionElement(a, 0, DEEP_Y),
                     id="extension-sub"),
    ],
)
def test_a_single_evaluation_reads_only_the_levels_it_asks_for(evaluate):
    # 0.1 to 0.7 ms each; a dense tower to level 10**4 at N = 3 (10**4 residues of up to
    # 16k bits) costs about 1.3 s
    a = AngleSequence(3, Fraction(1, 7), NadicInteger.from_value(Fraction(-1, 7), 3))
    start = time.process_time()
    evaluate(a)
    assert time.process_time() - start < 0.05


def test_replay_needs_exact_carriers(thirds_4):
    prefix = AngleSequence(4, Fraction(1, 3), NadicInteger.from_prefix([2, 3], 4))
    assert isomorphic(prefix, thirds_4).kind == "unknown"
    verdict = isomorphic(thirds_4, thirds_4)
    with pytest.raises(ValueError, match="exact carrier"):
        replay_witness(prefix, thirds_4, verdict)


# ---------------------------------------------------------------- composite-scale units
#
# sigma(g) = (8 g1, g2) is an automorphism of Q_12 x Q_12 (8 = 2**3 is a unit of
# Z[1/6]), and it carries Theta_a to Theta_b below.  Theta determines the
# multiplier class (Kleppner 1965), so a and b have isomorphic twisted algebras.
# The search only tries shifts, one block shift and a sign, which miss the unit 8,
# so an exhausted search at a composite R answers Unknown, not No.


def _units_pair():
    return tuple(AngleSequence.constant(12, Fraction(c, 13)) for c in (1, 8))


def test_unit_eight_conjugates_theta_at_scale_12():
    a, b = _units_pair()
    rng = random.Random(20260817)

    def qn():
        return QnRational(rng.randint(-60, 60), rng.randint(0, 4), 12)

    mismatches = wrong_unit = 0
    for _ in range(2000):
        g, h = (qn(), qn()), (qn(), qn())
        want = theta_phase(b, g, h)
        mismatches += theta_phase(a, (g[0].scaled(8), g[1]), (h[0].scaled(8), h[1])) != want
        wrong_unit += theta_phase(a, (g[0], g[1].scaled(2)), (h[0], h[1].scaled(2))) != want
    assert mismatches == 0
    assert wrong_unit > 0  # the check can fail: a wrong unit is caught


def test_isomorphic_is_not_no_on_a_unit_related_pair():
    a, b = _units_pair()
    assert not isomorphic(a, b).is_no


@st.composite
def unit_related_periodic_pairs(draw):
    """(alpha, u * alpha) for a periodic alpha at scale N and a unit u = +-prod p**e, p | N."""
    n = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 10, 12, 25, 30]))
    q = draw(st.integers(2, 60).filter(lambda q: math.gcd(q, n) == 1))
    c = draw(st.integers(1, q - 1).filter(lambda c: math.gcd(c, q) == 1))
    u = draw(st.sampled_from([1, -1]))
    for p in set(prime_factors(n)):
        u *= p ** draw(st.integers(0, 3))
    return AngleSequence.constant(n, Fraction(c, q)), AngleSequence.constant(n, Fraction(u * c, q))


@settings(max_examples=400)  # about one draw in 25 exhausts the search at a composite R
@given(unit_related_periodic_pairs())
def test_isomorphic_never_answers_no_on_unit_related_periodic_pairs(pair):
    a, b = pair
    assert not isomorphic(a, b).is_no


def _unit_image(seq, u):
    """u * seq for a unit u of Z[1/N], renormalised here rather than by the search's moves.

    Start from (u h, u w); write u w = a/(b s) with s the N-smooth part of its
    denominator, and move t/s, t = a b**-1 mod s, into the head; then move the
    integer part of the head into the carrier.  h + w is multiplied by u.
    """
    n = seq.modulus
    h, w = u * seq.base, u * seq.carrier.value
    b, s = w.denominator, 1
    while math.gcd(b, n) > 1:
        g = math.gcd(b, n)
        b, s = b // g, s * g
    t = Fraction(w.numerator * pow(b, -1, s) % s, s)
    h, w = h + t, w - t
    whole = math.floor(h)
    return AngleSequence(n, h - whole, NadicInteger.from_value(w + whole, n))


@st.composite
def unit_orbits(draw):
    """(alpha, u, u * alpha): alpha exact, periodic or not, u = +-prod p**e, p | N, |e| <= 3."""
    alpha = draw(exact_sequences())
    u = Fraction(draw(st.sampled_from([1, -1])))
    for p in set(prime_factors(alpha.modulus)):
        u *= Fraction(p) ** draw(st.integers(-3, 3))
    return alpha, u, _unit_image(alpha, u)


def unit_orbit_pairs():
    """(alpha, u * alpha) of :func:`unit_orbits`."""
    return unit_orbits().map(lambda orbit: (orbit[0], orbit[2]))


@given(exact_sequences(), st.integers(0, 6))
def test_the_unit_image_of_a_shift_or_a_sign_is_that_move(seq, q):
    assert _unit_image(seq, Fraction(1, seq.modulus**q)) == seq.shift(q)
    assert _unit_image(seq, Fraction(-1)) == -seq


@given(unit_orbit_pairs())
def test_invariants_agree_along_a_unit_orbit(pair):
    a, b = pair
    for invariant in (is_simple, classify_type, symmetrizer, AngleSequence.period):
        assert invariant(a) == invariant(b)
    if a.period() is not None:
        da, db = bundle_data(a), bundle_data(b)
        assert (da.q, da.k) == (db.q, db.k)


@st.composite
def cross_scale_orbits(draw):
    """(alpha, beta): u * alpha of :func:`unit_orbits`, read at N * p for a prime p | N."""
    alpha, _, image = draw(unit_orbits())
    p = draw(st.sampled_from(sorted(set(prime_factors(alpha.modulus)))))
    return alpha, _from_pair(_pair(image), alpha.modulus * p)


@given(cross_scale_orbits())
def test_invariants_agree_along_a_unit_orbit_across_scales(pair):
    # the period and the bundle's k count steps at the scale, so they are not compared
    a, b = pair
    for invariant in (is_simple, classify_type, symmetrizer):
        assert invariant(a) == invariant(b)
    if a.period() is not None:
        assert bundle_data(a).q == bundle_data(b).q
    assert not isomorphic(a, b).is_no


def _carried_point(a, b, v, z, x):
    """The point (z, x) of K_a, carried to K_b as x -> x / v with its trace kept."""
    t = trace(ExtensionElement(a, z, x))
    image = QnRational.from_fraction(x.fraction / v, a.modulus)
    first = t - b.base * image.fraction
    return t, first, image


@given(
    unit_orbits(),
    st.integers(-5, 5),
    st.integers(-60, 60),
    st.integers(0, 6),
)
def test_k0_points_follow_a_unit_orbit(orbit, z, num, exp):
    # beta = u * alpha multiplies h + w by u, so x -> x / u carries K_alpha onto K_beta
    alpha, u, beta = orbit
    x = QnRational(num, exp, alpha.modulus)
    for a, b, v in ((alpha, beta, u), (beta, alpha, 1 / u)):
        t, first, image = _carried_point(a, b, v, z, x)
        assert k_member(b, first, image)
        assert trace(KPairElement(b, first, image)) == t


def test_the_unit_orbit_divides_the_q_n_part_and_does_not_multiply_it():
    # N = 6, u = 2: beta has head 2/5; x = 1 has trace 1/5 and x / u = 1/2 stays in K_beta
    alpha = AngleSequence.constant(6, Fraction(1, 5))
    beta = _unit_image(alpha, Fraction(2))
    assert beta.base == Fraction(2, 5)
    one = QnRational(1, 0, 6)
    t, first, image = _carried_point(alpha, beta, Fraction(2), 0, one)
    assert (t, first, image) == (Fraction(1, 5), 0, QnRational.from_fraction(Fraction(1, 2), 6))
    assert k_member(beta, first, image)
    two = QnRational(2, 0, 6)  # x -> u * x sends 1 to 2, which leaves K_beta
    assert not k_member(beta, t - beta.base * two.fraction, two)


@given(unit_orbit_pairs().filter(lambda pair: pair[0].period() is None))
def test_isomorphic_never_answers_no_on_aperiodic_unit_orbits(pair):
    assert not isomorphic(*pair).is_no


def test_the_unit_eight_at_scale_12_answers_unknown():
    a = AngleSequence.constant(12, Fraction(1, 13))
    assert isomorphic(a, _unit_image(a, Fraction(8))).kind == "unknown"


# ---------------------------------------------------------------- angle matrices


def _rows(m):
    """The dense rows of m, read back from its printed form: Angle or None in each cell."""
    return tuple(tuple(e if e is None else Angle(Fraction(e)) for e in row) for row in m.to_json())


def test_cyclic_orientation():
    v = _rows(AngleMatrix.cyclic(3))
    # row i carries its phase in column i+1 (mod 3)
    for i in range(3):
        assert v[i][(i + 1) % 3] == Angle(0)
        assert sum(1 for e in v[i] if e is not None) == 1


def test_matrix_power_and_identity():
    v = AngleMatrix.cyclic(4)
    assert v**4 == AngleMatrix.identity(4)
    assert v**0 == AngleMatrix.identity(4)
    u = AngleMatrix(range(4), [Angle(Fraction(j, 4)) for j in range(4)])
    assert u**4 == AngleMatrix.identity(4)


def test_matrix_constructor_rejects_non_monomial_input():
    for perm, phases, match in [
        ([0, 0], [Angle(0), Angle(0)], "permutation"),
        ([1, 2], [Angle(0), Angle(0)], "permutation"),
        ([1, 0], [Angle(0)], "one phase per row"),
        ([1, 0], [Angle(0), Fraction(1, 2)], "Angles"),
        ([1, 0], [Angle(0), None], "Angles"),
    ]:
        with pytest.raises(ValueError, match=match):
            AngleMatrix(perm, phases)


def test_matrix_form_is_canonical():
    half = AngleMatrix(range(2), [Angle(Fraction(1, 2))] * 2)
    assert half**2 == AngleMatrix.identity(2)
    assert hash(half**2) == hash(AngleMatrix.identity(2))
    assert (half**2).den == 1


def _dense_product(a, b):
    """The textbook triple loop on dense rows (None stands for 0)."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = [
                a[i][t] + b[t][j]
                for t in range(n)
                if a[i][t] is not None and b[t][j] is not None
            ]
            if len(terms) > 1:
                raise ValueError("product entry is not a single phase")
            row.append(terms[0] if terms else None)
        out.append(tuple(row))
    return tuple(out)


def _dense_power(a, m):
    n = len(a)
    out = tuple(tuple(Angle(0) if i == j else None for j in range(n)) for i in range(n))
    for _ in range(m):
        out = _dense_product(out, a)
    return out


@st.composite
def monomial_matrices(draw, size):
    """Monomial matrices of the given size with phases k/12."""
    perm = draw(st.permutations(range(size)))
    phases = [Angle(Fraction(draw(st.integers(0, 11)), 12)) for _ in range(size)]
    return AngleMatrix(perm, phases)


sizes = st.integers(min_value=1, max_value=8)


@given(sizes.flatmap(lambda n: st.tuples(monomial_matrices(n), monomial_matrices(n))))
def test_matrix_product_matches_the_dense_loop(pair):
    x, y = pair
    expected = _dense_product(_rows(x), _rows(y))
    got = x @ y
    assert _rows(got) == expected
    filled = [next((j, e) for j, e in enumerate(row) if e is not None) for row in expected]
    rebuilt = AngleMatrix([j for j, _ in filled], [e for _, e in filled])
    assert got == rebuilt and hash(got) == hash(rebuilt)


def _power_by_products(x, m):
    """The m-fold product identity @ x @ ... @ x."""
    out = AngleMatrix.identity(x.size)
    for _ in range(m):
        out = out @ x
    return out


#: Rows 0, 1, 2 form a 3-cycle with phase sum 1/12 + 5/12 + 7/12 = 13/12; row 3
#: is fixed with phase 11/12.
CYCLE_AND_FIXED = AngleMatrix([1, 2, 0, 3], [Angle(Fraction(k, 12)) for k in (1, 5, 7, 11)])


# m runs past 3 * size, so powers at m >= L and at m = 0 (mod L) occur for every
# cycle length L; the examples pin both for a 3-cycle beside a fixed point.
@given(sizes.flatmap(lambda n: st.tuples(monomial_matrices(n), st.integers(0, 3 * n + 2))))
@example((CYCLE_AND_FIXED, 6))
@example((CYCLE_AND_FIXED, 8))
def test_power_matches_repeated_products(pair):
    x, m = pair
    got, want = x**m, _power_by_products(x, m)
    assert (got.perm, got.num, got.den) == (want.perm, want.num, want.den)
    assert _rows(got) == _dense_power(_rows(x), m)


@pytest.mark.parametrize("m", [0, 1, 7, 10**18])
def test_power_builds_one_matrix_whatever_the_exponent(m):
    # the closed forms of the powers of u, v and a random w at q = 1009, up to m = 10**18
    q = 1009
    u = AngleMatrix._of(range(q), [5 * j for j in range(q)], q)
    v = AngleMatrix.cyclic(q)
    rng = random.Random(m)
    perm = list(range(q))
    rng.shuffle(perm)
    w = AngleMatrix._of(perm, [rng.randrange(q) for _ in range(q)], q)
    assert u**m == AngleMatrix._of(range(q), [5 * j * m for j in range(q)], q)
    assert v**m == AngleMatrix._of([(i + m) % q for i in range(q)], [0] * q, 1)
    if m < 10:  # the large exponent is pinned in closed form below
        assert w**m == _power_by_products(w, m)


def test_power_at_a_large_exponent_reduces_by_the_cycle_sums():
    m = 3 * 10**18 + 1
    got = CYCLE_AND_FIXED**m
    assert got.perm == (1, 2, 0, 3)
    shift = (m // 3) * 13  # m // 3 full turns of the cycle
    assert got.num == tuple((shift + k) % 12 for k in (1, 5, 7)) + ((m * 11) % 12,)
    assert got.den == 12


def test_scaled_and_dense_round_trip():
    u = AngleMatrix(range(5), [Angle(Fraction(j, 5)) for j in range(5)])
    lam = Angle(Fraction(1, 5))
    assert AngleMatrix(range(5), [_rows(u)[i][i] for i in range(5)]) == u
    assert _rows(u.scaled(lam)) == tuple(
        tuple(None if e is None else e + lam for e in row) for row in _rows(u)
    )


def test_matrix_json():
    u = AngleMatrix(range(2), [Angle(0), Angle(Fraction(1, 3))])
    assert u.to_json() == [["0", None], [None, "1/3"]]


# ---------------------------------------------------------------- bundle data


def test_bundle_frozen_small(thirds_2):
    data = bundle_data(thirds_2)
    assert (data.q, data.p, data.k) == (3, 1, 2)
    assert data.lam == Angle(Fraction(1, 3))
    assert data.base_label == "S_{2^2} x S_{2^2}"
    assert data.v @ data.u == (data.u @ data.v).scaled(data.lam)
    assert data.u**3 == AngleMatrix.identity(3)
    assert data.v**3 == AngleMatrix.identity(3)


def _skew_first_build(skew):
    """A patch that sends the first matrix the trusted AngleMatrix._canonical builds,
    bundle_data's u, through skew."""

    def patch(monkeypatch):
        real, first = AngleMatrix._canonical.__func__, [True]

        def canonical(cls, perm, num, den):
            if first:
                first.pop()
                perm, num, den = skew(list(perm), list(num), den)
            return real(cls, perm, num, den)

        monkeypatch.setattr(AngleMatrix, "_canonical", classmethod(canonical))

    return patch


def _phase_the_cyclic(monkeypatch):
    """Give AngleMatrix.cyclic(n) phase 1/(2n) on row 0: its n-th power is e(1/(2n)), not 1."""
    phased = lambda cls, n: AngleMatrix(
        [(i + 1) % n for i in range(n)], [Angle(Fraction(1, 2 * n))] + [Angle(0)] * (n - 1)
    )
    monkeypatch.setattr(AngleMatrix, "cyclic", classmethod(phased))


#: (q, p) with 1 <= q <= 300 and p a unit mod q, the head p/q of a periodic element.
heads = st.integers(1, 300).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(0, q - 1).filter(lambda p: math.gcd(p, q) == 1))
)


@given(heads)
@example((1, 0))
def test_trusted_builds_equal_the_checked_constructor(pair):
    q, p = pair
    N = next(n for n in (2, 3, 5, 7, 11) if q % n)
    head = Fraction(p, q)
    data = bundle_data(AngleSequence(N, head, NadicInteger.from_value(-head, N)))
    cyclic = AngleMatrix([(i + 1) % q for i in range(q)], [Angle(0)] * q)
    assert data.u == AngleMatrix(range(q), [Angle(j * head) for j in range(q)])
    assert data.v == AngleMatrix.cyclic(q) == cyclic
    assert AngleMatrix.identity(q) == AngleMatrix(range(q), [Angle(0)] * q)
    for m in (data.u, data.v):  # canonical: numerators below den, den the least
        assert all(0 <= a < m.den for a in m.num) and math.gcd(m.den, *m.num) == 1
    assert AngleMatrix.identity(0) == AngleMatrix.cyclic(0) == AngleMatrix([], [])


#: Faults in the built matrices, as (patch, the one relation it breaks).
BUNDLE_FAULTS = [
    # one wrong phase on row 0 of u: u_1 - u_0 is no longer p/q
    (_skew_first_build(lambda perm, num, den: (perm, [num[0] + 1] + num[1:], den)),
     "v u = lam u v fails"),
    # u times the global phase 1/q**2 keeps v u = lam u v, and u**q = e(1/q)
    (_skew_first_build(lambda perm, num, den: (perm, [a * den + 1 for a in num], den**2)),
     "u**q = 1 fails"),
    # v u = lam u v does not read the phases of v
    (_phase_the_cyclic, "v**q = 1 fails"),
]


def test_bundle_relation_checks_fire_on_the_built_matrices(monkeypatch, capsys, fifths_2):
    for fault, relation in BUNDLE_FAULTS:
        fault(monkeypatch)
        assert bundle_check(fifths_2, bundle_data(fifths_2)) == [relation]
        monkeypatch.undo()
        fault(monkeypatch)
        assert main(["selftest"]) == 1
        monkeypatch.undo()
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["kind"] for r in reports if not r["passed"]] == ["bundle"]
    data = bundle_data(fifths_2)
    assert bundle_check(fifths_2, data) == []
    assert data.u**data.q == data.v**data.q == AngleMatrix.identity(data.q)


def test_bundle_frozen_62(five_62):
    data = bundle_data(five_62)
    assert (data.q, data.k) == (62, 3)
    assert data.lam == Angle(Fraction(1, 62))


@pytest.mark.parametrize("q", [62, 101, 1009])
def test_bundle_relations_hold_at_large_q(q):
    a = AngleSequence(5, Fraction(1, q), NadicInteger.from_value(Fraction(-1, q), 5))
    data = bundle_data(a)
    identity = AngleMatrix.identity(q)
    assert data.v @ data.u == (data.u @ data.v).scaled(data.lam)
    assert data.u**q == identity and data.v**q == identity
    blob = data.to_json()
    for m in (blob["u"], blob["v"]):
        assert len(m) == q and all(len(row) == q for row in m)
    assert blob["u"][q - 1][q - 1] == "%d/%d" % (q - 1, q)
    assert blob["v"][q - 1] == ["0"] + [None] * (q - 1)


@pytest.mark.parametrize("decide", [is_simple, classify_type, symmetrizer, bundle_data])
@pytest.mark.parametrize("head", [Fraction(0), Fraction(1, 2)])
def test_periodicity_decisions_reject_a_prefix_carrier(decide, head):
    # has_finite_range is the one check; the callers no longer repeat it
    a = AngleSequence(3, head, NadicInteger.from_prefix([1, 2], 3))
    with pytest.raises(ValueError, match="undecidable from a finite prefix"):
        decide(a)


def test_bundle_accepts_q_at_the_limit():
    data = bundle_data(AngleSequence.constant(3, Fraction(1, MAX_BUNDLE_Q)))
    assert (data.q, data.k) == (MAX_BUNDLE_Q, 512)


def test_bundle_refuses_q_past_the_limit(refuse_the_order):
    # at q = 2**61 - 1 the lists of length q once ran out of memory
    for q in (MAX_BUNDLE_Q + 1, 2**61 - 1):
        with pytest.raises(ValueError, match="this sequence has q = %d$" % q):
            bundle_data(AngleSequence.constant(2, Fraction(1, q)))


def test_bundle_rejects_aperiodic():
    a = AngleSequence(3, Fraction(1, 2), NadicInteger.iota(0, 3))
    with pytest.raises(ValueError):
        bundle_data(a)


def test_bundle_json_keys(thirds_2):
    blob = bundle_data(thirds_2).to_json()
    assert set(blob) == {"q", "p", "k", "lambda", "base", "u", "v"}
    assert blob["lambda"] == "1/3"
