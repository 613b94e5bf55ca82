"""A sha256 digest pins every verdict, witness and reason of ``isomorphic``.

The family is seeded and covers each path of the search: shift pairs
(odd shifts negated) at scales 2, 3, 4, 6, 10 and 12, periodic pairs
related by a unit at composite scales, unrelated aperiodic pairs at
bounds 4 to 64, cross-scale pairs, prefix carriers and pairs whose
scales have different prime supports: 479 pairs in all.  A change to the search that
keeps its outputs keeps the digest; to see which pair moved, compare
``_verdicts()`` before and after.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

from ncsolenoid.classify import isomorphic
from ncsolenoid.nadic import NadicInteger, prime_factors
from ncsolenoid.sequences import AngleSequence

DIGEST = "0a34d80044afc03a1121414d6a5888bd577e70cd6849e9de9c89c7c2f6798d14"


def _prime_to(rng, n, top):
    return rng.choice([d for d in range(1, top) if gcd(d, n) == 1])


def _aperiodic(rng, n):
    """An exact aperiodic sequence at scale n: head a/(n-smooth * prime-to), carrier c/d."""
    p = rng.choice(prime_factors(n))
    den = p ** rng.randint(0, 2) * _prime_to(rng, n, 12)
    head = Fraction(rng.randrange(den), den)
    while True:
        w = Fraction(rng.randint(-40, 40), _prime_to(rng, n, 10))
        if w != -head:
            return AngleSequence(n, head, NadicInteger.from_value(w, n))


def _periodic(rng, n, q=None):
    """The periodic sequence at scale n with head c/q, q > 1 prime to n and c prime to q."""
    q = q or rng.choice([q for q in range(2, 40) if gcd(q, n) == 1])
    c = rng.choice([c for c in range(1, q) if gcd(c, q) == 1])
    return AngleSequence.constant(n, Fraction(c, q))


def _unit(rng, n):
    u = rng.choice([1, -1])
    for p in set(prime_factors(n)):
        u *= p ** rng.randint(0, 3)
    return u


def _pairs(rng):
    for n in (2, 3, 4, 6, 10, 12):
        for s in (0, 1, 2, 3, 5, 8, 11, 13):
            a = _aperiodic(rng, n)
            b = a.shift(s)
            if s % 2:
                b = -b
            yield b, a, 16
            yield a, b, 16
    for n in (6, 10, 12, 15, 30):
        for _ in range(16):
            a = _periodic(rng, n)
            b = AngleSequence.constant(n, _unit(rng, n) * a.base)
            yield a, b, rng.choice([8, 32])
    for n in (2, 4, 5, 8, 9):
        for _ in range(4):
            a = _periodic(rng, n)
            yield a, _periodic(rng, n, a.base.denominator), 32
            yield a, AngleSequence(n, a.base, NadicInteger.from_value(a.base, n)), 8
    for n in (2, 3, 6, 10, 12):
        for bound in (4, 8, 16, 32, 64):
            a = _aperiodic(rng, n)
            b = AngleSequence(n, a.base, NadicInteger.from_value(a.carrier.value + rng.randint(1, 9), n))
            yield a, b, bound
            yield a, _aperiodic(rng, n), bound
    for n, m in ((2, 4), (4, 8), (6, 12), (12, 18), (3, 9), (10, 20), (6, 36)):
        for _ in range(5):
            a = _aperiodic(rng, n)
            b = AngleSequence(m, a.base, NadicInteger.from_value(a.carrier.value, m))
            s = rng.randint(0, 5)
            yield a, b.shift(s) if s % 2 == 0 else -b.shift(s), 8
            yield b, _aperiodic(rng, n), 8
            q = _prime_to(rng, n * m, 30)
            yield AngleSequence.constant(n, Fraction(1, q)), AngleSequence.constant(m, Fraction(-1, q)), 8
    for n in (3, 4, 6):
        for _ in range(6):
            digits = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
            a = AngleSequence(n, Fraction(rng.randrange(5), 5), NadicInteger.from_prefix(digits, n))
            yield a, _aperiodic(rng, n), 8
            yield _aperiodic(rng, 2 * n), a, 8
    for n, m in ((2, 3), (6, 10), (5, 7), (12, 15), (4, 6), (30, 10)):
        for _ in range(6):
            yield _aperiodic(rng, n), _aperiodic(rng, m), 8
            yield AngleSequence.constant(n, Fraction(1, 7 * 11 * 13)), _aperiodic(rng, m), 8


def _verdicts():
    return [isomorphic(a, b, bound).to_json() for a, b, bound in _pairs(random.Random(20261019))]


def test_isomorphic_outputs_match_the_pinned_digest():
    verdicts = _verdicts()
    assert len(verdicts) == 479
    text = json.dumps(verdicts, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
