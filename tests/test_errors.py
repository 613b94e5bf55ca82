"""Exception types of the public entry points on bad arguments.

Each case calls one entry point with one bad argument (a bool, a float,
a str, a negative int, an object of the wrong class, or an element at a
mismatched scale) and pins the exception type it raises.  Messages are
not part of the contract; they are pinned only on the rows for raises
that no other in-process test reaches, as a record of what they say.
"""

from fractions import Fraction

import pytest

from ncsolenoid import classify, ktheory, multiplier, oracle
from ncsolenoid.nadic import (
    NadicInteger, QnRational, as_fraction, check_scale, multiplicative_order, prime_factors,
)
from ncsolenoid.sequences import AngleSequence

A3 = AngleSequence.constant(3, Fraction(1, 2))
A3B = AngleSequence.constant(3, Fraction(1, 4))
A2 = AngleSequence.constant(2, Fraction(1, 3))
A6 = AngleSequence.constant(6, Fraction(1, 5))
X3, X2 = QnRational(1, 1, 3), QnRational(1, 1, 2)
J3, J2 = A3.carrier, NadicInteger.iota(1, 2)
J5, J0 = NadicInteger.iota(5, 3), NadicInteger.iota(0, 3)  # cohomologous: xi_J5 - xi_J0 = d(psi)
JP = NadicInteger.from_prefix([1, 2], 3)
AP = AngleSequence(3, Fraction(1, 2), JP)
P3 = (X3, X3)
E3, E3B = ktheory.ExtensionElement(A3, 0, X3), ktheory.ExtensionElement(A3B, 0, X3)
K3, K3B = ktheory.as_pair(E3), ktheory.as_pair(E3B)
COCHAIN = ktheory.GeneratorCochain(3, {0: 1, 1: 0})

BAD_INTS = [("bool", True), ("float", 1.5), ("str", "1")]


def _case(call, bad, exc, id, message=None):
    """One row: call(bad) raises exc, with exactly message when it is given."""
    return pytest.param(call, bad, exc, message, id=id)


def _ints(name, call, negative=True):
    """ValueError cases for an integer argument; call takes the bad value."""
    cases = [_case(call, v, ValueError, id="%s-%s" % (name, kind)) for kind, v in BAD_INTS]
    if negative:
        cases.append(_case(call, -2, ValueError, id="%s-negative" % name))
    return cases


def _sequence_args(name, call):
    """TypeError for a non-sequence where an AngleSequence is expected."""
    return [
        _case(call, bad, TypeError, id="%s-%s" % (name, kind))
        for kind, bad in (("qn", X3), ("str", "x"), ("bool", True))
    ]


CASES = (
    _ints("check_scale", check_scale)
    + _ints("QnRational-num", lambda v: QnRational(v, 0, 3), negative=False)
    + _ints("QnRational-exp", lambda v: QnRational(1, v, 3))
    + _ints("QnRational-scale", lambda v: QnRational(1, 0, v))
    + _ints("QnRational.scaled", X3.scaled, negative=False)
    + _ints("NadicInteger-digit", lambda v: NadicInteger.from_prefix([0, v], 3))
    + [_case(lambda v: NadicInteger.from_prefix([v], 3), 3, ValueError, id="digit-high")]
    + _ints("NadicInteger.iota", lambda v: NadicInteger.iota(v, 3), negative=False)
    + _ints("NadicInteger.at", J3.at)
    + _ints("AngleSequence.shift", A3.shift)
    + [
        _case(J3.digit, v, ValueError, id="NadicInteger.digit-%s" % kind)
        for kind, v in (("bool", True), ("float", 1.5), ("negative", -2))
    ]
    + [
        case
        for name, call in (
            ("brute_symmetrizer-window_num", lambda v: oracle.brute_symmetrizer(A3, window_num=v)),
            ("brute_symmetrizer-window_exp", lambda v: oracle.brute_symmetrizer(A3, window_exp=v)),
            ("brute_symmetrizer-spot_checks",
             lambda v: oracle.brute_symmetrizer(A3, spot_checks=v)),
            ("colimit_report-depth", lambda v: oracle.colimit_report(A3, depth=v)),
            ("colimit_report-num_window", lambda v: oracle.colimit_report(A3, num_window=v)),
            ("cocycle_fuzz-xi-trials", lambda v: oracle.cocycle_fuzz("xi", J3, trials=v)),
            ("cocycle_fuzz-zeta-trials", lambda v: oracle.cocycle_fuzz("zeta", J3, trials=v)),
            ("cocycle_fuzz-psi-trials", lambda v: oracle.cocycle_fuzz("psi_bichar", A3, trials=v)),
        )
        for case in _ints(name, call)
    ]
    + [_case(lambda v: oracle.cocycle_fuzz("xi", J3, trials=v), 0, ValueError,
             id="cocycle_fuzz-xi-trials-0")]
    + _ints("isomorphic-bound", lambda v: classify.isomorphic(A3, A3, v))
    + _ints("Symmetrizer-b", lambda v: multiplier.Symmetrizer("ScaledLattice", v))
    + [_case(multiplier.Symmetrizer.scaled_lattice, 1, ValueError, id="Symmetrizer-b-1")]
    + _ints("GeneratorCochain-value", lambda v: ktheory.GeneratorCochain(3, {0: v}), False)
    + [_case(lambda v: ktheory.GeneratorCochain(3, {0: 0, v: 0}), -1, ValueError,
             id="GeneratorCochain-level-negative"),
       _case(lambda v: ktheory.GeneratorCochain(3, {0: 0, v: 0}), "1", ValueError,
             id="GeneratorCochain-level-str"),
       _case(lambda v: ktheory.GeneratorCochain(3, {0: -5, v: 0}), 2, ValueError,
             id="GeneratorCochain-level-gap")]
    + _ints("ExtensionElement-z", lambda v: ktheory.ExtensionElement(A3, v, X3), False)
    + _ints("GeneratorCochain-scale", lambda v: ktheory.GeneratorCochain(v, {0: 1}))
    + _ints("cohomologous-depth", lambda v: ktheory.cohomologous(J5, J0, depth=v))
    + [_case(lambda v: ktheory.cohomologous(J5, J0, depth=v), 0, ValueError,
             id="cohomologous-depth-0"),
       _case(lambda v: ktheory.cohomologous(J5, J0, depth=v), 2.0, ValueError,
             id="cohomologous-depth-integral-float")]
    + _ints("prime_factors", prime_factors)
    + [_case(prime_factors, 12.0, ValueError, id="prime_factors-integral-float"),
       _case(prime_factors, 1, ValueError, id="prime_factors-1")]
    + _ints("multiplicative_order-base", lambda v: multiplicative_order(v, 7), negative=False)
    + _ints("multiplicative_order-modulus", lambda v: multiplicative_order(2, v))
    + [_case(lambda v: multiplicative_order(2, v), 7.0, ValueError,
             id="multiplicative_order-modulus-integral-float")]
    + _sequence_args("isomorphic", lambda s: classify.isomorphic(A3, s))
    + _sequence_args("prime_case_isomorphic", lambda s: classify.prime_case_isomorphic(s, A3))
    + _sequence_args("bundle_data", classify.bundle_data)
    + _sequence_args("psi_phase", lambda s: multiplier.psi_phase(s, P3, P3))
    + _sequence_args("theta_phase", lambda s: multiplier.theta_phase(s, P3, P3))
    + _sequence_args("bicharacter", lambda s: multiplier.bicharacter(A3, A3, s, A3, P3, P3))
    + _sequence_args("symmetrizer", multiplier.symmetrizer)
    + _sequence_args("is_simple", multiplier.is_simple)
    + _sequence_args("classify_type", multiplier.classify_type)
    + _sequence_args("ExtensionElement", lambda s: ktheory.ExtensionElement(s, 0, X3))
    + _sequence_args("k_member", lambda s: ktheory.k_member(s, 0, X3))
    + _sequence_args("r_digit", lambda s: ktheory.r_digit(s, 0))
    + _sequence_args("embedding_matrix", lambda s: ktheory.embedding_matrix(s, 0))
    + _sequence_args("brute_symmetrizer", oracle.brute_symmetrizer)
    + _sequence_args("colimit_report", oracle.colimit_report)
    + _sequence_args("cocycle_fuzz-psi", lambda s: oracle.cocycle_fuzz("psi_bichar", s, 1))
    + [
        _case(f, bad, exc, id=name)
        for name, f, bad, exc in [
            # wrong class and mismatched scale in the group operations
            ("QnRational-add-class", X3.__add__, J3, TypeError),
            ("QnRational-add-scale", X3.__add__, X2, ValueError),
            ("QnRational-sub-class", lambda o: X3 - o, J3, TypeError),
            ("QnRational-sub-str", lambda o: X3 - o, "x", TypeError),
            ("QnRational-sub-scale", lambda o: X3 - o, X2, ValueError),
            ("NadicInteger-add-class", J3.__add__, X3, TypeError),
            ("NadicInteger-add-scale", J3.__add__, J2, ValueError),
            ("NadicInteger-sub-class", lambda o: J3 - o, X3, TypeError),
            ("NadicInteger-sub-scale", lambda o: J3 - o, J2, ValueError),
            # a prefix carrier is a read-only window: no arithmetic, no shift
            ("NadicInteger-add-prefix", J3.__add__, JP, ValueError),
            ("NadicInteger-sub-prefix", lambda o: J3 - o, JP, ValueError),
            ("NadicInteger-neg-prefix", lambda J: -J, JP, ValueError),
            ("AngleSequence-add-prefix", lambda o: A3 + o, AP, ValueError),
            ("AngleSequence-sub-prefix", lambda o: A3 - o, AP, ValueError),
            ("AngleSequence-neg-prefix", lambda s: -s, AP, ValueError),
            ("AngleSequence.shift-prefix", lambda s: s.shift(1), AP, ValueError),
            ("AngleSequence-add-class", lambda o: A3 + o, X3, TypeError),
            ("AngleSequence-add-scale", lambda o: A3 + o, A2, ValueError),
            ("AngleSequence-sub-class", lambda o: A3 - o, X3, TypeError),
            ("AngleSequence-sub-str", lambda o: A3 - o, "x", TypeError),
            ("AngleSequence-sub-float", lambda o: A3 - o, 1.5, TypeError),
            ("AngleSequence-sub-scale", lambda o: A3 - o, A2, ValueError),
            ("ExtensionElement-add-class", E3.__add__, K3, TypeError),
            ("ExtensionElement-add-sequence", E3.__add__, E3B, ValueError),
            ("ExtensionElement-sub-class", lambda o: E3 - o, K3, TypeError),
            ("ExtensionElement-sub-sequence", lambda o: E3 - o, E3B, ValueError),
            ("KPairElement-add-class", K3.__add__, E3, TypeError),
            ("KPairElement-add-sequence", K3.__add__, K3B, ValueError),
            ("KPairElement-sub-class", lambda o: K3 - o, E3, TypeError),
            ("KPairElement-sub-sequence", lambda o: K3 - o, K3B, ValueError),
            # points of Q_N: wrong class and mismatched scale
            ("xi_cocycle-scale", lambda x: ktheory.xi_cocycle(J3, X3, x), X2, ValueError),
            ("xi_cocycle-class", lambda x: ktheory.xi_cocycle(J3, x, X3), 1, ValueError),
            ("xi_cocycle-carrier", lambda J: ktheory.xi_cocycle(J, X3, X3), X3, TypeError),
            ("prufer_pair-scale", lambda x: ktheory.prufer_pair(J3, x), X2, ValueError),
            ("prufer_pair-bool", lambda x: ktheory.prufer_pair(J3, x), True, ValueError),
            ("mu_cochain-scale", lambda x: ktheory.mu_cochain(J3, x), X2, ValueError),
            ("mu_cochain-str", lambda x: ktheory.mu_cochain(J3, x), "1/3", ValueError),
            ("cohomologous-class", lambda R: ktheory.cohomologous(J3, R), X3, TypeError),
            ("cohomologous-scale", lambda R: ktheory.cohomologous(J3, R), J2, ValueError),
            ("cochain-call-scale", COCHAIN, X2, ValueError),
            ("cochain-call-class", COCHAIN, 1, ValueError),
            ("ExtensionElement-x-scale", lambda x: ktheory.ExtensionElement(A3, 0, x), X2,
             ValueError),
            ("ExtensionElement-x-class", lambda x: ktheory.ExtensionElement(A3, 0, x), 1.5,
             ValueError),
            ("k_member-scale", lambda x: ktheory.k_member(A3, 0, x), X2, ValueError),
            ("k_member-class", lambda x: ktheory.k_member(A3, 0, x), "1/3", ValueError),
            ("k_member-first-float", lambda t: ktheory.k_member(A3, t, X3), 1.5, ValueError),
            ("as_pair-class", ktheory.as_pair, K3, TypeError),
            ("as_extension-class", ktheory.as_extension, E3, TypeError),
            ("psi_phase-pair-scale", lambda g: multiplier.psi_phase(A3, g, P3), (X2, X2),
             ValueError),
            ("psi_phase-pair-mixed", lambda g: multiplier.psi_phase(A3, g, P3), (X3, X2),
             ValueError),
            ("psi_phase-pair-class", lambda g: multiplier.psi_phase(A3, g, P3), (X3, 1),
             ValueError),
            ("psi_phase-pair-shape", lambda g: multiplier.psi_phase(A3, g, P3), X3, ValueError),
            ("contains-pair-mixed", multiplier.Symmetrizer.full().contains, (X3, X2), ValueError),
            ("contains-pair-class", multiplier.Symmetrizer.full().contains, (X3, True),
             ValueError),
            ("bicharacter-scale",
             lambda s: multiplier.bicharacter(A3, A3, s, A3, P3, P3), A2, ValueError),
            ("cocycle_fuzz-xi", lambda s: oracle.cocycle_fuzz("xi", s, 1), A3, TypeError),
            ("cocycle_fuzz-zeta", lambda s: oracle.cocycle_fuzz("zeta", s, 1), A3, TypeError),
            ("coboundary_solve-J-int", lambda J: oracle.coboundary_solve(J, J3), 5, TypeError),
            ("coboundary_solve-R-int", lambda R: oracle.coboundary_solve(J3, R), 5, TypeError),
            ("AngleSequence-carrier-class", lambda J: AngleSequence(3, 0, J), X3, TypeError),
            # a prefix is a list of digits; anything else is a bad value, not a crash
            ("NadicInteger-prefix-int", lambda p: NadicInteger.from_prefix(p, 3), 5, ValueError),
            ("NadicInteger-prefix-bool", lambda p: NadicInteger.from_prefix(p, 3), True,
             ValueError),
            ("NadicInteger-prefix-dict", lambda p: NadicInteger.from_prefix(p, 3), {}, ValueError),
            ("prime_case-composite", lambda s: classify.prime_case_isomorphic(s, A3), A6,
             ValueError),
        ]
    ]
    + [
        _case(f, bad, exc, name, message)
        for name, f, bad, exc, message in [
            # raises that no other in-process test reaches, with their messages
            ("as_fraction-decimal", as_fraction, "0.5", ValueError,
             "floating point literals are not accepted: '0.5'"),
            ("QnRational-frozen", lambda v: setattr(X3, "num", v), 5, AttributeError,
             "QnRational is immutable"),
            ("NadicInteger-neither", lambda v: NadicInteger(3, value=v), None, ValueError,
             "exactly one of value and prefix is required"),
            ("NadicInteger-both", lambda p: NadicInteger(3, value=0, prefix=p), [1], ValueError,
             "exactly one of value and prefix is required"),
            ("trace-class", ktheory.trace, X3, TypeError, "expected a K0 element"),
            ("IsoVerdict-kind", classify.IsoVerdict, "maybe", ValueError,
             "bad verdict kind 'maybe'"),
            ("AngleMatrix.scaled-class", classify.AngleMatrix.identity(2).scaled, Fraction(1, 2),
             ValueError, "expected an Angle"),
            ("coboundary_solve-scale", lambda R: oracle.coboundary_solve(J3, R), J2, ValueError,
             "carriers live at different scales"),
            # the digits it reads are sized by the heights of exact carriers
            ("coboundary_solve-prefix", lambda R: oracle.coboundary_solve(J3, R),
             NadicInteger.from_prefix([1] * 12, 3), ValueError,
             "coboundary_solve is undecidable from a finite prefix: it needs an exact carrier"),
        ]
    ]
)


@pytest.mark.parametrize("call, bad, exc, message", CASES)
def test_bad_argument_raises_its_pinned_type(call, bad, exc, message):
    with pytest.raises(exc) as raised:
        call(bad)
    assert message is None or str(raised.value) == message
