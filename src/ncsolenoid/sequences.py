"""Coherent sequences of exact circle angles.

An angle is a rational number modulo 1, standing for the unit complex
number e(theta) = exp(2 i pi theta); multiplying unit complex numbers is
adding angles, so the whole circle layer stays in Fraction arithmetic.

An ``AngleSequence`` over scale N is a sequence (alpha_n) of angles with

    N * alpha_{n+1} == alpha_n  (mod 1)  for every n,

stored losslessly as the pair (alpha_0, carrier): alpha_0 is the head
in [0, 1) and the carrier is the N-adic integer J with

    alpha_n = (alpha_0 + J_n) / N**n.

The digit stream of the carrier is exactly the stream of division
choices j_n in [0, N) with N * alpha_{n+1} = alpha_n + j_n.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .nadic import (
    NadicInteger,
    _Value,
    as_fraction,
    check_carrier,
    check_int,
    check_scale,
    format_fraction,
    multiplicative_order,
    residue,
)


class Angle(_Value):
    """A rational angle theta mod 1, i.e. the unit complex e(theta).

    >>> Angle(Fraction(3, 4)) + Angle(Fraction(1, 2))
    Angle(1/4)
    >>> 3 * Angle(Fraction(1, 3))
    Angle(0)
    """

    __slots__ = ("value",)
    _key = attrgetter("value")

    def __init__(self, value):
        self._fill(as_fraction(value) % 1)

    @classmethod
    def _of(cls, value):
        """Trusted construction from a Fraction already in [0, 1)."""
        a = object.__new__(cls)
        _set_value(a, value)
        return a

    def __add__(self, other):
        if not isinstance(other, Angle):
            return NotImplemented
        return Angle(self.value + other.value)

    def __neg__(self):
        return Angle(-self.value)

    def __mul__(self, m):
        if isinstance(m, bool) or not isinstance(m, int):
            return NotImplemented
        return Angle(self.value * m)

    __rmul__ = __mul__

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "Angle(%s)" % format_fraction(self.value)

    def to_json(self):
        return format_fraction(self.value)


(_set_value,) = Angle._setters


class AngleSequence(_Value):
    """A coherent angle sequence over scale N, stored as (head, carrier).

    >>> a = AngleSequence.constant(3, Fraction(1, 2))
    >>> [a.value(n) for n in range(4)]
    [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]
    >>> a.period()
    1
    >>> b = AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))
    >>> [b.value(n) for n in range(5)]
    [Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]
    >>> b.period()
    2
    """

    __slots__ = ("modulus", "base", "carrier")
    _key = attrgetter("modulus", "base", "carrier")

    def __init__(self, modulus, base, carrier):
        modulus = check_scale(modulus)
        base = as_fraction(base)
        if not 0 <= base < 1:
            raise ValueError("head angle must lie in [0, 1)")
        check_carrier(carrier)
        if carrier.modulus != modulus:
            raise ValueError("carrier scale %d does not match %d" % (carrier.modulus, modulus))
        self._fill(modulus, base, carrier)

    @classmethod
    def zero(cls, modulus):
        return cls(modulus, Fraction(0), NadicInteger.iota(0, modulus))

    @classmethod
    def constant(cls, modulus, q):
        """The periodic sequence with head frac(q) and carrier -frac(q).

        The denominator b of q must be prime to N.  Writing frac(q) = a/b,
        the terms are alpha_n = (a * N**-n mod b) / b, so the sequence is
        constant only when (N - 1) * q is an integer; in general its
        period is the multiplicative order of N mod b.

        >>> a = AngleSequence.constant(12, Fraction(1, 7))
        >>> [a.value(n).numerator for n in range(7)]
        [1, 3, 2, 6, 4, 5, 1]
        >>> a.period()
        6
        """
        head = as_fraction(q) % 1
        return cls(modulus, head, NadicInteger.from_value(-head, modulus))

    def value(self, n):
        """The term alpha_n as a Fraction in [0, 1)."""
        return (self.base + self.carrier.at(n)) / self.modulus ** n

    def digit(self, n):
        """The division choice j_n with N * alpha_{n+1} = alpha_n + j_n."""
        return self.carrier.digit(n)

    def shift(self, s):
        """Drop the first s terms: n -> alpha_{s+n}.

        >>> b = AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))
        >>> b.shift(1).value(0)
        Fraction(2, 3)
        """
        if check_int(s, "shift", 0) == 0:
            return self
        h, w = _move((self.base, self.carrier.exact_value("a shift")), self.modulus ** s, 1)
        return AngleSequence(self.modulus, h, NadicInteger.from_value(w, self.modulus))

    def period(self):
        """Minimal p with alpha_{n+p} == alpha_n for all n, or None; README "Conventions"."""
        if not self.has_finite_range():
            return None
        return multiplicative_order(self.modulus, self.base.denominator)

    def has_finite_range(self):
        """Whether {alpha_n} is a finite set (alpha is periodic); README "Conventions"."""
        w, h = self.carrier.exact_value("periodicity"), self.base
        return w.numerator == -h.numerator and w.denominator == h.denominator

    def __add__(self, other):
        if not isinstance(other, AngleSequence):
            return NotImplemented
        if other.modulus != self.modulus:
            raise ValueError("mismatched scales")
        total = self.base + other.base
        carry = 1 if total >= 1 else 0
        value = self.carrier.exact_value("addition") + other.carrier.exact_value("addition")
        carrier = NadicInteger.from_value(value + carry, self.modulus)
        return AngleSequence(self.modulus, total - carry, carrier)

    def __neg__(self):
        h, w = _move((self.base, self.carrier.exact_value("negation")), 1, -1)
        return AngleSequence(self.modulus, h, NadicInteger.from_value(w, self.modulus))

    def __repr__(self):
        return "AngleSequence(scale=%d, head=%s, carrier=%r)" % (
            self.modulus,
            format_fraction(self.base),
            self.carrier,
        )

    def to_json(self):
        return {
            "N": self.modulus,
            "alpha0": format_fraction(self.base),
            "carrier": self.carrier.to_json(),
        }


def _move(pair, k, sign):
    """The exact pair (h, w) at scale R divided by k = R**q * d (shift q, block d), then signed."""
    h, w = pair
    if k > 1:
        t = residue(w, k)
        h, w = (h + t) / k, (w - t) / k
    if sign < 0:
        c = 1 if h else 0
        h, w = c - h, -w - c
    return h, w


def check_sequence(*seqs):
    """Raise TypeError unless every argument is an AngleSequence."""
    for s in seqs:
        if not isinstance(s, AngleSequence):
            raise TypeError("expected an AngleSequence")
