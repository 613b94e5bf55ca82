"""Multipliers on Q_N x Q_N and their symmetrizer subgroups.

A coherent angle sequence alpha over scale N defines a multiplier on
(Q_N)**2: for g = (p1/N**k1, p2/N**k2) and h = (p3/N**k3, p4/N**k4),
both coordinates in lowest N-adic terms,

    Psi_alpha(g, h) = alpha_{k1 + k4} * p1 * p4   (mod 1),

whose antisymmetrisation Theta_alpha is a skew bicharacter.  Its
symmetrizer, the g with Theta_alpha(g, .) = 0, and the simplicity of the
twisted algebra follow from periodicity alone (README "Conventions
worth knowing").
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm
from operator import attrgetter

from .nadic import QnRational, _Lazy, _tower, _Value, _view, check_int, check_point
from .sequences import Angle, AngleSequence, check_sequence


class SequenceKind(enum.Enum):
    """Partition of coherent angle sequences by range behaviour."""

    RATIONAL_PERIODIC = "RationalPeriodic"
    RATIONAL_APERIODIC = "RationalAperiodic"


class Symmetrizer(_Value):
    """Description of a symmetrizer subgroup of (Q_N)**2.

    One of three shapes: ``trivial`` (only the identity), ``full`` (the
    whole group), or ``scaled_lattice(b)`` (pairs whose reduced
    numerators are both multiples of b, with b > 1 coprime to N).

    >>> Symmetrizer.scaled_lattice(62)
    Symmetrizer('ScaledLattice', b=62)
    """

    __slots__ = ("variant", "b")
    _key = attrgetter("variant", "b")

    def __init__(self, variant, b=None):
        if variant not in ("Trivial", "Full", "ScaledLattice"):
            raise ValueError("unknown symmetrizer variant %r" % (variant,))
        if variant == "ScaledLattice":
            check_int(b, "lattice scale", 2)
        elif b is not None:
            raise ValueError("only ScaledLattice carries a scale")
        self._fill(variant, b)

    @classmethod
    def trivial(cls):
        return cls("Trivial")

    @classmethod
    def full(cls):
        return cls("Full")

    @classmethod
    def scaled_lattice(cls, b):
        return cls("ScaledLattice", b)

    def contains(self, g):
        """Whether a pair of QnRationals lies in the described subgroup."""
        (p, _), (q, _) = _as_pair(g, None)
        if self.variant == "Full":
            return True
        if self.variant == "Trivial":
            return p == 0 and q == 0
        return p % self.b == 0 and q % self.b == 0

    def __repr__(self):
        if self.variant == "ScaledLattice":
            return "Symmetrizer('ScaledLattice', b=%d)" % self.b
        return "Symmetrizer(%r)" % self.variant

    def to_json(self):
        if self.variant == "ScaledLattice":
            return {"variant": "ScaledLattice", "b": self.b}
        return {"variant": self.variant}


def _as_pair(g, modulus):
    """Validate g as a pair of QnRationals (optionally at a given scale); the pairs (num, exp)."""
    try:
        x, y = g
    except (TypeError, ValueError):
        raise ValueError("expected a pair of Q_N elements") from None
    check_point(y, check_point(x, modulus).modulus)
    return (x.num, x.exp), (y.num, y.exp)


def psi_phase(alpha, g, h):
    """The multiplier Psi_alpha(g, h) as an exact Angle.

    >>> a = AngleSequence.constant(3, Fraction(1, 2))
    >>> g = (QnRational(1, 1, 3), QnRational(0, 0, 3))
    >>> h = (QnRational(0, 0, 3), QnRational(1, 1, 3))
    >>> psi_phase(a, g, h)
    Angle(1/2)
    """
    check_sequence(alpha)
    g, h = _as_pair(g, alpha.modulus), _as_pair(h, alpha.modulus)
    return _angle(*_psi_frac(_terms(alpha), g, h))


def _terms(alpha, K=None):
    """(c, A, P): alpha_0 = a/c, the numerator row A[n] = alpha_n * c * N**n, and N**n.

    A is built by :func:`_numerator` on the carrier's tower to level K, or with
    K None read on demand through its view (a prefix raises only past its window).
    """
    head = alpha.base.as_integer_ratio()
    if K is None:
        _, J, P = _view(alpha.carrier)
        return head[1], _Lazy(lambda n: _numerator(head, n, J)), P
    _, J, P = _tower(alpha.carrier, K)
    return head[1], [_numerator(head, n, J) for n in range(K + 1)], P


def _psi_frac(t, g, h):
    """psi_phase unchecked, on pairs of lowest-terms pairs and alpha's terms: (num, c N**n)."""
    (p1, k1), (p4, k4) = g[0], h[1]
    c, A, P = t
    n = k1 + k4
    return A[n] * p1 * p4, c * P[n]


def _numerator(head, n, J):
    """The integer alpha_n * c * N**n = a + c * J_n, for head = (a, c) with alpha_0 = a/c.

    J is a row of carrier residues J_n, and alpha_n = (a + c J_n) / (c N**n).
    A common denominator b, a multiple of c, scales it by b // c.
    """
    a, c = head
    return a + c * J[n]


def _angle(num, den):
    """The Angle num/den mod 1, for integers num and den > 0."""
    return Angle._of(Fraction(num % den, den))


def theta_phase(alpha, g, h):
    """The skew bicharacter Theta_alpha(g, h) = Psi(g, h) - Psi(h, g).

    One Fraction over c * N**max(n, m), where c is alpha_0's denominator,
    n = k1 + k4 and m = k3 + k2 are the levels of Psi(g, h) and Psi(h, g).
    """
    check_sequence(alpha)
    g, h = _as_pair(g, alpha.modulus), _as_pair(h, alpha.modulus)
    return _angle(*_theta_frac(_terms(alpha), g, h))


def _theta_frac(t, g, h):
    """Theta_alpha(g, h) as an integer pair (num, c * N**max(n, m)), as :func:`_psi_frac`."""
    ((p1, k1), (p2, k2)), ((p3, k3), (p4, k4)) = g, h
    c, A, P = t
    n, m = k1 + k4, k3 + k2
    e = max(n, m)
    return A[n] * p1 * p4 * P[e - n] - A[m] * p3 * p2 * P[e - m], c * P[e]


def bicharacter(zeta, xi, eta, chi, g, h):
    """A general product bicharacter from four angle sequences.

    With g = (p1/N**k1, p2/N**k2) and h = (p3/N**k3, p4/N**k4):

        zeta_{k1+k3} p1 p3 + eta_{k2+k3} p2 p3
        + chi_{k2+k4} p2 p4 + xi_{k1+k4} p1 p4   (mod 1).

    The sum is one integer numerator over lcm(b_i) * N**e, where the b_i
    are the head denominators and e is the deepest of the four levels.
    """
    check_sequence(zeta, xi, eta, chi)
    if not zeta.modulus == xi.modulus == eta.modulus == chi.modulus:
        raise ValueError("mismatched scales")
    g, h = _as_pair(g, zeta.modulus), _as_pair(h, zeta.modulus)
    return _angle(*_bichar_frac(*map(_terms, (zeta, xi, eta, chi)), g, h))


def _bichar_frac(zeta, xi, eta, chi, g, h):
    """The bicharacter on four sequences' terms: (num, lcm(c_i) * N**e), as ``_psi_frac``."""
    ((p1, k1), (p2, k2)), ((p3, k3), (p4, k4)) = g, h
    (c1, Z, P), (c2, E, _), (c3, C, _), (c4, X, _) = zeta, eta, chi, xi
    n1, n2, n3, n4 = k1 + k3, k2 + k3, k2 + k4, k1 + k4
    e, b = max(n1, n2, n3, n4), lcm(c1, c2, c3, c4)
    num = (
        Z[n1] * (b // c1) * p1 * p3 * P[e - n1]
        + E[n2] * (b // c2) * p2 * p3 * P[e - n2]
        + C[n3] * (b // c3) * p2 * p4 * P[e - n3]
        + X[n4] * (b // c4) * p1 * p4 * P[e - n4]
    )
    return num, b * P[e]


def symmetrizer(alpha):
    """The symmetrizer subgroup of Theta_alpha, described exactly.

    >>> from .nadic import NadicInteger
    >>> a = AngleSequence(5, Fraction(1, 62), NadicInteger.from_value(Fraction(-1, 62), 5))
    >>> symmetrizer(a)
    Symmetrizer('ScaledLattice', b=62)
    """
    check_sequence(alpha)
    if not alpha.has_finite_range():
        return Symmetrizer.trivial()
    # With alpha_0 = c/b in lowest terms, every term is c_n/b where
    # c_n = c * N**-n mod b is a unit mod b, so b is the lattice scale;
    # the lattice of scale 1 is the whole group.
    b = alpha.base.denominator
    return Symmetrizer.full() if b == 1 else Symmetrizer.scaled_lattice(b)


def is_simple(alpha):
    """Simplicity of the twisted algebra attached to Psi_alpha.

    Holds exactly when alpha is aperiodic (equivalently, has infinite
    range; equivalently, the symmetrizer is trivial).
    """
    check_sequence(alpha)
    return not alpha.has_finite_range()


def classify_type(alpha):
    """Place alpha in the range partition (see SequenceKind)."""
    check_sequence(alpha)
    if alpha.has_finite_range():
        return SequenceKind.RATIONAL_PERIODIC
    return SequenceKind.RATIONAL_APERIODIC
