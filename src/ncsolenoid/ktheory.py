"""The ordered K0 data of a twisted solenoid algebra, in exact arithmetic.

Fix a coherent angle sequence alpha over scale N with carrier J.  The
K0 group of the attached algebra is the subgroup of Q x Q_N

    K_alpha = { (z + p * J_k / N**k,  p / N**k) : z, p integers, k >= 0 },

and the unique trace sends (z + p J_k / N**k, p / N**k) to z + p * alpha_k.
In the simple case the trace orders K_0 (a point is positive when its trace
is); the first coordinate does not: at N = 3 and head 1/2, the point (1, -3)
has first coordinate 1 and trace -1/2.

The same group has a cocycle presentation on the set Z x Q_N with the
twisted sum

    (z, x) + (z', x') = (z + z' + xi_J(x, x'), x + x'),

where xi_J is an integer-valued symmetric 2-cocycle on Q_N determined
by the carrier.  For x = p1/N**k1 and y = p2/N**k2 in lowest terms,
with S(k, m) = (J_m - J_k) / N**k:

    xi_J(x, y) = -p1 * S(k1, k2)          if k1 < k2,
                 -p2 * S(k2, k1)          if k2 < k1,
                  q  * S(r,  k1)          if k1 == k2,

the last case writing x + y = q / N**r in lowest terms (q = r = 0 when
x + y == 0).  The correspondence between the two presentations is
(z, p/N**k) <-> (z + p J_k / N**k, p/N**k).

The pairing ``prufer_pair`` into Q/Z and the cochains ``mu_cochain``,
``zeta_cocycle`` and ``cohomologous``'s witness relate to xi_J as their
docstrings state.  Stagewise, K0 is the increasing union of the rank-2
lattices of ``embedding_matrix``, which ``connecting_matrix`` links as
``MIRROR`` states; ``oracle.colimit_report`` checks both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter

from .nadic import (
    NadicInteger, QnRational, _Frozen, _pair_sum, _Value, _view, as_fraction, check_carrier,
    check_int, check_point, check_scale, format_fraction,
)
from .sequences import Angle, AngleSequence, check_sequence


def _lift(J, x):
    """The rational p * J_k / N**k for x = p / N**k in lowest terms."""
    return Fraction(x.num * J._at(x.exp), J.modulus ** x.exp)


def _read(J, *points):
    """(tower, *pairs) of carrier J and points of Q_N, checked in turn: J first, then each point."""
    check_carrier(J)
    return (_view(J), *((check_point(x, J.modulus).num, x.exp) for x in points))


def xi_cocycle(J, x, y):
    """The integer 2-cocycle xi_J(x, y) on Q_N (symmetric, zero on 0).

    >>> J = NadicInteger.iota(1, 2)
    >>> xi_cocycle(J, QnRational(1, 1, 2), QnRational(1, 1, 2))
    1
    >>> xi_cocycle(J, QnRational(1, 1, 2), QnRational(1, 2, 2))
    0
    """
    return _xi(*_read(J, x, y))


def _xi(T, x, y):
    """xi_cocycle unchecked, on lowest-terms pairs and a tower (N, J, P): S(k, m) = J_m // N**k."""
    (N, J, P), (p1, k1), (p2, k2) = T, x, y
    if k1 < k2:
        return -p1 * (J[k2] // P[k1])
    if k2 < k1:
        return -p2 * (J[k1] // P[k2])
    q, r = _pair_sum(x, y, N)
    return q * (J[k1] // P[r]) if q else 0


def prufer_pair(J, x):
    """The pairing  p/N**k |-> frac(p * J_k / N**k)  into Q/Z."""
    return Angle._of(Fraction(*_prufer(*_read(J, x))))


def _prufer(T, x):
    """prufer_pair unchecked, on a lowest-terms pair and a tower (N, J, P); (num, den) reduced."""
    (_, J, P), (p, k) = T, x
    a = p * J[k] % P[k]
    g = gcd(a, P[k])
    return a // g, P[k] // g


def mu_cochain(J, x):
    """The integer cochain mu_J(x) = -floor(p * J_k / N**k) on lowest terms.

    >>> J = NadicInteger.iota(1, 2)
    >>> mu_cochain(J, QnRational(3, 1, 2))
    -1
    """
    return _mu(*_read(J, x))


def _mu(T, x):
    """mu_cochain unchecked, on a lowest-terms pair and a tower (N, J, P)."""
    (_, J, P), (p, k) = T, x
    return -(p * J[k] // P[k])


def cross_section_carry(t1, t2):
    """Carry cocycle of the section Q/Z -> [0, 1): s(t1)+s(t2)-s(t1+t2).

    Takes Angles (or rationals read mod 1); the result is 0 or 1, the
    integer floor (n1 d2 + n2 d1) // (d1 d2) of t1 + t2 = n1/d1 + n2/d2.
    """
    a1 = t1.value if isinstance(t1, Angle) else as_fraction(t1) % 1
    a2 = t2.value if isinstance(t2, Angle) else as_fraction(t2) % 1
    return _carry(a1.as_integer_ratio(), a2.as_integer_ratio())


def _carry(t1, t2):
    """cross_section_carry on angles held as integer pairs (num, den), 0 <= num < den."""
    (n1, d1), (n2, d2) = t1, t2
    return (n1 * d2 + n2 * d1) // (d1 * d2)


def zeta_cocycle(J, x, y):
    """The pullback of the carry cocycle along the pairing (values 0 or 1).

    Computed in integers from the two residues, without building the
    pairing angles: with a_i = p_i * J_{k_i} mod N**k_i and e = max(k1, k2),
    the carry is (a1 * N**(e - k1) + a2 * N**(e - k2)) // N**e.  So it is
    a route independent of ``cross_section_carry(prufer_pair(J, x),
    prufer_pair(J, y))``, which ``oracle.cocycle_fuzz`` compares it with.
    It satisfies zeta_J + d(-mu_J) = xi_J, with d as in ``coboundary``.

    >>> J = NadicInteger.iota(1, 2)
    >>> zeta_cocycle(J, QnRational(1, 1, 2), QnRational(1, 1, 2))
    1
    """
    return _zeta(*_read(J, x, y))


def _zeta(T, x, y):
    """zeta_cocycle unchecked, on lowest-terms pairs and a tower (N, J, P)."""
    (_, J, P), (p1, k1), (p2, k2) = T, x, y
    e = max(k1, k2)
    a1 = p1 * J[k1] % P[k1]
    a2 = p2 * J[k2] % P[k2]
    return (a1 * P[e - k1] + a2 * P[e - k2]) // P[e]


def coboundary(c, x, y):
    """d(c)(x, y) = c(x) + c(y) - c(x + y) for an integer cochain c."""
    return c(x) + c(y) - c(x + y)


class GeneratorCochain(_Frozen):
    """An integer cochain on Q_N determined by its values on 1/N**k.

    The table holds psi_k = psi(1/N**k) for every k = 0..depth, and the
    cochain extends linearly on each level: psi(p/N**k) = p * psi_k on
    lowest terms.  Evaluation beyond the recorded depth raises.
    """

    __slots__ = ("modulus", "table")

    def __init__(self, modulus, table):
        modulus, table = check_scale(modulus), dict(table)
        for k, v in table.items():
            check_int(k, "level", 0)
            check_int(v, "cochain value")
        if not table or max(table) != len(table) - 1:
            raise ValueError("the table must cover every level from 0 to its depth")
        self._fill(modulus, table)

    def psi1(self):
        return self.table[0]

    def __call__(self, x):
        if check_point(x, self.modulus).exp not in self.table:
            raise ValueError("level %d exceeds the recorded depth" % x.exp)
        return self._eval((x.num, x.exp))

    def _eval(self, x):
        """The cochain at a lowest-terms pair (num, exp) within the recorded depth, unchecked."""
        p, k = x
        return p * self.table[k]

    def __repr__(self):
        return "GeneratorCochain(scale=%d, table=%r)" % (self.modulus, self.table)

    def to_json(self):
        return {"psi": {str(k): str(v) for k, v in sorted(self.table.items())}}


def cohomologous(J, R, depth=8):
    """A witness cochain with xi_J - xi_R = d(psi), or None.

    The cocycles are cohomologous exactly when J - R is the canonical
    copy of an ordinary integer m; the witness then has psi(1) = -m and
    psi_k = (J_k - R_k - m) / N**k = -floor((R_k + m) / N**k), read from
    one residue of R, each level from the one before by ``// N``.
    ``oracle.coboundary_solve`` checks it from cocycle values alone, and
    the selftest ``coboundary`` row compares the two tables.
    """
    check_carrier(J, R)
    check_int(depth, "depth", 1)
    if J.modulus != R.modulus:
        raise ValueError("carriers live at different scales")
    diff = J.exact_value("cohomology") - R.exact_value("cohomology")
    if diff.denominator != 1:
        return None
    # R_k = t - N**k * (t // N**k) for t = R_depth, so psi_k = t // N**k - (t + m) // N**k
    N, t = R.modulus, R._at(depth)
    u, table = t + int(diff), {}
    for k in range(depth + 1):
        table[k], t, u = t - u, t // N, u // N
    return GeneratorCochain(N, table)


class ExtensionElement(_Value):
    """(z, x) in the cocycle presentation Z x Q_N with the twisted sum.

    >>> a = AngleSequence.constant(3, Fraction(1, 2))
    >>> e = ExtensionElement(a, 0, QnRational(1, 1, 3))
    >>> (e + e + e).z
    1
    """

    __slots__ = ("alpha", "z", "x")
    _key = attrgetter("alpha", "z", "x")

    def __init__(self, alpha, z, x):
        check_sequence(alpha)
        check_int(z, "z")
        check_point(x, alpha.modulus)
        self._fill(alpha, z, x)

    def __add__(self, other):
        self._require_same(other, "alpha")
        x, y = self.x, other.x
        z = self.z + other.z + _xi(_view(self.alpha.carrier), (x.num, x.exp), (y.num, y.exp))
        return ExtensionElement(self.alpha, z, x + y)

    def __neg__(self):
        return ExtensionElement(self.alpha, -self.z, -self.x)  # xi(x, -x) == 0 for every carrier

    def __repr__(self):
        return "ExtensionElement(z=%d, x=%r)" % (self.z, self.x)

    def to_json(self):
        return {"z": str(self.z), "x": self.x.to_json()}


def k_member(alpha, first, second):
    """Whether (first, second) lies in K_alpha inside Q x Q_N."""
    check_sequence(alpha)
    check_point(second, alpha.modulus)
    return (as_fraction(first) - _lift(alpha.carrier, second)).denominator == 1


class KPairElement(_Value):
    """A point (first, second) of K_alpha inside Q x Q_N.

    Membership is validated on construction.
    """

    __slots__ = ("alpha", "first", "second")
    _key = attrgetter("alpha", "first", "second")

    def __init__(self, alpha, first, second):
        first = as_fraction(first)
        if not k_member(alpha, first, second):
            raise ValueError("(%s, %r) is not a K0 point" % (format_fraction(first), second))
        self._fill(alpha, first, second)

    def __add__(self, other):
        self._require_same(other, "alpha")
        return KPairElement(self.alpha, self.first + other.first, self.second + other.second)

    def __neg__(self):
        return KPairElement(self.alpha, -self.first, -self.second)

    def __repr__(self):
        return "KPairElement(%s, %r)" % (format_fraction(self.first), self.second)

    def to_json(self):
        return {"first": format_fraction(self.first), "second": self.second.to_json()}


def as_pair(elem):
    """Convert (z, x) from the cocycle presentation to a concrete K0 point."""
    if not isinstance(elem, ExtensionElement):
        raise TypeError("expected an ExtensionElement")
    first = elem.z + _lift(elem.alpha.carrier, elem.x)
    return KPairElement(elem.alpha, first, elem.x)


def as_extension(elem):
    """Convert a concrete K0 point to its cocycle presentation."""
    if not isinstance(elem, KPairElement):
        raise TypeError("expected a KPairElement")
    z = elem.first - _lift(elem.alpha.carrier, elem.second)
    return ExtensionElement(elem.alpha, int(z), elem.second)


def trace(elem):
    """The canonical trace: (z, p/N**k) |-> z + p * alpha_k, as a Fraction.

    >>> a = AngleSequence.constant(3, Fraction(1, 2))
    >>> trace(ExtensionElement(a, 1, QnRational(1, 1, 3)))
    Fraction(3, 2)
    """
    if isinstance(elem, KPairElement):  # no carrier read
        return elem.first + elem.alpha.base * elem.second.fraction
    if not isinstance(elem, ExtensionElement):
        raise TypeError("expected a K0 element")
    # with the head a/b, alpha_k = (a + b * J_k) / (b * N**k)
    (a, b), x = elem.alpha.base.as_integer_ratio(), elem.x
    d = b * elem.alpha.modulus ** x.exp
    return Fraction(elem.z * d + x.num * (a + b * elem.alpha.carrier._at(x.exp)), d)


def r_digit(alpha, k):
    """The stage digit r_k = N * j_{2k+1} + j_{2k} in [0, N**2)."""
    check_sequence(alpha)
    return alpha.modulus * alpha.digit(2 * k + 1) + alpha.digit(2 * k)


def connecting_matrix(alpha, k):
    """The integer stage map [[1, r_k], [0, N**2]] on column vectors."""
    return ((1, r_digit(alpha, k)), (0, alpha.modulus ** 2))


def embedding_matrix(alpha, k):
    """The stage-k embedding [[1, J_2k/N**2k], [0, 1/N**2k]] into Q x Q_N.

    >>> a = AngleSequence.constant(3, Fraction(1, 2))
    >>> embedding_matrix(a, 1)
    ((Fraction(1, 1), Fraction(4, 9)), (Fraction(0, 1), Fraction(1, 9)))
    """
    check_sequence(alpha)
    m = alpha.modulus ** (2 * k)
    return (
        (Fraction(1), Fraction(alpha.carrier.at(2 * k), m)),
        (Fraction(0), Fraction(1, m)),
    )


def mat_mul(A, B):
    """2x2 matrix product of int and Fraction entries; each entry is exact as computed."""
    (a, b), (c, d), (e, f), (g, h) = *A, *B
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


#: The mirror D = diag(1, -1); U_{k+1} * (D F_k D) == U_k holds exactly.
MIRROR = ((1, 0), (0, -1))

