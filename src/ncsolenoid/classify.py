"""Isomorphism classification of twisted solenoid algebras.

Both sides are read at R = gcd(N, M) as exact pairs (h, w), head and carrier
value, which rescaling keeps; a Yes moves one onto the other (``sequences._move``):

* the shift q: (h + J_q, w - J_q) / R**q;
* the block d, a proper divisor of R: (h + c, w - c) / d with c = J_1 mod d
  (interleaved primes enter only through d, so divisors cover them all);
* the sign, carry c = 1 if h > 0 else 0: (c - h, -w - c).

No verdicts rest on invariants of every move: the prime support, the
reduced carrier denominator, the prime-to-R part of the head denominator
and periodicity (w = -h).  Verdict, factoring and prime-power rules:
README "Conventions worth knowing".
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .nadic import (
    _Frozen,
    _Value,
    _prime_to,
    check_int,
    format_fraction,
    is_prime,
    prime_factors,
)
from .sequences import Angle, AngleSequence, _move, check_sequence


class IsoVerdict(_Frozen):
    """Yes-with-witness / No-with-reason / Unknown-at-bound."""

    __slots__ = ("kind", "witness", "reason", "bound")

    def __init__(self, kind, witness=None, reason=None, bound=None):
        if kind not in ("yes", "no", "unknown"):
            raise ValueError("bad verdict kind %r" % (kind,))
        self._fill(kind, witness, reason, bound)

    @classmethod
    def yes(cls, witness):
        return cls("yes", witness=witness)

    @classmethod
    def no(cls, reason):
        return cls("no", reason=reason)

    @classmethod
    def unknown(cls, bound):
        return cls("unknown", bound=bound)

    @property
    def is_yes(self):
        return self.kind == "yes"

    @property
    def is_no(self):
        return self.kind == "no"

    def __repr__(self):
        if self.is_yes:
            return "IsoVerdict(yes, witness=%r)" % (self.witness,)
        if self.is_no:
            return "IsoVerdict(no, %s)" % self.reason
        return "IsoVerdict(unknown, bound=%r)" % (self.bound,)

    def to_json(self):
        if self.is_yes:
            return {"verdict": "Yes", "witness": self.witness}
        if self.is_no:
            return {"verdict": "No", "reason": self.reason}
        return {"verdict": "Unknown", "bound": self.bound}


def _obstruction(a, b, scale):
    """A reason string if an exact invariant separates the pairs a and b, else None."""
    if a[1].denominator != b[1].denominator:
        return "carrier denominators differ (%d vs %d)" % (a[1].denominator, b[1].denominator)
    da, db = (_prime_to(x[0].denominator, scale)[0] for x in (a, b))
    if da != db:
        return "prime-to-scale parts of the head denominators differ (%d vs %d)" % (da, db)
    return None


def _proper_divisors(factors):
    """The divisors d < n of n = prod(factors), in ascending order.

    factors is ascending with multiplicity; the search tries blocks in
    this order, which fixes the witness it returns.
    """
    divisors, new, last = [1], [], None
    for p in factors:
        new = [d * p for d in (new if p == last else divisors)]
        divisors += new
        last = p
    divisors.sort()
    return divisors[:-1]


def _witness(alpha, beta, scale, direction, shift, block, sign, image):
    """The JSON witness of a hit: the moves and the pair they reach."""
    return {
        "R": scale,
        "mu": alpha.modulus // scale,
        "nu": beta.modulus // scale,
        "direction": direction,
        "shift": shift,
        "block": block,
        "sign": sign,
        "matched": {"alpha0": format_fraction(image[0]), "carrier": format_fraction(image[1])},
    }


def isomorphic(alpha, beta, bound=32):
    """Decide *-isomorphism of the twisted algebras where possible.

    Works on the exact pairs at R = gcd(N, M) and builds no sequence or
    carrier.  Yes carries a witness for :func:`replay_witness`; No cites a
    prime-support mismatch, a separating invariant or an exhausted periodic
    search at a prime-power R; the rest, prefix carriers included, is
    Unknown at the shift bound.
    """
    check_sequence(alpha, beta)
    check_int(bound, "bound", 0)
    n, m = alpha.modulus, beta.modulus
    scale = gcd(n, m)
    if _prime_to(n, scale)[0] != 1 or _prime_to(m, scale)[0] != 1:
        return IsoVerdict.no("prime supports differ (%d vs %d)" % (n, m))
    if not (alpha.carrier.is_exact and beta.carrier.is_exact):
        return IsoVerdict.unknown(bound)
    a, b = (alpha.base, alpha.carrier.value), (beta.base, beta.carrier.value)
    if a == b:  # after the prime-support check: equal pairs at N = 2 and N = 3 answer No
        return IsoVerdict.yes(_witness(alpha, beta, scale, "forward", 0, 1, 1, a))
    reason = _obstruction(a, b, scale)
    if reason is not None:
        return IsoVerdict.no(reason)
    periodic = alpha.has_finite_range()
    if periodic != beta.has_finite_range():
        return IsoVerdict.no("exactly one side is periodic")
    try:
        factors = prime_factors(scale)
    except ValueError:  # a cofactor of R is past the Miller-Rabin bound or rho's budget
        factors = None
    blocks = _proper_divisors(factors) if factors else [1]
    period = None
    for label, x, y in (("forward", a, b), ("reverse", b, a)):
        for q in range(bound + 1):
            moved = _move(y, scale ** q, 1)
            if periodic and q and moved == y:  # one head denominator, so one period
                period = q
                break
            for d in blocks:
                for sign in (1, -1):
                    if _move(moved, d, sign) == x:
                        return IsoVerdict.yes(_witness(alpha, beta, scale, label, q, d, sign, x))
    if periodic and period is None and _move(a, scale ** (bound + 1), 1) == a:
        period = bound + 1
    if period is not None and factors and factors[0] == factors[-1]:
        return IsoVerdict.no(
            "periodic search exhausted (period %d, both directions, all blocks, both signs)"
            % period
        )
    return IsoVerdict.unknown(bound)


def prime_case_isomorphic(alpha, beta, bound=32):
    """The prime-scale specialisation: shifts and signs only.

    A proven composite scale raises; every other pair is answered by
    :func:`isomorphic`, which is sound at every scale.  Distinct primes
    have gcd 1, so its prime-support invariant answers No; equal primes
    reach its search, whose only block is the trivial one.
    """
    check_sequence(alpha, beta)
    for n in (alpha.modulus, beta.modulus):
        try:
            prime = is_prime(n)
        except ValueError:  # n passes every Miller-Rabin base past the proven bound
            continue
        if not prime:
            raise ValueError("prime scales only; use isomorphic() for composites")
    return isomorphic(alpha, beta, bound)


def replay_witness(alpha, beta, verdict):
    """Apply the moves of a Yes witness again and compare the pairs exactly.

    True only when every field is the one the moves give; equal pairs are
    equal sequences.  Raises ValueError on a verdict that is not a Yes and
    on a prefix carrier.  The cost is bounded by the input at any shift:
    as a move scales s = h + w by +-1/(R**q d), an aperiodic pair refuses
    R**q > |s(y)/s(x)| before any power.
    """
    if not isinstance(verdict, IsoVerdict) or not verdict.is_yes:
        raise ValueError("only Yes verdicts can be replayed")
    check_sequence(alpha, beta)
    scale = gcd(alpha.modulus, beta.modulus)
    a, b = ((s.base, s.carrier.exact_value("replaying a witness")) for s in (alpha, beta))
    w = verdict.witness
    try:
        x, y = {"forward": (a, b), "reverse": (b, a)}[w["direction"]]
        got = {k: check_int(w[k], k) for k in ("R", "mu", "nu", "shift", "block", "sign")}
    except (KeyError, TypeError, ValueError):
        return False
    q, d, sign = got["shift"], got["block"], got["sign"]
    if q < 0 or d < 1 or scale % d or d == scale or sign not in (1, -1):
        return False
    sx, sy = x[0] + x[1], y[0] + y[1]
    if not sy:
        c, b = y[0].numerator, y[0].denominator
        head = Fraction(c * pow(scale, -q, b) % b, b)
        moved = (head, -head)
    elif not sx or q * (scale.bit_length() - 1) >= (sy / sx).numerator.bit_length():
        return False  # R**q >= 2**(q (bits(R) - 1)) > |s(y)/s(x)|
    else:
        moved = _move(y, scale ** q, 1)
    image = _move(moved, d, sign)
    return image == x and w == _witness(alpha, beta, scale, w["direction"], q, d, sign, image)


class AngleMatrix(_Value):
    """A monomial matrix of unit phases: row i holds e(phases[i]) in column
    perm[i], and every other entry is 0.

    Stored as (perm, num, den), row i's phase num[i]/den over the least
    common den, so equal matrices have equal fields.  ``@``, ``scaled``,
    ``==`` and ``hash`` cost O(n) integer operations, ``m ** k`` O(n log k),
    and the dense ``to_json`` O(n**2).

    >>> v = AngleMatrix.cyclic(3)
    >>> v ** 3 == AngleMatrix.identity(3)
    True
    >>> AngleMatrix([1, 0], [Angle(Fraction(1, 2)), Angle(Fraction(1, 3))]).num
    (3, 2)
    """

    __slots__ = ("perm", "num", "den")
    _key = attrgetter("perm", "num", "den")

    def __init__(self, perm, phases):
        perm, phases = tuple(perm), tuple(phases)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("perm must be a permutation of 0..n-1")
        if len(phases) != len(perm):
            raise ValueError("need one phase per row")
        if not all(isinstance(e, Angle) for e in phases):
            raise ValueError("phases must be Angles")
        # Angles lie in [0, 1) in lowest terms, so over their lcm the fields are canonical
        den = lcm(*(e.value.denominator for e in phases))
        num = tuple(e.value.numerator * (den // e.value.denominator) for e in phases)
        self._fill(perm, num, den)

    @classmethod
    def _of(cls, perm, num, den):
        """Any integer fields, reduced: numerators mod den over the least den."""
        num = [a % den for a in num]
        g = gcd(den, *num)
        if g > 1:
            num = [a // g for a in num]
            den //= g
        return cls._canonical(perm, num, den)

    @classmethod
    def _canonical(cls, perm, num, den):
        """Trusted construction from fields that are canonical as given."""
        return object.__new__(cls)._fill(tuple(perm), tuple(num), den)

    @property
    def size(self):
        return len(self.perm)

    @classmethod
    def identity(cls, n):
        return cls._canonical(range(n), (0,) * n, 1)

    @classmethod
    def cyclic(cls, n):
        """The permutation sending basis vector e_{i+1} to e_i (e_0 wraps)."""
        return cls._canonical((*range(1, n), 0)[:n], (0,) * n, 1)

    def __matmul__(self, other):
        if not isinstance(other, AngleMatrix) or other.size != self.size:
            return NotImplemented
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        b = other.num
        return AngleMatrix._of(
            [other.perm[j] for j in self.perm],
            [a * s + b[j] * t for j, a in zip(self.perm, self.num)],
            den,
        )

    def __pow__(self, m):
        """The m-th power by square-and-multiply over ``@``, reading the bits of m from the top."""
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            return NotImplemented
        out = AngleMatrix.identity(self.size)
        for bit in bin(m)[2:]:
            out = out @ out @ self if bit == "1" else out @ out
        return out

    def scaled(self, angle):
        """Multiply every nonzero entry by a global phase."""
        if not isinstance(angle, Angle):
            raise ValueError("expected an Angle")
        den = lcm(self.den, angle.value.denominator)
        s = den // self.den
        c = angle.value.numerator * (den // angle.value.denominator)
        return AngleMatrix._of(self.perm, [a * s + c for a in self.num], den)

    def __repr__(self):
        return "AngleMatrix(perm=%r, num=%r, den=%d)" % (self.perm, self.num, self.den)

    def to_json(self):
        """The dense form: row i holds ``format_fraction`` of its phase at perm[i], else null."""
        n, out = self.size, []
        for j, a in zip(self.perm, self.num):
            row = [None] * n
            row[j] = format_fraction(Fraction(a, self.den))
            out.append(row)
        return out


class BundleData(_Frozen):
    """Flat-bundle presentation data for a periodic sequence.

    Fields: the order q of the fibre phase, the solenoid power k, the
    phase lam = e(p/q), the diagonal and cyclic unitaries u and v with
    v u = lam u v and u**q = v**q = 1, and a label for the base space.
    """

    __slots__ = ("q", "p", "k", "lam", "u", "v", "base_label")

    def __init__(self, q, p, k, lam, u, v, base_label):
        self._fill(q, p, k, lam, u, v, base_label)

    def __repr__(self):
        return "BundleData(q=%d, k=%d, lam=%r)" % (self.q, self.k, self.lam)

    def to_json(self):
        return {
            "q": self.q,
            "p": self.p,
            "k": self.k,
            "lambda": self.lam.to_json(),
            "base": self.base_label,
            "u": self.u.to_json(),
            "v": self.v.to_json(),
        }


# The largest q of bundle_data: u and v are lists of length q with q**2 dense cells.  Through
# the CLI (Python 3.11, 2 vCPUs) q = 2047 takes 0.49 CPU s and 50 MB of output, q = 4001 2.4 s.
MAX_BUNDLE_Q = 2048


def bundle_data(alpha):
    """The bundle presentation attached to a periodic angle sequence.

    Writing alpha_0 = p/q in lowest terms, the fibre is the monomial
    pair u = diag(e(j p/q)) and v = the cyclic shift, both q x q, built
    canonical by ``AngleMatrix._canonical`` (u: j p mod q over q, as
    gcd(p, q) = 1; v: zeros over 1).  The relations hold as built: row j of
    v u and of u v lies in column j + 1, with phases (j + 1) p/q and j p/q,
    so v u = e(p/q) u v; u**q has phases j p and v**q turns each row q
    places, so u**q = v**q = 1.  ``oracle.bundle_check`` checks them on the
    printed matrices, in ``selftest``.  The base is the square of the
    solenoid at scale N**k, k the multiplicative order of N mod q, the
    period of alpha.  Raises for aperiodic input and for q > MAX_BUNDLE_Q (2048).

    >>> from .nadic import NadicInteger
    >>> a = AngleSequence(2, Fraction(1, 3), NadicInteger.from_value(Fraction(-1, 3), 2))
    >>> data = bundle_data(a)
    >>> (data.q, data.k, data.lam)
    (3, 2, Angle(1/3))
    """
    check_sequence(alpha)
    if not alpha.has_finite_range():
        raise ValueError("bundle data is defined for periodic sequences only")
    p, q = alpha.base.numerator, alpha.base.denominator
    if q > MAX_BUNDLE_Q:
        raise ValueError("bundle data needs q <= %d; this sequence has q = %d" % (MAX_BUNDLE_Q, q))
    k = alpha.period()
    u = AngleMatrix._canonical(range(q), [j * p % q for j in range(q)], q)
    v = AngleMatrix.cyclic(q)
    label = "S_{%d^%d} x S_{%d^%d}" % (alpha.modulus, k, alpha.modulus, k)
    return BundleData(q, p, k, Angle._of(alpha.base), u, v, label)

