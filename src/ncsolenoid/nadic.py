"""Exact arithmetic at a fixed scale N >= 2, composite scales included.

* ``Q_N``, the rationals whose denominator is a power of N, in lowest
  N-adic terms p / N**k with k = 0 or p not divisible by N (``QnRational``);
* ``Z_N``, the N-adic integers, as coherent residue towers J_0 = 0, J_1,
  ... with J_k in [0, N**k) and J_{k+1} == J_k (mod N**k) (``NadicInteger``).

All arithmetic is exact; no floats enter or leave this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import attrgetter

#: Primes below 100 for trial division.  Miller-Rabin with the first 13 as
#: bases proves primality below _MR_BOUND (Sorenson and Webster 2015), the
#: least composite that passes all 13.
_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, isqrt(p) + 1)))
_MR_BOUND = 3317044064679887385961981
_RHO_STEPS = 1 << 19  # rho squarings for one n over all c, 8x the largest split in the tests
_WALK_BELOW = 32  # an order walk below it (<= 30 steps) costs less than lambda; see README


def check_int(value, what, least=None):
    """Return value if it is an int (not a bool) and at least least; else raise ValueError."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError("%s must be an integer" % what)
    if least is not None and value < least:
        raise ValueError("%s must be at least %d" % (what, least))
    return value


def check_scale(modulus):
    """Validate a scale N and return it as an int."""
    return check_int(modulus, "scale", 2)


def check_point(x, modulus=None):
    """Return x if it is a QnRational (at the given scale), else raise ValueError."""
    if not isinstance(x, QnRational):
        raise ValueError("expected a QnRational")
    if modulus is not None and x.modulus != modulus:
        raise ValueError("scale %d does not match %d" % (x.modulus, modulus))
    return x


def check_carrier(*carriers):
    """Raise TypeError unless every argument is a NadicInteger."""
    for J in carriers:
        if not isinstance(J, NadicInteger):
            raise TypeError("expected a NadicInteger carrier")


def as_fraction(value):
    """Coerce ints, Fractions and 'a/b' strings to Fraction, rejecting floats.

    >>> as_fraction("-3/4")
    Fraction(-3, 4)
    >>> as_fraction(7)
    Fraction(7, 1)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("expected a rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "." in text or "e" in text or "E" in text:
            raise ValueError("floating point literals are not accepted: %r" % value)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError("not a rational literal: %r" % value) from None
    raise ValueError("cannot interpret %r as an exact rational" % (value,))


def format_fraction(q):
    """Render an int or Fraction as 'a' or 'a/b' (the JSON wire form)."""
    a, b = q.numerator, q.denominator
    if b == 1:
        return str(a)
    return "%d/%d" % (a, b)


def residue(value, m):
    """J mod m for the N-adic integer of an exact value a/b with gcd(b, m) == 1: a * b**-1 mod m.

    >>> residue(Fraction(-1, 62), 5 ** 4)
    252
    """
    return value.numerator * pow(value.denominator, -1, m) % m


def _prime_to(n, r):
    """(m, k): the largest divisor m of n prime to r, and the least k with n / m dividing r**k.

    Divides n by gcd(n, r) until the gcd is 1; k counts the divisions.

    >>> _prime_to(360, 6)
    (5, 3)
    """
    k, g = 0, gcd(n, r)
    while g > 1:
        n, k = n // g, k + 1
        g = gcd(n, r)
    return n, k


def prime_factors(n):
    """Prime factors of n >= 2 in ascending order with multiplicity.

    Trial division by the primes below 100, then deterministic
    Miller-Rabin and Pollard-Brent rho on what is left.  Raises
    ValueError when a cofactor of 3.317e24 or more passes every
    Miller-Rabin base, since its primality is then unproven, and when
    rho cannot split a composite within its budget.

    >>> prime_factors(360)
    (2, 2, 2, 3, 3, 5)
    >>> prime_factors(1000000007 * 998244353)
    (998244353, 1000000007)
    """
    check_int(n, "n", 2)
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break  # n is 1 or a prime below 100**2
        while n % p == 0:
            out.append(p)
            n //= p
    if n > 1 and not _proven_prime(n):
        d = _rho(n)
        out += prime_factors(d) + prime_factors(n // d)
    elif n > 1:
        out.append(n)
    return tuple(sorted(out))


def _proven_prime(n):
    """Primality of n > 1 with no prime factor below 100.

    A Miller-Rabin witness proves n composite at any size; passing every
    base proves n prime only below _MR_BOUND, and raises at or above it.
    """
    if n < 100 ** 2:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, n)
        if x != 1 and not any(pow(x, 1 << i, n) == n - 1 for i in range(s)):
            return False
    if n >= _MR_BOUND:
        raise ValueError(
            "cannot prove %d prime: Miller-Rabin with 13 bases is proven only below %d"
            % (n, _MR_BOUND)
        )
    return True


def _rho(n):
    """A proper factor of an odd composite n by Pollard-Brent rho.

    Brent (BIT 20, 1980): gcds batched over 128 steps.  Deterministic:
    x -> x**2 + c from 2, for c = 1, 2, ... until one splits n.  Raises
    ValueError rather than start a round (2r squarings) past _RHO_STEPS.
    """
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise ValueError("cannot factor %d within %d rho squarings" % (n, _RHO_STEPS))
            x, k = y, 0
            for _ in range(r):
                y = (y * y + c) % n
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g, k = gcd(q, n), k + 128
            r *= 2
        if g == n:  # the batch overshot: step again from its start
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def is_prime(n):
    """Primality by trial division and Miller-Rabin, without factoring n.

    Raises ValueError, as :func:`prime_factors` does, when n >= 3.317e24
    passes every base.
    """
    return n >= 2 and all(n % p for p in _SMALL_PRIMES if p < n) and _proven_prime(n)


def multiplicative_order(n, m):
    """Least t >= 1 with n**t == 1 (mod m), for gcd(n, m) == 1.

    m == 1 gives order 1.  Below _WALK_BELOW it walks n, n**2, ... mod m
    to 1.  From there on it starts from the Carmichael exponent lambda(m),
    which every unit's order divides, and divides out each prime r of it
    while n**(t/r) == 1 (Cohen, GTM 138, 1.4).  Each sorted factor tuple
    is walked once, equal primes in runs; lambda(2**e) = phi(2**(e-1)), e >= 3.

    >>> multiplicative_order(5, 62)
    3
    """
    if gcd(check_int(n, "base"), check_int(m, "modulus", 1)) != 1:
        raise ValueError("%d is not a unit mod %d" % (n, m))
    if m < _WALK_BELOW:  # a unit is never 0 mod m >= 2, and n % 1 == 0 ends the walk at once
        t, x = 1, n % m
        while x > 1:
            x, t = x * n % m, t + 1
        return t
    t, x, last = 1, 1, 0
    for p in prime_factors(m)[m % 8 == 0 :] if m > 1 else ():  # one 2 fewer when 8 | m
        x = x * p if p == last else p - 1  # phi(p**k) at the k-th p of a run
        t, last = lcm(t, x), p
    last = 0
    for r in prime_factors(t) if t > 1 else ():
        if r != last:
            last = r
            while t % r == 0 and pow(n, t // r, m) == 1:
                t //= r
    return t


class _Frozen:
    """Base of the package's classes: attributes are set once, at construction.

    Construction is the one place that writes slots, through ``_fill``;
    a read stores nothing.  Each subclass that declares slots gets
    ``_setters``, the ``__set__`` of each of its slots in slot order,
    bound once; a subclass that adds no slot keeps its parent's.  The one
    named setter is ``Angle._of``'s, the hot trusted constructor of the
    bundle phases, where ``_fill``'s loop would double the cost of an angle.

    IsoVerdict, BundleData, FuzzReport and GeneratorCochain derive from it
    directly and compare by identity; the value classes use :class:`_Value`.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__"):
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _fill(self, *values):
        """Set each slot in order, one value each, and return self; ValueError on a miscount."""
        setters = self._setters
        if len(values) != len(setters):
            raise ValueError("%d values for %d slots" % (len(values), len(setters)))
        for i, set_slot in enumerate(setters):  # zip(strict=True) costs 250-350 ns more a call
            set_slot(self, values[i])
        return self

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class _Value(_Frozen):
    """Equality and hashing by ``_key = attrgetter(<identity fields>)``.

    The value classes: QnRational, NadicInteger, Angle, AngleSequence,
    ExtensionElement, KPairElement, Symmetrizer and AngleMatrix.  The
    group elements among them also share subtraction, ``self + (-other)``,
    and the operand check of their ``__add__``.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __sub__(self, other):
        return self + (-other)

    def _require_same(self, other, field):
        """Raise TypeError for another class, ValueError when the given field differs."""
        if not isinstance(other, type(self)):
            raise TypeError("expected a %s" % type(self).__name__)
        if getattr(other, field) != getattr(self, field):
            raise ValueError("operands differ in %s" % field)


class QnRational(_Value):
    """An element p / N**k of Q_N in lowest N-adic terms.

    The constructor normalises: trailing factors of N are cancelled, and
    zero is stored as (0, 0).

    >>> QnRational(10, 2, 5)
    QnRational(2, 1, scale=5)
    >>> QnRational(3, 2, 6) + QnRational(1, 1, 6)
    QnRational(9, 2, scale=6)
    """

    __slots__ = ("num", "exp", "modulus")
    _key = attrgetter("modulus", "num", "exp")

    def __new__(cls, num, exp, modulus):
        modulus = check_scale(modulus)
        check_int(num, "numerator")
        check_int(exp, "exponent", 0)
        return cls._of(num, exp, modulus)

    @classmethod
    def _of(cls, num, exp, modulus):
        """Trusted construction from an int num, an int exp >= 0 and a valid scale.

        Sets the fields in lowest N-adic terms: trailing factors of N cancel.
        """
        if num == 0:
            exp = 0
        else:
            while exp > 0 and num % modulus == 0:
                num //= modulus
                exp -= 1
        return object.__new__(cls)._fill(num, exp, modulus)

    @classmethod
    def from_fraction(cls, value, modulus):
        """Embed an exact rational whose denominator divides a power of N.

        >>> QnRational.from_fraction(Fraction(5, 8), 4)
        QnRational(10, 2, scale=4)
        """
        q = as_fraction(value)
        modulus = check_scale(modulus)
        d = q.denominator
        rest, k = _prime_to(d, modulus)
        if rest != 1:
            raise ValueError("denominator %d is not supported by scale %d" % (d, modulus))
        return cls._of(q.numerator * (modulus ** k // d), k, modulus)

    @property
    def fraction(self):
        return Fraction(self.num, self.modulus ** self.exp)

    def __add__(self, other):
        N = self.modulus
        if type(other) is not QnRational or other.modulus != N:
            self._require_same(other, "modulus")
        return QnRational._of(*_pair_sum((self.num, self.exp), (other.num, other.exp), N), N)

    def __neg__(self):
        return QnRational._of(-self.num, self.exp, self.modulus)

    def scaled(self, m):
        """Multiply by an integer scalar."""
        return QnRational._of(self.num * check_int(m, "scalar"), self.exp, self.modulus)

    def __bool__(self):
        return self.num != 0

    def __repr__(self):
        return "QnRational(%d, %d, scale=%d)" % (self.num, self.exp, self.modulus)

    def to_json(self):
        return {"num": str(self.num), "exp": self.exp}


def _pair_sum(x, y, N):
    """The sum of two points of Q_N held as lowest-terms pairs (num, exp), as such a pair.

    At unequal exponents k < m the sum is in lowest terms: q is prime to N.

    >>> _pair_sum((1, 1), (2, 1), 3)
    (1, 0)
    """
    (p, k), (q, m) = (x, y) if x[1] <= y[1] else (y, x)
    if k < m:
        return p * N ** (m - k) + q, m
    p += q
    if p == 0:
        return 0, 0
    while k > 0 and p % N == 0:
        p //= N
        k -= 1
    return p, k


DEFAULT_SEED = 20260817


def _bits(n):
    """The bit length of n, the width of a draw below n >= 1."""
    if n < 1:
        raise ValueError("empty range for a draw below %d" % n)
    return n.bit_length()


def _below(rng, n):
    """Draws from range(n), n >= 1, by getrandbits(n.bit_length()) with rejection.

    The stream of CPython 3.11's ``random.Random``: ``randrange(a, b)`` is
    a + (a draw below b - a) and ``choice(seq)`` is seq[a draw below len(seq)].
    """
    bits, k = rng.getrandbits, _bits(n)

    def draw():
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    return draw


def _sampler(rng, scale, max_num, max_exp):
    """Draws of points p/N**k with |p| <= max_num and k <= max_exp; the scale is checked once.

    ``draw(count)`` returns a list of count points, a loop's in one call.
    Per point, p and k are the draws of ``rng.randrange(-max_num, max_num + 1)``
    and ``rng.randrange(0, max_exp + 1)``, in that order, each a draw below
    its width as in :func:`_below`; the point is the lowest-terms pair
    (num, exp) that ``QnRational._of`` would store.
    """
    nums, exps = 2 * max_num + 1, max_exp + 1
    bits, n_bits, e_bits, N = rng.getrandbits, _bits(nums), _bits(exps), check_scale(scale)

    def draw(count):
        points = []
        append = points.append
        for _ in range(count):
            p = bits(n_bits)
            while p >= nums:
                p = bits(n_bits)
            k = bits(e_bits)
            while k >= exps:
                k = bits(e_bits)
            p -= max_num
            while k > 0 and p % N == 0:  # zero ends at (0, 0)
                p //= N
                k -= 1
            append((p, k))
        return points

    return draw


class NadicInteger(_Value):
    """An N-adic integer as a coherent residue tower, exact or a digit prefix.

    ``from_value(Fraction(a, b), N)`` with gcd(b, N) == 1 answers every
    residue J_k = a * b**-1 mod N**k.  ``from_prefix([j0, j1, ...], N)``
    answers ``at`` and ``digit`` inside its window and raises past it;
    all that needs the whole tower raises ValueError through
    :meth:`exact_value`.  An exact carrier computes each residue when it
    is read, a prefix cuts it from its window residue; a read stores nothing.

    >>> J = NadicInteger.iota(5, 3)
    >>> [J.at(k) for k in range(5)]
    [0, 2, 5, 5, 5]
    >>> [J.digit(n) for n in range(4)]
    [2, 1, 0, 0]
    >>> NadicInteger.from_value(Fraction(-1, 62), 5).at(4)
    252
    """

    __slots__ = ("modulus", "value", "prefix", "_window")
    _key = attrgetter("modulus", "value", "prefix")

    def __init__(self, modulus, value=None, prefix=None):
        modulus = check_scale(modulus)
        if (value is None) == (prefix is None):
            raise ValueError("exactly one of value and prefix is required")
        if value is not None:
            value = as_fraction(value)
            if gcd(value.denominator, modulus) != 1:
                raise ValueError(
                    "denominator %d shares a factor with scale %d"
                    % (value.denominator, modulus)
                )
            window = None
        else:
            if not isinstance(prefix, (list, tuple)):
                raise ValueError("a prefix must be a list of digits")
            prefix = tuple(prefix)
            for j in prefix:
                if check_int(j, "digit", 0) >= modulus:
                    raise ValueError("digits must lie below %d" % modulus)
            window = sum(j * modulus ** i for i, j in enumerate(prefix))
        self._fill(modulus, value, prefix, window)

    @classmethod
    def iota(cls, z, modulus):
        """The canonical copy of an ordinary integer."""
        return cls(modulus, value=Fraction(check_int(z, "iota argument")))

    @classmethod
    def from_value(cls, value, modulus):
        return cls(modulus, value=value)

    @classmethod
    def from_prefix(cls, digits, modulus):
        return cls(modulus, prefix=digits)

    @property
    def is_exact(self):
        return self.value is not None

    @property
    def length(self):
        """Usable tower depth: None when unbounded."""
        return None if self.prefix is None else len(self.prefix)

    def at(self, k):
        """The residue J_k in [0, N**k): a * b**-1 mod N**k, or the window residue mod N**k."""
        return self._at(check_int(k, "depth", 0))

    def _at(self, k):
        """:meth:`at` without the argument check, for depths the library computed."""
        if self.value is not None:
            return residue(self.value, self.modulus ** k)
        if k > self.length:
            raise ValueError("depth %d exceeds recorded prefix of length %d" % (k, self.length))
        return self._window % self.modulus ** k

    def digit(self, n):
        """The base-N digit j_n in [0, N)."""
        check_int(n, "depth", 0)
        return (self._at(n + 1) - self._at(n)) // self.modulus ** n

    def exact_value(self, what):
        """The exact value a/b; on a prefix, ValueError naming the operation what."""
        if self.value is None:
            raise ValueError(
                "%s is undecidable from a finite prefix: it needs an exact carrier" % what
            )
        return self.value

    def __add__(self, other):
        self._require_same(other, "modulus")
        total = self.exact_value("addition") + other.exact_value("addition")
        return NadicInteger(self.modulus, value=total)

    def __neg__(self):
        return NadicInteger(self.modulus, value=-self.exact_value("negation"))

    def __repr__(self):
        if self.value is not None:
            return "NadicInteger(%r, scale=%d)" % (self.value, self.modulus)
        return "NadicInteger(prefix=%r, scale=%d)" % (list(self.prefix), self.modulus)

    def to_json(self):
        if self.value is not None:
            return {"value": format_fraction(self.value)}
        return {"prefix": list(self.prefix)}


def _tower(J, K):
    """The tower (N, J, P) to level K: lists of J_k, each read once by ``_at``, and N**k.

    >>> _tower(NadicInteger.iota(5, 3), 3)
    (3, [0, 2, 5, 5], [1, 3, 9, 27])
    """
    N = J.modulus
    return N, [J._at(k) for k in range(K + 1)], [N ** k for k in range(K + 1)]


class _Lazy(_Frozen):
    """A tower row read on demand: item k is read(k), computed when asked and not kept."""

    __slots__ = ("read",)

    def __init__(self, read):
        self._fill(read)

    def __getitem__(self, k):
        return self.read(k)


def _view(J):
    """The tower (N, J, P) of a carrier as on-demand rows, for one evaluation at any level."""
    N = J.modulus
    return N, _Lazy(J._at), _Lazy(N.__pow__)
