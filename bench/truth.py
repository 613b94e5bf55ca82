"""Exact arithmetic behind the benchmark's answer checks.

Every function here works from the definitions in the package docstrings
(a carrier value w = a/b gives the residues J_k = a * b**-1 mod N**k, and
the terms alpha_n = (alpha_0 + J_n) / N**n) and imports nothing from
ncsolenoid, so a check never calls the procedure it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def wire(q):
    """Write a rational in the package's wire form."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def residue(w, scale, k):
    """J_k of the carrier with exact value w, in [0, scale**k)."""
    m = scale ** k
    return (w.numerator * pow(w.denominator, -1, m)) % m


def term(scale, head, w, n):
    """alpha_n of the sequence (head, carrier value w) over the scale."""
    return (head + residue(w, scale, n)) / scale ** n


def lowest(num, exp, scale):
    """num / scale**exp in lowest N-adic terms, as (num, exp)."""
    if num == 0:
        return 0, 0
    while exp > 0 and num % scale == 0:
        num //= scale
        exp -= 1
    return num, exp


def k0_first(scale, w, z, num, exp):
    """First coordinate z + p * J_k / N**k of the K0 point of (z, p/N**k)."""
    return z + Fraction(num * residue(w, scale, exp), scale ** exp)


def prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def order(scale, q):
    """Multiplicative order of scale mod q, by stepping through the powers."""
    t, acc = 1, scale % q
    while acc != 1 % q:
        acc = acc * scale % q
        t += 1
    return t


def is_order(scale, q, t):
    """Whether t is the multiplicative order of scale mod q (a certificate check)."""
    if q == 1:
        return t == 1
    if t < 1 or pow(scale, t, q) != 1:
        return False
    return all(pow(scale, t // r, q) != 1 for r in prime_divisors(t))


# -- monomial matrices -------------------------------------------------------
# A q x q matrix of unit phases with one nonzero entry per row is a pair
# (perm, phases): row i holds e(phases[i]) in column perm[i].


def monomial(rows):
    """Read matrix JSON (angle strings, null for absent entries) as (perm, phases)."""
    perm, phases = [], []
    for row in rows:
        filled = [(j, e) for j, e in enumerate(row) if e is not None]
        if len(filled) != 1 or len(row) != len(rows):
            raise ValueError("not a square monomial matrix")
        perm.append(filled[0][0])
        phases.append(Fraction(filled[0][1]) % 1)
    if sorted(perm) != list(range(len(rows))):
        raise ValueError("not a square monomial matrix")
    return tuple(perm), tuple(phases)


def mono_mul(a, b):
    pa, ha = a
    pb, hb = b
    return (
        tuple(pb[pa[i]] for i in range(len(pa))),
        tuple((ha[i] + hb[pa[i]]) % 1 for i in range(len(pa))),
    )


def mono_pow(a, m):
    n = len(a[0])
    out = (tuple(range(n)), (Fraction(0),) * n)
    base = a
    while m:
        if m & 1:
            out = mono_mul(out, base)
        base = mono_mul(base, base)
        m >>= 1
    return out


def mono_scaled(a, angle):
    return a[0], tuple((h + angle) % 1 for h in a[1])


def is_identity(a):
    return a[0] == tuple(range(len(a[0]))) and all(h == 0 for h in a[1])


# -- isomorphism witnesses ----------------------------------------------------
# A sequence is (scale, head, w).  These are the package's documented moves,
# rewritten from their definitions on raw values.


def shifted(seq, s):
    scale, head, w = seq
    if s == 0:
        return seq
    js = residue(w, scale, s)
    return scale, (head + js) / scale ** s, (w - js) / scale ** s


def block_shifted(seq, d):
    scale, head, w = seq
    if d == 1:
        return seq
    c0 = residue(w, scale, 1) % d
    return scale, (head + c0) / d, (w - c0) / d


def negated(seq):
    scale, head, w = seq
    carry = 1 if head > 0 else 0
    return scale, carry - head, -w - carry


def witness_holds(a, b, witness):
    """Whether an iso Yes witness re-derives an exact equality of sequences.

    a and b are (scale, head, w) of the two inputs; the witness is the
    package's JSON witness object.
    """
    try:
        scale = int(witness["R"])
        if scale != gcd(a[0], b[0]) or witness["mu"] != a[0] // scale or witness["nu"] != b[0] // scale:
            return False
        ra = (scale, a[1], a[2])
        rb = (scale, b[1], b[2])
        x, y = (ra, rb) if witness["direction"] == "forward" else (rb, ra)
        shift, block, sign = int(witness["shift"]), int(witness["block"]), int(witness["sign"])
        if shift < 0 or block < 1 or scale % block or block == scale or sign not in (1, -1):
            return False
        image = block_shifted(shifted(y, shift), block)
        if sign == -1:
            image = negated(image)
        matched = witness["matched"]
        return image == x and (Fraction(matched["alpha0"]), Fraction(matched["carrier"])) == (x[1], x[2])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
