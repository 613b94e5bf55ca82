"""Brute-force verifiers for the closed-form results.

The oracles work from raw definitions (term values, digit streams,
matrix images) and never call the decision procedure they validate;
they may take the definitional formulas (the multiplier, the cocycle,
the stage matrices) as inputs, as the objects under test, and import
nothing from ``classify``.  Only ``classify.replay_witness`` has no
independent check here yet (ROADMAP item 6): it re-runs
``sequences._move``, the move that made the witness.  Points, towers,
term rows and draws are those of ``nadic._pair_sum``, ``_tower`` and
``_sampler`` and ``multiplier._terms``; each report records its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import lcm

from .ktheory import (
    MIRROR, GeneratorCochain, _carry, _mu, _prufer, _xi, _zeta, connecting_matrix, embedding_matrix,
    mat_mul,
)
from .multiplier import _bichar_frac, _psi_frac, _terms, _theta_frac
from .nadic import (
    DEFAULT_SEED, QnRational, _below, _Frozen, _pair_sum, _sampler, _tower, as_fraction,
    check_carrier, check_int,
)
from .sequences import Angle, AngleSequence, check_sequence

_FUZZ_NUM, _FUZZ_EXP = 60, 6  # bounds on |p| and k of the fuzz points p/N**k
_SOLVE_SAMPLES = 60  # coboundary_solve: pairs replayed


class FuzzReport(_Frozen):
    """Outcome of a randomized identity sweep."""

    __slots__ = ("kind", "trials", "seed", "checks", "failures")

    def __init__(self, kind, trials, seed, checks, failures):
        self._fill(kind, trials, seed, checks, list(failures))

    @property
    def passed(self):
        return not self.failures

    def __repr__(self):
        return "FuzzReport(%s, trials=%d, seed=%d, checks=%d, failures=%d)" % (
            self.kind, self.trials, self.seed, self.checks, len(self.failures)
        )

    def to_json(self):
        return {
            "kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
            "checks": self.checks,
            "passed": self.passed,
            "failures": self.failures[:10],
        }


def brute_symmetrizer(alpha, window_num=150, window_exp=4, spot_checks=2000, seed=DEFAULT_SEED):
    """All window points g with Theta_alpha(g, h) == 0 for every window h.

    The window is the product of two copies of
    { p/N**k : |p| <= window_num, k <= window_exp }.  Membership
    against the whole window reduces to one coordinate clearance per
    slot, because Theta is additive in each slot separately (that
    additivity is fuzzed independently; see cocycle_fuzz with kind
    "psi_bichar"): p/N**k clears when p * alpha_{k+j} is integral for
    every j <= window_exp.  With the terms read from ``value`` in lowest
    terms, that is den(alpha_{k+j}) | p for each j, so the members at
    level k are the window's multiples of their lcm, with N not dividing
    p at k > 0 (the lowest-terms pairs), in the window's order.  Each
    spot check draws a member g and a window pair h and tests
    Theta_alpha(g, h) == 0 with ``multiplier._theta_frac``, which reads
    the terms through its own numerator formula; a disagreement raises
    AssertionError.

    Returns a frozenset of pairs of QnRationals.
    """
    check_sequence(alpha)
    check_int(window_num, "window_num", 0)
    check_int(window_exp, "window_exp", 0)
    check_int(spot_checks, "spot_checks", 0)
    N = alpha.modulus
    dens = [alpha.value(m).denominator for m in range(2 * window_exp + 1)]
    good = []
    for k in range(window_exp + 1):
        step = lcm(*dens[k:k + window_exp + 1])
        good += [(p, k) for p in range(-(window_num // step) * step, window_num + 1, step)
                 if k == 0 or p % N]

    rng, terms = random.Random(seed), _terms(alpha, 2 * window_exp)
    pick, draw = _below(rng, len(good)), _sampler(rng, N, window_num, window_exp)
    for _ in range(spot_checks):
        g, h = (good[pick()], good[pick()]), tuple(draw(2))
        num, den = _theta_frac(terms, g, h)
        if num % den:
            raise AssertionError("member %r fails against %r" % (g, h))
    points = [QnRational._of(p, k, N) for p, k in good]
    return frozenset((x, y) for x in points for y in points)


def colimit_report(alpha, depth=6, num_window=24):
    """Build the stage lattices explicitly and compare with the K0 set.

    Stage k is the lattice Z^2 embedded in Q x Q_N by
    (z, p) -> (z + p J_2k / N**2k, p / N**2k); representatives at
    different stages are identified exactly when their images agree.
    Every point (first, second) is held as an integer pair (A, B) over
    the one denominator M = N**(2 * depth); Fractions are built only for
    failure messages.  Three checks, integer products and tests mod M:

    * coherence: the mirrored connecting identity U_{k+1} D F_k D == U_k
      on the library's stage matrices (``ktheory.embedding_matrix``,
      ``connecting_matrix`` and ``MIRROR``), compared in integers as
      M U_{k+1} D F_k D == M U_k, each U_k built once.  Its (0, 1) entry is the
      nesting of the stages, J_2k+2 - J_2k == r_k N**2k: stage k images
      recur at stage k+1 via (z, p) -> (z - p r_k, N**2 p);
    * inclusion: enumerated stage points satisfy the K0 membership test,
      A == B * J_k (mod M) for the least k with N**k * second integral;
    * coverage: every enumerated K0 window point has a stage preimage
      (z, p N**(2s - k)) at stage s = ceil(k / 2): A == B * J_2s (mod M).

    Points are read at z = 0 only.  Both sets contain Z x {0}, and no
    check changes when (z, 0) is added to a point: it adds z * M to A on
    both sides of each comparison, and the tests mod M do not see it.
    """
    check_sequence(alpha)
    check_int(depth, "depth", 0)
    check_int(num_window, "num_window", 0)
    N = alpha.modulus
    failures = []
    checks = 0

    M = N ** (2 * depth)
    # each stage's embedding once, times M: integer entries, as every denominator divides M
    U = [tuple(tuple(x.numerator * (M // x.denominator) for x in row)
               for row in embedding_matrix(alpha, k)) for k in range(depth + 1)]
    for k in range(depth):
        mirrored = mat_mul(MIRROR, mat_mul(connecting_matrix(alpha, k), MIRROR))
        checks += 1
        if mat_mul(U[k + 1], mirrored) != U[k]:
            failures.append("mirrored connecting identity fails at stage %d" % k)

    _, J, P = _tower(alpha.carrier, 2 * depth)  # the levels the embeddings have read
    stage_points = set()
    for k in range(depth + 1):
        for p in range(-num_window * N, num_window * N + 1):
            B = p * P[2 * (depth - k)]  # the image (A, B) of (0, p) at stage k
            A = B * J[2 * k]
            stage_points.add((A, B))
            checks += 1
            level = 0  # membership reads J at the least level with N**level * B / M integral
            while B * P[level] % M:
                level += 1
            if (A - B * J[level]) % M:
                failures.append("stage %d point (0, %d) misses K0" % (k, p))

    covered = 0
    for k in range(2 * depth + 1):
        s = (k + 1) // 2
        for p in range(-num_window, num_window + 1):
            B = p * P[2 * depth - k]
            A = B * J[k]
            checks += 1
            if (A - B * J[2 * s]) % M:
                shown = "(%s, %s)" % (Fraction(A, M), Fraction(B, M))
                failures.append("K0 point %s has no stage preimage" % shown)
            else:
                covered += 1

    return {
        "match": not failures,
        "stages": depth + 1,
        "stage_points": len(stage_points),
        "covered": covered,
        "checks": checks,
        "failures": failures[:10],
    }


def _fuzz_xi(carrier, trials, seed):
    points = iter(_sampler(random.Random(seed), carrier.modulus, _FUZZ_NUM, _FUZZ_EXP)(3 * trials))
    T = N, J, P = _tower(carrier, _FUZZ_EXP)
    failures = []

    def lift(u, e):
        """N**e times the pairing lift p * J_k / N**k of u = (p, k), k <= e."""
        return u[0] * J[u[1]] * P[e - u[1]]

    for t, (x, y, z) in enumerate(zip(points, points, points)):
        s = _pair_sum(x, y, N)
        xy = _xi(T, x, y)
        if xy != _xi(T, y, x):
            failures.append("symmetry fails at trial %d" % t)
        if _xi(T, s, z) + xy != _xi(T, _pair_sum(y, z, N), x) + _xi(T, y, z):
            failures.append("cocycle identity fails at trial %d" % t)
        if _xi(T, x, (0, 0)) != 0:
            failures.append("normalisation fails at trial %d" % t)
        # independent route: xi as the coboundary defect of the pairing lift
        e = max(x[1], y[1])  # the level of x + y is at most e
        if lift(x, e) + lift(y, e) - lift(s, e) != xy * P[e]:
            failures.append("pairing-lift route disagrees at trial %d" % t)
    return FuzzReport("xi", trials, seed, 4 * trials, failures)


def _fuzz_zeta(carrier, trials, seed):
    points = iter(_sampler(random.Random(seed), carrier.modulus, _FUZZ_NUM, _FUZZ_EXP)(2 * trials))
    T = N, _, _ = _tower(carrier, _FUZZ_EXP)
    failures = []
    for t, (x, y) in enumerate(zip(points, points)):
        zc = _zeta(T, x, y)
        if zc not in (0, 1):
            failures.append("zeta out of range at trial %d" % t)
        # independent route: the carry of the two pairing angles, not zeta's own residue sum
        if zc != _carry(_prufer(T, x), _prufer(T, y)):
            failures.append("zeta disagrees with its carry form at trial %d" % t)
        d_neg_mu = _mu(T, _pair_sum(x, y, N)) - _mu(T, x) - _mu(T, y)
        if zc + d_neg_mu != _xi(T, x, y):
            failures.append("zeta + d(-mu) != xi at trial %d" % t)
    return FuzzReport("zeta", trials, seed, 3 * trials, failures)


def _congruent(x, *terms):
    """Whether x == sum(terms) mod 1; each is a fraction as an integer pair (num, den > 0)."""
    num, den = x
    for n, d in terms:
        num, den = num * d - n * den, den * d
    return num % den == 0


def _fuzz_psi_bichar(alpha, trials, seed):
    N = alpha.modulus
    points = iter(_sampler(random.Random(seed), N, _FUZZ_NUM, _FUZZ_EXP)(6 * trials))
    pairs = zip(points, points)  # points of (Q_N)**2, three a trial
    failures = []
    # a level k1 + k4 of two drawn points is at most 2 * _FUZZ_EXP
    a, z = (_terms(s, 2 * _FUZZ_EXP) for s in (alpha, AngleSequence.zero(N)))
    for t, (g, g2, h) in enumerate(zip(pairs, pairs, pairs)):
        gg2 = (_pair_sum(g[0], g2[0], N), _pair_sum(g[1], g2[1], N))
        gh = _theta_frac(a, g, h)
        if not _congruent((0, 1), gh, _theta_frac(a, h, g)):
            failures.append("theta not antisymmetric at trial %d" % t)
        if not _congruent(_theta_frac(a, g, g)):
            failures.append("theta not alternating at trial %d" % t)
        if not _congruent(_theta_frac(a, gg2, h), gh, _theta_frac(a, g2, h)):
            failures.append("theta not additive in slot 1 at trial %d" % t)
        hg2 = (_pair_sum(h[0], g2[0], N), _pair_sum(h[1], g2[1], N))
        if not _congruent(_theta_frac(a, g, hg2), gh, _theta_frac(a, g, g2)):
            failures.append("theta not additive in slot 2 at trial %d" % t)
        psi = _psi_frac(a, g, h)
        if not _congruent(_bichar_frac(z, a, z, z, g, h), psi):
            failures.append("psi disagrees with its bicharacter form at trial %d" % t)
    return FuzzReport("psi_bichar", trials, seed, 5 * trials, failures)


def cocycle_fuzz(kind, subject, trials=1000, seed=DEFAULT_SEED):
    """Randomized sweeps of the algebraic laws.

    kind "xi" and "zeta" take a carrier (NadicInteger); kind
    "psi_bichar" takes an AngleSequence.  Each law is checked exactly;
    the report lists the first few failures, if any.  A report rests on
    at least one trial.
    """
    check_int(trials, "trials", 1)
    if kind in ("xi", "zeta"):
        check_carrier(subject)
        return (_fuzz_xi if kind == "xi" else _fuzz_zeta)(subject, trials, seed)
    if kind == "psi_bichar":
        check_sequence(subject)
        return _fuzz_psi_bichar(subject, trials, seed)
    raise ValueError("unknown fuzz kind %r" % (kind,))


def coboundary_solve(J, R, seed=DEFAULT_SEED):
    """Solve xi_J - xi_R = d(psi) on generators from cocycle values alone.

    Works digit by digit: the difference cocycle evaluated at
    (1/N**(k+1), (N-1)/N**(k+1)) recovers the digit gap, and after D
    digits the candidate psi(1) is the minimal-magnitude representative
    forced mod N**D.  With ht(a/b) = max(|a|, b) and H = 2 ht(J) ht(R),
    D is the least depth with N**D > H (H + 1) + H, and the candidate is
    accepted only if |psi(1)| <= H and the coboundary identity replays on
    seeded samples.  Returns the cochain, or None.

    The answer is exact: J - R = p/q with |p|, q <= H, and a candidate -m
    with |m| <= H and q > 1 would give 0 < |p - q m| < N**D, although N**D
    divides p - q m.  The heights only size D (a prefix carrier has none,
    and raises ValueError); J - R is never formed.
    """
    check_carrier(J, R)
    if J.modulus != R.modulus:
        raise ValueError("carriers live at different scales")
    N = J.modulus
    H = 2
    for value in (J.exact_value("coboundary_solve"), R.exact_value("coboundary_solve")):
        H *= max(abs(value.numerator), value.denominator)
    D, w = 0, 1
    while w <= H * (H + 1) + H:
        D, w = D + 1, w * N
    TJ, TR = _tower(J, D), _tower(R, D)
    P, sums, acc = TJ[2], [(0, 1)], 0  # sums then (sigma_1 + ... + N**(d-1) sigma_d, N**d)
    for d in range(1, D + 1):
        acc += P[d - 1] * (_xi(TJ, (1, d), (N - 1, d)) - _xi(TR, (1, d), (N - 1, d)))
        sums.append((acc, P[d]))
    rep = (-acc) % w
    psi1 = rep - w if rep > w // 2 else rep
    if abs(psi1) > H:
        return None

    # psi1 == -acc (mod w) for the last sum, and each sum agrees with it mod its own w
    psi = GeneratorCochain(N, dict(enumerate((psi1 + acc) // w for acc, w in sums)))

    points, c = iter(_sampler(random.Random(seed), N, 40, D - 1)(2 * _SOLVE_SAMPLES)), psi._eval
    for x, y in zip(points, points):
        if c(x) + c(y) - c(_pair_sum(x, y, N)) != _xi(TJ, x, y) - _xi(TR, x, y):
            return None
    return psi


def _phases(rows, q):
    """(column, phase) of each printed row of a q x q matrix, one rational phase a row, or None."""
    try:
        cells = [[(j, as_fraction(e)) for j, e in enumerate(row) if e is not None] for row in rows]
    except ValueError:  # a cell that is no rational literal
        return None
    shaped = len(rows) == q and all(len(row) == q and len(c) == 1 for row, c in zip(rows, cells))
    return [c[0] for c in cells] if shaped else None


def _compose(a, b, den, c=0):
    """e(c/den) a b on rows (column, numerator over den): row i takes row a_i's column of b."""
    return [(b[j][0], (x + b[j][1] + c) % den) for j, x in a]


def bundle_check(alpha, data):
    """The relations that fail on the bundle data of alpha; [] when all hold.

    u and v are read only as printed, through ``to_json``.  Products are
    composed row by row on phase numerators over one denominator, q per power;
    q = den(alpha_0), lam = e(alpha_0) and the least k are read from ``value``.
    """
    check_sequence(alpha)
    head = alpha.value(0)
    q = head.denominator
    k = next((k for k in range(1, q + 1) if alpha.value(k) == head), None)
    u, v = _phases(data.u.to_json(), q), _phases(data.v.to_json(), q)
    failed = [fault for fault, holds in (
        ("p/q is not alpha_0 in lowest terms", (data.p, data.q) == (head.numerator, q)),
        ("lam is not e(alpha_0)", data.lam == Angle._of(head)),
        ("k is not the least k >= 1 with alpha_k = alpha_0", data.k == k),
        ("u is not q x q with one phase per row", u is not None),
        ("v is not q x q with one phase per row", v is not None),
    ) if not holds]
    if u is None or v is None:
        return failed
    den = lcm(q, *(x.denominator for _, x in u + v))
    u, v = ([(j, x.numerator * (den // x.denominator)) for j, x in m] for m in (u, v))
    if _compose(v, u, den) != _compose(u, v, den, head.numerator * (den // q)):
        failed.append("v u = lam u v fails")
    one = [(i, 0) for i in range(q)]
    for name, m in (("u", u), ("v", v)):
        if reduce(lambda power, _: _compose(power, m, den), range(q), one) != one:
            failed.append("%s**q = 1 fails" % name)
    return failed
