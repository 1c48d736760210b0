"""Shared oracles for the test suite.

Every oracle here is deliberately independent of the production code path it
checks: brute-force enumeration, direct formula evaluation, or a different
algebraic route to the same quantity.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from scipy.stats import chi2

from randisc import stein


def chi_square_pvalue(observed, expected_probs, trials):
    """Plain Pearson chi-square p-value against exact cell probabilities."""
    stat = 0.0
    dof = -1
    for obs, pr in zip(observed, expected_probs):
        exp = float(pr) * trials
        if exp == 0:
            assert obs == 0, "observed mass in a zero-probability cell"
            continue
        stat += (obs - exp) ** 2 / exp
        dof += 1
    return float(chi2.sf(stat, dof))


def balanced_vectors(n):
    """All sign vectors with zero sum, as tuples."""
    for pos in combinations(range(n), n // 2):
        u = [-1] * n
        for j in pos:
            u[j] = 1
        yield tuple(u)


def reference_mitm(rows, r, balanced):
    """Every (left, right) pair of half sign vectors, the left half on the
    first n//2 columns and each half listed in product((1, -1)) order.

    Returns the number of pairs u = left + right with |row . u| <= r on
    every row (and sum(u) = 0 when balanced), and the first such u as a
    tuple under the order: the offsets (row_k . u for k < m-1)
    lexicographically, then left position, then the last row's sum over the
    right half, then right position; None when no pair qualifies."""
    n = len(rows[0])
    cut = n // 2
    lefts = list(product((1, -1), repeat=cut))
    rights = list(product((1, -1), repeat=n - cut))
    left_sums = [[sum(s * a for s, a in zip(u, row[:cut])) for row in rows] for u in lefts]
    right_sums = [[sum(s * a for s, a in zip(u, row[cut:])) for row in rows] for u in rights]
    count, best = 0, None
    for i, (lu, ls) in enumerate(zip(lefts, left_sums)):
        for j, (ru, rs) in enumerate(zip(rights, right_sums)):
            if balanced and sum(lu) + sum(ru):
                continue
            total = [a + b for a, b in zip(ls, rs)]
            if max(abs(t) for t in total) > r:
                continue
            count += 1
            key = (total[:-1], i, rs[-1], j)
            if best is None or key < best[0]:
                best = (key, lu + ru)
    return count, best and best[1]


def reference_prefix_tree(cols, balanced):
    """One half's prefix tree from sorted Python tuples.  cols is the half
    as a list of rows; sign vector i (product((1, -1)) order) has the fields
    (its sign sum when balanced, then u . row for each row).

    Returns lists (levels, rows, ends): levels[d] = (vals, keys), vals the
    sorted distinct values of field d, keys the depth-d prefixes in sorted
    order as parent prefix position * len(vals) + rank of the last value;
    rows[i] the smallest sign vector index of the i-th distinct full tuple
    and ends the positions where each tuple starts among all sign vectors
    sorted by (tuple, index), then their number."""
    k = len(cols[0])
    tuples = []
    for u in product((1, -1), repeat=k):
        sums = [sum(s * a for s, a in zip(u, row)) for row in cols]
        tuples.append(tuple(([sum(u)] if balanced else []) + sums))
    order = sorted(range(len(tuples)), key=lambda i: (tuples[i], i))
    levels = []
    for d in range(len(tuples[0])):
        vals = sorted({t[d] for t in tuples})
        rank = {v: i for i, v in enumerate(vals)}
        parent = {p: i for i, p in enumerate(sorted({t[:d] for t in tuples}))}
        prefixes = sorted({t[: d + 1] for t in tuples})
        keys = [parent[p[:d]] * len(vals) + rank[p[d]] for p in prefixes]
        levels.append((vals, keys))
    ends = [j for j in range(len(order)) if j == 0 or tuples[order[j]] != tuples[order[j - 1]]]
    rows = [order[j] for j in ends]
    return levels, rows, ends + [len(order)]


def lazy_walk_oracle(r, p):
    """P[V = k] for V ~ R(r, p) via the difference-of-binomials identity
    (independent of the production step-convolution route)."""
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    out = {}
    for k in range(-r, r + 1):
        num = sum(
            comb(r, x) * comb(r, x - k) * a ** (2 * x - k) * (b - a) ** (2 * r - 2 * x + k)
            for x in range(max(0, k), min(r, r + k) + 1)
        )
        out[k] = Fraction(num, b ** (2 * r))
    return out


def binomial_masses(n, p):
    """C(n, k) a**k (b - a)**(n - k), k = 0..n, for p = a/b: the integer
    masses of Binomial(n, p) over their total b**n, straight from math.comb."""
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    up, down = [1], [1]
    for _ in range(n):
        up.append(up[-1] * a)
        down.append(down[-1] * (b - a))
    return [comb(n, k) * up[k] * down[n - k] for k in range(n + 1)]


def lazy_walk_masses(r, p, ks):
    """{k: b**(2r) P[V = k]} for V ~ R(r, p), p = a/b, as integers: the
    difference-of-binomials identity of lazy_walk_oracle as sum_x B_x
    B_(x-k) over the Binomial(r, p) masses B, fast enough for r = 4096."""
    masses = binomial_masses(r, p)
    return {
        k: sum(masses[x] * masses[x - k] for x in range(max(0, k), min(r, r + k) + 1))
        for k in ks
    }


def hypergeometric_masses(w, ksucc, npop):
    """C(ksucc, k) C(npop - ksucc, w - k), k = 0..w: the integer masses of
    the hypergeometric law over their total C(npop, w)."""
    return [comb(ksucc, k) * comb(npop - ksucc, w - k) for k in range(w + 1)]


def row_value_counts(row, radius=0):
    """Number of balanced u with |<u, row>| <= radius (direct enumeration)."""
    n = len(row)
    count = 0
    for u in balanced_vectors(n):
        if abs(sum(s * a for s, a in zip(u, row))) <= radius:
            count += 1
    return count


def even_rows(n):
    """All 0/1 rows of length n with even sum."""
    for mask in range(1 << n):
        row = [(mask >> j) & 1 for j in range(n)]
        if sum(row) % 2 == 0:
            yield tuple(row)


def brute_ratio_dense(n, p):
    """E[Z^2|P]/E[Z|P]^2 for one parity-conditioned Bernoulli row (m = 1),
    by full enumeration over even-parity rows."""
    p = Fraction(p)
    ez = Fraction(0)
    ez2 = Fraction(0)
    total = Fraction(0)
    for row in even_rows(n):
        w = sum(row)
        mass = p**w * (1 - p) ** (n - w)
        z = row_value_counts(row, 0)
        total += mass
        ez += mass * z
        ez2 += mass * z * z
    ez /= total
    ez2 /= total
    return ez2 / ez**2, ez


def brute_ratio_poisson_fixed(n, w, radius=0):
    """Same ratio for one Poisson row conditioned on weight w (m = 1), by
    enumeration of all n**w placements."""
    rows = {}
    total = n**w

    def rec(slots_left, row):
        if slots_left == 0:
            key = tuple(row)
            rows[key] = rows.get(key, 0) + 1
            return
        for j in range(n):
            row[j] += 1
            rec(slots_left - 1, row)
            row[j] -= 1

    rec(w, [0] * n)
    ez = Fraction(0)
    ez2 = Fraction(0)
    for row, cnt in rows.items():
        z = row_value_counts(row, radius)
        ez += Fraction(cnt, total) * z
        ez2 += Fraction(cnt, total) * z * z
    return ez2 / ez**2, ez


def random_birth_death(rng, w):
    """Valid random coefficient spec: a strictly decreasing to a_w = 0,
    b strictly increasing from b_0 = 0, small rational increments."""
    incs = [Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(w)]
    a = [sum(incs[s:], Fraction(0)) for s in range(w)] + [Fraction(0)]
    incs_b = [Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(w)]
    b = [Fraction(0)] + [sum(incs_b[: s + 1], Fraction(0)) for s in range(w)]
    return stein.BirthDeathSpec(w, tuple(a), tuple(b))


def check_inverse_guarantees(bd, t, with_oracle=True):
    """All four inverse guarantees, exactly; optionally cross-check against
    a forward-substitution linear solve."""
    mu = stein.stationary_pmf(bd)
    sol = stein.stein_invert(bd, t)
    image = stein.stein_apply(bd, sol.f)
    for s in range(bd.w + 1):
        assert image[s] == (1 if s == t else 0) - mu[t]
    f = sol.f
    for s in range(bd.w + 1):
        assert f[s] <= 0 if s <= t else f[s] >= 0
    for s in range(bd.w):
        if s == t:
            assert f[s + 1] >= f[s]
        else:
            assert f[s + 1] <= f[s]
    assert sol.max_delta() == sol.delta_f[t]
    assert sol.delta_f[t] <= min(1 / bd.a[t], 1 / bd.b[t])
    assert sol.l1_delta() <= 2 * sol.delta_f[t]
    if with_oracle:
        oracle = [Fraction(0)] * (bd.w + 2)
        for s in range(bd.w):
            target = (1 if s == t else 0) - mu[t]
            oracle[s + 1] = (target + bd.b[s] * oracle[s]) / bd.a[s]
        assert list(sol.f) == oracle


def forward_band_inverse(bd, targets):
    """sum_t f_t over the targets, each f_t solving T f = 1_{s=t} - mu_t by
    the forward substitution of check_inverse_guarantees, with mu from
    detailed balance: no stein_invert, band_inverse or stein tables."""
    raw = [Fraction(1)]
    for s in range(1, bd.w + 1):
        raw.append(raw[-1] * bd.a[s - 1] / bd.b[s])
    mu = [v / sum(raw) for v in raw]
    total = [Fraction(0)] * (bd.w + 2)
    for t in targets:
        f = [Fraction(0)] * (bd.w + 2)
        for s in range(bd.w):
            f[s + 1] = ((1 if s == t else 0) - mu[t] + bd.b[s] * f[s]) / bd.a[s]
        total = [x + y for x, y in zip(total, f)]
    return total


def pair_stats_oracle(case, scenario, f=None):
    """Conditioned pair sums by the direct Fraction double loop over (sb, sc),
    sharing no code with stein's pair sums.

    Returns (g0, g1, g2, band): g0[s] = P_c(S = s), g1[s] = E_c[(sc - sb)
    1_{S=s}], g2[s] = E_c[(sc - sb)^2 1_{S=s}] as lists over s = 0..w, and
    band = E_c[k f(S+1)] (0 when f is None; k = 0 in the Bernoulli case).
    Poisson: k runs over the band with weight C(w, (w+k)/2) / sum, sb ~
    Bin((w+k)/2, gamma) and sc ~ Bin((w-k)/2, beta).  Bernoulli: sb and sc
    are the hypergeometric type counts of w/2 draws from each half.
    """
    w, beta = scenario.w, scenario.beta
    gamma = 1 - beta

    def binomial(size, q):
        return [comb(size, i) * q**i * (1 - q) ** (size - i) for i in range(size + 1)]

    if case == "poisson":
        ks = scenario.band.members()
        masses = [comb(w, (w + k) // 2) for k in ks]
        laws = [
            (k, Fraction(mk, sum(masses)), binomial((w + k) // 2, gamma), binomial((w - k) // 2, beta))
            for k, mk in zip(ks, masses)
        ]
    else:
        n, half = scenario.n, w // 2
        bn, gn = int(beta * n / 2), int(gamma * n / 2)
        den = comb(n // 2, half)
        pb = [Fraction(comb(gn, i) * comb(bn, half - i), den) for i in range(half + 1)]
        pc = [Fraction(comb(bn, j) * comb(gn, half - j), den) for j in range(half + 1)]
        laws = [(0, Fraction(1), pb, pc)]
    g0, g1, g2 = ([Fraction(0)] * (w + 1) for _ in range(3))
    band = Fraction(0)
    for k, wk, pb, pc in laws:
        for sb, x in enumerate(pb):
            for sc, y in enumerate(pc):
                mass = wk * x * y
                s, d = sb + sc, sc - sb
                g0[s] += mass
                g1[s] += d * mass
                g2[s] += d * d * mass
                if f is not None:
                    band += k * mass * f[s + 1]
    return g0, g1, g2, band


def phi_fixed_weight_oracle(scenario):
    """Fixed-weight pair probability phi by direct formulas, sharing no code
    with moments' phi or stein's pair laws.

    Poisson: for row inner products k, k2 in the band with v and u, a triple
    Fraction sum over c, the (v-, u-) count, of binomials times powers of
    beta and gamma.  Bernoulli: the hypergeometric sum over t, the (v+, u+)
    count, of C(beta n/2, t)^2 C(gamma n/2, w/2 - t)^2 over C(n, w).
    """
    n, w, beta = scenario.n, scenario.w, scenario.beta
    gamma = 1 - beta
    if scenario.case == "bernoulli_fixed_weight":
        bn, gn = int(beta * n / 2), int(gamma * n / 2)
        num = sum(comb(bn, t) ** 2 * comb(gn, w // 2 - t) ** 2 for t in range(w // 2 + 1))
        return Fraction(num, comb(n, w))
    radius = scenario.band.radius
    ks = [k for k in range(-radius, radius + 1) if (k - w) % 2 == 0]
    total = Fraction(0)
    for k in ks:
        n1, n2 = (w + k) // 2, (w - k) // 2
        for k2 in ks:
            for c in range(n2 + 1):
                top = (w + k2) // 2 - c
                if 0 <= top <= n1:
                    eb = 2 * c + (k - k2) // 2
                    eg = w + (k2 - k) // 2 - 2 * c
                    total += comb(w, n1) * comb(n1, top) * comb(n2, c) * beta**eb * gamma**eg
    return total / 2**w


def brute_ratio_bernoulli_fixed(n, w):
    """Same ratio for one 0/1 row of exact weight w (m = 1)."""
    ez = Fraction(0)
    ez2 = Fraction(0)
    total = comb(n, w)
    for pos in combinations(range(n), w):
        row = [0] * n
        for j in pos:
            row[j] = 1
        z = row_value_counts(row, 0)
        ez += Fraction(z, total)
        ez2 += Fraction(z * z, total)
    return ez2 / ez**2, ez


def bernoulli_ball_chain(n, w, agree, conditioned):
    """The Bernoulli pair chain at ball level, aggregated to label counts.

    v = +1 on the first n/2 coordinates and -1 on the rest; u agrees with v
    on the first `agree` coordinates of each half.  A ball's label is its
    (v, u) sign pair, indexed (+,+), (+,-), (-,-), (-,+) as (sa, sb, sc, sd).
    States are the w-subsets of the balls (conditioned: w/2 from each v
    half), all equally likely; a step swaps a uniform selected ball with a
    uniform unselected one (conditioned: of the same v half).

    Returns (mass, kernel): mass[counts] = P(counts) and
    kernel[(counts, counts')] = P(counts -> counts'), over count tuples.
    """
    half = n // 2
    labels = [0 if j < agree else 1 for j in range(half)]
    labels += [2 if j < agree else 3 for j in range(half)]

    def counts_of(sel):
        return tuple(sum(1 for j in sel if labels[j] == lab) for lab in range(4))

    if conditioned:
        sets = [
            set(lo) | {half + j for j in hi}
            for lo in combinations(range(half), w // 2)
            for hi in combinations(range(half), w // 2)
        ]
    else:
        sets = [set(sel) for sel in combinations(range(n), w)]
    size = {}
    for sel in sets:
        size[counts_of(sel)] = size.get(counts_of(sel), 0) + 1
    mass = {c: Fraction(k, len(sets)) for c, k in size.items()}
    kernel = {}
    for sel in sets:
        src = counts_of(sel)
        moves = [
            (out, into)
            for out in sel
            for into in range(n)
            if into not in sel and (not conditioned or (out < half) == (into < half))
        ]
        for out, into in moves:
            dst = counts_of(sel - {out} | {into})
            kernel[src, dst] = kernel.get((src, dst), 0) + Fraction(1, size[src] * len(moves))
    return mass, kernel


# ---------------------------------------------------------------------------
# Scalar SplitMix64 reference, written out here so that it shares no code
# with randisc.rng: one output per call, Python integers throughout.

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64_mix(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_child(key, *path):
    h = key & _MASK64
    for idx in path:
        h = splitmix64_mix(splitmix64_mix(h + _GOLDEN64) ^ (idx & _MASK64))
    return h


class RefSplitMix64:
    def __init__(self, key):
        self.state = key & _MASK64

    def next64(self):
        self.state = (self.state + _GOLDEN64) & _MASK64
        return splitmix64_mix(self.state)

    def below(self, n):
        """Rejection draw on [0, n): top k bits of ceil(k/64) joined words."""
        k = (n - 1).bit_length()
        words = -(-k // 64)
        while True:
            x = 0
            for _ in range(words):
                x = (x << 64) | self.next64()
            x >>= 64 * words - k
            if x < n:
                return x


def reference_probe(rows, r, balanced, tries=512):
    """The solver's random probe, one try at a time: the first of `tries`
    sign vectors drawn from the matrix-seeded stream with every |row . u|
    <= r, as a tuple, or None.  Balanced tries put +1 on the first n/2
    entries of a Fisher-Yates permutation; plain tries take the low bit of
    one output per coordinate."""
    n = len(rows[0])
    key = splitmix64_mix(len(rows))
    for row in rows:
        for v in row:
            key = splitmix64_mix(key ^ (v + _GOLDEN64))
    gen = RefSplitMix64(splitmix64_child(key, r, int(balanced)))
    for _ in range(tries):
        if balanced:
            perm = list(range(n))
            for i in range(n // 2):
                j = i + gen.below(n - i)
                perm[i], perm[j] = perm[j], perm[i]
            u = [-1] * n
            for j in perm[: n // 2]:
                u[j] = 1
        else:
            u = [1 - 2 * (gen.next64() & 1) for _ in range(n)]
        if all(abs(sum(a * s for a, s in zip(row, u))) <= r for row in rows):
            return tuple(u)
    return None
