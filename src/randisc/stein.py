"""Stein operators on birth-death structures, their closed-form inverse, and
the Poisson/Bernoulli exchangeable-pair constructions with exact conditioned
densities.

The operator is T f(s) = a_s f(s+1) - b_s f(s) for monotone coefficient
sequences (a strictly decreasing to a_w = 0, b strictly increasing from
b_0 = 0); its stationary law satisfies detailed balance mu_s a_s =
mu_{s+1} b_{s+1} and E_mu[T f] = 0 for every f.  The inverse solves
T f = 1_{s=t} - mu_t in closed form.

Conditioned expectations are computed by direct summation over the exact
lattice in rational arithmetic, never by simulating the chains; the chain
steppers exist for stationarity and exchangeability cross-checks only.
Functions are extended by f(w+1) := 0, which is consistent because every
operator identity multiplies f(w+1) by a coefficient that vanishes at s = w.
"""

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, exp, log, sqrt

from .errors import ParameterError
from .locallimits import (
    LatticePoint,
    Pmf,
    binomial_pmf,
    convolve_integer,
    hypergeometric_pmf,
    over_one_denominator,
)
from .moments import OverlapScenario, _label_weights, _sb_sc_laws
from .rng import Stream, derive_key

_DOMAIN_CHAIN = 0xCA


# the scenario case each pair case runs on
SCENARIO_CASES = {"poisson": "poisson_fixed_weight", "bernoulli": "bernoulli_fixed_weight"}


def _check_case(case, scenario):
    if case not in SCENARIO_CASES:
        raise ParameterError(f"unknown case {case!r}")
    expected = SCENARIO_CASES[case]
    if scenario.case != expected:
        raise ParameterError(f"{case} pair operations need a {expected} scenario")


@dataclass(frozen=True)
class BirthDeathSpec:
    """Coefficients (a_s, b_s), s = 0..w, of a birth-death Stein operator."""

    w: int
    a: tuple
    b: tuple

    def __post_init__(self):
        w = self.w
        if w < 1:
            raise ParameterError("birth-death structure needs w >= 1")
        a = tuple(Fraction(v) for v in self.a)
        b = tuple(Fraction(v) for v in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != w + 1 or len(b) != w + 1:
            raise ParameterError("a and b must have length w + 1")
        if a[w] != 0 or any(v <= 0 for v in a[:w]):
            raise ParameterError("a must be positive with a_w = 0")
        if b[0] != 0 or any(v <= 0 for v in b[1:]):
            raise ParameterError("b must be positive with b_0 = 0")
        if any(a[i] <= a[i + 1] for i in range(w)):
            raise ParameterError("a must be strictly decreasing")
        if any(b[i] >= b[i + 1] for i in range(w)):
            raise ParameterError("b must be strictly increasing")
        # the per-spec caches hash the spec on every lookup; Fraction hashes
        # cost a modular inverse each, so hash the fields once
        object.__setattr__(self, "_hash", hash((w, a, b)))
        # a and b as integer numerators over one denominator, for stein_apply
        object.__setattr__(self, "_rows", over_one_denominator(a + b))

    def __hash__(self):
        return self._hash


# cached for identity_report; typed keys keep a float w off an int w's entry
@lru_cache(maxsize=512, typed=True)
def binomial_pair_spec(w):
    """Coefficients of the with-replacement pair chain: a_s = (w-s)/2,
    b_s = s/2; stationary law Binomial(w, 1/2)."""
    return BirthDeathSpec(
        w,
        tuple(Fraction(w - s, 2) for s in range(w + 1)),
        tuple(Fraction(s, 2) for s in range(w + 1)),
    )


@lru_cache(maxsize=512, typed=True)
def hypergeometric_pair_spec(n, w):
    """Coefficients of the urn pair chain: a_S = (w-S)(n/2-S),
    b_S = S(n/2-w+S); stationary law Hypergeometric(w; n/2, n).
    Requires w <= n/2 so that b stays strictly increasing."""
    if n % 2:
        raise ParameterError("population n must be even")
    if not 1 <= w <= n // 2:
        raise ParameterError(f"need 1 <= w <= n/2, got w={w}, n={n}")
    half = Fraction(n, 2)
    return BirthDeathSpec(
        w,
        tuple((w - s) * (half - s) for s in range(w + 1)),
        tuple(s * (half - w + s) for s in range(w + 1)),
    )


@lru_cache(maxsize=512)
def stationary_pmf(bd: BirthDeathSpec) -> Pmf:
    """Stationary law mu_s = mu_0 prod a_{i-1}/b_i, normalised exactly.

    Pure function of a frozen spec; cached because the inverse is usually
    requested for many targets of the same chain.
    """
    raw = [Fraction(1)]
    for s in range(1, bd.w + 1):
        raw.append(raw[-1] * bd.a[s - 1] / bd.b[s])
    return Pmf.from_masses(0, raw)


def _image_numerators(bd, f):
    """(nums, den): T f(s) = nums[s] / den for s = 0..w, from the spec's
    coefficients and f each over one denominator."""
    w = bd.w
    if len(f) < w + 1:
        raise ParameterError("f must be defined on 0..w")
    coef, cden = bd._rows  # a = coef[: w + 1], b = coef[w + 1 :]
    fn, fden = over_one_denominator(f[: w + 1])
    # a_w = 0, so f(w+1) is never referenced
    up = [*(x * y for x, y in zip(coef[:w], fn[1:])), 0]
    return [u - x * y for u, x, y in zip(up, coef[w + 1 :], fn)], cden * fden


def stein_apply(bd: BirthDeathSpec, f):
    """Image T f(s) = a_s f(s+1) - b_s f(s), s = 0..w, of rational (or
    integer) values f (a_w = 0, so f(w+1) is never referenced)."""
    nums, den = _image_numerators(bd, f)
    return [Fraction(v, den) for v in nums]


def stein_apply_residual(bd: BirthDeathSpec, sol):
    """Max |T f - (1_{s=t} - mu_t)| over the state space for a solution
    `sol` of bd; 0 when the inverse is exact."""
    nums, den = _image_numerators(bd, sol.f)
    mu = stationary_pmf(bd)
    # T f - (1_{s=t} - mu_t) over den * mu.den
    gaps = [v * mu.den + mu.counts[sol.t] * den for v in nums]
    gaps[sol.t] -= mu.den * den
    return Fraction(max(map(abs, gaps)), den * mu.den)


@dataclass(frozen=True)
class SteinSolution:
    """Solution of T f = 1_{s=t} - mu_t with f(0) = 0 and f(w+1) := 0.

    delta_f[s] = f(s+1) - f(s) for s = 0..w.
    """

    t: int
    f: tuple  # length w + 2
    delta_f: tuple  # length w + 1

    @property
    def w(self):
        return len(self.f) - 2

    def max_delta(self):
        nums, den = over_one_denominator(self.delta_f[:-1])
        return Fraction(max(map(abs, nums)), den)

    def l1_delta(self):
        nums, den = over_one_denominator(self.delta_f)
        return Fraction(sum(map(abs, nums)), den)


@lru_cache(maxsize=512)
def _inverse_table(bd: BirthDeathSpec):
    """Target-free part of the inverse, cached per spec like stationary_pmf.

    Returns (mu, lo, hi, dlo, dhi, last): for s = 1..w, lo[s] =
    -mu({0..s-1})/(b_s mu_s) and hi[s] = (1 - mu({0..s-1}))/(b_s mu_s),
    taken over the law's integer counts (the denominator cancels); lo = hi
    = 0 at s = 0 and s = w + 1; dlo and dhi are their first differences,
    dlo[s] = lo[s+1] - lo[s] for s = 0..w.  last is a one-item list holding
    the spec's last SteinSolution (None before the first), which
    stein_invert rescales; it lives and is evicted with the entry.
    """
    w = bd.w
    mu = stationary_pmf(bd)
    cum, lo, hi = 0, [0], [0]
    for s in range(1, w + 1):
        cum += mu.counts[s - 1]
        scale = bd.b[s] * mu.counts[s]
        lo.append(-cum / scale)
        hi.append((mu.den - cum) / scale)
    lo, hi = (*lo, 0), (*hi, 0)
    dlo, dhi = (tuple(y - x for x, y in zip(v, v[1:])) for v in (lo, hi))
    return mu, lo, hi, dlo, dhi, [None]


@lru_cache(maxsize=512)
def _inverse_rows(bd: BirthDeathSpec):
    """(lo_num, hi_num, den): _inverse_table's lo and hi as integer
    numerators over one denominator den, so sums of them over targets
    (band_inverse, identity_report) are integer sums.  Cached apart from
    _inverse_table, so specs that only stein_invert reads never hold them."""
    _, lo, hi, *_ = _inverse_table(bd)
    nums, den = over_one_denominator(lo + hi)
    return nums[: bd.w + 2], nums[bd.w + 2 :], den


def _check_target(w, t):
    if not isinstance(t, int):
        raise ParameterError(f"target t={t!r} is not an integer")
    if not 1 <= t <= w - 1:
        raise ParameterError(f"target t={t} outside the interior range 1..{w - 1}")


def _spliced(row, mt, old, ratio, i, j):
    """mt * row[s] for i <= s < j and ratio * old[s] elsewhere (old is
    empty when the span is the whole row)."""
    return (
        *(ratio * v for v in old[:i]),
        *(mt * v for v in row[i:j]),
        *(ratio * v for v in old[j:]),
    )


# f_t(s) = mu_t X[s] with X = lo for s <= t and hi above, and df_t has the
# same form, so an entry on the same side for t and an earlier target t0
# equals f_t0(s) mu_t / mu_t0.  For neighbours that ratio is a_{t-1} / b_t:
# on the exact_rational benchmark's w = 64 specs its terms have at most 17
# bits against values of about 840, so both gcds of each product are
# big-by-small, where mu_t times a table entry takes two big-by-big gcds.
# Only f on (min, max] and df on [min, max] of (t, t0) change side and are
# direct products.  On a 2-core box under Python 3.11, timed interleaved
# against one mu_t product per value (medians of 7, warm tables), a round's
# 40 ascending sweeps (w = 2..64) took 468-504 ms against 771-846 ms and
# descending ones 397-510 against 754-837 ms.  Shuffled sweeps and single
# targets cost the same either way: a far t0 gives a ratio as large as mu_t.
def stein_invert(bd: BirthDeathSpec, t) -> SteinSolution:
    """Closed-form inverse: f(s) = mu_t/(b_s mu_s) (1_{t<s} - mu({0..s-1})).

    Valid for interior targets 1 <= t <= w-1; signs, monotonicity, the
    uniform bound max |df| = df(t) <= min(1/a_t, 1/b_t) and the L1 bound
    sum |df| <= 2 df(t) all hold exactly.  The factors after mu_t come from
    a table cached per spec (_inverse_table), and the entries that lie on
    the same side of t as of the spec's last solved target t0 are that
    solution's scaled by mu_t / mu_t0; the rest, all of them on the first
    call, are products of mu_t with the table.
    """
    _check_target(bd.w, t)
    mu, lo, hi, dlo, dhi, last = _inverse_table(bd)
    prev = last[0]  # read once: it carries its own target, whoever stored it
    if prev is None:  # no row to rescale: every entry is direct
        ratio, old_f, old_df, fi, di, j = None, (), (), 0, 0, bd.w + 2
    else:
        tmin, tmax = sorted((t, prev.t))
        ratio = Fraction(mu.counts[t], mu.counts[prev.t])
        old_f, old_df, fi, di, j = prev.f, prev.delta_f, tmin + 1, tmin, tmax + 1
    mt, dt = mu[t], hi[t + 1] - lo[t]
    f = _spliced(lo[: t + 1] + hi[t + 1 :], mt, old_f, ratio, fi, j)
    delta = _spliced(dlo[:t] + (dt,) + dhi[t + 1 :], mt, old_df, ratio, di, j)
    last[0] = sol = SteinSolution(t, f, delta)
    return sol


def _band_numerators(bd, targets):
    """(nums, den): the superposed inverse sum_t f_t is nums[s] / den for
    s = 0..w+1.  f_t(s) = mu_t lo[s] for s <= t and mu_t hi[s] above, so
    nums[s] = lo_num[s] mu(targets >= s) + hi_num[s] mu(targets < s) over
    the law's counts, and den = mu.den times the rows' denominator."""
    w = bd.w
    mu = stationary_pmf(bd)
    lo, hi, den = _inverse_rows(bd)
    mass = [0] * (w + 2)  # mass[t]: mu's count at t, once per listing of t
    for t in targets:
        _check_target(w, t)
        mass[t] += mu.counts[t]
    above, below, nums = sum(mass), 0, []
    for s in range(w + 2):
        nums.append(lo[s] * above + hi[s] * below)
        above -= mass[s]
        below += mass[s]
    return nums, mu.den * den


def band_inverse(bd: BirthDeathSpec, targets):
    """Superposed inverse f = sum_t f_t, so T f = 1_{s in targets} - mu(targets)."""
    nums, den = _band_numerators(bd, targets)
    return tuple(Fraction(v, den) for v in nums)


# ---------------------------------------------------------------------------
# Exchangeable-pair counts and densities


@dataclass(frozen=True)
class PairCounts:
    """Counts of the four (v-sign, u-sign) outcome labels: sa = (+,+),
    sb = (+,-), sc = (-,-), sd = (-,+)."""

    sa: int
    sb: int
    sc: int
    sd: int

    def __post_init__(self):
        if min(self.sa, self.sb, self.sc, self.sd) < 0:
            raise ParameterError("counts must be nonnegative")

    @property
    def w(self):
        return self.sa + self.sb + self.sc + self.sd

    @property
    def s(self):
        return self.sb + self.sc

    @property
    def k(self):
        return 2 * (self.sa + self.sb) - self.w

    def as_tuple(self):
        return (self.sa, self.sb, self.sc, self.sd)


# pair_density reads one entry of each law per call, so the last 64 laws are
# kept here, where calls reuse them; moments.phi_fixed_weight reads each law
# once and calls _sb_sc_laws uncached
_cached_laws = lru_cache(maxsize=64)(_sb_sc_laws)


def pair_density(case, scenario: OverlapScenario, point: LatticePoint) -> Fraction:
    """Exact conditioned pair density at a lattice point.

    Poisson case: G(k, c), the product of Binomial((w+k)/2, gamma) mass at
    s - c and Binomial((w-k)/2, beta) mass at c.  Bernoulli case: F(c), the
    same product with hypergeometric factors drawn from the two urn types.
    """
    _check_case(case, scenario)
    w = scenario.w
    if point.w != w:
        raise ParameterError("lattice point w does not match scenario")
    s, c, k = point.s, point.c, point.k
    if case == "poisson":
        if (w + k) % 2:
            raise ParameterError(f"band offset k={k} has wrong parity for w={w}")
        if abs(k) > w:
            raise ParameterError(f"band offset k={k} out of range for w={w}")
    elif k != 0:
        raise ParameterError("bernoulli case conditions on the zero band")
    sb, sc, den = _cached_laws(scenario, k)
    num = sb[s - c] * sc[c] if s - c < len(sb) and c < len(sc) else 0
    return Fraction(num, den)


@dataclass
class PairStats:
    """Law of S = sb + sc under both measures plus the first two conditioned
    indicator moments of sc - sb."""

    mu0: Pmf
    muc: Pmf
    g1: tuple  # g1[s] = E_c[(sc - sb) 1_{S=s}]
    g2: tuple  # g2[s] = E_c[(sc - sb)^2 1_{S=s}]


def conditioned_pair_stats(case, scenario: OverlapScenario) -> PairStats:
    """Exact mu0, mu_c and the conditioned indicator moments g1, g2.

    Poisson case averages over k in the band with the exact binomial
    weights P(E_k | E_K); Bernoulli case conditions on w/2 draws per type.
    """
    mu0, g0, g1, g2, _, den = _pair_stats(case, scenario)
    g1, g2 = (tuple(Fraction(v, den) for v in g) for g in (g1, g2))
    return PairStats(mu0, Pmf.from_masses(0, g0), g1, g2)


def _pair_stats(case, scenario):
    """(mu0, g0, g1, g2, band, den): the unconditioned law mu0 of S and
    integer rows over one denominator den, g0[s] / den = P_c(S = s),
    g1[s] / den and g2[s] / den as in PairStats, band[s] / den =
    E_c[k 1_{S=s}].

    Given k, sb and sc are independent with the laws B, C of _sb_sc_laws (B
    scaled by k's band mass), so every S-sum is a convolution over one
    denominator den: with cj = conv(sb**j B, C) and d = sc - sb = s - 2 sb,
    g0 = c0, g1 = s c0 - 2 c1 and g2 = s**2 c0 - 4 s c1 + 4 c2.
    """
    _check_case(case, scenario)
    w = scenario.w
    if case == "poisson":
        mu0 = binomial_pmf(w, Fraction(1, 2))
        ks = scenario.band.members()
        if not ks:
            raise ParameterError("empty band")
        masses = [comb(w, (w + k) // 2) for k in ks]
    else:
        mu0 = hypergeometric_pmf(w, scenario.n // 2, scenario.n)
        ks, masses = (0,), [1]
    g0, g1, g2, band = ([0] * (w + 1) for _ in range(4))
    for k, mk in zip(ks, masses):
        sb_law, sc_law, den = _cached_laws(scenario, k)
        sb_law = [mk * v for v in sb_law]
        c0 = convolve_integer(sb_law, sc_law)
        c1 = convolve_integer([i * v for i, v in enumerate(sb_law)], sc_law)
        c2 = convolve_integer([i * i * v for i, v in enumerate(sb_law)], sc_law)
        for s, (v0, v1, v2) in enumerate(zip(c0, c1, c2)):
            g0[s] += v0
            g1[s] += s * v0 - 2 * v1
            g2[s] += s * s * v0 - 4 * s * v1 + 4 * v2
            band[s] += k * v0
    den *= sum(masses)  # the laws' den is the same for every k
    return mu0, g0, g1, g2, band, den


@dataclass
class IdentityReport:
    """Both sides of the pair-comparison identity.

    lhs = mu0(K) - mu_c(K) and rhs is the Stein-pair term without the
    within-band correction; residual = lhs - rhs is that band-free form,
    kept for inspection.  band_term is the exact within-band correction
    (gamma - beta) E_c[(k/2) f(S+1)], which is 0 for the band {0}, for
    beta = 1/2 and in the Bernoulli case.  corrected_residual =
    lhs - rhs - band_term is the residual of the full identity and is the
    value verify_identity returns.
    """

    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    band_term: Fraction
    corrected_residual: Fraction


def identity_report(case, scenario: OverlapScenario) -> IdentityReport:
    """Both sides of the identity in integers: the pair sums are rows over
    one den (_pair_stats) and f is a row fnum over one fden (_band_numerators),
    so lhs, rhs and band_term are each an integer sum and one Fraction."""
    w = scenario.w
    mu0, g0, g1, g2, band, den = _pair_stats(case, scenario)
    if case == "poisson":
        bd = binomial_pair_spec(w)
        targets = scenario.band.targets(w)
        if any(not 1 <= t <= w - 1 for t in targets):
            raise ParameterError(
                f"band targets {targets} leave the interior 1..{w - 1}; "
                "shrink the band or grow w"
            )
        # rhs weighs g1 by (gamma - beta)/2 = p/q, and so does band_term
        half = (scenario.gamma - scenario.beta) / 2
        p, q = half.numerator, half.denominator
        weighted, band_weight = [p * v for v in g1], p
    else:
        if w < 2:
            raise ParameterError("bernoulli identity needs w >= 2")
        bd = hypergeometric_pair_spec(scenario.n, w)
        targets = (w // 2,)
        # rhs weighs g2 - n x g1 with n x = p/q; there is no band term
        nx = scenario.n * scenario.x
        p, q = nx.numerator, nx.denominator
        weighted, band_weight = [q * v2 - p * v1 for v1, v2 in zip(g1, g2)], 0
    fnum, fden = _band_numerators(bd, targets)
    lhs = Fraction(
        sum(mu0.counts[t] for t in targets) * den - sum(g0[t] for t in targets) * mu0.den,
        mu0.den * den,
    )
    den *= fden * q
    rhs = Fraction(sum(v * (y - x) for v, x, y in zip(weighted, fnum, fnum[1:])), den)
    # E_c[k f(S+1)] from the same per-k S-sums
    band_term = Fraction(band_weight * sum(v * y for v, y in zip(band, fnum[1:])), den)
    residual = lhs - rhs
    return IdentityReport(lhs, rhs, residual, band_term, residual - band_term)


def verify_identity(case, scenario: OverlapScenario) -> Fraction:
    """Residual of the full pair-comparison identity, exactly.

    Poisson: mu0(K) - mu_c(K) = ((gamma - beta)/2) E_c[(sc - sb) Df(S)]
    + ((gamma - beta)/2) E_c[k f(S+1)], within-band term included.
    Bernoulli: mu0(t) - mu_c(t) = E_c[((sc - sb)^2 - n x (sc - sb)) Df(S)].
    """
    return identity_report(case, scenario).corrected_residual


# ---------------------------------------------------------------------------
# Chain steppers and exact kernels


def _admissible(scenario, sigma):
    """Whether sigma lies in the conditioned chain's states: its band offset
    is in the band (for Bernoulli the band {0}, w/2 draws of each type)."""
    return sigma.k in scenario.band.members()


def _validate_sigma(scenario, sigma, conditioned):
    if sigma.w != scenario.w:
        raise ParameterError("sigma total does not match scenario weight")
    labels = _label_weights(scenario)
    bernoulli = scenario.case == "bernoulli_fixed_weight"
    if bernoulli and any(s > p for s, p in zip(sigma.as_tuple(), labels)):
        raise ParameterError("sigma exceeds an urn population")
    if conditioned and not _admissible(scenario, sigma):
        if bernoulli:
            raise ParameterError("conditioned sigma needs w/2 draws of each type")
        raise ParameterError(f"sigma band offset {sigma.k} outside the band")


def _move_weights(case, labels, counts, x, conditioned):
    """Weights of the label y that replaces one x-labelled draw: the label
    odds for Poisson, the unselected balls labels - counts for Bernoulli.
    The conditioned chain keeps x's type: y in (sa, sb) or in (sc, sd)."""
    weights = labels if case == "poisson" else [p - c for p, c in zip(labels, counts)]
    if conditioned:
        weights = [v if y // 2 == x // 2 else 0 for y, v in enumerate(weights)]
    if not any(weights):
        raise ParameterError("bernoulli pair chain has no move at w = n: every ball is selected")
    return weights


def _pick(stream, weights):
    """First index whose cumulative weight exceeds a uniform draw below the total."""
    return bisect_right(list(accumulate(weights)), stream.below(sum(weights)))


def _move(counts, x, y):
    """Counts after one x-labelled draw turns into a y-labelled one."""
    moved = list(counts)
    moved[x] -= 1
    moved[y] += 1
    return tuple(moved)


def pair_chain_step(case, scenario, sigma: PairCounts, conditioned, seed) -> PairCounts:
    """One exchangeable-pair transition; |S' - S| <= 1 always.

    Poisson: resample a uniformly chosen outcome from the categorical law
    (conditioned: within its type).  Bernoulli: swap a uniformly chosen
    selected ball with a uniformly chosen unselected ball (conditioned:
    unselected ball of the same type).
    """
    _check_case(case, scenario)
    _validate_sigma(scenario, sigma, conditioned)
    stream = Stream(derive_key(seed, _DOMAIN_CHAIN))
    counts = sigma.as_tuple()
    x = _pick(stream, counts)
    labels = _label_weights(scenario)
    y = _pick(stream, _move_weights(case, labels, counts, x, conditioned))
    return PairCounts(*_move(counts, x, y))


def enumerate_sigmas(case, scenario, conditioned):
    """All reachable count vectors with their stationary mass, exactly.

    Integer masses: the multinomial count times prod(label weight**count)
    for Poisson, prod(comb(urn size, count)) for Bernoulli.
    """
    _check_case(case, scenario)
    w, labels = scenario.w, _label_weights(scenario)
    out = []
    for sa in range(w + 1):
        for sb in range(w + 1 - sa):
            for sc in range(w + 1 - sa - sb):
                sig = PairCounts(sa, sb, sc, w - sa - sb - sc)
                if conditioned and not _admissible(scenario, sig):
                    continue
                mass, left = 1, w
                for p, c in zip(labels, sig.as_tuple()):
                    mass *= comb(left, c) * p**c if case == "poisson" else comb(p, c)
                    left -= c
                if mass:
                    out.append((sig, mass))
    total = sum(mass for _, mass in out)
    return [(sig, Fraction(mass, total)) for sig, mass in out]


def exact_transition_matrix(case, scenario, conditioned):
    """States and exact one-step kernel of the pair chain (for w small): the
    move x -> y from a state with these counts has probability
    counts[x] / w * weights[y] / sum(weights), weights from _move_weights."""
    states = enumerate_sigmas(case, scenario, conditioned)
    index = {sig.as_tuple(): i for i, (sig, _) in enumerate(states)}
    w, labels = scenario.w, _label_weights(scenario)
    kernel = {}
    for i, (sig, _) in enumerate(states):
        counts = sig.as_tuple()
        for x in (x for x in range(4) if counts[x]):
            weights = _move_weights(case, labels, counts, x, conditioned)
            for y in (y for y in range(4) if weights[y]):
                j = index[_move(counts, x, y)]
                prob = Fraction(counts[x] * weights[y], w * sum(weights))
                kernel[(i, j)] = kernel.get((i, j), 0) + prob
    return states, kernel


# ---------------------------------------------------------------------------
# Numerical bound scans


@dataclass
class BoundFit:
    w: int
    constant: float
    decay: float


def fit_g1_bound(case, scenario: OverlapScenario) -> BoundFit:
    """Fit |g1(s)| <= C |x| sqrt(w) exp(-c (s - w/2)^2 / w).

    The reported decay comes from a mass-weighted log-linear regression (the
    bulk dominates; the extreme lattice edge decays super-Gaussian and would
    otherwise skew the slope).  The envelope used for the constant runs at
    half the fitted decay, so it provably undercuts the true rate and the
    covering constant is attained in the bulk, making it stable in w.
    """
    x = float(abs(scenario.x))
    if x == 0:
        raise ParameterError("g1 bound fit needs beta != 1/2")
    w = scenario.w
    c, pts = _decay_envelope(conditioned_pair_stats(case, scenario).g1, w)
    scale = x * sqrt(w)
    return BoundFit(w, max(v / (scale * env) for v, env in pts), c)


def fit_g2_bound(case, scenario: OverlapScenario):
    """Fit g2(s) <= (C1 x^2 w^(3/2) + C2 sqrt(w)) exp(-c (s - w/2)^2 / w).

    C2 is fitted on the same scenario at beta = 1/2 (x = 0), where the first
    term drops.  Returns (BoundFit for C1, or for C2 when x = 0; C2).  Decay
    handling as in fit_g1_bound.
    """
    w = scenario.w
    x = float(abs(scenario.x))
    c, pts = _decay_envelope(conditioned_pair_stats(case, scenario).g2, w)
    if x == 0:
        c2 = max(v / (sqrt(w) * env) for v, env in pts)
        return BoundFit(w, c2, c), c2
    _, c2 = fit_g2_bound(case, replace(scenario, beta=Fraction(1, 2)))
    c1 = max((v / env - c2 * sqrt(w)) / (x * x * w**1.5) for v, env in pts)
    return BoundFit(w, max(c1, 0.0), c), c2


def _decay_envelope(values, w):
    """Decay c of the nonzero |values[s]|: minus the mass-weighted
    least-squares slope of log |value| against l^2/w, l = s - w/2.  Returns c
    and each such |value| paired with its envelope exp(-(c/2) l^2 / w) at
    half that decay."""
    pts = [(s, abs(float(v))) for s, v in enumerate(values) if v != 0]
    if len(pts) < 3:
        raise ParameterError("bound fit needs at least 3 lattice points")
    fit = [((s - w / 2) ** 2 / w, log(v), v) for s, v in pts]
    wsum = sum(m for _, _, m in fit)
    xbar = sum(x * m for x, _, m in fit) / wsum
    ybar = sum(y * m for _, y, m in fit) / wsum
    sxx = sum(m * (x - xbar) ** 2 for x, _, m in fit)
    sxy = sum(m * (x - xbar) * (y - ybar) for x, y, m in fit)
    c = max(-(sxy / sxx if sxx else 0.0), 1e-9)
    return c, [(v, exp(-(c / 2) * (s - w / 2) ** 2 / w)) for s, v in pts]
