"""Exact lattice pmfs (binomial, hypergeometric, lazy walk) and the classical
local-limit approximations / tail bounds used to sanity-check them.

A pmf holds its law as nonnegative integer counts over their sum and sums to
exactly 1 with zero tolerance; past EXACT_SIZE_CAP every builder refuses the
size with CapacityError.  The lazy walk R(r, p) is the law of a sum of r
i.i.d. steps on {-1, 0, 1} with P(+1) = P(-1) = p(1-p); equivalently the
difference of two independent Binomial(r, p) counts.  Its step variance is
2p(1-p).
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, gcd, inf, lcm, log, pi, sqrt

from .errors import CapacityError, ParameterError

EXACT_SIZE_CAP = 4096

# Frozen prefactors for the tail-bound kinds, fitted once on calibration
# grids (max exact/shape ratio, then a safety margin) and pinned here.
# cramer: n <= 2000, p in [1/6, 5/6], all r -> max ratio 1.107.
# hyp_tail: npop <= 1024, w/npop in [1/8, 1/2], successes/npop in [1/8, 3/4]
# -> max ratio 3.72.
CRAMER_PREFACTOR = 1.25
HYP_TAIL_PREFACTOR = 4.2


def over_one_denominator(values):
    """(numerators, den): rationals or integers as integer numerators over
    their least common denominator, so a sum of them is one integer sum."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@dataclass(frozen=True, init=False)
class Pmf:
    """Probability mass function P(offset + i) = counts[i] / den: integer
    counts with no common factor over their sum den, so equal laws compare
    equal.  Pmf(offset, weights) takes probabilities summing to exactly 1."""

    offset: int
    counts: tuple
    den: int

    def __init__(self, offset, weights):
        nums, den = over_one_denominator(weights)
        if sum(nums) != den:
            raise ParameterError("exact pmf must sum to exactly 1")
        self._fill(offset, nums)

    @classmethod
    def from_masses(cls, offset, masses):
        """The pmf proportional to nonnegative integer or rational masses."""
        pmf = cls.__new__(cls)
        pmf._fill(offset, over_one_denominator(masses)[0])
        return pmf

    def _fill(self, offset, nums):
        if not nums:
            raise ParameterError("empty pmf")
        if any(v < 0 for v in nums):
            raise ParameterError("negative weight in exact pmf")
        den = sum(nums)
        if den == 0:
            raise ParameterError("pmf has no mass")
        # from den: the counts themselves (alpha**r and its neighbours in the
        # lazy walk) can share large factors, which makes gcd slow
        g = gcd(den, *nums)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "counts", tuple(v // g for v in nums))
        object.__setattr__(self, "den", den // g)

    @property
    def weights(self):
        """The probabilities counts[i] / den as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.counts)

    @property
    def lo(self):
        return self.offset

    @property
    def hi(self):
        return self.offset + len(self.counts) - 1

    def support(self):
        return range(self.lo, self.hi + 1)

    def __getitem__(self, k):
        """Probability at integer k (0 outside the stored range)."""
        if self.lo <= k <= self.hi:
            return Fraction(self.counts[k - self.offset], self.den)
        return Fraction(0)

    def mass(self, ks):
        """Total probability of a set of integers."""
        return Fraction(
            sum(self.counts[k - self.offset] for k in ks if self.lo <= k <= self.hi), self.den
        )

    def mean(self):
        return Fraction(sum(k * c for k, c in zip(self.support(), self.counts)), self.den)

    def variance(self):
        s2 = sum(k * k * c for k, c in zip(self.support(), self.counts))
        return Fraction(s2, self.den) - self.mean() ** 2


# ---------------------------------------------------------------------------
# Exact constructions


def convolve_integer(xs, ys):
    """Exact convolution of nonnegative integer sequences.

    Packs each sequence into a single big integer (Kronecker substitution)
    so the whole convolution rides on one subquadratic bigint multiply.
    """
    if not xs or not ys:
        return []
    width = (
        max(xs).bit_length()
        + max(ys).bit_length()
        + min(len(xs), len(ys)).bit_length()
        + 1
    )
    X = 0
    for v in reversed(xs):
        X = (X << width) | v
    Y = 0
    for v in reversed(ys):
        Y = (Y << width) | v
    Z = X * Y
    mask = (1 << width) - 1
    out = []
    for _ in range(len(xs) + len(ys) - 1):
        out.append(Z & mask)
        Z >>= width
    return out


def binomial_pmf(n, p):
    """Binomial(n, p) pmf, exact for n <= EXACT_SIZE_CAP; with p = a/b the
    counts C(n, k) a**k (b - a)**(n - k) come from their ratio recurrence."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"binomial p={p} outside [0, 1]")
    if n < 0:
        raise ParameterError("binomial n must be >= 0")
    if n > EXACT_SIZE_CAP:
        raise CapacityError(f"exact binomial capped at n={EXACT_SIZE_CAP}")
    a, b = p.numerator, p.denominator
    if a in (0, b):  # p in {0, 1}: a point mass
        return Pmf.from_masses(0, [0] * n + [1] if a else [1] + [0] * n)
    counts = [(b - a) ** n]
    for k in range(n):
        counts.append(counts[-1] * (n - k) * a // ((k + 1) * (b - a)))
    return Pmf.from_masses(0, counts)


def hypergeometric_pmf(w, ksucc, npop):
    """Hypergeometric pmf: w draws without replacement, ksucc successes in a
    population of npop, exact for npop <= EXACT_SIZE_CAP; the counts
    C(ksucc, k) C(npop - ksucc, w - k) come from their ratio recurrence."""
    if not 0 <= ksucc <= npop:
        raise ParameterError(f"successes {ksucc} outside [0, {npop}]")
    if not 0 <= w <= npop:
        raise ParameterError(f"draws w={w} outside [0, {npop}]")
    if npop > EXACT_SIZE_CAP:
        raise CapacityError(f"exact hypergeometric capped at N={EXACT_SIZE_CAP}")
    fail = npop - ksucc
    lo = max(0, w - fail)
    counts = [comb(ksucc, lo) * comb(fail, w - lo)]
    for k in range(lo, min(w, ksucc)):
        counts.append(counts[-1] * (ksucc - k) * (w - k) // ((k + 1) * (fail - w + k + 1)))
    return Pmf.from_masses(lo, counts)


def lazy_walk_pmf(r, p):
    """Law of the r-step lazy walk R(r, p), exact for r <= EXACT_SIZE_CAP.

    With p = a/b, P(R = k) is proportional to c_k, the coefficient of z**k
    in (alpha z + beta + alpha/z)**r, alpha = a(b - a), beta = a**2 +
    (b - a)**2.  Differentiating that power gives the three-term recurrence
    alpha (r - k + 1) c_{k-1} = alpha (r + k + 1) c_{k+1} + beta k c_k, run
    down from c_r = alpha**r, c_{r+1} = 0 with exact integer division;
    c_{-k} = c_k.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"lazy walk p={p} outside [0, 1]")
    if r < 0:
        raise ParameterError("lazy walk length must be >= 0")
    if r > EXACT_SIZE_CAP:
        raise CapacityError(f"exact lazy walk capped at r={EXACT_SIZE_CAP}")
    a, b = p.numerator, p.denominator
    alpha, beta = a * (b - a), a * a + (b - a) ** 2
    if alpha == 0:  # p in {0, 1}: every step stays put
        side = [0] * r + [1]
    else:
        up, cur = 0, alpha**r
        side = [cur]  # c_r, c_{r-1}, ..., c_0
        for k in range(r, 0, -1):
            nxt = (alpha * (r + k + 1) * up + beta * k * cur) // (alpha * (r - k + 1))
            up, cur = cur, nxt
            side.append(cur)
    return Pmf.from_masses(-r, side + side[-2::-1])


def truncated_poisson_pmf(lam, tail_bound=Fraction(1, 2**60)):
    """Poisson(lam) truncated and renormalized so the discarded true tail is
    below `tail_bound`; the cut point is chosen by pure rational arithmetic
    (tail(K) <= lam^(K+1)/(K+1)! * (1 - lam/(K+2))^-1), so it is identical on
    every platform.  Returns (pmf, truncation_point); CapacityError once the
    cut would pass EXACT_SIZE_CAP, with no term built past it.
    """
    lam = Fraction(lam)
    if lam < 0:
        raise ParameterError(f"poisson rate {lam} is negative")
    if lam == 0:
        return Pmf(0, (Fraction(1),)), 0
    hi = max(2, int(lam) + 2)  # so lam < K + 2, where the bound holds
    raw = [Fraction(1)]  # lam^k / k!, k = 0..hi
    while hi <= EXACT_SIZE_CAP:
        while len(raw) <= hi:
            raw.append(raw[-1] * lam / len(raw))
        if raw[hi] * (hi + 2) / (hi + 2 - lam) < tail_bound:
            return Pmf.from_masses(0, raw), hi
        hi += 1
    raise CapacityError(f"exact poisson truncation capped at K={EXACT_SIZE_CAP}")


@dataclass(frozen=True)
class LatticePoint:
    """A point (s, c) of a conditioned-pair lattice with band offset k."""

    w: int
    s: int
    c: int
    k: int = 0

    def __post_init__(self):
        if not 0 <= self.s <= self.w:
            raise ParameterError(f"s={self.s} outside [0, {self.w}]")
        if not 0 <= self.c <= self.s:
            raise ParameterError(f"c={self.c} outside [0, s={self.s}]")


# ---------------------------------------------------------------------------
# Approximations and tail bounds

# stirling_binom's 2**n and its reference C(n, r) overflow a double past this n
STIRLING_SIZE_CAP = 1023
_DELTA = Fraction(1, 10)  # validity window for the de Moivre approximation
# The quarter-variance Gaussian bound needs p(1-p) >= 1/8 to dominate the
# binomial large-deviation rate; 1/6 leaves margin.
_DELTA_CRAMER = Fraction(1, 6)


def _binomial_deviation(kind, n, p, r, delta):
    """Check a binomial kind's (n, p, r); its (variance, r - mean) as floats."""
    if n < 1:
        raise ParameterError(f"{kind} needs n >= 1, got n={n}")
    p = Fraction(p)
    if not delta <= p <= 1 - delta:
        raise ParameterError(f"{kind} requires p in [{delta}, {1 - delta}] "
                             f"(central-p hypothesis), got {p}")
    _require_range(kind, r, 0, n)
    return float(n * p * (1 - p)), float(r - n * p)


def _demoivre(n, p, r):
    """Leading Gaussian value for the binomial pmf C(n, r) p^r q^(n-r)."""
    v, k = _binomial_deviation("demoivre", n, p, r, _DELTA)
    return exp(-k * k / (2 * v)) / sqrt(2 * pi * v)


def _stirling_binom(n, r):
    """Gaussian approximation of the raw coefficient C(n, r)."""
    if n < 1:
        raise ParameterError(f"stirling_binom needs n >= 1, got n={n}")
    if n > STIRLING_SIZE_CAP:
        raise CapacityError(f"stirling_binom capped at n={STIRLING_SIZE_CAP}")
    _require_range("stirling_binom", r, 0, n)
    return sqrt(2 / (pi * n)) * 2.0**n * exp(-2 * (r - n / 2) ** 2 / n)


def _cramer_tail(n, p, r):
    """Gaussian upper bound on the binomial pmf at r."""
    v, k = _binomial_deviation("cramer_tail", n, p, r, _DELTA_CRAMER)
    return CRAMER_PREFACTOR / sqrt(n) * exp(-k * k / (4 * v))


def _hyp_tail(w, ksucc, npop, k):
    """Upper bound on the hypergeometric pmf at success count k."""
    if not 1 <= w < npop:
        raise ParameterError(f"hyp_tail needs 1 <= w < npop, got w={w}, npop={npop}")
    if ksucc > npop:
        raise ParameterError("hyp_tail successes exceed population")
    _require_range("hyp_tail", k, 0, w)
    lam = abs(k - w * (ksucc / npop)) / sqrt(w)
    f = w / (npop - w)
    expo = -2 * lam**2 / (1 - w / npop) - (0.25 + f**3 / 3) * lam**4 / npop
    return HYP_TAIL_PREFACTOR / sqrt(npop) * exp(expo)


def _poisson_tail(lam, x):
    """Bound on P(|S - lam| > x) for S ~ Poisson(lam) and a deviation x >= 0."""
    lam, x = float(Fraction(lam)), float(x)
    if lam < 0:
        raise ParameterError("poisson_tail rate must be >= 0")
    if x < 0:
        raise ParameterError("poisson_tail deviation must be >= 0")
    return 2.0 * exp(-x * x / (2 * (lam + x))) if lam + x else 2.0


def _edgeworth_lazy(r, p, k):
    """Gaussian density with the 1/r lattice correction for R(r, p) at k."""
    p = Fraction(p)
    if r < 1:
        raise ParameterError("edgeworth_lazy needs r >= 1")
    if not 0 < p < 1:
        raise ParameterError("edgeworth_lazy needs 0 < p < 1")
    _require_range("edgeworth_lazy", k, -r, r)
    s2 = float(2 * p * (1 - p))
    lead = exp(-k * k / (2 * r * s2)) / sqrt(2 * pi * r * s2)
    corr = (k**4 - 6 * k**2 + 3) * (1 / s2 - 3) / (24 * r)
    return lead * (1 + corr)


def _require_range(kind, r, lo, hi):
    if not lo <= r <= hi:
        raise ParameterError(f"{kind} point {r} outside [{lo}, {hi}]")


# One entry per approximation kind: its parameter names in call order, the size
# first (None if it has none); formula(*values, point), which checks its own
# inputs; and exact(*values, point), the value error_scan judges it by.  The
# references look their pmf builders up when called, so a wrapper sees each call.
Approx = namedtuple("Approx", "params formula exact")
APPROX = {
    "demoivre": Approx(("n", "p"), _demoivre, lambda n, p, r: binomial_pmf(n, p)[r]),
    "stirling_binom": Approx(("n",), _stirling_binom, comb),
    "cramer_tail": Approx(("n", "p"), _cramer_tail, lambda n, p, r: binomial_pmf(n, p)[r]),
    "hyp_tail": Approx(("w", "ksucc", "npop"), _hyp_tail,
                       lambda w, ksucc, npop, k: hypergeometric_pmf(w, ksucc, npop)[k]),
    # the renormalised truncated pmf dominates the true one: a bound above it bounds the true mass
    "poisson_tail": Approx((None, "lam"), _poisson_tail,
                           lambda lam, k: truncated_poisson_pmf(Fraction(lam))[0][k]),
    "edgeworth_lazy": Approx(("r", "p"), _edgeworth_lazy, lambda r, p, k: lazy_walk_pmf(r, p)[k]),
}
APPROX_KINDS = tuple(APPROX)


def approx_eval(kind, params, point):
    """Evaluate approximation `kind` (see APPROX) at a lattice point, with
    params a dict by parameter name.  Tail kinds return the bound value; the
    others return the formula's leading value."""
    if kind not in APPROX:
        raise ParameterError(f"unknown approximation kind {kind!r}")
    return APPROX[kind].formula(*_values(kind, params), point)


def _values(kind, params):
    return [params[name] for name in APPROX[kind].params if name]


@dataclass
class ScanRow:
    kind: str
    params: dict
    point: int
    exact: float
    approx: float
    rel_error: float


@dataclass
class ScanResult:
    rows: list
    decay_exponent: float = None  # fitted d(log rel_error)/d(log size)


def error_scan(kind, param_grid, size_key=None):
    """Tabulate exact vs approximate values over a grid.

    `param_grid` is a sequence of dicts, each holding the kind's parameters
    plus "point".  When `size_key` names a parameter taking >= 3 distinct
    values among the rows with a finite, nonzero rel_error, the decay
    exponent of rel_error against that size is fitted by least squares on
    the log-log scale over those rows.
    """
    grid = list(param_grid)
    if not grid:
        raise ParameterError("error_scan needs a nonempty grid")
    rows = []
    for gp in grid:
        gp = dict(gp)
        point = gp.pop("point")
        # poisson_tail's formula takes the deviation from the rate; the formula
        # checks the parameters, so it runs before any exact pmf is built
        x = abs(point - Fraction(gp["lam"])) if kind == "poisson_tail" else point
        approx = approx_eval(kind, gp, x)
        exact = float(APPROX[kind].exact(*_values(kind, gp), point))
        rel = abs(approx - exact) / exact if exact else float("inf")
        rows.append(ScanRow(kind, gp, point, exact, approx, rel))
    rows.sort(key=lambda row: (sorted(row.params.items()), row.point))
    result = ScanResult(rows)
    if size_key is not None:
        pts = [(log(r.params[size_key]), log(r.rel_error), 1) for r in rows if 0 < r.rel_error < inf]
        if len({x for x, _, _ in pts}) >= 3:
            result.decay_exponent = weighted_slope(pts)
    return result


def weighted_slope(pts):
    """The weighted least-squares slope of y against x over the (x, y,
    weight) triples pts; 0.0 when the x values do not spread."""
    wsum = sum(m for _, _, m in pts)
    xbar = sum(x * m for x, _, m in pts) / wsum
    ybar = sum(y * m for _, y, m in pts) / wsum
    sxx = sum(m * (x - xbar) ** 2 for x, _, m in pts)
    sxy = sum(m * (x - xbar) * (y - ybar) for x, y, m in pts)
    return sxy / sxx if sxx else 0.0
