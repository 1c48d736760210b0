"""Exact-rational first and second moments of the balanced-solution count
under the three row conditionings, the overlap functions psi/phi, and the
numeric checks behind the rectangular-CSP second-moment conditions.

Conventions.  A constraint row is "satisfied" by a balanced vector u when
<u, row> lies in a symmetric band K.  psi is the single-vector satisfaction
probability, phi(beta) the pair probability for two balanced vectors
agreeing on a beta fraction of coordinates, and the second-moment ratio is

    E[Z^2]/E[Z]^2 = C(n, n/2)^-1 * sum_r C(n/2, r)^2 prod_i
                    (phi_i(2r/n) / psi_i^2)

with the overlap count r enumerated exactly (beta = 2r/n is never a float).
Everything here is computed in exact rational arithmetic by default; the
dichotomy of interest lives in 1 + Theta(1/n) corrections that floats blur.
"""

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, exp, gcd, inf, lgamma, log, log2

from .errors import CapacityError, ParameterError
from .locallimits import convolve_integer, over_one_denominator

CASES = ("bernoulli_parity_dense", "bernoulli_fixed_weight", "poisson_fixed_weight")

EXACT_SECONDS = 10.0  # exact mode refuses a spec whose sum _exact_seconds puts past this


@dataclass(frozen=True)
class SymmetricBand:
    """Set {k : |k| <= radius, k = parity (mod 2)}; parity taken from w."""

    radius: int
    parity: int = 0

    def __post_init__(self):
        if self.radius < 0:
            raise ParameterError("band radius must be >= 0")
        if self.parity not in (0, 1):
            raise ParameterError("band parity must be 0 or 1")

    def members(self):
        return tuple(
            k for k in range(-self.radius, self.radius + 1) if (k - self.parity) % 2 == 0
        )

    def targets(self, w):
        """The band in count space: {(w + k)/2 : k in K}."""
        return tuple((w + k) // 2 for k in self.members())


@dataclass(frozen=True)
class OverlapScenario:
    """A conditioned pair experiment: rows of weight w against two balanced
    vectors agreeing on beta*n coordinates, constrained to the band K."""

    case: str
    n: int
    w: int
    beta: Fraction
    band: SymmetricBand = None

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.case not in CASES:
            raise ParameterError(f"unknown case {self.case!r}")
        if self.band is None:
            object.__setattr__(self, "band", SymmetricBand(0, self.w % 2))
        if self.band.parity != self.w % 2:
            raise ParameterError("band parity must match w")
        if self.band.radius >= self.w + 2:
            # a member k < -w would ask for C(w, (w + k)/2) with (w + k)/2 < 0
            raise ParameterError(f"band radius {self.band.radius} reaches past w={self.w}")
        if not 0 <= self.beta <= 1:
            raise ParameterError(f"beta={self.beta} outside [0, 1]")
        if self.n % 2:
            raise ParameterError("n must be even")
        if self.w < 0:
            raise ParameterError("w must be >= 0")
        if self.case != "poisson_fixed_weight":
            if self.w % 2:
                raise ParameterError("fixed-weight bernoulli scenarios need even w")
            if self.w > self.n:
                raise ParameterError("w cannot exceed n")
            if (self.beta * self.n) % 2 != 0:
                raise ParameterError(
                    f"beta={self.beta} has nonintegral agreement count beta*n/2"
                )
            if self.band.radius != 0 and self.case == "bernoulli_fixed_weight":
                raise ParameterError("bernoulli fixed-weight case uses the zero band")

    @property
    def gamma(self):
        return 1 - self.beta

    @property
    def x(self):
        return self.beta - Fraction(1, 2)


# ---------------------------------------------------------------------------
# The pair label law
#
# Each of a row's w draws gets one of four (v-sign, u-sign) labels: sa = (+,+),
# sb = (+,-), sc = (-,-), sd = (-,+).  <v, row> = k is fixed by sa + sb, and
# <u, row> = w - 2S with S = sb + sc, so phi and the Stein pair statistics are
# both sums over the law of (sb, sc) given k.


def _label_weights(scenario):
    """Integer weights (b, g, b, g) of the labels (sa, sb, sc, sd).

    Poisson: the odds beta : gamma over one unreduced denominator, the bounds
    the chain step draws below.  Bernoulli: the urn sizes beta*n/2, gamma*n/2.
    """
    beta, gamma = scenario.beta, scenario.gamma
    if scenario.case == "poisson_fixed_weight":
        b, g = beta.numerator * gamma.denominator, gamma.numerator * beta.denominator
    else:
        b, g = int(beta * scenario.n // 2), int(gamma * scenario.n // 2)
    return (b, g, b, g)


def _sb_sc_laws(scenario, k):
    """(sb law, sc law, den): integer weights of sb and sc given the band
    offset k; den = sum(sb law) * sum(sc law) is the same for every k.

    Poisson: sb ~ Binomial((w+k)/2, gamma), sc ~ Binomial((w-k)/2, beta), odds
    in lowest terms.  Bernoulli (k = 0): the sb balls of w/2 draws from the
    sa and sb urns, and the sc balls of w/2 draws from the sc and sd urns.
    """
    b, g = _label_weights(scenario)[:2]
    w = scenario.w
    if scenario.case == "poisson_fixed_weight":
        d = gcd(b, g)
        b, g = b // d, g // d
        n1, n2 = (w + k) // 2, (w - k) // 2
        sb = tuple(comb(n1, i) * g**i * b ** (n1 - i) for i in range(n1 + 1))
        sc = tuple(comb(n2, j) * b**j * g ** (n2 - j) for j in range(n2 + 1))
    else:
        half = w // 2
        sb = tuple(comb(g, i) * comb(b, half - i) for i in range(half + 1))
        sc = tuple(comb(b, j) * comb(g, half - j) for j in range(half + 1))
    return sb, sc, sum(sb) * sum(sc)


# ---------------------------------------------------------------------------
# Row satisfaction probabilities


def parity_prob(n, p):
    """P(Binomial(n, p) is even) = 1/2 + (1 - 2p)^n / 2, exactly."""
    p = Fraction(p)
    if not 0 <= p <= Fraction(1, 2):
        raise ParameterError(f"p={p} outside [0, 1/2]")
    return Fraction(1, 2) + (1 - 2 * p) ** n / 2


def _walk_zero_probs(r_max, p):
    """P[R(j, p) = 0] for j = 0..r_max, as T_j / b**(2j) with p = a/b.

    T_j, the central coefficient of (alpha z + beta + alpha/z)**j with
    alpha = a(b - a) and beta = a**2 + (b - a)**2, satisfies T_0 = 1,
    T_1 = beta and j T_j = beta (2j - 1) T_{j-1} - (beta**2 - 4 alpha**2)
    (j - 1) T_{j-2}; the division by j is exact.
    """
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    alpha, beta = a * (b - a), a * a + (b - a) ** 2
    disc = beta * beta - 4 * alpha * alpha
    nums = [1, beta]
    for j in range(2, r_max + 1):
        nums.append((beta * (2 * j - 1) * nums[-1] - disc * (j - 1) * nums[-2]) // j)
    den = b * b
    return [Fraction(t, den**j) for j, t in enumerate(nums[: r_max + 1])]


def psi_phi_dense(n, p, overlap_r):
    """Parity-conditioned dense case with K = {0}.

    psi = P[U = 0] / P(row even) with U ~ R(n/2, p);
    phi(2r/n) = P[V = 0] P[V' = 0] / P(row even) with V ~ R(r, p),
    V' ~ R(n/2 - r, p) independent.
    """
    if n % 2:
        raise ParameterError("n must be even")
    if not 0 <= overlap_r <= n // 2:
        raise ParameterError(f"overlap_r={overlap_r} outside [0, {n // 2}]")
    psi, phi = _row_psi_phi_functions("bernoulli_parity_dense", n, p=p)
    return psi, phi(overlap_r)


def psi_dense(n, p):
    return psi_phi_dense(n, p, 0)[0]


def phi_fixed_weight(scenario: OverlapScenario):
    """Pair satisfaction probability for the fixed-weight cases: the band sum
    of the law of S = sb + sc from the pair label law (_sb_sc_laws).

    Poisson: sum over k in K of C(w, (w+k)/2) conv_k[targets] / (2**w den),
    conv_k the convolution of the sb and sc laws given k.  Bernoulli:
    conv[w/2] / C(n, w), the rows with k = 0 and S = w/2.  The laws carry
    beta in {0, 1} and an empty band (phi = 0) without special cases.
    """
    w = scenario.w
    if scenario.case == "poisson_fixed_weight":
        targets = scenario.band.targets(w)
        num, den = 0, 1
        for k in scenario.band.members():
            sb, sc, den = _sb_sc_laws(scenario, k)
            conv = convolve_integer(sb, sc)
            num += comb(w, (w + k) // 2) * sum(conv[t] for t in targets)
        return Fraction(num, 2**w * den)
    if scenario.case == "bernoulli_fixed_weight":
        sb, sc, _ = _sb_sc_laws(scenario, 0)
        return Fraction(convolve_integer(sb, sc)[w // 2], comb(scenario.n, w))
    raise ParameterError(f"{scenario.case} is not a fixed-weight case")


def psi_phi_fixed_weight(scenario: OverlapScenario):
    """(psi, phi(beta)) for the fixed-weight cases; psi is phi at full
    overlap (u = v), where the pair event is the single-vector event."""
    return phi_fixed_weight(replace(scenario, beta=Fraction(1))), phi_fixed_weight(scenario)


def _row_psi_phi_functions(case, n, p=None, w=None, band_radius=0):
    """The one per-row source: (psi, r -> phi(2r/n)) for one row spec; the
    row plan builds each distinct row through it.

    psi is phi at full overlap (u = v), where the pair event is the
    single-vector event.  OverlapScenario refuses a Bernoulli fixed-weight
    band other than 0.
    """
    if case == "bernoulli_parity_dense":
        if band_radius != 0:
            raise ParameterError("dense parity case uses the zero band")
        zeros = _walk_zero_probs(n // 2, p)
        pp = parity_prob(n, p)

        def phi(r):
            return zeros[r] * zeros[n // 2 - r] / pp

        return phi(n // 2), phi
    band = SymmetricBand(band_radius, w % 2)

    def phi(r):
        return phi_fixed_weight(OverlapScenario(case, n, w, Fraction(2 * r, n), band))

    return phi_fixed_weight(OverlapScenario(case, n, w, Fraction(1), band)), phi


# ---------------------------------------------------------------------------
# Moments
#
# E[Z] and the overlap ratio are products over the rows of per-row factors,
# so both read one row plan: the spec parsed once, each distinct row built
# once.


def _exact_seconds(n, p, counts, band_radius):
    """Estimated seconds of the exact overlap sum, from the row spec alone.

    Fitted on a 2-core box within 0.5-1.7x of the measured time (up to 6x
    over for Bernoulli rows of weight near n/2): each of the n/2 + 1
    overlaps multiplies out B bits, the coefficient's 2n and each row's
    phi/psi^2, at 3.9e-11 B^1.7 s, and builds each distinct row's phi:
    dense rationals of twice a row's bits, or band convolutions of w^2
    products.
    """
    try:
        total, build = 2 * n, 0.0
        for k, count in counts.items():
            if k is None:  # a dense row at p = a/b
                bits = n * (log2(Fraction(p).denominator) + 1)
                build += 3.9e-11 * (2 * bits) ** 1.7
            else:
                bits = abs(k) * log2(n)
                build += 2e-9 * (min(band_radius, k) + 1) * k**2 * bits**0.6
            total += count * bits
        return (n // 2 + 1) * (3.9e-11 * total**1.7 + build)
    except OverflowError:  # n or w past a float
        return inf


def _row_plan(case, n, m, p, w, band_radius, exact_sum):
    """(keys, rows) for a row spec, validated once.

    keys holds one entry per row: its weight w, or None for the dense case's
    i.i.d. rows.  rows maps each distinct key, in first-seen order, to
    (count, psi, r -> phi(2r/n)).  With exact_sum, the exact overlap sum's
    estimated time is checked before any row is built.
    """
    if n % 2:
        raise ParameterError("n must be even")
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if case == "bernoulli_parity_dense":
        if m is None or p is None:
            raise ParameterError("dense case needs m and p")
        w = None
    elif w is None:
        raise ParameterError("fixed-weight cases need w")
    elif isinstance(w, int) and m is None:
        raise ParameterError("scalar w needs m")
    scalar = w is None or isinstance(w, int)
    counts = {w: m} if scalar else Counter(w)
    if sum(counts.values()) < 1:
        raise ParameterError("need at least one row (m >= 1)")
    seconds = _exact_seconds(n, p, counts, band_radius) if exact_sum else 0
    if seconds > EXACT_SECONDS:
        raise CapacityError(
            f"exact overlap sum at n={n}, m={sum(counts.values())} estimated past "
            f"{EXACT_SECONDS:.0f} s; pass exact=False for the log-space fallback",
            estimate=f"~{seconds:.3g} s on a 2-core box",
        )
    rows = {}
    for key, count in counts.items():
        psi, phi = _row_psi_phi_functions(case, n, p=p, w=key, band_radius=band_radius)
        if psi == 0:
            raise ParameterError(
                f"band radius {band_radius} is unreachable for w={key} (psi = 0)"
            )
        rows[key] = (count, psi, phi)
    return [w] * m if scalar else list(w), rows


def _combine(start, factors, exact):
    """start * prod f**count over (f, count) in factors, or in log space
    start + sum count * log f."""
    for f, count in factors:
        if exact:
            start *= f**count
        else:
            start += count * _log_fraction(f)
    return start


def _log_fraction(fr):
    return log(fr.numerator) - log(fr.denominator)


@dataclass
class ExpectedCount:
    """E[Z | conditioning]: the exact value (None in log mode) and its log."""

    value: Fraction
    log_value: float


def expected_solution_count(case, *, n, m=None, p=None, w=None, band_radius=0):
    """E[Z] = C(n, n/2) * prod_i psi_i for the requested conditioning.

    `w` may be a single weight or a per-row sequence (fixed-weight cases);
    the dense case uses m i.i.d. parity-conditioned rows with K = {0}.
    Always exact, with its log: one product of the psi values the row plan
    builds, so no cost estimate is checked.
    """
    return _first_moment(n, *_row_plan(case, n, m, p, w, band_radius, False), True)


def _first_moment(n, keys, rows, exact):
    start = Fraction(comb(n, n // 2)) if exact else lgamma(n + 1) - 2 * lgamma(n // 2 + 1)
    # row by row in row order: the log sum's rounding depends on the order
    total = _combine(start, [(rows[key][1], 1) for key in keys], exact)
    return ExpectedCount(total, _log_fraction(total)) if exact else ExpectedCount(None, total)


@dataclass
class OverlapTerm:
    r: int
    beta: Fraction
    phi_over_psi2: Fraction
    term: Fraction  # C(n/2, r)^2 * prod_i (phi_i/psi_i^2)^... / C(n, n/2)


@dataclass
class RatioResult:
    ratio: Fraction
    profile: list


def second_moment_ratio(case, *, n, m=None, p=None, w=None, band_radius=0, exact=True):
    """E[Z^2]/E[Z]^2 as the exact overlap sum, with a per-overlap profile.

    Exact mode refuses a spec whose sum _exact_seconds puts past
    EXACT_SECONDS (CapacityError; exact=False is the log-space fallback).
    """
    return _overlap_ratio(n, _row_plan(case, n, m, p, w, band_radius, exact)[1], exact)


def _overlap_ratio(n, rows, exact):
    """The overlap sum over the plan's distinct rows, each group's
    phi/psi^2 raised to its row count; the profile keeps the first
    group's phi/psi^2.  Exact terms are summed over one denominator and
    reduced once."""
    half = n // 2
    denom = comb(n, half)
    total = 0.0
    profile = []
    for r in range(half + 1):
        factors = [(phi(r) / psi**2, count) for count, psi, phi in rows.values()]
        prod = _combine(Fraction(1) if exact else 0.0, factors, exact)
        coeff = Fraction(comb(half, r) ** 2, denom)
        term = coeff * prod if exact else float(coeff) * exp(prod)
        if not exact:
            total += term
        profile.append(OverlapTerm(r, Fraction(2 * r, n), factors[0][0], term))
    if exact:
        nums, den = over_one_denominator([t.term for t in profile])
        total = Fraction(sum(nums), den)
    return RatioResult(total, profile)


# ---------------------------------------------------------------------------
# Second-moment-method condition checks


@dataclass
class SmmConditionFlags:
    first_moment_holds: bool
    c_margin: float  # log E[Z] / n
    weak_bound_holds: bool
    c_delta: Fraction  # smallest grid constant with phi <= C_delta psi^2
    strong_bound_holds: bool
    c_strong: Fraction  # smallest constant with phi(1/2+x) <= (1+C x^2) psi^2
    c_fit: float  # least-squares quadratic coefficient of phi/psi^2 - 1
    central_ratio: Fraction  # phi(1/2)/psi^2 at the grid centre


@dataclass
class MomentReport:
    case: str
    n: int
    m: int
    psi: Fraction
    phi_at: dict  # beta -> phi(beta)
    first_moment: ExpectedCount
    ratio: Fraction
    condition_flags: SmmConditionFlags = None


def check_smm_conditions(report: MomentReport, m, delta, eps):
    """Evaluate the three second-moment conditions on the report's beta grid.

    Weak bound: C_delta = max of phi/psi^2 over beta in [delta, 1-delta].
    Strong bound: on the window |beta - 1/2| < eps (at least 5 grid points
    required), fit phi/psi^2 - 1 ~ C x^2 by least squares and report the
    smallest exact constant making the quadratic bound hold; the flag also
    demands the central ratio sit within 1/(10 m) of 1.
    First moment: positive margin c = log E[Z] / n.
    """
    delta = Fraction(delta)
    eps = Fraction(eps)
    if not report.phi_at:
        raise ParameterError("report carries no phi grid")
    psi2 = report.psi**2
    window = {b: v for b, v in report.phi_at.items() if abs(b - Fraction(1, 2)) < eps}
    if len(window) < 5:
        raise ParameterError(
            f"need at least 5 grid points in (1/2-eps, 1/2+eps), have {len(window)}"
        )
    annulus = {b: v for b, v in report.phi_at.items() if delta <= b <= 1 - delta}
    if not annulus:
        raise ParameterError("no grid points in [delta, 1-delta]")

    c_delta = max(v / psi2 for v in annulus.values())
    weak = True  # finite by construction on the grid; the value is the datum

    xs, ys = [], []
    c_strong = Fraction(0)
    central = None
    for b, v in sorted(window.items()):
        x = b - Fraction(1, 2)
        y = v / psi2 - 1
        if x == 0:
            central = v / psi2
        else:
            c_strong = max(c_strong, y / x**2)
        xs.append(x)
        ys.append(y)
    if central is None:
        raise ParameterError("central point beta = 1/2 missing from the grid")
    num = sum(float(y) * float(x) ** 2 for x, y in zip(xs, ys))
    den = sum(float(x) ** 4 for x in xs)
    c_fit = num / den if den else 0.0
    strong = abs(central - 1) <= Fraction(1, 10 * m)

    c_margin = report.first_moment.log_value / report.n
    first = c_margin > 0
    return SmmConditionFlags(
        first, c_margin, weak, c_delta, strong, c_strong, c_fit, central
    )


def moment_report(case, *, n, m=None, p=None, w=None, band_radius=0, exact=True):
    """Assemble psi, the full phi grid, E[Z] and the overlap ratio from one
    row plan; E[Z] and the ratio are exact or log-space as `exact` says."""
    keys, rows = _row_plan(case, n, m, p, w, band_radius, exact)
    ratio = _overlap_ratio(n, rows, exact)
    if len(rows) != 1:
        raise ParameterError("moment_report needs identical row weights")
    ((_, psi, _),) = rows.values()
    # the profile holds phi/psi^2 exactly in both modes
    psi2 = psi**2
    phi_at = {t.beta: t.phi_over_psi2 * psi2 for t in ratio.profile}
    first = _first_moment(n, keys, rows, exact)
    return MomentReport(case, n, len(keys), psi, phi_at, first, ratio.ratio)
