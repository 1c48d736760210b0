"""Bernoulli/Poisson matrix ensembles, the even-parity coupling, and
conditioned fixed-weight row samplers.

All sampling is exact: entries are drawn by rejection from rational weight
tables, so a sampled matrix follows the stated law *exactly* and the result
is a pure function of (spec, seed) on every platform.  Per-row substreams
come from counter-based key splitting (see rng.derive_key), so outputs do
not depend on evaluation order or thread count.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from . import costs
from .errors import InvariantViolation, ParameterError, UnsupportedDistributionError
from .locallimits import Pmf, binomial_pmf, truncated_poisson_pmf
from .rng import IntegerTable, Stream, derive_key

PINELIS_DEFAULT_TAIL = Fraction(1, 10**15)

# stream-domain tags, so sampling and coupling never share a substream
_DOMAIN_SAMPLE = 0x5A
_DOMAIN_COUPLE = 0xC0
_DOMAIN_FIXED = 0xF1
_DOMAIN_PARITY = 0xEE  # the coupling seed, derived from the sample seed

PARITIES = ("none", "even")


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of an i.i.d. matrix ensemble.

    kind "bernoulli" uses param = p with 0 <= p <= 1/2 (callers wanting
    p > 1/2 must flip explicitly); kind "poisson" uses param = rate >= 0.
    n must be even.
    """

    kind: str
    m: int
    n: int
    param: Fraction
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "param", Fraction(self.param))
        if self.kind not in ("bernoulli", "poisson"):
            raise ParameterError(f"unknown ensemble kind {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise ParameterError("matrix dimensions must be positive")
        if self.n % 2:
            raise ParameterError(f"n must be even, got {self.n}")
        if self.kind == "bernoulli" and not 0 <= self.param <= Fraction(1, 2):
            raise ParameterError(f"bernoulli p={self.param} outside [0, 1/2]")
        if self.kind == "poisson" and self.param < 0:
            raise ParameterError(f"poisson rate {self.param} is negative")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")


@dataclass(frozen=True)
class IntMatrix:
    """Dense m x n matrix of nonnegative integers, row-major."""

    m: int
    n: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.m * self.n:
            raise ParameterError("entry count does not match dimensions")
        if any(e < 0 for e in self.entries):
            raise ParameterError("entries must be nonnegative")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise ParameterError("matrix needs at least one row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ParameterError("ragged rows")
        return cls(len(rows), n, tuple(v for r in rows for v in r))

    def row(self, i):
        return self.entries[i * self.n : (i + 1) * self.n]

    def rows(self):
        return [self.row(i) for i in range(self.m)]

    def row_sums(self):
        return [sum(self.row(i)) for i in range(self.m)]

    def to_numpy(self):
        import numpy as np

        return np.array(self.entries, dtype=np.int64).reshape(self.m, self.n)


@lru_cache(maxsize=64)
def _entry_table(kind, param):
    if kind == "bernoulli":
        return IntegerTable([param.denominator - param.numerator, param.numerator])
    pmf, _ = truncated_poisson_pmf(param)
    return IntegerTable(pmf.counts)


def sample(spec: EnsembleSpec) -> IntMatrix:
    """Draw a matrix from the ensemble; deterministic given (spec, seed)."""
    table = _entry_table(spec.kind, spec.param)
    costs.check_budget("sampling", spec.n, spec.m, costs.sample_peak(spec.n, spec.m, 16, table))
    entries = []
    for i in range(spec.m):
        stream = Stream(derive_key(spec.seed, _DOMAIN_SAMPLE, i))
        entries.extend(table.draw_many(stream, spec.n))
    return IntMatrix(spec.m, spec.n, tuple(entries))


def prepare_sampling(spec: EnsembleSpec, parity):
    """Every check of sample_at_parity that comes before a draw: the parity,
    the sampling peak and, with parity "even", the row coupling table, built
    here and cached, which refuses a row sum law it cannot build exactly."""
    if parity not in PARITIES:
        raise ParameterError(f"parity must be none or even, got {parity!r}")
    held = 32 if parity == "even" else 16
    est = costs.sample_peak(spec.n, spec.m, held, _entry_table(spec.kind, spec.param))
    costs.check_budget("sampling", spec.n, spec.m, est)
    if parity == "even":
        _row_coupling_table(spec.kind, spec.n, spec.param)


def sample_at_parity(spec: EnsembleSpec, parity) -> IntMatrix:
    """Draw a matrix from the ensemble; with parity "even", couple it so
    every row sum is even, seeded by derive_key(spec.seed, _DOMAIN_PARITY).
    Either refusal, by size or by the coupling table, comes before any draw."""
    prepare_sampling(spec, parity)
    if parity == "none":
        return sample(spec)
    return couple_even_parity(sample(spec), spec, derive_key(spec.seed, _DOMAIN_PARITY))


# ---------------------------------------------------------------------------
# Parity coupling


@dataclass(frozen=True)
class CouplingTable:
    """Joint law of (X, X') where X ~ base and X' ~ base conditioned even,
    with |X - X'| <= 1 almost surely, as integers over one `scale` the way
    Pmf holds counts over den: jnum[(x, x')] = P(X = x, X' = x') * scale,
    and tnum[2j] = P(X = 2j-1, X' = 2j) * scale for each even 2j; the rest
    of an odd column falls to 2j-2.  `joint` and `t` read them as Fractions.
    `truncation` records the cut point when the base pmf was truncated (None
    for finitely supported bases).
    """

    base: Pmf
    even_marginal: Pmf
    tnum: dict
    jnum: dict
    scale: int
    truncation: int = None

    @cached_property
    def t(self):
        return {k: Fraction(v, self.scale) for k, v in self.tnum.items()}

    @cached_property
    def joint(self):
        return {key: Fraction(v, self.scale) for key, v in self.jnum.items()}

    @cached_property
    def _step_weights(self):
        return {}  # odd x -> even_step_weights(x), filled as rows ask

    def even_step_weights(self, x):
        """Integer weights for X' in {x+1, x-1} given an odd value X = x:
        the masses up/scale and down/scale times the product of their reduced
        denominators, so each is one's reduced numerator times the other's
        reduced denominator (gcd(0, scale) = scale covers a zero mass).
        Memoised per x: the two gcds run on the full scale."""
        weights = self._step_weights.get(x)
        if weights is None:
            up, down = self.jnum.get((x, x + 1), 0), self.jnum.get((x, x - 1), 0)
            gu, gd = gcd(up, self.scale), gcd(down, self.scale)
            weights = up // gu * (self.scale // gd), down // gd * (self.scale // gu)
            self._step_weights[x] = weights
        return weights


def pinelis_joint(mu: Pmf, truncation=None) -> CouplingTable:
    """Couple mu with mu-conditioned-even so the two values differ by <= 1.

    The overlap masses t_{2j} follow the recursion
    t_{2j+2} = t_{2j} + mu_{2j} (1 - 1/Q) + mu_{2j+1}, with Q the even mass
    of mu; over mu's counts c and den, with E the even count total, it runs
    in integers as t_{2j} = T_{2j} / (den E), T_{2j+2} = T_{2j} +
    (E - den) c_{2j} + E c_{2j+1}.  Requires mu log-concave (binomial with
    p <= 1/2, Poisson); violation of 0 <= t_{2j} <= mu_{2j-1} is detected
    exactly and raised.
    """
    if mu.lo < 0:
        raise ParameterError("pinelis_joint requires support on nonnegative integers")
    counts = dict(zip(mu.support(), mu.counts))
    even_counts = [c if k % 2 == 0 else 0 for k, c in counts.items()]
    even = sum(even_counts)
    if even == 0:
        raise UnsupportedDistributionError("base pmf has no even mass")
    even_marginal = Pmf.from_masses(mu.offset, even_counts)

    scale = mu.den * even
    tnum, acc = {}, 0
    for twoj in range(0, mu.hi + 3, 2):
        if not 0 <= acc <= even * counts.get(twoj - 1, 0):
            raise InvariantViolation(
                f"t_{twoj}={Fraction(acc, scale)} outside [0, mu_{twoj - 1}={mu[twoj - 1]}]; "
                "base pmf is not log-concave"
            )
        tnum[twoj] = acc
        acc += (even - mu.den) * counts.get(twoj, 0) + even * counts.get(twoj + 1, 0)
    jnum = {}
    for k, c in counts.items():
        if c == 0:
            continue
        if k % 2 == 0:
            jnum[(k, k)] = even * c
        else:
            up, down = tnum[k + 1], even * c - tnum[k + 1]
            if up:
                jnum[(k, k + 1)] = up
            if down:
                jnum[(k, k - 1)] = down
    _check_coupling(jnum, scale, mu, even_marginal)
    return CouplingTable(mu, even_marginal, tnum, jnum, scale, truncation)


def _check_coupling(jnum, scale, base, even_marginal):
    """Exact marginal/support checks on joint masses held as integers over `scale`."""
    row, col = {}, {}
    for (x, x2), mass in jnum.items():
        if mass < 0:
            raise InvariantViolation("negative joint mass")
        if abs(x - x2) > 1:
            raise InvariantViolation("joint support leaves |x - x'| <= 1")
        if x2 % 2:
            raise InvariantViolation("coupled value must be even")
        row[x] = row.get(x, 0) + mass
        col[x2] = col.get(x2, 0) + mass
    # a mass c / den equals M / scale exactly when M * (den / g) == c * (scale / g)
    # for g = gcd(den, scale): one gcd per marginal shrinks every product
    for name, sums, marginal in (("row", row, base), ("column", col, even_marginal)):
        g = gcd(marginal.den, scale)
        den, sc = marginal.den // g, scale // g
        for k, c in zip(marginal.support(), marginal.counts):
            if sums.get(k, 0) * den != c * sc:
                raise InvariantViolation(f"{name} marginal mismatch at {k}")


def truncated_poisson_coupling(lam, tail=PINELIS_DEFAULT_TAIL):
    """Pinelis table for a Poisson base, truncated where the tail < `tail`."""
    return pinelis_joint(*truncated_poisson_pmf(Fraction(lam), tail))


def row_sum_pmf(kind, n, param):
    """Law of one row sum under the sampler.

    Bernoulli rows sum to an exact Binomial(n, p).  Poisson rows are summed
    as Poisson(n * rate), cut at truncated_poisson_pmf's default tail bound
    2**-60 like each entry; the discrepancy from the truncated-entry
    convolution is below n * 2**-60 in total variation.
    """
    if kind == "bernoulli":
        return binomial_pmf(n, param), None
    return truncated_poisson_pmf(Fraction(n) * param)


@lru_cache(maxsize=64)
def _row_coupling_table(kind, n, param):
    return pinelis_joint(*row_sum_pmf(kind, n, param))


def couple_even_parity(A: IntMatrix, spec=None, seed=0, *, kind=None, param=None) -> IntMatrix:
    """Adjust each row of A by at most one unit step so every row sum is even.

    Draws X' from the Pinelis conditional given X = row sum, then applies the
    step: a decrement lowers an entry picked proportionally to its value (a
    uniform one on a 0/1 row); an increment raises a uniform zero of a
    bernoulli row or a uniform entry of a poisson row.  Even rows never change.
    The ensemble may be given as an EnsembleSpec or as (kind=, param=).
    """
    if spec is not None:
        kind, param = spec.kind, spec.param
    if kind not in ("bernoulli", "poisson"):
        raise ParameterError(f"unknown ensemble kind {kind!r}")
    param = Fraction(param)
    if kind == "bernoulli" and any(e not in (0, 1) for e in A.entries):
        raise ParameterError("bernoulli coupling needs a 0/1 matrix")
    table = _row_coupling_table(kind, A.n, param)
    out_rows = []
    for i in range(A.m):
        row = list(A.row(i))
        x = sum(row)
        if x % 2 == 0:
            out_rows.append(row)
            continue
        stream = Stream(derive_key(seed, _DOMAIN_COUPLE, i))
        if x > table.base.hi:
            # beyond the truncated table (total mass < 2**-60); step down
            up_w, down_w = 0, 1
        else:
            up_w, down_w = table.even_step_weights(x)
        if stream.below(up_w + down_w) < up_w:
            if kind == "bernoulli":
                zeros = [j for j, v in enumerate(row) if v == 0]
                row[zeros[stream.below(len(zeros))]] = 1
            else:
                row[stream.below(len(row))] += 1
        else:
            if x == 0:
                raise InvariantViolation("decrement requested on an all-zero row")
            # a unit picked proportionally to value: on a 0/1 row, a uniform one
            row[IntegerTable(row).draw(stream)] -= 1
        out_rows.append(row)
    return IntMatrix.from_rows(out_rows)


def sample_fixed_weight(kind, n, w, seed):
    """Sample one row conditioned on total weight w.

    kind "poisson_with_replacement": occupancy counts of w uniform cell
    choices (the conditional law of a Poisson row given its sum).
    kind "bernoulli_without_replacement": uniform 0/1 row with exactly w
    ones (the conditional law of a Bernoulli row given its sum).
    """
    if w < 0 or n < 1:
        raise ParameterError("need n >= 1 and w >= 0")
    stream = Stream(derive_key(seed, _DOMAIN_FIXED))
    if kind == "poisson_with_replacement":
        row = [0] * n
        for j in stream.below_many(n, w):
            row[j] += 1
        return row
    if kind == "bernoulli_without_replacement":
        if w > n:
            raise ParameterError(f"cannot place {w} ones in {n} slots")
        row = [0] * n
        for j in stream.shuffle_prefix(n, w):
            row[j] = 1
        return row
    raise ParameterError(f"unknown fixed-weight kind {kind!r}")


# ---------------------------------------------------------------------------
# Matrix file format: first line "m n", then m rows of n integers, LF-ended.

_HEADER = re.compile(r"^(\d+)\s+(\d+)$")


def format_matrix(A: IntMatrix) -> str:
    return f"{A.m} {A.n}\n" + "".join(
        " ".join(str(v) for v in A.row(i)) + "\n" for i in range(A.m)
    )


def write_matrix(path, A: IntMatrix):
    with open(path, "w", newline="\n") as fh:
        fh.write(format_matrix(A))


def read_matrix(path) -> IntMatrix:
    try:
        with open(path, encoding="utf-8") as fh:
            rows = _parse_rows(fh)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"matrix file is not UTF-8 text (byte {exc.start})") from None
    return IntMatrix.from_rows(rows)


def _parse_rows(fh):
    header = fh.readline().strip()
    match = _HEADER.match(header)
    if not match:
        raise ParameterError(f"bad matrix header {header!r}")
    m, n = int(match.group(1)), int(match.group(2))
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        try:
            vals = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParameterError(f"non-integer entry in row {line!r}") from None
        if len(vals) != n:
            raise ParameterError(f"ragged row of length {len(vals)}, expected {n}")
        if any(v < 0 for v in vals):
            raise ParameterError("matrix entries must be nonnegative")
        rows.append(vals)
    if len(rows) != m:
        raise ParameterError(f"expected {m} rows, found {len(rows)}")
    return rows
