"""The memory budget, the size and time limits, and the fitted cost
estimates that admit or refuse each exponential computation before it starts.

Each estimate is a plain function of its inputs, beside its fit: (band, rows)
groups, each row's estimate over its measured value inside the band.  A row
holds the inputs, the measured value (the ru_maxrss in MiB of a fresh process
running its last command, or the process time of its call in a fresh
interpreter), the machine and the command.
"""

from fractions import Fraction
from math import inf, lgamma, log, log2

from .errors import CapacityError

MEMORY_BUDGET = 256 << 20  # bytes: every sampler and solver refuses a larger fitted peak
EXACT_SECONDS = 10.0  # exact mode refuses a spec whose sum exact_seconds puts past this
ENUMERATION_CAP = 26  # the widest matrix the exhaustive blocks enumerate: 2^(n-1) sign vectors

BOX = "2-core Xeon, Python 3.11.7, numpy 2.4.6"


def check_budget(what, n, m, est, n_cap=None):
    """Refuse `what` past a fitted peak of est bytes or past n_cap columns."""
    if est > MEMORY_BUDGET or (n_cap and n > n_cap):
        limit = f"n<={n_cap} and " if n_cap else ""
        raise CapacityError(
            f"{what} refused at n={n}, m={m}: it takes {limit}{MEMORY_BUDGET >> 20} MiB",
            estimate=f"~{est / 1e6:.0f} MB peak memory",
        )


def mitm_peak(n, m):
    """Peak bytes of a meet-in-the-middle join on m x n Bernoulli(1/2)
    entries (wider ones fill the trees sooner).  Per sign vector of the
    larger half (h columns): 18 bytes of sort keys, 2 more a row past 3,
    until the prefix trees fill up after about (h - 4)/3 rows; then 24 bytes
    a row, or 17 past about h rows.  Plus 1,500 bytes a row and 33 MB."""
    h = min((n + 1) // 2, 1023)  # 2.0**h would overflow a float past 1023
    return 2.0**h * max(18, 12 + 2 * m, min(24 * m - 8 * h + 32, 17 * m + 16)) + 1500 * m + 33e6


def check_mitm(n, m):
    """The join's one limit: its fitted peak."""
    check_budget("mitm", n, m, mitm_peak(n, m))


# (n, m, peak MiB, machine, command); `a` is made by `randisc gen --ensemble
# bernoulli --m M --n N --p 1/2 --seed 1 --out a`.  The estimate reads under
# four rows: the (44, 1) count, the (30, 10) count at r = 2, and the tall
# witness scans at (30, 400) and (30, 420), the last admitted at 266 MiB
MITM_FIT = (
    ((0.92, 1.80), (
        (40, 10, 94.1, BOX, "randisc zcount --in a --r 1"),
        (40, 10, 114.5, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
        (42, 10, 160.3, BOX, "randisc zcount --in a --r 1"),
        (42, 10, 186.1, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
        (44, 8, 125.0, BOX, "randisc zcount --in a --r 1"),
        (44, 8, 142.4, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
        (46, 7, 185.7, BOX, "randisc zcount --in a --r 1"),
        (46, 7, 193.6, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
        (38, 20, 133.5, BOX, "randisc zcount --in a --r 1"),
        (38, 20, 173.4, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
        (34, 40, 92.6, BOX, "randisc zcount --in a --r 1"),
        (34, 40, 113.7, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
        (30, 400, 200.5, BOX, "randisc zcount --in a --r 1"),
        (30, 400, 254.4, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
        (30, 420, 266.3, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
        (28, 200, 73.9, BOX, "randisc zcount --in a --r 1"),
        (30, 1, 31.0, BOX, "randisc zcount --in a --r 1"),
        (30, 10, 35.3, BOX, "randisc zcount --in a --r 1"),
        (30, 10, 39.2, BOX, "randisc zcount --in a --r 2"),
        (38, 10, 65.8, BOX, "randisc zcount --in a --r 3"),
        (40, 4, 50.9, BOX, "randisc zcount --in a --r 1"),
        (44, 1, 112.4, BOX, "randisc zcount --in a --r 1"),
        (46, 1, 166.4, BOX, "randisc zcount --in a --r 1"),
        (8, 20000, 56.6, BOX, "randisc disc --in a --method mitm --balanced --r 1"),
    )),
)


def blocks_peak(m, lo_w):
    """Peak bytes of the exhaustive blocks on m rows with lo_w low signs: 24
    bytes a row and low sign vector at int64, 1 for the matrix, and 33 MB."""
    return 25.0 * m * 2**lo_w + 33e6


# (n, m, largest entry, peak MiB, machine, command); `w` holds m rows of n
# `random.Random(1).randint(0, largest entry)` values.  The counts and the
# unbalanced searches with 10^12 entries read every block at int64
BLOCKS_FIT = (
    ((1.03, 5.5), (
        (18, 143, 10**12, 155.5, BOX, "randisc zcount --in w --r 1"),
        (20, 143, 10**12, 178.6, BOX, "randisc zcount --in w --r 1"),
        (26, 143, 10**12, 220.4, BOX, "randisc zcount --in w --r 1"),
        (14, 1149, 10**12, 132.7, BOX, "randisc zcount --in w --r 1"),
        (12, 4598, 10**12, 136.9, BOX, "randisc zcount --in w --r 1"),
        (17, 143, 10**12, 173.6, BOX, "randisc disc --in w --method brute"),
        (18, 143, 10**12, 245.2, BOX, "randisc disc --in w --method brute"),
        (20, 143, 10**12, 245.5, BOX, "randisc disc --in w --method brute"),
        (26, 143, 10**12, 246.0, BOX, "randisc disc --in w --method brute"),
        (14, 1149, 10**12, 174.4, BOX, "randisc disc --in w --method brute"),
        (12, 4598, 10**12, 176.2, BOX, "randisc disc --in w --method brute"),
        (20, 143, 10**12, 178.6, BOX, "randisc disc --in w --method brute --balanced"),
        (18, 143, 1, 46.8, BOX, "randisc zcount --in w --r 1"),
        (18, 143, 1, 57.0, BOX, "randisc disc --in w --method brute"),
        (20, 143, 1, 49.6, BOX, "randisc disc --in w --method brute --balanced"),
    )),
)


def sample_peak(n, m, held, table):
    """Peak bytes of drawing m x n entries from `table` into a matrix of
    `held` bytes an entry (32 after the even coupling): 72 bytes a column
    when a draw is one 64-bit word, else 96 + 40 a word; 33 more an entry
    past 256, an int of its own; 12 a word of the table; plus 33 MB."""
    words = ((table.total - 1).bit_length() + 63) >> 6
    if len(table.cum) > 257:
        held += 33 * (table.total - table.cum[256]) / table.total
    per_column = 72 if words <= 1 else 96 + 40 * words
    return n * per_column + m * n * held + 12 * words * len(table.cum) + 33e6


# (kind, param, m, n, parity, peak MiB, machine, command).  The five rows
# marked * are refused: they were measured with the sampling check patched
# out, and the Poisson rate-100 one peaked under the budget.  Below 128 MiB
# the 33 MB and the even coupling's row table, left out, set the spread
SAMPLE_FIT = (
    ((0.91, 1.15), (
        ("bernoulli", "1/2", 1, 3000000, "none", 274.0, BOX,  # *
         "randisc gen --ensemble bernoulli --m 1 --n 3000000 --p 1/2 --seed 1 --out /dev/null"),
        ("bernoulli", "1/2", 1, 2500000, "none", 227.5, BOX,
         "randisc gen --ensemble bernoulli --m 1 --n 2500000 --p 1/2 --seed 1 --out /dev/null"),
        ("bernoulli", "1/2", 100, 100000, "none", 183.3, BOX,
         "randisc gen --ensemble bernoulli --m 100 --n 100000 --p 1/2 --seed 1 --out /dev/null"),
        ("bernoulli", "1/2", 4000, 4000, "none", 274.2, BOX,  # *
         "randisc gen --ensemble bernoulli --m 4000 --n 4000 --p 1/2 --seed 1 --out /dev/null"),
        ("bernoulli", "1/2", 4000, 3600, "none", 249.7, BOX,
         "randisc gen --ensemble bernoulli --m 4000 --n 3600 --p 1/2 --seed 1 --out /dev/null"),
        ("bernoulli", "1/3", 2000, 4000, "none", 152.2, BOX,
         "randisc gen --ensemble bernoulli --m 2000 --n 4000 --p 1/3 --seed 1 --out /dev/null"),
        ("bernoulli", "1/7", 4000, 3000, "none", 213.1, BOX,
         "randisc gen --ensemble bernoulli --m 4000 --n 3000 --p 1/7 --seed 1 --out /dev/null"),
        ("bernoulli", "1/2", 2000, 4000, "even", 284.9, BOX,  # *
         "randisc gen --ensemble bernoulli --m 2000 --n 4000 --p 1/2 --parity even --seed 1 "
         "--out /dev/null"),
        ("bernoulli", "1/2", 1000, 4000, "even", 162.7, BOX,
         "randisc gen --ensemble bernoulli --m 1000 --n 4000 --p 1/2 --parity even --seed 1 "
         "--out /dev/null"),
        ("bernoulli", "1/7", 4000, 1000, "even", 155.8, BOX,
         "randisc gen --ensemble bernoulli --m 4000 --n 1000 --p 1/7 --parity even --seed 1 "
         "--out /dev/null"),
        ("poisson", "3", 1, 1000000, "none", 200.8, BOX,
         "randisc gen --ensemble poisson --m 1 --n 1000000 --p 3 --seed 1 --out /dev/null"),
        ("poisson", "3", 1000, 10000, "none", 183.9, BOX,
         "randisc gen --ensemble poisson --m 1000 --n 10000 --p 3 --seed 1 --out /dev/null"),
        ("poisson", "16", 100, 100000, "none", 186.2, BOX,
         "randisc gen --ensemble poisson --m 100 --n 100000 --p 16 --seed 1 --out /dev/null"),
        ("poisson", "16", 1, 700000, "none", 225.6, BOX,
         "randisc gen --ensemble poisson --m 1 --n 700000 --p 16 --seed 1 --out /dev/null"),
        ("poisson", "100", 1, 200000, "none", 246.5, BOX,  # *
         "randisc gen --ensemble poisson --m 1 --n 200000 --p 100 --seed 1 --out /dev/null"),
        ("poisson", "100", 1, 100000, "none", 138.1, BOX,
         "randisc gen --ensemble poisson --m 1 --n 100000 --p 100 --seed 1 --out /dev/null"),
        ("poisson", "1000", 1, 20000, "none", 332.7, BOX,  # *
         "randisc gen --ensemble poisson --m 1 --n 20000 --p 1000 --seed 1 --out /dev/null"),
        ("poisson", "1000", 1, 10000, "none", 185.2, BOX,
         "randisc gen --ensemble poisson --m 1 --n 10000 --p 1000 --seed 1 --out /dev/null"),
        ("poisson", "1000", 10, 10000, "none", 215.2, BOX,
         "randisc gen --ensemble poisson --m 10 --n 10000 --p 1000 --seed 1 --out /dev/null"),
    )),
    ((0.74, 1.80), (
        ("bernoulli", "1/2", 1, 10, "none", 17.8, BOX,
         "randisc gen --ensemble bernoulli --m 1 --n 10 --p 1/2 --seed 1 --out /dev/null"),
        ("bernoulli", "1/3", 10, 300000, "none", 81.4, BOX,
         "randisc gen --ensemble bernoulli --m 10 --n 300000 --p 1/3 --seed 1 --out /dev/null"),
        ("bernoulli", "1/7", 1, 1000000, "none", 115.1, BOX,
         "randisc gen --ensemble bernoulli --m 1 --n 1000000 --p 1/7 --seed 1 --out /dev/null"),
        ("bernoulli", "1/2", 10, 1000, "even", 31.1, BOX,
         "randisc gen --ensemble bernoulli --m 10 --n 1000 --p 1/2 --parity even --seed 1 "
         "--out /dev/null"),
        ("bernoulli", "1/3", 100, 4000, "even", 57.3, BOX,
         "randisc gen --ensemble bernoulli --m 100 --n 4000 --p 1/3 --parity even --seed 1 "
         "--out /dev/null"),
        ("poisson", "3", 1, 10, "none", 29.9, BOX,
         "randisc gen --ensemble poisson --m 1 --n 10 --p 3 --seed 1 --out /dev/null"),
        ("poisson", "3", 10, 300000, "none", 101.8, BOX,
         "randisc gen --ensemble poisson --m 10 --n 300000 --p 3 --seed 1 --out /dev/null"),
        ("poisson", "3", 4000, 200, "even", 75.0, BOX,
         "randisc gen --ensemble poisson --m 4000 --n 200 --p 3 --parity even --seed 1 "
         "--out /dev/null"),
        ("poisson", "16", 4000, 32, "even", 46.8, BOX,
         "randisc gen --ensemble poisson --m 4000 --n 32 --p 16 --parity even --seed 1 "
         "--out /dev/null"),
        ("poisson", "16", 10, 32, "even", 40.5, BOX,
         "randisc gen --ensemble poisson --m 10 --n 32 --p 16 --parity even --seed 1 "
         "--out /dev/null"),
        ("poisson", "100", 100, 10000, "none", 54.2, BOX,
         "randisc gen --ensemble poisson --m 100 --n 10000 --p 100 --seed 1 --out /dev/null"),
        ("poisson", "100", 1000, 4, "even", 37.1, BOX,
         "randisc gen --ensemble poisson --m 1000 --n 4 --p 100 --parity even --seed 1 "
         "--out /dev/null"),
        ("poisson", "1000", 100, 1000, "none", 64.9, BOX,
         "randisc gen --ensemble poisson --m 100 --n 1000 --p 1000 --seed 1 --out /dev/null"),
    )),
)


def exact_seconds(case, n, p, counts, band_radius):
    """Seconds of the exact overlap sum over rows of weight w (None: dense
    at p), counts[w] of each.  Each of the n/2 + 1 overlaps multiplies out B
    bits, the coefficient's 2n and each row's phi/psi^2, at 3.9e-11 B^1.7 s,
    and builds each distinct row's phi: dense rationals of twice a row's
    bits, or |K| <= min(radius, w) + 1 pairs of laws and |K| x |K| dot
    products at the band targets, each w/2 + 1 products of a row's bits, at
    1.2e-8 bits^0.7 s a product.  A Bernoulli fixed-weight row takes at most
    2 log2 C(n, w) bits, its law's size; that bound never raises the estimate."""
    try:
        total, build = 2 * n, 0.0
        for k, count in counts.items():
            if k is None:  # a dense row at p = a/b
                bits = n * (log2(Fraction(p).denominator) + 1)
                build += 3.9e-11 * (2 * bits) ** 1.7
            else:
                bits = abs(k) * log2(n)
                if case == "bernoulli_fixed_weight" and 0 < k < n:
                    bits = min(bits, 2 * (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(2))
                members = min(band_radius, k) + 1
                build += 1.2e-8 * members * (members + 2) * (k / 2 + 1) * bits**0.7
            total += count * bits
        return (n // 2 + 1) * (3.9e-11 * total**1.7 + build)
    except OverflowError:  # n or w past a float
        return inf


def check_exact_sum(case, n, p, counts, band_radius):
    """Refuse an exact overlap sum estimated past EXACT_SECONDS."""
    seconds = exact_seconds(case, n, p, counts, band_radius)
    if seconds > EXACT_SECONDS:
        raise CapacityError(
            f"exact overlap sum at n={n}, m={sum(counts.values())} estimated past "
            f"{EXACT_SECONDS:.0f} s; pass exact=False for the log-space fallback",
            estimate=f"~{seconds:.3g} s on a 2-core box",
        )


# (case, n, p, counts, band radius, seconds, machine, command); seconds are
# the median of three runs, `F` is Fraction
EXACT_SECONDS_FIT = (
    ((1.1, 3.0), (
        ("bernoulli_parity_dense", 256, Fraction(1, 10**20), {None: 8}, 0, 1.733, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=256, m=8, p=F(1, 10**20))'),
        ("bernoulli_parity_dense", 256, Fraction(1, 16), {None: 64}, 0, 0.537, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=256, m=64, p=F(1, 16))'),
        ("bernoulli_parity_dense", 256, Fraction(1, 2), {None: 128}, 0, 0.612, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=256, m=128, p=F(1, 2))'),
        ("bernoulli_parity_dense", 512, Fraction(1, 2), {None: 32}, 0, 0.356, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=512, m=32, p=F(1, 2))'),
        ("bernoulli_parity_dense", 512, Fraction(1, 16), {None: 32}, 0, 0.987, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=512, m=32, p=F(1, 16))'),
        ("bernoulli_parity_dense", 512, Fraction(1, 2), {None: 128}, 0, 4.591, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=512, m=128, p=F(1, 2))'),
        ("bernoulli_parity_dense", 1024, Fraction(1, 2), {None: 8}, 0, 0.268, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=1024, m=8, p=F(1, 2))'),
        ("bernoulli_parity_dense", 1024, Fraction(1, 2), {None: 32}, 0, 2.800, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=1024, m=32, p=F(1, 2))'),
        ("bernoulli_parity_dense", 2048, Fraction(1, 2), {None: 8}, 0, 1.711, BOX,
         'second_moment_ratio("bernoulli_parity_dense", n=2048, m=8, p=F(1, 2))'),
        ("bernoulli_fixed_weight", 4096, None, {16: 8}, 0, 0.431, BOX,
         'second_moment_ratio("bernoulli_fixed_weight", n=4096, m=8, w=16)'),
        ("bernoulli_fixed_weight", 1024, None, {64: 64}, 0, 0.588, BOX,
         'second_moment_ratio("bernoulli_fixed_weight", n=1024, m=64, w=64)'),
        ("bernoulli_fixed_weight", 4096, None, {64: 8}, 0, 0.779, BOX,
         'second_moment_ratio("bernoulli_fixed_weight", n=4096, m=8, w=64)'),
        ("bernoulli_fixed_weight", 1024, None, {128: 8}, 0, 0.157, BOX,
         'second_moment_ratio("bernoulli_fixed_weight", n=1024, m=8, w=128)'),
        ("bernoulli_fixed_weight", 256, None, {128: 8}, 0, 0.015, BOX,
         'second_moment_ratio("bernoulli_fixed_weight", n=256, m=8, w=128)'),
        ("bernoulli_fixed_weight", 256, None, {128: 64}, 0, 0.096, BOX,
         'second_moment_ratio("bernoulli_fixed_weight", n=256, m=64, w=128)'),
        ("bernoulli_fixed_weight", 512, None, {256: 8}, 0, 0.117, BOX,
         'second_moment_ratio("bernoulli_fixed_weight", n=512, m=8, w=256)'),
        ("bernoulli_fixed_weight", 768, None, {384: 8}, 0, 0.531, BOX,
         'second_moment_ratio("bernoulli_fixed_weight", n=768, m=8, w=384)'),
        ("poisson_fixed_weight", 256, None, {64: 64}, 2, 0.123, BOX,
         'second_moment_ratio("poisson_fixed_weight", n=256, m=64, w=64, band_radius=2)'),
        ("poisson_fixed_weight", 1024, None, {64: 8}, 2, 0.162, BOX,
         'second_moment_ratio("poisson_fixed_weight", n=1024, m=8, w=64, band_radius=2)'),
        ("poisson_fixed_weight", 256, None, {256: 8}, 0, 0.090, BOX,
         'second_moment_ratio("poisson_fixed_weight", n=256, m=8, w=256)'),
        ("poisson_fixed_weight", 1024, None, {128: 8}, 2, 0.396, BOX,
         'second_moment_ratio("poisson_fixed_weight", n=1024, m=8, w=128, band_radius=2)'),
        ("poisson_fixed_weight", 4096, None, {16: 64}, 2, 1.101, BOX,
         'second_moment_ratio("poisson_fixed_weight", n=4096, m=64, w=16, band_radius=2)'),
        ("poisson_fixed_weight", 256, None, {256: 8}, 2, 0.283, BOX,
         'second_moment_ratio("poisson_fixed_weight", n=256, m=8, w=256, band_radius=2)'),
    )),
)
