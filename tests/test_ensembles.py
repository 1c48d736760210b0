import time
from fractions import Fraction as F
from math import comb, factorial, sqrt

import pytest

from helpers import chi_square_pvalue, pinelis_oracle
from randisc import ensembles as ens
from randisc.errors import InvariantViolation, ParameterError, UnsupportedDistributionError
from randisc.locallimits import Pmf, binomial_pmf, truncated_poisson_pmf


def test_spec_validation():
    with pytest.raises(ParameterError):
        ens.EnsembleSpec("bernoulli", 2, 5, F(1, 3), 0)  # odd n
    with pytest.raises(ParameterError):
        ens.EnsembleSpec("bernoulli", 2, 4, F(3, 5), 0)  # p > 1/2
    with pytest.raises(ParameterError):
        ens.EnsembleSpec("poisson", 2, 4, F(-1, 2), 0)
    with pytest.raises(ParameterError):
        ens.EnsembleSpec("gaussian", 2, 4, F(1, 2), 0)


def test_p_zero_gives_zero_matrix():
    A = ens.sample(ens.EnsembleSpec("bernoulli", 2, 4, F(0), 7))
    assert set(A.entries) == {0}


def test_sampling_is_deterministic():
    spec = ens.EnsembleSpec("bernoulli", 3, 8, F(1, 3), 123)
    assert ens.sample(spec).entries == ens.sample(spec).entries
    other = ens.EnsembleSpec("bernoulli", 3, 8, F(1, 3), 124)
    assert ens.sample(spec).entries != ens.sample(other).entries


def test_bernoulli_row_mean_concentrates():
    # binomial concentration: |mean - p| <= 4 sqrt(p(1-p)/n)
    n, p = 10000, F(3, 10)
    A = ens.sample(ens.EnsembleSpec("bernoulli", 1, n, p, 2024))
    mean = sum(A.entries) / n
    assert abs(mean - float(p)) <= 4 * sqrt(float(p * (1 - p)) / n)


def test_poisson_entries_match_moments():
    lam = F(3, 2)
    A = ens.sample(ens.EnsembleSpec("poisson", 1, 20000, lam, 5))
    mean = sum(A.entries) / A.n
    assert abs(mean - 1.5) < 4 * sqrt(1.5 / A.n)


# ---------------------------------------------------------------------------
# Pinelis coupling table


def test_pinelis_binomial_2_half():
    tab = ens.pinelis_joint(binomial_pmf(2, F(1, 2)))
    assert tab.t[0] == 0 and tab.t[2] == F(1, 4) and tab.t[4] == 0
    assert tab.joint == {
        (0, 0): F(1, 4),
        (1, 2): F(1, 4),
        (1, 0): F(1, 4),
        (2, 2): F(1, 4),
    }


def test_pinelis_even_support_is_diagonal():
    mu = Pmf(0, (F(1, 2), F(0), F(1, 2)))
    tab = ens.pinelis_joint(mu)
    assert tab.joint == {(0, 0): F(1, 2), (2, 2): F(1, 2)}


def test_pinelis_poisson_truncated_at_12_even_marginal():
    lam = F(1, 2)
    raw = [lam**k / factorial(k) for k in range(13)]
    total = sum(raw)
    mu = Pmf(0, tuple(v / total for v in raw))
    tab = ens.pinelis_joint(mu, truncation=12)
    # oracle: direct conditional renormalisation on the even integers
    q = sum(mu[k] for k in range(0, 13, 2))
    for k in range(13):
        want = mu[k] / q if k % 2 == 0 else F(0)
        assert tab.even_marginal[k] == want
    assert tab.truncation == 12


def _marginals(tab):
    row, col = {}, {}
    for (x, x2), mass in tab.joint.items():
        row[x] = row.get(x, F(0)) + mass
        col[x2] = col.get(x2, F(0)) + mass
    return row, col


@pytest.mark.parametrize("n", [2, 5, 8, 12])
@pytest.mark.parametrize("p", [F(1, 8), F(1, 4), F(3, 8), F(1, 2)])
def test_pinelis_marginals_exact_binomial(n, p):
    mu = binomial_pmf(n, p)
    tab = ens.pinelis_joint(mu)
    row, col = _marginals(tab)
    for k in mu.support():
        assert row.get(k, F(0)) == mu[k]
        assert col.get(k, F(0)) == tab.even_marginal[k]
    assert all(abs(x - y) <= 1 for x, y in tab.joint)
    assert all(mass >= 0 for mass in tab.joint.values())


@pytest.mark.parametrize("lam", [F(1, 4), F(1), F(4)])
def test_pinelis_marginals_exact_poisson(lam):
    tab = ens.truncated_poisson_coupling(lam)
    row, col = _marginals(tab)
    for k in tab.base.support():
        assert row.get(k, F(0)) == tab.base[k]
        assert col.get(k, F(0)) == tab.even_marginal[k]
    assert tab.truncation is not None


def test_pinelis_rejects_odd_only_mass():
    with pytest.raises(UnsupportedDistributionError):
        ens.pinelis_joint(Pmf(1, (F(1),)))  # point mass at 1


def test_pinelis_detects_non_log_concave():
    mu = Pmf(0, (F(3, 10), F(1, 20), F(1, 20), F(1, 20), F(3, 10), F(1, 4)))
    with pytest.raises(InvariantViolation):
        ens.pinelis_joint(mu)


# criterion 3's binomial and Poisson bases
CRITERION_3_BASES = [
    binomial_pmf(n, p) for n in range(2, 13, 2) for p in (F(1, 8), F(1, 4), F(3, 8), F(1, 2))
] + [
    truncated_poisson_pmf(lam, ens.PINELIS_DEFAULT_TAIL)[0]
    for lam in (F(1, 2), F(1), F(2), F(4))
]


@pytest.mark.parametrize("mu", CRITERION_3_BASES)
def test_pinelis_table_matches_fraction_recursion(mu):
    # criterion 3's tables against the Fraction recursion of helpers
    tab = ens.pinelis_joint(mu)
    assert (tab.t, tab.joint) == pinelis_oracle(mu)


@pytest.mark.parametrize("mu", CRITERION_3_BASES)
def test_memoised_step_weights_match_fraction_formula(mu):
    # the Fraction formula of the rate-16 test at every odd x, on the first
    # call and from the table's memo after it
    tab = ens.pinelis_joint(mu)
    odd = range(1, tab.base.hi + 1, 2)
    for x in [*odd, *odd]:
        up, down = tab.joint.get((x, x + 1), F(0)), tab.joint.get((x, x - 1), F(0))
        want = (up.numerator * down.denominator, down.numerator * up.denominator)
        assert tab.even_step_weights(x) == want
    assert sorted(tab._step_weights) == list(odd)


def test_rate_16_row_table_builds_fast_with_fraction_weights():
    # Poisson row sums at n = 32, rate 16 (cut 1,429).  The weights are the
    # Fraction formula's up * den and down * den over den = up.denominator
    # * down.denominator, written without the gcd that up * den runs
    t0 = time.perf_counter()
    tab = ens._row_coupling_table.__wrapped__("poisson", 32, F(16))
    assert time.perf_counter() - t0 < 3
    for x in range(1, tab.base.hi + 1, 2):
        up, down = tab.joint.get((x, x + 1), F(0)), tab.joint.get((x, x - 1), F(0))
        want = (up.numerator * down.denominator, down.numerator * up.denominator)
        assert tab.even_step_weights(x) == want


@pytest.mark.parametrize("where", ["row", "column"])
def test_coupling_check_catches_a_moved_mass(where):
    # binomial(2, 1/2) over scale = den * even = 4 * 2: the joint of
    # test_pinelis_binomial_2_half with one unit of mass moved
    mu = binomial_pmf(2, F(1, 2))
    even = ens.Pmf.from_masses(0, [1, 0, 1])
    jnum = {(0, 0): 2, (1, 2): 2, (1, 0): 2, (2, 2): 2}
    ens._check_coupling(jnum, 8, mu, even)
    if where == "row":
        jnum.update({(0, 0): 1, (2, 2): 3})
    else:
        jnum.update({(1, 2): 1, (1, 0): 3})
    with pytest.raises(InvariantViolation, match=f"{where} marginal"):
        ens._check_coupling(jnum, 8, mu, even)


# ---------------------------------------------------------------------------
# Parity coupling on matrices


@pytest.mark.parametrize("kind, param", [("bernoulli", F(1, 3)), ("poisson", F(3, 2))])
def test_sample_at_parity(kind, param):
    spec = ens.EnsembleSpec(kind, 5, 8, param, 21)
    A = ens.sample(spec)
    assert ens.sample_at_parity(spec, "none") == A
    B = ens.sample_at_parity(spec, "even")
    assert all(s % 2 == 0 for s in B.row_sums())
    for a, b in zip(A.rows(), B.rows()):
        assert sum(abs(x - y) for x, y in zip(a, b)) == sum(a) % 2
    with pytest.raises(ParameterError):
        ens.sample_at_parity(spec, "odd")


def test_couple_even_parity_structure():
    spec = ens.EnsembleSpec("bernoulli", 20, 10, F(1, 3), 31)
    A = ens.sample(spec)
    B = ens.couple_even_parity(A, spec, 77)
    for i in range(A.m):
        ra, rb = A.row(i), B.row(i)
        assert sum(rb) % 2 == 0
        assert max(abs(a - b) for a, b in zip(ra, rb)) <= 1
        assert sum(abs(a - b) for a, b in zip(ra, rb)) <= 1
        if sum(ra) % 2 == 0:
            assert ra == rb  # even rows never change


def test_couple_even_parity_poisson_structure():
    spec = ens.EnsembleSpec("poisson", 30, 6, F(2), 3)
    A = ens.sample(spec)
    B = ens.couple_even_parity(A, spec, 4)
    for i in range(A.m):
        ra, rb = A.row(i), B.row(i)
        assert sum(rb) % 2 == 0
        assert sum(abs(a - b) for a, b in zip(ra, rb)) <= 1


def test_couple_single_one_row():
    # weight-1 row must move to weight 0 or 2, changing exactly one entry
    A = ens.IntMatrix.from_rows([[1, 0, 0]])
    seen = set()
    for seed in range(300):
        B = ens.couple_even_parity(A, kind="bernoulli", param=F(1, 3), seed=seed)
        w = sum(B.row(0))
        seen.add(w)
        assert w in (0, 2)
        assert sum(abs(a - b) for a, b in zip(A.row(0), B.row(0))) == 1
    assert seen == {0, 2}


def test_couple_single_one_row_law():
    # enumerate the Binomial(3, p) coupling: P(X'=0 | X=1) = 1 - t_2/mu_1
    p = F(1, 3)
    mu = binomial_pmf(3, p)
    tab = ens.pinelis_joint(mu)
    want_up = tab.joint[(1, 2)] / mu[1]
    trials = 20000
    ups = 0
    A = ens.IntMatrix.from_rows([[1, 0, 0]])
    for seed in range(trials):
        B = ens.couple_even_parity(A, kind="bernoulli", param=p, seed=seed)
        ups += sum(B.row(0)) == 2
    phat = ups / trials
    sigma = sqrt(float(want_up * (1 - want_up)) / trials)
    assert abs(phat - float(want_up)) < 4 * sigma


def test_coupled_row_sum_law_chi_square():
    # output row-sum law == Binomial(6, 1/3) conditioned even
    n, p = 6, F(1, 3)
    mu = binomial_pmf(n, p)
    q = sum(mu[k] for k in range(0, n + 1, 2))
    probs = [mu[k] / q for k in range(0, n + 1, 2)]
    trials = 20000
    counts = [0] * len(probs)
    spec = ens.EnsembleSpec("bernoulli", 1, n, p, 0)
    for seed in range(trials):
        sp = ens.EnsembleSpec("bernoulli", 1, n, p, seed)
        B = ens.couple_even_parity(ens.sample(sp), sp, seed ^ 0xABCD)
        counts[sum(B.row(0)) // 2] += 1
    assert chi_square_pvalue(counts, probs, trials) > 0.001


# ---------------------------------------------------------------------------
# Fixed-weight rows


def test_fixed_weight_zero():
    assert ens.sample_fixed_weight("poisson_with_replacement", 5, 0, 1) == [0] * 5
    assert ens.sample_fixed_weight("bernoulli_without_replacement", 6, 0, 1) == [0] * 6


def test_fixed_weight_bernoulli_always_w_ones():
    for seed in range(50):
        row = ens.sample_fixed_weight("bernoulli_without_replacement", 9, 4, seed)
        assert sum(row) == 4 and set(row) <= {0, 1}


def test_fixed_weight_bernoulli_uniform_supports():
    n, w, trials = 4, 2, 60000
    counts = {}
    for seed in range(trials):
        row = ens.sample_fixed_weight("bernoulli_without_replacement", n, w, seed)
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    assert len(counts) == comb(n, w)
    sigma = sqrt((1 / 6) * (5 / 6) / trials)
    for cnt in counts.values():
        assert abs(cnt / trials - 1 / 6) < 4 * sigma


def test_fixed_weight_poisson_two_cells():
    trials = 40000
    counts = {(2, 0): 0, (1, 1): 0, (0, 2): 0}
    for seed in range(trials):
        row = tuple(ens.sample_fixed_weight("poisson_with_replacement", 2, 2, seed))
        counts[row] += 1
    assert chi_square_pvalue(
        [counts[(2, 0)], counts[(1, 1)], counts[(0, 2)]],
        [F(1, 4), F(1, 2), F(1, 4)],
        trials,
    ) > 0.001


def test_fixed_weight_overdraw_rejected():
    with pytest.raises(ParameterError):
        ens.sample_fixed_weight("bernoulli_without_replacement", 4, 5, 0)


# ---------------------------------------------------------------------------
# Matrix file format


def test_matrix_roundtrip(tmp_path):
    A = ens.IntMatrix.from_rows([[1, 2, 0], [0, 7, 3]])
    path = tmp_path / "a.mat"
    ens.write_matrix(path, A)
    text = path.read_bytes()
    assert text == b"2 3\n1 2 0\n0 7 3\n"
    B = ens.read_matrix(path)
    assert B.entries == A.entries and (B.m, B.n) == (2, 3)


def test_matrix_reader_rejects_ragged(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 3\n1 2 3\n4 5\n")
    with pytest.raises(ParameterError):
        ens.read_matrix(path)


def test_matrix_reader_rejects_bad_header(tmp_path):
    path = tmp_path / "bad2.mat"
    path.write_text("banana\n")
    with pytest.raises(ParameterError):
        ens.read_matrix(path)


def test_poisson_coupled_row_sum_law_chi_square():
    # coupled row sums follow (truncated) Poisson(n*rate) conditioned even
    n, lam, trials = 4, F(1, 2), 20000
    mu, _ = truncated_poisson_pmf(F(2))  # n * lam
    evens = [k for k in mu.support() if k % 2 == 0 and float(mu[k]) > 1e-12]
    q = sum(mu[k] for k in evens)
    probs = [mu[k] / q for k in evens]
    counts = {k: 0 for k in evens}
    for seed in range(trials):
        sp = ens.EnsembleSpec("poisson", 1, n, lam, seed)
        B = ens.couple_even_parity(ens.sample(sp), sp, seed ^ 0xFACE)
        counts[sum(B.row(0))] += 1
    assert chi_square_pvalue([counts[k] for k in evens], probs, trials) > 0.001


def test_poisson_entry_law_chi_square():
    lam, trials = F(3, 2), 30000
    mu, cut = truncated_poisson_pmf(lam)
    spec = ens.EnsembleSpec("poisson", 1, 2, lam, 99)
    cells = [k for k in range(cut + 1) if float(mu[k]) * trials * 2 > 1]
    counts = {k: 0 for k in range(cut + 1)}
    for seed in range(trials):
        A = ens.sample(ens.EnsembleSpec("poisson", 1, 2, lam, seed))
        for v in A.entries:
            counts[v] += 1
    tail = sum(counts[k] for k in range(cut + 1) if k not in cells)
    obs = [counts[k] for k in cells]
    probs = [mu[k] for k in cells]
    assert tail <= 5  # beyond-cell mass is negligible by construction
    assert chi_square_pvalue(obs, [p / sum(probs) for p in probs], sum(obs)) > 0.001
