import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import binomial_masses, hypergeometric_masses, lazy_walk_masses, lazy_walk_oracle
from randisc import locallimits as ll
from randisc.errors import CapacityError, ParameterError


def test_binomial_pascal_row():
    pmf = ll.binomial_pmf(4, F(1, 2))
    assert pmf.weights == tuple(F(c, 16) for c in (1, 4, 6, 4, 1))


def test_hypergeometric_small():
    pmf = ll.hypergeometric_pmf(2, 2, 4)
    assert [pmf[k] for k in (0, 1, 2)] == [F(1, 6), F(4, 6), F(1, 6)]


def test_hypergeometric_rejects_bad_population():
    with pytest.raises(ParameterError):
        ll.hypergeometric_pmf(2, 5, 4)


def test_lazy_walk_two_steps():
    pmf = ll.lazy_walk_pmf(2, F(1, 2))
    want = {-2: F(1, 16), -1: F(1, 4), 0: F(3, 8), 1: F(1, 4), 2: F(1, 16)}
    assert {k: pmf[k] for k in pmf.support()} == want


@pytest.mark.parametrize("r", [0, 1, 3, 7, 12, 64, 150])
@pytest.mark.parametrize("p", [F(1, 2), F(1, 3), F(1, 10), F(2, 5), F(0), F(1), F(2, 7)])
def test_lazy_walk_matches_binomial_difference_oracle(r, p):
    pmf = ll.lazy_walk_pmf(r, p)
    oracle = lazy_walk_oracle(r, p)
    for k in range(-r, r + 1):
        assert pmf[k] == oracle[k]


@pytest.mark.parametrize("p", [F(1, 2), F(1, 5), F(3, 10)])
@pytest.mark.parametrize("r", [1, 2, 5, 16, 33])
def test_lazy_walk_exact_invariants(r, p):
    pmf = ll.lazy_walk_pmf(r, p)
    assert sum(pmf.weights) == 1
    for k in pmf.support():
        assert pmf[k] == pmf[-k]
    assert pmf.mean() == 0
    assert pmf.variance() == r * 2 * p * (1 - p)


def test_equal_laws_compare_equal():
    # (2z + 5 + 2/z)**3, the lazy walk R(3, 1/3), built three ways
    counts = (8, 60, 174, 245, 174, 60, 8)
    walk = ll.lazy_walk_pmf(3, F(1, 3))
    for other in (ll.Pmf.from_masses(-3, counts), ll.Pmf(-3, [F(c, 729) for c in counts])):
        assert walk == other and hash(walk) == hash(other)
    assert walk != ll.Pmf.from_masses(-2, counts)


def test_exact_pmfs_sum_to_one_exactly():
    assert sum(ll.binomial_pmf(31, F(2, 7)).weights) == 1
    assert sum(ll.hypergeometric_pmf(6, 10, 24).weights) == 1
    assert sum(ll.truncated_poisson_pmf(F(7, 2))[0].weights) == 1


def test_exact_pmf_sum_check_is_exact():
    # mixed denominators: the sum is checked exactly, not to a tolerance
    ok = (F(1, 3), F(1, 6), F(1, 4), F(1, 4))
    assert ll.Pmf(0, ok).weights == ok
    tiny = F(1, 2**300)
    for eps in (tiny, -tiny):
        with pytest.raises(ParameterError):
            ll.Pmf(0, (F(1, 3), F(1, 6), F(1, 4), F(1, 4) + eps))


def test_truncated_poisson_cut_is_deep():
    lam = F(4)
    pmf, cut = ll.truncated_poisson_pmf(lam)
    # documented guarantee: lam^(cut+1)/(cut+1)! * (1 - lam/(cut+2))^-1 < 2^-60
    bound = lam ** (cut + 1) / math.factorial(cut + 1) * (cut + 2) / (cut + 2 - lam)
    assert bound < F(1, 2**60)
    assert pmf[0] > 0 and pmf[cut] > 0


def test_truncated_poisson_cut_past_cap_raises():
    # 10**400 and EXACT_SIZE_CAP - 1 start past the cap and are refused before
    # any term is built (the first grew its list without bound); rate 1500
    # passes the cap while the cut is searched
    for lam in (F(10) ** 400, F(ll.EXACT_SIZE_CAP - 1), F(1500)):
        with pytest.raises(CapacityError):
            ll.truncated_poisson_pmf(lam)


def test_convolve_integer_matches_schoolbook():
    import random

    rng = random.Random(5)
    for _ in range(20):
        xs = [rng.randrange(10**6) for _ in range(rng.randrange(1, 9))]
        ys = [rng.randrange(10**6) for _ in range(rng.randrange(1, 9))]
        want = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                want[i + j] += a * b
        assert ll.convolve_integer(xs, ys) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["binomial", "hypergeometric", "lazy_walk"]),
    st.integers(0, 40),
    st.fractions(0, 1, max_denominator=12),
    st.integers(0, 10**6),
)
@example("binomial", ll.EXACT_SIZE_CAP, F(1, 3), 0)
@example("hypergeometric", ll.EXACT_SIZE_CAP, F(1, 3), 1500)
@example("lazy_walk", ll.EXACT_SIZE_CAP, F(1, 10), 0)
@example("lazy_walk", 0, F(1, 2), 0)
@example("binomial", 0, F(1, 3), 0)
@example("hypergeometric", 0, F(0), 0)
@example("binomial", 7, F(0), 0)
@example("binomial", 7, F(1), 0)
@example("hypergeometric", 9, F(0), 4)
@example("hypergeometric", 9, F(1), 4)
@example("lazy_walk", 5, F(0), 0)
@example("lazy_walk", 5, F(1), 0)
def test_pmf_counts_match_comb_oracle(family, size, p, u):
    # w and ksucc for the hypergeometric law come from u and p
    w, ksucc = u % (size + 1), int(p * size)
    if family == "binomial":
        pmf = ll.binomial_pmf(size, p)
        total, masses = p.denominator**size, dict(enumerate(binomial_masses(size, p)))
    elif family == "hypergeometric":
        pmf = ll.hypergeometric_pmf(w, ksucc, size)
        total = math.comb(size, w)
        masses = dict(enumerate(hypergeometric_masses(w, ksucc, size)))
    else:
        pmf = ll.lazy_walk_pmf(size, p)
        total = p.denominator ** (2 * size)
        ks = range(-size, size + 1) if size <= 40 else (-1, 0, size // 2, size)
        masses = lazy_walk_masses(size, p, ks)
    assert sum(pmf.counts) == pmf.den
    # equal to gcd(*counts) == 1 given the sum, and faster from den
    assert math.gcd(pmf.den, *pmf.counts) == 1
    if family != "lazy_walk" or size <= 40:  # every k is listed
        assert sum(masses.values()) == total
    for k, mass in masses.items():
        count = pmf.counts[k - pmf.offset] if pmf.lo <= k <= pmf.hi else 0
        assert count * total == mass * pmf.den, (family, size, p, k)


def test_exact_cap_raises():
    with pytest.raises(CapacityError):
        ll.binomial_pmf(5000, F(1, 2))


def test_lattice_point_validation():
    ll.LatticePoint(6, 3, 2)
    with pytest.raises(ParameterError):
        ll.LatticePoint(6, 7, 2)
    with pytest.raises(ParameterError):
        ll.LatticePoint(6, 3, 4)


# ---------------------------------------------------------------------------
# Approximations


def test_demoivre_central_value():
    approx = ll.approx_eval("demoivre", {"n": 100, "p": F(1, 2)}, 50)
    assert math.isclose(approx, 1 / math.sqrt(50 * math.pi), rel_tol=1e-12)
    exact = float(ll.binomial_pmf(100, F(1, 2))[50])
    assert abs(approx - exact) / exact < 0.01


def test_demoivre_rejects_peripheral_p():
    with pytest.raises(ParameterError):
        ll.approx_eval("demoivre", {"n": 100, "p": F(1, 100)}, 1)


def test_stirling_binom_ratio_monotone_to_one():
    ratios = []
    for n in (8, 16, 32, 64, 128, 256):
        approx = ll.approx_eval("stirling_binom", {"n": n}, n // 2)
        assert math.isclose(approx, math.sqrt(2 / (math.pi * n)) * 2.0**n, rel_tol=1e-12)
        ratios.append(approx / math.comb(n, n // 2))
    assert all(r > 1 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.001


def test_edgeworth_lazy_close_at_center():
    r, p = 200, F(1, 10)
    approx = ll.approx_eval("edgeworth_lazy", {"r": r, "p": p}, 0)
    exact = float(ll.lazy_walk_pmf(r, p)[0])
    s2 = float(2 * p * (1 - p))
    assert abs(approx - exact) / exact < 5 / (r * s2) ** 2


def test_poisson_tail_trivial_bound():
    assert ll.approx_eval("poisson_tail", {"lam": F(4)}, 0) == 2.0


@pytest.mark.parametrize("p", [F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3)])
@pytest.mark.parametrize("n", [10, 25, 50, 120])
def test_cramer_dominates_exact_pmf(n, p):
    pmf = ll.binomial_pmf(n, p)
    for r in range(n + 1):
        bound = ll.approx_eval("cramer_tail", {"n": n, "p": p}, r)
        assert float(pmf[r]) <= bound


@pytest.mark.parametrize("npop,w,ks", [(24, 6, 12), (48, 12, 12), (96, 24, 36), (200, 50, 100)])
def test_hyp_tail_dominates_exact_pmf(npop, w, ks):
    pmf = ll.hypergeometric_pmf(w, ks, npop)
    for k in pmf.support():
        bound = ll.approx_eval("hyp_tail", {"w": w, "ksucc": ks, "npop": npop}, k)
        assert float(pmf[k]) <= bound


def test_poisson_tail_dominates_truncated_pmf():
    for lam in (F(1, 2), F(2), F(4)):
        pmf, cut = ll.truncated_poisson_pmf(lam)
        for k in range(cut + 1):
            x = abs(k - lam)
            bound = ll.approx_eval("poisson_tail", {"lam": lam}, x)
            assert float(pmf[k]) <= bound


def test_error_scan_edgeworth_decay():
    grid = [{"r": r, "p": F(1, 10), "point": 0} for r in (50, 100, 200, 400)]
    scan = ll.error_scan("edgeworth_lazy", grid, size_key="r")
    rels = [row.rel_error for row in scan.rows]
    factors = [a / b for a, b in zip(rels, rels[1:])]
    assert all(3 <= f <= 5 for f in factors)
    # rel_error ~ r^-2 means the fitted log-log slope sits near -2
    assert -2.3 < scan.decay_exponent < -1.7


def test_error_scan_fits_only_rows_with_a_finite_nonzero_error():
    # point 3 has exact mass 0 at ksucc = 2 (rel_error inf); point 1's three
    # finite errors still give the slope, and a size that has only
    # zero-mass rows does not count towards the three sizes a fit needs
    grid = [{"w": w, "ksucc": 2, "npop": 64, "point": x} for w in (4, 8, 16) for x in (1, 3)]
    scan = ll.error_scan("hyp_tail", grid, size_key="w")
    finite = [(math.log(r.params["w"]), math.log(r.rel_error), 1) for r in scan.rows if r.point == 1]
    assert len(finite) == 3 and [r.rel_error for r in scan.rows if r.point == 3] == [math.inf] * 3
    assert scan.decay_exponent == ll.weighted_slope(finite) < 0
    two_sizes = [gp for gp in grid if gp["point"] == 1 and gp["w"] < 16] + [grid[-1]]
    assert ll.error_scan("hyp_tail", two_sizes, size_key="w").decay_exponent is None


def test_error_scan_rejects_empty_grid():
    with pytest.raises(ParameterError):
        ll.error_scan("demoivre", [])


def test_stream_below_is_exactly_uniform():
    from helpers import chi_square_pvalue
    from randisc.rng import Stream

    stream = Stream(31337)
    trials = 30000
    counts = [0, 0, 0]
    for _ in range(trials):
        counts[stream.below(3)] += 1
    assert chi_square_pvalue(counts, [F(1, 3)] * 3, trials) > 0.001


def test_integer_table_draws_match_weights():
    from helpers import chi_square_pvalue
    from randisc.rng import IntegerTable, Stream

    table = IntegerTable([1, 2, 5])
    stream = Stream(4242)
    trials = 40000
    counts = [0, 0, 0]
    for _ in range(trials):
        counts[table.draw(stream)] += 1
    assert chi_square_pvalue(counts, [F(1, 8), F(2, 8), F(5, 8)], trials) > 0.001
