from fractions import Fraction as F
from math import comb, isclose, log

import pytest

from helpers import (
    brute_ratio_bernoulli_fixed,
    brute_ratio_dense,
    brute_ratio_poisson_fixed,
    lazy_walk_oracle,
    phi_fixed_weight_oracle,
)
from randisc import moments as mo
from randisc.errors import CapacityError, ParameterError
from randisc.locallimits import binomial_pmf


def test_parity_prob_examples():
    assert mo.parity_prob(5, F(1, 2)) == F(1, 2)
    assert mo.parity_prob(17, F(0)) == 1
    assert mo.parity_prob(2, F(1, 4)) == F(5, 8)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("p", [F(1, 7), F(1, 3), F(1, 2)])
def test_parity_prob_matches_binomial_even_mass(n, p):
    pmf = binomial_pmf(n, p)
    assert mo.parity_prob(n, p) == sum(pmf[k] for k in range(0, n + 1, 2))


def test_psi_phi_dense_examples():
    psi, phi0 = mo.psi_phi_dense(4, F(1, 2), 0)
    assert psi == F(3, 4)
    assert mo.psi_phi_dense(4, F(1, 2), 1)[1] == F(1, 2)
    # full overlap collapses phi to psi
    assert mo.psi_phi_dense(4, F(1, 2), 2)[1] == psi
    assert mo.psi_phi_dense(10, F(1, 3), 5)[1] == mo.psi_phi_dense(10, F(1, 3), 5)[0]


def test_psi_phi_dense_overlap_symmetry():
    n, p = 12, F(1, 5)
    for r in range(n // 2 + 1):
        assert mo.psi_phi_dense(n, p, r)[1] == mo.psi_phi_dense(n, p, n // 2 - r)[1]


def test_fixed_weight_bernoulli_example():
    scen = mo.OverlapScenario("bernoulli_fixed_weight", 4, 2, F(1, 2))
    assert mo.psi_phi_fixed_weight(scen) == (F(2, 3), F(1, 3))


def test_fixed_weight_beta_one_collapse():
    scen = mo.OverlapScenario("bernoulli_fixed_weight", 8, 4, F(1))
    psi, phi = mo.psi_phi_fixed_weight(scen)
    assert phi == psi


def test_fixed_weight_poisson_example():
    for beta in (F(1, 2), F(1, 3), F(7, 9)):
        scen = mo.OverlapScenario(
            "poisson_fixed_weight", 4, 2, beta, mo.SymmetricBand(0, 0)
        )
        psi, phi = mo.psi_phi_fixed_weight(scen)
        assert psi == F(1, 2)
        assert phi == (beta**2 + (1 - beta) ** 2) / 2
    assert mo.psi_phi_fixed_weight(
        mo.OverlapScenario("poisson_fixed_weight", 4, 2, F(1, 2), mo.SymmetricBand(0, 0))
    )[1] == F(1, 4)


def test_fixed_weight_phi_agreement_symmetry():
    n, w = 12, 4
    for r in range(n // 2 + 1):
        b = F(2 * r, n)
        fb = mo.psi_phi_fixed_weight(mo.OverlapScenario("bernoulli_fixed_weight", n, w, b))[1]
        fb2 = mo.psi_phi_fixed_weight(
            mo.OverlapScenario("bernoulli_fixed_weight", n, w, 1 - b)
        )[1]
        assert fb == fb2
        band = mo.SymmetricBand(2, 0)
        fp = mo.psi_phi_fixed_weight(mo.OverlapScenario("poisson_fixed_weight", n, w, b, band))[1]
        fp2 = mo.psi_phi_fixed_weight(
            mo.OverlapScenario("poisson_fixed_weight", n, w, 1 - b, band)
        )[1]
        assert fp == fp2


def test_fixed_weight_phi_matches_direct_formula_oracle():
    # both cases, beta in {0, 1}, w = 0, every band radius up to w + 1 (odd w
    # with the zero band is an empty band, phi = 0)
    scenarios = []
    for w in range(0, 8):
        for radius in range(0, w + 2):
            band = mo.SymmetricBand(radius, w % 2)
            for i in range(13):
                scenarios.append(mo.OverlapScenario("poisson_fixed_weight", max(2 * w, 2), w, F(i, 12), band))
    for n in range(2, 17, 2):
        for w in range(0, n + 1, 2):
            for j in range(n // 2 + 1):
                scenarios.append(mo.OverlapScenario("bernoulli_fixed_weight", n, w, F(2 * j, n)))
    empty = 0
    for scen in scenarios:
        want = phi_fixed_weight_oracle(scen)
        assert mo.psi_phi_fixed_weight(scen)[1] == want, scen
        empty += not scen.band.members()
    assert empty and mo.psi_phi_fixed_weight(
        mo.OverlapScenario("poisson_fixed_weight", 6, 3, F(1, 3), mo.SymmetricBand(0, 1))
    ) == (0, 0)


def test_nonintegral_agreement_count_rejected():
    with pytest.raises(ParameterError):
        mo.OverlapScenario("bernoulli_fixed_weight", 4, 2, F(1, 3))


def test_expected_count_examples():
    poisson = mo.expected_solution_count("poisson_fixed_weight", n=4, m=1, w=2)
    assert poisson.value == 3
    dense = mo.expected_solution_count("bernoulli_parity_dense", n=4, m=1, p=F(1, 2))
    assert dense.value == F(9, 2)
    # psi = 1 rows leave the raw count of balanced vectors
    trivial = mo.expected_solution_count("poisson_fixed_weight", n=6, m=3, w=0)
    assert trivial.value == comb(6, 3)


def test_expected_count_log_branch():
    # expected_solution_count is always exact; log mode's lgamma form lives
    # in moment_report(exact=False)
    rep = mo.moment_report("bernoulli_parity_dense", n=128, m=2, p=F(1, 2), exact=False)
    got = rep.first_moment
    assert got.value is None
    psi = mo.psi_dense(128, F(1, 2))
    want = log(comb(128, 64)) + 2 * (log(psi.numerator) - log(psi.denominator))
    assert isclose(got.log_value, want, rel_tol=1e-12)


def test_ratio_worked_example():
    res = mo.second_moment_ratio("bernoulli_parity_dense", n=4, m=1, p=F(1, 2))
    assert res.ratio == F(28, 27)
    # E[Z^2|P] = ratio * E[Z|P]^2 = 21
    ez = mo.expected_solution_count("bernoulli_parity_dense", n=4, m=1, p=F(1, 2)).value
    assert res.ratio * ez**2 == 21
    assert [t.r for t in res.profile] == [0, 1, 2]


def test_ratio_vandermonde_trivial():
    # w = 0 rows have phi == psi^2 == 1, so the overlap sum telescopes to 1
    res = mo.second_moment_ratio("poisson_fixed_weight", n=10, m=3, w=0)
    assert res.ratio == 1


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("p", [F(1, 2), F(1, 3)])
def test_ratio_matches_brute_force_dense(n, p):
    want_ratio, want_ez = brute_ratio_dense(n, p)
    got = mo.second_moment_ratio("bernoulli_parity_dense", n=n, m=1, p=p)
    assert got.ratio == want_ratio
    ez = mo.expected_solution_count("bernoulli_parity_dense", n=n, m=1, p=p).value
    assert ez == want_ez


@pytest.mark.parametrize("n,w,radius", [(4, 2, 0), (4, 3, 1), (6, 2, 0), (4, 4, 2)])
def test_ratio_matches_brute_force_poisson_fixed(n, w, radius):
    # odd w needs an odd-parity band; the zero band is unreachable there
    want_ratio, want_ez = brute_ratio_poisson_fixed(n, w, radius)
    got = mo.second_moment_ratio("poisson_fixed_weight", n=n, m=1, w=w, band_radius=radius)
    assert got.ratio == want_ratio
    assert (
        mo.expected_solution_count(
            "poisson_fixed_weight", n=n, m=1, w=w, band_radius=radius
        ).value
        == want_ez
    )


@pytest.mark.parametrize("n,w", [(6, 2), (8, 4)])
def test_ratio_matches_brute_force_bernoulli_fixed(n, w):
    want_ratio, want_ez = brute_ratio_bernoulli_fixed(n, w)
    got = mo.second_moment_ratio("bernoulli_fixed_weight", n=n, m=1, w=w)
    assert got.ratio == want_ratio
    assert (
        mo.expected_solution_count("bernoulli_fixed_weight", n=n, m=1, w=w).value == want_ez
    )


def test_ratio_exact_cap():
    # (2048, 64) at p = 1/2 is estimated past EXACT_SECONDS ((1024, 64) took
    # 12 s); the refusal comes before any row is built
    with pytest.raises(CapacityError) as err:
        mo.second_moment_ratio("bernoulli_parity_dense", n=2048, m=64, p=F(1, 2))
    assert err.value.estimate.endswith(" s on a 2-core box")
    res = mo.second_moment_ratio("bernoulli_parity_dense", n=2048, m=64, p=F(1, 2), exact=False)
    assert isinstance(res.ratio, float) and res.ratio > 1


def test_dense_dichotomy_directions():
    dense = mo.second_moment_ratio("bernoulli_parity_dense", n=16, m=4, p=F(1, 2)).ratio
    sparse = mo.second_moment_ratio("bernoulli_parity_dense", n=16, m=4, p=F(1, 16)).ratio
    assert dense < sparse
    near = mo.second_moment_ratio("bernoulli_parity_dense", n=16, m=2, p=F(1, 2)).ratio
    far = mo.second_moment_ratio("bernoulli_parity_dense", n=16, m=8, p=F(1, 2)).ratio
    assert abs(near - 1) < abs(far - 1)
    assert near >= 1 and far >= 1


def test_dense_sparse_central_skew():
    # small p inflates the central pair probability: phi/psi^2 exceeds
    # 1 + 1/(4 n sigma^2) at central beta
    for n, p in ((32, F(1, 16)), (32, F(1, 8))):
        psi, phi = mo.psi_phi_dense(n, p, n // 4)
        assert phi / psi**2 > 1 + 1 / (4 * n * 2 * p * (1 - p))


def test_fixed_weight_central_ratio_one_sided():
    # sampling without replacement leaves phi(1/2) just *below* psi^2:
    # 1 - 1/n <= phi(1/2)/psi^2 < 1 (equality at w = 2)
    for n, w in ((16, 2), (32, 4), (64, 6)):
        psi, phi = mo.psi_phi_fixed_weight(
            mo.OverlapScenario("bernoulli_fixed_weight", n, w, F(1, 2))
        )
        ratio = phi / psi**2
        assert 1 - F(1, n) <= ratio < 1


def test_check_smm_flat_profile():
    psi = F(1, 3)
    grid = {F(2 * r, 32): psi**2 for r in range(17)}
    report = mo.MomentReport(
        "bernoulli_parity_dense",
        32,
        2,
        psi,
        grid,
        mo.ExpectedCount(F(100), log(100.0)),
        F(1),
    )
    flags = mo.check_smm_conditions(report, 2, F(1, 8), F(1, 4))
    assert flags.first_moment_holds and flags.weak_bound_holds and flags.strong_bound_holds
    assert flags.c_delta == 1
    assert flags.c_strong == 0
    assert flags.c_fit == 0.0
    assert flags.central_ratio == 1


def test_check_smm_real_reports():
    rep = mo.moment_report("bernoulli_fixed_weight", n=32, m=2, w=8)
    flags = mo.check_smm_conditions(rep, 2, F(1, 8), F(1, 4))
    assert flags.weak_bound_holds and flags.c_delta >= 1
    rep2 = mo.moment_report("bernoulli_parity_dense", n=32, m=2, p=F(1, 2))
    flags2 = mo.check_smm_conditions(rep2, 2, F(1, 8), F(1, 4))
    assert abs(flags2.central_ratio - 1) < F(1, 10 * 2)
    assert flags2.strong_bound_holds


def test_check_smm_coarse_grid_rejected():
    psi = F(1, 3)
    grid = {F(0): psi**2, F(1, 2): psi**2, F(1): psi**2}
    report = mo.MomentReport(
        "bernoulli_parity_dense", 4, 1, psi, grid, mo.ExpectedCount(F(2), log(2.0)), F(1)
    )
    with pytest.raises(ParameterError):
        mo.check_smm_conditions(report, 1, F(1, 8), F(1, 4))


def test_vandermonde_closure():
    for half in (2, 5, 16, 31):
        assert sum(comb(half, r) ** 2 for r in range(half + 1)) == comb(2 * half, half)


def test_psi_phi_dense_built_on_lazy_walk_law():
    # dual route: the dense psi/phi must equal lazy-walk masses at 0
    from randisc.locallimits import lazy_walk_pmf

    n, p = 12, F(1, 3)
    pp = mo.parity_prob(n, p)
    for r in range(n // 2 + 1):
        psi, phi = mo.psi_phi_dense(n, p, r)
        assert psi == lazy_walk_pmf(n // 2, p)[0] / pp
        assert phi == lazy_walk_pmf(r, p)[0] * lazy_walk_pmf(n // 2 - r, p)[0] / pp


def test_log_fallback_agrees_with_exact_ratio():
    exact = mo.second_moment_ratio("bernoulli_parity_dense", n=32, m=4, p=F(1, 2))
    approx = mo.second_moment_ratio(
        "bernoulli_parity_dense", n=32, m=4, p=F(1, 2), exact=False
    )
    assert isclose(approx.ratio, float(exact.ratio), rel_tol=1e-9)


def test_first_moment_tracks_annealed_entropy_heuristic():
    # log E[Z] = n log 2 - (m/2) log(n p) + (lower order); the gap is
    # O(m + log n) at p = 1/2
    for n, m in ((512, 2), (1024, 8)):
        got = mo.expected_solution_count(
            "bernoulli_parity_dense", n=n, m=m, p=F(1, 2)
        ).log_value
        heuristic = n * log(2) - m / 2 * log(n / 2)
        assert abs(got - heuristic) < 3 * (m + log(n))


def test_poisson_fixed_weight_first_moment_t_sum_form():
    # independent parametrisation: psi_i = sum_{|t| <= r/2} C(w, w/2 + t) 2^-w
    # (t ranges over half-integers when w is odd; only parity-valid bands
    # contribute), so E[Z] = C(n, n/2) * prod_i of that sum
    for n, ws, radius in ((8, [4, 6], 2), (12, [2, 8], 0), (10, [5, 7], 1)):
        want = F(comb(n, n // 2))
        for w in ws:
            acc = F(0)
            for two_t in range(-radius, radius + 1):
                # two_t = k is the row inner product; needs k = w (mod 2)
                if (w + two_t) % 2:
                    continue
                acc += F(comb(w, (w + two_t) // 2), 2**w)
            want *= acc
        got = mo.expected_solution_count(
            "poisson_fixed_weight", n=n, w=ws, band_radius=radius
        ).value
        assert got == want


@pytest.mark.parametrize("p", [F(0), F(1, 16), F(1, 3), F(1, 2)])
def test_walk_zero_probs_match_binomial_difference_oracle(p):
    zeros = mo._walk_zero_probs(40, p)
    assert len(zeros) == 41
    for j, z in enumerate(zeros):
        assert z == lazy_walk_oracle(j, p)[0], j


BAD_SPECS = {
    "psi_zero": ("poisson_fixed_weight", dict(n=4, m=1, w=3)),
    "psi_zero_log": ("poisson_fixed_weight", dict(n=128, m=1, w=3)),
    "dense_p_none": ("bernoulli_parity_dense", dict(n=8, m=2)),
    "m_zero": ("bernoulli_parity_dense", dict(n=8, m=0, p=F(1, 2))),
    "m_negative": ("poisson_fixed_weight", dict(n=8, m=-1, w=2)),
    "w_empty": ("bernoulli_fixed_weight", dict(n=8, w=[])),
    "dense_band": ("bernoulli_parity_dense", dict(n=8, m=2, p=F(1, 2), band_radius=2)),
    "bernoulli_band": ("bernoulli_fixed_weight", dict(n=8, m=2, w=2, band_radius=2)),
    "n_zero": ("bernoulli_parity_dense", dict(n=0, m=2, p=F(1, 2))),
}


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_moment_entry_points_share_refusals(name):
    case, kw = BAD_SPECS[name]
    exact = not name.endswith("_log")
    for fn, extra in (
        (mo.expected_solution_count, {}),
        (mo.second_moment_ratio, {"exact": exact}),
        (mo.moment_report, {"exact": exact}),
    ):
        with pytest.raises(ParameterError):
            fn(case, **kw, **extra)


@pytest.mark.parametrize(
    "case,kw",
    [
        ("bernoulli_parity_dense", dict(p=F(1, 3))),
        ("bernoulli_fixed_weight", dict(w=4)),
        ("poisson_fixed_weight", dict(w=4, band_radius=2)),
    ],
)
def test_moment_report_builds_each_row_once(case, kw, monkeypatch):
    calls = []
    source = mo._row_psi_phi_functions

    def counted(*args, **kwargs):
        calls.append(args)
        return source(*args, **kwargs)

    monkeypatch.setattr(mo, "_row_psi_phi_functions", counted)
    rep = mo.moment_report(case, n=16, m=3, **kw)
    assert len(calls) == 1
    assert rep.m == 3
