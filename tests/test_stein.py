import random
import sys
import threading
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bernoulli_ball_chain,
    check_inverse_guarantees,
    chi_square_pvalue,
    forward_band_inverse,
    pair_stats_oracle,
    random_birth_death,
)
from randisc import moments as mo
from randisc import stein
from randisc.errors import ParameterError
from randisc.locallimits import LatticePoint, hypergeometric_pmf
from randisc.rng import Stream


def scenario_poisson(w, beta, radius=0, n=None):
    band = mo.SymmetricBand(radius, w % 2)
    return mo.OverlapScenario("poisson_fixed_weight", n or 2 * w, w, beta, band)


def scenario_bernoulli(n, w, beta):
    return mo.OverlapScenario("bernoulli_fixed_weight", n, w, beta)


# ---------------------------------------------------------------------------
# Operator, stationary law, inverse


def test_binomial_spec_stationary():
    pmf = stein.stationary_pmf(stein.binomial_pair_spec(2))
    assert pmf.weights == (F(1, 4), F(1, 2), F(1, 4))


def test_hypergeometric_spec_stationary_matches_closed_form():
    bd = stein.hypergeometric_pair_spec(8, 4)
    pmf = stein.stationary_pmf(bd)
    want = hypergeometric_pmf(4, 4, 8)
    assert tuple(pmf[s] for s in range(5)) == tuple(want[s] for s in range(5))


def test_two_state_stationary():
    bd = stein.BirthDeathSpec(1, (F(3, 7), F(0)), (F(0), F(2, 5)))
    pmf = stein.stationary_pmf(bd)
    total = F(3, 7) + F(2, 5)
    assert pmf[0] == F(2, 5) / total and pmf[1] == F(3, 7) / total


def test_detailed_balance():
    rng = random.Random(1)
    for _ in range(10):
        bd = random_birth_death(rng, rng.randint(2, 12))
        mu = stein.stationary_pmf(bd)
        for s in range(bd.w):
            assert mu[s] * bd.a[s] == mu[s + 1] * bd.b[s + 1]


def test_stein_apply_zero():
    bd = stein.binomial_pair_spec(4)
    assert stein.stein_apply(bd, [F(0)] * 6) == [F(0)] * 5


def test_stein_apply_mean_zero():
    rng = random.Random(7)
    for _ in range(10):
        bd = random_birth_death(rng, rng.randint(2, 10))
        mu = stein.stationary_pmf(bd)
        f = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(bd.w + 2)]
        image = stein.stein_apply(bd, f)
        assert sum(mu[s] * image[s] for s in range(bd.w + 1)) == 0


def test_stein_apply_hand_example():
    bd = stein.binomial_pair_spec(2)
    f = [F(0), F(-1, 2), F(1, 2), F(0)]
    image = stein.stein_apply(bd, f)
    assert image[1] == F(1, 2)


def test_invert_binomial_w2():
    bd = stein.binomial_pair_spec(2)
    sol = stein.stein_invert(bd, 1)
    assert sol.f[:3] == (F(0), F(-1, 2), F(1, 2))
    assert sol.delta_f[1] == 1
    assert sol.delta_f[1] <= min(1 / bd.a[1], 1 / bd.b[1]) == 2


def test_invert_rejects_boundary_targets():
    bd = stein.binomial_pair_spec(4)
    for t in (0, 4):
        with pytest.raises(ParameterError):
            stein.stein_invert(bd, t)


def test_inverse_guarantees_randomized():
    rng = random.Random(42)
    for _ in range(25):
        w = rng.randint(2, 24)
        bd = random_birth_death(rng, w)
        for t in range(1, w):
            check_inverse_guarantees(bd, t)


def test_inverse_table_cache_hits_and_misses():
    # targets interleaved across 30 specs: the first call on each spec
    # builds its table, every later one reuses it, and every other call
    # passes an equal copy of the spec rather than the cached object
    rng = random.Random(11)
    specs = [random_birth_death(rng, 2 + i % 15) for i in range(30)]
    stein._inverse_table.cache_clear()
    calls = 0
    for t in range(1, max(bd.w for bd in specs)):
        for i, bd in enumerate(specs):
            if t < bd.w:
                spec = bd if (t + i) % 2 else stein.BirthDeathSpec(bd.w, bd.a, bd.b)
                check_inverse_guarantees(spec, t, with_oracle=True)
                calls += 1
    info = stein._inverse_table.cache_info()
    assert (info.misses, info.hits) == (30, calls - 30)


@pytest.mark.parametrize("t", [2.0, F(2), "2", None])
def test_non_integer_target_is_a_parameter_error(t):
    # stein_invert refuses it before the spec's table, and so its stored
    # row, is looked up
    bd = stein.binomial_pair_spec(6)
    before = stein._inverse_table.cache_info()
    with pytest.raises(ParameterError, match="not an integer"):
        stein.stein_invert(bd, t)
    assert stein._inverse_table.cache_info() == before
    with pytest.raises(ParameterError, match="not an integer"):
        stein.band_inverse(bd, [3, t])


def _target_order(order, w, rng):
    ts = list(range(1, w))
    if order == "descending":
        ts.reverse()
    elif order == "shuffled":
        rng.shuffle(ts)
    elif order == "repeats":
        ts = [rng.randint(1, w - 1) for _ in range(2 * w)]
    return ts


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32),
    st.integers(2, 24),
    st.integers(2, 24),
    st.sampled_from(["ascending", "descending", "shuffled", "repeats", "interleaved"]),
)
def test_inverse_equals_oracle_in_any_target_order(seed, w1, w2, order):
    # each solution rescales the spec's last one, so the order of targets
    # (and, interleaved, of specs) decides every anchor; none may matter
    rng = random.Random(seed)
    bd1, bd2 = random_birth_death(rng, w1), random_birth_death(rng, w2)
    if order == "interleaved":
        a = [(bd1, t) for t in _target_order("shuffled", w1, rng)]
        b = [(bd2, t) for t in _target_order("repeats", w2, rng)]
        calls = [c for pair in zip(a, b) for c in pair] + a[len(b) :] + b[len(a) :]
    else:
        calls = [(bd1, t) for t in _target_order(order, w1, rng)]
    for bd, t in calls:
        check_inverse_guarantees(bd, t, with_oracle=True)


def test_threads_sweeping_one_spec_match_a_serial_sweep():
    # four threads (more than a 2-core box has cores) read and replace one
    # stored row while sweeping in opposite orders; a row stored by another
    # thread is still a valid anchor
    bd = random_birth_death(random.Random(23), 24)
    up, down = range(1, bd.w), range(bd.w - 1, 0, -1)
    serial = {t: stein.stein_invert(bd, t) for t in up}
    start = threading.Barrier(4)

    def sweep(targets, out):
        start.wait(timeout=60)
        out.extend(stein.stein_invert(bd, t) for t in targets)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            jobs = [(targets, []) for targets in (up, down, up, down)]
            threads = [threading.Thread(target=sweep, args=job) for job in jobs]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            for targets, out in jobs:
                assert out == [serial[t] for t in targets]
    finally:
        sys.setswitchinterval(interval)


def test_band_inverse_superposition():
    bd = stein.binomial_pair_spec(8)
    mu = stein.stationary_pmf(bd)
    targets = (3, 4, 5)
    f = stein.band_inverse(bd, targets)
    image = stein.stein_apply(bd, f)
    mass = sum(mu[t] for t in targets)
    for s in range(9):
        assert image[s] == (1 if s in targets else 0) - mass


# ---------------------------------------------------------------------------
# Pair densities


def test_pair_density_poisson_w2():
    for beta in (F(1, 3), F(2, 3), F(1, 2)):
        scen = scenario_poisson(2, beta)
        gamma = 1 - beta
        assert stein.pair_density("poisson", scen, LatticePoint(2, 1, 0)) == gamma**2
        assert stein.pair_density("poisson", scen, LatticePoint(2, 1, 1)) == beta**2


def test_pair_density_symmetry_at_half():
    scen = scenario_poisson(6, F(1, 2))
    for s in range(7):
        for c in range(s + 1):
            assert stein.pair_density("poisson", scen, LatticePoint(6, s, c)) == stein.pair_density(
                "poisson", scen, LatticePoint(6, s, s - c)
            )


def test_pair_density_slices_sum_to_one():
    for k in (0, 2, -2):
        scen = scenario_poisson(6, F(5, 12), radius=2)
        total = sum(
            stein.pair_density("poisson", scen, LatticePoint(6, s, c, k))
            for s in range(7)
            for c in range(s + 1)
        )
        assert total == 1
    scen = scenario_bernoulli(12, 6, F(2, 3))
    total = sum(
        stein.pair_density("bernoulli", scen, LatticePoint(6, s, c))
        for s in range(7)
        for c in range(s + 1)
    )
    assert total == 1


def test_pair_density_bernoulli_enumeration_oracle():
    # u = ++++----, v = ++----++ agree on beta*n = 4 coordinates
    n, w, beta = 8, 4, F(1, 2)
    u = (1, 1, 1, 1, -1, -1, -1, -1)
    v = (1, 1, -1, -1, -1, -1, 1, 1)
    assert sum(u) == sum(v) == 0
    assert sum(1 for a, b in zip(u, v) if a == b) == beta * n
    type1 = [j for j in range(n) if v[j] == 1]
    counts = {}
    total = 0
    for pos in combinations(range(n), w):
        if sum(1 for j in pos if j in type1) != w // 2:
            continue  # conditioned on w/2 draws per type
        total += 1
        sb = sum(1 for j in pos if v[j] == 1 and u[j] == -1)
        sc = sum(1 for j in pos if v[j] == -1 and u[j] == -1)
        counts[(sb + sc, sc)] = counts.get((sb + sc, sc), 0) + 1
    scen = scenario_bernoulli(n, w, beta)
    for s in range(w + 1):
        for c in range(s + 1):
            want = F(counts.get((s, c), 0), total)
            assert stein.pair_density("bernoulli", scen, LatticePoint(w, s, c)) == want


def r_factor(beta, n, w, c):
    """Hypergeometric-vs-binomial correction product."""
    num = F(1)
    for t in range(1, c):
        num *= 1 - F(t) / (beta * n / 2)
    for t in range(1, w // 2 - c):
        num *= 1 - F(t) / ((1 - beta) * n / 2)
    den = F(1)
    for t in range(1, w // 2):
        den *= 1 - F(2 * t, n)
    return num / den


@pytest.mark.parametrize("n,w,beta", [(8, 4, F(1, 2)), (16, 6, F(3, 4)), (24, 8, F(2, 3)), (24, 12, F(7, 12))])
def test_factorization_hypergeometric_equals_binomial_times_corrections(n, w, beta):
    scen_b = scenario_bernoulli(n, w, beta)
    scen_p = scenario_poisson(w, beta, n=n)
    gamma = 1 - beta
    for s in range(w + 1):
        for c in range(s + 1):
            fval = stein.pair_density("bernoulli", scen_b, LatticePoint(w, s, c))
            gval = stein.pair_density("poisson", scen_p, LatticePoint(w, s, c))
            if s - c > w // 2 or c > w // 2:
                assert fval == 0
                continue
            want = gval * r_factor(beta, n, w, c) * r_factor(gamma, n, w, s - c)
            assert fval == want


# ---------------------------------------------------------------------------
# Conditioned statistics


def test_conditioned_stats_poisson_w2():
    beta = F(2, 3)
    scen = scenario_poisson(2, beta)
    st = stein.conditioned_pair_stats("poisson", scen)
    gamma = 1 - beta
    assert tuple(st.muc[s] for s in range(3)) == (beta * gamma, beta**2 + gamma**2, beta * gamma)
    assert st.g1[1] == 2 * scen.x
    assert st.mu0[1] == F(1, 2)


def test_conditioned_stats_symmetric_beta_kills_g1():
    for case, scen in (
        ("poisson", scenario_poisson(8, F(1, 2), radius=2)),
        ("bernoulli", scenario_bernoulli(16, 6, F(1, 2))),
    ):
        st = stein.conditioned_pair_stats(case, scen)
        assert all(v == 0 for v in st.g1)


@pytest.mark.parametrize(
    "case,scen",
    [
        ("poisson", scenario_poisson(6, F(5, 12), radius=0)),
        ("poisson", scenario_poisson(8, F(2, 3), radius=2)),
        ("bernoulli", scenario_bernoulli(16, 8, F(5, 8))),
    ],
)
def test_conditioned_stats_identities_against_moments(case, scen):
    st = stein.conditioned_pair_stats(case, scen)
    targets = scen.band.targets(scen.w)
    psi, phi = mo.psi_phi_fixed_weight(scen)
    assert st.mu0.mass(targets) == psi
    assert st.muc.mass(targets) * psi == phi
    assert sum(st.muc.weights) == 1


def test_conditioned_stats_monte_carlo_oracle():
    # urn draws rejected on the type counts reproduce mu_c, g1 and g2
    n, w, beta = 8, 4, F(3, 4)
    scen = scenario_bernoulli(n, w, beta)
    st = stein.conditioned_pair_stats("bernoulli", scen)
    type_of = [0] * 6 + [1] * 2  # beta*n/2 = 3 of (+,+); gamma*n/2 = 1 of (+,-) per half
    # classes: indices 0..2 (v+,u+), 3..5 (v-,u-), 6 (v+,u-), 7 (v-,u+)
    u_neg = {3, 4, 5, 6}
    v_pos = {0, 1, 2, 6}
    trials = 0
    want = 400000
    hist = {}
    g1_hat = [0.0] * (w + 1)
    g2_hat = [0.0] * (w + 1)
    stream = Stream(20240817)
    while trials < want:
        arr = list(range(n))
        for i in range(w):
            j = i + stream.below(n - i)
            arr[i], arr[j] = arr[j], arr[i]
        pos = arr[:w]
        if sum(1 for j in pos if j in v_pos) != w // 2:
            continue
        trials += 1
        sb = sum(1 for j in pos if j in v_pos and j in u_neg)
        sc = sum(1 for j in pos if j not in v_pos and j in u_neg)
        s = sb + sc
        hist[s] = hist.get(s, 0) + 1
        g1_hat[s] += sc - sb
        g2_hat[s] += (sc - sb) ** 2
    probs = [st.muc[s] for s in range(w + 1)]
    assert chi_square_pvalue([hist.get(s, 0) for s in range(w + 1)], probs, trials) > 0.001
    for s in range(w + 1):
        if st.muc[s] == 0:
            continue
        assert abs(g1_hat[s] / trials - float(st.g1[s])) < 0.01
        assert abs(g2_hat[s] / trials - float(st.g2[s])) < 0.02


def _criterion_2_grid():
    """The Poisson and Bernoulli scenarios of acceptance criterion 2."""
    for w in range(2, 21, 2):
        for i in range(1, 12):
            for radius in (0, 1, 2):
                band = mo.SymmetricBand(radius, w % 2)
                if all(1 <= t <= w - 1 for t in band.targets(w)):
                    yield "poisson", scenario_poisson(w, F(i, 12), radius)
    for n in range(4, 25, 2):
        for w in range(2, min(12, n // 2) + 1, 2):
            for j in range(n // 2 + 1):
                yield "bernoulli", scenario_bernoulli(n, w, F(2 * j, n))


def test_pair_sums_match_double_loop_oracle():
    # the pair sums against the Fraction double loop, f against forward
    # substitution, and every side of the identity rebuilt from both
    checked = 0
    for case, scen in _criterion_2_grid():
        w, n = scen.w, scen.n
        st = stein.conditioned_pair_stats(case, scen)
        if case == "poisson":
            bd = stein.binomial_pair_spec(w)
            targets = scen.band.targets(w)
            mu0 = [F(comb(w, t), 2**w) for t in range(w + 1)]
        else:
            bd = stein.hypergeometric_pair_spec(n, w)
            targets = (w // 2,)
            mu0 = [F(comb(n // 2, t) * comb(n // 2, w - t), comb(n, w)) for t in range(w + 1)]
        f = forward_band_inverse(bd, targets)
        assert list(stein.band_inverse(bd, targets)) == f, (case, scen)
        g0, g1, g2, band = pair_stats_oracle(case, scen, f)
        assert list(st.muc.weights) == g0, (case, scen)
        assert list(st.g1) == g1, (case, scen)
        assert list(st.g2) == g2, (case, scen)
        df = [y - x for x, y in zip(f, f[1:])]
        lhs = sum(mu0[t] - g0[t] for t in targets)
        if case == "poisson":
            half = (scen.gamma - scen.beta) / 2
            rhs = half * sum(v * d for v, d in zip(g1, df))
            band_term = half * band
        else:
            rhs = sum((v2 - n * scen.x * v1) * d for v1, v2, d in zip(g1, g2, df))
            band_term = 0
        rep = stein.identity_report(case, scen)
        assert (rep.lhs, rep.rhs, rep.band_term) == (lhs, rhs, band_term), (case, scen)
        checked += 1
    assert checked == 662


# ---------------------------------------------------------------------------
# The comparison identity


def test_identity_poisson_zero_band():
    for w in (2, 4, 10):
        for beta in (F(1, 12), F(5, 12), F(2, 3)):
            assert stein.verify_identity("poisson", scenario_poisson(w, beta)) == 0


def test_identity_trivial_at_half():
    rep = stein.identity_report("poisson", scenario_poisson(6, F(1, 2), radius=2))
    assert rep.lhs == 0 and rep.rhs == 0 and rep.residual == 0


def test_identity_bernoulli():
    assert stein.verify_identity("bernoulli", scenario_bernoulli(12, 6, F(2, 3))) == 0
    for n, w, beta in ((8, 4, F(3, 4)), (16, 8, F(5, 8)), (24, 12, F(1, 12))):
        assert stein.verify_identity("bernoulli", scenario_bernoulli(n, w, beta)) == 0


def test_identity_wide_band_correction_closes():
    # with a non-degenerate band the band-free form misses exactly the
    # within-band term; the full identity, which verify_identity checks,
    # closes to zero.  (5, 1) is an odd-w band {-1, +1}.
    cases = ((4, F(2, 3), 2), (6, F(5, 12), 2), (8, F(7, 12), 2), (5, F(1, 3), 1))
    for w, beta, radius in cases:
        scen = scenario_poisson(w, beta, radius=radius)
        rep = stein.identity_report("poisson", scen)
        assert rep.corrected_residual == 0
        assert rep.residual == rep.band_term
        assert rep.residual != 0  # the band term is genuinely nonzero here
        assert stein.verify_identity("poisson", scen) == 0


def test_identity_band_targets_must_be_interior():
    with pytest.raises(ParameterError):
        stein.identity_report("poisson", scenario_poisson(2, F(1, 3), radius=2))


# ---------------------------------------------------------------------------
# Chains


def test_chain_step_moves_s_by_at_most_one():
    scen = scenario_poisson(6, F(2, 3), radius=2)
    sigma = stein.PairCounts(2, 1, 2, 1)
    for conditioned in (False, True):
        cur = sigma
        for seed in range(200):
            nxt = stein.pair_chain_step("poisson", scen, cur, conditioned, seed)
            assert abs(nxt.s - cur.s) <= 1
            assert nxt.w == cur.w
            cur = nxt
    scenb = scenario_bernoulli(16, 6, F(3, 4))
    cur = stein.PairCounts(2, 1, 2, 1)
    for seed in range(200):
        nxt = stein.pair_chain_step("bernoulli", scenb, cur, True, seed)
        assert abs(nxt.s - cur.s) <= 1
        assert nxt.sa + nxt.sb == 3
        cur = nxt


def test_chain_step_rejects_inconsistent_sigma():
    scen = scenario_bernoulli(16, 6, F(3, 4))
    with pytest.raises(ParameterError):
        stein.pair_chain_step("bernoulli", scen, stein.PairCounts(4, 0, 1, 1), True, 0)


@pytest.mark.parametrize("conditioned", [False, True])
def test_bernoulli_kernel_and_states_match_ball_chain(conditioned):
    checked = 0
    for n in (2, 4, 6, 8):
        for w in range(2, n, 2):
            for agree in range(n // 2 + 1):
                scen = scenario_bernoulli(n, w, F(2 * agree, n))
                mass, kernel = bernoulli_ball_chain(n, w, agree, conditioned)
                states, got = stein.exact_transition_matrix("bernoulli", scen, conditioned)
                assert stein.enumerate_sigmas("bernoulli", scen, conditioned) == states
                keys = [sig.as_tuple() for sig, _ in states]
                assert {keys[i]: m for i, (_, m) in enumerate(states)} == mass
                assert {(keys[i], keys[j]): p for (i, j), p in got.items()} == kernel
                checked += 1
    assert checked == 26


@pytest.mark.parametrize("n", [4, 8])
def test_bernoulli_chain_without_unselected_balls_is_refused(n):
    # w = n selects every ball, so no swap exists
    scen = scenario_bernoulli(n, n, F(1, 2))
    sigma = stein.PairCounts(n // 4, n // 4, n // 4, n // 4)
    for conditioned in (False, True):
        assert stein.enumerate_sigmas("bernoulli", scen, conditioned) == [(sigma, 1)]
        with pytest.raises(ParameterError, match="no move"):
            stein.exact_transition_matrix("bernoulli", scen, conditioned)
        with pytest.raises(ParameterError, match="no move"):
            stein.pair_chain_step("bernoulli", scen, sigma, conditioned, 0)


# Forty chained steps from (2, 1, 2, 1), step i seeded 1000 * conditioned + i;
# recorded from the stepper before it shared its moves with the exact kernel.
_CHAIN_TRACES = {
    ("poisson", False): (
        "2211 2112 2112 2121 2121 2022 2022 2022 2121 2121 2121 2121 1221 1221 1131 1131 "
        "0141 0132 1032 1131 1131 1131 1140 0141 0150 0060 0150 0240 0240 0240 1230 2130 "
        "2130 2121 2031 2121 2031 2022 2031 2130"
    ),
    ("poisson", True): (
        "1221 1212 1212 1212 1212 2112 3012 3012 2112 2112 2112 2112 1212 1212 1212 2112 "
        "2121 2130 2130 2130 2121 2121 2121 2121 2121 2112 2112 2112 2112 1212 1203 0303 "
        "1203 1203 1203 1203 1203 0303 0312 0312"
    ),
    ("bernoulli", False): (
        "2112 2112 2112 2121 3021 2031 2031 2031 3021 3021 3030 3030 2130 3030 2040 2040 "
        "1140 1140 1140 2130 2040 2130 2130 1131 1230 1230 2220 1230 1230 1230 2220 2220 "
        "2130 2130 2031 3021 2031 2031 2022 3021"
    ),
    ("bernoulli", True): (
        "1221 1212 1221 2121 2112 2112 3012 3012 3012 3021 3012 3012 2112 2112 2112 2112 "
        "2121 2130 2130 2130 2130 2130 2121 3021 3021 3012 3012 3021 3012 2112 2112 2112 "
        "3012 2112 2121 1221 1230 1230 1230 1230"
    ),
}


@pytest.mark.parametrize("case,conditioned", sorted(_CHAIN_TRACES))
def test_chain_step_seeded_traces_are_pinned(case, conditioned):
    if case == "poisson":
        scen = scenario_poisson(6, F(5, 12), radius=2)
    else:
        scen = scenario_bernoulli(16, 6, F(3, 4))
    cur = stein.PairCounts(2, 1, 2, 1)
    trace = []
    for seed in range(40):
        cur = stein.pair_chain_step(case, scen, cur, conditioned, 1000 * conditioned + seed)
        trace.append("".join(map(str, cur.as_tuple())))
    assert " ".join(trace) == _CHAIN_TRACES[case, conditioned]


def stationarity_check(case, scen, conditioned):
    states, kernel = stein.exact_transition_matrix(case, scen, conditioned)
    mass = {i: m for i, (_, m) in enumerate(states)}
    out = {}
    for (i, j), pr in kernel.items():
        out[j] = out.get(j, F(0)) + mass[i] * pr
    for i in mass:
        assert out.get(i, F(0)) == mass[i]
    # rows sum to one
    rowsum = {}
    for (i, j), pr in kernel.items():
        rowsum[i] = rowsum.get(i, F(0)) + pr
    assert all(v == 1 for v in rowsum.values())


def exchangeability_check(case, scen, conditioned):
    states, kernel = stein.exact_transition_matrix(case, scen, conditioned)
    mass = {i: m for i, (_, m) in enumerate(states)}
    svals = {i: sig.s for i, (sig, _) in enumerate(states)}
    joint = {}
    for (i, j), pr in kernel.items():
        key = (svals[i], svals[j])
        joint[key] = joint.get(key, F(0)) + mass[i] * pr
    for (s, s2), pr in joint.items():
        assert joint.get((s2, s), F(0)) == pr


@pytest.mark.parametrize("conditioned", [False, True])
@pytest.mark.parametrize("case,scen", [
    ("poisson", scenario_poisson(4, F(2, 3), radius=2)),
    ("poisson", scenario_poisson(6, F(5, 12), radius=0)),
    ("bernoulli", scenario_bernoulli(16, 6, F(3, 4))),
    ("bernoulli", scenario_bernoulli(12, 4, F(1, 2))),
])
def test_chain_stationarity_and_exchangeability(case, scen, conditioned):
    stationarity_check(case, scen, conditioned)
    exchangeability_check(case, scen, conditioned)


def test_poisson_unconditioned_transition_probabilities():
    # P(S' > S | S = s) = (w - s)/(2w) and P(S' < S | S = s) = s/(2w)
    scen = scenario_poisson(5, F(1, 3), radius=1)
    states, kernel = stein.exact_transition_matrix("poisson", scen, False)
    w = 5
    mass = {i: m for i, (_, m) in enumerate(states)}
    svals = {i: sig.s for i, (sig, _) in enumerate(states)}
    up = {}
    down = {}
    tot = {}
    for (i, j), pr in kernel.items():
        s = svals[i]
        tot[s] = tot.get(s, F(0)) + mass[i] * pr
        if svals[j] == s + 1:
            up[s] = up.get(s, F(0)) + mass[i] * pr
        elif svals[j] == s - 1:
            down[s] = down.get(s, F(0)) + mass[i] * pr
    for s in range(w + 1):
        if tot.get(s, 0) == 0:
            continue
        assert up.get(s, F(0)) / tot[s] == F(w - s, 2 * w)
        assert down.get(s, F(0)) / tot[s] == F(s, 2 * w)


# ---------------------------------------------------------------------------
# Bound scans


def test_g1_bound_fit_stable_across_w():
    fits = [
        stein.fit_g1_bound("poisson", scenario_poisson(w, F(5, 8), radius=0))
        for w in (16, 32, 64)
    ]
    consts = [f.constant for f in fits]
    assert all(c > 0 for c in consts)
    assert max(consts) / min(consts) < 2.5
    assert all(f.decay > 0 for f in fits)


def test_g1_bound_fit_stable_bernoulli():
    fits = [
        stein.fit_g1_bound("bernoulli", scenario_bernoulli(4 * w, w, F(5, 8)))
        for w in (16, 32, 64)
    ]
    consts = [f.constant for f in fits]
    assert max(consts) / min(consts) < 2.5


def test_g2_bound_fit_stable_across_w():
    c1s = []
    for w in (16, 32, 64):
        fit, c2 = stein.fit_g2_bound("bernoulli", scenario_bernoulli(4 * w, w, F(5, 8)))
        assert c2 > 0
        c1s.append(max(fit.constant, 1e-6))
    assert max(c1s) / max(min(c1s), 1e-6) < 10


def test_chain_step_empirical_frequencies_match_kernel():
    # one-step frequencies from a fixed state reproduce the exact kernel row
    scen = scenario_poisson(4, F(1, 3), radius=0)
    sigma = stein.PairCounts(1, 1, 1, 1)
    states, kernel = stein.exact_transition_matrix("poisson", scen, False)
    idx = {sig.as_tuple(): i for i, (sig, _) in enumerate(states)}
    i0 = idx[sigma.as_tuple()]
    row = {j: pr for (i, j), pr in kernel.items() if i == i0}
    trials = 30000
    counts = {}
    for seed in range(trials):
        nxt = stein.pair_chain_step("poisson", scen, sigma, False, seed)
        counts[idx[nxt.as_tuple()]] = counts.get(idx[nxt.as_tuple()], 0) + 1
    cells = sorted(row)
    assert chi_square_pvalue(
        [counts.get(j, 0) for j in cells], [row[j] for j in cells], trials
    ) > 0.001


def test_chain_up_down_rates_recover_half_binomial_drift():
    # aggregate up/down frequencies from stationary starts match
    # (w-s)/(2w) and s/(2w)
    w = 4
    scen = scenario_poisson(w, F(2, 3), radius=0)
    states, _ = stein.exact_transition_matrix("poisson", scen, False)
    ups = {}
    downs = {}
    visits = {}
    trials_per_state = 4000
    for sig, _mass in states:
        for seed in range(trials_per_state):
            nxt = stein.pair_chain_step("poisson", scen, sig, False, seed * 97 + 13)
            s = sig.s
            visits[s] = visits.get(s, 0) + 1
            if nxt.s == s + 1:
                ups[s] = ups.get(s, 0) + 1
            elif nxt.s == s - 1:
                downs[s] = downs.get(s, 0) + 1
    # aggregated over sigma with equal per-state weight the conditional
    # up/down rates still collapse to functions of s alone
    for s in range(w + 1):
        if visits.get(s, 0) < 2000:
            continue
        up_rate = ups.get(s, 0) / visits[s]
        down_rate = downs.get(s, 0) / visits[s]
        want_up = (w - s) / (2 * w)
        want_down = s / (2 * w)
        sigma_up = (want_up * (1 - want_up) / visits[s]) ** 0.5
        sigma_dn = max((want_down * (1 - want_down) / visits[s]) ** 0.5, 1e-9)
        assert abs(up_rate - want_up) < 5 * sigma_up + 1e-9
        assert abs(down_rate - want_down) < 5 * sigma_dn


def test_pair_density_gaussian_tail_envelope():
    # G(k, c) <= (C/w) exp(-c [(s - w/2)^2 + (c - beta*s)^2] / w) with a
    # fitted envelope whose covering constant stays bounded in w
    from math import exp, log

    def fit(w, beta, k):
        scen = scenario_poisson(w, beta, radius=abs(k))
        pts = []
        for s in range(w + 1):
            for c in range(s + 1):
                g = stein.pair_density("poisson", scen, LatticePoint(w, s, c, k))
                if g > 0:
                    d2 = ((s - w / 2) ** 2 + (c - float(beta) * s) ** 2) / w
                    pts.append((d2, float(g)))
        # mass-weighted decay, then cover at half decay (cf. fit_g1_bound)
        wsum = sum(m for _, m in pts)
        xbar = sum(x * m for x, m in pts) / wsum
        ybar = sum(log(m) * m for _, m in pts) / wsum
        sxx = sum(m * (x - xbar) ** 2 for x, m in pts)
        sxy = sum(m * (x - xbar) * (log(m) - ybar) for x, m in pts)
        decay = max(-sxy / sxx, 1e-9)
        cover = max(m * w / exp(-decay / 2 * x) for x, m in pts)
        return cover, decay

    covers = []
    for w in (8, 16, 32, 64):
        cover, decay = fit(w, F(5, 8), 0)
        assert decay > 0
        covers.append(cover)
    assert max(covers) / min(covers) < 3


def test_pair_density_local_expansion_error_shrinks():
    # near-central beta (x <= w^-1/2), in the bulk the pair density is
    # Gaussian: G(k, c) = (1 + err) / (pi beta gamma w) *
    # exp(-(l^2/2 + 2 j^2)/(beta gamma w)) with err -> 0 like w^(-1/2).
    # The product of the two binomial local limits gives exponent
    # [(gamma l - j)^2 + (beta l + j)^2]/(beta gamma w), whose l^2
    # coefficient is (beta^2 + gamma^2) ~ 1/2 -- i.e. l^2/2, not l^2.
    from math import exp, pi, sqrt

    worst = {}
    worst_displayed = {}
    for w in (16, 64, 256):
        beta = F(1, 2) + F(1, 4 * int(sqrt(w)))  # x = 1/(4 sqrt(w))
        bg = float(beta * (1 - beta))
        scen = scenario_poisson(w, beta, radius=0)
        errs = []
        errs_displayed = []
        for s in range(w + 1):
            l = s - w / 2
            if l * l > w / 4:
                continue
            for c in range(s + 1):
                j = c - float(beta) * s
                if j * j > w / 8:
                    continue
                g = float(stein.pair_density("poisson", scen, LatticePoint(w, s, c)))
                lead = exp(-(l * l / 2 + 2 * j * j) / (bg * w)) / (pi * bg * w)
                errs.append(abs(g / lead - 1))
                doubled = exp(-(l * l + 2 * j * j) / (bg * w)) / (pi * bg * w)
                errs_displayed.append(abs(g / doubled - 1))
        worst[w] = max(errs)
        worst_displayed[w] = max(errs_displayed)
    assert worst[64] < worst[16]
    assert worst[256] < worst[64]
    assert worst[256] < 2.5 / sqrt(256)
    # the doubled-l^2 variant is off by e^(l^2/(2 beta gamma w)) = Theta(1)
    # at the bulk edge and does not converge
    assert worst_displayed[256] > 0.3
