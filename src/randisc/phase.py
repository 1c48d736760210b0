"""Monte Carlo phase scan: how often a sampled matrix has balanced
discrepancy <= r, at each n of a grid, with 95% Wilson intervals.  Trial t
at grid point i samples from the seed derive_key(seed, i, t), whichever
thread runs it."""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from . import costs, ensembles, solver
from .errors import ParameterError
from .rng import derive_key

WILSON_Z = 1.959963984540054  # 95%


@dataclass
class PhaseScanConfig:
    kind: str
    m: int
    param: Fraction
    r: int
    n_values: tuple
    trials: int
    parity: str  # one of ensembles.PARITIES, checked by ensembles.prepare_sampling
    threads: int
    seed: int

    def __post_init__(self):
        if not self.n_values:
            raise ParameterError("the n grid is empty")
        if any(n % 2 for n in self.n_values):
            raise ParameterError("all n values must be even")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in 64 bits")


def wilson_interval(successes, trials, z=WILSON_Z):
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    centre = phat + z2 / (2 * trials)
    half = z * sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return (centre - half) / denom, (centre + half) / denom


def _phase_trial(cfg, point_idx, n, trial_idx):
    seed = derive_key(cfg.seed, point_idx, trial_idx)
    spec = ensembles.EnsembleSpec(cfg.kind, cfg.m, n, cfg.param, seed)
    A = ensembles.sample_at_parity(spec, cfg.parity)
    # looked up on the module at call time, so a wrapper patched onto it sees every trial
    found, _ = solver.disc_exists_mitm(A, cfg.r, balanced_only=True)
    return found


def run_phase_scan(cfg: PhaseScanConfig):
    """Monte Carlo feasibility frequencies over the n grid.

    Rows: (n, trials, successes, p_hat, wilson_lo, wilson_hi).  Results are
    reduced in grid order after all trials complete, so the output is
    byte-identical for any thread count.
    """
    # every refusal comes before the first trial: the MITM estimate at each
    # n, then each grid point's sampling tables, largest n first, since a
    # table grows with n and refusing one costs less than building one
    for n in cfg.n_values:
        costs.check_mitm(n, cfg.m)
    for n in sorted(cfg.n_values, reverse=True):
        spec = ensembles.EnsembleSpec(cfg.kind, cfg.m, n, cfg.param, cfg.seed)
        ensembles.prepare_sampling(spec, cfg.parity)
    jobs = [(pi, n, t) for pi, n in enumerate(cfg.n_values) for t in range(cfg.trials)]
    # the executor starts a thread for each job submitted while every worker
    # is busy, up to max_workers, so ask for no more than the jobs and cores
    workers = min(cfg.threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        outcomes = [_phase_trial(cfg, pi, n, t) for pi, n, t in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda job: _phase_trial(cfg, *job), jobs))
    rows = []
    for pi, n in enumerate(cfg.n_values):
        # jobs are in grid order, `trials` per point
        wins = sum(outcomes[pi * cfg.trials : (pi + 1) * cfg.trials])
        lo, hi = wilson_interval(wins, cfg.trials)
        rows.append((n, cfg.trials, wins, wins / cfg.trials, lo, hi))
    return rows
