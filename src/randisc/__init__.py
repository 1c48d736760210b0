"""Exact discrepancy and moment analysis for sparse random integer matrices.

Library layout:
  ensembles    Bernoulli/Poisson samplers, even-parity coupling, fixed-weight rows
  solver       exact discrepancy, solution counting, meet-in-the-middle feasibility
  moments      exact psi/phi overlap functions, first/second moments, smm checks
  locallimits  exact binomial/hypergeometric/lazy-walk pmfs and approximations
  stein        birth-death Stein operators, exchangeable pairs, identity checks
  phase        Monte Carlo phase scan over n with Wilson intervals
  costs        memory budget, size and time limits, fitted cost estimates
  cli          command-line front end (gen, disc, zcount, moments, ratio,
               stein, lclt, phase); parses and prints only
"""

from .ensembles import (
    CouplingTable,
    EnsembleSpec,
    IntMatrix,
    couple_even_parity,
    pinelis_joint,
    read_matrix,
    sample,
    sample_fixed_weight,
    write_matrix,
)
from .errors import (
    CapacityError,
    InvariantViolation,
    ParameterError,
    RandiscError,
    UnsupportedDistributionError,
)
from .locallimits import (
    LatticePoint,
    Pmf,
    approx_eval,
    binomial_pmf,
    error_scan,
    hypergeometric_pmf,
    lazy_walk_pmf,
    truncated_poisson_pmf,
)
from .moments import (
    MomentReport,
    OverlapScenario,
    SymmetricBand,
    check_smm_conditions,
    expected_solution_count,
    moment_report,
    parity_prob,
    psi_phi_dense,
    psi_phi_fixed_weight,
    second_moment_ratio,
)
from .solver import (
    SignVector,
    SolveResult,
    count_solutions,
    disc_exhaustive,
    disc_exists_mitm,
)
from .stein import (
    BirthDeathSpec,
    PairCounts,
    SteinSolution,
    binomial_pair_spec,
    conditioned_pair_stats,
    hypergeometric_pair_spec,
    identity_report,
    pair_chain_step,
    pair_density,
    stationary_pmf,
    stein_apply,
    stein_invert,
    verify_identity,
)

__version__ = "0.1.0"
