"""Numerical laboratory for limit behavior of reversible Markov chains.

Builds finite reversible chains, computes the spectral measure of an
observable and its asymptotic variance by independent routes, decomposes
partial sums into forward and reversed martingales along sampled paths,
and runs seeded statistical checks of the normal and Brownian limits.
"""
from .chain import (
    Observable,
    ReversibleChain,
    Trajectory,
    build_chain,
    build_metropolis,
    build_random_walk,
    derive_seed,
    project_mean_zero,
    sample_trajectory,
)
from .decomposition import (
    DecompositionTerms,
    boundary_l2_norm,
    boundary_term,
    decompose_trajectory,
    l2_convergence_table,
    limit_difference_second_moment,
    martingale_certificate,
)
from .errors import (
    ConfigError,
    DegenerateVariance,
    Disconnected,
    EigenFailure,
    ExhaustiveTooLarge,
    FiniteVarianceViolated,
    InvalidArgument,
    MalformedMatrix,
    NegativeWeight,
    NotIrreducible,
    NotReversible,
    NotStochastic,
    NumericalError,
    RcltError,
    SingularPoisson,
    StatisticalFailure,
    ZeroTargetMass,
)
from .limits import (
    LimitReport,
    clt_test,
    dkw_epsilon,
    fclt_profile,
    ks_distance_to_normal,
    maximal_inequality_check,
    uniform_integrability_diagnostic,
)
from .spectral import (
    SpectralMeasure,
    VarianceReport,
    asymptotic_variance_poisson,
    asymptotic_variance_series,
    asymptotic_variance_spectral,
    cauchy_quantity,
    extrapolate_series_limit,
    finiteness_integral,
    moment,
    poisson_solve,
    spectral_gap,
    spectral_measure,
    variance_report,
)

__version__ = "0.1.0"
