"""Monte Carlo laboratory for colliding CIR particle systems.

Simulates the ordered system of nonnegative coordinates with CIR-type noise
and Coulomb-like repulsion (the eigenvalue dynamics of Wishart-type matrix
processes), classifies the parameter phase diagram, detects collision and
zero-hit events, and verifies everything against exact scalar CIR oracles
and the closed-form stationary law.
"""

from .cirprocess import (
    CirParams,
    LaplaceQuery,
    exact_step,
    exact_step_decomposed,
    integrated_laplace,
    integrated_sum_paths,
    sum_process,
)
from .errors import (
    BadK,
    CoincidentCoordinates,
    ConfigError,
    DomainError,
    NotEvaluable,
    RegimeMismatch,
    TooFewSamples,
)
from .events import (
    Event,
    EventKind,
    EventLog,
    detect_events,
    event_rows,
    event_values,
    first_passage_partial_sum,
)
from .integrators import (
    BatchResult,
    PathRecord,
    Scheme,
    SimConfig,
    Terminated,
    contraction_curve,
    grid_step,
    simulate_batch,
    simulate_coupled_cir,
    simulate_path,
)
from .model import (
    CollisionVerdict,
    GlobalSolution,
    ModelParams,
    PairCollisions,
    RegimeReport,
    ZeroHitLambda1,
    classify_regime,
    drift_lambda,
    grad_potential,
    interaction_sum,
    multiple_collision_threshold,
    potential_value,
)
from .randomness import rng_streams, step_normals
from .stationary import (
    SampleSet,
    compare_long_run,
    estimate_log_normalizer,
    gamma_sum_law,
    mh_sampler,
    rejection_sample_pair,
)
from .stats import (
    StatSummary,
    binomial_summary,
    empirical_laplace,
    finite_diff_gradient,
    kolmogorov_sf,
    ks_distance,
    ks_distance_two_sample,
    ks_test,
    ks_test_two_sample,
    moment_summary,
)

__version__ = "0.1.0"
