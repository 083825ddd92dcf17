"""Stability-certified nonlinear Kalman and Kalman-Bucy filtering.

The package couples a generalized filter family with a priori stability
certificates: time-uniform mean-square error bounds and exponential
concentration thresholds, in continuous and discrete time, validated by
seeded Monte Carlo experiments.

Each filter is one functional of two kinds, point evaluation (``ekf``) or
sigma-point expectations (``ukf``, ``gh``), which gives both its mean and
its covariance term in either time model. The assumed-density filter
``adf`` is the sigma-point kind on a high-order Gauss-Hermite reference
rule: by Stein's identity its Jacobian average is a sum of field values
at the sigma points.
"""

from ._version import __version__
from .errors import (
    CertificateError,
    ConfigError,
    ExperimentDivergenceError,
    IndefiniteMatrixError,
    KbstabError,
    NoCertificateError,
    NotContractiveError,
    NotFullyObservedError,
)
from .matrix_measures import (
    LogLipschitzEstimate,
    log_lipschitz_estimate,
    log_norm_mu,
    log_norm_nu,
    spectral_norm,
)
from .quadrature import (
    CubatureRule,
    check_degree_two_exactness,
    default_unscented_kappa,
    gauss_hermite_rule,
    matrix_sqrt,
    unscented_rule,
)
from .functionals import (
    AssumptionCheckReport,
    Functional,
    check_assumption_continuous,
    check_assumption_discrete,
    eval_mean,
    eval_riccati_cont,
    eval_riccati_disc,
)
from .models import (
    ContinuousModel,
    DiscreteModel,
    builtin_contractive3d,
    builtin_discrete_linear,
    builtin_integrated_velocity,
    builtin_linear,
    simulate_discrete_paths,
    simulate_paths,
    velocity_g,
    velocity_g_prime,
)
from .filters import (
    FilterConfig,
    make_filter_config,
    run_continuous_ensemble,
    run_discrete_ensemble,
)
from .stability import (
    ContinuousCertificate,
    DiscreteCertificate,
    beta,
    chi_square_moment_bound,
    continuous_concentration_threshold,
    continuous_mse_bound,
    contractive_certificate,
    discrete_certificate,
    discrete_concentration_threshold,
    discrete_mse_bound,
    gaussian_norm_moment,
    gronwall_continuous,
    inflation_mineig_bound,
    integrated_velocity_certificate,
    naive_vs_filter,
    required_inflation,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    export_result,
    preset_spec,
    run_experiment,
)
