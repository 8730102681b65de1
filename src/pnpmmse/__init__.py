"""Plug-and-play ISTA with an exact MMSE denoiser for Bernoulli-Gaussian signals.

The package provides the scalar prior and its smoothed marginal
(:mod:`pnpmmse.prior`), the exact posterior-mean denoiser with its inverse
and induced regularizer (:mod:`pnpmmse.denoiser`), the random Gaussian
measurement model (:mod:`pnpmmse.linear_model`), the iterative solvers
(:mod:`pnpmmse.solvers`), and a seeded experiment driver with a CLI
(:mod:`pnpmmse.experiment`, :mod:`pnpmmse.cli`).
"""

from .denoiser import InducedRegularizer, MmseDenoiser, posterior_mean, posterior_moments
from .errors import ConfigurationError, NumericalFailureError
from .linear_model import (
    LipschitzEstimate,
    MeasurementOperator,
    ProblemInstance,
    build_instance,
    calibrate_noise_sigma,
    data_fidelity,
    generate_operator,
    grad_data_fidelity,
    lipschitz_constant,
    snr_db,
)
from .prior import (
    BernoulliGaussianPrior,
    marginal_density,
    neg_log_marginal,
    neg_log_marginal_prime,
    neg_log_marginal_second,
    sample_signal,
)
from .solvers import (
    SolverTrace,
    TraceOptions,
    gamp,
    lasso_ista,
    mm_surrogate,
    pnp_ista,
    soft_threshold,
)

__all__ = [
    "BernoulliGaussianPrior",
    "ConfigurationError",
    "InducedRegularizer",
    "LipschitzEstimate",
    "MeasurementOperator",
    "MmseDenoiser",
    "NumericalFailureError",
    "ProblemInstance",
    "SolverTrace",
    "TraceOptions",
    "build_instance",
    "calibrate_noise_sigma",
    "data_fidelity",
    "gamp",
    "generate_operator",
    "grad_data_fidelity",
    "lasso_ista",
    "lipschitz_constant",
    "marginal_density",
    "mm_surrogate",
    "neg_log_marginal",
    "neg_log_marginal_prime",
    "neg_log_marginal_second",
    "pnp_ista",
    "posterior_mean",
    "posterior_moments",
    "sample_signal",
    "snr_db",
    "soft_threshold",
]

__version__ = "0.1.0"
