"""Frequentist covariance of Bayesian posterior means, from MCMC output.

The package estimates how a posterior mean would vary across datasets from
the same data-generating process, without refitting: influence scores from
one chain (`influence_scores` / `ij_covariance`), a weighted bootstrap
(`bootstrap_covariance`), the MAP sandwich (`sandwich_covariance`), and the
naive posterior covariance (`bayes_covariance`), all on the sqrt(N) scale
so they are directly comparable.  Monte-Carlo error for each lives in
:mod:`ijcov.mc_error`; grouped-model bias diagnostics in
:mod:`ijcov.diagnostics`; the simulation-study pipeline in
:mod:`ijcov.experiment`; the CLI in :mod:`ijcov.cli`.
"""

from .diagnostics import (
    BcltCheck,
    GroupedExpFamilyView,
    KappaRho,
    bclt_expansion_check,
    diagnose,
    poisson_re_truth_moments,
    poisson_re_view,
)
from .errors import DimensionMismatchError, IngestError, NumericalError
from .estimators import (
    CovEstimate,
    InfluenceMatrix,
    bayes_covariance,
    bootstrap_covariance,
    ij_covariance,
    influence_scores,
    sandwich_covariance,
)
from .experiment import ExperimentConfig, ExperimentResult, emit_report, run_experiment
from .mc_error import (
    SEMatrix,
    block_bootstrap_se,
    delta_method_boot_se,
    delta_metrics,
    z_matrix,
)
from .models import Dataset, log_lik_matrix
from .reference import (
    NormalMeanModel,
    PoissonGammaConjugateModel,
    PoissonGammaREModel,
    SimSpec,
    exact_normal_posterior,
    normal_influence_oracle,
    simulate_misspecified_normal,
    simulate_poisson_re,
    simulate_poisson_re_conditional,
)
from .samplers import ChainConfig, MapFit, PosteriorSample, ess, map_optimize, sample_posterior

__version__ = "0.1.0"

__all__ = [
    "BcltCheck",
    "ChainConfig",
    "CovEstimate",
    "Dataset",
    "DimensionMismatchError",
    "ExperimentConfig",
    "ExperimentResult",
    "GroupedExpFamilyView",
    "IngestError",
    "InfluenceMatrix",
    "KappaRho",
    "MapFit",
    "NormalMeanModel",
    "NumericalError",
    "PoissonGammaConjugateModel",
    "PoissonGammaREModel",
    "PosteriorSample",
    "SEMatrix",
    "SimSpec",
    "bayes_covariance",
    "bclt_expansion_check",
    "block_bootstrap_se",
    "bootstrap_covariance",
    "delta_method_boot_se",
    "delta_metrics",
    "diagnose",
    "emit_report",
    "ess",
    "exact_normal_posterior",
    "ij_covariance",
    "influence_scores",
    "log_lik_matrix",
    "map_optimize",
    "normal_influence_oracle",
    "poisson_re_truth_moments",
    "poisson_re_view",
    "run_experiment",
    "sample_posterior",
    "sandwich_covariance",
    "simulate_misspecified_normal",
    "simulate_poisson_re",
    "simulate_poisson_re_conditional",
    "z_matrix",
]
