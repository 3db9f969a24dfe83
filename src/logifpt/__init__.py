"""First-passage-time toolkit for the harvested stochastic logistic model."""

__version__ = "0.1.0"

from .analytics import MomentSet, cumulants_from_moments, fpt_cumulants, fpt_moments
from .hypergeom import laplace_transform
from .kernels import KernelTable, l_series, lbar_series, q_series, t_series
from .laguerre import (GammaRef, LaguerreApproximant, build_approximant,
                       laguerre_coeffs, match_gamma, select_order)
from .model import (DEFAULT_PRECISION, DerivedParams, Direction, FptProblem,
                    ModelParams, derive_params, validate_problem)
from .montecarlo import (FptSample, SimConfig, empirical_moments, kde,
                         lie_trotter_step, read_samples_csv, sample_fpt,
                         step_constants, write_samples_csv)
from .inference import MleConfig, MleResult, StudyReport, log_likelihood, mc_study, mle_fit

__all__ = [
    "DerivedParams", "Direction", "FptProblem", "FptSample",
    "GammaRef", "KernelTable", "LaguerreApproximant",
    "MleConfig", "MleResult", "ModelParams", "MomentSet",
    "SimConfig", "StudyReport", "DEFAULT_PRECISION", "build_approximant",
    "cumulants_from_moments", "derive_params", "empirical_moments",
    "fpt_cumulants", "fpt_moments", "kde", "l_series", "laguerre_coeffs",
    "laplace_transform", "lbar_series", "lie_trotter_step", "log_likelihood",
    "match_gamma", "mc_study", "mle_fit", "q_series", "read_samples_csv",
    "sample_fpt", "select_order", "step_constants", "t_series",
    "validate_problem", "write_samples_csv",
]
