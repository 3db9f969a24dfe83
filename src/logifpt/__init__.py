"""First-passage-time toolkit for the harvested stochastic logistic model."""

__version__ = "0.1.0"

from .analytics import (CumulantSet, GammaDiagnostics, MomentMethod, MomentSet,
                        cumulants_from_moments, fpt_cumulants, fpt_moments,
                        gamma_consistency, mean_variance_closed_form)
from .hypergeom import HypEvalConfig, fd_moments, kummer_phi, laplace_transform, tricomi_psi
from .kernels import KernelTable, l_series, lbar_series, q_series, t_series
from .laguerre import (GammaRef, LaguerreApproximant, build_approximant,
                       laguerre_coeffs, laguerre_poly, match_gamma, select_order)
from .model import (DEFAULT_PRECISION, DerivedParams, Direction, FptProblem,
                    ModelParams, derive_params, validate_problem)
from .montecarlo import (FptSample, SimConfig, empirical_moments, kde,
                         lie_trotter_step, read_samples_csv, sample_fpt,
                         stationary_check, step_constants, write_samples_csv)
from .inference import MleConfig, MleResult, StudyReport, log_likelihood, mc_study, mle_fit

__all__ = [
    "CumulantSet", "DerivedParams", "Direction", "FptProblem", "FptSample",
    "GammaDiagnostics", "GammaRef", "HypEvalConfig", "KernelTable",
    "LaguerreApproximant", "MleConfig", "MleResult", "ModelParams",
    "MomentMethod", "MomentSet", "SimConfig", "StudyReport",
    "DEFAULT_PRECISION", "build_approximant", "cumulants_from_moments",
    "derive_params", "empirical_moments", "fd_moments", "fpt_cumulants",
    "fpt_moments", "gamma_consistency", "kde", "kummer_phi", "l_series",
    "laguerre_coeffs", "laguerre_poly", "laplace_transform", "lbar_series",
    "lie_trotter_step", "log_likelihood", "match_gamma", "mc_study",
    "mean_variance_closed_form", "mle_fit", "q_series", "read_samples_csv",
    "sample_fpt", "select_order", "stationary_check", "step_constants",
    "t_series", "tricomi_psi", "validate_problem", "write_samples_csv",
]
