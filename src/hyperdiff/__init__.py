"""Random hyperbolic diffusion restricted to the unit sphere.

Exact transfer kernels, angular power spectra, covariance functions,
truncated Laplace-series field simulation, dependence classification, and
1D Shannon-entropy experiments, with a CSV-emitting CLI front end.
"""

__version__ = "0.1.0"

from .exceptions import AccuracyError, ConfigError
from .measure import (DiffusionParams, PowerLawSegment, SpectralMeasure,
                      load_config, serialize_config)
from .kernel import transfer, transfer_branches, wave_bound
from .spectrum import (FiniteVarianceReport, TailSum, angular_spectrum,
                       finite_variance_check, tail_bound_gamma,
                       tail_sum_direct, tail_sum_lommel)
from .covariance import (LegendreCovariance, MemoryClass, MemoryReport,
                         angular_mse, covariance_legendre, covariance_spectral,
                         covariance_time_lags, integrated_abs_covariance,
                         memory_classify)
from .field_sim import (CoefficientSet, FieldGrid, TruncationError, atomize,
                        derive_run_seed, ensemble_spectrum,
                        simulate_coefficients, synthesize, truncation_error_mc)
from .entropy1d import (EntropyTrace, ExperimentResult, ModeDecomposition,
                        decompose_initial, entropy_trace, evaluate,
                        run_experiment)

__all__ = [
    "AccuracyError", "ConfigError",
    "DiffusionParams", "PowerLawSegment", "SpectralMeasure",
    "load_config", "serialize_config",
    "transfer", "transfer_branches", "wave_bound",
    "FiniteVarianceReport", "TailSum", "angular_spectrum", "finite_variance_check",
    "tail_bound_gamma", "tail_sum_direct", "tail_sum_lommel",
    "LegendreCovariance", "MemoryClass", "MemoryReport",
    "angular_mse", "covariance_legendre", "covariance_spectral",
    "covariance_time_lags", "integrated_abs_covariance", "memory_classify",
    "CoefficientSet", "FieldGrid", "TruncationError",
    "atomize", "derive_run_seed", "ensemble_spectrum",
    "simulate_coefficients", "synthesize", "truncation_error_mc",
    "EntropyTrace", "ExperimentResult", "ModeDecomposition",
    "decompose_initial", "entropy_trace", "evaluate", "run_experiment",
]
