"""Workload model, rate functions and long deviant segment statistics for
capacity planning on servers with power-law customer growth."""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ModelValidationError,
    NumericalError,
    QuadratureError,
    SteepnessWarning,
    StrangeSegmentsError,
)
from .innovations import (
    GaussianInnovations,
    GaussianNoise,
    InnovationModel,
    NoiseModel,
    check_steepness,
)
from .model_core import (
    CustomerGroup,
    MACoefficients,
    ModelSpec,
    cumulative_population,
    floor_power,
    population,
)
from .modeldoc import canonical_document, load_model, model_digest, parse_model_document
from .rate_function import (
    LegendreResult,
    RateFunctionCtx,
    gaussian_closed_form,
    invert_capacity,
    lambda_k,
    lambda_k_prime,
    lambda_limit,
    legendre,
    lorenz,
    set_rate,
)
from .segments import (
    SegmentReport,
    ThresholdSet,
    brute_force_r,
    brute_force_t,
    r_stat,
    r_stat_trajectory,
    t_stat,
)
from .simulator import PathConfig, WorkloadPath, segment_average, simulate
from .experiments import RunResult, StrongLawRun, UldpRun, run_strong_law, run_uldp, sla_plan

__all__ = [
    "BracketError",
    "CustomerGroup",
    "GaussianInnovations",
    "GaussianNoise",
    "InnovationModel",
    "LegendreResult",
    "MACoefficients",
    "ModelSpec",
    "ModelValidationError",
    "NoiseModel",
    "NumericalError",
    "PathConfig",
    "QuadratureError",
    "RateFunctionCtx",
    "RunResult",
    "SegmentReport",
    "SteepnessWarning",
    "StrangeSegmentsError",
    "StrongLawRun",
    "ThresholdSet",
    "UldpRun",
    "WorkloadPath",
    "brute_force_r",
    "brute_force_t",
    "canonical_document",
    "check_steepness",
    "cumulative_population",
    "floor_power",
    "gaussian_closed_form",
    "invert_capacity",
    "lambda_k",
    "lambda_k_prime",
    "lambda_limit",
    "legendre",
    "load_model",
    "lorenz",
    "model_digest",
    "parse_model_document",
    "population",
    "r_stat",
    "r_stat_trajectory",
    "run_strong_law",
    "run_uldp",
    "segment_average",
    "set_rate",
    "simulate",
    "sla_plan",
    "t_stat",
]
