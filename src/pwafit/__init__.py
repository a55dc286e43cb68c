"""Continuous piecewise-affine regression via smoothed max-affine least squares."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .model import (
    MaxAffine,
    PwaModel,
    convex_model,
    model_from_json_dict,
    model_to_json_dict,
    pack,
    param_distance,
    unpack,
    zero_part,
)
from .smoothing import (
    Prox,
    SmoothingSpec,
    project_simplex,
    rho_max,
    smooth_max,
)
from .objective import (
    Dataset,
    SmoothedLeastSquares,
    empirical_norm,
    least_squares,
    least_squares_gradient,
)
from .optimizer import FitConfig, FitResult, anneal_schedule, fit, fit_pool
from .inference import (
    ConfidenceIntervals,
    CovarianceEstimate,
    Hinge1D,
    Hinge2D,
    confidence_intervals,
    hinge_fit_1d,
    line_parameters,
    plugin_covariance,
    smoothed_covariance,
)
from .simulate import (
    Scenario,
    dataset_from_csv,
    dataset_to_csv,
    generate,
    preset,
    preset_names,
    random_plane_pair,
)

# the submodules are attributes of the package, not names it exports
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
