"""Ride-comfort analysis toolkit.

Generates or ingests road surfaces, simulates a lumped vehicle over them,
classifies ride comfort by acceleration bands, frequency-weighted vibration,
and the roughness index, locates critical road sections, and calibrates the
vehicle model against reference traces.

Importing the package loads numpy and the standard library only: each SciPy
module, and ``yaml``, is imported inside the function that runs it, so a
command loads only what it uses.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainBoundsError,
    FilterDesignError,
    GridParseError,
    InvalidInput,
    NumericFailure,
    OptimizationFailure,
    ToolkitError,
)

__all__ = [
    "__version__",
    "ToolkitError",
    "DimensionMismatch",
    "InvalidInput",
    "GridParseError",
    "DomainBoundsError",
    "FilterDesignError",
    "NumericFailure",
    "ConfigError",
    "OptimizationFailure",
]
