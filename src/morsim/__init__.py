"""Magneto-optical rotation of a weak probe in a four-level atomic
medium driven by a circularly (or elliptically) polarized control laser.

The package computes the scaled susceptibilities (s+, s-) of the two
circular probe components along two independent routes, closed-form
rational expressions and a steady-state density-matrix solve, and turns
them into polarimetry observables (crossed- and co-polarizer
transmission, rotation angle, output Jones vector).  A sweep layer and
CLI produce the spectra as CSV/JSON.
"""

from .analytic import s_pair
from .core import (
    JonesVector,
    SusceptibilityPair,
    SystemParams,
    cartesian_to_circular,
    circular_to_cartesian,
    validate_params,
)
from .errors import (
    ConfigError,
    CrossValidationError,
    EmitError,
    MorsimError,
    NumericError,
    ParameterError,
    SingularSystemError,
)
from .lindblad import (
    DensityMatrix,
    build_generator,
    probe_response_finite,
    probe_response_perturbative,
    steady_state,
)
from .observables import output_field, rotation_angle, transmission_x, transmission_y
from .sweep import (
    CSV_HEADER,
    DeltaGrid,
    OutputRow,
    SweepConfig,
    Variant,
    emit,
    parse_config,
    preset,
    run_sweep,
    write_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "SystemParams",
    "JonesVector",
    "SusceptibilityPair",
    "validate_params",
    "cartesian_to_circular",
    "circular_to_cartesian",
    "s_pair",
    "DensityMatrix",
    "build_generator",
    "steady_state",
    "probe_response_perturbative",
    "probe_response_finite",
    "transmission_y",
    "transmission_x",
    "rotation_angle",
    "output_field",
    "DeltaGrid",
    "Variant",
    "SweepConfig",
    "OutputRow",
    "parse_config",
    "preset",
    "run_sweep",
    "write_sweep",
    "emit",
    "CSV_HEADER",
    "MorsimError",
    "ParameterError",
    "ConfigError",
    "NumericError",
    "SingularSystemError",
    "CrossValidationError",
    "EmitError",
    "__version__",
]
