"""Magneto-optical rotation of a weak probe in a four-level atomic
medium driven by a circularly (or elliptically) polarized control laser.

The package computes the scaled susceptibilities (s+, s-) of the two
circular probe components along two independent routes, closed-form
rational expressions and a steady-state density-matrix solve, and turns
them into polarimetry observables (crossed- and co-polarizer
transmission, rotation angle, output Jones vector).  A sweep layer and
CLI produce the spectra as CSV/JSON.
"""

import importlib

__version__ = "0.1.0"

# Each public name, and each submodule, to the submodule that holds it.  ``import morsim``
# loads none of them: the first read of a name imports its submodule (PEP 562) and binds
# the name here, so later reads are plain attribute reads.  A caller that only solves
# points never loads the sweep layer, nor its ``json``, ``csv`` and ``decimal``.
_HOMES = {
    "s_pair": "analytic",
    **dict.fromkeys(("JonesVector", "SusceptibilityPair", "SystemParams", "cartesian_to_circular",
                     "circular_to_cartesian", "validate_params"), "core"),
    **dict.fromkeys(("ConfigError", "CrossValidationError", "EmitError", "MorsimError",
                     "NumericError", "ParameterError", "SingularSystemError"), "errors"),
    **dict.fromkeys(("DensityMatrix", "build_generator", "probe_response_finite",
                     "probe_response_perturbative", "steady_state"), "lindblad"),
    **dict.fromkeys(("output_field", "rotation_angle", "transmission_x", "transmission_y"),
                    "observables"),
    **dict.fromkeys(("CSV_HEADER", "DeltaGrid", "OutputRow", "SweepConfig", "Variant", "emit",
                     "parse_config", "preset", "run_sweep", "write_sweep"), "sweep"),
    **{module: module for module in ("analytic", "complexgrid", "core", "errors", "lindblad",
                                     "observables", "sweep")},
}

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


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
