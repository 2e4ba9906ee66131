"""The library's error contract (README, "Library API"), fed hostile values.

A value of the wrong type raises TypeError, a value of the right type
outside its domain raises a MorsimError, and nothing else escapes: every
public entry point either works or raises what its row of the README
table names.
"""

import math
import os
import warnings

import numpy as np
import pytest

from morsim import (
    ConfigError,
    DeltaGrid,
    DensityMatrix,
    EmitError,
    JonesVector,
    NumericError,
    OutputRow,
    ParameterError,
    SingularSystemError,
    SusceptibilityPair,
    SweepConfig,
    SystemParams,
    Variant,
    build_generator,
    cartesian_to_circular,
    circular_to_cartesian,
    emit,
    output_field,
    parse_config,
    preset,
    probe_response_finite,
    probe_response_perturbative,
    rotation_angle,
    run_sweep,
    s_pair,
    steady_state,
    transmission_x,
    transmission_y,
    validate_params,
    write_sweep,
)
from morsim.analytic import s_pair_grid
from morsim.cli import main
from morsim.complexgrid import ComplexGrid
from morsim.core import _VARIANT_FIELDS, ParamColumns
from morsim.lindblad import probe_response_perturbative_grid
from morsim.observables import observables_grid
from morsim.sweep import CSV_HEADER, validate_config

from helpers import reference_csv, reference_json

# More than 4,300 digits: str() refuses it, and so did every message that printed it.
HUGE = 10 ** 5000

HOSTILE = [
    HUGE, -HUGE, 10 ** 400, 2 ** 64, -2 ** 64, math.nan, math.inf, -math.inf,
    1 + 1j, complex("nan+1j"), np.complex64(1 + 1j), np.complex128(1 + 1j),
    np.float32(1.5), np.int64(3), np.float64("nan"), "x", "1.5", "", None, [],
    b"x", True, np.str_("x"), object(), "a\0b",
]

PARAMS = SystemParams(Omega=5.0, Delta=5.0, G1=20.0)
PAIR = SusceptibilityPair(0.1 + 0.2j, 0.3 + 0.1j)
GRID = DeltaGrid(-1.0, 1.0, 3)
ROW = OutputRow("v", *[0.5] * 8, "analytic")
STATE = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))


def _observables(pair, alpha_l):
    """Every scalar observable of ``pair``; each works to a float, or a JonesVector."""
    values = [f(pair, alpha_l) for f in (transmission_y, transmission_x, rotation_angle)]
    assert all(isinstance(v, float) for v in values)
    assert isinstance(output_field(JonesVector(1.0, 0.0), pair, alpha_l), JonesVector)


def _grid_observables(alpha_l):
    s = ComplexGrid.from_numpy(np.array([0.1 + 0.2j]))
    assert all(v.dtype == float for v in observables_grid(s, s, alpha_l))


def _jones(vector):
    circular_to_cartesian(vector)
    output_field(vector, PAIR, 1.0)
    return vector.intensity


def _sweep(**fields):
    return run_sweep(SweepConfig(**{"delta_grid": GRID, "engine": "analytic", **fields}))


def _override(name, value):
    return _sweep(variants=(Variant("a", {name: value}),))


def _grid(**bounds):
    return _sweep(delta_grid=DeltaGrid(**{"min": -1.0, "max": 1.0, "points": 3, **bounds}))


# Each entry point: how a hostile value is fed to it, and what it may raise.
ENTRY_POINTS = {
    **{f"SystemParams.{name}": (lambda v, name=name: validate_params(SystemParams(**{name: v})),
                                (ParameterError, TypeError))
       for name in (*_VARIANT_FIELDS, "delta")},
    "JonesVector.e_plus": (lambda v: _jones(JonesVector(v, 0.0)), (ParameterError, TypeError)),
    "JonesVector.e_minus": (lambda v: _jones(JonesVector(0.0, v)), (ParameterError, TypeError)),
    "SusceptibilityPair.s_plus": (lambda v: _observables(SusceptibilityPair(v, 0.1), 30.0),
                                  (ParameterError, NumericError, TypeError)),
    "SusceptibilityPair.s_minus": (lambda v: _observables(SusceptibilityPair(0.1, v), 30.0),
                                   (ParameterError, NumericError, TypeError)),
    "cartesian_to_circular.ex": (lambda v: cartesian_to_circular(v, 0.0),
                                 (ParameterError, TypeError)),
    "cartesian_to_circular.ey": (lambda v: cartesian_to_circular(0.0, v),
                                 (ParameterError, TypeError)),
    "DensityMatrix.rho": (DensityMatrix, (ParameterError, TypeError)),
    "build_generator.g1": (lambda v: build_generator(PARAMS, v, 0.0), (ParameterError, TypeError)),
    "build_generator.g2": (lambda v: build_generator(PARAMS, 0.0, v), (ParameterError, TypeError)),
    "steady_state.generator": (steady_state, (ParameterError, NumericError, TypeError)),
    "probe_response_finite.g_mag": (lambda v: probe_response_finite(PARAMS, v),
                                    (ParameterError, TypeError)),
    "observables.alpha_l": (lambda v: _observables(PAIR, v),
                            (ParameterError, NumericError, TypeError)),
    "observables_grid.alpha_l": (_grid_observables, (ParameterError, TypeError)),
    "DensityMatrix.coherence.upper": (lambda v: STATE.coherence(v, 0),
                                      (ParameterError, TypeError)),
    "DensityMatrix.coherence.lower": (lambda v: STATE.coherence(0, v),
                                      (ParameterError, TypeError)),
    # An argument of morsim's own types given another object.
    **{f"{f.__name__}.p": (f, (TypeError,))
       for f in (validate_params, s_pair, probe_response_perturbative)},
    "probe_response_finite.p": (lambda v: probe_response_finite(v, 1e-3), (TypeError,)),
    **{f"{f.__name__}.rows": (f, (TypeError,))
       for f in (s_pair_grid, probe_response_perturbative_grid)},
    "ParamColumns.params": (ParamColumns, (TypeError,)),
    "ParamColumns.params.item": (lambda v: ParamColumns([v]), (TypeError,)),
    "build_generator.p": (lambda v: build_generator(v, 1e-3, 0.0), (TypeError,)),
    **{f"{f.__name__}.s": (lambda v, f=f: f(v, 30.0), (TypeError,))
       for f in (transmission_y, transmission_x, rotation_angle)},
    "output_field.s": (lambda v: output_field(JonesVector(1.0, 0.0), v, 30.0), (TypeError,)),
    "output_field.e_in": (lambda v: output_field(v, PAIR, 30.0), (TypeError,)),
    "circular_to_cartesian.j": (circular_to_cartesian, (TypeError,)),
    **{f"{f.__name__}.cfg": (f, (TypeError,)) for f in (run_sweep, validate_config)},
    "write_sweep.cfg": (lambda v: write_sweep(v, "out.csv"), (TypeError,)),
    "SweepConfig.delta_grid": (lambda v: _sweep(delta_grid=v), (TypeError,)),
    "SweepConfig.variants": (lambda v: _sweep(variants=v), (ConfigError, TypeError)),
    "SweepConfig.variants.item": (lambda v: _sweep(variants=(v,)), (TypeError,)),
    **{f"DeltaGrid.{name}": (lambda v, name=name: _grid(**{name: v}), (ConfigError,))
       for name in ("min", "max", "points")},
    "Variant.name": (lambda v: _sweep(variants=(Variant(v),)), (ConfigError,)),
    **{f"Variant.overrides.{name}": (lambda v, name=name: _override(name, v), (ConfigError,))
       for name in _VARIANT_FIELDS},
    "SweepConfig.engine": (lambda v: _sweep(engine=v), (ConfigError,)),
    "SweepConfig.out_format": (lambda v: _sweep(out_format=v), (ConfigError,)),
    "SweepConfig.out_path": (lambda v: validate_config(SweepConfig(out_path=v)), (ConfigError,)),
    "parse_config.text": (parse_config, (ConfigError, TypeError)),
    "preset.name": (preset, (ConfigError, TypeError)),
    "emit.rows": (lambda v: emit(v, "csv"), (EmitError, TypeError)),
    "emit.out_format": (lambda v: emit([ROW], v), (EmitError,)),
    **{f"emit.{name}": (lambda v, i=i: emit([ROW[:i] + (v,) + ROW[i + 1:]], "json"), (EmitError,))
       for i, name in enumerate(CSV_HEADER)},
    "emit.destination": (lambda v: emit([ROW], "csv", v), (EmitError, TypeError)),
    "write_sweep.destination": (lambda v: write_sweep(SweepConfig(delta_grid=GRID), v),
                                (EmitError, TypeError)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_hostile_values_work_or_raise_the_documented_errors(entry, tmp_path, monkeypatch):
    # Under tier-1's warning filters, so a cast with a ComplexWarning or a
    # RuntimeWarning from a comparison fails here too.  Paths are relative to tmp_path.
    monkeypatch.chdir(tmp_path)
    call, allowed = ENTRY_POINTS[entry]
    escaped = []
    for value in HOSTILE:
        try:
            call(value)
        except allowed:
            pass
        except Exception as exc:
            escaped.append(f"{type(value).__name__}: {type(exc).__name__}: {exc}"[:200])
    assert not escaped, escaped


# The cases the contract closed, each with its exact message.
@pytest.mark.parametrize("call, error, message", [
    # A caller's value too long for str() is shown by a stand-in.
    (lambda: validate_config(SweepConfig(engine=HUGE)), ConfigError,
     "engine must be one of analytic|numeric|both (got <int too long to print>)"),
    (lambda: validate_config(SweepConfig(out_format=HUGE)), ConfigError,
     "format must be one of csv|json (got <int too long to print>)"),
    (lambda: validate_config(SweepConfig(delta_grid=DeltaGrid(-HUGE, 1.0, 3))), ConfigError,
     "nonfinite delta grid bounds: [<int too long to print>, 1.0]"),
    (lambda: validate_config(SweepConfig(delta_grid=DeltaGrid(-HUGE, "x", 3))), ConfigError,
     "delta grid needs real bounds and integer points (got <DeltaGrid too long to print>)"),
    (lambda: validate_config(SweepConfig(delta_grid=DeltaGrid(-1.0, 1.0, HUGE))), ConfigError,
     "delta_points must be <= 100000 (got <int too long to print>)"),
    (lambda: validate_config(SweepConfig(variants=(Variant(HUGE),))), ConfigError,
     "variant name must be a str (got <int too long to print>)"),
    (lambda: preset(HUGE), ConfigError,
     "unknown preset <int too long to print> (choose from fig2, fig3, fig4)"),
    (lambda: emit([ROW], HUGE), EmitError, "unknown output format <int too long to print>"),
    (lambda: emit([ROW._replace(t_x=HUGE)], "csv"), EmitError,
     "output row 0: t_x must be a float, got <int too long to print>"),
    (lambda: emit([HUGE], "csv"), EmitError,
     "output row 0: expected 10 fields, got int <int too long to print>"),
    (lambda: probe_response_finite(PARAMS, HUGE), ParameterError,
     "probe too strong: g=<int too long to print> exceeds 0.01 "
     "(weak-probe extraction would be unreliable)"),
    # A complex number is no real number: not as a grid bound, alpha_l,
    # probe amplitude or real field, NumPy's included.
    (lambda: validate_config(SweepConfig(delta_grid=DeltaGrid(np.complex64(1 + 1j), 3.0, 3))),
     ConfigError, "delta grid needs real bounds and integer points "
                  "(got DeltaGrid(min=np.complex64(1+1j), max=3.0, points=3))"),
    (lambda: rotation_angle(PAIR, 1 + 1j), TypeError, "must be real number, not complex"),
    (lambda: transmission_y(PAIR, 1 + 1j), TypeError, "must be real number, not complex"),
    (lambda: transmission_y(PAIR, complex("nan+1j")), TypeError,
     "must be real number, not complex"),
    (lambda: observables_grid(*[ComplexGrid.from_numpy(np.array([0.1j]))] * 2,
                              np.array([1 + 1j])),
     TypeError, "must be real number, not ndarray"),
    (lambda: probe_response_finite(PARAMS, "x"), TypeError, "must be real number, not str"),
    (lambda: probe_response_finite(PARAMS, np.complex64(1e-3)), TypeError,
     "must be real number, not complex64"),
    (lambda: SystemParams(Omega=np.complex64(1 + 1j)), TypeError,
     "Omega must be a real number, not complex64"),
    (lambda: SystemParams(alpha_l=np.complex128(30)), TypeError,
     "alpha_l must be a real number, not complex128"),
    (lambda: validate_config(SweepConfig(variants=(Variant("a", {"Omega": np.complex64(1)}),))),
     ConfigError, "variant 'a': Omega must be a real number, not complex64"),
    # Where float() or complex() refuse a value of a type they take, Python's reason.
    (lambda: SystemParams(Omega="x"), ParameterError, "could not convert string to float: 'x'"),
    (lambda: SystemParams(G1=10 ** 400), ParameterError, "int too large to convert to float"),
    (lambda: JonesVector("x", 0.0), ParameterError, "complex() arg is a malformed string"),
    (lambda: SusceptibilityPair(10 ** 400, 0.0), ParameterError,
     "int too large to convert to float"),
    (lambda: cartesian_to_circular("x", 0.0), ParameterError,
     "complex() arg is a malformed string"),
    (lambda: build_generator(PARAMS, "x", 0.0), ParameterError,
     "complex() arg is a malformed string"),
    (lambda: build_generator(PARAMS, 0.0, HUGE), ParameterError,
     "int too large to convert to float"),
    (lambda: steady_state("x"), ParameterError, "complex() arg is a malformed string"),
    (lambda: steady_state(HUGE), ParameterError, "int too large to convert to float"),
    (lambda: DensityMatrix("x"), ParameterError, "complex() arg is a malformed string"),
    # A matrix of inf, nan or 1e308 fails a state check, with no floating-point warning.
    (lambda: DensityMatrix(np.full((4, 4), np.inf)), ParameterError,
     "non-Hermitian density matrix: deviation nan"),
    (lambda: DensityMatrix(np.full((4, 4), np.nan)), ParameterError,
     "non-Hermitian density matrix: deviation nan"),
    (lambda: DensityMatrix(np.full((4, 4), 1e308)), ParameterError,
     "trace differs from 1 by inf"),
    # Config text is a str.
    (lambda: parse_config(None), TypeError,
     "descriptor 'removeprefix' for 'str' objects doesn't apply to a 'NoneType' object"),
    (lambda: parse_config(b"Omega = 1\n"), TypeError,
     "descriptor 'removeprefix' for 'str' objects doesn't apply to a 'bytes' object"),
    # A path with a NUL byte is no path.
    (lambda: emit([ROW], "csv", "a\0b"), EmitError, "cannot write 'a\\x00b': embedded null byte"),
    # A coherence index is an integer 0..3; a negative one does not count from the end.
    (lambda: STATE.coherence(-1, 0), ParameterError,
     "coherence index out of range 0..3: (-1, 0)"),
    (lambda: STATE.coherence(0, 5), ParameterError, "coherence index out of range 0..3: (0, 5)"),
    (lambda: STATE.coherence(HUGE, 0), ParameterError,
     "coherence index out of range 0..3: (<int too long to print>, 0)"),
    (lambda: STATE.coherence("x", 0), TypeError, "'str' object cannot be interpreted as an integer"),
    (lambda: STATE.coherence(0, 1.0), TypeError,
     "'float' object cannot be interpreted as an integer"),
    # Another object for one of morsim's own types, named before any attribute is read.
    (lambda: validate_params(None), TypeError, "p must be a SystemParams, not NoneType"),
    (lambda: s_pair(PAIR), TypeError, "p must be a SystemParams, not SusceptibilityPair"),
    (lambda: transmission_y(None, 1.0), TypeError, "s must be a SusceptibilityPair, not NoneType"),
    (lambda: rotation_angle(PARAMS, 1.0), TypeError,
     "s must be a SusceptibilityPair, not SystemParams"),
    (lambda: output_field(None, PAIR, 1.0), TypeError, "e_in must be a JonesVector, not NoneType"),
    (lambda: circular_to_cartesian((1.0, 0.0)), TypeError, "j must be a JonesVector, not tuple"),
    (lambda: run_sweep(None), TypeError, "cfg must be a SweepConfig, not NoneType"),
    (lambda: write_sweep(PARAMS, "out.csv"), TypeError,
     "cfg must be a SweepConfig, not SystemParams"),
    (lambda: validate_config(SweepConfig(delta_grid=(-1.0, 1.0, 3))), TypeError,
     "delta_grid must be a DeltaGrid, not tuple"),
    (lambda: validate_config(SweepConfig(variants="ab")), TypeError,
     "variant must be a Variant, not str"),
    (lambda: s_pair_grid(None), TypeError, "rows must be a ParamColumns, not NoneType"),
    (lambda: probe_response_perturbative_grid(None), TypeError,
     "rows must be a ParamColumns, not NoneType"),
    (lambda: ParamColumns([None]), TypeError, "params item must be a SystemParams, not NoneType"),
    (lambda: ParamColumns("x"), TypeError, "params item must be a SystemParams, not str"),
], ids=["engine", "out_format", "grid_bound", "grid_type", "grid_points", "variant_name",
        "preset", "emit_format", "emit_value", "emit_row", "probe_amplitude",
        "complex64_grid_bound", "complex_alpha_l_angle", "complex_alpha_l_transmission",
        "nan_complex_alpha_l", "complex_alpha_l_array", "str_probe_amplitude",
        "complex64_probe_amplitude", "complex64_real_field", "complex128_real_field",
        "complex64_override", "str_real_field", "huge_int_complex_field", "str_jones",
        "huge_int_pair", "str_cartesian", "str_probe_generator", "huge_int_probe_generator",
        "str_generator", "huge_int_generator", "str_density_matrix", "inf_density_matrix",
        "nan_density_matrix", "overflowing_density_matrix", "none_config_text",
        "bytes_config_text", "nul_emit_path", "negative_coherence_index",
        "large_coherence_index", "huge_coherence_index", "str_coherence_index",
        "float_coherence_index", "none_params", "pair_params", "none_pair", "params_pair",
        "none_jones", "tuple_jones", "none_config", "params_config", "tuple_grid", "str_variants",
        "none_rows_analytic", "none_rows_numeric", "none_params_item", "str_params"])
def test_closed_case_message_is_pinned(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


# NumPy values in an emitted row.  A float or str subclass is written as its
# plain value; anything else is the EmitError that names its row and column.
NUMPY_VALUES = {
    "float16": np.float16(1.5),
    "float32": np.float32(1.5),
    "float64": np.float64(1.5),
    "longdouble": np.longdouble(1.5),
    "bool_": np.bool_(True),
    "str_": np.str_("x"),
    "bytes_": np.bytes_(b"x"),
    "0-d array": np.array(1.5),
    "one-element array": np.array([1.5]),
    "masked": np.ma.masked,
    "object array": np.array([1.5, "x"], dtype=object),
}


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("value", NUMPY_VALUES.values(), ids=NUMPY_VALUES)
def test_numpy_values_in_rows_print_plain_or_name_their_field(value, out_format):
    for j, name in enumerate(CSV_HEADER):
        kind = str if name in ("variant", "engine") else float
        row = OutputRow(*ROW[:j], value, *ROW[j + 1:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(value, kind):
                plain = OutputRow(*ROW[:j], kind(value), *ROW[j + 1:])
                assert emit([ROW, row], out_format) == emit([ROW, plain], out_format)
                continue
            with pytest.raises(EmitError) as raised:
                emit([ROW, row], out_format)
        with pytest.raises(EmitError) as expected:
            (reference_csv if out_format == "csv" else reference_json)([ROW, row])
        assert str(raised.value) == str(expected.value)
        # A value's type is named unless it is built in, so that one whose text reads
        # like a valid value is told apart.
        assert str(raised.value).startswith(f"output row 1: {name} must be a {kind.__name__}, "
                                            f"got {type(value).__module__}.")


def test_a_refused_numpy_value_is_named_by_its_type():
    for value, shown in [(np.float32(1.5), "numpy.float32 1.5"),
                         (np.ma.masked, "numpy.ma.core.MaskedConstant --"),
                         (np.array(1.5), "numpy.ndarray 1.5"), (3, "3"), ("x", "'x'")]:
        with pytest.raises(EmitError) as raised:
            emit([ROW, ROW._replace(t_x=value)], "csv")
        assert str(raised.value) == f"output row 1: t_x must be a float, got {shown}"


def _hostile_arrays(valid: np.ndarray) -> dict:
    """Arrays made from ``valid``, a square complex array, for an entry point
    that takes it."""
    n = len(valid)
    return {
        "inf fill": np.full((n, n), np.inf),
        "nan fill": np.full((n, n), np.nan),
        "1e308 fill": np.full((n, n), 1e308),
        "inf entry": np.where(np.eye(n, dtype=bool), np.inf, valid),
        "object": valid.astype(object),
        "object of None": np.full((n, n), None, dtype=object),
        "str": valid.astype(str),
        "bool": np.eye(n, dtype=bool),
        "0-d": np.array(valid[0, 0]),
        "wrong shape": valid[:-1],
        "stacked": valid[np.newaxis],
        "masked": np.ma.masked_array(valid, mask=np.eye(n, dtype=bool)),
        "float16": valid.real.astype(np.float16),
        "clongdouble": valid.astype(np.clongdouble),
    }


# What each hostile array gives: None where the entry point works, on the same
# numbers as ``valid`` where the array holds them (object, str, masked, clongdouble).
# NumPy reads an object array of None as nan and a masked array as its data, so
# those are values, not types: a nan fails a check as for any nan array.
HOSTILE_ARRAY_OUTCOMES = {
    "DensityMatrix": {
        "inf fill": ParameterError, "nan fill": ParameterError, "1e308 fill": ParameterError,
        "inf entry": ParameterError, "object": None, "object of None": ParameterError,
        "str": None, "bool": ParameterError, "0-d": ParameterError,
        "wrong shape": ParameterError, "stacked": ParameterError, "masked": None,
        "float16": ParameterError, "clongdouble": None,
    },
    "steady_state": {
        "inf fill": SingularSystemError, "nan fill": SingularSystemError,
        "1e308 fill": SingularSystemError, "inf entry": SingularSystemError, "object": None,
        "object of None": SingularSystemError, "str": None, "bool": SingularSystemError,
        "0-d": ParameterError, "wrong shape": ParameterError, "stacked": ParameterError,
        "masked": None, "float16": None, "clongdouble": None,
    },
}


@pytest.mark.parametrize("entry", HOSTILE_ARRAY_OUTCOMES)
def test_hostile_arrays_work_or_raise_the_documented_errors(entry):
    # steady_state is fed build_generator's output, made hostile.
    call, valid = {"DensityMatrix": (DensityMatrix, STATE.rho.copy()),
                   "steady_state": (steady_state, build_generator(PARAMS, 1e-3, 0.0))}[entry]
    expected = call(valid)
    arrays = _hostile_arrays(valid)
    assert arrays.keys() == HOSTILE_ARRAY_OUTCOMES[entry].keys()
    for name, array in arrays.items():
        outcome = HOSTILE_ARRAY_OUTCOMES[entry][name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if outcome is not None:
                with pytest.raises(outcome):
                    call(array)
                continue
            result = call(array)
        assert isinstance(result, DensityMatrix), name
        if name != "float16":
            assert np.array_equal(result.rho, expected.rho), name


def test_huge_int_grid_bound_sweeps_as_its_float():
    # NumPy held 2**64 only as an object and np.linspace failed on it.
    expected = emit(run_sweep(SweepConfig(delta_grid=DeltaGrid(-1.0, float(2 ** 64), 3))), "json")
    assert emit(run_sweep(SweepConfig(delta_grid=DeltaGrid(-1.0, 2 ** 64, 3))), "json") == expected


def test_sweep_to_a_nul_path_is_refused_before_any_file_is_made(tmp_path):
    target = os.path.join(tmp_path, "a\0b")
    with pytest.raises(EmitError) as raised:
        write_sweep(SweepConfig(delta_grid=GRID), target)
    assert str(raised.value) == f"cannot write {target!r}: embedded null byte"
    assert os.listdir(tmp_path) == []


def test_cli_config_naming_a_nul_path_exits_1(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("delta_points = 3\noutput = a\0b\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write 'a\\x00b': embedded null byte\n"
    assert os.listdir(tmp_path) == ["sweep.cfg"]
