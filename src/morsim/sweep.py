"""Declarative probe-detuning sweeps and machine-readable output.

A sweep is described by a :class:`SweepConfig`: one base parameter set,
a probe-detuning grid, and an ordered list of named parameter overrides
(variants), each of which produces one output series.  Configs are
written as flat UTF-8 key-value text::

    # base parameters (defaults shown by `morsim --help`)
    Omega = 5
    G1 = 20
    alpha_l = 30
    delta_min = -80
    delta_max = 80
    delta_points = 1601
    engine = both
    format = csv
    output = sweep.csv
    variant resonant: Delta = 5
    variant detuned: Delta = -20

Unknown keys are rejected.  ``G1`` and ``G2`` accept complex literals
such as ``3+4j``.  The probe detuning itself is the sweep axis and may
not be assigned directly.

Built-in presets reproduce the standard operating regimes of the model
(no magnetic field with increasing control power; Zeeman-split medium
with resonant and detuned control; elliptically polarized control).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, replace
from decimal import Context, Decimal
from itertools import repeat
from pathlib import Path

import numpy as np

from . import observables
from .analytic import s_pair, s_pair_grid
from .complexgrid import ComplexGrid
from .core import SusceptibilityPair, SystemParams, validate_params
from .errors import ConfigError, CrossValidationError, EmitError, MorsimError
from .lindblad import probe_response_perturbative, probe_response_perturbative_grid

__all__ = [
    "DeltaGrid",
    "Variant",
    "SweepConfig",
    "OutputRow",
    "parse_config",
    "preset",
    "run_sweep",
    "emit",
    "CSV_HEADER",
    "ENGINES",
    "MAX_DELTA_POINTS",
    "FORMATS",
    "PRESET_NAMES",
]

ENGINES = ("analytic", "numeric", "both")
FORMATS = ("csv", "json")
PRESET_NAMES = ("fig2", "fig3", "fig4")

CSV_HEADER = ("variant", "delta", "re_s_plus", "im_s_plus",
              "re_s_minus", "im_s_minus", "t_y", "t_x", "theta_rad", "engine")

# Maximum tolerated relative disagreement between the analytic and
# numeric engines when running in cross-validation ("both") mode.
CROSS_VALIDATION_TOL = 1e-6

# Largest accepted delta grid: 50x the largest preset grid, about 140 MB
# of rows and output at ~1.4 kB per point.  Checked before the grid is
# built, so an oversized config fails fast instead of exhausting memory.
MAX_DELTA_POINTS = 100_000

_PARAM_KEYS = ("gamma1", "gamma2", "Gamma1", "Gamma2",
               "Omega", "Delta", "G1", "G2", "alpha_l")
_COMPLEX_KEYS = ("G1", "G2")
_GRID_KEYS = ("delta_min", "delta_max", "delta_points")
_META_KEYS = ("engine", "format", "output")

_TWELVE_DIGITS = Context(prec=12)


@dataclass(frozen=True)
class DeltaGrid:
    """Uniform probe-detuning grid, ``points`` samples on [min, max]."""

    min: float
    max: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.points)


@dataclass(frozen=True)
class Variant:
    """Named override of base parameters producing one output series."""

    name: str
    overrides: dict = field(default_factory=dict)

    def apply(self, base: SystemParams) -> SystemParams:
        return replace(base, **self.overrides)


@dataclass(frozen=True)
class SweepConfig:
    base: SystemParams = field(default_factory=SystemParams)
    delta_grid: DeltaGrid = DeltaGrid(-150.0, 150.0, 2001)
    variants: tuple[Variant, ...] = (Variant("base"),)
    engine: str = "both"
    out_format: str = "csv"
    out_path: str | None = None


@dataclass(frozen=True)
class OutputRow:
    """One spectral sample: detuning plus every derived observable."""

    variant: str
    delta: float
    re_s_plus: float
    im_s_plus: float
    re_s_minus: float
    im_s_minus: float
    t_y: float
    t_x: float
    theta_rad: float
    engine: str

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_HEADER}


def validate_config(cfg: SweepConfig) -> SweepConfig:
    """Check grid, enums and every merged variant; return ``cfg``."""
    grid = cfg.delta_grid
    if not (math.isfinite(grid.min) and math.isfinite(grid.max)):
        raise ConfigError(f"nonfinite delta grid bounds: [{grid.min}, {grid.max}]")
    if not grid.min < grid.max:
        raise ConfigError(f"delta_min must be < delta_max (got {grid.min} >= {grid.max})")
    if not math.isfinite(grid.max - grid.min):
        raise ConfigError(f"delta grid span overflows: [{grid.min}, {grid.max}]")
    if grid.points < 2:
        raise ConfigError(f"delta_points must be >= 2 (got {grid.points})")
    if grid.points > MAX_DELTA_POINTS:
        raise ConfigError(f"delta_points must be <= {MAX_DELTA_POINTS} (got {grid.points})")
    if cfg.engine not in ENGINES:
        raise ConfigError(f"engine must be one of {'|'.join(ENGINES)} (got {cfg.engine!r})")
    if cfg.out_format not in FORMATS:
        raise ConfigError(f"format must be one of {'|'.join(FORMATS)} (got {cfg.out_format!r})")
    if not cfg.variants:
        raise ConfigError("config defines no variants")
    seen = set()
    for variant in cfg.variants:
        if variant.name in seen:
            raise ConfigError(f"duplicate variant name {variant.name!r}")
        seen.add(variant.name)
        try:
            validate_params(variant.apply(cfg.base))
        except (MorsimError, TypeError) as exc:
            raise ConfigError(f"variant {variant.name!r}: {exc}") from exc
    return cfg


def _parse_value(key: str, text: str, line_no: int):
    text = text.strip()
    try:
        if key in _COMPLEX_KEYS:
            return complex(text)
        if key != "delta_points":
            if key in _GRID_KEYS or key in _PARAM_KEYS:
                return float(text)
            return text  # meta keys stay strings
        points = int(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {text!r}", line=line_no) from exc
    if points > MAX_DELTA_POINTS:
        raise ConfigError(f"delta_points must be <= {MAX_DELTA_POINTS} (got {points})",
                          line=line_no)
    return points


def _check_key(key: str, allowed: tuple[str, ...], line_no: int) -> None:
    if key == "delta":
        raise ConfigError(
            "delta is the sweep axis; set delta_min/delta_max/delta_points instead",
            line=line_no,
        )
    if key not in allowed:
        raise ConfigError(f"unknown key {key!r}", line=line_no)


def parse_config(text: str) -> SweepConfig:
    """Parse flat key-value config text into a validated SweepConfig.

    Raises
    ------
    ConfigError
        With the offending line number for syntax problems, or naming
        the offending key for semantic ones.
    """
    base_values: dict = {}
    grid_values: dict = {}
    meta_values: dict = {}
    variants: list[Variant] = []
    assigned: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue

        head = line.split(None, 1)
        if head[0] == "variant":
            if len(head) < 2 or ":" not in head[1]:
                raise ConfigError(
                    "variant line must read: variant <name>: key=value[, key=value...]",
                    line=line_no,
                )
            name, override_text = head[1].split(":", 1)
            name = name.strip()
            if not name:
                raise ConfigError("variant name is empty", line=line_no)
            overrides: dict = {}
            override_text = override_text.strip()
            if override_text:
                for item in override_text.split(","):
                    if "=" not in item:
                        raise ConfigError(
                            f"variant override {item.strip()!r} is not key=value",
                            line=line_no,
                        )
                    key, value = item.split("=", 1)
                    key = key.strip()
                    _check_key(key, _PARAM_KEYS, line_no)
                    if key in overrides:
                        raise ConfigError(f"duplicate override {key!r}", line=line_no)
                    overrides[key] = _parse_value(key, value, line_no)
            variants.append(Variant(name=name, overrides=overrides))
            continue

        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=line_no)
        key, value = line.split("=", 1)
        key = key.strip()
        _check_key(key, _PARAM_KEYS + _GRID_KEYS + _META_KEYS, line_no)
        if key in assigned:
            raise ConfigError(f"duplicate key {key!r}", line=line_no)
        assigned.add(key)
        parsed = _parse_value(key, value, line_no)
        if key in _PARAM_KEYS:
            base_values[key] = parsed
        elif key in _GRID_KEYS:
            grid_values[key] = parsed
        else:
            meta_values[key] = parsed.strip() if isinstance(parsed, str) else parsed

    default = SweepConfig()
    grid = DeltaGrid(
        min=grid_values.get("delta_min", default.delta_grid.min),
        max=grid_values.get("delta_max", default.delta_grid.max),
        points=grid_values.get("delta_points", default.delta_grid.points),
    )
    cfg = SweepConfig(
        base=SystemParams(**base_values),
        delta_grid=grid,
        variants=tuple(variants) if variants else (Variant("base"),),
        engine=meta_values.get("engine", default.engine),
        out_format=meta_values.get("format", default.out_format),
        out_path=meta_values.get("output"),
    )
    return validate_config(cfg)


def preset(name: str) -> SweepConfig:
    """Built-in sweep reproducing one of the standard regimes.

    fig2: no magnetic field, resonant sigma- control of increasing
    strength (control-induced birefringence and Autler-Townes doublet).
    fig3: Zeeman-split medium, sigma- control, resonant and detuned
    (rotation enhancement).
    fig4: elliptically polarized control (both components driven).
    """
    if name == "fig2":
        return SweepConfig(
            base=SystemParams(Omega=0.0, Delta=0.0, G1=0.0, G2=0.0, alpha_l=30.0),
            delta_grid=DeltaGrid(-150.0, 150.0, 2001),
            variants=(
                Variant("G1=20", {"G1": 20.0}),
                Variant("G1=50", {"G1": 50.0}),
                Variant("G1=100", {"G1": 100.0}),
            ),
            engine="both",
            out_format="csv",
            out_path="fig2.csv",
        )
    if name == "fig3":
        return SweepConfig(
            base=SystemParams(Omega=5.0, Delta=5.0, G1=0.0, G2=0.0, alpha_l=30.0),
            delta_grid=DeltaGrid(-80.0, 80.0, 1601),
            variants=(
                Variant("G1=0 Delta=5", {"G1": 0.0, "Delta": 5.0}),
                Variant("G1=20 Delta=5", {"G1": 20.0, "Delta": 5.0}),
                Variant("G1=50 Delta=5", {"G1": 50.0, "Delta": 5.0}),
                Variant("G1=20 Delta=-20", {"G1": 20.0, "Delta": -20.0}),
                Variant("G1=20 Delta=-30", {"G1": 20.0, "Delta": -30.0}),
            ),
            engine="both",
            out_format="csv",
            out_path="fig3.csv",
        )
    if name == "fig4":
        return SweepConfig(
            base=SystemParams(Omega=5.0, Delta=5.0, G1=0.0, G2=10.0, alpha_l=30.0),
            delta_grid=DeltaGrid(-80.0, 80.0, 1601),
            variants=(
                Variant("G1=0", {"G1": 0.0}),
                Variant("G1=20", {"G1": 20.0}),
                Variant("G1=50", {"G1": 50.0}),
            ),
            engine="both",
            out_format="csv",
            out_path="fig4.csv",
        )
    raise ConfigError(f"unknown preset {name!r} (choose from {', '.join(PRESET_NAMES)})")


def _make_row(variant: str, delta: float, pair: SusceptibilityPair,
              alpha_l: float, engine: str) -> OutputRow:
    return OutputRow(
        variant=variant,
        delta=float(delta),
        re_s_plus=pair.s_plus.real,
        im_s_plus=pair.s_plus.imag,
        re_s_minus=pair.s_minus.real,
        im_s_minus=pair.s_minus.imag,
        t_y=observables.transmission_y(pair, alpha_l),
        t_x=observables.transmission_x(pair, alpha_l),
        theta_rad=observables.rotation_angle(pair, alpha_l),
        engine=engine,
    )


def _rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _rel_err_grid(a: ComplexGrid, b: ComplexGrid) -> np.ndarray:
    """:func:`_rel_err` at every grid point."""
    scale = np.maximum(abs(a), abs(b))
    return np.where(scale > 0, abs(a - b) / scale, 0.0)


def _scalar_series(name: str, merged: SystemParams, deltas: np.ndarray, engine: str):
    """One variant evaluated point by point through the scalar functions.

    Returns its rows and its worst cross-validation error as
    ``(error, variant, delta)``, or None outside ``both`` mode.
    """
    rows: list[OutputRow] = []
    worst = None
    for delta in deltas:
        p = replace(merged, delta=float(delta))
        try:
            if engine in ("analytic", "both"):
                analytic_pair = s_pair(p)
                rows.append(_make_row(name, delta, analytic_pair, p.alpha_l, "analytic"))
            if engine in ("numeric", "both"):
                numeric_pair = probe_response_perturbative(p)
                rows.append(_make_row(name, delta, numeric_pair, p.alpha_l, "numeric"))
        except MorsimError as exc:
            raise type(exc)(f"variant {name!r}, delta={float(delta)}: {exc}") from exc
        if engine == "both":
            err = max(_rel_err(analytic_pair.s_plus, numeric_pair.s_plus),
                      _rel_err(analytic_pair.s_minus, numeric_pair.s_minus))
            if worst is None or err > worst[0]:
                worst = (err, name, float(delta))
    return rows, worst


def _grid_series(name: str, merged: SystemParams, deltas: np.ndarray, engine: str):
    """:func:`_scalar_series` evaluated as whole-grid columns.

    Returns None when a check fails or a value is not finite: there the
    grid cannot promise the scalar functions' errors and values, so the
    caller falls back to :func:`_scalar_series`.
    """
    pairs = {}
    try:
        if engine in ("analytic", "both"):
            pairs["analytic"] = s_pair_grid(merged, deltas)
        if engine in ("numeric", "both"):
            pairs["numeric"] = probe_response_perturbative_grid(merged, deltas)
    except MorsimError:
        return None
    n = len(deltas)
    delta_column = deltas.tolist()
    series = []
    for label, (s_plus, s_minus) in pairs.items():
        columns = (s_plus.re, s_plus.im, s_minus.re, s_minus.im,
                   *observables.observables_grid(s_plus, s_minus, merged.alpha_l))
        if not all(np.isfinite(c).all() for c in columns):
            return None
        series.append(list(map(OutputRow, repeat(name, n), delta_column,
                               *(c.tolist() for c in columns), repeat(label, n))))
    worst = None
    if engine == "both":
        (a_plus, a_minus), (n_plus, n_minus) = pairs["analytic"], pairs["numeric"]
        err = np.maximum(_rel_err_grid(a_plus, n_plus), _rel_err_grid(a_minus, n_minus))
        if not np.isfinite(err).all():
            return None
        i = int(np.argmax(err))
        worst = (float(err[i]), name, delta_column[i])
        rows = [None] * (2 * n)
        rows[0::2], rows[1::2] = series
        return rows, worst
    return series[0], worst


def run_sweep(cfg: SweepConfig) -> list[OutputRow]:
    """Evaluate every (variant, delta) sample in deterministic order.

    Rows are ordered by variant (as declared), then ascending delta; in
    ``both`` mode each sample yields an analytic row immediately
    followed by the numeric one, and the whole sweep fails if the two
    engines disagree beyond ``CROSS_VALIDATION_TOL`` anywhere (the
    worst-offending row is reported).

    Each variant is evaluated over its whole delta grid at once, with
    the same values, checks and errors as the scalar functions point by
    point.  A variant where a check fails or a value is not finite is
    evaluated point by point instead, so its errors name the first
    failing sample exactly as the scalar functions report it.
    """
    validate_config(cfg)
    deltas = cfg.delta_grid.values()
    rows: list[OutputRow] = []
    worst: tuple[float, str, float] | None = None

    for variant in cfg.variants:
        merged = variant.apply(cfg.base)
        with np.errstate(all="ignore"):
            result = _grid_series(variant.name, merged, deltas, cfg.engine)
        if result is None:
            result = _scalar_series(variant.name, merged, deltas, cfg.engine)
        series, series_worst = result
        rows.extend(series)
        if series_worst is not None and (worst is None or series_worst[0] > worst[0]):
            worst = series_worst

    if worst is not None and worst[0] > CROSS_VALIDATION_TOL:
        raise CrossValidationError(
            f"analytic and numeric engines disagree: worst relative error "
            f"{worst[0]:.3e} at variant {worst[1]!r}, delta={worst[2]} "
            f"(tolerance {CROSS_VALIDATION_TOL:.0e})"
        )
    return rows


def _nonfinite(x: float) -> EmitError:
    return EmitError(f"nonfinite value in output row: {x!r}")


def _format_number(x: float) -> str:
    """Positional decimal with 12 significant digits.

    Values are rounded to 12 significant digits and printed without
    exponent notation, so repeated runs are byte-identical and parsing
    recovers the value to better than 1e-11 relative.
    """
    if not math.isfinite(x):
        raise _nonfinite(x)
    if x == 0.0:
        return "0"
    return format(_TWELVE_DIGITS.create_decimal(Decimal(x)), "f")


def _csv_bytes(rows: list[OutputRow]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.variant,
            _format_number(row.delta),
            _format_number(row.re_s_plus),
            _format_number(row.im_s_plus),
            _format_number(row.re_s_minus),
            _format_number(row.im_s_minus),
            _format_number(row.t_y),
            _format_number(row.t_x),
            _format_number(row.theta_rad),
            row.engine,
        ])
    return buffer.getvalue().encode("utf-8")


def _json_bytes(rows: list[OutputRow]) -> bytes:
    payload = [row.as_dict() for row in rows]
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        # NaN and Infinity are not JSON; name the first one, as the CSV path does.
        bad = next(value for row in payload for value in row.values()
                   if isinstance(value, float) and not math.isfinite(value))
        raise _nonfinite(bad) from None
    return (text + "\n").encode("utf-8")


def emit(rows: list[OutputRow], out_format: str, destination=None) -> bytes:
    """Serialize rows and optionally write them out.

    ``destination`` may be None (return bytes only), a path, or a
    binary file-like object.  Output is deterministic byte-for-byte for
    identical rows.
    """
    if not rows:
        raise EmitError("no rows to emit")
    if out_format == "csv":
        data = _csv_bytes(rows)
    elif out_format == "json":
        data = _json_bytes(rows)
    else:
        raise EmitError(f"unknown output format {out_format!r}")

    if destination is not None:
        if hasattr(destination, "write"):
            destination.write(data)
        else:
            try:
                Path(destination).write_bytes(data)
            except OSError as exc:
                raise EmitError(f"cannot write {destination}: {exc}") from exc
    return data
