"""Declarative probe-detuning sweeps and machine-readable output.

A sweep is described by a :class:`SweepConfig`: one base parameter set,
a probe-detuning grid, and an ordered list of named parameter overrides
(variants), each of which produces one output series.  Configs are
written as flat UTF-8 key-value text::

    # base parameters (any omitted key keeps its default)
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

import contextlib
import csv
import errno
import io
import math
import operator
import os
import shutil
import stat
import tempfile
from dataclasses import dataclass, field, replace
from decimal import Context, Decimal
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, get_type_hints

import numpy as np

from .analytic import s_pair_grid
from .complexgrid import ComplexGrid
from .core import (_COMPLEX_FIELDS, _VARIANT_FIELDS, ParamColumns, SystemParams, _check_type,
                   _first_failure, _real, _shown, validate_params)
from .errors import ConfigError, CrossValidationError, EmitError, MorsimError, NumericError
from .lindblad import probe_response_perturbative_grid
from .observables import observables_grid

__all__ = [
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
    "ENGINES",
    "MAX_DELTA_POINTS",
    "MAX_CONFIG_BYTES",
    "FORMATS",
    "PRESET_NAMES",
]

ENGINES = ("analytic", "numeric", "both")
FORMATS = ("csv", "json")

# Maximum tolerated relative disagreement between the analytic and
# numeric engines when running in cross-validation ("both") mode.
CROSS_VALIDATION_TOL = 1e-6

# Largest accepted delta grid: 50x the largest preset grid, about 140 MB
# of rows and output at ~1.4 kB per point.  Checked before the grid is
# built, so an oversized config fails fast instead of exhausting memory.
MAX_DELTA_POINTS = 100_000

# Largest config file accepted (room for 10,000 variant lines); no more of it is read.
MAX_CONFIG_BYTES = 1 << 20

_GRID_KEYS = ("delta_min", "delta_max", "delta_points")
# The keys of a base line; a variant override takes _VARIANT_FIELDS only.
_BASE_KEYS = (*_VARIANT_FIELDS, *_GRID_KEYS, "engine", "format", "output")

_DELTA_IS_THE_AXIS = "delta is the sweep axis; set delta_min/delta_max/delta_points instead"

_TWELVE_DIGITS = Context(prec=12)


@dataclass(frozen=True)
class DeltaGrid:
    """Uniform probe-detuning grid, ``points`` samples on [min, max]."""

    min: float
    max: float
    points: int

    def values(self) -> np.ndarray:
        return np.linspace(_real(self.min), _real(self.max), self.points)


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


class OutputRow(NamedTuple):
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
        return self._asdict()


# The output columns and the type of each, from OutputRow.
CSV_HEADER = OutputRow._fields
_KINDS = tuple(get_type_hints(OutputRow).values())


def validate_config(cfg: SweepConfig) -> SweepConfig:
    """Check grid, enums and every merged variant; return ``cfg``."""
    _variant_params(cfg)
    return cfg


def _check_settings(cfg: SweepConfig) -> None:
    """The checks of :func:`validate_config` on the grid, engine and format."""
    grid = cfg.delta_grid
    try:  # every grid value's type before any value
        low, high = _real(grid.min), _real(grid.max)
        operator.index(grid.points)  # any integer, a bool included
    except TypeError as exc:
        raise ConfigError("delta grid needs real bounds and integer points "
                          f"(got {_shown(grid)})") from exc
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ConfigError(f"nonfinite delta grid bounds: [{_shown(grid.min)}, {_shown(grid.max)}]")
    if not low < high:
        raise ConfigError("delta_min must be < delta_max "
                          f"(got {_shown(grid.min)} >= {_shown(grid.max)})")
    if not math.isfinite(high - low):
        raise ConfigError(f"delta grid span overflows: [{_shown(grid.min)}, {_shown(grid.max)}]")
    if grid.points < 2:
        raise ConfigError(f"delta_points must be >= 2 (got {_shown(grid.points)})")
    if grid.points > MAX_DELTA_POINTS:
        raise ConfigError(f"delta_points must be <= {MAX_DELTA_POINTS} (got {_shown(grid.points)})")
    for key, value, names in (("engine", cfg.engine, ENGINES), ("format", cfg.out_format, FORMATS)):
        if value not in names:
            raise ConfigError(f"{key} must be one of {'|'.join(names)} (got {_shown(value)})")
    if cfg.out_path == "":
        raise ConfigError("output path is empty")


def _variant_params(cfg: SweepConfig) -> tuple[SystemParams, ...]:
    """The checks of :func:`validate_config`; returns each variant's
    parameters merged onto the base, in declared order."""
    _check_type(cfg, SweepConfig, "cfg")
    _check_type(cfg.delta_grid, DeltaGrid, "delta_grid")
    _check_settings(cfg)
    # The sweep sets each row's delta, so it would drop one set on the base or a variant.
    # A base with no delta is no SystemParams; the merge below refuses it.
    if getattr(cfg.base, "delta", 0.0) != 0.0:
        raise ConfigError(f"base: {_DELTA_IS_THE_AXIS}")
    if not cfg.variants:
        raise ConfigError("config defines no variants")
    seen, merged = set(), []
    for variant in cfg.variants:
        _check_type(variant, Variant, "variant")
        if not isinstance(variant.name, str):
            raise ConfigError(f"variant name must be a str (got {_shown(variant.name)})")
        if variant.name in seen:
            raise ConfigError(f"duplicate variant name {_shown(variant.name)}")
        seen.add(variant.name)
        try:
            merged.append(validate_params(variant.apply(cfg.base)))
        except (MorsimError, TypeError) as exc:
            raise ConfigError(f"variant {_shown(variant.name)}: {exc}") from exc
        # Checked after the merge, which has shown the overrides to be a mapping.
        if "delta" in variant.overrides:
            raise ConfigError(f"variant {_shown(variant.name)}: {_DELTA_IS_THE_AXIS}")
    return tuple(merged)


def _parse_value(key: str, text: str, line_no: int):
    text = text.strip()
    if key == "output" and not text:
        raise ConfigError("output path is empty", line=line_no)
    if key not in _GRID_KEYS and key not in _VARIANT_FIELDS:
        return text  # meta keys stay strings
    try:
        # Python reads more than a config's numbers: "_" separators, non-ASCII digits.
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        if key in _COMPLEX_FIELDS:
            return complex(text)
        if key != "delta_points":
            return float(text)
        points = int(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {_shown(text)}", line=line_no) from exc
    if points > MAX_DELTA_POINTS:
        raise ConfigError(f"delta_points must be <= {MAX_DELTA_POINTS} (got {_shown(points)})",
                          line=line_no)
    return points


def _assign(values: dict, assignment: str, allowed: tuple[str, ...], kind: str,
            line_no: int) -> None:
    """Check the key of ``key = value`` text and store its parsed value in ``values``."""
    key, text = assignment.split("=", 1)
    key = key.strip()
    if key == "delta":
        raise ConfigError(_DELTA_IS_THE_AXIS, line=line_no)
    if key not in allowed:
        raise ConfigError(f"unknown key {_shown(key)}", line=line_no)
    if key in values:
        raise ConfigError(f"duplicate {kind} {_shown(key)}", line=line_no)
    values[key] = _parse_value(key, text, line_no)


def parse_config(text: str) -> SweepConfig:
    """Parse flat key-value config text into a validated SweepConfig.

    Raises
    ------
    ConfigError
        With the offending line number for syntax problems, or naming
        the offending key for semantic ones.
    """
    return validate_config(_read_config(text))


def _read_config(text: str) -> SweepConfig:
    """:func:`parse_config` without merging and checking the variants."""
    # A UTF-8 byte-order mark is not part of the first line; text that is no str is a TypeError.
    text = str.removeprefix(text, "\ufeff")
    values: dict = {}
    variants: list[Variant] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue

        head = line.split(None, 1)
        if head[0] != "variant":
            if "=" not in line:
                raise ConfigError(f"expected key = value, got {_shown(line)}", line=line_no)
            _assign(values, line, _BASE_KEYS, "key", line_no)
            continue
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
                    raise ConfigError(f"variant override {_shown(item.strip())} is not key=value",
                                      line=line_no)
                _assign(overrides, item, _VARIANT_FIELDS, "override", line_no)
        variants.append(Variant(name=name, overrides=overrides))

    default = SweepConfig()
    cfg = SweepConfig(
        base=SystemParams(**{key: values[key] for key in _VARIANT_FIELDS if key in values}),
        delta_grid=DeltaGrid(
            min=values.get("delta_min", default.delta_grid.min),
            max=values.get("delta_max", default.delta_grid.max),
            points=values.get("delta_points", default.delta_grid.points),
        ),
        variants=tuple(variants) or default.variants,
        engine=values.get("engine", default.engine),
        out_format=values.get("format", default.out_format),
        out_path=values.get("output"),
    )
    _check_settings(cfg)
    return cfg


# Each preset: base parameters, grid, and (name, overrides) per variant; names are output bytes.
_PRESETS = {
    "fig2": (SystemParams(Omega=0.0, Delta=0.0, G1=0.0, G2=0.0, alpha_l=30.0),
             DeltaGrid(-150.0, 150.0, 2001),
             (("G1=20", {"G1": 20.0}), ("G1=50", {"G1": 50.0}), ("G1=100", {"G1": 100.0}))),
    "fig3": (SystemParams(Omega=5.0, Delta=5.0, G1=0.0, G2=0.0, alpha_l=30.0),
             DeltaGrid(-80.0, 80.0, 1601),
             (("G1=0 Delta=5", {"G1": 0.0, "Delta": 5.0}),
              ("G1=20 Delta=5", {"G1": 20.0, "Delta": 5.0}),
              ("G1=50 Delta=5", {"G1": 50.0, "Delta": 5.0}),
              ("G1=20 Delta=-20", {"G1": 20.0, "Delta": -20.0}),
              ("G1=20 Delta=-30", {"G1": 20.0, "Delta": -30.0}))),
    "fig4": (SystemParams(Omega=5.0, Delta=5.0, G1=0.0, G2=10.0, alpha_l=30.0),
             DeltaGrid(-80.0, 80.0, 1601),
             (("G1=0", {"G1": 0.0}), ("G1=20", {"G1": 20.0}), ("G1=50", {"G1": 50.0}))),
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> SweepConfig:
    """Built-in sweep reproducing one of the standard regimes.

    fig2: no magnetic field, resonant sigma- control of increasing
    strength (control-induced birefringence and Autler-Townes doublet).
    fig3: Zeeman-split medium, sigma- control, resonant and detuned
    (rotation enhancement).
    fig4: elliptically polarized control (both components driven).
    Each call returns new variants, whose overrides the caller may change.
    """
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {_shown(name)} (choose from {', '.join(PRESET_NAMES)})")
    base, grid, variants = _PRESETS[name]
    return SweepConfig(base=base, delta_grid=grid,
                       variants=tuple(Variant(v, dict(overrides)) for v, overrides in variants))


def _rel_err_grid(a: ComplexGrid, b: ComplexGrid) -> np.ndarray:
    """``|a - b| / max(|a|, |b|)`` at every grid point, 0 where both vanish."""
    scale = np.maximum(abs(a), abs(b))
    return np.where(scale > 0, abs(a - b) / scale, 0.0)


# (variant, delta) points evaluated together: the columns of one block,
# not of the whole sweep, are alive at once.  8,192 holds every preset
# (fig3, the largest, has 8,005 points) in one block, and a 100,000-point
# sweep peaks at about half the memory that 65,536 took, no slower.
_BLOCK_ROWS = 1 << 13


class _Columns(NamedTuple):
    """Output rows as columns: ``str`` lists of names and engines, and the
    number columns as the rows of one finite float64 matrix, delta first.

    _evaluate_block and _row_columns refuse any other value; the writer only formats."""

    variant: list
    numbers: np.ndarray
    engine: list


def _evaluate_block(cfg: SweepConfig, deltas: np.ndarray, table: ParamColumns,
                    start: int, stop: int) -> tuple[_Columns, np.ndarray | None]:
    """Output columns of the points ``start`` to ``stop`` in row order.

    Returns them and, in ``both`` mode, the relative disagreement of the
    engines at each point (else None).  Raises the first failure in row
    order, by point, then analytic before numeric: a check the engine
    fails there, or an output value that is not finite.
    """
    variant, index = np.divmod(np.arange(start, stop), len(deltas))
    rows = table.take(variant, deltas[index])
    engines = {"analytic": s_pair_grid, "numeric": probe_response_perturbative_grid}
    pairs = {label: engine(rows) for label, engine in engines.items()
             if cfg.engine in (label, "both")}
    columns, failures = [], []
    with np.errstate(all="ignore"):
        # Per engine, its own failure, then its first nonfinite value; min keeps the first of a tie.
        for label, (s_plus, s_minus, failure) in pairs.items():
            values = np.stack((rows.delta, s_plus.re, s_plus.im, s_minus.re, s_minus.im,
                               *observables_grid(s_plus, s_minus, rows.alpha_l)))
            nonfinite = _first_failure([
                (finite, lambda i, j=j: NumericError(
                    f"nonfinite {label} value {CSV_HEADER[1 + j]}={float(values[j, i])!r}"))
                for j, finite in enumerate(np.isfinite(values))])
            failures += filter(None, (failure, nonfinite))
            columns.append(values)
        if failures:
            i, exc = min(failures, key=lambda f: f[0])
            raise type(exc)(f"variant {_shown(cfg.variants[variant[i]].name)}, "
                            f"delta={float(rows.delta[i])}: {exc}") from exc
        err = None
        if cfg.engine == "both":
            (a_plus, a_minus, _), (n_plus, n_minus, _) = pairs.values()
            err = np.maximum(_rel_err_grid(a_plus, n_plus), _rel_err_grid(a_minus, n_minus))

    names = [v.name for v in cfg.variants]
    labels = list(pairs)
    # Each point gives one row per engine, in the order of ``labels``.
    return _Columns(
        variant=list(map(names.__getitem__, np.repeat(variant, len(labels)).tolist())),
        numbers=np.stack(columns, axis=-1).reshape(8, -1),
        engine=labels * len(rows.delta),
    ), err


def _blocks(cfg: SweepConfig, params: tuple[SystemParams, ...]) -> Iterator[_Columns]:
    """The sweep's output columns, one block of at most _BLOCK_ROWS points at a time.

    Points are ordered by variant (as declared), then ascending delta.
    A block raises the first failure in its rows before it is yielded.
    In ``both`` mode, after the last block, the whole sweep fails if the
    two engines disagree beyond ``CROSS_VALIDATION_TOL`` anywhere (the
    first worst point of the sweep is reported).  ``params`` are the
    variants' parameters from :func:`_variant_params`.
    """
    deltas = cfg.delta_grid.values()
    table = ParamColumns(params)
    total = len(cfg.variants) * len(deltas)
    worst = None
    for start in range(0, total, _BLOCK_ROWS):
        block, err = _evaluate_block(cfg, deltas, table, start, min(start + _BLOCK_ROWS, total))
        if err is not None:
            j = int(np.argmax(err))
            # The first worst point; a nan disagreement counts as the worst.
            if worst is None or not (np.isnan(worst[0]) or err[j] <= worst[0]):
                worst = (float(err[j]), start + j)
        yield block
        # Only one block is alive at a time: this one goes before the next is evaluated.
        del block, err
    if worst is not None and not worst[0] <= CROSS_VALIDATION_TOL:
        v, i = divmod(worst[1], len(deltas))
        raise CrossValidationError(
            f"analytic and numeric engines disagree: worst relative error "
            f"{worst[0]:.3e} at variant {_shown(cfg.variants[v].name)}, delta={float(deltas[i])} "
            f"(tolerance {CROSS_VALIDATION_TOL:.0e})"
        )


def run_sweep(cfg: SweepConfig) -> list[OutputRow]:
    """Evaluate every (variant, delta) sample in deterministic order.

    Rows are ordered by variant (as declared), then ascending delta; in
    ``both`` mode each sample yields an analytic row immediately
    followed by the numeric one, and the whole sweep fails if the two
    engines disagree beyond ``CROSS_VALIDATION_TOL`` anywhere (the
    worst-offending row is reported).

    The sweep is evaluated in blocks of (variant, delta) points, every
    parameter a column like the detuning, with the values of the scalar
    functions point by point.  The first failure in row order is
    raised, prefixed with its variant and detuning: the error the
    scalar function raises there, or a :class:`NumericError` for an
    output value that is not finite.
    """
    rows: list[OutputRow] = []
    for block in _blocks(cfg, _variant_params(cfg)):
        rows += map(OutputRow, block.variant, *block.numbers.tolist(), block.engine)
    return rows


def _format_number(x: float) -> str:
    """Positional decimal with 12 significant digits of a finite ``x``.

    Values are rounded to 12 significant digits and printed without
    exponent notation, so repeated runs are byte-identical and parsing
    recovers the value to better than 1e-11 relative.  A value whose
    exact binary expansion has fewer digits prints exactly (``20``,
    ``0.5``).
    """
    if x == 0.0:
        return "0"
    return format(_TWELVE_DIGITS.create_decimal(Decimal(x)), "f")


# Rows are serialized in chunks of this many, so the text of one chunk,
# not of a whole block, is alive at once.  JSON takes a quarter: its digit
# pass over 4,096 rows raised the scan workload's peak memory by 16%.
_CHUNK_ROWS = 4096
_JSON_CHUNK_ROWS = 1024

# 10**p for the precisions at which it is a float exactly (5**22 < 2**53).
_POWERS_OF_TEN = np.array([float(10 ** p) for p in range(23)])


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of float64 ``v`` into ``hi + lo`` exactly, each of at most 26 bits."""
    scaled = v * 134217729.0  # 2**27 + 1
    hi = scaled - (scaled - v)
    return hi, v - hi


# Each power of ten of _POWERS_OF_TEN and its split.
_POWER_PARTS = np.stack((_POWERS_OF_TEN, *_split(_POWERS_OF_TEN)))


def _chunks(columns: _Columns, rows: int) -> Iterator[_Columns]:
    """``columns`` in chunks of ``rows`` rows."""
    variant, numbers, engine = columns
    for start in range(0, len(variant), rows):
        stop = start + rows
        yield _Columns(variant[start:stop], numbers[:, start:stop], engine[start:stop])


def _shown_with_type(value) -> str:
    """``value`` in a message, after its type's name unless the type is built in,
    so that a NumPy value whose text reads like a valid one is told apart."""
    kind = type(value)
    if kind.__module__ == "builtins":
        return _shown(value)
    return f"{kind.__module__}.{kind.__qualname__} {_shown(value)}"


def _row_columns(rows: list[OutputRow]) -> _Columns:
    """``rows`` as one block of columns.

    Raises an EmitError for the first row without one value per column, else
    the first value, in row order, that is not a ``str`` name or a ``float``
    number (subclasses included), else the first nonfinite number.
    """
    for i, row in enumerate(rows):
        try:
            got = len(row)
        except TypeError:  # not a sequence
            got = f"{type(row).__name__} {_shown(row)}"
        if got != len(CSV_HEADER):
            raise EmitError(f"output row {i}: expected {len(CSV_HEADER)} fields, got {got}")
    columns = list(zip(*rows))
    bad = [next((i, j, v) for i, v in enumerate(column) if not issubclass(type(v), kind))
           for j, (kind, column) in enumerate(zip(_KINDS, columns))
           if not all(issubclass(t, kind) for t in set(map(type, column)))]
    if bad:
        i, j, value = min(bad, key=lambda b: b[:2])
        raise EmitError(f"output row {i}: {CSV_HEADER[j]} must be a "
                        f"{_KINDS[j].__name__}, got {_shown_with_type(value)}")
    variant, *numbers, engine = columns
    numbers = np.array(numbers, float)
    nonfinite = _first_failure([
        (finite, lambda i, j=j: EmitError(
            f"nonfinite value in output row: {float(numbers[j, i])!r}"))
        for j, finite in enumerate(np.isfinite(numbers))])
    if nonfinite:
        raise nonfinite[1]
    return _Columns(list(variant), numbers, list(engine))


_NOT_UTF8 = "holds a lone surrogate, which UTF-8 cannot encode"


def _not_utf8(names: Iterable[str]) -> set[str]:
    """Those of ``names`` that a CSV file cannot hold: UTF-8 cannot encode them."""
    bad = set()
    for name in names:
        try:
            name.encode()
        except UnicodeEncodeError:
            bad.add(name)
    return bad


def _csv_precisions(x: np.ndarray) -> np.ndarray:
    """The "%.*f" precision that prints each value of ``x`` as _format_number does.

    The value rounded to 12 significant digits has decimal exponent
    ``e``; its digits end ``11 - e`` places after the point, and "%.*f"
    rounds the exact binary value half to even there, as the ``Decimal``
    context does.  A short binary fraction ``n / 2**k`` (``x * 2**17``
    integral) has exactly ``k`` decimal places, so where ``k <= 11 - e``
    it prints unrounded and unpadded at precision ``k``; any other value
    has more than 12 digits (``k >= 18`` gives 13).  The precision
    is negative at zero, where ``log10`` lies within 1e-10 of an integer
    (rounding may carry into the next decade, and ``floor(log10)`` may be
    off by one), and at ``e >= 12`` (padding zeros before the point).
    """
    with np.errstate(all="ignore"):
        magnitude = np.log10(np.abs(x))
        precision = 11 - np.floor(magnitude)
        scaled = x * 2.0 ** 17
        short = np.nonzero((scaled == np.floor(scaled)) & (precision >= 0))
        # x = n / 2**17 = (n / 2**t) / 2**(17 - t) with 2**t = gcd(n, 2**17): k = 17 - t places.
        places = 18 - np.frexp(np.gcd(scaled[short].astype(np.int64), 1 << 17))[1]
        precision[short] = np.minimum(places, precision[short])
        exact = (np.isfinite(magnitude) & (precision >= 0)
                 & (np.abs(magnitude - np.rint(magnitude)) >= 1e-10))
        return np.where(exact, precision, -1).astype(int)


def _csv_field(value) -> str:
    """``value`` as csv.writer writes it inside a row, quoted if it must be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value, ""])
    return buffer.getvalue()[:-2]


def _csv_digits(x: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """The integer whose digits "%.*f" prints for each value of ``x`` at its
    ``precision``, nan where that is not proven.

    For ``0 <= p <= 22``, ``10**p`` is a float exactly, so ``s = x * 10**p``
    is rounded once: ``|s - x·10**p| <= |s|·2**-53``.  Where ``k = rint(s)``
    is nonzero and ``|s - k| < 0.5 - |s|·2**-51``, the exact ``x·10**p``
    lies strictly inside ``(k - 0.5, k + 0.5)``.  "%.*f" rounds correctly,
    so it prints the digits and sign of ``k`` and meets no tie; at ``k = 0``
    it would print ``0`` or ``-0`` by the sign of ``x``.  Two values with the
    same precision and the same ``k`` therefore print the same text, which
    _bodies writes from ``k`` and the precision alone.
    """
    with np.errstate(all="ignore"):
        scaled = x * _POWERS_OF_TEN[np.clip(precision, 0, 22)]
        k = np.rint(scaled)
        proven = ((precision >= 0) & (precision <= 22) & (k != 0)
                  & (abs(scaled - k) < 0.5 - abs(scaled) * 2.0 ** -51))
    return np.where(proven, k, np.nan)


def _csv_text(x: float, precision: int) -> str:
    """A CSV number cell that _bodies leaves, printed alone."""
    return _format_number(x) if precision < 0 else "%.*f" % (precision, x)


def _json_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The "%.*f" precision and rounded integer with which "%.*f" prints
    ``repr`` of each value of ``x``; precision -1 and integer 0 where that
    is not proven.

    ``repr`` prints ``1e-4 <= |x| < 1e15`` without exponent: the fewest
    digits that read back as ``x``, the nearest to ``x`` of them, with at
    least one after the point.  Any other value is left: zero, smaller,
    larger, and exponent notation.  ``|x| = M·2**(q-53)``, ``M`` a 53-bit
    integer, reads back from any number less than ``h = 2**(q-54)`` above it
    or below it, ``h / 2`` below it where ``M = 2**52``.

    Scale by ``10**s``, ``s = 14 - floor((q-1)·log10(2))`` from 0 to 19:
    ``z = |x|·10**s`` lies in [1e14, 1e15), or in [1e15, 2e15) where a power
    of ten lies between ``2**(q-1)`` and ``|x|``.  At level ``k`` from 0 to 2,
    the neighbours of ``Z = z·10**k`` are the numbers of 15 + ``k`` digits
    (16 + ``k`` from 1e15) nearest ``|x|``.  ``Z`` is ``p + e`` exactly, by
    Dekker's product of ``|x|`` and the float ``10**(s+k)`` (exact: 5**21 <
    2**53), with Veltkamp's split.  Its neighbours are ``L = floor(p) +
    floor(r)`` and ``L + 1``, with ``r = (p - floor(p)) + e``; ``d = r -
    floor(r)`` is ``Z - L``, ``1 - d`` is ``L + 1 - Z``, and the half-width
    is ``H = h·10**(s+k)``.  ``Z = 2·M·5**(s+k)·g`` with ``g = 2**(q-54+s+k)``
    above 1.4e-15 (above 1.1e-14 at ``Z >= 1e17``), and each of these values
    is a multiple of ``g`` below 9 (below 17 at ``Z >= 1e17``, where ``|e| <=
    16``), so below ``2**53·g``: every value and every comparison below is
    exact.  No margin is needed.

    The first level with a neighbour inside its bounds wins (17 digits
    always read back: from ``Z = 1e16``, ``H > 0.55``), and of two inside,
    the nearer.  A bound is never a neighbour: ``Z ± H = (2·M ± 1)·5**(s+k)·g``
    is an integer only where ``g >= 1`` (``g >= 2`` on the narrow side), yet
    ``H = 5**(s+k)·g`` is below ``0.23·10**k < 5**k``; so whether a bound
    reads back does not matter.  Two neighbours at equal distance (``d =
    0.5``) are a tie that ``repr`` breaks by the even digit; the value is
    left.  No neighbour is ``10**(15+k)`` where ``z < 1e15``: the float
    nearest each ``10**j``, ``j`` from -3 to 15, is not below it.  A
    neighbour at level 1 or 2 ends in no zero (else a shorter one is
    inside), and prints at precision ``s + k`` as itself.  One at level 0,
    below 2e15 and so a float exactly, loses its ``t`` trailing zeros (a
    division by ``10**t`` is exact where it leaves an integer, and leaves
    none elsewhere) and prints at precision ``max(s - t, 1)``.
    """
    magnitude = abs(x)
    proven = (magnitude >= 1e-4) & (magnitude < 1e15)  # false at nan and inf
    a = np.where(proven, magnitude, 1.0)
    mantissa, q = np.frexp(a)
    s = 14 - np.floor((q - 1) * math.log10(2)).astype(np.intp)
    a_hi, a_lo = _split(a)
    ulp = a / mantissa * 2.0 ** -53  # 2**(q-53)
    narrow = np.where(mantissa == 0.5, 0.25, 0.5)
    for k in (2, 1, 0):
        power, hi, lo = _POWER_PARTS.take(s + k, axis=1)
        p = a * power
        e = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo
        whole = np.floor(p)
        r = (p - whole) + e
        low = np.floor(r)
        below = r - low
        above = 1.0 - below
        spacing = power * ulp
        lower = below < narrow * spacing
        upper = above < 0.5 * spacing
        nearest = whole.astype(np.int64) + (low + (upper & (~lower | (above < below)))).astype(np.int64)
        tie = lower & upper & (above == below)
        if k == 2:  # 17 digits always read back
            digits, unproven, level = nearest, tie, np.full_like(s, 2)
            continue
        found = lower | upper
        digits = np.where(found, nearest, digits)
        unproven = np.where(found, tie, unproven)
        level = np.where(found, k, level)
    proven &= ~unproven
    precision = s + level
    first = np.nonzero(found)  # found at level 0
    short = digits[first].astype(float)
    zeros = 0
    for t in (8, 4, 2, 1):
        shorter = short / _POWERS_OF_TEN[t]
        integral = shorter == np.floor(shorter)
        short = np.where(integral, shorter, short)
        zeros += t * integral
    precision[first] = np.maximum(s[first] - zeros, 1)
    digits[first] = (short * _POWERS_OF_TEN[zeros + precision[first] - s[first]]).astype(np.int64)
    return (np.where(proven, precision, -1),
            np.where(proven, np.where(x < 0, -digits, digits), 0))


def _json_name(name: str) -> bytes:
    """``name`` as a JSON string, as a "%" format."""
    return encode_basestring_ascii(name).encode().replace(b"%", b"%%")


# A cell printed by the array pass of _bodies has a precision of at most 20 and
# an integer of at most 12 digits in CSV, 17 in JSON; its text with its
# separator fits a slot of three little-endian words.
_SLOT_PRECISION = 20
# The ASCII of 0000 to 9999, each in the low four bytes of a word.
_GROUPS = ((np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
           .copy().view("<u4")[:, 0].astype("<u8"))
# The byte that ends each row's slots in the array pass; no cell or key holds it.
_ROW_END = 1


class _Slot(NamedTuple):
    """The tables of _slot_layout: masks of the slot bytes kept in place and
    of those kept one byte to the left, and the bytes filled in, each
    ``(3, layouts)`` words, and the powers of ten below the slot's bound."""

    keep: np.ndarray
    shift: np.ndarray
    fill: np.ndarray
    decades: np.ndarray


def _slot_layout(digits: int, alone: bytes) -> _Slot:
    """The tables of a slot for integers of up to ``digits`` digits: word ``j``
    of layout ``(precision * (digits + 1) + digit count) * 2 + negative``.
    The first byte of ``alone`` goes before the number.  The last precision
    is a cell printed alone, whose slot reads ``alone``."""
    p = np.arange(_SLOT_PRECISION + 2, dtype=np.int8)[:, None, None, None]
    count = np.arange(digits + 1, dtype=np.int8)[:, None, None]
    minus = np.array([False, True])[:, None]
    at = np.arange(24, dtype=np.int8)
    fraction = at >= 24 - p
    keep = fraction | (p == 0) & (at >= 24 - count)
    shift = (p > 0) & (at >= 23 - count) & (at <= 22 - p)
    start = np.where(p == 0, 24 - count, np.minimum(23 - count, 22 - p))
    unit = (p > 0) & (count <= p) & (at == 22 - p)
    fill = np.select([(p > 0) & (at == 23 - p), unit | fraction & (at < 24 - digits),
                      minus & (at == start - 1), at == start - 1 - minus],
                     np.frombuffer(b".0-" + alone[:1], np.uint8))
    layouts = np.zeros((3, p.size, count.size, 2, 24), np.uint8)
    layouts[0], layouts[1], layouts[2] = keep, shift, fill
    layouts[:2] *= 0xFF
    layouts[:, -1] = 0
    layouts[2, -1, ..., -len(alone):] = np.frombuffer(alone, np.uint8)
    return _Slot(*(table.view("<u8").reshape(-1, 3).T.copy() for table in layouts),
                 10 ** np.arange(digits))


# A CSV cell printed alone is put in by "%s", a JSON one by "%r".
_CSV_SLOT = _slot_layout(12, b",%s")
_JSON_SLOT = _slot_layout(17, b" %r")
# The text before each number: none in CSV, where the separator is the comma, and in
# JSON its key, as three words padded in front with NUL bytes.
_NO_KEYS = np.empty((8, 0), "<u8")
_JSON_KEYS = np.frombuffer(b"".join(
    f",\n    {encode_basestring_ascii(name)}:".encode().rjust(24, b"\0")
    for name in CSV_HEADER[1:-1]), "<u8").reshape(8, 3)


def _bodies(numbers: np.ndarray, precision: np.ndarray, digits: np.ndarray,
            keys: np.ndarray, slot: _Slot) -> tuple[list[bytes], np.ndarray]:
    """The text of each row of ``numbers``, ``(8, n)``, between its two names
    (each number after its key, ``keys[j]`` as ``(8, w)`` words, and a
    separator), and where, in ``(n, 8)``, a cell is left to be printed alone.

    ``digits`` are the int64 integers ``k`` that "%.*f" prints at
    ``precision`` for each number, 0 for a cell left.  The twelve last
    digits of ``|k|``, zero-padded, go to bytes 12 to 23 of the cell's
    24-byte slot; a 17-digit slot takes the five before them to bytes 7 to
    11.  The layout keeps the last ``p`` of them in place (all of them at
    ``p = 0``), takes the integer digits one byte to the left, and fills in
    the point, the unit zero of ``|x| < 1``, the fraction's leading zeros,
    the sign and the separator.  A marker byte ends each row's keys and
    slots, and the padding of all rows goes at once.  Any other cell (``k =
    0``, or beyond the slot) is left: its slot reads the format of the text
    the caller puts in by ``%``.
    """
    keep, shift, fill, decades = slot
    numbers, precision, digits = numbers.T, precision.T, digits.T
    magnitude = abs(digits)
    cell = (precision <= _SLOT_PRECISION) & (digits != 0) & (magnitude < 10 * decades[-1])
    magnitude = np.where(cell, magnitude, 0)
    layout = ((np.where(cell, precision, _SLOT_PRECISION + 1) * (len(decades) + 1)
               + np.searchsorted(decades, magnitude, side="right")) * 2 + (digits < 0))
    width = keys.shape[1] + 3
    words = np.empty((len(layout), 8 * width + 1), "<u8")
    for j in range(width - 3):
        words[:, j:8 * width:width] = keys[:, j]
    high = magnitude // 10 ** 8
    last = _eight_digits(magnitude - high * 10 ** 8)
    if len(decades) == 12:
        middle = _GROUPS.take(high) << 32
        words[:, width - 3:8 * width:width] = fill[0].take(layout)  # no digit is in word 0
        placed = [(1, middle, middle >> 8 | last << 56), (2, last, last >> 8)]
    else:
        top = high // 10 ** 8
        first, middle = _GROUPS.take(top) << 32, _eight_digits(high - top * 10 ** 8)
        placed = [(0, first, first >> 8 | middle << 56), (1, middle, middle >> 8 | last << 56),
                  (2, last, last >> 8)]
    for j, digit_bytes, moved in placed:
        words[:, width - 3 + j:8 * width:width] = (digit_bytes & keep[j].take(layout)
                                                   | moved & shift[j].take(layout)
                                                   | fill[j].take(layout))
    words[:, -1] = _ROW_END
    return words.tobytes().translate(None, b"\0").split(bytes([_ROW_END]))[:-1], ~cell


def _eight_digits(n: np.ndarray) -> np.ndarray:
    """The ASCII of the eight digits of each ``n < 10**8``, zero-padded, as a word."""
    four = n // 10 ** 4
    return _GROUPS.take(four) | _GROUPS.take(n - four * 10 ** 4) << 32


def _csv_chunk(columns: _Columns) -> bytes:
    """CSV lines of a chunk from _chunks.

    A row is a twin of the row before it in the chunk when each of their
    eight number columns, delta first, prints by "%.*f" at the same
    precision with the same rounded integer by _csv_digits.  That integer
    is proven only where the exact scaled value lies strictly inside half
    a unit of it, so "%.*f", which rounds correctly, prints the same text
    for both values.  A twin, as a ``both``-mode numeric row mostly is of
    its analytic row, reuses the numbers' text of the row before it;
    _bodies prints that of every other row.  The quoted names of each
    row are joined around it.
    """
    variant, numbers, engine = columns
    precision = _csv_precisions(numbers)
    digits = _csv_digits(numbers, precision)
    same = ((precision[:, 1:] == precision[:, :-1]) & (digits[:, 1:] == digits[:, :-1])).all(axis=0)
    head = np.concatenate(([True], ~same))
    numbers, precision = numbers[:, head], precision[:, head]
    bodies, alone = _bodies(numbers, precision, np.nan_to_num(digits[:, head]).astype(np.int64),
                            _NO_KEYS, _CSV_SLOT)
    texts = map(_csv_text, numbers.T[alone].tolist(), precision.T[alone].tolist())
    for i, cells in groupby(zip(np.nonzero(alone)[0].tolist(), texts), operator.itemgetter(0)):
        bodies[i] %= tuple(text.encode() for _, text in cells)
    # A row's numbers are its own or, for a twin, those of the row before it.
    text = map(bodies.__getitem__, (np.cumsum(head) - 1).tolist())
    start = {name: _csv_field(name).encode() for name in set(variant)}.__getitem__
    end = {name: b"," + _csv_field(name).encode() + b"\n" for name in set(engine)}.__getitem__
    return b"".join(chain.from_iterable(zip(map(start, variant), text, map(end, engine))))


def _json_chunk(columns: _Columns) -> bytes:
    """The array items of a chunk from _chunks, as json.dumps(..., indent=2)
    lays them out inside the top-level array, each after ",\n  ".

    _bodies prints the numbers after their keys, from _json_digits; names
    go around them, by encode_basestring_ascii, with any "%" doubled.  One
    "%" then puts in the cells left, by ``repr``.
    """
    variant, numbers, engine = columns
    bodies, alone = _bodies(numbers, *_json_digits(numbers), _JSON_KEYS, _JSON_SLOT)
    start = {name: b',\n  {\n    "variant": ' + _json_name(name) for name in set(variant)}.__getitem__
    end = {name: b',\n    "engine": ' + _json_name(name) + b"\n  }" for name in set(engine)}.__getitem__
    text = b"".join(chain.from_iterable(zip(map(start, variant), bodies, map(end, engine))))
    return text % tuple(numbers.T[alone].tolist())


def _encode(blocks: Iterable[_Columns], out_format: str) -> Iterator[bytes]:
    """The output bytes of ``blocks``, one chunk of rows at a time.

    ``blocks`` are not checked (see _Columns).
    """
    # map and chain hold no chunk once it is encoded, so a block is let
    # go before the next one is requested.
    rows = _CHUNK_ROWS if out_format == "csv" else _JSON_CHUNK_ROWS
    chunks = chain.from_iterable(_chunks(block, rows) for block in blocks)
    if out_format == "csv":
        yield (",".join(CSV_HEADER) + "\n").encode()
        yield from map(_csv_chunk, chunks)
        return
    opening = b"["  # in place of the first item's comma
    for data in map(_json_chunk, chunks):
        yield opening + data[1:] if opening else data
        opening = b""
    yield b"\n]\n"


def _replace_file(target, old: os.stat_result | None, chunks: Iterable[bytes]) -> None:
    """Replace the regular file ``target``, a path resolved by
    ``os.path.realpath`` (stat ``old``, None if it does not exist yet), by
    the concatenated ``chunks``.

    The chunks go to a temporary file beside it as they are produced,
    which is renamed over it after the last, so a failed write, or an
    error raised while producing a chunk, leaves no partial file and an
    existing file keeps its old bytes.  The new file gets the mode (and,
    where the process may set it, the owner) ``Path.write_bytes`` would
    leave: an existing file's, else ``0o666`` less the umask.  Being
    resolved, a symbolic link is written through.  Being a new inode, the
    file is no longer shared with hard links to the old one.
    """
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            for data in chunks:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        if old is not None:
            with contextlib.suppress(PermissionError):
                os.chown(tmp, old.st_uid, old.st_gid)
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write(chunks: Iterable[bytes], destination) -> None:
    """Write ``chunks`` to ``destination``, a path or a binary file-like object.

    A path to a regular file, or one that does not exist yet, is replaced
    whole (see _replace_file).  Anything else is written in place, as
    ``Path.write_bytes`` does: a file-like object, or a device such as
    ``/dev/null``, a FIFO or ``/dev/stdout`` on a pipe.  It gets the
    chunks from an anonymous temporary file they are spooled into, so it
    gets no byte unless every chunk has been produced (a path is opened
    only then), and the output is never held in memory whole.  An
    ``OSError`` is raised as an EmitError naming the destination; a directory
    (``""`` is the working one) or a path with a NUL byte fails before any chunk is made.
    """
    file_like = hasattr(destination, "write")
    try:
        if not file_like:
            try:
                target = os.path.realpath(destination)
            except ValueError as exc:  # a NUL byte, or text the file system cannot encode
                raise EmitError(f"cannot write {_shown(os.fspath(destination))}: {exc}") from exc
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        os.fspath(destination))
            old = None
            # Not a stat of ``target``: on a pipe, ``/dev/stdout`` resolves to a
            # ``/proc/<pid>/fd/pipe:[...]`` that does not exist, so it would be replaced as a file.
            with contextlib.suppress(FileNotFoundError):
                old = os.stat(destination)
            if old is None or stat.S_ISREG(old.st_mode):
                _replace_file(target, old, chunks)
                return
        with tempfile.TemporaryFile() as spool:
            spool.writelines(chunks)
            spool.seek(0)
            with (contextlib.nullcontext(destination) if file_like
                  else open(destination, "wb")) as stream:
                shutil.copyfileobj(spool, stream)
                # A buffered stream such as stdout fails here, not at exit.
                getattr(stream, "flush", lambda: None)()
    except OSError as exc:
        name = getattr(destination, "name", "<stream>") if file_like else destination
        raise EmitError(f"cannot write {name}: {exc}") from exc


def emit(rows: Iterable[OutputRow], out_format: str, destination=None) -> bytes:
    """Serialize rows, from a list or any other iterable, and optionally
    write them out.

    Names are ``str`` and numbers finite ``float`` values (subclasses such
    as ``numpy.float64`` included); any other value is an EmitError, and
    so is a CSV name that UTF-8 cannot encode (a lone surrogate, which
    JSON escapes).  ``destination`` may be None (return bytes only), a path, or a
    binary file-like object.  Output is deterministic byte-for-byte for
    identical rows.  A path to a regular file is replaced as a whole: if
    the write fails, no partial file is left and an existing file keeps
    its old bytes.  Any other existing path (a device, a FIFO) is
    written in place.
    """
    if not rows or not (rows := list(rows)):
        raise EmitError("no rows to emit")
    if out_format not in FORMATS:
        raise EmitError(f"unknown output format {_shown(out_format)}")
    columns = _row_columns(rows)
    if out_format == "csv" and (bad := _not_utf8({*columns.variant, *columns.engine})):
        i, j, name = next((i, j, name) for i, names in enumerate(zip(columns.variant, columns.engine))
                          for j, name in zip((0, -1), names) if name in bad)
        raise EmitError(f"output row {i}: {CSV_HEADER[j]} {_shown(name)} {_NOT_UTF8}")
    data = b"".join(_encode([columns], out_format))
    if destination is not None:
        _write([data], destination)
    return data


def write_sweep(cfg: SweepConfig, destination) -> int:
    """Evaluate ``cfg`` and write its rows to ``destination``; return their number.

    The bytes are those of ``emit(run_sweep(cfg), cfg.out_format)`` and
    a failure is the one ``run_sweep`` raises, or the EmitError of a CSV
    variant name that UTF-8 cannot encode, but no row is built: each
    block of the sweep goes from its columns straight into the writer.
    ``destination`` is a path or a binary file-like object, written as
    :func:`_write` writes: a failed sweep leaves no file, an existing file
    keeps its old bytes, and a directory or a path with a NUL byte is
    refused before the sweep is evaluated.
    """
    blocks = _blocks(cfg, _variant_params(cfg))
    if cfg.out_format == "csv" and (bad := _not_utf8(v.name for v in cfg.variants)):
        name = next(v.name for v in cfg.variants if v.name in bad)
        raise EmitError(f"variant {_shown(name)} {_NOT_UTF8}")
    _write(_encode(blocks, cfg.out_format), destination)
    engines = 2 if cfg.engine == "both" else 1
    return len(cfg.variants) * cfg.delta_grid.points * engines
