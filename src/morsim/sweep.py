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
from itertools import chain, compress
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
# not of a whole block, is alive at once.
_CHUNK_ROWS = 4096

# Templates of a CSV row's text up to its engine field, indexed by a
# fallback mask.  Bit j set means the j-th number column is a string from
# _format_number, printed by "%*s" at width 0; the others print by "%.*f"
# at the precision that gives the same digits.
_CSV_BODIES = tuple(
    "%s," + "".join("%*s," if mask >> j & 1 else "%.*f," for j in range(8))
    for mask in range(256)
)
_MASK_BITS = 1 << np.arange(8)

# 10**p for the precisions at which it is a float exactly (5**22 < 2**53).
_POWERS_OF_TEN = np.array([float(10 ** p) for p in range(23)])

# JSON object template of one row, as json.dumps(..., indent=2) lays it out
# inside the top-level array: strings pre-encoded, floats by float.__repr__.
_JSON_ROW = "{\n    " + ",\n    ".join(
    f"{encode_basestring_ascii(name)}: " + ("%s" if kind is str else "%r")
    for name, kind in zip(CSV_HEADER, _KINDS)
) + "\n  }"


def _chunks(columns: _Columns) -> Iterator[_Columns]:
    """``columns`` in chunks of _CHUNK_ROWS rows."""
    variant, numbers, engine = columns
    for start in range(0, len(variant), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        yield _Columns(variant[start:stop], numbers[:, start:stop], engine[start:stop])


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
                        f"{_KINDS[j].__name__}, got {_shown(value)}")
    variant, *numbers, engine = columns
    numbers = np.array(numbers, float)
    nonfinite = _first_failure([
        (finite, lambda i, j=j: EmitError(
            f"nonfinite value in output row: {float(numbers[j, i])!r}"))
        for j, finite in enumerate(np.isfinite(numbers))])
    if nonfinite:
        raise nonfinite[1]
    return _Columns(list(variant), numbers, list(engine))


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
    same precision and the same ``k`` therefore print the same text.
    """
    with np.errstate(all="ignore"):
        scaled = x * _POWERS_OF_TEN[np.clip(precision, 0, 22)]
        k = np.rint(scaled)
        proven = ((precision >= 0) & (precision <= 22) & (k != 0)
                  & (abs(scaled - k) < 0.5 - abs(scaled) * 2.0 ** -51))
    return np.where(proven, k, np.nan)


def _csv_chunk(columns: _Columns) -> str:
    """CSV lines of a chunk from _chunks.

    A row is a twin of the row before it in the chunk when both have the
    same variant, and each of their eight number columns, delta first,
    prints by "%.*f" at the same precision with the same rounded integer
    by _csv_digits.  That integer is proven only where the exact scaled
    value lies strictly inside half a unit of it, so "%.*f", which rounds
    correctly, prints the same text for both values.  A twin, as a
    ``both``-mode numeric row mostly is of its analytic row, reuses the
    text of the row before it up to the engine field.  Every other row is
    printed by one template of _CSV_BODIES; values that the precision pass
    cannot print are formatted by _format_number.
    """
    variant, numbers, engine = columns
    precision = _csv_precisions(numbers)
    digits = _csv_digits(numbers, precision)
    # The numbers first, in one array pass: comparing every row's names in Python costs more.
    same = ((precision[:, 1:] == precision[:, :-1]) & (digits[:, 1:] == digits[:, :-1])).all(axis=0)
    head = np.ones(len(variant), bool)
    head[[i for i in (np.flatnonzero(same) + 1).tolist() if variant[i] == variant[i - 1]]] = False
    precision = precision[:, head]
    fallback = precision < 0
    values = numbers[:, head].tolist()
    for j, i in zip(*np.nonzero(fallback)):
        values[j][i] = _format_number(values[j][i])
    precision[fallback] = 0
    quote = {name: _csv_field(name) for name in set(variant)}.__getitem__
    fields = [map(quote, compress(variant, head.tolist()))]
    for width_or_precision, column in zip(precision.tolist(), values):
        fields += (width_or_precision, column)
    templates = map(_CSV_BODIES.__getitem__, (_MASK_BITS @ fallback).tolist())
    bodies = list(map(str.__mod__, templates, zip(*fields)))
    # A row's body is its own or, for a twin, that of the row before it.
    text = map(bodies.__getitem__, (np.cumsum(head) - 1).tolist())
    end = {name: _csv_field(name) + "\n" for name in set(engine)}.__getitem__
    return "".join(chain.from_iterable(zip(text, map(end, engine))))


def _json_chunk(columns: _Columns) -> str:
    """The array items of a chunk from _chunks, each printed by the _JSON_ROW template."""
    variant, numbers, engine = columns
    encoded = {name: encode_basestring_ascii(name) for name in {*variant, *engine}}
    args = zip(map(encoded.__getitem__, variant), *numbers.tolist(),
               map(encoded.__getitem__, engine))
    return ",\n  ".join(map(_JSON_ROW.__mod__, args))


def _encode(blocks: Iterable[_Columns], out_format: str) -> Iterator[bytes]:
    """The output bytes of ``blocks``, one chunk of at most _CHUNK_ROWS rows at a time.

    ``blocks`` are not checked (see _Columns).
    """
    # map and chain hold no chunk once it is encoded, so a block is let
    # go before the next one is requested.
    chunks = chain.from_iterable(map(_chunks, blocks))
    if out_format == "csv":
        yield (",".join(CSV_HEADER) + "\n").encode()
        for text in map(_csv_chunk, chunks):
            yield text.encode("utf-8")
        return
    separator = "[\n  "
    for text in map(_json_chunk, chunks):
        yield (separator + text).encode("utf-8")
        separator = ",\n  "
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
    as ``numpy.float64`` included); any other value is an EmitError.
    ``destination`` may be None (return bytes only), a path, or a
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
    data = b"".join(_encode([_row_columns(rows)], out_format))
    if destination is not None:
        _write([data], destination)
    return data


def write_sweep(cfg: SweepConfig, destination) -> int:
    """Evaluate ``cfg`` and write its rows to ``destination``; return their number.

    The bytes are those of ``emit(run_sweep(cfg), cfg.out_format)`` and
    a failure is the one ``run_sweep`` raises, but no row is built: each
    block of the sweep goes from its columns straight into the writer.
    ``destination`` is a path or a binary file-like object, written as
    :func:`_write` writes: a failed sweep leaves no file, an existing file
    keeps its old bytes, and a directory or a path with a NUL byte is
    refused before the sweep is evaluated.
    """
    blocks = _blocks(cfg, _variant_params(cfg))
    _write(_encode(blocks, cfg.out_format), destination)
    engines = 2 if cfg.engine == "both" else 1
    return len(cfg.variants) * cfg.delta_grid.points * engines
