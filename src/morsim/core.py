"""Parameter and field types for the four-level magneto-optical medium.

The medium is a closed four-level scheme: a ground state ``|g>``, two
Zeeman sublevels ``|1>`` (m=+1) and ``|2>`` (m=-1) split by 2*Omega, and
an upper state ``|e>``.  A weak probe couples ``|g>`` to the sublevels
(sigma+ drives ``|g>-|1>``, sigma- drives ``|g>-|2>``) while a control
field couples the sublevels to ``|e>``.  All rates and frequencies are
expressed in units of the lower-transition decay-rate half ``gamma``, so
the default parameter set is dimensionless with ``gamma = 1``.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .complexgrid import ComplexGrid, promote
from .errors import ParameterError

__all__ = [
    "SystemParams",
    "ParamColumns",
    "JonesVector",
    "SusceptibilityPair",
    "validate_params",
    "detuning_factors",
    "cartesian_to_circular",
    "circular_to_cartesian",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SystemParams:
    """Rates, detunings and drive amplitudes of the four-level model.

    Attributes
    ----------
    gamma1, gamma2:
        Half decay rates of ``|1> -> |g>`` and ``|2> -> |g>`` (the full
        spontaneous rates are ``2*gamma_i``).
    Gamma1, Gamma2:
        Half decay rates of ``|e> -> |1>`` and ``|e> -> |2>``.
    Omega:
        Half the Zeeman splitting of the sublevels; may be zero or
        negative (field reversal).
    Delta:
        Control-field detuning from the sublevel centroid.
    delta:
        Probe-field detuning from the sublevel centroid.
    G1, G2:
        Complex control Rabi half-amplitudes on ``|1>-|e>`` (sigma-
        component) and ``|2>-|e>`` (sigma+ component).
    alpha_l:
        Resonant absorption coefficient times medium length
        (dimensionless optical depth scale).
    """

    gamma1: float = 1.0
    gamma2: float = 1.0
    Gamma1: float = 1.0
    Gamma2: float = 1.0
    Omega: float = 0.0
    Delta: float = 0.0
    delta: float = 0.0
    G1: complex = 0.0
    G2: complex = 0.0
    alpha_l: float = 30.0

    def __post_init__(self):
        # Normalize numeric types by the rule of _converted; float() would cast NumPy complex.
        # A value of the field's exact type is kept: float() or complex() would return it.
        try:
            for name in _REAL_FIELDS:
                if type(value := getattr(self, name)) is float:
                    continue
                if isinstance(value, np.complexfloating):
                    raise TypeError(f"{name} must be a real number, not {type(value).__name__}")
                object.__setattr__(self, name, float(value))
            for name in _COMPLEX_FIELDS:
                if type(value := getattr(self, name)) is not complex:
                    object.__setattr__(self, name, complex(value))
        except (ValueError, OverflowError) as exc:
            raise ParameterError(str(exc)) from exc


# SystemParams' fields by (string) annotation, and all but delta, in declared order.
_REAL_FIELDS, _COMPLEX_FIELDS = (tuple(f.name for f in fields(SystemParams) if f.type == kind)
                                 for kind in ("float", "complex"))
_VARIANT_FIELDS = tuple(f.name for f in fields(SystemParams) if f.name != "delta")


def _check_type(value, kind: type, name: str) -> None:
    """Refuse ``value`` by a TypeError unless it is a ``kind``, before any attribute of it is read."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")


def _converted(convert, value, *args):
    """``convert(value, *args)``, ``complex`` or a NumPy array constructor, with its reason
    as a ParameterError where it refuses a value of a type it takes (``'x'``, a huge int)."""
    try:
        return convert(value, *args)
    except (ValueError, OverflowError) as exc:
        raise ParameterError(str(exc)) from exc


def _first_failure(checks: list) -> tuple[int, Exception] | None:
    """The first row (of a grid, or matrix of a stack) that fails one of
    ``checks``, as ``(i, error)``, or None if every row passes: the one
    rule for which failure a caller sees.

    ``checks`` holds ``(passes, error)`` pairs in check order: ``passes``
    has one boolean per row, and ``error(i)`` is the exception for row
    ``i``.  The first check that row fails wins.
    """
    passes = np.array([ok for ok, _ in checks])
    if np.logical_and.reduce(passes, axis=None):
        return None
    i = int(np.argmin(np.logical_and.reduce(passes)))
    return i, checks[int(np.argmin(passes[:, i]))][1](i)


class ParamColumns:
    """Parameter sets of many rows, each field a column over the rows.

    Row ``k`` holds ``params[variant[k]]`` at probe detuning
    ``delta[k]``: the real fields are float64 arrays and ``G1``, ``G2``
    are ComplexGrids, so an expression written for one
    :class:`SystemParams` evaluates on every row to the same bits.  A
    new instance has one row per parameter set, at its own ``delta``;
    :meth:`take` selects rows and sets their detunings.  The parameter
    sets are taken as validated.
    """

    _ROW_FIELDS = ("variant", *_VARIANT_FIELDS)

    def __init__(self, params: Sequence[SystemParams]):
        self.params = tuple(params)
        for q in self.params:
            _check_type(q, SystemParams, "params item")
        self.variant = np.arange(len(self.params))
        for name in _REAL_FIELDS + _COMPLEX_FIELDS:
            column = np.array([getattr(q, name) for q in self.params])
            if name in _COMPLEX_FIELDS:
                column = ComplexGrid.from_numpy(column)
            setattr(self, name, column)

    def take(self, rows: np.ndarray, delta) -> "ParamColumns":
        """The rows at indices ``rows``, in that order, at the float64
        probe detunings ``delta``, one per row."""
        taken = copy.copy(self)
        for name in self._ROW_FIELDS:
            setattr(taken, name, getattr(self, name)[rows])
        taken.delta = np.asarray(delta, dtype=float)
        return taken

    def at(self, row: int) -> SystemParams:
        """The parameter set of ``row``, at its probe detuning."""
        return replace(self.params[self.variant[row]], delta=float(self.delta[row]))


@dataclass(frozen=True)
class JonesVector:
    """Complex field amplitudes on the circular unit vectors.

    ``e_plus`` rides on ``(x + i y)/sqrt(2)`` (sigma+), ``e_minus`` on
    ``(x - i y)/sqrt(2)`` (sigma-).
    """

    e_plus: complex
    e_minus: complex

    def __post_init__(self):
        if type(self.e_plus) is not complex:
            object.__setattr__(self, "e_plus", _converted(complex, self.e_plus))
        if type(self.e_minus) is not complex:
            object.__setattr__(self, "e_minus", _converted(complex, self.e_minus))

    @property
    def intensity(self) -> float:
        return abs(self.e_plus) ** 2 + abs(self.e_minus) ** 2


@dataclass(frozen=True)
class SusceptibilityPair:
    """Dimensionless scaled susceptibilities of the two circular probe
    components; the physical susceptibility is ``alpha/(4 pi k)`` times
    each entry."""

    s_plus: complex
    s_minus: complex

    def __post_init__(self):
        if type(self.s_plus) is not complex:
            object.__setattr__(self, "s_plus", _converted(complex, self.s_plus))
        if type(self.s_minus) is not complex:
            object.__setattr__(self, "s_minus", _converted(complex, self.s_minus))


def _shown(value) -> str:
    """A caller's value in a message: a ``str`` quoted, anything else by ``str``,
    or a stand-in where ``str`` refuses it (an int of more than 4,300 digits)."""
    try:
        return repr(str(value)) if isinstance(value, str) else str(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _real(x) -> float:
    """``x`` as a float, a huge int as an infinity; anything but a real number is a TypeError."""
    if isinstance(x, (complex, np.complexfloating, np.ndarray)):
        raise TypeError(f"must be real number, not {type(x).__name__}")
    try:
        math.isfinite(x)  # a TypeError for text, which float() would parse
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _check_alpha_l(alpha_l):
    """Refuse a nonfinite, then a negative ``alpha_l``; return it as a float or float64 array."""
    if isinstance(alpha_l, float) and 0.0 <= alpha_l < math.inf:
        return alpha_l  # a valid float, without numpy's cost per call
    values = np.asarray(alpha_l)
    if values.dtype.kind not in "biuf":
        # No real number NumPy holds: an int beyond int64 and uint64 is checked as its float.
        values = np.asarray(_real(alpha_l))
    for problem, bad in (("nonfinite alpha_l", ~np.isfinite(values)),
                         ("negative alpha_l", values < 0)):
        if bad.any():
            raise ParameterError(f"{problem}: {_shown(values[bad][0])}")
    return np.asarray(values, dtype=float) if values.ndim else float(values)


def validate_params(p: SystemParams) -> SystemParams:
    """Check the physical validity constraints and return ``p`` unchanged.

    Raises
    ------
    ParameterError
        Naming the first violated constraint.
    """
    _check_type(p, SystemParams, "p")
    for name in _REAL_FIELDS + _COMPLEX_FIELDS:
        if not cmath.isfinite(getattr(p, name)):
            raise ParameterError(f"nonfinite {name}: {getattr(p, name)!r}")
    if p.gamma1 <= 0:
        raise ParameterError(f"nonpositive gamma1: {p.gamma1}")
    if p.gamma2 <= 0:
        raise ParameterError(f"nonpositive gamma2: {p.gamma2}")
    if p.Gamma1 < 0:
        raise ParameterError(f"negative Gamma1: {p.Gamma1}")
    if p.Gamma2 < 0:
        raise ParameterError(f"negative Gamma2: {p.Gamma2}")
    if p.Gamma1 + p.Gamma2 <= 0:
        # Without damping of |e> the stationary state is not unique.
        raise ParameterError("upper level undamped: Gamma1 + Gamma2 must be > 0")
    _check_alpha_l(p.alpha_l)
    return p


def detuning_factors(p: SystemParams):
    """Complex detuning factors of the probe coherences at ``p``.

    Returns ``(gamma1 + i(delta + Omega), gamma2 + i(delta - Omega),
    Gamma1 + Gamma2 + i(Delta + delta))``: the factors of rho_1g, rho_2g
    and the two-photon coherence rho_eg.  ``p`` is a SystemParams, or
    :class:`ParamColumns` for many rows, which evaluate the same
    operations to the same bits.
    """
    delta = promote(p.delta)
    return (p.gamma1 + 1j * (delta + p.Omega),
            p.gamma2 + 1j * (delta - p.Omega),
            p.Gamma1 + p.Gamma2 + 1j * (p.Delta + delta))


def cartesian_to_circular(ex: complex, ey: complex) -> JonesVector:
    """Project cartesian field components onto the circular basis.

    ``e_plus = (ex - i ey)/sqrt(2)``, ``e_minus = (ex + i ey)/sqrt(2)``;
    the map is unitary, so total intensity is preserved.
    """
    ex, ey = _converted(complex, ex), _converted(complex, ey)
    return JonesVector(e_plus=(ex - 1j * ey) / _SQRT2,
                       e_minus=(ex + 1j * ey) / _SQRT2)


def circular_to_cartesian(j: JonesVector) -> tuple[complex, complex]:
    """Inverse of :func:`cartesian_to_circular`.

    Returns ``(ex, ey)`` with ``ex = (e_plus + e_minus)/sqrt(2)`` and
    ``ey = i (e_plus - e_minus)/sqrt(2)``.
    """
    _check_type(j, JonesVector, "j")
    ex = (j.e_plus + j.e_minus) / _SQRT2
    ey = 1j * (j.e_plus - j.e_minus) / _SQRT2
    return ex, ey
