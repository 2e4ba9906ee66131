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
        # Normalize numeric types so equality and formatting behave.
        for name in _REAL_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in _COMPLEX_FIELDS:
            object.__setattr__(self, name, complex(getattr(self, name)))


# SystemParams' fields by (string) annotation, and all but delta, in declared order.
_REAL_FIELDS, _COMPLEX_FIELDS = (tuple(f.name for f in fields(SystemParams) if f.type == kind)
                                 for kind in ("float", "complex"))
_VARIANT_FIELDS = tuple(f.name for f in fields(SystemParams) if f.name != "delta")


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
        object.__setattr__(self, "e_plus", complex(self.e_plus))
        object.__setattr__(self, "e_minus", complex(self.e_minus))

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
        object.__setattr__(self, "s_plus", complex(self.s_plus))
        object.__setattr__(self, "s_minus", complex(self.s_minus))


def _finite(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


def validate_params(p: SystemParams) -> SystemParams:
    """Check the physical validity constraints and return ``p`` unchanged.

    Raises
    ------
    ParameterError
        Naming the first violated constraint.
    """
    for name in _REAL_FIELDS:
        if not math.isfinite(getattr(p, name)):
            raise ParameterError(f"nonfinite {name}: {getattr(p, name)!r}")
    for name in _COMPLEX_FIELDS:
        if not _finite(getattr(p, name)):
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
    if p.alpha_l < 0:
        raise ParameterError(f"negative alpha_l: {p.alpha_l}")
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
    ex = complex(ex)
    ey = complex(ey)
    return JonesVector(e_plus=(ex - 1j * ey) / _SQRT2,
                       e_minus=(ex + 1j * ey) / _SQRT2)


def circular_to_cartesian(j: JonesVector) -> tuple[complex, complex]:
    """Inverse of :func:`cartesian_to_circular`.

    Returns ``(ex, ey)`` with ``ex = (e_plus + e_minus)/sqrt(2)`` and
    ``ey = i (e_plus - e_minus)/sqrt(2)``.
    """
    ex = (j.e_plus + j.e_minus) / _SQRT2
    ey = 1j * (j.e_plus - j.e_minus) / _SQRT2
    return ex, ey
