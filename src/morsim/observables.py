"""Measurable quantities derived from a susceptibility pair.

A uniform slab of optical depth scale ``alpha_l`` multiplies each
circular component by ``exp(i * alpha_l * s / 2)``; the polarimetry
signals follow from recombining the two components.
"""

from __future__ import annotations

import cmath

import numpy as np

from .complexgrid import ComplexGrid, abs_squared, promote
from .core import JonesVector, SusceptibilityPair, _check_alpha_l, _check_type, _shown
from .errors import NumericError

__all__ = [
    "transmission_y",
    "transmission_x",
    "rotation_angle",
    "output_field",
    "observables_grid",
]


def _overflow(s: SusceptibilityPair, alpha_l: float) -> NumericError:
    return NumericError(f"observable overflows the float range at alpha_l={_shown(alpha_l)}, "
                        f"s+={s.s_plus!r}, s-={s.s_minus!r}")


def _phase_factors(s: SusceptibilityPair, alpha_l: float) -> tuple[complex, complex]:
    _check_type(s, SusceptibilityPair, "s")
    alpha_l = _check_alpha_l(alpha_l)
    try:
        return (cmath.exp(0.5j * alpha_l * s.s_plus),
                cmath.exp(0.5j * alpha_l * s.s_minus))
    except OverflowError as exc:
        raise _overflow(s, alpha_l) from exc


def _quarter_intensity(z: complex, s: SusceptibilityPair, alpha_l: float) -> float:
    try:
        return 0.25 * abs_squared(z)
    except OverflowError as exc:
        raise _overflow(s, alpha_l) from exc


def transmission_y(s: SusceptibilityPair, alpha_l: float) -> float:
    """Crossed-polarizer transmission for x-polarized input.

    ``T_y = |exp(i al s+/2) - exp(i al s-/2)|^2 / 4``, normalized to the
    input intensity.  Vanishes when the medium responds isotropically
    (s+ == s-) and is symmetric under exchanging the two components.
    """
    f_plus, f_minus = _phase_factors(s, alpha_l)
    return _quarter_intensity(f_plus - f_minus, s, alpha_l)


def transmission_x(s: SusceptibilityPair, alpha_l: float) -> float:
    """Co-polarized transmission, ``|exp(i al s+/2) + exp(i al s-/2)|^2 / 4``.

    With passive media (nonnegative Im s) ``T_x + T_y <= 1``; for purely
    real pairs the sum is exactly 1.
    """
    f_plus, f_minus = _phase_factors(s, alpha_l)
    return _quarter_intensity(f_plus + f_minus, s, alpha_l)


def rotation_angle(s: SusceptibilityPair, alpha_l: float) -> float:
    """Polarization rotation angle in radians, ``alpha_l/4 * Re(s- - s+)``.

    This is the lossless-limit expression (exact when both s are real);
    with absorbing media the crossed-polarizer signal
    :func:`transmission_y` is the operational observable.
    """
    _check_type(s, SusceptibilityPair, "s")
    alpha_l = _check_alpha_l(alpha_l)
    return 0.25 * alpha_l * (s.s_minus.real - s.s_plus.real)


def output_field(e_in: JonesVector, s: SusceptibilityPair, alpha_l: float) -> JonesVector:
    """Field after the slab: each circular component picks up its
    ``exp(i * alpha_l * s / 2)`` factor."""
    _check_type(e_in, JonesVector, "e_in")
    f_plus, f_minus = _phase_factors(s, alpha_l)
    return JonesVector(e_plus=e_in.e_plus * f_plus,
                       e_minus=e_in.e_minus * f_minus)


def observables_grid(s_plus: ComplexGrid, s_minus: ComplexGrid,
                     alpha_l) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(T_y, T_x, theta)`` of every pair on a grid, in one pass.

    ``alpha_l`` is a float, or a float64 array with one value per pair.
    Each value equals that of :func:`transmission_y`,
    :func:`transmission_x` and :func:`rotation_angle` on the same pair
    bit for bit where it is finite.  Where the scalars raise a
    :class:`NumericError` for an overflow, the grid holds inf; no
    floating-point warning escapes.
    """
    alpha_l = _check_alpha_l(alpha_l)
    with np.errstate(all="ignore"):
        factors = []
        overflow = False
        for s in (s_plus, s_minus):
            exponent = 0.5j * promote(alpha_l) * s
            f = exponent.exp()
            # cmath.exp raises where a finite exponent gives a nonfinite factor.
            overflow = overflow | (np.isfinite(exponent.re) & np.isfinite(exponent.im)
                                   & ~(np.isfinite(f.re) & np.isfinite(f.im)))
            factors.append(f)
        f_plus, f_minus = factors
        t_y = 0.25 * abs_squared(f_plus - f_minus)
        t_x = 0.25 * abs_squared(f_plus + f_minus)
        theta = 0.25 * alpha_l * (s_minus.re - s_plus.re)
    t_y[overflow] = np.inf
    t_x[overflow] = np.inf
    return t_y, t_x, theta
