"""Closed-form scaled susceptibilities of the driven four-level medium.

For equal lower decay rates (gamma1 == gamma2 == gamma) the weak-probe
response of each circular component has an exact rational form.  With

    d+  = gamma + i(delta + Omega)         sigma+ coherence factor
    d-  = gamma + i(delta - Omega)         sigma- coherence factor
    q   = Gamma1 + Gamma2 + i(Delta + delta)   two-photon coherence factor

the pair is

    s+ = i gamma [ |G2|^2 + d- q ] / ( |G2|^2 d+ + d- [ |G1|^2 + d+ q ] )
    s- = i gamma [ |G1|^2 + d+ q ] / ( |G1|^2 d- + d+ [ |G2|^2 + d- q ] )

The grouping above is evaluated verbatim (no algebraic reshuffling) so
the code can be audited term by term; the density-matrix engine in
:mod:`morsim.lindblad` provides the independent numerical check.  The
same expression serves one detuning (:func:`s_pair`) and a whole grid
(:func:`s_pair_grid`), with identical results.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .complexgrid import ComplexGrid, detuning_axis
from .core import SusceptibilityPair, SystemParams, detuning_factors, validate_params
from .errors import NumericError, ParameterError

__all__ = [
    "s_pair",
    "s_pair_grid",
    "s_no_control",
    "s_plus_sigma_minus_control",
    "chi_from_s",
]

# Below this magnitude (gamma-scaled units) a response denominator is
# treated as numerically degenerate rather than divided through.
DENOMINATOR_GUARD = 1e-12


def _require_equal_gammas(p: SystemParams) -> None:
    if p.gamma1 != p.gamma2:
        raise ParameterError(
            f"unequal gammas: closed forms hold only for gamma1 == gamma2 "
            f"(got {p.gamma1} and {p.gamma2}); use the density-matrix engine"
        )


def _closed_form(p: SystemParams, delta):
    """``(num+, den+, num-, den-)`` at detuning ``delta``, grouped as in
    the module docstring.

    ``delta`` is a float or a :class:`ComplexGrid`; both evaluate the
    same operations in the same order.  Raises ``OverflowError`` when
    ``|G|^2`` exceeds the float range.
    """
    gamma = p.gamma1
    g1_sq = abs(p.G1) ** 2
    g2_sq = abs(p.G2) ** 2
    d_plus, d_minus, q = detuning_factors(p, delta)

    num_plus = 1j * gamma * (g2_sq + d_minus * q)
    den_plus = g2_sq * d_plus + d_minus * (g1_sq + d_plus * q)
    num_minus = 1j * gamma * (g1_sq + d_plus * q)
    den_minus = g1_sq * d_minus + d_plus * (g2_sq + d_minus * q)
    return num_plus, den_plus, num_minus, den_minus


def _overflow(p: SystemParams) -> NumericError:
    return NumericError(f"overflow in closed-form susceptibility at {p}")


def _vanishing(abs_plus: float, abs_minus: float, p: SystemParams) -> NumericError:
    return NumericError(
        f"vanishing denominator in closed-form susceptibility "
        f"(|den+|={abs_plus:.3e}, |den-|={abs_minus:.3e}) at {p}"
    )


def s_pair(p: SystemParams) -> SusceptibilityPair:
    """Closed-form (s+, s-) for equal lower decay rates.

    Depends on the control amplitudes only through |G1|^2 and |G2|^2.

    Raises
    ------
    ParameterError
        If ``p`` is invalid or ``gamma1 != gamma2``.
    NumericError
        If either denominator magnitude falls below the guard; for
        positive gamma this has not been observed, but a degenerate
        denominator must surface as an error, not as a huge value.
        Also if ``|G|^2`` or a denominator magnitude overflows, which
        would otherwise surface as a nan.
    """
    validate_params(p)
    _require_equal_gammas(p)
    try:
        num_plus, den_plus, num_minus, den_minus = _closed_form(p, p.delta)
        abs_plus, abs_minus = abs(den_plus), abs(den_minus)
    except OverflowError as exc:
        raise _overflow(p) from exc
    if not (math.isfinite(abs_plus) and math.isfinite(abs_minus)):
        raise _overflow(p)
    if abs_plus < DENOMINATOR_GUARD or abs_minus < DENOMINATOR_GUARD:
        raise _vanishing(abs_plus, abs_minus, p)
    return SusceptibilityPair(s_plus=num_plus / den_plus,
                              s_minus=num_minus / den_minus)


def s_pair_grid(p: SystemParams, deltas) -> tuple[ComplexGrid, ComplexGrid]:
    """:func:`s_pair` at every probe detuning in ``deltas`` at once.

    ``p.delta`` is validated with the rest of ``p`` but not used.
    Returns ``(s+, s-)`` as grids whose values equal those of
    ``s_pair(replace(p, delta=d))`` bit for bit, and raises what
    :func:`s_pair` raises at the first failing detuning.
    """
    validate_params(p)
    _require_equal_gammas(p)
    delta = detuning_axis(deltas)
    with np.errstate(all="ignore"):
        try:
            num_plus, den_plus, num_minus, den_minus = _closed_form(p, delta)
        except OverflowError as exc:
            raise _overflow(replace(p, delta=float(delta.re[0]))) from exc
        abs_plus, abs_minus = abs(den_plus), abs(den_minus)
        unbounded = ~(np.isfinite(abs_plus) & np.isfinite(abs_minus))
        failing = unbounded | (abs_plus < DENOMINATOR_GUARD) | (abs_minus < DENOMINATOR_GUARD)
        if failing.any():
            i = int(np.argmax(failing))
            at = replace(p, delta=float(delta.re[i]))
            raise _overflow(at) if unbounded[i] else _vanishing(abs_plus[i], abs_minus[i], at)
        return num_plus / den_plus, num_minus / den_minus


def s_no_control(p: SystemParams) -> SusceptibilityPair:
    """Bare-medium response ``s(+/-) = gamma / ((delta +/- Omega) - i gamma)``.

    Equals :func:`s_pair` at ``G1 = G2 = 0``.  Unequal lower rates are
    supported by using ``gamma1`` for s+ and ``gamma2`` for s-.
    """
    validate_params(p)
    s_plus = p.gamma1 / ((p.delta + p.Omega) - 1j * p.gamma1)
    s_minus = p.gamma2 / ((p.delta - p.Omega) - 1j * p.gamma2)
    return SusceptibilityPair(s_plus=s_plus, s_minus=s_minus)


def s_plus_sigma_minus_control(p: SystemParams) -> complex:
    """s+ for a purely sigma- polarized control field (``G2 = 0``).

    Reduces to ``i gamma q / (|G1|^2 + d+ q)``; for large |G1| its real
    and imaginary parts develop the Autler-Townes doublet.  Must agree
    with ``s_pair(p).s_plus`` to machine precision.
    """
    validate_params(p)
    _require_equal_gammas(p)
    if p.G2 != 0:
        raise ParameterError(f"G2 nonzero: {p.G2} (sigma- control case requires G2 = 0)")
    gamma = p.gamma1
    d_plus, _, q = detuning_factors(p, p.delta)
    den = abs(p.G1) ** 2 + d_plus * q
    if abs(den) < DENOMINATOR_GUARD:
        raise NumericError(
            f"vanishing denominator in sigma- control form (|den|={abs(den):.3e}) at {p}"
        )
    return 1j * gamma * q / den


def chi_from_s(s: complex, alpha: float, k: float) -> complex:
    """Physical susceptibility ``chi = alpha/(4 pi k) * s``."""
    if not (k > 0):
        raise ParameterError(f"nonpositive wavenumber: {k}")
    if alpha < 0:
        raise ParameterError(f"negative absorption coefficient: {alpha}")
    return (alpha / (4.0 * math.pi * k)) * complex(s)
