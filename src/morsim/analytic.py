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

import numpy as np

from .complexgrid import ComplexGrid, promote
from .core import (ParamColumns, SusceptibilityPair, SystemParams, detuning_factors,
                   param_rows, validate_params)
from .errors import MorsimError, NumericError, ParameterError

__all__ = [
    "s_pair",
    "s_pair_grid",
]

# Below this magnitude (gamma-scaled units) a response denominator is
# treated as numerically degenerate rather than divided through.
DENOMINATOR_GUARD = 1e-12


def _unequal_gammas(p: SystemParams) -> ParameterError:
    return ParameterError(
        f"unequal gammas: closed forms hold only for gamma1 == gamma2 "
        f"(got {p.gamma1} and {p.gamma2}); use the density-matrix engine"
    )


def _require_equal_gammas(p: SystemParams) -> None:
    if p.gamma1 != p.gamma2:
        raise _unequal_gammas(p)


def _abs_squared(z):
    """``abs(z) ** 2`` by libm ``pow``, for a complex or a ComplexGrid.

    ``**`` on an array squares by multiplication instead, and only a
    float raises ``OverflowError``; an array holds inf.
    """
    magnitude = abs(z)
    if isinstance(magnitude, np.ndarray):
        return np.float_power(magnitude, 2.0)
    return magnitude ** 2


def _closed_form(p, delta):
    """``(num+, den+, num-, den-)`` at detuning ``delta``, grouped as in
    the module docstring.

    ``p`` and ``delta`` are a SystemParams and a float, or ParamColumns
    and a :class:`ComplexGrid`; both evaluate the same operations in the
    same order.  On a float, raises ``OverflowError`` when ``|G|^2``
    exceeds the float range.
    """
    gamma = promote(p.gamma1)
    g1_sq = _abs_squared(p.G1)
    g2_sq = _abs_squared(p.G2)
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


def s_pair_grid(
    p: SystemParams | ParamColumns, deltas
) -> tuple[ComplexGrid, ComplexGrid, tuple[int, MorsimError] | None]:
    """:func:`s_pair` at every probe detuning in ``deltas`` at once.

    ``p`` is a SystemParams, validated here (its ``delta`` is not used),
    or ParamColumns holding one row per detuning.  Returns ``(s+, s-,
    failure)``: two grids whose values equal those of :func:`s_pair` at
    each row's parameters and detuning bit for bit, and ``failure``,
    None or ``(i, error)`` with ``i`` the first row where :func:`s_pair`
    raises and ``error`` what it raises there.  Values from ``i`` on are
    not defined.  What fails for a whole parameter set (unequal gammas,
    an overflowing ``|G|^2``) fails at its first row.
    """
    p, delta = param_rows(p, deltas)
    with np.errstate(all="ignore"):
        num_plus, den_plus, num_minus, den_minus = _closed_form(p, delta)
        abs_plus, abs_minus = abs(den_plus), abs(den_minus)
        # An infinite |G|^2 makes every denominator of its rows infinite.
        unbounded = ~(np.isfinite(abs_plus) & np.isfinite(abs_minus))
        unequal = p.gamma1 != p.gamma2
        failing = (unequal | unbounded
                   | (abs_plus < DENOMINATOR_GUARD) | (abs_minus < DENOMINATOR_GUARD))
        failure = None
        if failing.any():
            i = int(np.argmax(failing))
            at = p.at(i, float(delta.re[i]))
            if unequal[i]:
                error = _unequal_gammas(at)
            elif unbounded[i]:
                error = _overflow(at)
            else:
                error = _vanishing(abs_plus[i], abs_minus[i], at)
            failure = (i, error)
        return num_plus / den_plus, num_minus / den_minus, failure
