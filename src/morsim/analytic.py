"""Closed-form scaled susceptibilities of the driven four-level medium.

The weak-probe response of each circular component has an exact
rational form for any lower decay rates gamma1, gamma2.  With

    d+  = gamma1 + i(delta + Omega)        sigma+ coherence factor
    d-  = gamma2 + i(delta - Omega)        sigma- coherence factor
    q   = Gamma1 + Gamma2 + i(Delta + delta)   two-photon coherence factor

the pair is

    s+ = i gamma1 [ |G2|^2 + d- q ] / ( |G2|^2 d+ + d- [ |G1|^2 + d+ q ] )
    s- = i gamma2 [ |G1|^2 + d+ q ] / ( |G1|^2 d- + d+ [ |G2|^2 + d- q ] )

It solves the first-order equations of rho_1g, rho_2g and rho_eg with
one probe component driven.  The grouping above is evaluated verbatim
(no algebraic reshuffling) so the code can be audited term by term; the
density-matrix engine in :mod:`morsim.lindblad` provides the
independent numerical check.  The same expression serves one parameter
set (:func:`s_pair`) and many rows of them (:func:`s_pair_grid`), with
identical results.
"""

from __future__ import annotations

import math

import numpy as np

from .complexgrid import ComplexGrid, abs_squared, promote
from .core import (ParamColumns, SusceptibilityPair, SystemParams, _check_type, _first_failure,
                   detuning_factors, validate_params)
from .errors import MorsimError, NumericError

__all__ = [
    "s_pair",
    "s_pair_grid",
]

# Below this magnitude (gamma-scaled units) a response denominator is
# treated as numerically degenerate rather than divided through.
DENOMINATOR_GUARD = 1e-12


def _closed_form(p):
    """``(num+, den+, num-, den-)`` at ``p``, grouped as in the module
    docstring.

    ``p`` is a SystemParams or ParamColumns; both evaluate the same
    operations in the same order.  On a SystemParams, raises
    ``OverflowError`` when ``|G|^2`` exceeds the float range.
    """
    g1_sq = abs_squared(p.G1)
    g2_sq = abs_squared(p.G2)
    d_plus, d_minus, q = detuning_factors(p)

    num_plus = 1j * promote(p.gamma1) * (g2_sq + d_minus * q)
    den_plus = g2_sq * d_plus + d_minus * (g1_sq + d_plus * q)
    num_minus = 1j * promote(p.gamma2) * (g1_sq + d_plus * q)
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
    """Closed-form (s+, s-) at ``p``, for any lower decay rates.

    Depends on the control amplitudes only through |G1|^2 and |G2|^2.

    Raises
    ------
    ParameterError
        If ``p`` is invalid.
    NumericError
        If either denominator magnitude falls below the guard, which is
        absolute: rates of order 1e-7 put the cubic denominators below
        it.  A degenerate denominator must surface as an error, not as a
        huge value.  Also if ``|G|^2`` or a denominator magnitude
        overflows, which would otherwise surface as a nan.
    """
    validate_params(p)
    try:
        num_plus, den_plus, num_minus, den_minus = _closed_form(p)
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
    rows: ParamColumns,
) -> tuple[ComplexGrid, ComplexGrid, tuple[int, MorsimError] | None]:
    """:func:`s_pair` on every row of ``rows`` at once.

    Returns ``(s+, s-, failure)``: two grids whose values equal those of
    :func:`s_pair` at each row's parameters bit for bit, and
    ``failure``, None or ``(i, error)`` with ``i`` the first row where
    :func:`s_pair` raises and ``error`` what it raises there.  Values
    from ``i`` on are not defined.  What fails for a whole parameter set
    (an overflowing ``|G|^2``) fails at its first row.
    """
    _check_type(rows, ParamColumns, "rows")
    with np.errstate(all="ignore"):
        num_plus, den_plus, num_minus, den_minus = _closed_form(rows)
        abs_plus, abs_minus = abs(den_plus), abs(den_minus)
        # An infinite |G|^2 makes every denominator of its rows infinite.
        return num_plus / den_plus, num_minus / den_minus, _first_failure([
            (np.isfinite(abs_plus) & np.isfinite(abs_minus), lambda i: _overflow(rows.at(i))),
            ((abs_plus >= DENOMINATOR_GUARD) & (abs_minus >= DENOMINATOR_GUARD),
             lambda i: _vanishing(abs_plus[i], abs_minus[i], rows.at(i))),
        ])
