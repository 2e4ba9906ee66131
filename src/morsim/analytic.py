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


def s_pair_grid(
    p: SystemParams, deltas
) -> tuple[ComplexGrid, ComplexGrid, tuple[int, NumericError] | None]:
    """:func:`s_pair` at every probe detuning in ``deltas`` at once.

    ``p.delta`` is validated with the rest of ``p`` but not used.
    Returns ``(s+, s-, failure)``: two grids whose values equal those of
    ``s_pair(replace(p, delta=d))`` bit for bit, and ``failure``, None
    or ``(i, error)`` with ``i`` the first detuning where :func:`s_pair`
    raises and ``error`` what it raises there.  Values from ``i`` on are
    not defined.  What fails at every detuning (invalid parameters,
    unequal gammas, an overflowing ``|G|^2``) is raised, naming the
    first detuning.
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
        failure = None
        if failing.any():
            i = int(np.argmax(failing))
            at = replace(p, delta=float(delta.re[i]))
            failure = (i, _overflow(at) if unbounded[i]
                       else _vanishing(abs_plus[i], abs_minus[i], at))
        return num_plus / den_plus, num_minus / den_minus, failure
