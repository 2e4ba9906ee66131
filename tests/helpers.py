"""Shared draw and comparison helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from morsim import (
    CrossValidationError,
    MorsimError,
    NumericError,
    ParameterError,
    SusceptibilityPair,
    SystemParams,
    probe_response_perturbative,
    s_pair,
    sweep,
    validate_params,
)
from morsim.analytic import DENOMINATOR_GUARD, _require_equal_gammas
from morsim.core import detuning_factors
from morsim.sweep import _make_row, validate_config


def rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def pair_rel_err(p, q) -> float:
    return max(rel_err(p.s_plus, q.s_plus), rel_err(p.s_minus, q.s_minus))


def random_complex(rng: np.random.Generator, max_magnitude: float) -> complex:
    return rng.uniform(0.0, max_magnitude) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


def random_params(
    rng: np.random.Generator,
    g_max: float = 100.0,
    detuning_max: float = 100.0,
    equal_gammas: bool = True,
    unit_big_gammas: bool = False,
) -> SystemParams:
    """Random valid parameter set inside the tested envelope."""
    gamma1 = 1.0 if equal_gammas else rng.uniform(0.2, 3.0)
    gamma2 = gamma1 if equal_gammas else rng.uniform(0.2, 3.0)
    if unit_big_gammas:
        Gamma1 = Gamma2 = 1.0
    else:
        Gamma1 = rng.uniform(0.0, 5.0)
        Gamma2 = rng.uniform(1e-3, 5.0)  # keeps Gamma1 + Gamma2 > 0
    return SystemParams(
        gamma1=gamma1,
        gamma2=gamma2,
        Gamma1=Gamma1,
        Gamma2=Gamma2,
        Omega=rng.uniform(-detuning_max, detuning_max),
        Delta=rng.uniform(-detuning_max, detuning_max),
        delta=rng.uniform(-detuning_max, detuning_max),
        G1=random_complex(rng, g_max),
        G2=random_complex(rng, g_max),
        alpha_l=30.0,
    )


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Random positive unit-trace 4x4 Hermitian matrix."""
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def apply_generator(generator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Time derivative of a 4x4 state under a 16x16 generator."""
    return (generator @ np.asarray(rho, dtype=complex).reshape(16)).reshape(4, 4)


def s_no_control(p: SystemParams) -> SusceptibilityPair:
    """Bare-medium response ``s(+/-) = gamma / ((delta +/- Omega) - i gamma)``.

    Reference for ``s_pair`` and the density-matrix engine at
    ``G1 = G2 = 0``.  Unequal lower rates are supported by using
    ``gamma1`` for s+ and ``gamma2`` for s-.
    """
    validate_params(p)
    s_plus = p.gamma1 / ((p.delta + p.Omega) - 1j * p.gamma1)
    s_minus = p.gamma2 / ((p.delta - p.Omega) - 1j * p.gamma2)
    return SusceptibilityPair(s_plus=s_plus, s_minus=s_minus)


def s_plus_sigma_minus_control(p: SystemParams) -> complex:
    """s+ for a purely sigma- polarized control field (``G2 = 0``).

    Reference for ``s_pair(p).s_plus``: reduces to
    ``i gamma q / (|G1|^2 + d+ q)``; for large |G1| its real and
    imaginary parts develop the Autler-Townes doublet.
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


def scalar_sweep(cfg):
    """Reference for ``run_sweep``: every sample through the scalar functions.

    The point-by-point loop the grid evaluation replaced, kept verbatim
    so that rows, errors and the cross-validation report of the grid
    path can be compared with it for exact equality.
    """
    validate_config(cfg)
    rows = []
    worst = None
    for variant in cfg.variants:
        merged = variant.apply(cfg.base)
        for delta in cfg.delta_grid.values():
            p = replace(merged, delta=float(delta))
            try:
                if cfg.engine in ("analytic", "both"):
                    analytic_pair = s_pair(p)
                    rows.append(_make_row(variant.name, delta, analytic_pair,
                                          p.alpha_l, "analytic"))
                if cfg.engine in ("numeric", "both"):
                    numeric_pair = probe_response_perturbative(p)
                    rows.append(_make_row(variant.name, delta, numeric_pair,
                                          p.alpha_l, "numeric"))
            except MorsimError as exc:
                raise type(exc)(
                    f"variant {variant.name!r}, delta={float(delta)}: {exc}"
                ) from exc
            if cfg.engine == "both":
                err = max(rel_err(analytic_pair.s_plus, numeric_pair.s_plus),
                          rel_err(analytic_pair.s_minus, numeric_pair.s_minus))
                if worst is None or err > worst[0]:
                    worst = (err, variant.name, float(delta))
    if worst is not None and worst[0] > sweep.CROSS_VALIDATION_TOL:
        raise CrossValidationError(
            f"analytic and numeric engines disagree: worst relative error "
            f"{worst[0]:.3e} at variant {worst[1]!r}, delta={worst[2]} "
            f"(tolerance {sweep.CROSS_VALIDATION_TOL:.0e})"
        )
    return rows
