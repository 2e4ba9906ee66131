"""Shared draw and comparison helpers for the test suite."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields, replace
from decimal import Context, Decimal

import numpy as np

from morsim import (
    CSV_HEADER,
    CrossValidationError,
    EmitError,
    MorsimError,
    NumericError,
    ParameterError,
    SingularSystemError,
    SusceptibilityPair,
    SystemParams,
    probe_response_perturbative,
    rotation_angle,
    s_pair,
    sweep,
    transmission_x,
    transmission_y,
    validate_params,
)
from morsim import lindblad
from morsim.analytic import DENOMINATOR_GUARD
from morsim.core import ParamColumns, detuning_factors
from morsim.sweep import OutputRow, validate_config


# Bounds of the accuracy headroom, at least 60x above the worst values
# measured on the presets and seeded sweeps: 8.2e-15 and 1.5e-6.
WORST_ERROR = 1e-12
WORST_RESIDUAL_RATIO = 1e-4


def spy_headroom(monkeypatch) -> dict:
    """Spies, set through ``monkeypatch``, on the worst cross-validation
    error and residual ratio of the calls that follow, a nan propagating:
    a dict that fills as they run."""
    record = {"error": 0.0, "ratio": 0.0}
    rel_err_grid, residuals = sweep._rel_err_grid, lindblad._residuals

    def spy_rel_err_grid(a, b):
        err = rel_err_grid(a, b)
        record["error"] = np.maximum(record["error"], np.max(err))
        return err

    def spy_residuals(a, r):
        residual, bound, within = residuals(a, r)
        record["ratio"] = np.maximum(record["ratio"], np.max(residual / bound))
        return residual, bound, within

    monkeypatch.setattr(sweep, "_rel_err_grid", spy_rel_err_grid)
    monkeypatch.setattr(lindblad, "_residuals", spy_residuals)
    return record


def rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def pair_rel_err(p, q) -> float:
    return max(rel_err(p.s_plus, q.s_plus), rel_err(p.s_minus, q.s_minus))


def random_complex(rng: np.random.Generator, max_magnitude: float) -> complex:
    return rng.uniform(0.0, max_magnitude) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


# The regime of the ``finite`` benchmark workload: the fig4 variants (Omega = Delta = 5,
# G2 = 10, G1 in {0, 20, 50}) at every 8th of its 1,601 detunings on -80..80.
FIG4_VARIANTS = tuple(SystemParams(Omega=5.0, Delta=5.0, G1=g1, G2=10.0, alpha_l=30.0)
                      for g1 in (0.0, 20.0, 50.0))
FIG4_DELTAS = np.linspace(-80.0, 80.0, 1601)[::8]


def rows(p: SystemParams, deltas) -> ParamColumns:
    """``p``, validated, as grid-engine rows: one at each detuning in ``deltas``."""
    validate_params(p)
    return ParamColumns((p,)).take(np.zeros(len(deltas), dtype=np.intp), deltas)


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


def reference_converted(cls, values: dict) -> dict:
    """Reference for field conversion: the field values of ``cls(**values)``
    (SystemParams, JonesVector or SusceptibilityPair), with ``values``
    naming every field, by the rule that converts every field with no
    shortcut for a value of the field's exact type.

    The real fields come first, in declared order: a NumPy complex number
    is a TypeError, anything else goes through ``float()``.  Then every
    complex field goes through ``complex()``.  Where either refuses a value
    with a ValueError or an OverflowError, its reason is a ParameterError.
    """
    kinds = {f.name: f.type for f in fields(cls)}
    order = [name for name in kinds if kinds[name] == "float"]
    order += [name for name in kinds if kinds[name] == "complex"]
    converted = {}
    for name in order:
        value = values[name]
        if kinds[name] == "float" and isinstance(value, np.complexfloating):
            raise TypeError(f"{name} must be a real number, not {type(value).__name__}")
        try:
            converted[name] = (float if kinds[name] == "float" else complex)(value)
        except (ValueError, OverflowError) as exc:
            raise ParameterError(str(exc)) from exc
    return converted


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Random positive unit-trace 4x4 Hermitian matrix."""
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def apply_generator(generator: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Time derivative of a 4x4 state under a 16x16 generator."""
    return (generator @ np.asarray(rho, dtype=complex).reshape(16)).reshape(4, 4)


def reference_equations_of_motion(p: SystemParams, g1: complex, g2: complex) -> dict:
    """Reference for the equations of motion: the ten explicit rows typed
    out term by term, ``(a, b) -> {(m, n): coefficient}``, with
    ``coefficient`` multiplying ``rho_mn`` in ``d/dt rho_ab``.

    The table ``morsim.lindblad`` was first written with, kept verbatim
    so that the terms its commutator rule derives can be compared with it.
    """
    E, M1, M2, G = 0, 1, 2, 3
    gamma1, gamma2 = p.gamma1, p.gamma2
    Gam = p.Gamma1 + p.Gamma2
    G1, G2 = p.G1, p.G2
    Om, De = p.Omega, p.Delta
    a1, a2, q = detuning_factors(p)
    return {
        (E, E): {
            (E, E): -2.0 * Gam,
            (M1, E): 1j * G1, (E, M1): -1j * G1.conjugate(),
            (M2, E): 1j * G2, (E, M2): -1j * G2.conjugate(),
        },
        (E, M1): {
            (E, M1): -(Gam + gamma1 + 1j * (De - Om)),
            (M1, M1): 1j * G1, (E, E): -1j * G1,
            (M2, M1): 1j * G2, (E, G): -1j * g1.conjugate(),
        },
        (E, M2): {
            (E, M2): -(Gam + gamma2 + 1j * (De + Om)),
            (M2, M2): 1j * G2, (E, E): -1j * G2,
            (M1, M2): 1j * G1, (E, G): -1j * g2.conjugate(),
        },
        (M1, M1): {
            (E, E): 2.0 * p.Gamma1, (M1, M1): -2.0 * gamma1,
            (E, M1): 1j * G1.conjugate(), (M1, E): -1j * G1,
            (G, M1): 1j * g1, (M1, G): -1j * g1.conjugate(),
        },
        (M1, M2): {
            (M1, M2): -(gamma1 + gamma2 + 2j * Om),
            (E, M2): 1j * G1.conjugate(), (G, M2): 1j * g1,
            (M1, E): -1j * G2, (M1, G): -1j * g2.conjugate(),
        },
        (M2, M2): {
            (E, E): 2.0 * p.Gamma2, (M2, M2): -2.0 * gamma2,
            (E, M2): 1j * G2.conjugate(), (M2, E): -1j * G2,
            (G, M2): 1j * g2, (M2, G): -1j * g2.conjugate(),
        },
        (G, G): {
            (M1, M1): 2.0 * gamma1, (M2, M2): 2.0 * gamma2,
            (M1, G): 1j * g1.conjugate(), (G, M1): -1j * g1,
            (M2, G): 1j * g2.conjugate(), (G, M2): -1j * g2,
        },
        (M1, G): {
            (M1, G): -a1,
            (G, G): 1j * g1, (M1, M1): -1j * g1,
            (E, G): 1j * G1.conjugate(), (M1, M2): -1j * g2,
        },
        (M2, G): {
            (M2, G): -a2,
            (G, G): 1j * g2, (M2, M2): -1j * g2,
            (E, G): 1j * G2.conjugate(), (M2, M1): -1j * g1,
        },
        (E, G): {
            (E, G): -q,
            (M1, G): 1j * G1, (M2, G): 1j * G2,
            (E, M1): -1j * g1, (E, M2): -1j * g2,
        },
    }


def reference_generator(p: SystemParams, g1: complex, g2: complex) -> np.ndarray:
    """Reference for ``build_generator``: :func:`reference_equations_of_motion`
    scattered term by term, positions worked out on every call."""
    validate_params(p)
    index, values = [], []
    for (a, b), terms in reference_equations_of_motion(p, complex(g1), complex(g2)).items():
        for (m, n), coeff in terms.items():
            index.append(16 * (4 * a + b) + 4 * m + n)
            values.append(coeff)
            if a != b:
                index.append(16 * (4 * b + a) + 4 * n + m)
                values.append(coeff.conjugate())
    matrix = np.zeros(256, dtype=complex)
    matrix[np.array(index)] += np.array(values, dtype=complex)
    return matrix.reshape(16, 16)


def reference_density_checks(rho: np.ndarray) -> None:
    """Reference for the ``DensityMatrix`` checks, one scalar at a time.

    Tolerances are read from ``morsim.lindblad`` at call time.
    """
    herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm_dev <= lindblad.HERMITICITY_TOL:
        raise ParameterError(f"non-Hermitian density matrix: deviation {herm_dev:.3e}")
    trace_dev = abs(complex(np.trace(rho)) - 1.0)
    if not trace_dev <= lindblad.TRACE_TOL:
        raise ParameterError(f"trace differs from 1 by {trace_dev:.3e}")
    pops = np.real(np.diag(rho))
    if not float(pops.min()) >= lindblad.POPULATION_TOL:
        raise ParameterError(f"negative population: {pops.min():.3e}")


def reference_solve(a: np.ndarray, b: np.ndarray, error) -> tuple[np.ndarray, list]:
    """Reference for ``lindblad._solve``: the stack in one call, and if that
    call fails, matrix by matrix up to the first singular one.

    The fallback ``_solve`` was first written with, kept verbatim so that
    the first failure it reports and the solutions before it can be
    compared with it.  Solutions from the first singular matrix on are nan.
    """
    try:
        return lindblad._lapack_solve(a, b), []
    except np.linalg.LinAlgError:
        x = np.full(a.shape[:-1] + b.shape[1:], np.nan, dtype=complex)
        solved = np.zeros(len(a), dtype=bool)
        for i, matrix in enumerate(a):
            try:
                x[i] = lindblad._lapack_solve(matrix, b)
            except np.linalg.LinAlgError:
                break
            solved[i] = True
        return x, [(solved, error)]


def reference_steady_state(generator: np.ndarray) -> np.ndarray:
    """Reference for ``steady_state(generator).rho``: one 16x16 solve,
    residual by ``np.linalg.norm``, then the scalar state checks.

    The single-matrix route the stacked steady-state kernel replaced,
    kept so that its states and errors can be compared with it.
    Tolerances are read from ``morsim.lindblad`` at call time.
    """
    L = np.asarray(generator, dtype=complex)
    constrained = np.array(L)
    gg = 4 * 3 + 3
    constrained[gg, :] = 0.0
    for level in range(4):
        constrained[gg, 4 * level + level] = 1.0
    rhs = np.zeros(16, dtype=complex)
    rhs[gg] = 1.0
    try:
        vec = np.linalg.solve(constrained, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"steady-state solve failed: {exc}") from exc
    rho = vec.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    with np.errstate(all="ignore"):
        residual = float(np.linalg.norm(L @ rho.reshape(16)))
        scale = float(np.linalg.norm(L))
    tol = lindblad.RESIDUAL_TOL
    if not residual <= tol * scale < np.inf:
        raise SingularSystemError(
            f"steady-state residual {residual:.3e} exceeds {tol:.0e} * ||L|| = "
            f"{tol * scale:.3e}"
        )
    reference_density_checks(rho)
    return rho


def reference_probe_response_finite(p: SystemParams, g_mag: float) -> SusceptibilityPair:
    """Reference for ``probe_response_finite``: two generators, two
    ``reference_steady_state`` calls, s+ solved and checked first."""
    validate_params(p)
    rho_plus = reference_steady_state(reference_generator(p, g_mag, 0.0))
    rho_minus = reference_steady_state(reference_generator(p, 0.0, g_mag))
    return SusceptibilityPair(s_plus=p.gamma1 * complex(rho_plus[1, 3]) / g_mag,
                              s_minus=p.gamma2 * complex(rho_minus[2, 3]) / g_mag)


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
    ``i gamma1 q / (|G1|^2 + d+ q)`` for any lower rates; for large |G1|
    its real and imaginary parts develop the Autler-Townes doublet.
    """
    validate_params(p)
    if p.G2 != 0:
        raise ParameterError(f"G2 nonzero: {p.G2} (sigma- control case requires G2 = 0)")
    gamma = p.gamma1
    d_plus, _, q = detuning_factors(p)
    den = abs(p.G1) ** 2 + d_plus * q
    if abs(den) < DENOMINATOR_GUARD:
        raise NumericError(
            f"vanishing denominator in sigma- control form (|den|={abs(den):.3e}) at {p}"
        )
    return 1j * gamma * q / den


def make_row(variant: str, delta: float, pair: SusceptibilityPair,
             alpha_l: float, engine: str) -> OutputRow:
    """One output row from a scalar pair, through the scalar observables."""
    return OutputRow(
        variant=variant,
        delta=float(delta),
        re_s_plus=pair.s_plus.real,
        im_s_plus=pair.s_plus.imag,
        re_s_minus=pair.s_minus.real,
        im_s_minus=pair.s_minus.imag,
        t_y=transmission_y(pair, alpha_l),
        t_x=transmission_x(pair, alpha_l),
        theta_rad=rotation_angle(pair, alpha_l),
        engine=engine,
    )


def scalar_sweep(cfg):
    """Reference for ``run_sweep``: every sample through the scalar functions.

    The point-by-point loop the grid evaluation replaced, kept verbatim
    so that rows, errors and the cross-validation report of the grid
    path can be compared with it for exact equality.  It has no rule
    for nonfinite output values, which ``run_sweep`` raises on.
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
                    rows.append(make_row(variant.name, delta, analytic_pair,
                                         p.alpha_l, "analytic"))
                if cfg.engine in ("numeric", "both"):
                    numeric_pair = probe_response_perturbative(p)
                    rows.append(make_row(variant.name, delta, numeric_pair,
                                         p.alpha_l, "numeric"))
            except MorsimError as exc:
                raise type(exc)(
                    f"variant {str(variant.name)!r}, delta={float(delta)}: {exc}"
                ) from exc
            if cfg.engine == "both":
                err = max(rel_err(analytic_pair.s_plus, numeric_pair.s_plus),
                          rel_err(analytic_pair.s_minus, numeric_pair.s_minus))
                if worst is None or err > worst[0]:
                    worst = (err, variant.name, float(delta))
    if worst is not None and worst[0] > sweep.CROSS_VALIDATION_TOL:
        raise CrossValidationError(
            f"analytic and numeric engines disagree: worst relative error "
            f"{worst[0]:.3e} at variant {str(worst[1])!r}, delta={worst[2]} "
            f"(tolerance {sweep.CROSS_VALIDATION_TOL:.0e})"
        )
    return rows


_TWELVE_DIGITS = Context(prec=12)


def _nonfinite(x) -> EmitError:
    return EmitError(f"nonfinite value in output row: {x!r}")


def reference_number(x) -> str:
    """Reference for a CSV number field: ``Decimal`` rounded to 12 digits.

    The formatter the CSV writer was first written with, kept verbatim
    so that the writer's bytes can be compared with it.
    """
    if not math.isfinite(x):
        raise _nonfinite(x)
    if x == 0.0:
        return "0"
    return format(_TWELVE_DIGITS.create_decimal(Decimal(x)), "f")


def _check_types(rows) -> None:
    """The EmitError for the first value, in row order, that is not a
    ``str`` name or a ``float`` number, checked one field at a time."""
    for i, row in enumerate(rows):
        for name, value in zip(CSV_HEADER, row):
            kind = str if name in ("variant", "engine") else float
            if not isinstance(value, kind):
                raise EmitError(f"output row {i}: {name} must be a {kind.__name__}, "
                                f"got {value!r}")


def reference_csv(rows) -> bytes:
    """Reference for ``emit(rows, "csv")``: csv.writer, one field at a time."""
    _check_types(rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([row.variant,
                         *(reference_number(getattr(row, name)) for name in CSV_HEADER[1:-1]),
                         row.engine])
    return buffer.getvalue().encode("utf-8")


def reference_json(rows) -> bytes:
    """Reference for ``emit(rows, "json")``: json.dumps of the row dicts."""
    _check_types(rows)
    payload = [{name: getattr(row, name) for name in CSV_HEADER} for row in rows]
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        bad = next(value for row in payload for value in row.values()
                   if isinstance(value, float) and not math.isfinite(value))
        raise _nonfinite(bad) from None
    return (text + "\n").encode("utf-8")
