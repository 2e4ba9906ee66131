"""Steady-state density-matrix engine for the four-level medium.

The equations of motion of the 4x4 density matrix in the rotating frame,
basis ordered ``{|e>, |1>, |2>, |g>}`` (indices 0..3), are written once,
as a table ``(a, b) -> {(m, n): coefficient}`` holding the coefficient
of ``rho_mn`` in ``d/dt rho_ab``.  Its ten rows are the diagonal and the
upper-triangle coherences ee, e1, e2, eg, 11, 12, 1g, 22, 2g, gg; the
remaining six rows follow from Hermiticity.  Conventions:

* populations in |e> decay at ``2*Gamma1`` into |1> and ``2*Gamma2``
  into |2>; sublevels decay at ``2*gamma_i`` into |g>;
* the optical coherences carry the detuning factors of
  :func:`~morsim.core.detuning_factors`,
  ``gamma1 + i(delta + Omega)`` for rho_1g,
  ``gamma2 + i(delta - Omega)`` for rho_2g,
  ``Gamma1 + Gamma2 + i(Delta + delta)`` for the two-photon rho_eg,
  and ``gamma1 + gamma2 + 2i*Omega`` for the Raman rho_12;
* control half-amplitudes ``G1, G2`` act on |1>-|e>, |2>-|e> and probe
  half-amplitudes ``g1, g2`` on |g>-|1>, |g>-|2>, complex phases kept.

Both engines read the table.  :func:`build_generator` assembles it into
the 16x16 generator ``L``, whose stationary state :func:`steady_state`
finds by a direct constrained linear solve (one redundant row replaced
by the trace condition), exact to round-off and immune to the stiffness
a time integrator would face at large control amplitudes.  Where each
coefficient goes in ``L`` depends only on the table's keys, so it is
worked out once, at import; the table writes 83 entries, each through
one term.  The probe terms do not depend on the parameters, so at a
real probe amplitude ``g`` the generator is ``L(0, 0) + g P``, with ``P``
constant per circular probe component.  The finite-probe engine
:func:`probe_response_finite` builds ``L(0, 0)`` once per point, adds
``g P`` for each component, and solves both in one stacked
``(2, 16, 16)`` steady-state solve; a matrix gets the same bits alone as
in a stack.  The weak-probe response is linear response around
``rho0 = |g><g|``: with ``L = L0 + L1(g)`` the first-order state solves
``L0 rho1 = -L1 rho0``.  At zero probe the rows of rho_1g, rho_2g and
rho_eg close on those three coherences, so the first-order system is the
table's 3x3 coherence block, driven by minus those rows' rho_gg column;
only the three coherence rows are built for it, once for both probe
components.

Both routes check their solves by one rule (:func:`_solve`,
:func:`_residuals`, :func:`_first_failure`): a stack is solved in one
call, and re-solved matrix by matrix up to its first singular matrix
only if that call fails; each residual must be at most ``RESIDUAL_TOL``
times the Frobenius norm of its matrix; and the first failing matrix,
in stack order, is reported with the first check it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexgrid import ComplexGrid
from .core import (ParamColumns, SusceptibilityPair, SystemParams, detuning_factors,
                   validate_params)
from .errors import ParameterError, SingularSystemError

__all__ = [
    "DensityMatrix",
    "build_generator",
    "steady_state",
    "probe_response_perturbative",
    "probe_response_perturbative_grid",
    "probe_response_finite",
]

# Basis indices, order {e, 1, 2, g}.
_E, _M1, _M2, _G = 0, 1, 2, 3
# Unknowns of the first-order system, in solve order, and the ground population.
_COHERENCES = ((_M1, _G), (_M2, _G), (_E, _G))
_GG = (_G, _G)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POPULATION_TOL = -1e-12
RESIDUAL_TOL = 1e-10

# Largest probe half-amplitude (units of gamma) accepted by the
# finite-probe path; beyond this the extracted response is no longer a
# meaningful approximation of the weak-probe limit.
MAX_FINITE_PROBE = 1e-2


@dataclass(frozen=True)
class DensityMatrix:
    """Validated 4x4 state over the ordered basis ``{e, 1, 2, g}``."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ParameterError(f"density matrix must be 4x4, got {rho.shape}")
        failure = _first_failure(_state_checks(rho[np.newaxis]))
        if failure:
            raise failure[1]
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal, ordered (e, 1, 2, g)."""
        return np.real(np.diag(self.rho))

    def coherence(self, upper: int, lower: int) -> complex:
        return complex(self.rho[upper, lower])


def _first_failure(checks: list) -> tuple[int, Exception] | None:
    """The first matrix of a stack that fails one of ``checks``, as
    ``(i, error)``, or None if every matrix passes.

    ``checks`` holds ``(passes, error)`` pairs in check order: ``passes``
    has one boolean per matrix, and ``error(i)`` is the exception for
    matrix ``i``.  The first check that matrix fails wins.
    """
    passes = np.array([ok for ok, _ in checks])
    if passes.all():
        return None
    i = int(np.argmin(passes.all(axis=0)))
    return i, checks[int(np.argmin(passes[:, i]))][1](i)


def _state_checks(rho: np.ndarray) -> list:
    """The :class:`DensityMatrix` checks of a ``(k, 4, 4)`` stack, in order,
    as :func:`_first_failure` takes them.  Each fails on nan."""
    herm = abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    trace = abs(rho.trace(axis1=-2, axis2=-1) - 1.0)
    pops = rho.diagonal(axis1=-2, axis2=-1).real.min(axis=-1)
    return [
        (herm <= HERMITICITY_TOL,
         lambda i: ParameterError(f"non-Hermitian density matrix: deviation {herm[i]:.3e}")),
        (trace <= TRACE_TOL,
         lambda i: ParameterError(f"trace differs from 1 by {trace[i]:.3e}")),
        (pops >= POPULATION_TOL,
         lambda i: ParameterError(f"negative population: {pops[i]:.3e}")),
    ]


def _coherence_rows(p, g1: complex, g2: complex) -> dict:
    """Equations of motion of the probe coherences rho_1g, rho_2g, rho_eg.

    For a SystemParams the coefficients are scalars; for ParamColumns
    those that depend on the parameters, the detuning included, are
    ComplexGrids over the rows, the probe terms scalars.
    """
    a1, a2, q = detuning_factors(p)
    G1, G2 = p.G1, p.G2
    return {
        (_M1, _G): {
            (_M1, _G): -a1,
            (_G, _G): 1j * g1, (_M1, _M1): -1j * g1,
            (_E, _G): 1j * G1.conjugate(), (_M1, _M2): -1j * g2,
        },
        (_M2, _G): {
            (_M2, _G): -a2,
            (_G, _G): 1j * g2, (_M2, _M2): -1j * g2,
            (_E, _G): 1j * G2.conjugate(), (_M2, _M1): -1j * g1,
        },
        (_E, _G): {
            (_E, _G): -q,
            (_M1, _G): 1j * G1, (_M2, _G): 1j * G2,
            (_E, _M1): -1j * g1, (_E, _M2): -1j * g2,
        },
    }


def _equations_of_motion(p: SystemParams, g1: complex, g2: complex) -> dict:
    """The ten explicit equations, ``(a, b) -> {(m, n): coefficient}``.

    ``coefficient`` multiplies ``rho_mn`` in ``d/dt rho_ab``.
    """
    gamma1, gamma2 = p.gamma1, p.gamma2
    Gam = p.Gamma1 + p.Gamma2
    G1, G2 = p.G1, p.G2
    Om, De = p.Omega, p.Delta
    rows = {
        (_E, _E): {
            (_E, _E): -2.0 * Gam,
            (_M1, _E): 1j * G1, (_E, _M1): -1j * G1.conjugate(),
            (_M2, _E): 1j * G2, (_E, _M2): -1j * G2.conjugate(),
        },
        (_E, _M1): {
            (_E, _M1): -(Gam + gamma1 + 1j * (De - Om)),
            (_M1, _M1): 1j * G1, (_E, _E): -1j * G1,
            (_M2, _M1): 1j * G2, (_E, _G): -1j * g1.conjugate(),
        },
        (_E, _M2): {
            (_E, _M2): -(Gam + gamma2 + 1j * (De + Om)),
            (_M2, _M2): 1j * G2, (_E, _E): -1j * G2,
            (_M1, _M2): 1j * G1, (_E, _G): -1j * g2.conjugate(),
        },
        (_M1, _M1): {
            (_E, _E): 2.0 * p.Gamma1, (_M1, _M1): -2.0 * gamma1,
            (_E, _M1): 1j * G1.conjugate(), (_M1, _E): -1j * G1,
            (_G, _M1): 1j * g1, (_M1, _G): -1j * g1.conjugate(),
        },
        (_M1, _M2): {
            (_M1, _M2): -(gamma1 + gamma2 + 2j * Om),
            (_E, _M2): 1j * G1.conjugate(), (_G, _M2): 1j * g1,
            (_M1, _E): -1j * G2, (_M1, _G): -1j * g2.conjugate(),
        },
        (_M2, _M2): {
            (_E, _E): 2.0 * p.Gamma2, (_M2, _M2): -2.0 * gamma2,
            (_E, _M2): 1j * G2.conjugate(), (_M2, _E): -1j * G2,
            (_G, _M2): 1j * g2, (_M2, _G): -1j * g2.conjugate(),
        },
        (_G, _G): {
            (_M1, _M1): 2.0 * gamma1, (_M2, _M2): 2.0 * gamma2,
            (_M1, _G): 1j * g1.conjugate(), (_G, _M1): -1j * g1,
            (_M2, _G): 1j * g2.conjugate(), (_G, _M2): -1j * g2,
        },
    }
    rows.update(_coherence_rows(p, g1, g2))
    return rows


def _scatter_plan() -> tuple[np.ndarray, np.ndarray]:
    """Where the coefficients of :func:`_coefficients` go in the generator.

    Returns the flat 16x16 position of each coefficient and the terms
    that get a Hermitian completion (those in off-diagonal rows).  Both
    depend only on the table's keys, which no parameter changes: the
    table is evaluated here for its keys alone.
    """
    table = _equations_of_motion(SystemParams(), 0.0, 0.0)
    terms = [(row, col) for row, cols in table.items() for col in cols]
    mirrored = [i for i, ((a, b), _) in enumerate(terms) if a != b]
    # Hermitian completion: d/dt rho_ba = conj(d/dt rho_ab).
    keys = terms + [((b, a), (n, m)) for (a, b), (m, n) in (terms[i] for i in mirrored)]
    positions = np.array([16 * (4 * a + b) + 4 * m + n for (a, b), (m, n) in keys])
    return positions, np.array(mirrored)


_POSITIONS, _MIRRORED = _scatter_plan()


def _coefficients(p: SystemParams, g1: complex, g2: complex) -> np.ndarray:
    """The table's coefficients at ``p`` in :func:`_scatter_plan` order."""
    table = _equations_of_motion(p, g1, g2)
    values = np.array([c for terms in table.values() for c in terms.values()], dtype=complex)
    return np.concatenate((values, values[_MIRRORED].conj()))


def _generator(p: SystemParams, g1: complex, g2: complex) -> np.ndarray:
    """:func:`build_generator` for parameters already validated, writable."""
    matrix = np.zeros(256, dtype=complex)
    # Every entry is written once; adding to zero turns a -0.0 part into +0.0.
    matrix[_POSITIONS] += _coefficients(p, complex(g1), complex(g2))
    return matrix.reshape(16, 16)


def build_generator(p: SystemParams, g1: complex, g2: complex) -> np.ndarray:
    """The equations of motion as a read-only 16x16 complex matrix.

    ``matrix[4a+b, 4m+n]`` is the coefficient of ``rho_mn`` in the
    equation of motion of ``rho_ab``, so the matrix acts on the
    row-major flattened density matrix.  Rows for conjugate elements
    are filled with conjugated coefficients on transposed element
    indices, which preserves Hermiticity by construction.
    """
    validate_params(p)
    matrix = _generator(p, g1, g2)
    matrix.flags.writeable = False
    return matrix


# Per unit g1 and per unit g2: each probe term is +-i g or +-i g* and writes
# an entry no other term writes, so L(g, 0) = L(0, 0) + g * _PROBE[0] for real g.
_PROBE = np.stack([_generator(SystemParams(), *unit) - _generator(SystemParams(), 0.0, 0.0)
                   for unit in ((1.0, 0.0), (0.0, 1.0))])
_PROBE.flags.writeable = False


def _generator_pair(p: SystemParams, g: float) -> np.ndarray:
    """The ``(2, 16, 16)`` stack of :func:`build_generator` at ``(g1, g2)``
    = ``(g, 0)`` and ``(0, g)``, for parameters already validated, with
    the bits of those two calls from one evaluation of the table."""
    return _generator(p, 0.0, 0.0) + g * _PROBE


# The trace condition that replaces the redundant ground-population row.
_GG_ROW = 4 * _G + _G
_TRACE_COLUMNS = np.array([4 * level + level for level in (_E, _M1, _M2, _G)])
_UNIT_TRACE = np.zeros(16, dtype=complex)
_UNIT_TRACE[_GG_ROW] = 1.0
_UNIT_TRACE.flags.writeable = False


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes; a matrix gets the same bits
    alone as inside a stack, which ``np.linalg.norm`` does not promise."""
    x = m.view(float)
    return np.sqrt((x * x).sum(axis=(-2, -1)))


def _solve(a: np.ndarray, b: np.ndarray, error) -> tuple[np.ndarray, list]:
    """Solve each matrix of the stack ``a`` against ``b`` in one call.

    Returns the solutions and the solvability check as
    :func:`_first_failure` takes it, with ``error(i)`` for a singular
    matrix ``i``: no check if the stacked solve succeeds.  Otherwise the
    matrices are solved one by one up to the first singular one, and the
    solutions from it on are nan.  A matrix gets the same bits alone as
    inside a stack.
    """
    try:
        return np.linalg.solve(a, b), []
    except np.linalg.LinAlgError:
        # The stacked solve does not say which matrix is singular.
        x = np.full(a.shape[:-1] + b.shape[1:], np.nan, dtype=complex)
        solved = np.zeros(len(a), dtype=bool)
        for i, matrix in enumerate(a):
            try:
                x[i] = np.linalg.solve(matrix, b)
            except np.linalg.LinAlgError:
                break
            solved[i] = True
        return x, [(solved, error)]


def _residuals(a: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The norm of each residual ``r`` of a solve of the stack ``a``, its
    bound ``RESIDUAL_TOL * ||a||``, and whether it passes.

    A residual passes only if it is at most a finite bound, so a nan
    residual fails, and so does any residual once the bound overflows.
    Run it, and the forming of ``r``, with NumPy's floating-point errors
    ignored.
    """
    residual = _frobenius(r)
    # A caller's ``r`` is a temporary that only this frame holds: freed
    # here, it does not add to the peak memory of the bound's square.
    del r
    bound = RESIDUAL_TOL * _frobenius(a)
    return residual, bound, (residual <= bound) & (bound < np.inf)


def _steady_states(L: np.ndarray, check_states: bool = True
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary states of a ``(k, 16, 16)`` stack of generators, with
    the residual and the bound of each.

    Each generator's redundant ground-population row is replaced by the
    unit-trace condition, and the ``k`` systems are solved in one call.
    The raw solutions carry a round-off-scale non-Hermitian component,
    which is projected out.  Raises for the first matrix, in stack order,
    whose solve is singular, whose residual is not within a finite bound,
    or (with ``check_states``) whose state fails a :class:`DensityMatrix`
    check, with the error :func:`steady_state` raises for it.
    """
    constrained = L.copy()
    constrained[:, _GG_ROW] = 0.0
    constrained[:, _GG_ROW, _TRACE_COLUMNS] = 1.0
    vec, checks = _solve(constrained, _UNIT_TRACE, lambda i: SingularSystemError(
        "steady-state solve failed: Singular matrix"))
    rho = vec.reshape(-1, 4, 4)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    with np.errstate(all="ignore"):
        residual, bound, within = _residuals(L, L @ rho.reshape(-1, 16, 1))
        checks.append((within, lambda i: SingularSystemError(
            f"steady-state residual {residual[i]:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"* ||L|| = {bound[i]:.3e}")))
        failure = _first_failure(checks + (_state_checks(rho) if check_states else []))
    if failure:
        raise failure[1]
    return rho, residual, bound


def steady_state(generator: np.ndarray) -> DensityMatrix:
    """Unique stationary state of a 16x16 generator from :func:`build_generator`.

    Replaces the (redundant) ground-population row with the unit-trace
    condition and solves the resulting 16x16 system directly.  The raw
    solution carries a round-off-scale non-Hermitian component, which is
    projected out before validation; the residual certificate is
    computed on the returned state, as the Frobenius norm of
    ``L rho`` against ``RESIDUAL_TOL`` times that of ``L``.  The state
    checks are those of :class:`DensityMatrix`, run once, by its
    constructor, after the residual check.
    """
    L = np.ascontiguousarray(generator, dtype=complex)
    if L.shape != (16, 16):
        raise ParameterError(f"generator must be 16x16, got {L.shape}")
    rho, _, _ = _steady_states(L[np.newaxis], check_states=False)
    return DensityMatrix(rho=rho[0])


def _first_order_system(p):
    """``(L0, -L1 rho0)`` of the first-order system, read off the coherence rows.

    Returns the coefficient block over (rho_1g, rho_2g, rho_eg) as
    nested lists and the ``(3, 2)`` drive, one column per circular probe
    component driven alone at unit amplitude.  The rows are built once,
    with both probe components on: the probe enters them only outside
    their own columns, so the block does not depend on it, and component
    ``j`` drives only the rho_gg entry of coherence row ``j``.  The other
    drive entries are +0.0.
    """
    rows = _coherence_rows(p, 1.0, 1.0)
    block = [[row.get(col, 0.0) for col in _COHERENCES] for row in rows.values()]
    drive = np.zeros((3, 2), dtype=complex)
    for j, coherence in enumerate(_COHERENCES[:2]):
        # 0 - x rather than -x keeps the zero part of the drive at +0.0.
        drive[j, j] = 0.0 - rows[coherence][_GG]
    return block, drive


def _where(p: SystemParams) -> str:
    return (f"delta={p.delta}, Delta={p.Delta}, Omega={p.Omega}, "
            f"|G1|={abs(p.G1)}, |G2|={abs(p.G2)}")


def _singular_error(p: SystemParams) -> SingularSystemError:
    return SingularSystemError(f"first-order coherence system singular at {_where(p)}")


def _residual_error(residual: float, bound: float, p: SystemParams) -> SingularSystemError:
    what = f"residual {residual:.3e} too large" if bound < np.inf else "residual bound overflows"
    return SingularSystemError(f"first-order solve {what} at {_where(p)}")


def probe_response_perturbative(p: SystemParams) -> SusceptibilityPair:
    """Weak-probe (s+, s-) from the first-order coherence equations.

    To lowest order in the probe the populations stay at the zero-probe
    stationary state (all weight in |g>) and the three coherences
    (rho_1g, rho_2g, rho_eg) close among themselves; their block of the
    equations-of-motion table is solved directly.  Each circular
    probe component is applied separately, so the returned pair is the
    diagonal response per component: s+ is rho_1g per unit g1 (times
    gamma1), s- is rho_2g per unit g2 (times gamma2).  Supports
    gamma1 != gamma2.
    """
    validate_params(p)
    block, rhs = _first_order_system(p)
    coeffs = np.array(block, dtype=complex)
    try:
        sol = np.linalg.solve(coeffs, rhs)
    except np.linalg.LinAlgError as exc:
        raise _singular_error(p) from exc
    with np.errstate(all="ignore"):
        residual, bound, within = _residuals(coeffs, coeffs @ sol - rhs)
    if not within:
        raise _residual_error(residual, bound, p)
    s_plus = p.gamma1 * complex(sol[0, 0])
    s_minus = p.gamma2 * complex(sol[1, 1])
    return SusceptibilityPair(s_plus=s_plus, s_minus=s_minus)


def probe_response_perturbative_grid(
    rows: ParamColumns,
) -> tuple[ComplexGrid, ComplexGrid, tuple[int, SingularSystemError] | None]:
    """:func:`probe_response_perturbative` on every row of ``rows``.

    One stacked ``(n, 3, 3)`` solve replaces the ``n`` scalar ones, each
    matrix checked against its own residual bound.  Returns ``(s+, s-,
    failure)``: two grids whose values equal those of the scalar
    function at each row's parameters bit for bit, and ``failure``,
    None or ``(i, error)`` with ``i`` the first row where the scalar
    function raises and ``error`` what it raises there.  Values from
    ``i`` on are not defined.
    """
    block, rhs = _first_order_system(rows)
    coeffs = np.empty((len(rows.delta), 3, 3), dtype=complex)
    for i, row in enumerate(block):
        for j, entry in enumerate(row):
            if isinstance(entry, ComplexGrid):
                coeffs.real[:, i, j], coeffs.imag[:, i, j] = entry.re, entry.im
            else:
                coeffs[:, i, j] = entry
    sol, checks = _solve(coeffs, rhs, lambda i: _singular_error(rows.at(i)))
    with np.errstate(all="ignore"):
        residual, bound, within = _residuals(coeffs, coeffs @ sol - rhs)
        s_plus = rows.gamma1 * ComplexGrid.from_numpy(sol[:, 0, 0])
        s_minus = rows.gamma2 * ComplexGrid.from_numpy(sol[:, 1, 1])
    checks.append((within, lambda i: _residual_error(residual[i], bound[i], rows.at(i))))
    return s_plus, s_minus, _first_failure(checks)


def probe_response_finite(p: SystemParams, g_mag: float) -> SusceptibilityPair:
    """(s+, s-) from full 16-dimensional steady states at finite probe.

    Each circular component is driven on its own with real amplitude
    ``g_mag`` and the response read off the corresponding coherence:
    s+ = gamma1 * rho_1g / g1 and s- = gamma2 * rho_2g / g2.  As
    ``g_mag -> 0`` this converges to the perturbative response with
    error of order ``g_mag**2`` (probe-induced population corrections).
    """
    validate_params(p)
    if not (g_mag > 0):
        raise ParameterError(f"nonpositive probe amplitude: {g_mag}")
    if g_mag > MAX_FINITE_PROBE:
        raise ParameterError(
            f"probe too strong: g={g_mag} exceeds {MAX_FINITE_PROBE} "
            f"(weak-probe extraction would be unreliable)"
        )
    rho, _, _ = _steady_states(_generator_pair(p, g_mag))
    s_plus = p.gamma1 * complex(rho[0, _M1, _G]) / g_mag
    s_minus = p.gamma2 * complex(rho[1, _M2, _G]) / g_mag
    return SusceptibilityPair(s_plus=s_plus, s_minus=s_minus)
