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
a time integrator would face at large control amplitudes.  The weak-probe
response is linear response around ``rho0 = |g><g|``: with
``L = L0 + L1(g)`` the first-order state solves ``L0 rho1 = -L1 rho0``.
At zero probe the rows of rho_1g, rho_2g and rho_eg close on those three
coherences, so the first-order system is the table's 3x3 coherence
block, driven by minus those rows' rho_gg column; only the three
coherence rows are built for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexgrid import ComplexGrid, detuning_axis
from .core import SusceptibilityPair, SystemParams, detuning_factors, validate_params
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
        herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
        if herm_dev > HERMITICITY_TOL:
            raise ParameterError(f"non-Hermitian density matrix: deviation {herm_dev:.3e}")
        trace_dev = abs(complex(np.trace(rho)) - 1.0)
        if trace_dev > TRACE_TOL:
            raise ParameterError(f"trace differs from 1 by {trace_dev:.3e}")
        pops = np.real(np.diag(rho))
        if float(pops.min()) < POPULATION_TOL:
            raise ParameterError(f"negative population: {pops.min():.3e}")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal, ordered (e, 1, 2, g)."""
        return np.real(np.diag(self.rho))

    def coherence(self, upper: int, lower: int) -> complex:
        return complex(self.rho[upper, lower])


def _coherence_rows(p: SystemParams, factors, g1: complex, g2: complex) -> dict:
    """Equations of motion of the probe coherences rho_1g, rho_2g, rho_eg.

    ``factors`` are the detuning factors of :func:`detuning_factors`, as
    scalars or as complex128 arrays over a grid; the other coefficients
    are scalars.
    """
    a1, a2, q = factors
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
    rows.update(_coherence_rows(p, detuning_factors(p, p.delta), g1, g2))
    return rows


def build_generator(p: SystemParams, g1: complex, g2: complex) -> np.ndarray:
    """The equations of motion as a read-only 16x16 complex matrix.

    ``matrix[4a+b, 4m+n]`` is the coefficient of ``rho_mn`` in the
    equation of motion of ``rho_ab``, so the matrix acts on the
    row-major flattened density matrix.  Rows for conjugate elements
    are filled with conjugated coefficients on transposed element
    indices, which preserves Hermiticity by construction.
    """
    validate_params(p)
    index, values = [], []
    for (a, b), terms in _equations_of_motion(p, complex(g1), complex(g2)).items():
        for (m, n), coeff in terms.items():
            index.append(16 * (4 * a + b) + 4 * m + n)
            values.append(coeff)
            if a != b:
                # Hermitian completion: d/dt rho_ba = conj(d/dt rho_ab).
                index.append(16 * (4 * b + a) + 4 * n + m)
                values.append(coeff.conjugate())
    # Every entry is written once; adding to zero turns a -0.0 part into +0.0.
    matrix = np.zeros(256, dtype=complex)
    matrix[np.array(index)] += np.array(values, dtype=complex)
    matrix = matrix.reshape(16, 16)
    matrix.flags.writeable = False
    return matrix


def steady_state(generator: np.ndarray) -> DensityMatrix:
    """Unique stationary state of a 16x16 generator from :func:`build_generator`.

    Replaces the (redundant) ground-population row with the unit-trace
    condition and solves the resulting 16x16 system directly.  The raw
    solution carries a round-off-scale non-Hermitian component, which is
    projected out before validation; the residual certificate is
    computed on the returned state.
    """
    L = np.asarray(generator, dtype=complex)
    if L.shape != (16, 16):
        raise ParameterError(f"generator must be 16x16, got {L.shape}")
    constrained = np.array(L)
    gg = 4 * _G + _G
    constrained[gg, :] = 0.0
    for level in (_E, _M1, _M2, _G):
        constrained[gg, 4 * level + level] = 1.0
    rhs = np.zeros(16, dtype=complex)
    rhs[gg] = 1.0
    try:
        vec = np.linalg.solve(constrained, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"steady-state solve failed: {exc}") from exc
    rho = vec.reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)

    residual = float(np.linalg.norm(L @ rho.reshape(16)))
    scale = float(np.linalg.norm(L))
    if residual > RESIDUAL_TOL * scale:
        raise SingularSystemError(
            f"steady-state residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} * ||L|| = "
            f"{RESIDUAL_TOL * scale:.3e}"
        )
    return DensityMatrix(rho=rho)


def _first_order_system(p: SystemParams, factors, probe_amplitude: float):
    """``(L0, -L1 rho0)`` of the first-order system, read off the coherence rows.

    Returns the coefficient block over (rho_1g, rho_2g, rho_eg) as
    nested lists and the ``(3, 2)`` drive, one column per circular probe
    component driven alone.  The probe enters the coherence rows only
    outside their own columns, so the block is the same in either
    evaluation.
    """
    plus = _coherence_rows(p, factors, probe_amplitude, 0.0)
    minus = _coherence_rows(p, factors, 0.0, probe_amplitude)
    block = [[row.get(col, 0.0) for col in _COHERENCES] for row in plus.values()]
    # 0 - x rather than -x keeps the zero parts of the drive at +0.0.
    drive = [[0.0 - plus[c].get(_GG, 0.0), 0.0 - minus[c].get(_GG, 0.0)]
             for c in _COHERENCES]
    return block, np.array(drive, dtype=complex)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes; a matrix gets the same bits
    alone as inside a stack, which ``np.linalg.norm`` does not promise."""
    x = m.view(float)
    return np.sqrt((x * x).sum(axis=(-2, -1)))


def _residuals(coeffs: np.ndarray, sol: np.ndarray, rhs: np.ndarray,
               probe_amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Residual of each first-order solve and the bound it must not exceed."""
    residual = _frobenius(coeffs @ sol - rhs)
    return residual, RESIDUAL_TOL * _frobenius(coeffs) * probe_amplitude


def _where(p: SystemParams, delta: float) -> str:
    return (f"delta={delta}, Delta={p.Delta}, Omega={p.Omega}, "
            f"|G1|={abs(p.G1)}, |G2|={abs(p.G2)}")


def probe_response_perturbative(
    p: SystemParams, probe_amplitude: float = 1.0
) -> SusceptibilityPair:
    """Weak-probe (s+, s-) from the first-order coherence equations.

    To lowest order in the probe the populations stay at the zero-probe
    stationary state (all weight in |g>) and the three coherences
    (rho_1g, rho_2g, rho_eg) close among themselves; their block of the
    equations-of-motion table is solved directly.  Each circular
    probe component is applied separately, so the returned pair is the
    diagonal response per component: s+ is rho_1g per unit g1 (times
    gamma1), s- is rho_2g per unit g2 (times gamma2).  Supports
    gamma1 != gamma2.

    ``probe_amplitude`` rescales the drives; by linearity
    it must not change the result (exposed for exactly that check).
    """
    validate_params(p)
    if not (probe_amplitude > 0):
        raise ParameterError(f"nonpositive probe amplitude: {probe_amplitude}")
    block, rhs = _first_order_system(p, detuning_factors(p, p.delta), probe_amplitude)
    coeffs = np.array(block, dtype=complex)
    try:
        sol = np.linalg.solve(coeffs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"first-order coherence system singular at {_where(p, p.delta)}"
        ) from exc
    residual, bound = _residuals(coeffs, sol, rhs, probe_amplitude)
    if residual > bound:
        raise SingularSystemError(
            f"first-order solve residual {residual:.3e} too large at {_where(p, p.delta)}"
        )
    s_plus = p.gamma1 * complex(sol[0, 0]) / probe_amplitude
    s_minus = p.gamma2 * complex(sol[1, 1]) / probe_amplitude
    return SusceptibilityPair(s_plus=s_plus, s_minus=s_minus)


def probe_response_perturbative_grid(p: SystemParams, deltas) -> tuple[ComplexGrid, ComplexGrid]:
    """:func:`probe_response_perturbative` at every detuning in ``deltas``.

    ``p.delta`` is validated with the rest of ``p`` but not used.  One
    stacked ``(n, 3, 3)`` solve replaces the ``n`` scalar ones, each
    matrix checked against its own residual bound.  Returns ``(s+, s-)``
    as grids whose values equal those of
    ``probe_response_perturbative(replace(p, delta=d))`` bit for bit.
    A residual failure names the first failing detuning; a singular
    matrix names the grid, since the stacked solve does not say which.
    """
    validate_params(p)
    delta = detuning_axis(deltas)
    factors = [f.to_numpy() for f in detuning_factors(p, delta)]
    block, rhs = _first_order_system(p, factors, 1.0)
    coeffs = np.empty((len(delta.re), 3, 3), dtype=complex)
    for i, row in enumerate(block):
        for j, entry in enumerate(row):
            coeffs[:, i, j] = entry
    try:
        sol = np.linalg.solve(coeffs, rhs)
    except np.linalg.LinAlgError as exc:
        span = f"one of {len(delta.re)} values in [{delta.re[0]}, {delta.re[-1]}]"
        raise SingularSystemError(
            f"first-order coherence system singular at {_where(p, span)}"
        ) from exc
    residual, bound = _residuals(coeffs, sol, rhs, 1.0)
    failing = residual > bound
    if failing.any():
        i = int(np.argmax(failing))
        raise SingularSystemError(
            f"first-order solve residual {residual[i]:.3e} too large at "
            f"{_where(p, float(delta.re[i]))}"
        )
    # The scalar's division by the unit probe amplitude can flip the sign
    # of a zero, so it is kept.
    s_plus = p.gamma1 * ComplexGrid.from_numpy(sol[:, 0, 0]) / 1.0
    s_minus = p.gamma2 * ComplexGrid.from_numpy(sol[:, 1, 1]) / 1.0
    return s_plus, s_minus


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
    rho_plus = steady_state(build_generator(p, g1=g_mag, g2=0.0)).rho
    rho_minus = steady_state(build_generator(p, g1=0.0, g2=g_mag)).rho
    s_plus = p.gamma1 * complex(rho_plus[_M1, _G]) / g_mag
    s_minus = p.gamma2 * complex(rho_minus[_M2, _G]) / g_mag
    return SusceptibilityPair(s_plus=s_plus, s_minus=s_minus)
