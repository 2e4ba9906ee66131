"""Steady-state density-matrix engine for the four-level medium.

The engine encodes the equations of motion for the 4x4 density matrix in
the rotating frame, basis ordered ``{|e>, |1>, |2>, |g>}`` (indices
0..3).  Ten equations are written out explicitly (the diagonal and the
upper-triangle coherences ee, e1, e2, eg, 11, 12, 1g, 22, 2g, gg); the
remaining six rows follow from Hermiticity.  Conventions:

* populations in |e> decay at ``2*Gamma1`` into |1> and ``2*Gamma2``
  into |2>; sublevels decay at ``2*gamma_i`` into |g>;
* the optical coherences carry the detuning factors
  ``gamma1 + i(delta + Omega)`` for rho_1g,
  ``gamma2 + i(delta - Omega)`` for rho_2g,
  ``Gamma1 + Gamma2 + i(Delta + delta)`` for the two-photon rho_eg,
  ``gamma1 + gamma2 + 2i*Omega`` for the Raman rho_12;
* control half-amplitudes ``G1, G2`` act on |1>-|e>, |2>-|e> and probe
  half-amplitudes ``g1, g2`` on |g>-|1>, |g>-|2>, complex phases kept.

The stationary state is found by a direct constrained linear solve
(one redundant row replaced by the trace condition), which is exact to
round-off and immune to the stiffness a time integrator would face at
large control amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexgrid import ComplexGrid, detuning_axis
from .core import SusceptibilityPair, SystemParams, detuning_factors, validate_params
from .errors import ParameterError, SingularSystemError

__all__ = [
    "DensityMatrix",
    "GeneratorMatrix",
    "build_generator",
    "steady_state",
    "probe_response_perturbative",
    "probe_response_perturbative_grid",
    "probe_response_finite",
]

# Basis indices, order {e, 1, 2, g}.
_E, _M1, _M2, _G = 0, 1, 2, 3

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


@dataclass(frozen=True)
class GeneratorMatrix:
    """16x16 linear map acting on the column-stacked density matrix.

    ``matrix[4a+b, 4m+n]`` is the coefficient of ``rho_mn`` in the
    equation of motion of ``rho_ab``.  Probe amplitudes are retained so
    the response extraction can divide them back out.
    """

    matrix: np.ndarray
    g1: complex
    g2: complex

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (16, 16):
            raise ParameterError(f"generator must be 16x16, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "g1", complex(self.g1))
        object.__setattr__(self, "g2", complex(self.g2))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Time derivative of a 4x4 state under this generator."""
        rho = np.asarray(rho, dtype=complex)
        return (self.matrix @ rho.reshape(16)).reshape(4, 4)


def build_generator(p: SystemParams, g1: complex, g2: complex) -> GeneratorMatrix:
    """Assemble the equations of motion as a 16x16 matrix.

    Each explicit equation is entered as a table of
    ``(element) -> coefficient`` terms; rows for conjugate elements are
    filled with conjugated coefficients on transposed element indices,
    which preserves Hermiticity by construction.
    """
    validate_params(p)
    g1 = complex(g1)
    g2 = complex(g2)
    gamma1, gamma2 = p.gamma1, p.gamma2
    Gam = p.Gamma1 + p.Gamma2
    G1, G2 = p.G1, p.G2
    Om, De, de = p.Omega, p.Delta, p.delta

    rows: dict[tuple[int, int], dict[tuple[int, int], complex]] = {
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
        (_E, _G): {
            (_E, _G): -(Gam + 1j * (De + de)),
            (_M1, _G): 1j * G1, (_M2, _G): 1j * G2,
            (_E, _M1): -1j * g1, (_E, _M2): -1j * g2,
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
        (_M1, _G): {
            (_M1, _G): -(gamma1 + 1j * (de + Om)),
            (_G, _G): 1j * g1, (_M1, _M1): -1j * g1,
            (_E, _G): 1j * G1.conjugate(), (_M1, _M2): -1j * g2,
        },
        (_M2, _M2): {
            (_E, _E): 2.0 * p.Gamma2, (_M2, _M2): -2.0 * gamma2,
            (_E, _M2): 1j * G2.conjugate(), (_M2, _E): -1j * G2,
            (_G, _M2): 1j * g2, (_M2, _G): -1j * g2.conjugate(),
        },
        (_M2, _G): {
            (_M2, _G): -(gamma2 + 1j * (de - Om)),
            (_G, _G): 1j * g2, (_M2, _M2): -1j * g2,
            (_E, _G): 1j * G2.conjugate(), (_M2, _M1): -1j * g1,
        },
        (_G, _G): {
            (_M1, _M1): 2.0 * gamma1, (_M2, _M2): 2.0 * gamma2,
            (_M1, _G): 1j * g1.conjugate(), (_G, _M1): -1j * g1,
            (_M2, _G): 1j * g2.conjugate(), (_G, _M2): -1j * g2,
        },
    }

    matrix = np.zeros((16, 16), dtype=complex)
    for (a, b), terms in rows.items():
        for (m, n), coeff in terms.items():
            matrix[4 * a + b, 4 * m + n] += coeff
        if a != b:
            # Hermitian completion: d/dt rho_ba = conj(d/dt rho_ab).
            for (m, n), coeff in terms.items():
                matrix[4 * b + a, 4 * n + m] += coeff.conjugate()
    return GeneratorMatrix(matrix=matrix, g1=g1, g2=g2)


def steady_state(generator: GeneratorMatrix) -> DensityMatrix:
    """Unique stationary state of the generator.

    Replaces the (redundant) ground-population row with the unit-trace
    condition and solves the resulting 16x16 system directly.  The raw
    solution carries a round-off-scale non-Hermitian component, which is
    projected out before validation; the residual certificate is
    computed on the returned state.
    """
    L = generator.matrix
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


def _first_order_rows(a1, a2, q, G1: complex, G2: complex):
    """Coefficients of the first-order system in (rho_1g, rho_2g, rho_eg).

    ``a1, a2, q`` are the detuning factors of :func:`detuning_factors`,
    as scalars or as complex128 arrays over a grid.
    """
    return ((-a1, 0.0, 1j * G1.conjugate()),
            (0.0, -a2, 1j * G2.conjugate()),
            (1j * G1, 1j * G2, -q))


def _unit_drives(probe_amplitude: float) -> np.ndarray:
    # One column per probed circular component: (g1, g2) = (amp, 0) and (0, amp).
    return np.array(
        [[-1j * probe_amplitude, 0.0], [0.0, -1j * probe_amplitude], [0.0, 0.0]],
        dtype=complex,
    )


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
    (rho_1g, rho_2g, rho_eg) close among themselves.  Each circular
    probe component is applied separately, so the returned pair is the
    diagonal response per component: s+ is rho_1g per unit g1 (times
    gamma1), s- is rho_2g per unit g2 (times gamma2).  Supports
    gamma1 != gamma2.

    ``probe_amplitude`` rescales the internal unit drives; by linearity
    it must not change the result (exposed for exactly that check).
    """
    validate_params(p)
    if not (probe_amplitude > 0):
        raise ParameterError(f"nonpositive probe amplitude: {probe_amplitude}")
    a1, a2, q = detuning_factors(p, p.delta)
    coeffs = np.array(_first_order_rows(a1, a2, q, p.G1, p.G2), dtype=complex)
    rhs = _unit_drives(probe_amplitude)
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
    coeffs = np.empty((len(delta.re), 3, 3), dtype=complex)
    for i, row in enumerate(_first_order_rows(*factors, p.G1, p.G2)):
        for j, entry in enumerate(row):
            coeffs[:, i, j] = entry
    rhs = _unit_drives(1.0)
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
