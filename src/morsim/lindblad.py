"""Steady-state density-matrix engine for the four-level medium.

The equations of motion of the 4x4 density matrix in the rotating frame,
basis ordered ``{|e>, |1>, |2>, |g>}`` (indices 0..3), are written once,
as a flat plan of terms ``(row, column)``: the coefficient of
``rho_column`` in ``d/dt rho_row``.  Its ten explicit rows are the
diagonal and the upper-triangle coherences ee, e1, e2, eg, 11, 12, 1g,
22, 2g, gg; the remaining six rows follow from Hermiticity.  Each row is
a coherent part plus relaxation:

* the coherent part is ``-i[H, rho]`` with ``H = -V``, the coupling map
  ``V[upper, lower]`` holding the control half-amplitudes ``G1, G2`` on
  |1>-|e>, |2>-|e> and the probe half-amplitudes ``g1, g2`` on |g>-|1>,
  |g>-|2>, complex phases kept, and their conjugates in reverse order.
  One rule, resolved at import into 40 terms, gives ``d/dt rho_ab``
  ``+i V[a, k]`` on ``rho_kb`` and ``-i V[k, b]`` on ``rho_ak``;
* populations in |e> decay at ``2*Gamma1`` into |1> and ``2*Gamma2``
  into |2>; sublevels decay at ``2*gamma_i`` into |g>;
* the optical coherences carry the detuning factors of
  :func:`~morsim.core.detuning_factors`,
  ``gamma1 + i(delta + Omega)`` for rho_1g,
  ``gamma2 + i(delta - Omega)`` for rho_2g,
  ``Gamma1 + Gamma2 + i(Delta + delta)`` for the two-photon rho_eg,
  and ``gamma1 + gamma2 + 2i*Omega`` for the Raman rho_12.

Both engines read the plan.  :func:`build_generator` assembles it into
the 16x16 generator ``L``, whose stationary state :func:`steady_state`
finds by a direct constrained linear solve (one redundant row replaced
by the trace condition), exact to round-off and immune to the stiffness
a time integrator would face at large control amplitudes.  Where each
coefficient goes in ``L`` depends only on the plan, so it is worked out
once, at import, as a gather: the plan writes 83 entries, each through
one term, from 13 relaxation coefficients and 16 distinct coherent
products, conjugated in the rows of the Hermitian completion.  Each
probe term writes an entry no other term writes, so at a real probe
amplitude ``g`` the generator is ``L(0, 0) + g P``, with ``P`` constant
per circular probe component.  The finite-probe engine
:func:`probe_response_finite` evaluates the plan once per point, with
both probe amplitudes at ``g``, gathers from it the generator of each
component without the other's probe terms, and solves both in one
stacked ``(2, 16, 16)`` steady-state solve; a matrix gets the same bits
alone as in a stack.  The weak-probe response is linear response around
``rho0 = |g><g|``: with ``L = L0 + L1(g)`` the first-order state solves
``L0 rho1 = -L1 rho0``.  At zero probe the rows of rho_1g, rho_2g and
rho_eg close on those three coherences, so the first-order system is the
plan's 3x3 coherence block: the three detuning factors and the four
control terms inside it.  Its drive, one column per probe component at
unit amplitude, is minus the rho_gg column of ``P`` on those rows, read
off once, at import.

Both routes check their solves by one rule (:func:`_solve`,
:func:`_residuals`, and :func:`~morsim.core._first_failure`, which the
closed-form grid shares): a stack is solved in one call, and again with
errors ignored only if that call fails, a matrix being singular where
``np.linalg.slogdet`` (the same LU) gives it sign 0; each residual must
be at most ``RESIDUAL_TOL`` times the Frobenius norm of its matrix; and
the first failing matrix, in stack order, is reported with the first
check it fails.  One reduction tests every check of every matrix, and a
message is built only for the failing one.  Every solve that succeeds
goes through :func:`_lapack_solve`, the LAPACK gufunc of
``np.linalg.solve`` under its floating-point state, so it keeps that
function's bits and errors without the per-call checks and conversions
of its wrapper, which cost about as much as a 3x3 solve itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .complexgrid import ComplexGrid
from .core import (ParamColumns, SusceptibilityPair, SystemParams, _check_type, _converted,
                   _first_failure, _real, _shown, detuning_factors, validate_params)
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
# Unknowns of the first-order system, in solve order.
_COHERENCES = ((_M1, _G), (_M2, _G), (_E, _G))

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
        rho = _converted(np.array, self.rho, complex)
        if rho.shape != (4, 4):
            raise ParameterError(f"density matrix must be 4x4, got {rho.shape}")
        with np.errstate(all="ignore"):  # an inf or 1e308 entry fails a check, not a warning
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
        """``rho[upper, lower]``, each index 0..3 in basis order (e, 1, 2, g)."""
        index = operator.index(upper), operator.index(lower)
        if not all(0 <= i < 4 for i in index):
            raise ParameterError(f"coherence index out of range 0..3: "
                                 f"({_shown(index[0])}, {_shown(index[1])})")
        return complex(self.rho[index])


def _state_checks(rho: np.ndarray) -> list:
    """The :class:`DensityMatrix` checks of a ``(k, 4, 4)`` stack, in order,
    as :func:`_first_failure` takes them.  Each fails on nan."""
    # Ufunc reduces: the bits of the ndarray methods without their Python layer.
    herm = np.maximum.reduce(abs(rho - rho.conj().swapaxes(-1, -2)), axis=(-2, -1))
    diagonal = rho.diagonal(axis1=-2, axis2=-1)
    trace = abs(np.add.reduce(diagonal, axis=-1) - 1.0)
    pops = np.minimum.reduce(diagonal.real, axis=-1)
    return [
        (herm <= HERMITICITY_TOL,
         lambda i: ParameterError(f"non-Hermitian density matrix: deviation {herm[i]:.3e}")),
        (trace <= TRACE_TOL,
         lambda i: ParameterError(f"trace differs from 1 by {trace[i]:.3e}")),
        (pops >= POPULATION_TOL,
         lambda i: ParameterError(f"negative population: {pops[i]:.3e}")),
    ]


# The coupling map: V[upper, lower] is _coupling(p, g1, g2, _V[upper, lower]), the
# couplings G1, G2, g1, g2 in this order, and V[lower, upper] its conjugate, 4 further on.
_V = {(_E, _M1): 0, (_E, _M2): 1, (_M1, _G): 2, (_M2, _G): 3}
_V.update({(lower, upper): v + 4 for (upper, lower), v in _V.items()})


def _coupling(p, g1, g2, v: int):
    """The value of :data:`_V` index ``v`` at ``p`` and the probe half-amplitudes."""
    value = (p.G1, p.G2, g1, g2)[v % 4]
    return value.conjugate() if v >= 4 else value


def _commutator_terms(a: int, b: int) -> list:
    """The coherent part of ``d/dt rho_ab``, ``-i[H, rho]`` with ``H = -V``, as
    ``(column, factor, v)``: ``+1j * V[a, k]`` on rho_kb and ``-1j * V[k, b]`` on rho_ak."""
    return ([((k, b), 1j, _V[a, k]) for k in range(4) if (a, k) in _V]
            + [((a, k), -1j, _V[k, b]) for k in range(4) if (k, b) in _V])


# The explicit rows, the diagonal and the upper triangle; the rest follow from Hermiticity.
_ROWS = tuple((a, b) for a in range(4) for b in range(a, 4))
# The coherent terms of those rows, (row, column, factor, v): 40 terms.
_COHERENT = tuple((row, col, factor, v) for row in _ROWS
                  for col, factor, v in _commutator_terms(*row))
# The relaxation terms, (row, column), in the order of _relaxation's coefficients.
_RELAXATION = (
    ((_E, _E), (_E, _E)),
    ((_E, _M1), (_E, _M1)),
    ((_E, _M2), (_E, _M2)),
    ((_M1, _M1), (_E, _E)), ((_M1, _M1), (_M1, _M1)),
    ((_M1, _M2), (_M1, _M2)),
    ((_M2, _M2), (_E, _E)), ((_M2, _M2), (_M2, _M2)),
    ((_G, _G), (_M1, _M1)), ((_G, _G), (_M2, _M2)),
    *((c, c) for c in _COHERENCES),
)


def _relaxation(p: SystemParams) -> list:
    """Decay, dephasing and feeding: the coefficients of :data:`_RELAXATION` at ``p``."""
    gamma1, gamma2 = p.gamma1, p.gamma2
    Gam = p.Gamma1 + p.Gamma2
    Om, De = p.Omega, p.Delta
    a1, a2, q = detuning_factors(p)
    return [-2.0 * Gam,
            -(Gam + gamma1 + 1j * (De - Om)),
            -(Gam + gamma2 + 1j * (De + Om)),
            2.0 * p.Gamma1, -2.0 * gamma1,
            -(gamma1 + gamma2 + 2j * Om),
            2.0 * p.Gamma2, -2.0 * gamma2,
            2.0 * gamma1, 2.0 * gamma2,
            -a1, -a2, -q]


# The distinct (factor, v) of the coherent terms: 16 products make the 40 terms.
_PRODUCTS = tuple(dict.fromkeys((factor, v) for _, _, factor, v in _COHERENT))
# The index of the zero that ends the coefficients; their conjugates follow it.
_ZERO = len(_RELAXATION) + len(_PRODUCTS)


def _coefficients(p: SystemParams, g1: complex, g2: complex) -> list:
    """The coefficients at ``p``: :func:`_relaxation`'s, the :data:`_PRODUCTS`, then a zero."""
    V = [_coupling(p, g1, g2, v) for v in range(8)]
    return _relaxation(p) + [factor * V[v] for factor, v in _PRODUCTS] + [0.0]


def _gather_plan() -> np.ndarray:
    """Where each generator entry comes from.

    Returns, for each flat 16x16 position, an index into the coefficients
    of :func:`_coefficients` followed by their conjugates: that of the one
    term on it, conjugated in a row of the Hermitian completion, or
    :data:`_ZERO` where no term writes.
    """
    # Each term as ((row, column), the index of its coefficient).
    terms = [(term, i) for i, term in enumerate(_RELAXATION)]
    terms += [((row, col), len(_RELAXATION) + _PRODUCTS.index((factor, v)))
              for row, col, factor, v in _COHERENT]
    gather = np.full(256, _ZERO)
    for ((a, b), (m, n)), source in terms:
        gather[16 * (4 * a + b) + 4 * m + n] = source
        if a != b:
            # Hermitian completion: d/dt rho_ba = conj(d/dt rho_ab).
            gather[16 * (4 * b + a) + 4 * n + m] = _ZERO + 1 + source
    return gather.reshape(16, 16)


_GATHER = _gather_plan()
_GATHER.flags.writeable = False


def _generator(p: SystemParams, g1: complex, g2: complex, gather=_GATHER) -> np.ndarray:
    """:func:`build_generator` for parameters already validated and complex amplitudes, writable;
    with ``gather`` :data:`_PAIR_GATHER`, the pair of :func:`_generator_pair`."""
    values = np.array(_coefficients(p, g1, g2), dtype=complex)
    values = np.concatenate((values, values.conj()))
    # Adding 0.0 turns a -0.0 part into +0.0, the zero of the entries no term writes.
    values += 0.0
    return values[gather]


def build_generator(p: SystemParams, g1: complex, g2: complex) -> np.ndarray:
    """The equations of motion as a read-only 16x16 complex matrix.

    ``matrix[4a+b, 4m+n]`` is the coefficient of ``rho_mn`` in the
    equation of motion of ``rho_ab``, so the matrix acts on the
    row-major flattened density matrix.  Rows for conjugate elements
    are filled with conjugated coefficients on transposed element
    indices, which preserves Hermiticity by construction.
    """
    validate_params(p)
    matrix = _generator(p, _converted(complex, g1), _converted(complex, g2))
    matrix.flags.writeable = False
    return matrix


# Per unit g1 and per unit g2: each probe term is +-i g or +-i g* and writes
# an entry no other term writes, so L(g, 0) = L(0, 0) + g * _PROBE[0] for real g.
_PROBE = np.stack([_generator(SystemParams(), *unit) - _generator(SystemParams(), 0j, 0j)
                   for unit in ((1 + 0j, 0j), (0j, 1 + 0j))])
_PROBE.flags.writeable = False

# The first-order drive -L1 rho0, a column per probe component at unit amplitude: minus
# the rho_gg column of _PROBE on the coherence rows (0 - x, so zero parts stay +0.0).
_GG_ROW = 4 * _G + _G
_DRIVE = 0.0 - _PROBE[:, [4 * a + b for a, b in _COHERENCES], _GG_ROW].T
_DRIVE.flags.writeable = False

# The pair L(g, 0), L(0, g) from the coefficients at (g, g): each generator puts the
# other component's probe entries on the zero, the +0.0 those terms are at zero amplitude.
_PAIR_GATHER = np.where(_PROBE[::-1] != 0, _ZERO, _GATHER)
_PAIR_GATHER.flags.writeable = False


def _generator_pair(p: SystemParams, g: float) -> np.ndarray:
    """The ``(2, 16, 16)`` stack of :func:`build_generator` at ``(g1, g2)``
    = ``(g, 0)`` and ``(0, g)``, for parameters already validated, with
    the bits of those two calls from one evaluation of the table."""
    g = complex(g)
    return _generator(p, g, g, _PAIR_GATHER)


# The trace condition that replaces the redundant ground-population row: ones at the populations.
_TRACE_ROW = np.identity(4, dtype=complex).ravel()
_TRACE_ROW.flags.writeable = False
_UNIT_TRACE = np.zeros((16, 1), dtype=complex)
_UNIT_TRACE[_GG_ROW] = 1.0
_UNIT_TRACE.flags.writeable = False


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes; a matrix gets the same bits
    alone as inside a stack, which ``np.linalg.norm`` does not promise."""
    x = m.view(float)
    return np.sqrt(np.add.reduce(x * x, axis=(-2, -1)))


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lapack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for complex128 ``a`` and a matrix ``b``: its
    LAPACK gufunc under its floating-point state, the same bits and errors,
    without the per-call checks and conversions its wrapper makes."""
    return _umath_linalg.solve(a, b, signature="DD->D")


def _solve(a: np.ndarray, b: np.ndarray, error) -> tuple[np.ndarray, list]:
    """Solve each matrix of the stack ``a`` against ``b`` in one call.

    Returns the solutions and the solvability check as
    :func:`_first_failure` takes it, with ``error(i)`` for a singular
    matrix ``i``: no check if the stacked solve succeeds.  Otherwise the
    stack is solved again with errors ignored, each singular matrix to
    nan, and a matrix is singular where ``np.linalg.slogdet`` (the same
    LU) gives it sign 0.  A matrix gets the same bits alone as in a stack.
    """
    try:
        return _lapack_solve(a, b), []
    except np.linalg.LinAlgError:
        # The stacked solve does not say which matrix is singular.
        with np.errstate(all="ignore"):
            return (_umath_linalg.solve(a, b, signature="DD->D"),
                    [(np.linalg.slogdet(a).sign != 0, error)])


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
    constrained[:, _GG_ROW] = _TRACE_ROW
    vec, checks = _solve(constrained, _UNIT_TRACE, lambda i: SingularSystemError(
        "steady-state solve failed: Singular matrix"))
    rho = vec.reshape(-1, 4, 4)
    with np.errstate(all="ignore"):
        rho += rho.conj().swapaxes(-1, -2)
        rho *= 0.5
        # rho is a view of vec: this is the residual of the projected state.
        residual, bound, within = _residuals(L, L @ vec)
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
    L = _converted(np.asarray, generator, complex, "C")
    if L.shape != (16, 16):
        raise ParameterError(f"generator must be 16x16, got {L.shape}")
    rho, _, _ = _steady_states(L[np.newaxis], check_states=False)
    return DensityMatrix(rho=rho[0])


# The coherent terms inside the first-order block, (i, j, factor, v) with i, j indices
# into _COHERENCES; the probe enters those rows only outside those columns.
_BLOCK_TERMS = tuple((_COHERENCES.index(row), _COHERENCES.index(col), factor, v)
                     for row, col, factor, v in _COHERENT
                     if row in _COHERENCES and col in _COHERENCES)


def _first_order_block(p):
    """``L0``: the coefficient block over (rho_1g, rho_2g, rho_eg), as nested lists.
    For ParamColumns the entries that depend on the parameters are ComplexGrids.  The
    detuning factors are held to the end and each conjugate is a temporary: the other
    way round, either raised a 9,900-row sweep's peak RSS by 1.4 MB."""
    factors = detuning_factors(p)
    block = [[0.0] * 3 for _ in _COHERENCES]
    for i, d in enumerate(factors):
        block[i][i] = -d
    for i, j, factor, v in _BLOCK_TERMS:
        block[i][j] = factor * _coupling(p, 0.0, 0.0, v)
    return block


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
    coeffs = np.array(_first_order_block(p), dtype=complex)
    try:
        sol = _lapack_solve(coeffs, _DRIVE)
    except np.linalg.LinAlgError as exc:
        raise _singular_error(p) from exc
    with np.errstate(all="ignore"):
        residual, bound, within = _residuals(coeffs, coeffs @ sol - _DRIVE)
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
    _check_type(rows, ParamColumns, "rows")
    with np.errstate(all="ignore"):
        # Held to the end: freed before the solve, it raised the peak RSS of a 9,900-point sweep
        # (blocks of 8,192 and 1,708 rows) by 1.6 MB.
        block = _first_order_block(rows)
        coeffs = np.empty((len(rows.delta), 3, 3), dtype=complex)
        for i, row in enumerate(block):
            for j, entry in enumerate(row):
                if isinstance(entry, ComplexGrid):
                    coeffs.real[:, i, j], coeffs.imag[:, i, j] = entry.re, entry.im
                else:
                    coeffs[:, i, j] = entry
        sol, checks = _solve(coeffs, _DRIVE, lambda i: _singular_error(rows.at(i)))
        residual, bound, within = _residuals(coeffs, coeffs @ sol - _DRIVE)
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
    g = _real(g_mag)
    if not (g > 0):
        raise ParameterError(f"nonpositive probe amplitude: {_shown(g_mag)}")
    if g > MAX_FINITE_PROBE:
        raise ParameterError(
            f"probe too strong: g={_shown(g_mag)} exceeds {MAX_FINITE_PROBE} "
            f"(weak-probe extraction would be unreliable)"
        )
    rho, _, _ = _steady_states(_generator_pair(p, g))
    s_plus = p.gamma1 * complex(rho[0, _M1, _G]) / g
    s_minus = p.gamma2 * complex(rho[1, _M2, _G]) / g
    return SusceptibilityPair(s_plus=s_plus, s_minus=s_minus)
