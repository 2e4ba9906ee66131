import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    apply_generator,
    pair_rel_err,
    random_complex,
    random_density,
    random_params,
    reference_equations_of_motion,
    rel_err,
    rows,
    s_no_control,
)
from morsim import (
    DensityMatrix,
    MorsimError,
    ParameterError,
    SingularSystemError,
    SystemParams,
    build_generator,
    probe_response_finite,
    probe_response_perturbative,
    s_pair,
    steady_state,
    validate_params,
)
from morsim import lindblad
from morsim.lindblad import probe_response_perturbative_grid

FIG3_BASE = SystemParams(Omega=5.0, Delta=5.0, G1=20.0, G2=0.0, alpha_l=30.0)


def test_generator_conserves_trace():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = random_params(rng, equal_gammas=False)
        gen = build_generator(p, g1=rng.uniform(0, 0.01), g2=rng.uniform(0, 0.01))
        drho = apply_generator(gen, random_density(rng))
        assert abs(np.trace(drho)) < 1e-12


def test_generator_preserves_hermiticity():
    rng = np.random.default_rng(32)
    for _ in range(100):
        p = random_params(rng, equal_gammas=False)
        gen = build_generator(p, g1=0.005j, g2=0.003)
        drho = apply_generator(gen, random_density(rng))
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-12


def test_spontaneous_decay_of_sublevel_population():
    p = SystemParams(gamma1=1.3, gamma2=0.7)
    gen = build_generator(p, g1=0.0, g2=0.0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # all population in |1>
    drho = apply_generator(gen, rho)
    assert drho[1, 1] == pytest.approx(-2 * p.gamma1)
    assert drho[3, 3] == pytest.approx(+2 * p.gamma1)
    assert np.max(np.abs(drho - np.diag(np.diag(drho)))) == 0.0


def test_upper_coherence_decay_coefficient():
    # Self-coefficient of rho_e1: -(Gamma1 + Gamma2 + gamma1 + i(Delta - Omega)).
    p = SystemParams(gamma1=1.5, gamma2=0.9, Gamma1=1.1, Gamma2=0.4,
                     Omega=2.0, Delta=3.0, delta=-1.0, G1=5.0, G2=7.0)
    gen = build_generator(p, g1=0.001, g2=0.001)
    row, col = 4 * 0 + 1, 4 * 0 + 1  # rho_e1 equation, rho_e1 element
    assert gen[row, col] == -(1.1 + 0.4 + 1.5 + 1j * (3.0 - 2.0))


@pytest.mark.parametrize("element, expected", [
    # -(gamma1 + i(delta + Omega)), -(gamma2 + i(delta - Omega)),
    # -(Gamma1 + Gamma2 + i(Delta + delta)), written out so that a slip in
    # the shared detuning factors cannot pass in both engines.
    ((1, 3), -(1.5 + 1j * (-1.0 + 2.0))),
    ((2, 3), -(0.9 + 1j * (-1.0 - 2.0))),
    ((0, 3), -(1.1 + 0.4 + 1j * (3.0 + -1.0))),
], ids=["rho_1g", "rho_2g", "rho_eg"])
def test_probe_coherence_decay_coefficient(element, expected):
    p = SystemParams(gamma1=1.5, gamma2=0.9, Gamma1=1.1, Gamma2=0.4,
                     Omega=2.0, Delta=3.0, delta=-1.0, G1=5.0, G2=7.0)
    gen = build_generator(p, g1=0.001, g2=0.001)
    index = 4 * element[0] + element[1]
    assert gen[index, index] == expected


def test_zero_probe_steady_state_is_ground():
    rng = np.random.default_rng(33)
    for _ in range(20):
        p = random_params(rng, equal_gammas=False)
        rho = steady_state(build_generator(p, g1=0.0, g2=0.0)).rho
        expected = np.diag([0.0, 0.0, 0.0, 1.0])
        assert np.max(np.abs(rho - expected)) < 1e-12


def test_steady_state_invariants_on_random_draws():
    rng = np.random.default_rng(34)
    for _ in range(100):
        p = random_params(rng, equal_gammas=False)
        gen = build_generator(p, g1=rng.uniform(1e-5, 0.01), g2=rng.uniform(1e-5, 0.01))
        state = steady_state(gen)  # DensityMatrix validates on construction
        residual = np.linalg.norm(gen @ state.rho.reshape(16))
        assert residual <= 1e-10 * np.linalg.norm(gen)
        assert state.populations.min() >= -1e-12


def test_steady_state_residual_at_reference_point():
    gen = build_generator(replace(FIG3_BASE, delta=0.3), g1=1e-3, g2=0.0)
    rho = steady_state(gen).rho
    residual = np.linalg.norm(gen @ rho.reshape(16))
    assert residual <= 1e-10 * np.linalg.norm(gen)


def test_first_order_solve_is_linear_response_of_generator():
    # Around rho0 = |g><g|, L = L0 + L1(g) gives L0 rho1 = -L1 rho0 on the
    # coherences (rho_1g, rho_2g, rho_eg), each probe component alone.
    coherences = [4 * 1 + 3, 4 * 2 + 3, 4 * 0 + 3]
    gg = 4 * 3 + 3
    ground = np.zeros(16, dtype=complex)
    ground[gg] = 1.0
    rng = np.random.default_rng(36)
    for _ in range(50):
        p = random_params(rng, equal_gammas=False)
        L0 = build_generator(p, g1=0.0, g2=0.0)
        assert np.all(L0 @ ground == 0.0)
        assert np.all(np.delete(L0[coherences], coherences, axis=1) == 0.0)
        block = L0[np.ix_(coherences, coherences)]
        g = rng.uniform(1e-3, 1.0)
        pair = probe_response_perturbative(p)
        for k, (g1, g2), gamma, s in [(0, (g, 0.0), p.gamma1, pair.s_plus),
                                      (1, (0.0, g), p.gamma2, pair.s_minus)]:
            L1 = build_generator(p, g1=g1, g2=g2) - L0
            rho1 = np.linalg.solve(block, -L1[coherences, gg])
            assert rel_err(s, gamma * rho1[k] / g) < 1e-12


def test_perturbative_matches_bare_medium_without_control():
    rng = np.random.default_rng(35)
    for _ in range(100):
        p = random_params(rng, g_max=0.0, equal_gammas=False)
        assert pair_rel_err(probe_response_perturbative(p), s_no_control(p)) < 1e-12


def test_perturbative_matches_closed_form_on_strong_control_grid():
    base = SystemParams(Omega=0.0, Delta=0.0, G1=50.0, G2=0.0)
    for delta in np.linspace(-150.0, 150.0, 1000):
        p = replace(base, delta=float(delta))
        assert pair_rel_err(s_pair(p), probe_response_perturbative(p)) <= 1e-8


def test_finite_probe_agrees_with_perturbative_at_small_amplitude():
    p = replace(FIG3_BASE, delta=0.3)
    weak = probe_response_finite(p, 1e-4)
    pert = probe_response_perturbative(p)
    assert pair_rel_err(weak, pert) < 1e-6


def test_finite_probe_discrepancy_is_quadratic():
    p = replace(FIG3_BASE, delta=0.3)
    pert = probe_response_perturbative(p)

    def discrepancy(g):
        fin = probe_response_finite(p, g)
        return math.hypot(abs(fin.s_plus - pert.s_plus), abs(fin.s_minus - pert.s_minus))

    d1, d2 = discrepancy(1e-3), discrepancy(5e-4)
    assert d1 / d2 == pytest.approx(4.0, rel=0.15)

    gs = np.array([1e-3, 5e-4, 2.5e-4])
    errs = np.array([discrepancy(g) for g in gs])
    order = np.polyfit(np.log(gs), np.log(errs), 1)[0]
    assert 1.8 <= order <= 2.2


def test_finite_probe_validates_parameters_once(monkeypatch):
    import morsim.lindblad as lindblad

    p = replace(FIG3_BASE, delta=0.3, G2=4.0)
    expected = (steady_state(build_generator(p, g1=1e-3, g2=0.0)).rho[1, 3],
                steady_state(build_generator(p, g1=0.0, g2=1e-3)).rho[2, 3])
    calls = []

    def counting(params):
        calls.append(params)
        return validate_params(params)

    monkeypatch.setattr(lindblad, "validate_params", counting)
    fin = probe_response_finite(p, 1e-3)
    assert calls == [p]
    # The generators it solves are those of the public builder.
    assert fin.s_plus == p.gamma1 * complex(expected[0]) / 1e-3
    assert fin.s_minus == p.gamma2 * complex(expected[1]) / 1e-3
    with pytest.raises(ParameterError):
        probe_response_finite(replace(p, gamma1=-1.0), 1e-3)


def test_finite_probe_rejects_out_of_range_amplitudes():
    with pytest.raises(ParameterError, match="probe too strong"):
        probe_response_finite(FIG3_BASE, 0.1)
    with pytest.raises(ParameterError, match="nonpositive"):
        probe_response_finite(FIG3_BASE, 0.0)
    with pytest.raises(ParameterError, match="nonpositive"):
        probe_response_finite(FIG3_BASE, -1e-3)


def test_probe_phase_covariance():
    p = replace(FIG3_BASE, delta=0.3)
    g = 1e-3
    phase = cmath.exp(0.77j)
    plain = steady_state(build_generator(p, g1=g, g2=0.0)).rho
    rotated = steady_state(build_generator(p, g1=g * phase, g2=0.0)).rho
    # rho_1g follows the drive phase; the extracted response does not.
    assert rotated[1, 3] == pytest.approx(plain[1, 3] * phase, rel=1e-12)
    assert rotated[1, 3] / (g * phase) == pytest.approx(plain[1, 3] / g, rel=1e-12)


def test_finite_probe_supports_unequal_gammas():
    p = SystemParams(gamma1=1.2, gamma2=0.8, Omega=2.0, Delta=1.0,
                     delta=0.5, G1=8.0, G2=3.0)
    fin = probe_response_finite(p, 1e-4)
    pert = probe_response_perturbative(p)
    assert pair_rel_err(fin, pert) < 1e-6


def test_density_matrix_validation():
    with pytest.raises(ParameterError, match="4x4"):
        DensityMatrix(np.eye(3, dtype=complex))
    bad_herm = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    bad_herm[0, 1] = 1e-6
    with pytest.raises(ParameterError, match="Hermitian"):
        DensityMatrix(bad_herm)
    with pytest.raises(ParameterError, match="trace"):
        DensityMatrix(np.diag([0.0, 0.0, 0.0, 2.0]).astype(complex))
    with pytest.raises(ParameterError, match="population"):
        DensityMatrix(np.diag([-0.5, 0.0, 0.5, 1.0]).astype(complex))


def _off_by(d: float) -> tuple:
    """States off the Hermiticity, trace and population checks by ``d``, in that order."""
    herm = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    herm[0, 1] = d
    return (herm, np.diag([0.0, 0.0, 0.0, 1.0 + d]).astype(complex),
            np.diag([-d, 0.0, 0.0, 1.0 + d]).astype(complex))


@pytest.mark.parametrize("k, message", [
    (0, "non-Hermitian density matrix: deviation 2.000e-12"),
    (1, "trace differs from 1 by 2.000e-12"),
    (2, "negative population: -2.000e-12"),
], ids=["hermiticity", "trace", "population"])
def test_density_matrix_tolerances_hold_at_their_bounds(k, message):
    # Each tolerance is 1e-12 in magnitude: twice it fails, half of it passes.
    with pytest.raises(ParameterError) as info:
        DensityMatrix(_off_by(2e-12)[k])
    assert str(info.value) == message
    DensityMatrix(_off_by(0.5e-12)[k])


def test_density_matrix_coherence_is_one_entry():
    state = steady_state(build_generator(FIG3_BASE, g1=0.01, g2=0.02j))
    coherence = state.coherence(1, 3)
    assert type(coherence) is complex and coherence != 0
    assert coherence == complex(state.rho[1, 3])
    assert state.coherence(3, 1) == complex(state.rho[3, 1])
    assert state.coherence(np.int64(3), True) == complex(state.rho[3, 1])


def test_density_matrix_rejects_nan():
    with pytest.raises(ParameterError, match="Hermitian.*nan"):
        DensityMatrix(np.full((4, 4), np.nan))


@pytest.mark.parametrize("tol, message", [
    ("HERMITICITY_TOL", "Hermitian"), ("TRACE_TOL", "trace"), ("POPULATION_TOL", "population"),
])
def test_density_matrix_checks_fail_on_nan(monkeypatch, tol, message):
    # A nan state already fails the Hermiticity check.  A nan tolerance
    # fails a comparison exactly when a nan deviation does, and reaches
    # each check of a valid state in turn.
    monkeypatch.setattr(lindblad, tol, math.nan)
    with pytest.raises(ParameterError, match=message):
        DensityMatrix(np.diag([0.25] * 4).astype(complex))


@pytest.mark.parametrize("p, message", [
    # The solve returns nan, so the residual is nan.
    (SystemParams(gamma1=1e-300, gamma2=1e-300, G1=1e100, G2=1e100), "residual nan too large"),
    # RESIDUAL_TOL * ||L|| overflows to inf, which no residual exceeds.
    (SystemParams(G1=1.4e154), "residual bound overflows"),
], ids=["nan_residual", "overflowing_bound"])
def test_first_order_residual_must_be_within_a_finite_bound(p, message):
    with pytest.raises(SingularSystemError, match=message) as info:
        probe_response_perturbative(p)
    *_, failure = probe_response_perturbative_grid(rows(p, [p.delta]))
    assert failure[0] == 0
    assert type(failure[1]) is SingularSystemError and str(failure[1]) == str(info.value)


def test_steady_state_checks_its_state_once(monkeypatch):
    shapes = []
    checks = lindblad._state_checks
    monkeypatch.setattr(lindblad, "_state_checks",
                        lambda rho: shapes.append(rho.shape) or checks(rho))
    steady_state(build_generator(replace(FIG3_BASE, delta=0.3), g1=1e-3, g2=0.0))
    assert shapes == [(1, 4, 4)]


def test_steady_state_error_is_the_stack_kernel_error():
    # Stationary state diag(-1, 0, 0, 2) fails the population check; -1
    # gives |g><g| with a residual of 1.
    state = np.zeros(16, dtype=complex)
    state[[0, 15]] = -1.0, 2.0
    negative = np.eye(16, dtype=complex) - np.outer(state, np.eye(16)[15]) / 2
    for L, error in [(negative, "negative population: -1.000e+00"),
                     (-np.eye(16, dtype=complex), "steady-state residual 1.000e+00")]:
        with pytest.raises(MorsimError) as stack:
            lindblad._steady_states(L[np.newaxis])
        assert str(stack.value).startswith(error)
        with pytest.raises(type(stack.value)) as alone:
            steady_state(L)
        assert str(alone.value) == str(stack.value)


def test_steady_state_residual_bound_must_be_finite():
    with pytest.raises(SingularSystemError, match="residual"):
        steady_state(build_generator(SystemParams(G1=1e154), 1e-3, 0.0))


def test_generator_matrix_validation():
    with pytest.raises(ParameterError, match="16x16"):
        steady_state(np.zeros((4, 4), dtype=complex))


def test_first_order_drive_is_the_per_call_drive_bit_for_bit():
    # -L1 rho0 as it was built on every call: the rho_gg entries of the
    # coherence rows with both probe components at unit amplitude, 0 - x each.
    rows = reference_equations_of_motion(SystemParams(), 1.0, 1.0)
    drive = np.zeros((3, 2), dtype=complex)
    for j, coherence in enumerate(lindblad._COHERENCES[:2]):
        drive[j, j] = 0.0 - rows[coherence][(lindblad._G, lindblad._G)]
    assert lindblad._DRIVE.shape == drive.shape
    assert lindblad._DRIVE.tobytes() == drive.tobytes()


def test_generator_is_the_commutator_with_the_coupling_hamiltonian():
    # -i[H, rho] with H = -(G1 |e><1| + G2 |e><2| + g1 |1><g| + g2 |2><g| + h.c.),
    # typed here from the four couplings, added to the zero-coupling generator.
    rng = np.random.default_rng(85)
    identity = np.identity(4)
    for _ in range(300):
        p = random_params(rng, g_max=10.0 ** rng.uniform(0, 8), equal_gammas=False)
        g1, g2 = random_complex(rng, 1e-2), random_complex(rng, 1e-2)
        coupling = np.zeros((4, 4), dtype=complex)
        coupling[0, 1], coupling[0, 2], coupling[1, 3], coupling[2, 3] = p.G1, p.G2, g1, g2
        H = -(coupling + coupling.conj().T)
        expected = (build_generator(replace(p, G1=0.0, G2=0.0), 0.0, 0.0)
                    - 1j * (np.kron(H, identity) - np.kron(identity, H.T)))
        np.testing.assert_allclose(build_generator(p, g1, g2), expected, rtol=1e-15, atol=0)


def test_first_order_block_is_the_oracle_tables_coherence_block_bit_for_bit():
    rng = np.random.default_rng(86)
    coherences = lindblad._COHERENCES
    for _ in range(200):
        p = random_params(rng, g_max=10.0 ** rng.uniform(0, 8), equal_gammas=False)
        table = reference_equations_of_motion(p, 0.0, 0.0)
        expected = [[table[row].get(col, 0.0) for col in coherences] for row in coherences]
        assert (np.array(lindblad._first_order_block(p), dtype=complex).tobytes()
                == np.array(expected, dtype=complex).tobytes())


def test_module_level_arrays_are_read_only():
    arrays = {name: value for name, value in vars(lindblad).items()
              if isinstance(value, np.ndarray)}
    assert {"_PROBE", "_DRIVE", "_TRACE_ROW", "_UNIT_TRACE"} <= arrays.keys()
    assert [name for name, value in arrays.items() if value.flags.writeable] == []
