"""The finite-probe engine: one table evaluation and one stacked steady-state
solve per point, held to the two-solve route of ``tests/helpers.py``."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    FIG4_DELTAS,
    FIG4_VARIANTS,
    random_params,
    reference_generator,
    reference_probe_response_finite,
    reference_steady_state,
)
from morsim import (
    MorsimError,
    SystemParams,
    build_generator,
    probe_response_finite,
    probe_response_perturbative,
    steady_state,
)
from morsim import lindblad

STRONG_SIGMA_MINUS = SystemParams(Omega=5.0, Delta=5.0, G1=20.0, G2=0.0, delta=0.3)


def _bits(pair) -> str:
    # repr tells -0.0 from 0.0, which == does not.
    return repr((pair.s_plus, pair.s_minus))


def _outcome(call):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call()
    except MorsimError as exc:
        return type(exc), str(exc)


def _stack_outcome(stack):
    """``_steady_states`` of a stack: its states, or the error raised."""
    out = _outcome(lambda: lindblad._steady_states(stack))
    return out if isinstance(out[0], type) else out[0].tobytes()


def _reference_stack_outcome(stack):
    """The reference route over the same stack, one matrix after the other."""
    out = _outcome(lambda: [reference_steady_state(L) for L in stack])
    return out if isinstance(out[0], type) else np.array(out).tobytes()


def test_every_generator_entry_has_exactly_one_table_term():
    # Two terms on one position would lose one of them to the gather.
    assert len(lindblad._COHERENT) == 40
    assert np.count_nonzero(lindblad._GATHER != lindblad._ZERO) == 83


def test_generator_is_the_zero_probe_generator_plus_g_times_probe_bit_for_bit():
    # Unequal gammas, complex controls with |G| up to 1e8, probes 1e-6 to 1e-2.
    rng = np.random.default_rng(84)
    assert not lindblad._PROBE.flags.writeable
    for _ in range(300):
        p = random_params(rng, g_max=10.0 ** rng.uniform(0, 8), equal_gammas=False)
        g = 10.0 ** rng.uniform(-6, -2)
        zero = build_generator(p, 0.0, 0.0)
        assert build_generator(p, g, 0.0).tobytes() == (zero + g * lindblad._PROBE[0]).tobytes()
        assert build_generator(p, 0.0, g).tobytes() == (zero + g * lindblad._PROBE[1]).tobytes()


def test_generators_are_the_term_by_term_scatter_bit_for_bit():
    rng = np.random.default_rng(81)
    for _ in range(100):
        p = random_params(rng, g_max=10.0 ** rng.uniform(0, 8), equal_gammas=False)
        g = 10.0 ** rng.uniform(-6, -2)
        pair = lindblad._generator_pair(p, g)
        assert pair.tobytes() == np.stack([reference_generator(p, g, 0.0),
                                           reference_generator(p, 0.0, g)]).tobytes()
        g1, g2 = g * np.exp(1j * rng.uniform(0, 6.3)), rng.uniform(0, 1e-2)
        assert build_generator(p, g1, g2).tobytes() == reference_generator(p, g1, g2).tobytes()


def test_finite_probe_is_the_two_solve_route_bit_for_bit():
    # Unequal gammas, complex controls with |G| up to 1e8, probes 1e-6 to 1e-2.
    rng = np.random.default_rng(82)
    for _ in range(300):
        p = random_params(rng, g_max=10.0 ** rng.uniform(0, 8), equal_gammas=False)
        g = 10.0 ** rng.uniform(-6, -2)
        assert _bits(probe_response_finite(p, g)) == _bits(reference_probe_response_finite(p, g))


def test_finite_probe_is_the_two_solve_route_bit_for_bit_in_the_fig4_regime():
    for p in FIG4_VARIANTS:
        for delta in FIG4_DELTAS:
            q = replace(p, delta=float(delta))
            assert _bits(probe_response_finite(q, 1e-3)) == _bits(
                reference_probe_response_finite(q, 1e-3))


@pytest.mark.parametrize("p", [SystemParams(G1=1e154), SystemParams(G2=1e154),
                               SystemParams(Omega=1e300, Delta=1e300)],
                         ids=["G1", "G2", "detunings"])
def test_finite_probe_overflowing_bound_error_is_the_reference_error(p):
    expected = _outcome(lambda: reference_probe_response_finite(p, 1e-3))
    assert expected[0] is lindblad.SingularSystemError
    assert "||L|| = inf" in expected[1]
    assert _outcome(lambda: probe_response_finite(p, 1e-3)) == expected


@pytest.mark.parametrize("tol, failing", [
    # The s+ state's smallest population is 1.7e-9, the s- state's 0.0.
    (1e-9, "s- only"),
    (1.0, "both"),
])
def test_finite_probe_reports_the_first_failing_matrix(monkeypatch, tol, failing):
    monkeypatch.setattr(lindblad, "POPULATION_TOL", tol)
    expected = _outcome(lambda: reference_probe_response_finite(STRONG_SIGMA_MINUS, 1e-3))
    assert expected[0] is lindblad.ParameterError
    # Each failing state names its own smallest population.
    assert expected[1] == ("negative population: 0.000e+00" if failing == "s- only"
                           else "negative population: 1.668e-09")
    assert _outcome(lambda: probe_response_finite(STRONG_SIGMA_MINUS, 1e-3)) == expected


def test_singular_generator_error_is_the_reference_error():
    good = build_generator(STRONG_SIGMA_MINUS, 1e-3, 0.0)
    singular = np.zeros((16, 16), dtype=complex)
    # Stationary state diag(-1, 0, 0, 2): solvable, fails the population check.
    state = np.zeros(16, dtype=complex)
    state[[0, 15]] = -1.0, 2.0
    negative = np.eye(16, dtype=complex) - np.outer(state, np.eye(16)[15]) / 2
    # Solvable, but its solution leaves a residual of 1.
    stalled = -np.eye(16, dtype=complex)
    singular_error = (lindblad.SingularSystemError, "steady-state solve failed: Singular matrix")
    population_error = (lindblad.ParameterError, "negative population: -1.000e+00")
    residual_error = (lindblad.SingularSystemError,
                      "steady-state residual 1.000e+00 exceeds 1e-10 * ||L|| = 4.000e-10")
    for stack, error in [
        ([singular], singular_error),
        ([good, singular], singular_error),
        ([singular, good], singular_error),
        ([singular, negative], singular_error),
        ([good, good, singular, good], singular_error),
        ([good, negative, singular], population_error),
        ([negative, stalled], population_error),
        ([good, stalled, singular], residual_error),
    ]:
        stack = np.array(stack)
        assert _reference_stack_outcome(stack) == error
        assert _stack_outcome(stack) == error


def test_steady_state_bits_do_not_depend_on_the_stack():
    rng = np.random.default_rng(83)
    generators = []
    for _ in range(10):
        p = random_params(rng, equal_gammas=False)
        generators.extend(lindblad._generator_pair(p, 10.0 ** rng.uniform(-6, -2)))
    stack = np.array(generators)
    rho, residual, bound = lindblad._steady_states(stack)
    for i, L in enumerate(generators):
        alone = lindblad._steady_states(L[np.newaxis])
        assert alone[0].tobytes() == rho[i].tobytes()
        assert alone[1].tobytes() == residual[i].tobytes()
        assert alone[2].tobytes() == bound[i].tobytes()
        assert steady_state(L).rho.tobytes() == rho[i].tobytes()
        assert reference_steady_state(L).tobytes() == rho[i].tobytes()
    assert np.all(residual <= bound)


def test_steady_state_accepts_a_strided_generator():
    L = build_generator(replace(STRONG_SIGMA_MINUS, G2=3.0), 1e-3, 2e-3)
    strided = np.zeros((16, 32), dtype=complex)[:, ::2]
    strided[...] = L
    assert steady_state(strided).rho.tobytes() == steady_state(L).rho.tobytes()


def _solve_shapes(monkeypatch, call) -> list:
    """The matrix shape of each solve ``call`` makes."""
    shapes = []
    solve = lindblad._lapack_solve

    def counting(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(lindblad, "_lapack_solve", counting)
    call()
    return shapes


def test_finite_probe_makes_one_stacked_solve(monkeypatch):
    shapes = _solve_shapes(monkeypatch, lambda: probe_response_finite(STRONG_SIGMA_MINUS, 1e-3))
    assert shapes == [(2, 16, 16)]


def test_first_order_probe_makes_one_solve(monkeypatch):
    shapes = _solve_shapes(monkeypatch, lambda: probe_response_perturbative(STRONG_SIGMA_MINUS))
    assert shapes == [(3, 3)]


def _solve_outcome(solve, a, b):
    """What ``solve(a, b)`` returns, as dtype, shape and bytes, or the type and
    message of what it raises; with the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            x = solve(a, b)
            out = (type(x), x.dtype, x.shape, x.tobytes())
        except Exception as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


def _solve_cases(n: int, rng):
    """Seeded ``(a, b)`` cases of ``n x n`` complex systems: one matrix or a stack
    of 1 to 5, each regular, with a singular matrix at the first, a middle or the
    last position, with a nan or an inf entry, or a transposed view; ``b`` 1-D or 2-D."""
    for k in (None, 1, 2, 3, 4, 5):
        shape = (n, n) if k is None else (k, n, n)
        for kind in ("regular", "singular first", "singular middle", "singular last",
                     "nan", "inf", "transposed"):
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            stack = a.reshape(-1, n, n)
            at = {"singular first": 0, "singular last": -1}.get(kind, len(stack) // 2)
            if kind.startswith("singular"):
                stack[at, -1] = 0.0
            elif kind == "nan":
                stack[at, n // 2, 1] = complex(np.nan, 1.0)
            elif kind == "inf":
                stack[at, 1, n // 2] = complex(1.0, np.inf)
            elif kind == "transposed":
                a = a.swapaxes(-1, -2)
            for b_shape in ((n,), (n, 2)):
                b = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
                yield a, (b if kind != "transposed" else np.repeat(b, 2, axis=0)[::2])


@pytest.mark.parametrize("n", [3, 16])
@pytest.mark.parametrize("caller_state", [{}, {"all": "raise"}], ids=["default", "raise"])
def test_lapack_solve_is_numpy_solve_bit_for_bit_and_error_for_error(n, caller_state):
    # The helper calls a private module of NumPy's; a change there fails here.
    rng = np.random.default_rng(n)
    outcomes = []
    for a, b in _solve_cases(n, rng):
        with np.errstate(**caller_state):
            expected = _solve_outcome(np.linalg.solve, a, b)
            assert _solve_outcome(lindblad._lapack_solve, a, b) == expected
        outcomes.append(expected[0][0])
    # Every singular case raises, and every regular and transposed one solves.
    assert outcomes.count(np.linalg.LinAlgError) >= 3 * 6 * 2
    assert outcomes.count(np.ndarray) >= 2 * 6 * 2
