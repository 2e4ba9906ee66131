import cmath
import math
import warnings

import numpy as np
import pytest

from helpers import s_no_control
from morsim import (
    NumericError,
    ParameterError,
    SusceptibilityPair,
    SystemParams,
    cartesian_to_circular,
    circular_to_cartesian,
    output_field,
    rotation_angle,
    transmission_x,
    transmission_y,
)
from morsim.complexgrid import ComplexGrid
from morsim.observables import observables_grid

X_POLARIZED = cartesian_to_circular(1.0, 0.0)


def test_isotropic_pair_gives_no_crossed_signal():
    pair = SusceptibilityPair(0.3 + 0.2j, 0.3 + 0.2j)
    assert transmission_y(pair, 30.0) == 0.0


def test_zero_length_medium_gives_no_crossed_signal():
    pair = SusceptibilityPair(0.5 + 0.1j, -0.4 + 0.3j)
    assert transmission_y(pair, 0.0) == 0.0


def test_crossed_transmission_baseline_value():
    # Bare medium, Omega=5, delta=0, alpha_l=30.  Independent route:
    # common attenuation exp(-15/13) times sin^2 of the half phase
    # difference 75/26.
    pair = s_no_control(SystemParams(Omega=5.0))
    expected = math.exp(-15.0 / 13.0) * math.sin(75.0 / 26.0) ** 2
    t_y = transmission_y(pair, 30.0)
    assert t_y == pytest.approx(expected, rel=1e-12)
    assert t_y == pytest.approx(0.0202, abs=2e-4)


def test_transparent_medium_passes_everything():
    pair = SusceptibilityPair(0.0, 0.0)
    assert transmission_x(pair, 30.0) == 1.0
    assert transmission_y(pair, 30.0) == 0.0


def test_pure_resonant_absorption():
    pair = SusceptibilityPair(1j, 1j)
    assert transmission_x(pair, 30.0) == pytest.approx(math.exp(-30.0), rel=1e-12)


def test_real_pairs_conserve_total_transmission():
    rng = np.random.default_rng(41)
    for _ in range(100):
        pair = SusceptibilityPair(rng.uniform(-1, 1), rng.uniform(-1, 1))
        total = transmission_x(pair, 30.0) + transmission_y(pair, 30.0)
        assert total == pytest.approx(1.0, rel=1e-12)


def test_transmissions_bounded_for_passive_media():
    rng = np.random.default_rng(42)
    for _ in range(500):
        pair = SusceptibilityPair(
            complex(rng.uniform(-1, 1), rng.uniform(0, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(0, 1)),
        )
        al = rng.uniform(0, 60)
        t_x, t_y = transmission_x(pair, al), transmission_y(pair, al)
        assert 0.0 <= t_y <= 1.0 + 1e-12
        assert 0.0 <= t_x <= 1.0 + 1e-12
        assert t_x + t_y <= 1.0 + 1e-12


def test_crossed_transmission_symmetric_under_exchange():
    pair = SusceptibilityPair(0.5 + 0.1j, -0.2 + 0.4j)
    flipped = SusceptibilityPair(pair.s_minus, pair.s_plus)
    assert transmission_y(pair, 30.0) == transmission_y(flipped, 30.0)


def test_rotation_angle_zero_for_isotropic_pair():
    assert rotation_angle(SusceptibilityPair(0.7 + 0.2j, 0.7 + 0.2j), 30.0) == 0.0


def test_rotation_angle_scale():
    pair = SusceptibilityPair(0.1 + 0.2j, 0.5 + 0.9j)  # Re difference 0.4
    assert rotation_angle(pair, 30.0) == pytest.approx(3.0, rel=1e-12)


def test_rotation_angle_flips_under_exchange():
    pair = SusceptibilityPair(0.37 - 0.05j, -0.12 + 0.3j)
    flipped = SusceptibilityPair(pair.s_minus, pair.s_plus)
    assert rotation_angle(flipped, 30.0) == pytest.approx(
        -rotation_angle(pair, 30.0), rel=1e-12
    )


def test_empty_cell_returns_input():
    out = output_field(X_POLARIZED, SusceptibilityPair(0.0, 0.0), 30.0)
    assert out == X_POLARIZED


def test_isotropic_phase_keeps_polarization():
    s = 0.2 + 0.05j
    out = output_field(X_POLARIZED, SusceptibilityPair(s, s), 30.0)
    ex, ey = circular_to_cartesian(out)
    assert ey == pytest.approx(0.0, abs=1e-15)
    assert ex == pytest.approx(cmath.exp(0.5j * 30.0 * s), rel=1e-12)


def test_output_projection_reproduces_transmissions():
    rng = np.random.default_rng(43)
    for _ in range(100):
        pair = SusceptibilityPair(
            complex(rng.uniform(-1, 1), rng.uniform(0, 1)),
            complex(rng.uniform(-1, 1), rng.uniform(0, 1)),
        )
        al = rng.uniform(0, 50)
        out = output_field(X_POLARIZED, pair, al)
        ex, ey = circular_to_cartesian(out)
        assert abs(ey) ** 2 == pytest.approx(transmission_y(pair, al), abs=1e-12)
        assert abs(ex) ** 2 == pytest.approx(transmission_x(pair, al), abs=1e-12)


def test_output_field_reproduces_baseline_crossed_signal():
    # Bare Zeeman-split medium at line center: propagating an
    # x-polarized probe and projecting on y must give the same number
    # as the crossed-polarizer formula.
    pair = s_no_control(SystemParams(Omega=5.0))
    out = output_field(X_POLARIZED, pair, 30.0)
    _, ey = circular_to_cartesian(out)
    assert abs(ey) ** 2 == pytest.approx(0.0202, abs=2e-4)
    assert abs(ey) ** 2 == pytest.approx(transmission_y(pair, 30.0), abs=1e-15)


def test_tan_rotation_matches_field_ratio_for_real_pairs():
    rng = np.random.default_rng(44)
    for _ in range(100):
        # Keep the angle away from +-pi/2 where tan diverges.
        s_plus = rng.uniform(-0.09, 0.09)
        s_minus = rng.uniform(-0.09, 0.09)
        pair = SusceptibilityPair(s_plus, s_minus)
        theta = rotation_angle(pair, 30.0)
        ex, ey = circular_to_cartesian(output_field(X_POLARIZED, pair, 30.0))
        ratio = ey / ex
        assert abs(ratio.imag) < 1e-12
        assert ratio.real == pytest.approx(math.tan(theta), rel=1e-9, abs=1e-12)


def test_negative_medium_length_rejected():
    pair = SusceptibilityPair(0.1, 0.2)
    for func in (transmission_x, transmission_y, rotation_angle):
        with pytest.raises(ParameterError, match="alpha_l"):
            func(pair, -1.0)
    with pytest.raises(ParameterError, match="alpha_l"):
        output_field(X_POLARIZED, pair, -1.0)
    # A nonfinite length is refused as validate_params refuses it, before
    # a negative one: by the scalars and by the grid, given a float or one per pair.
    grids = _grids([pair, pair])
    checks = (lambda a: transmission_x(pair, a), lambda a: transmission_y(pair, a),
              lambda a: rotation_angle(pair, a), lambda a: output_field(X_POLARIZED, pair, a),
              lambda a: observables_grid(*grids, a),
              lambda a: observables_grid(*grids, np.array([30.0, a])),
              lambda a: observables_grid(*grids, np.array([-1.0, a])))
    for bad in (math.nan, math.inf, -math.inf):
        for check in checks:
            with pytest.raises(ParameterError) as error:
                check(bad)
            assert str(error.value) == f"nonfinite alpha_l: {bad}"


@pytest.mark.parametrize("alpha_l, message", [
    (-1, "negative alpha_l: -1"),
    (-2**64, "negative alpha_l: -1.8446744073709552e+19"),
    (10**400, "nonfinite alpha_l: inf"),
    (-10**400, "nonfinite alpha_l: -inf"),
])
def test_integer_alpha_l_is_refused_as_its_float(alpha_l, message):
    # NumPy holds an int beyond int64 and uint64 only as an object; such an
    # int is checked as its float, and one beyond the float range is not finite.
    grids = _grids([FINITE])
    checks = (lambda a: transmission_x(FINITE, a), lambda a: transmission_y(FINITE, a),
              lambda a: rotation_angle(FINITE, a), lambda a: output_field(X_POLARIZED, FINITE, a),
              lambda a: observables_grid(*grids, a))
    for check in checks:
        with pytest.raises(ParameterError) as error:
            check(alpha_l)
        assert str(error.value) == message


@pytest.mark.parametrize("alpha_l", [2**63, 2**64, 10**20])
def test_large_integer_alpha_l_acts_as_its_float(alpha_l):
    for func in (transmission_x, transmission_y, rotation_angle):
        assert func(FINITE, alpha_l) == func(FINITE, float(alpha_l))


# 0.5 * alpha_l * Im s+ = -5e12: exp of the phase overflows.
GAIN = SusceptibilityPair(-1e10j, 0.5 + 0.25j)
# At alpha_l = 500, |exp(i alpha_l s+ / 2)| is about 1e200: finite, but
# its square overflows.
LARGE_GAIN = SusceptibilityPair(-1.8420680743952367j, 0.5 + 0.25j)
FINITE = SusceptibilityPair(0.5 + 0.25j, -0.5 + 0.125j)


def _grids(pairs):
    return (ComplexGrid.from_numpy(np.array([q.s_plus for q in pairs])),
            ComplexGrid.from_numpy(np.array([q.s_minus for q in pairs])))


# At alpha_l = 1e308 the phase 0.5j * alpha_l * s itself overflows to an
# infinity, where cmath.exp raises ValueError.
INFINITE_PHASE = SusceptibilityPair(1e308 + 1e308j, -1e308 - 1e308j)
INFINITE_REAL_PHASE = SusceptibilityPair(1e308 + 0j, -1e308 + 0j)


@pytest.mark.parametrize("pair, alpha_l", [(GAIN, 1e3), (LARGE_GAIN, 500.0),
                                           (INFINITE_PHASE, 1e308),
                                           (INFINITE_REAL_PHASE, 1e308)],
                         ids=["phase_overflow", "square_overflow", "infinite_phase",
                              "infinite_real_phase"])
def test_overflow_is_numeric_error_naming_its_inputs(pair, alpha_l):
    for func in (transmission_y, transmission_x):
        with pytest.raises(NumericError) as info:
            func(pair, alpha_l)
        message = str(info.value)
        assert f"alpha_l={alpha_l!r}" in message
        assert f"s+={pair.s_plus!r}" in message and f"s-={pair.s_minus!r}" in message
    if pair is not LARGE_GAIN:
        with pytest.raises(NumericError, match="overflows"):
            output_field(X_POLARIZED, pair, alpha_l)


@pytest.mark.parametrize("pair, alpha_l", [(GAIN, 1e3), (LARGE_GAIN, 500.0),
                                           (INFINITE_PHASE, 1e308),
                                           (INFINITE_REAL_PHASE, 1e308)],
                         ids=["phase_overflow", "square_overflow", "infinite_phase",
                              "infinite_real_phase"])
def test_grid_overflow_is_inf_without_warnings(pair, alpha_l):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_y, t_x, theta = observables_grid(*_grids([FINITE, pair]), alpha_l)
    assert t_y[0] == transmission_y(FINITE, alpha_l) and t_x[0] == transmission_x(FINITE, alpha_l)
    assert t_y[1] == math.inf and t_x[1] == math.inf
    assert theta[1] == rotation_angle(pair, alpha_l)


_EXTREME_PARTS = (0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, -1e300, 1e308, -1e308,
                  math.inf, -math.inf, math.nan)


def _extreme_part(rng) -> float:
    if rng.random() < 0.5:
        return _EXTREME_PARTS[rng.integers(len(_EXTREME_PARTS))]
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-310.0, 308.2))


def test_grid_is_inf_exactly_where_the_scalars_raise():
    # Seeded extreme pairs, nonfinite parts among them: each scalar either
    # raises a NumericError, where the grid holds inf, or returns the grid's
    # value, equal in repr (which tells -0.0 from 0.0, and not nan's sign).
    rng = np.random.default_rng(2025)
    pairs = [SusceptibilityPair(complex(_extreme_part(rng), _extreme_part(rng)),
                                complex(_extreme_part(rng), _extreme_part(rng)))
             for _ in range(2000)]
    lengths = np.array([(1e308, 1e3, 1.0, 0.0, 10.0 ** rng.uniform(-300.0, 308.2))
                        [rng.integers(5)] for _ in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_y, t_x = observables_grid(*_grids(pairs), lengths)[:2]
    raised = 0
    for k, (q, alpha_l) in enumerate(zip(pairs, lengths.tolist())):
        for func, grid in ((transmission_y, t_y), (transmission_x, t_x)):
            try:
                expected = func(q, alpha_l)
            except NumericError:
                raised += 1
                assert grid[k] == math.inf, (q, alpha_l, func.__name__)
                continue
            assert repr(expected) == repr(float(grid[k])), (q, alpha_l, func.__name__)
    # Both outcomes are common among the draws.
    assert 500 < raised < 3500


def test_grid_takes_one_alpha_l_per_pair():
    pairs = [FINITE, SusceptibilityPair(1j, 2 + 0.5j)]
    lengths = np.array([30.0, 7.5])
    t_y, t_x, theta = observables_grid(*_grids(pairs), lengths)
    for k, (q, alpha_l) in enumerate(zip(pairs, lengths.tolist())):
        assert (t_y[k], t_x[k], theta[k]) == (transmission_y(q, alpha_l),
                                              transmission_x(q, alpha_l),
                                              rotation_angle(q, alpha_l))
    with pytest.raises(ParameterError, match="negative alpha_l: -1.0"):
        observables_grid(*_grids(pairs), np.array([30.0, -1.0]))
