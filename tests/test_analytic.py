import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import pair_rel_err, random_params, s_no_control, s_plus_sigma_minus_control
from morsim import (NumericError, ParameterError, SystemParams, probe_response_perturbative,
                    s_pair)
from morsim.analytic import s_pair_grid
from morsim.core import ParamColumns


def test_no_control_reduction_spot_values():
    # gamma=1, Omega=1, delta=2: s- = i/(1+i), s+ = i/(1+3i).
    p = SystemParams(Omega=1.0, delta=2.0, Delta=0.7, G1=0.0, G2=0.0)
    pair = s_pair(p)
    assert pair.s_minus == pytest.approx(0.5 + 0.5j, rel=1e-12)
    assert pair.s_plus == pytest.approx(0.3 + 0.1j, rel=1e-12)


def test_sigma_minus_control_spot_value():
    # G1=20, Gamma1+Gamma2=2, all detunings zero: s+ = 2i/402.
    p = SystemParams(G1=20.0, G2=0.0)
    expected = 2j / 402
    assert s_pair(p).s_plus == pytest.approx(expected, rel=1e-12)
    assert s_plus_sigma_minus_control(p) == pytest.approx(expected, rel=1e-12)


def test_control_phase_is_irrelevant():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = random_params(rng)
        phase1 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        phase2 = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        rotated = replace(p, G1=p.G1 * phase1, G2=p.G2 * phase2)
        assert pair_rel_err(s_pair(p), s_pair(rotated)) < 1e-12


def test_swap_symmetry_is_exact():
    rng = np.random.default_rng(22)
    for _ in range(300):
        p = random_params(rng)
        swapped = replace(p, G1=p.G2, G2=p.G1, Omega=-p.Omega)
        assert s_pair(p).s_plus == s_pair(swapped).s_minus
        assert s_pair(p).s_minus == s_pair(swapped).s_plus
    # The full sublevel mirror also swaps the lower and upper rates.
    for _ in range(300):
        p = random_params(rng, equal_gammas=False)
        mirrored = replace(p, gamma1=p.gamma2, gamma2=p.gamma1, Gamma1=p.Gamma2,
                           Gamma2=p.Gamma1, G1=p.G2, G2=p.G1, Omega=-p.Omega)
        assert s_pair(p).s_plus == s_pair(mirrored).s_minus
        assert s_pair(p).s_minus == s_pair(mirrored).s_plus


def test_no_control_line_center_absorption_peak():
    p = SystemParams(Omega=3.0, delta=3.0)
    assert s_no_control(p).s_minus == pytest.approx(1j, rel=1e-12)


def test_no_control_dispersive_values():
    p = SystemParams(Omega=5.0, delta=0.0)
    pair = s_no_control(p)
    assert pair.s_plus == pytest.approx((5 + 1j) / 26, rel=1e-12)
    assert pair.s_minus == pytest.approx((-5 + 1j) / 26, rel=1e-12)


@pytest.mark.parametrize("omega, big_delta", [(4.0, -3.0), (0.0, 0.0), (-12.5, 40.0)])
def test_no_control_matches_closed_form_on_grid(omega, big_delta):
    for delta in np.linspace(-60.0, 60.0, 1000):
        p = SystemParams(Omega=omega, Delta=big_delta, delta=float(delta))
        assert pair_rel_err(s_pair(p), s_no_control(p)) < 1e-12


def test_sigma_minus_form_reduces_at_zero_control():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = random_params(rng, g_max=0.0)
        expected = 1j * p.gamma1 / (p.gamma1 + 1j * (p.delta + p.Omega))
        assert s_plus_sigma_minus_control(p) == pytest.approx(expected, rel=1e-12)


def test_sigma_minus_form_agrees_with_full_pair():
    rng = np.random.default_rng(24)
    for _ in range(100):
        p = random_params(rng)
        p = replace(p, G2=0.0)
        full = s_pair(p).s_plus
        special = s_plus_sigma_minus_control(p)
        assert abs(full - special) <= 1e-12 * max(abs(full), abs(special))


def test_sigma_minus_form_rejects_sigma_plus_drive():
    with pytest.raises(ParameterError, match="G2"):
        s_plus_sigma_minus_control(SystemParams(G1=5.0, G2=1.0))


def test_unequal_gammas_agree_with_density_matrix_engine():
    # Each component carries its own rate: s+ is i gamma1 (...), s- is i gamma2 (...).
    p = SystemParams(gamma1=1.0, gamma2=2.0)
    assert pair_rel_err(s_pair(p), probe_response_perturbative(p)) < 1e-12
    assert s_plus_sigma_minus_control(p) == pytest.approx(s_pair(p).s_plus, rel=1e-12)
    rng = np.random.default_rng(25)
    for _ in range(300):
        p = random_params(rng, equal_gammas=False)
        assert pair_rel_err(s_pair(p), probe_response_perturbative(p)) < 1e-12


def test_degenerate_denominator_raises_instead_of_blowing_up():
    # Legal but extreme rates push the response denominators under the
    # guard; this must surface as an error, not a huge susceptibility.
    p = SystemParams(gamma1=1e-7, gamma2=1e-7, Gamma1=5e-10, Gamma2=5e-10)
    with pytest.raises(NumericError, match="denominator"):
        s_pair(p)


def _scaled_fig3(s: float) -> SystemParams:
    """The fig3-shaped set with G2 = 10, every rate, detuning and control times
    ``s``: both |den| are 1477.0 at s = 1 and scale as s**3."""
    return SystemParams(gamma1=s, gamma2=s, Gamma1=s, Gamma2=s, Omega=5.0 * s, Delta=5.0 * s,
                        G1=20.0 * s, G2=10.0 * s)


def test_denominator_guard_holds_at_its_bound():
    # The guard is 1e-12: |den| = 2.0e-12 passes and 5.0e-13 fails, as a
    # scalar and at row 1 of a grid.
    passing, failing = _scaled_fig3(1.106e-5), _scaled_fig3(6.97e-6)
    s_pair(passing)
    with pytest.raises(NumericError) as info:
        s_pair(failing)
    assert str(info.value).startswith(
        "vanishing denominator in closed-form susceptibility (|den+|=5.001e-13, |den-|=5.001e-13)")
    *_, (i, error) = s_pair_grid(ParamColumns([passing, failing]))
    assert (i, type(error), str(error)) == (1, NumericError, str(info.value))


def test_birefringence_without_magnetic_field():
    # Zero Zeeman splitting: the control alone makes s+ differ from s-.
    for g1 in (20.0, 50.0, 100.0):
        p = SystemParams(Omega=0.0, Delta=0.0, G1=g1, G2=0.0)
        pair = s_pair(p)
        assert abs(pair.s_plus - pair.s_minus) > 0.1
    quiet = s_pair(SystemParams(Omega=0.0, Delta=0.0, G1=0.0, G2=0.0))
    assert quiet.s_plus == quiet.s_minus


def test_passivity_sample():
    # Sampled property, not a proved theorem: any violation must be
    # reported by the failing draw, never clipped away.
    rng = np.random.default_rng(25)
    for _ in range(10_000):
        p = random_params(rng)
        pair = s_pair(p)
        assert pair.s_plus.imag >= 0.0, f"negative Im s+ at {p}"
        assert pair.s_minus.imag >= 0.0, f"negative Im s- at {p}"

