"""The accuracy headroom of the two routes, held far inside their tolerances.

The engines agree to about 1e-14 relative, against a cross-validation
tolerance of 1e-6, and every first-order residual sits below 2e-6 of its
bound of 1e-10 times the norm of its matrix.  The golden bytes cover only
the presets, so these tests bound the worst disagreement and the worst
residual ratio on the presets and on seeded sweeps of the benchmark's
``scan`` shape, and check that each tolerance is where it is documented.
``test_properties.py`` holds drawn parameter sets to the same bounds.
"""

import cmath
import math
import random

import numpy as np
import pytest

from helpers import WORST_ERROR, WORST_RESIDUAL_RATIO, spy_headroom
from morsim import (
    CrossValidationError,
    DeltaGrid,
    SweepConfig,
    SystemParams,
    Variant,
    preset,
    run_sweep,
)
from morsim import lindblad, sweep
from morsim.cli import main
from morsim.sweep import PRESET_NAMES


def scan_config(seed: int, variants: int = 300) -> SweepConfig:
    """A seeded ``both``-mode sweep of the ``scan`` shape: unequal gammas,
    ``|G1| <= 60`` at a random phase, ``G2 <= 20``, ``Omega`` in +-10 and
    ``Delta`` in +-40, 33 probe detunings each."""
    rng = random.Random(seed)
    base = SystemParams(gamma2=rng.uniform(0.4, 0.8))
    overrides = []
    for i in range(variants):
        omega, delta = rng.uniform(-10.0, 10.0), rng.uniform(-40.0, 40.0)
        g1 = cmath.rect(rng.uniform(0.0, 60.0), rng.uniform(0.0, 2 * math.pi))
        overrides.append(Variant(f"v{i:03d}", {"Omega": omega, "Delta": delta, "G1": g1,
                                               "G2": rng.uniform(0.0, 20.0)}))
    return SweepConfig(base=base, delta_grid=DeltaGrid(-80.0, 80.0, 33),
                       variants=tuple(overrides), engine="both")


@pytest.mark.parametrize("cfg", [preset(name) for name in PRESET_NAMES]
                         + [scan_config(seed) for seed in (1, 2, 3)],
                         ids=[*PRESET_NAMES, *(f"scan_seed{seed}" for seed in (1, 2, 3))])
def test_sweeps_keep_their_accuracy_headroom(monkeypatch, cfg):
    headroom = spy_headroom(monkeypatch)
    run_sweep(cfg)
    assert 0.0 < headroom["error"] <= WORST_ERROR
    assert 0.0 < headroom["ratio"] <= WORST_RESIDUAL_RATIO


@pytest.mark.parametrize("factor, fails", [(1 + 1e-5, True), (1 + 1e-7, False)])
def test_cross_validation_tolerance_is_one_part_in_a_million(monkeypatch, factor, fails):
    # s+ of the numeric engine off by `factor`: 10x beyond the tolerance, and 10x within it.
    numeric = sweep.probe_response_perturbative_grid

    def perturbed(rows):
        s_plus, s_minus, failure = numeric(rows)
        return s_plus * factor, s_minus, failure

    monkeypatch.setattr(sweep, "probe_response_perturbative_grid", perturbed)
    cfg = scan_config(1, variants=10)
    if fails:
        with pytest.raises(CrossValidationError, match="analytic and numeric engines disagree"):
            run_sweep(cfg)
    else:
        run_sweep(cfg)


@pytest.mark.parametrize("scale, passes", [(2e-10, False), (0.5e-10, True)])
def test_residual_bound_is_1e_10_of_the_matrix_norm(scale, passes):
    rng = np.random.default_rng(26)
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    r = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    r *= (scale * lindblad._frobenius(a) / lindblad._frobenius(r))[:, None, None]
    residual, bound, within = lindblad._residuals(a, r)
    np.testing.assert_allclose(residual / bound, scale / 1e-10, rtol=1e-12)
    assert within.tolist() == [passes] * 4


def test_sweep_fails_on_a_first_order_residual_beyond_its_bound(tmp_path, capsys):
    # Every rate near 1e-10 makes ||L|| about 1e-9, and the bound about 1e-19,
    # while the solve's round-off leaves residuals about 1e-16.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "gamma1 = 0.7e-10\ngamma2 = 0.9e-10\nGamma1 = 1e-10\nGamma2 = 0.5e-10\n"
        "Omega = 2e-10\nDelta = 3e-10\nG1 = 3e-10+1e-10j\nG2 = 2e-10\n"
        "delta_min = 1e-10\ndelta_max = 2e-10\ndelta_points = 2\n"
        "engine = numeric\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "numeric failure: variant 'base', delta=1e-10: first-order solve residual "
    assert captured.err.startswith(prefix)
    assert " too large at delta=1e-10, Delta=3e-10, Omega=2e-10, " in captured.err
