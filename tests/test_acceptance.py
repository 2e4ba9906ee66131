"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to
see them on success; on failure the line appears in the captured
output).  Tolerances are fixed here and are not tuned at runtime.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import apply_generator, pair_rel_err, random_density, random_params
from morsim import (
    SystemParams,
    build_generator,
    preset,
    probe_response_finite,
    probe_response_perturbative,
    run_sweep,
    s_pair,
    steady_state,
    transmission_y,
)
from morsim.cli import main as cli_main
from morsim.sweep import CSV_HEADER

ORACLE_TOL = 1e-8
CLOSED_FORM_TOL = 1e-12
PRESETS = ("fig2", "fig3", "fig4")


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _preset_points(name: str):
    cfg = preset(name)
    deltas = cfg.delta_grid.values()
    for variant in cfg.variants:
        merged = variant.apply(cfg.base)
        for delta in deltas:
            yield replace(merged, delta=float(delta))


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for name in PRESETS:
        for p in _preset_points(name):
            worst = max(worst, pair_rel_err(s_pair(p), probe_response_perturbative(p)))
    rng = np.random.default_rng(101)
    for equal_gammas in (True, False):
        for _ in range(1000):
            p = random_params(rng, equal_gammas=equal_gammas, unit_big_gammas=True)
            worst = max(worst, pair_rel_err(s_pair(p), probe_response_perturbative(p)))
    _report(
        "criterion 1: analytic and density-matrix responses agree to 1e-8",
        worst <= ORACLE_TOL,
        f"worst relative error {worst:.3e}",
    )


def test_criterion_2_closed_form_limits():
    worst_bare = 0.0
    for delta in np.linspace(-100.0, 100.0, 1000):
        p = SystemParams(Omega=7.0, Delta=-2.0, delta=float(delta))
        pair = s_pair(p)
        bare_plus = p.gamma1 / ((p.delta + p.Omega) - 1j * p.gamma1)
        bare_minus = p.gamma1 / ((p.delta - p.Omega) - 1j * p.gamma1)
        worst_bare = max(worst_bare,
                         abs(pair.s_plus - bare_plus) / abs(bare_plus),
                         abs(pair.s_minus - bare_minus) / abs(bare_minus))

    worst_special = 0.0
    rng = np.random.default_rng(102)
    for _ in range(100):
        p = replace(random_params(rng), G2=0.0)
        pair = s_pair(p)
        gamma = p.gamma1
        uncontrolled_minus = 1j * gamma / (gamma + 1j * (p.delta - p.Omega))
        controlled_plus = (1j * gamma * (p.Gamma1 + p.Gamma2 + 1j * (p.Delta + p.delta))
                           / (abs(p.G1) ** 2
                              + (gamma + 1j * (p.delta + p.Omega))
                              * (p.Gamma1 + p.Gamma2 + 1j * (p.Delta + p.delta))))
        worst_special = max(
            worst_special,
            abs(pair.s_minus - uncontrolled_minus) / abs(uncontrolled_minus),
            abs(pair.s_plus - controlled_plus) / abs(controlled_plus),
        )
    ok = worst_bare <= CLOSED_FORM_TOL and worst_special <= CLOSED_FORM_TOL
    _report(
        "criterion 2: zero-control and sigma- control limits match to 1e-12",
        ok,
        f"bare {worst_bare:.3e}, sigma- case {worst_special:.3e}",
    )


def test_criterion_3_finite_probe_convergence():
    p = SystemParams(Omega=5.0, Delta=5.0, G1=20.0, G2=0.0, delta=0.3)
    pert = probe_response_perturbative(p)
    amplitudes = np.array([1e-3, 5e-4, 2.5e-4])
    discrepancies = []
    for g in amplitudes:
        fin = probe_response_finite(p, float(g))
        discrepancies.append(math.hypot(abs(fin.s_plus - pert.s_plus),
                                        abs(fin.s_minus - pert.s_minus)))
    order = float(np.polyfit(np.log(amplitudes), np.log(discrepancies), 1)[0])
    _report(
        "criterion 3: finite-probe response converges at second order",
        2.0 - 0.2 <= order <= 2.0 + 0.2,
        f"fitted order {order:.3f}",
    )


def test_criterion_4_control_induced_birefringence():
    base = SystemParams(Omega=0.0, Delta=0.0, G2=0.0, alpha_l=30.0)
    deltas = np.linspace(-150.0, 150.0, 2001)

    driven = [s_pair(replace(base, G1=20.0, delta=float(d))) for d in deltas]
    max_split = max(abs(pr.s_plus - pr.s_minus) for pr in driven)
    max_t_y = max(transmission_y(pr, base.alpha_l) for pr in driven)

    quiet_t_y = max(
        transmission_y(s_pair(replace(base, G1=0.0, delta=float(d))), base.alpha_l)
        for d in deltas
    )
    ok = max_split > 0.1 and max_t_y > 1e-3 and quiet_t_y <= 1e-12
    _report(
        "criterion 4: control field alone induces birefringence and rotation",
        ok,
        f"max |s+-s-| {max_split:.3f}, max T_y {max_t_y:.3e}, quiet T_y {quiet_t_y:.3e}",
    )


def test_criterion_5_autler_townes_doublet():
    base = SystemParams(Omega=0.0, Delta=0.0, G1=100.0, G2=0.0)
    deltas = np.linspace(-150.0, 150.0, 2001)
    absorption = np.array([s_pair(replace(base, delta=float(d))).s_plus.imag
                           for d in deltas])
    interior = (absorption[1:-1] > absorption[:-2]) & (absorption[1:-1] > absorption[2:])
    peaks = deltas[1:-1][interior]
    ok = (len(peaks) == 2
          and abs(peaks[0] + 100.0) <= 2.0
          and abs(peaks[1] - 100.0) <= 2.0)
    _report(
        "criterion 5: strong control splits absorption into a doublet at +-G1",
        ok,
        f"peaks at {peaks.tolist()}",
    )


def test_criterion_6_rotation_enhancement():
    base = SystemParams(Omega=5.0, Delta=5.0, G2=0.0, alpha_l=30.0)
    deltas = np.linspace(-80.0, 80.0, 1601)

    def max_t_y(g1):
        return max(
            transmission_y(s_pair(replace(base, G1=g1, delta=float(d))), base.alpha_l)
            for d in deltas
        )

    quiet, driven = max_t_y(0.0), max_t_y(50.0)
    re_quiet = s_pair(replace(base, G1=0.0, delta=0.0)).s_plus.real
    re_driven = s_pair(replace(base, G1=50.0, delta=0.0)).s_plus.real
    ok = (driven > quiet
          and abs(re_quiet - 5.0 / 26.0) < 1e-12
          and re_driven < 0.0)
    _report(
        "criterion 6: control enhances rotation and flips the sign of Re s+",
        ok,
        f"max T_y {quiet:.4f} -> {driven:.4f}, Re s+(0): {re_quiet:.4f} -> {re_driven:.4f}",
    )


def test_criterion_7_baseline_spot_value():
    pair = s_pair(SystemParams(Omega=5.0, delta=0.0, G1=0.0, G2=0.0))
    t_y = transmission_y(pair, 30.0)
    _report(
        "criterion 7: bare-medium crossed transmission at line center",
        abs(t_y - 0.0202) <= 0.0002,
        f"T_y = {t_y:.6f}",
    )


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(108)

    worst_trace = worst_herm = 0.0
    for _ in range(100):
        p = random_params(rng, equal_gammas=False)
        gen = build_generator(p, g1=rng.uniform(0, 0.01), g2=rng.uniform(0, 0.01))
        drho = apply_generator(gen, random_density(rng))
        worst_trace = max(worst_trace, abs(np.trace(drho)))
        worst_herm = max(worst_herm, float(np.max(np.abs(drho - drho.conj().T))))

    worst_residual = 0.0
    for _ in range(50):
        p = random_params(rng, equal_gammas=False)
        gen = build_generator(p, g1=rng.uniform(1e-5, 0.01), g2=rng.uniform(1e-5, 0.01))
        state = steady_state(gen)
        worst_residual = max(
            worst_residual,
            float(np.linalg.norm(gen @ state.rho.reshape(16))
                  / np.linalg.norm(gen)),
        )

    bounds_ok = True
    for name in PRESETS:
        for row in run_sweep(preset(name)):
            inside = (0.0 <= row.t_y <= 1.0 + 1e-12
                      and 0.0 <= row.t_x <= 1.0 + 1e-12
                      and row.t_x + row.t_y <= 1.0 + 1e-12)
            bounds_ok = bounds_ok and inside

    worst_swap = worst_phase = 0.0
    for _ in range(1000):
        p = random_params(rng)
        pair = s_pair(p)
        swapped = s_pair(replace(p, G1=p.G2, G2=p.G1, Omega=-p.Omega))
        worst_swap = max(worst_swap, abs(pair.s_plus - swapped.s_minus),
                         abs(pair.s_minus - swapped.s_plus))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = s_pair(replace(p, G1=p.G1 * phase, G2=p.G2 * phase))
        worst_phase = max(worst_phase, pair_rel_err(pair, rotated))

    ok = (worst_trace < 1e-12 and worst_herm < 1e-12
          and worst_residual <= 1e-10 and bounds_ok
          and worst_swap == 0.0 and worst_phase < 1e-12)
    _report(
        "criterion 8: generator, steady-state, bound and symmetry invariants",
        ok,
        f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, residual {worst_residual:.1e}, "
        f"bounds {'ok' if bounds_ok else 'violated'}, swap {worst_swap:.1e}, "
        f"phase {worst_phase:.1e}",
    )


@pytest.mark.parametrize("name", PRESETS)
def test_criterion_9_reproduction_artifacts(name, tmp_path):
    first_dir, second_dir = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["figure", name, "--out", str(first_dir)]) == 0
    assert cli_main(["figure", name, "--out", str(second_dir)]) == 0
    first = (first_dir / f"{name}.csv").read_bytes()
    second = (second_dir / f"{name}.csv").read_bytes()

    cfg = preset(name)
    lines = first.decode("utf-8").splitlines()
    expected_rows = 2 * len(cfg.variants) * cfg.delta_grid.points  # both engines
    labels = {line.split(",")[0] for line in lines[1:]}
    ok = (first == second
          and lines[0] == ",".join(CSV_HEADER)
          and len(lines) == 1 + expected_rows
          and labels == {v.name for v in cfg.variants})
    _report(
        f"criterion 9: {name} artifact is deterministic and complete",
        ok,
        f"{len(lines) - 1} rows, {len(labels)} variants",
    )
