#!/usr/bin/env python3
"""Mutation gauntlet: tier-1 must fail on every mutant listed here, except
the few listed as surviving by design.

Each mutant is an exact string in one file of ``src/morsim``, its
replacement, and the tier-1 test that kills it.  The script copies
``src/``, with the ``tests/``, ``pyproject.toml`` and ``README.md`` that
tier-1 reads, to a temporary directory, and checks that the unmutated copy
passes all of tier-1.  Then, one mutant at a time, it applies the mutant
to a fresh copy of ``src/`` and runs the tier-1 command with ``-x`` and the
mutant's test there: the mutant is killed if that test fails.  If it does
not, the name is stale, and all of tier-1 runs to report whether anything
else kills the mutant.  A mutant listed with why it survives names no test
and runs all of tier-1, which must pass.  The script fails on a stale name,
on a mutant that survives, on a survivor by design that tier-1 kills (the
reason no longer holds), and on a mutant whose string does not occur
exactly once.  It uses the standard library only.

Usage, from anywhere: ``python3 tools/mutants.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/morsim
    old: str
    new: str
    test: str = ""  # node id, under tests/, of the test that kills the mutant
    survives: str = ""  # why tier-1 cannot see the mutant, which then names no test


MUTANTS = [
    Mutant("cross-validation tolerance 1e-2", "sweep.py",
           "CROSS_VALIDATION_TOL = 1e-6", "CROSS_VALIDATION_TOL = 1e-2",
           test="test_headroom.py::test_cross_validation_tolerance_is_one_part_in_a_million"),
    Mutant("residual tolerance 1e-4", "lindblad.py",
           "RESIDUAL_TOL = 1e-10", "RESIDUAL_TOL = 1e-4",
           test="test_headroom.py::test_residual_bound_is_1e_10_of_the_matrix_norm"),
    Mutant("_first_failure reports the last failing check", "core.py",
           "checks[int(np.argmin(passes[:, i]))]",
           "checks[len(checks) - 1 - int(np.argmin(passes[::-1, i]))]",
           test="test_grid.py::test_first_failure_in_row_order_is_raised"),
    Mutant("sweep failures taken in reverse order", "sweep.py",
           "min(failures, key=lambda f: f[0])", "min(failures[::-1], key=lambda f: f[0])",
           test="test_blocks.py::test_later_numeric_error_wins_over_earlier_cross_validation_excess"),
    Mutant("s_pair_grid's two checks swapped", "analytic.py",
           "            (np.isfinite(abs_plus) & np.isfinite(abs_minus), "
           "lambda i: _overflow(rows.at(i))),\n"
           "            ((abs_plus >= DENOMINATOR_GUARD) & (abs_minus >= DENOMINATOR_GUARD),\n"
           "             lambda i: _vanishing(abs_plus[i], abs_minus[i], rows.at(i))),\n",
           "            ((abs_plus >= DENOMINATOR_GUARD) & (abs_minus >= DENOMINATOR_GUARD),\n"
           "             lambda i: _vanishing(abs_plus[i], abs_minus[i], rows.at(i))),\n"
           "            (np.isfinite(abs_plus) & np.isfinite(abs_minus), "
           "lambda i: _overflow(rows.at(i))),\n",
           test="test_grid.py::test_grid_engines_called_directly_do_not_warn"),
    Mutant("commutator rule's -1j flipped to +1j", "lindblad.py",
           "[((a, k), -1j, _V[k, b])", "[((a, k), 1j, _V[k, b])",
           test="test_lindblad.py::test_generator_is_the_commutator_with_the_coupling_hamiltonian"),
    Mutant("conjugate coupling not conjugated", "lindblad.py",
           "{(lower, upper): v + 4 for", "{(lower, upper): v for",
           test="test_lindblad.py::test_generator_is_the_commutator_with_the_coupling_hamiltonian"),
    Mutant("_PROBE unreversed in _PAIR_GATHER", "lindblad.py",
           "np.where(_PROBE[::-1] != 0,", "np.where(_PROBE != 0,",
           test="test_finite_engine.py::test_generators_are_the_term_by_term_scatter_bit_for_bit"),
    Mutant("values += 0.0 dropped", "lindblad.py",
           "    values += 0.0\n", "",
           test="test_finite_engine.py::test_generator_is_the_zero_probe_generator_plus_g_times_probe_bit_for_bit"),
    Mutant("invalid=\"call\" dropped from _lapack_solve", "lindblad.py",
           'invalid="call", over="ignore"', 'over="ignore"',
           test="test_finite_engine.py::test_lapack_solve_is_numpy_solve_bit_for_bit_and_error_for_error"),
    Mutant("observables_grid's +inf test written as != -inf", "observables.py",
           "(exponent.re == np.inf)", "(exponent.re != -np.inf)",
           test="test_observables.py::test_grid_is_inf_exactly_where_the_scalars_raise"),
    Mutant("s- generator built with the s+ probe terms", "lindblad.py",
           "np.where(_PROBE[::-1] != 0,", "np.where(_PROBE[[1, 1]] != 0,",
           test="test_finite_engine.py::test_generators_are_the_term_by_term_scatter_bit_for_bit"),
    Mutant("_first_failure takes the first failing check, then its row", "core.py",
           "    i = int(np.argmin(np.logical_and.reduce(passes)))\n"
           "    return i, checks[int(np.argmin(passes[:, i]))][1](i)\n",
           "    c = int(np.argmin(np.logical_and.reduce(passes, axis=1)))\n"
           "    i = int(np.argmin(passes[c]))\n"
           "    return i, checks[c][1](i)\n",
           test="test_grid.py::test_first_order_grid_failure_order_is_the_scalar_loops"),
    Mutant("-x for 0.0 - x in the first-order drive", "lindblad.py",
           "_DRIVE = 0.0 - _PROBE[", "_DRIVE = -_PROBE[",
           test="test_lindblad.py::test_first_order_drive_is_the_per_call_drive_bit_for_bit"),
    Mutant("sweep's nonfinite checks in reverse column order", "sweep.py",
           "for j, finite in enumerate(np.isfinite(values))])",
           "for j, finite in enumerate(np.isfinite(values))][::-1])",
           test="test_grid.py::test_first_failure_in_row_order_is_raised"),
    Mutant("np.linalg.norm for _frobenius in the residual bound", "lindblad.py",
           "bound = RESIDUAL_TOL * _frobenius(a)",
           "bound = RESIDUAL_TOL * np.linalg.norm(a, axis=(-2, -1))",
           survives="on these inputs both norms give the same bits; _frobenius is kept "
                    "because NumPy does not promise that a matrix gets them alone as in a stack"),
    Mutant("Hermiticity tolerance 1e-7", "lindblad.py",
           "HERMITICITY_TOL = 1e-12", "HERMITICITY_TOL = 1e-7",
           test="test_lindblad.py::test_density_matrix_tolerances_hold_at_their_bounds"),
    Mutant("trace tolerance 1e-6", "lindblad.py",
           "TRACE_TOL = 1e-12", "TRACE_TOL = 1e-6",
           test="test_lindblad.py::test_density_matrix_tolerances_hold_at_their_bounds"),
    Mutant("population tolerance -1e-6", "lindblad.py",
           "POPULATION_TOL = -1e-12", "POPULATION_TOL = -1e-6",
           test="test_lindblad.py::test_density_matrix_tolerances_hold_at_their_bounds"),
    Mutant("denominator guard 1e-14", "analytic.py",
           "DENOMINATOR_GUARD = 1e-12", "DENOMINATOR_GUARD = 1e-14",
           test="test_analytic.py::test_denominator_guard_holds_at_its_bound"),
    Mutant("config limit 2 MiB", "sweep.py",
           "MAX_CONFIG_BYTES = 1 << 20", "MAX_CONFIG_BYTES = 1 << 21",
           test="test_cli.py::test_config_larger_than_the_bound_is_validation_error"),
    Mutant("_solve's fallback takes sign 1, not sign 0, as solvable", "lindblad.py",
           "np.linalg.slogdet(a).sign != 0", "np.linalg.slogdet(a).sign != 1",
           test="test_finite_engine.py::"
                "test_solve_reports_the_first_singular_matrix_as_the_matrix_by_matrix_loop"),
    Mutant("steady-state projection outside the ignored floating-point errors", "lindblad.py",
           "    with np.errstate(all=\"ignore\"):\n"
           "        rho += rho.conj().swapaxes(-1, -2)\n"
           "        rho *= 0.5\n",
           "    rho += rho.conj().swapaxes(-1, -2)\n"
           "    rho *= 0.5\n"
           "    with np.errstate(all=\"ignore\"):\n",
           test="test_finite_engine.py::test_overflowing_projection_does_not_warn"),
    Mutant("emit reads its rows twice", "sweep.py",
           "if not rows or not (rows := list(rows)):", "if not rows:",
           test="test_emit.py::test_any_iterable_of_rows_gives_the_bytes_of_the_list"),
    Mutant("a nan disagreement no longer the worst", "sweep.py",
           "not (np.isnan(worst[0]) or err[j] <= worst[0])", "not (err[j] <= worst[0])",
           test="test_blocks.py::test_a_nan_disagreement_in_an_early_block_stays_the_worst"),
    Mutant("_rel_err_grid divides where both vanish", "sweep.py",
           "np.where(scale > 0,", "np.where(scale >= 0,",
           test="test_blocks.py::test_rel_err_grid_is_0_where_both_engines_vanish"),
    Mutant("digit rule without its rounding margin", "sweep.py",
           "abs(scaled - k) < 0.5 - abs(scaled) * 2.0 ** -51", "abs(scaled - k) < 0.5",
           test="test_emit.py::test_csv_digits_are_the_digits_that_print"),
    Mutant("digit rule takes k = 0, whose sign does not print", "sweep.py",
           "(precision <= 22) & (k != 0)", "(precision <= 22)",
           test="test_emit.py::test_csv_digits_are_the_digits_that_print"),
    Mutant("digit rule past the exact powers of ten", "sweep.py",
           "(precision >= 0) & (precision <= 22) & ", "",
           test="test_emit.py::test_rows_that_differ_in_decade_match_reference"),
    Mutant("twin rows at different precisions", "sweep.py",
           "(precision[:, 1:] == precision[:, :-1]) & (digits", "(digits",
           test="test_emit.py::test_rows_that_differ_in_decade_match_reference"),
    Mutant("twin rows at different deltas", "sweep.py",
           "(digits[:, 1:] == digits[:, :-1])).all(axis=0)",
           "(digits[:, 1:] == digits[:, :-1]))[1:].all(axis=0)",
           test="test_emit.py::test_equal_numbers_under_other_names_or_deltas_match_reference"),
    Mutant("array pass takes precision 21, past its slot", "sweep.py",
           "cell = (precision <= _SLOT_PRECISION) &", "cell = (precision <= _SLOT_PRECISION + 1) &",
           test="test_emit.py::test_every_precision_and_digit_count_matches_reference"),
    Mutant("array pass takes 13-digit integers, past its slot", "sweep.py",
           "(abs(digits) < 1e12)", "(abs(digits) < 1e13)",
           test="test_emit.py::test_array_pass_prints_every_layout_as_printf"),
    Mutant("array pass drops the unit zero of |x| < 1", "sweep.py",
           "unit | fraction & (at < 12),", "fraction & (at < 12),",
           test="test_emit.py::test_rows_mixing_array_and_fallback_cells_match_reference"),
    Mutant("array pass puts the sign one byte to the left", "sweep.py",
           "minus & (at == start - 1)", "minus & (at == start - 2)",
           test="test_emit.py::test_array_pass_prints_every_layout_as_printf"),
    Mutant("short values printed exactly up to 13 digits", "sweep.py",
           "np.minimum(places, precision[short])", "np.minimum(places, precision[short] + 1)",
           test="test_emit.py::test_short_binary_fractions_match_reference"),
    Mutant("short values exempt from the near-decade guard", "sweep.py",
           "& (np.abs(magnitude - np.rint(magnitude)) >= 1e-10))",
           "& ((np.abs(magnitude - np.rint(magnitude)) >= 1e-10) | (scaled == np.floor(scaled))))",
           test="test_emit.py::test_csv_precisions_of_short_values"),
    Mutant("excited-state feeding of |1> at Gamma1, not 2 Gamma1", "lindblad.py",
           "2.0 * p.Gamma1", "1.0 * p.Gamma1",
           test="test_lindblad.py::test_generators_are_the_textbook_master_equation"),
    Mutant("detuning of rho_e1 with the sign of Omega flipped", "lindblad.py",
           "(De - Om)", "(De + Om)",
           test="test_lindblad.py::test_generators_are_the_textbook_master_equation"),
    Mutant("DensityMatrix checks outside the ignored floating-point errors", "lindblad.py",
           "        with np.errstate(all=\"ignore\"):  # an inf or 1e308 entry fails a check, "
           "not a warning\n"
           "            failure = _first_failure(_state_checks(rho[np.newaxis]))\n",
           "        failure = _first_failure(_state_checks(rho[np.newaxis]))\n",
           test="test_contract.py::test_closed_case_message_is_pinned"),
]


def _copy_tree(work: Path) -> None:
    """``src/`` (without caches), ``tests/``, ``pyproject.toml`` and ``README.md`` into ``work``."""
    caches = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.rmtree(work / name, ignore_errors=True)
        shutil.copytree(ROOT / name, work / name, ignore=caches)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, work / name)


def _tier1(work: Path, *tests: str) -> tuple[int, float, str]:
    """Run tier-1 with ``-x`` in ``work``, only ``tests`` if any are named: its
    exit code (1 if a test failed), its seconds and its first failure."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.monotonic()
    run = subprocess.run([*TIER1, *tests], cwd=work, env=env, capture_output=True, text=True)
    seconds = time.monotonic() - start
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    summary = failed[0] if failed else (run.stdout.strip().splitlines() or [""])[-1]
    return run.returncode, seconds, summary


def main() -> int:
    problems = []
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="morsim-mutants-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        code, seconds, summary = _tier1(work)
        print(f"unmutated: {'FAILS' if code else 'passes'} in {seconds:.1f} s", flush=True)
        if code:
            print(f"  {summary}\nA kill means nothing while the unmutated code fails.",
                  file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            _copy_tree(work)
            target = work / "src" / "morsim" / mutant.path
            text = target.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                problems.append(f"{mutant.name}: its string occurs {count} times in {mutant.path}")
                print(f"STALE     {mutant.name} ({count} matches)", flush=True)
                continue
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            if mutant.survives:
                code, seconds, summary = _tier1(work)
                if code:
                    problems.append(f"{mutant.name}: killed, though listed as surviving because "
                                    f"{mutant.survives}")
                print(f"{'killed  ' if code else 'SURVIVED'}  {mutant.name} ({seconds:.1f} s)"
                      f"{': ' + summary if code else ' by design'}", flush=True)
                continue
            code, seconds, summary = (_tier1(work, f"tests/{mutant.test}") if mutant.test
                                      else (None, 0.0, ""))
            if code == 1:
                print(f"killed    {mutant.name} ({seconds:.1f} s): {summary}", flush=True)
                continue
            # The named test does not kill the mutant: all of tier-1 says whether anything does.
            named = (f"names {mutant.test}, which {'passes' if code == 0 else f'exits {code}'}"
                     if mutant.test else "names no test")
            full, more, summary = _tier1(work)
            problems.append(f"{mutant.name}: {named}; tier-1 "
                            f"{'kills it: ' + summary if full else 'passes: the mutant survives'}")
            print(f"STALE     {mutant.name} ({seconds + more:.1f} s)", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    survivors = sum(bool(mutant.survives) for mutant in MUTANTS)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants as expected: "
          f"{len(MUTANTS) - survivors} to be killed by their tests, "
          f"{survivors} surviving by design; {time.monotonic() - start:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
