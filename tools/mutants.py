#!/usr/bin/env python3
"""Mutation gauntlet: tier-1 must fail on every mutant listed here, except
the few listed as surviving by design.

Each mutant is an exact string in one file of ``src/morsim`` and its
replacement.  The script copies ``src/``, with the ``tests/``,
``pyproject.toml`` and ``README.md`` that tier-1 reads, to a temporary
directory, and checks that the unmutated copy passes tier-1.  Then, one
mutant at a time, it applies the mutant to a fresh copy of ``src/`` and
runs the tier-1 command with ``-x`` there.  It fails if tier-1 passes on a
mutant (the mutant survives), if tier-1 fails on a mutant that names why
it survives (the reason no longer holds), or if a mutant's string does
not occur exactly once (the list is stale).  It uses the standard library
only.

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
    survives: str = ""  # why tier-1 cannot see the mutant; empty if it must be killed


MUTANTS = [
    Mutant("cross-validation tolerance 1e-2", "sweep.py",
           "CROSS_VALIDATION_TOL = 1e-6", "CROSS_VALIDATION_TOL = 1e-2"),
    Mutant("residual tolerance 1e-4", "lindblad.py",
           "RESIDUAL_TOL = 1e-10", "RESIDUAL_TOL = 1e-4"),
    Mutant("_first_failure reports the last failing check", "core.py",
           "checks[int(np.argmin(passes[:, i]))]",
           "checks[len(checks) - 1 - int(np.argmin(passes[::-1, i]))]"),
    Mutant("sweep failures taken in reverse order", "sweep.py",
           "min(failures, key=lambda f: f[0])", "min(failures[::-1], key=lambda f: f[0])"),
    Mutant("s_pair_grid's two checks swapped", "analytic.py",
           "            (np.isfinite(abs_plus) & np.isfinite(abs_minus), "
           "lambda i: _overflow(rows.at(i))),\n"
           "            ((abs_plus >= DENOMINATOR_GUARD) & (abs_minus >= DENOMINATOR_GUARD),\n"
           "             lambda i: _vanishing(abs_plus[i], abs_minus[i], rows.at(i))),\n",
           "            ((abs_plus >= DENOMINATOR_GUARD) & (abs_minus >= DENOMINATOR_GUARD),\n"
           "             lambda i: _vanishing(abs_plus[i], abs_minus[i], rows.at(i))),\n"
           "            (np.isfinite(abs_plus) & np.isfinite(abs_minus), "
           "lambda i: _overflow(rows.at(i))),\n"),
    Mutant("commutator rule's -1j flipped to +1j", "lindblad.py",
           "[((a, k), -1j, _V[k, b])", "[((a, k), 1j, _V[k, b])"),
    Mutant("conjugate coupling not conjugated", "lindblad.py",
           "{(lower, upper): v + 4 for", "{(lower, upper): v for"),
    Mutant("_PROBE unreversed in _PAIR_GATHER", "lindblad.py",
           "np.where(_PROBE[::-1] != 0,", "np.where(_PROBE != 0,"),
    Mutant("values += 0.0 dropped", "lindblad.py",
           "    values += 0.0\n", ""),
    Mutant("invalid=\"call\" dropped from _lapack_solve", "lindblad.py",
           'invalid="call", over="ignore"', 'over="ignore"'),
    Mutant("solve1 for a 2-d right-hand side", "lindblad.py",
           "solve1 if b.ndim == 1", "solve1 if b.ndim <= 2"),
    Mutant("observables_grid's +inf test written as != -inf", "observables.py",
           "(exponent.re == np.inf)", "(exponent.re != -np.inf)"),
    Mutant("s- generator built with the s+ probe terms", "lindblad.py",
           "np.where(_PROBE[::-1] != 0,", "np.where(_PROBE[[1, 1]] != 0,"),
    Mutant("_first_failure takes the first failing check, then its row", "core.py",
           "    i = int(np.argmin(np.logical_and.reduce(passes)))\n"
           "    return i, checks[int(np.argmin(passes[:, i]))][1](i)\n",
           "    c = int(np.argmin(np.logical_and.reduce(passes, axis=1)))\n"
           "    i = int(np.argmin(passes[c]))\n"
           "    return i, checks[c][1](i)\n"),
    Mutant("-x for 0.0 - x in the first-order drive", "lindblad.py",
           "_DRIVE = 0.0 - _PROBE[", "_DRIVE = -_PROBE["),
    Mutant("sweep's nonfinite checks in reverse column order", "sweep.py",
           "for j, finite in enumerate(np.isfinite(values))])",
           "for j, finite in enumerate(np.isfinite(values))][::-1])"),
    Mutant("np.linalg.norm for _frobenius in the residual bound", "lindblad.py",
           "bound = RESIDUAL_TOL * _frobenius(a)",
           "bound = RESIDUAL_TOL * np.linalg.norm(a, axis=(-2, -1))",
           survives="on these inputs both norms give the same bits; _frobenius is kept "
                    "because NumPy does not promise that a matrix gets them alone as in a stack"),
]


def _copy_tree(work: Path) -> None:
    """``src/`` (without caches), ``tests/``, ``pyproject.toml`` and ``README.md`` into ``work``."""
    caches = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.rmtree(work / name, ignore_errors=True)
        shutil.copytree(ROOT / name, work / name, ignore=caches)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, work / name)


def _tier1(work: Path) -> tuple[bool, float, str]:
    """Run tier-1 with ``-x`` in ``work``: whether it passed, its seconds and its first failure."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.monotonic()
    run = subprocess.run(TIER1, cwd=work, env=env, capture_output=True, text=True)
    seconds = time.monotonic() - start
    failed = [line for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    summary = failed[0] if failed else (run.stdout.strip().splitlines() or [""])[-1]
    return run.returncode == 0, seconds, summary


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="morsim-mutants-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        passed, seconds, summary = _tier1(work)
        print(f"unmutated: {'passes' if passed else 'FAILS'} in {seconds:.1f} s", flush=True)
        if not passed:
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
            passed, seconds, summary = _tier1(work)
            if passed and not mutant.survives:
                problems.append(f"{mutant.name}: survives tier-1")
            if not passed and mutant.survives:
                problems.append(f"{mutant.name}: killed, though listed as surviving because "
                                f"{mutant.survives}")
            print(f"{'SURVIVED' if passed else 'killed  '}  {mutant.name} ({seconds:.1f} s)"
                  f"{' by design' if passed and mutant.survives else ''}"
                  f"{'' if passed else ': ' + summary}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    survivors = sum(bool(mutant.survives) for mutant in MUTANTS)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants as expected: "
          f"{len(MUTANTS) - survivors} to be killed, {survivors} surviving by design")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
