"""The three morsim benchmark workloads.

A workload class has four parts:

* ``make_inputs(seed, work_dir)`` writes the workload's input files. Only
  the seed drives it; the program sees only the files it writes.
* ``__init__(work_dir)`` is the set-up the ``setup_s`` metric times: it
  imports morsim and builds and validates the workload's configs. This
  module therefore imports neither morsim nor numpy at import time.
* ``prepare()`` readies one pass, untimed; ``steps()`` is the pass itself,
  a list of calls timed one by one. Steps call the program through module
  attributes, so wrappers installed by the tracer are seen.
* ``check(results)`` checks the outputs of one pass, given the steps'
  return values, and returns a ``Checked`` or raises ``CheckFailed``.

Sizes are fixed here, not read back from the program's configs, so that a
later change to the config types cannot silently change the work a pass does.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path


class CheckFailed(Exception):
    """A pass ran but its outputs are wrong."""


@dataclass(frozen=True)
class Checked:
    rows: int           # output rows the pass produced (0 when it writes none)
    bytes: int          # output bytes the pass wrote
    note: str = ""      # one-line detail for the summary


def _call_cli(cli, argv: list[str]) -> None:
    # The CLI prints "wrote N rows to ..." per call; keep it off the
    # benchmark's own stdout, whose last line is the result.
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"morsim {' '.join(argv[:2])} exited {code}")


class Presets:
    """``morsim figure fig2|fig3|fig4`` in-process, checked by golden hashes."""

    NAMES = ("fig2", "fig3", "fig4")
    POINTS = 2001 * 3 + 1601 * 5 + 1601 * 3      # 18,811 probe detunings
    # sha256 of the preset CSVs as written by the seed implementation.
    GOLDEN = {
        "fig2": "b30c01e8192908b7d96f13cb33eb2dfe50a8572af71f859c8b2d6f1e149dcce0",
        "fig3": "baf5b1a4c7a7ca086f8809401b4379f7cb2c077bdc1bfbf03e3ac3bac8fee7d3",
        "fig4": "a89b97fa6514a63bc862116ba988d7456351ed9f9355289d210414591fc82606",
    }

    @staticmethod
    def make_inputs(seed: int, work_dir: Path) -> None:
        """The presets are fixed; the seed changes nothing."""

    def __init__(self, work_dir: Path):
        import morsim.cli
        import morsim.sweep

        self.cli = morsim.cli
        for name in self.NAMES:
            morsim.sweep.validate_config(morsim.sweep.preset(name))
        self.out_dir = work_dir / "presets"
        self.out_dir.mkdir(exist_ok=True)

    def _paths(self):
        return [self.out_dir / f"{name}.csv" for name in self.NAMES]

    def prepare(self) -> None:
        # A file left by an earlier pass must not pass this pass's check.
        for path in self._paths():
            path.unlink(missing_ok=True)

    def steps(self):
        return [partial(_call_cli, self.cli, ["figure", name, "--out", str(self.out_dir)])
                for name in self.NAMES]

    def check(self, _results) -> Checked:
        rows = size = 0
        for name, path in zip(self.NAMES, self._paths()):
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if digest != self.GOLDEN[name]:
                raise CheckFailed(f"{name}.csv sha256 {digest} differs from the golden hash")
            rows += data.count(b"\n") - 1
            size += len(data)
        return Checked(rows=rows, bytes=size, note="3 golden sha256 match")


class Scan:
    """A seeded ``morsim sweep`` config: many short numeric series as JSON."""

    VARIANTS = 300
    GRID = 33
    POINTS = VARIANTS * GRID                     # 9,900 probe detunings
    ROWS = POINTS                                # engine = numeric: one row each
    # Passive media give t_x + t_y <= 1; allow round-off above it.
    SUM_SLACK = 1e-9

    @classmethod
    def config_text(cls, seed: int) -> str:
        rng = random.Random(seed)
        lines = [
            f"# morsim benchmark scan config, seed {seed}",
            "gamma1 = 1",
            f"gamma2 = {rng.uniform(0.4, 0.8):.6f}",
            "Gamma1 = 1",
            "Gamma2 = 1",
            "alpha_l = 30",
            "delta_min = -80",
            "delta_max = 80",
            f"delta_points = {cls.GRID}",
            "engine = numeric",
            "format = json",
        ]
        for i in range(cls.VARIANTS):
            omega = rng.uniform(-10.0, 10.0)
            delta = rng.uniform(-40.0, 40.0)
            g1 = cmath.rect(rng.uniform(0.0, 60.0), rng.uniform(0.0, 2 * math.pi))
            g2 = rng.uniform(0.0, 20.0)
            lines.append(
                f"variant v{i:03d}: Omega = {omega:.6f}, Delta = {delta:.6f}, "
                f"G1 = {g1.real:.6f}{g1.imag:+.6f}j, G2 = {g2:.6f}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def make_inputs(cls, seed: int, work_dir: Path) -> None:
        (work_dir / "scan.cfg").write_text(cls.config_text(seed), encoding="utf-8")

    def __init__(self, work_dir: Path):
        import morsim.cli
        import morsim.sweep

        self.cli = morsim.cli
        self.config = work_dir / "scan.cfg"
        cfg = morsim.sweep.parse_config(self.config.read_text(encoding="utf-8"))
        if len(cfg.variants) != self.VARIANTS:
            raise CheckFailed(f"scan config parsed to {len(cfg.variants)} variants")
        self.out = work_dir / "scan.json"
        self.first: bytes | None = None

    def prepare(self) -> None:
        self.out.unlink(missing_ok=True)

    def steps(self):
        return [partial(_call_cli, self.cli,
                        ["sweep", "--config", str(self.config), "--out", str(self.out)])]

    def check(self, _results) -> Checked:
        data = self.out.read_bytes()
        if self.first is None:
            self._check_values(data)
            self.first = data
        elif data != self.first:
            raise CheckFailed("scan output bytes differ from the first pass")
        return Checked(rows=self.ROWS, bytes=len(data),
                       note="values checked on pass 1, bytes equal to pass 1 after")

    def _check_values(self, data: bytes) -> None:
        rows = json.loads(data)
        if len(rows) != self.ROWS:
            raise CheckFailed(f"scan wrote {len(rows)} rows, expected {self.ROWS}")
        numeric = ("delta", "re_s_plus", "im_s_plus", "re_s_minus", "im_s_minus",
                   "t_y", "t_x", "theta_rad")
        for i, row in enumerate(rows):
            where = f"row {i} ({row.get('variant')}, delta={row.get('delta')})"
            values = [row[key] for key in numeric]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                raise CheckFailed(f"{where}: nonfinite or non-numeric value")
            if row["engine"] != "numeric" or row["variant"] != f"v{i // self.GRID:03d}":
                raise CheckFailed(f"{where}: wrong engine or series order")
            t_y, t_x = row["t_y"], row["t_x"]
            if t_y < 0 or t_x < 0 or t_x + t_y > 1 + self.SUM_SLACK:
                raise CheckFailed(f"{where}: t_y={t_y}, t_x={t_x} outside 0 <= t, t_x + t_y <= 1")


class Finite:
    """16x16 finite-probe solves beside the first-order solve, fig4 variants."""

    G1_VALUES = (0.0, 20.0, 50.0)                # the fig4 variants (G2 = 10)
    GRID = 1601
    POINTS = len(G1_VALUES) * GRID               # 4,803 probe detunings
    PROBE = 1e-3
    # Second-order law: |finite - perturbative| <= 10 g^2.
    TOLERANCE = 10 * PROBE ** 2

    @staticmethod
    def make_inputs(seed: int, work_dir: Path) -> None:
        """The fig4 variants are fixed; the seed changes nothing."""

    def __init__(self, work_dir: Path):
        import dataclasses

        import numpy as np

        import morsim
        import morsim.lindblad

        self.lindblad = morsim.lindblad
        self.series = []
        for g1 in self.G1_VALUES:
            base = morsim.SystemParams(Omega=5.0, Delta=5.0, G1=g1, G2=10.0, alpha_l=30.0)
            self.series.append([morsim.validate_params(dataclasses.replace(base, delta=float(d)))
                                for d in np.linspace(-80.0, 80.0, self.GRID)])
        self.first: list | None = None
        self.worst = 0.0

    def prepare(self) -> None:
        pass

    def _solve(self, points):
        lindblad, g = self.lindblad, self.PROBE
        return [(lindblad.probe_response_finite(p, g), lindblad.probe_response_perturbative(p))
                for p in points]

    def steps(self):
        return [partial(self._solve, points) for points in self.series]

    def check(self, results) -> Checked:
        values = [(f.s_plus, f.s_minus, q.s_plus, q.s_minus)
                  for series in results for f, q in series]
        if len(values) != self.POINTS:
            raise CheckFailed(f"finite pass returned {len(values)} points")
        if self.first is None:
            worst = 0.0
            for f_plus, f_minus, q_plus, q_minus in values:
                if not all(math.isfinite(z.real) and math.isfinite(z.imag)
                           for z in (f_plus, f_minus, q_plus, q_minus)):
                    raise CheckFailed("nonfinite susceptibility")
                worst = max(worst, abs(f_plus - q_plus), abs(f_minus - q_minus))
            if worst > self.TOLERANCE:
                raise CheckFailed(f"|finite - perturbative| = {worst:.3e} > {self.TOLERANCE:.0e}")
            self.first = values
            self.worst = worst
        elif values != self.first:
            raise CheckFailed("finite results differ from the first pass")
        return Checked(rows=0, bytes=0,
                       note=f"max |finite - perturbative| = {self.worst:.3e} "
                            f"<= {self.TOLERANCE:.0e}")


WORKLOADS = {"presets": Presets, "scan": Scan, "finite": Finite}
