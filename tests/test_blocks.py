"""Block evaluation and streamed output of sweeps.

A sweep is evaluated in blocks of at most ``sweep._BLOCK_ROWS``
(variant, delta) points and each block is written as it is evaluated.
These tests shrink the block bound to a few points, so that boundaries
fall inside variants, and hold the output bytes, the first failure and
the cross-validation report to those of one block; seeded ``both``
sweeps are held to the reference CSV writer.  A subprocess checks
that peak memory does not grow with the number of variants, whether the
sweep goes to a file or to a file-like object.
"""

import hashlib
import io
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import morsim
from helpers import reference_csv, scalar_sweep
from morsim import (
    CrossValidationError,
    DeltaGrid,
    MorsimError,
    NumericError,
    SweepConfig,
    SystemParams,
    Variant,
    emit,
    parse_config,
    preset,
    run_sweep,
    sweep,
    write_sweep,
)
from morsim.cli import main
from morsim.complexgrid import ComplexGrid
from test_golden import JSON_SHA256, PRESET_SHA256
from test_headroom import scan_config


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(cfg: SweepConfig) -> bytes:
    out = io.BytesIO()
    write_sweep(cfg, out)
    return out.getvalue()


def _config(engine: str, out_format: str = "csv") -> SweepConfig:
    return SweepConfig(
        base=SystemParams(Omega=3.0, Delta=-2.0, G2=4.0 - 1.0j),
        delta_grid=DeltaGrid(-30.0, 30.0, 13),
        variants=(Variant("a", {"G1": 0.0}), Variant("b", {"G1": 12.0 + 5.0j}),
                  Variant("c", {"G1": -7.5, "Delta": 9.0})),
        engine=engine,
        out_format=out_format,
    )


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("engine", ["analytic", "numeric", "both"])
def test_bytes_do_not_depend_on_block_bounds(monkeypatch, engine, out_format):
    cfg = _config(engine, out_format)
    one_block = _written(cfg)
    assert one_block == emit(run_sweep(cfg), out_format)
    for block_rows, chunk_rows in [(1, 4096), (5, 4096), (13, 3), (14, 2), (64, 5)]:
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(sweep, "_JSON_CHUNK_ROWS", chunk_rows)
        assert _written(cfg) == one_block
        assert emit(run_sweep(cfg), out_format) == one_block


@pytest.mark.parametrize("chunk_rows", [3, 4095])
@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_sweep_bytes_are_the_reference_writers(monkeypatch, seed, chunk_rows):
    # Most numeric rows reuse the text of their analytic rows; with odd chunk
    # bounds, some pairs straddle a chunk.  4,620 rows, more than one chunk of 4,095.
    cfg = scan_config(seed, variants=70)
    monkeypatch.setattr(sweep, "_CHUNK_ROWS", chunk_rows)
    assert _written(cfg) == reference_csv(run_sweep(cfg))


@pytest.mark.parametrize("name", sorted(JSON_SHA256))
@pytest.mark.parametrize("block_rows", [1, 7, 41])
def test_json_pins_hold_across_blocks(monkeypatch, name, block_rows):
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
    text, expected = JSON_SHA256[name]
    cfg = parse_config(text)
    assert _sha256(_written(cfg)) == expected
    assert _sha256(emit(run_sweep(cfg), cfg.out_format)) == expected


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_preset_pins_hold_across_blocks(monkeypatch, name):
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 997)
    assert _sha256(_written(preset(name))) == PRESET_SHA256[name]


def _outcomes(cfg):
    """What run_sweep, write_sweep and the scalar loop raise, as (type, message)."""
    outcomes = []
    for run in (run_sweep, _written, scalar_sweep):
        with pytest.raises(MorsimError) as info:
            run(cfg)
        outcomes.append((type(info.value), str(info.value)))
    return outcomes


def test_later_numeric_error_wins_over_earlier_cross_validation_excess(monkeypatch):
    monkeypatch.setattr(sweep, "CROSS_VALIDATION_TOL", 0.0)
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 4)
    cfg = SweepConfig(
        base=SystemParams(Omega=2.0, G2=3.0),
        delta_grid=DeltaGrid(-5.0, 5.0, 5),
        variants=(Variant("fine", {"G1": 20.0}), Variant("huge", {"G1": 1e200})),
        engine="both",
    )
    outcomes = _outcomes(cfg)
    assert outcomes[0] == outcomes[1] == outcomes[2]
    kind, message = outcomes[0]
    assert kind is NumericError
    assert message.startswith("variant 'huge', delta=-5.0: overflow in closed-form")
    # Alone, the first variant fails cross-validation.
    with pytest.raises(CrossValidationError):
        run_sweep(SweepConfig(base=cfg.base, delta_grid=cfg.delta_grid,
                              variants=cfg.variants[:1], engine="both"))


@pytest.mark.parametrize("block_rows", [1, 6, 50, 1 << 16])
def test_cross_validation_reports_the_worst_point_of_the_sweep(monkeypatch, block_rows):
    monkeypatch.setattr(sweep, "CROSS_VALIDATION_TOL", 0.0)
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
    cfg = preset("fig4")
    cfg = SweepConfig(base=cfg.base, delta_grid=DeltaGrid(-80.0, 80.0, 41),
                      variants=cfg.variants, engine="both")
    outcomes = _outcomes(cfg)
    assert outcomes[0][0] is CrossValidationError
    assert outcomes[0] == outcomes[1] == outcomes[2]
    # numpy.str_ names print as their rows do.
    named = replace(cfg, variants=tuple(Variant(np.str_(v.name), v.overrides)
                                        for v in cfg.variants))
    assert _outcomes(named) == outcomes


def test_a_nan_disagreement_in_an_early_block_stays_the_worst(monkeypatch):
    # Block 1 disagrees by nan at its second point, every later point by 1e-9.
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 4)
    calls = []

    def rel_err_grid(a, b):
        calls.append(None)
        err = np.full(len(a.re), 1e-9)
        if len(calls) <= 2:  # s+ and s- of block 1
            err[1] = np.nan
        return err

    monkeypatch.setattr(sweep, "_rel_err_grid", rel_err_grid)
    with pytest.raises(CrossValidationError) as info:
        run_sweep(_config("both"))
    assert str(info.value) == ("analytic and numeric engines disagree: worst relative error "
                               "nan at variant 'a', delta=-25.0 (tolerance 1e-06)")
    assert len(calls) == 2 * 10


def test_rel_err_grid_is_0_where_both_engines_vanish():
    zero = ComplexGrid.from_numpy(np.array([0j, -0.0 + 0j, 0j]))
    other = ComplexGrid.from_numpy(np.array([0j, 2.0 + 0j, -1j]))
    with np.errstate(all="ignore"):  # as in the sweep
        assert sweep._rel_err_grid(zero, zero).tolist() == [0.0, 0.0, 0.0]
        assert sweep._rel_err_grid(zero, other).tolist() == [0.0, 1.0, 1.0]


@pytest.mark.parametrize("block_rows", [3, 4, 5, 7])
def test_a_whole_variant_fails_at_its_first_delta(monkeypatch, block_rows):
    cfg = SweepConfig(
        base=SystemParams(Omega=1.0, G1=5.0),
        delta_grid=DeltaGrid(-2.0, 2.0, 5),
        variants=(Variant("fine"), Variant("odd", {"gamma2": 2.0}), Variant("late")),
        engine="both",
    )
    one_block = _written(cfg)
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", block_rows)
    # Unequal gammas are no failure: the rows do not depend on the blocks.
    assert _written(cfg) == one_block == emit(scalar_sweep(cfg), "csv")
    # An overflowing |G1|^2 fails its whole variant, which starts mid-block.
    cfg = replace(cfg, variants=cfg.variants[:2] + (Variant("huge", {"G1": 1e200}),)
                  + cfg.variants[2:])
    outcomes = _outcomes(cfg)
    assert outcomes[0] == outcomes[1] == outcomes[2]
    kind, message = outcomes[0]
    assert kind is NumericError
    assert message.startswith("variant 'huge', delta=-2.0: overflow in closed-form")


LATE_FAILURE = """
Omega = 2
G2 = 3
delta_min = -5
delta_max = 5
delta_points = 5
engine = both
variant fine: G1 = 20
variant huge: G1 = 1e200
"""


@pytest.mark.parametrize("late", ["numeric", "cross_validation"])
def test_late_failure_leaves_no_file_and_writes_no_stdout(tmp_path, monkeypatch, capsys, late):
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", 2)
    text = LATE_FAILURE
    if late == "cross_validation":
        monkeypatch.setattr(sweep, "CROSS_VALIDATION_TOL", 0.0)
        text = text.replace("G1 = 1e200", "G1 = 50")
    config = tmp_path / "late.cfg"
    config.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    new, old = out_dir / "new.csv", out_dir / "old.csv"
    old.write_bytes(b"old bytes\n")
    expected = ("numeric failure: variant 'huge', delta=-5.0: overflow" if late == "numeric"
                else "numeric failure: analytic and numeric engines disagree")

    for destination in (new, old, None):
        argv = ["sweep", "--config", str(config)]
        if destination is not None:
            argv += ["--out", str(destination)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(expected)
        assert captured.out == ""
    assert sorted(os.listdir(out_dir)) == ["old.csv"]
    assert old.read_bytes() == b"old bytes\n"


# Prints the lines a child writes in a 100,000-point sweep, and its peak
# RSS.  The destination is a path, or with "-" a file-like object that
# keeps only the count.  It reads VmHWM, the child's own peak: on Linux
# ru_maxrss of a spawned process also counts its parent's peak at the
# spawn, which survives exec.
_PEAK_RSS = """
import resource, sys
from morsim import parse_config, write_sweep


class Lines:
    count = 0

    def write(self, data):
        self.count += data.count(b"\\n")
        return len(data)


variants, destination = int(sys.argv[1]), sys.argv[2]
cfg = parse_config("Omega = 5\\nG2 = 10\\ndelta_min = -80\\ndelta_max = 80\\n"
                   "delta_points = 100000\\nengine = both\\n"
                   + "".join(f"variant v{i}: G1 = {10 * i}\\n" for i in range(variants)))
sink = Lines()
write_sweep(cfg, sink if destination == "-" else destination)
try:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(sink.count, peak)
"""


def _lines(path) -> int:
    with open(path, "rb") as stream:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: stream.read(1 << 20), b""))


def _peaks(tmp_path, file_like: bool) -> dict:
    """The child's peak RSS by variant count, 1 and 4."""
    pytest.importorskip("resource")
    source_root = os.path.dirname(os.path.dirname(morsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path]),
           "TMPDIR": str(tmp_path)}
    peaks = {}
    for variants in (1, 4):
        out = tmp_path / f"sweep{variants}.csv"
        result = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, str(variants), "-" if file_like else str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False, timeout=300)
        assert result.returncode == 0, result.stderr.decode()
        lines, peaks[variants] = map(int, result.stdout.split())
        if not file_like:
            lines = _lines(out)
            out.unlink()
        assert lines == 1 + 2 * 100_000 * variants
    return peaks


def test_peak_memory_does_not_grow_with_the_variant_count(tmp_path):
    peaks = _peaks(tmp_path, file_like=False)
    assert peaks[4] <= 1.1 * peaks[1], peaks


def test_file_like_destination_memory_does_not_grow_with_the_variant_count(tmp_path):
    # The sweep is spooled to a temporary file, not joined in memory.
    peaks = _peaks(tmp_path, file_like=True)
    assert peaks[4] <= 1.1 * peaks[1], peaks
