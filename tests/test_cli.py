import json
import sys
import warnings
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

from morsim.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

GOOD_CONFIG = """
Omega = 5
G1 = 20
delta_min = -5
delta_max = 5
delta_points = 11
variant resonant: Delta = 5
"""


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD_CONFIG, encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("variant,delta,")
    assert len(lines) == 1 + 2 * 11  # engine defaults to both
    assert "rows.csv" in capsys.readouterr().out


def test_sweep_engine_and_format_overrides(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD_CONFIG, encoding="utf-8")
    out = tmp_path / "rows.json"
    code = main(["sweep", "--config", str(cfg), "--engine", "analytic",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload) == 11
    assert {row["engine"] for row in payload} == {"analytic"}


def test_sweep_stdout_when_no_output_path(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("delta_points = 3\ndelta_min = -1\ndelta_max = 1\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("variant,delta,")


def test_missing_config_file_is_validation_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_bad_config_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dopler = 1\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "dopler" in capsys.readouterr().err


def test_degenerate_parameters_are_numeric_failure(tmp_path, capsys):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(
        "gamma1 = 1e-7\ngamma2 = 1e-7\nGamma1 = 5e-10\nGamma2 = 5e-10\n"
        "delta_min = -1e-9\ndelta_max = 1e-9\ndelta_points = 2\n"
        "engine = analytic\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "denominator" in capsys.readouterr().err


def test_closed_form_overflow_is_numeric_failure(tmp_path, capsys):
    # |G1|^2 exceeds the float range; this used to end in a raw OverflowError.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "G1 = 1e200\ndelta_min = -1\ndelta_max = 1\ndelta_points = 3\n"
        "engine = analytic\n",
        encoding="utf-8",
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: variant 'base', delta=-1.0: overflow")
    assert "Traceback" not in err


def test_overflowing_grid_span_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "span.cfg"
    cfg.write_text("delta_min = -1e308\ndelta_max = 1e308\ndelta_points = 3\n",
                   encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "delta grid span overflows" in err
    assert "RuntimeWarning" not in err


def test_figure_writes_named_csv(tmp_path):
    out_dir = tmp_path / "figures"
    assert main(["figure", "fig3", "--out", str(out_dir)]) == 0
    target = out_dir / "fig3.csv"
    lines = target.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 5 * 1601


def test_figure_output_is_reproducible(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["figure", "fig4", "--out", str(first)]) == 0
    assert main(["figure", "fig4", "--out", str(second)]) == 0
    assert (first / "fig4.csv").read_bytes() == (second / "fig4.csv").read_bytes()


def test_unknown_figure_name_is_usage_error():
    assert main(["figure", "fig9"]) == 1


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


def _declared_console_script():
    """The ``morsim`` target in the repository's ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    return scripts.get("morsim")


def _installed(name):
    try:
        distribution(name)
    except PackageNotFoundError:
        return False
    return True


def test_console_entry_point_matches_module_main():
    value = _declared_console_script()
    assert value == "morsim.cli:main"
    # The same lookup the generated console script makes.
    ep = EntryPoint(name="morsim", value=value, group="console_scripts")
    assert ep.load() is main


@pytest.mark.skipif(not _installed("morsim"), reason="no morsim distribution installed")
def test_installed_console_script_matches_pyproject():
    installed = [
        ep.value
        for ep in distribution("morsim").entry_points
        if ep.group == "console_scripts" and ep.name == "morsim"
    ]
    assert installed == [_declared_console_script()], "stale or broken install"
