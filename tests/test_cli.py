import errno
import json
import os
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import pytest

import morsim
from morsim.cli import main

# The config limit as README documents it, not as the code spells it.
CONFIG_LIMIT = 1048576

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


def test_unequal_gammas_are_cross_validated(tmp_path):
    # The closed form holds for any lower rates, so --engine both runs.
    cfg = tmp_path / "unequal.cfg"
    cfg.write_text("gamma1 = 1\ngamma2 = 0.55\nengine = numeric\n" + GOOD_CONFIG,
                   encoding="utf-8")
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", str(cfg), "--engine", "both",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))
    assert len(rows) == 2 * 11
    assert {row["engine"] for row in rows} == {"analytic", "numeric"}


def test_missing_config_file_is_validation_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 1


def test_config_larger_than_the_bound_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    padding = CONFIG_LIMIT - len(GOOD_CONFIG.encode())
    cfg.write_text("#" * (padding - 1) + "\n" + GOOD_CONFIG, encoding="utf-8")
    assert cfg.stat().st_size == CONFIG_LIMIT
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 0
    capsys.readouterr()
    cfg.write_text("#" * padding + "\n" + GOOD_CONFIG, encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: config {cfg} is larger than {CONFIG_LIMIT} bytes\n"
    assert captured.out == ""


# Reads the config under an address-space limit of 256 MiB above the
# interpreter's, so reading without a bound fails here instead of taking
# the machine's memory.
_BOUNDED_READ = """
import resource, sys
from morsim.cli import main
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = size * 1024 + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(["sweep", "--config", sys.argv[1]]))
"""


@pytest.mark.skipif(not (os.path.exists("/dev/zero") and os.path.exists("/proc/self/status")),
                    reason="no /dev/zero or /proc")
def test_endless_config_is_validation_error_in_bounded_memory():
    pytest.importorskip("resource")
    source_root = os.path.dirname(os.path.dirname(morsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
    result = subprocess.run([sys.executable, "-c", _BOUNDED_READ, "/dev/zero"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            check=False, timeout=60)
    err = result.stderr.decode()
    assert result.returncode == 1, err
    assert err == f"error: config /dev/zero is larger than {CONFIG_LIMIT} bytes\n"
    assert result.stdout == b""


def test_config_that_is_not_utf8_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"Omega = 5\n\xff = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert str(cfg) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("first_line", ["engine = numeric", "# my sweep"],
                         ids=["key", "comment"])
def test_config_with_a_byte_order_mark_writes_the_same_bytes(tmp_path, first_line):
    text = f"{first_line}\ndelta_min = -1\ndelta_max = 1\ndelta_points = 3\n"
    written = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(prefix + text.encode("utf-8"))
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_byte_order_mark_counts_in_the_offset_of_a_bad_byte(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfOmega = 5\n\xff = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert err.endswith("at byte 13\n")


def test_bad_config_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dopler = 1\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "dopler" in capsys.readouterr().err


def test_sweep_merges_and_checks_each_variant_once(tmp_path, monkeypatch):
    calls = []
    validate = morsim.sweep.validate_params
    monkeypatch.setattr(morsim.sweep, "validate_params", lambda p: calls.append(p) or validate(p))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD_CONFIG + "variant detuned: Delta = -20\n", encoding="utf-8")
    out = tmp_path / "rows.json"
    code = main(["sweep", "--config", str(cfg), "--engine", "numeric",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    assert [p.Delta for p in calls] == [5.0, -20.0]
    assert len(json.loads(out.read_text(encoding="utf-8"))) == 2 * 11


@pytest.mark.parametrize("line, option", [
    ("engine = warp", ["--engine", "both"]), ("format = xml", ["--format", "csv"]),
])
def test_bad_config_value_fails_even_when_an_option_replaces_it(tmp_path, capsys, line, option):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD_CONFIG + line + "\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), *option, "--out", str(tmp_path / "o")]) == 1
    assert line.split()[0] + " must be one of" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_directory_destination_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    # Evaluated, this sweep would fail with exit 2; the destination is refused first.
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(
        "gamma1 = 1e-7\ngamma2 = 1e-7\nGamma1 = 5e-10\nGamma2 = 5e-10\n"
        "delta_min = -1e-9\ndelta_max = 1e-9\ndelta_points = 2\n"
        "engine = analytic\n",
        encoding="utf-8",
    )
    refused = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: {refused}: '{tmp_path}'\n"
    # An empty output path is refused as such, from the config with its line.
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--out", ""]) == 1
    assert capsys.readouterr().err == "error: output path is empty\n"
    with cfg.open("a", encoding="utf-8") as stream:
        stream.write("output =\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: line 9: output path is empty\n"
    assert sorted(os.listdir(tmp_path)) == ["degenerate.cfg"]
    assert not [name for name in os.listdir(tmp_path.parent) if name.endswith(".tmp")]
    # A preset's path is refused the same way, before the preset is evaluated.
    taken = tmp_path / "fig2.csv"
    taken.mkdir()
    assert main(["figure", "fig2", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {taken}: {refused}: '{taken}'\n"


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


NAN_RESIDUAL = """
gamma1 = 1e-300
gamma2 = 1e-300
G1 = 1e100
G2 = 1e100
delta_min = -1
delta_max = 1
delta_points = 3
engine = numeric
"""

# Im s+ of about -1.3e-132 from round-off, times alpha_l = 6.3e303: the
# phase factor overflows, so t_y is inf.
ROUND_OFF_GAIN = """
gamma1 = 3.376689848517434e+135
gamma2 = 2.4146827611492772e-186
Gamma1 = 3.833319013012058e+36
Gamma2 = 2.719443263522792e-133
Omega = 1.2733836507463303e+45
Delta = 1.9108633072754406e-172
G1 = 1.007304769086807e+109+1.1655747166230988e-90j
G2 = 9.334529818899107e-265
alpha_l = 6.329106568668493e+303
delta_min = -1.028406174307043e+41
delta_max = 1.028406174307043e+41
delta_points = 5
engine = numeric
"""


@pytest.mark.parametrize("config, message", [
    (NAN_RESIDUAL, "numeric failure: variant 'base', delta=0.0: first-order solve residual nan"),
    (ROUND_OFF_GAIN, "numeric failure: variant 'base', delta=-1.028406174307043e+41: "
                     "nonfinite numeric value t_y=inf"),
], ids=["nan_residual", "round_off_gain"])
def test_nonfinite_sweep_is_numeric_failure(tmp_path, config, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config, encoding="utf-8")
    source_root = os.path.dirname(os.path.dirname(morsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
    result = subprocess.run([sys.executable, "-m", "morsim.cli", "sweep", "--config", str(cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            check=False, timeout=60)
    err = result.stderr.decode()
    assert result.returncode == 2, err
    assert err.startswith(message)
    assert "RuntimeWarning" not in err
    assert "Traceback" not in err
    assert result.stdout == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_sweep_to_full_stdout_is_write_error(tmp_path, unbuffered):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD_CONFIG, encoding="utf-8")
    source_root = os.path.dirname(os.path.dirname(morsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([source_root, *sys.path])}
    # Buffered, the bytes that did not fit would be flushed again at exit.
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "morsim.cli", "sweep", "--config", str(cfg)],
            stdout=full, stderr=subprocess.PIPE, env=env, check=False, timeout=60)
    err = result.stderr.decode()
    assert result.returncode == 1, err
    assert err.startswith("error: cannot write <stdout>: [Errno 28] ")
    assert err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_closed_stdout_pipe_leaves_no_descriptor_open(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(GOOD_CONFIG, encoding="utf-8")
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["sweep", "--config", str(cfg)]) == 1
            monkeypatch.undo()
        assert f"[Errno {errno.EPIPE}] " in capsys.readouterr().err
    assert len(os.listdir("/proc/self/fd")) == before


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


def test_figure_out_naming_a_file_is_validation_error(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_bytes(b"keep")
    assert main(["figure", "fig2", "--out", str(existing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {existing}: ")
    assert "Traceback" not in err
    assert existing.read_bytes() == b"keep"


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
