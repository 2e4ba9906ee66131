import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import morsim

MODULES = sorted(f"morsim.{info.name}" for info in pkgutil.iter_modules(morsim.__path__))
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
IMPORT_GRAPH = Path(__file__).with_name("import_graph.py")


@pytest.mark.parametrize("module_name", ["morsim", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


def _readme_blocks(language):
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    return blocks


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # Each block runs as written, so a changed signature cannot leave the README stale.
    blocks = _readme_blocks("python")
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_config_blocks_parse():
    # Each config block parses as written, comments and all.
    for block in _readme_blocks("cfg"):
        morsim.sweep.parse_config(block)


@pytest.mark.parametrize("first", ["emit", "sweep.parse_config"])
def test_solving_points_does_not_load_the_sweep_layer(first, tmp_path):
    # A fresh interpreter, since this one has loaded everything; `first` is the
    # first read of the sweep layer, through a public name or the submodule's.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", IMPORT_GRAPH.read_text(encoding="utf-8"), first],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert Path(run.stdout.splitlines()[-1]).parent == ROOT / "src" / "morsim"
