import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import morsim

MODULES = sorted(f"morsim.{info.name}" for info in pkgutil.iter_modules(morsim.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module_name", ["morsim", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # Each block runs as written, so a changed signature cannot leave the README stale.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
