"""Every name in the package's and its modules' export lists resolves; the
package itself loads nothing, and README's library example runs."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import hrrkit

MODULES = ["hrrkit"] + sorted(f"hrrkit.{mod.name}" for mod in pkgutil.iter_modules(hrrkit.__path__))
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_importing_core_loads_no_other_hrrkit_module():
    code = "import sys, hrrkit.core; print(sorted(m for m in sys.modules if m.startswith('hrrkit')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(hrrkit.__path__[0]).parent)},
    ).stdout
    assert out == "['hrrkit', 'hrrkit.core']\n"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library in five lines", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.strip().splitlines()
    assert len(lines) == 5
    namespace = {}
    exec(compile("\n".join(lines[:-1]), str(README), "exec"), namespace)
    assert eval(lines[-1], namespace) == pytest.approx(1.0, abs=1e-6)
