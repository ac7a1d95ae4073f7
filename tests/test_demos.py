"""Each demo script, and the README's library quick start, runs to completion
against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfwm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_script(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    """Run a script in ``cwd`` with the package's directory on PYTHONPATH."""
    env = dict(os.environ)
    package_root = str(Path(sfwm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "name",
    ["biphoton_wavepacket", "coupling_power_sweep", "eit_spectra", "synthetic_coincidences"],
)
def test_demo_runs(tmp_path, name):
    done = run_script(DEMOS / f"{name}.py", tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    """The python block under "Library quick start".  Packets and spectra
    are read-only, so a block that wrote into one would fail here."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    script = tmp_path / "quick_start.py"
    script.write_text(section.split("```python\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    done = run_script(script, tmp_path)
    assert done.returncode == 0, done.stderr
