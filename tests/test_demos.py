"""Each demo script runs to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfwm

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    ["biphoton_wavepacket", "coupling_power_sweep", "eit_spectra", "synthetic_coincidences"],
)
def test_demo_runs(tmp_path, name):
    env = dict(os.environ)
    package_root = str(Path(sfwm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
