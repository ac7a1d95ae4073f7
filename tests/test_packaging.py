"""The package runs on numpy and the standard library; scipy is a test oracle only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytest_plugins = ["pytester"]


def test_import_loads_no_scipy():
    code = (
        "import sys, sfwm, sfwm.cli, sfwm.config\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_scipy_is_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_failing_hypothesis_test_fails_alone(pytester):
    """Under the project's warning filters a failing @given test is one
    failure, and the session still runs the test after it."""
    tomllib = pytest.importorskip("tomllib")
    ini = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]["ini_options"]
    pytester.makeini(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in ini["filterwarnings"])
    )
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(n):
            assert n != n

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=1, passed=1)
