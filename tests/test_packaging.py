"""The package runs on numpy and the standard library; scipy is a test oracle only."""

import ast
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


def test_runtime_dependencies_are_numpy_2():
    """numpy 2.0 brought np.trapezoid and numpy.fft's out=, which the
    package calls; numpy is the only runtime dependency."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]


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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(package: Path) -> list[str]:
    """``module.owner.name`` of each function parameter with a default,
    positional or keyword-only, and each dataclass field with a default."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found += [f"{path.stem}.{node.name}.{a.arg}" for a in named]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [
                    f"{path.stem}.{node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                ]
    return found


def test_settable_values():
    """The run values a caller can leave out.  The config holds the one
    default of each run value, so a new knob here is a deliberate change:
    update the count in the same diff."""
    found = settable_values(ROOT / "src" / "sfwm")
    assert len(found) == 31, "\n".join(found)
