"""Smoke test of the benchmark at tiny size.

    python3 -m pytest bench/test_bench.py

Runs every workload once with tracing off and once with it on, checks that
every metric of BENCHMARK.json is printed with its unit and every operation
passes, and checks that the output checks can fail.
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[-2].startswith("machine ")
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_printed_and_every_operation_passes(capsys, workload, trace):
    result = invoke(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_perturbed_reference_fails_the_sweep_check(capsys, monkeypatch):
    reference = checks.load_reference("tiny", 0)
    assert reference is not None, "the tiny sweep must have a recorded reference"
    perturbed = json.loads(json.dumps(reference))
    perturbed["rows"][2][1] *= 1.0 + 1e-5
    monkeypatch.setattr(run, "load_reference", lambda size, seed: perturbed)
    result = invoke(capsys, "sweep", 0)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_trace_self_check_catches_a_missed_binding():
    # What a tracer that patched only sfwm.biphoton would see: the sweep's
    # calls through names imported into sfwm.analysis go uncounted.
    layers = {"physics.eit_transmission": {"calls": 8}}
    assert checks.sweep_count_problems(layers, 8, default=True)
    complete = {name: dict(counts) for name, counts in checks.DEFAULT_SWEEP_COUNTS.items()}
    complete["biphoton.spectral_amplitude"]["raised"] = 2
    assert checks.sweep_count_problems(complete, 8, default=True) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
