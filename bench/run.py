"""Benchmark of the sfwm toolkit: four workloads, end to end and per layer.

    python3 bench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src`` directory, never from an installed copy.  Every pass of a
workload runs in a fresh worker process (``worker.py``), so nothing kept in
memory carries over between passes.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics (medians over
the passes); with ``--trace 1`` untraced and traced passes alternate and the
metrics are the per-layer ones.  The line before it records the machine.
See README.md for the workloads, the metrics and what each layer predicts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CHECKS, load_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Passes per run at least; timetags needs two to compare reruns byte for byte.
MIN_PASSES = {"sweep": 1, "eit_calibration": 1, "roundtrip": 1, "timetags": 2}
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
REFERENCE_SEED = 0

# Layers and measures reported by a traced run, as named in README.md.
LAYER_MEASURES = (
    ("biphoton.averaged_susceptibilities", ("self_s", "calls", "points")),
    ("biphoton.spectral_amplitude", ("calls", "retries")),
    ("biphoton.wavepacket", ("self_s", "terms")),
    ("biphoton.apply_etalons", ("self_s",)),
    ("analysis.sweep_predict", ("self_s",)),
    ("physics.eit_transmission", ("self_s", "calls", "points")),
    ("analysis.fit_eit", ("self_s", "calls", "failed", "model_evals")),
    ("analysis.fit_exponential", ("self_s", "calls", "failed")),
    ("detector.synth_histogram", ("self_s", "calls")),
    ("detector.generate_timetags", ("self_s", "events")),
    ("detector.write_timetags", ("self_s", "bytes")),
    ("detector.read_timetags", ("self_s", "bytes")),
    ("detector.build_histogram", ("self_s", "pairings")),
    ("config.load_config", ("self_s",)),
    ("cli.main", ("self_s",)),
)
_TRACE_KEY = {"retries": "raised.GridTooNarrowError", "failed": "raised"}
_UNIT = {"self_s": "s", "bytes": "bytes"}
# Per-layer metric name -> (layer, key in the tracer's counts, unit).
PER_LAYER = {
    f"{layer}.{measure}": (layer, _TRACE_KEY.get(measure, measure), _UNIT.get(measure, "count"))
    for layer, measures in LAYER_MEASURES
    for measure in measures
}


class BenchError(Exception):
    """The benchmark itself could not run (no program, worker crashed)."""


def spawn(args, work: Path, role: str, traced: bool, index: int, deadline: float):
    """Run one worker; return (its report, setup seconds, peak RSS in MB)."""
    result = work / f"result-{index}.json"
    log = work / f"worker-{index}.log"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--role", role, "--trace", str(int(traced)), "--work", str(work), "--result", str(result),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    pid = 0
    try:
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            time.sleep(0.02)
    finally:
        if not pid:  # past the deadline, or the run itself is being stopped
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
    if not pid:
        raise BenchError(f"{role} worker ran past the run deadline")
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-3000:]
        raise BenchError(f"{role} worker exited {proc.returncode}:\n{tail}")
    report = json.loads(result.read_text())
    if not Path(report["sfwm_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported {report['sfwm_file']}, not the checkout's sfwm")
    return report, report["first_op"] - spawned, usage.ru_maxrss / 1024.0


@contextlib.contextmanager
def workdir(label: str):
    """Scratch directory inside the checkout, removed with everything in it."""
    work = ROOT / ".bench_work" / f"{label}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sfwm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def median(values) -> float:
    return float(statistics.median(values))


def measure(args, work: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    check = CHECKS[args.workload]
    ctx = {
        "reference": load_reference(args.size, args.seed),
        "default_counts": args.size == "full" and args.seed == REFERENCE_SEED,
    }
    index = 0
    if args.workload == "timetags":
        report, _, _ = spawn(args, work, "model", False, index, deadline)
        ctx["model_tau_ns"] = report["model_tau_ns"]
        index += 1

    passes = {False: [], True: []}  # traced -> [(report, setup_s, rss_mb)]
    attempted = failed = 0
    stop = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes[True]) < len(passes[False])
        sample = spawn(args, work, "pass", traced, index, deadline)
        index += 1
        passes[traced].append(sample)
        a, f, problems = check(sample[0], ctx)
        attempted += a
        failed += f
        print(
            f"pass {index - 1}{' traced' if traced else ''}: wall {sample[0]['wall_s']:.4f} s, "
            f"cpu {sample[0]['cpu_s']:.4f} s, setup {sample[1]:.4f} s, rss {sample[2]:.1f} MB, "
            f"{a - f}/{a} operations passed",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        enough = len(passes[False]) + len(passes[True]) >= MIN_PASSES[args.workload]
        if args.trace:
            enough = enough and len(passes[True]) == len(passes[False])
        if enough and time.monotonic() >= stop:
            break

    setups = [setup for _, setup, _ in passes[False]]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, work, "setup", False, index, deadline)[1])
        index += 1

    untraced = [report for report, _, _ in passes[False]]
    if args.trace:
        traced_reports = [report for report, _, _ in passes[True]]
        metrics = {}
        for name, (layer, key, unit) in PER_LAYER.items():
            values = [r["trace"]["layers"].get(layer, {}).get(key, 0) for r in traced_reports]
            metrics[name] = (median(values), unit)
        traced_wall = median(r["wall_s"] for r in traced_reports)
        untraced_wall = median(r["wall_s"] for r in untraced)
        metrics.update({
            "trace.wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.self_sum_s": (median(r["trace"]["self_sum_s"] for r in traced_reports), "s"),
            "trace.spans": (median(r["trace"]["spans"] for r in traced_reports), "count"),
        })
    else:
        metrics = {
            "wall_s": (median(r["wall_s"] for r in untraced), "s"),
            "cpu_s": (median(r["cpu_s"] for r in untraced), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median(rss for _, _, rss in passes[False]), "MB"),
        }
    machine = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **untraced[0]["machine"],
        **source_facts(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": len(untraced) + len(passes[True]),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return machine, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "sfwm" / "__init__.py").is_file():
        print(f"bench: no sfwm sources under {SRC}", file=sys.stderr)
        return 2
    # Stopping the run stops its worker too (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        with workdir(args.workload) as work:
            machine, result = measure(args, work)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
