"""One pass of one workload, in a fresh process.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
imports sfwm, generates the workload's inputs from the seed, and then times
one pass: wall time from the first timed operation to the end of the pass,
and process CPU time (all threads) over the same interval.  The result, with
the outputs the checks need, goes to the JSON file named by ``--result``.
Checks that compare outputs run in ``run.py`` after the worker has exited,
so their memory does not count towards the worker's peak RSS.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

import sfwm
import sfwm.cli
import sfwm.config
from checks import read_csv
from tracing import Tracer

# Default coupling-power list of `sfwm sweep`; the tiny size keeps criterion
# 5's shape (an interior brightness maximum) with four powers.
SWEEP_POWERS = {"full": None, "tiny": "0.02,0.5,1,5"}

# Coupling powers at which a 161-point spectrum over +-1.5 Gamma with noise
# sigma = 0.005 determines the decoherence rate best (1.5% single-fit scatter);
# at 1 mW and below, single fits missed it by 6% to over 200% in a probe.
EIT_POWERS = {"full": (2.0, 2.25, 2.5, 2.75), "tiny": (2.0, 2.25, 2.5)}
EIT_NOISE = 0.005

# Criterion 7's exponential round-trip scenarios: (tau_ns, peak SBR,
# accumulation_s, coupling power mW).
ROUNDTRIP_SCENARIOS = ((260.0, 42.0, 1200.0, 1.0), (560.0, 5.4, 2400.0, 0.05))
ROUNDTRIP_SEEDS = {"full": 100, "tiny": 20}

TIMETAG_ACCUMULATION_S = {"full": 1200.0, "tiny": 60.0}
WINDOW_NS = 4000.0
FIT_ONSET_NS = 200.0


def medium_section(rng):
    """[medium] with OD and decoherence drawn from the acceptance tests' range."""
    od = rng.uniform(80.0, 82.0)
    gamma = rng.uniform(0.024, 0.028)
    return f"[medium]\nod_stokes = {od!r}\ndecoherence_mhz = {gamma * 6.0!r}\n", gamma


def small_grid(size: str) -> str:
    """Smaller spectral grid and coarser Doppler quadrature at tiny size."""
    return "[grid]\ncount = 8192\n[quadrature]\nstep_mhz = 1.5\n" if size == "tiny" else ""


def gen_sweep(seed, size, work):
    medium, gamma = medium_section(np.random.default_rng(seed))
    cfg = work / "sweep.ini"
    cfg.write_text(medium + small_grid(size))
    argv = ["sweep", "--config", str(cfg), "--out", str(work / "sweep.csv")]
    if SWEEP_POWERS[size]:
        argv += ["--powers-mw", SWEEP_POWERS[size]]
    return {"config": str(cfg), "argv": argv, "gamma": gamma}


def gen_eit(seed, size, work):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(80.0, 82.0)
    gamma = rng.uniform(0.024, 0.028)
    medium = sfwm.MediumParams(alpha_s=alpha, gamma=gamma)
    grid = np.linspace(-1.5, 1.5, 161)
    cases = []
    for p_mw in EIT_POWERS[size]:
        omega_c = sfwm.omega_c_from_power(p_mw)
        clean = sfwm.eit_spectrum(grid, medium, sfwm.DriveParams(omega_c=omega_c))
        noisy = clean.transmission + rng.normal(0.0, EIT_NOISE, grid.size)
        cases.append({
            "p_mw": p_mw,
            "truth": [alpha, omega_c, gamma],
            "spectrum": sfwm.Spectrum(grid, noisy),
            # Offset guesses as in criterion 7: OD 70, 0.85 Omega_c, 1.25 gamma.
            "m0": sfwm.MediumParams(alpha_s=70.0, gamma=1.25 * gamma),
            "d0": sfwm.DriveParams(omega_c=0.85 * omega_c),
        })
    return {"cases": cases, "gamma": gamma}


def gen_roundtrip(seed, size, work):
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, WINDOW_NS, 25.6)
    scenarios = []
    for tau, peak_sbr, accumulation_s, p_mw in ROUNDTRIP_SCENARIOS:
        g2 = np.where(t >= FIT_ONSET_NS, np.exp(-(t - FIT_ONSET_NS) / tau), 0.0)
        scenarios.append({
            "tau": tau, "sbr": peak_sbr, "accumulation_s": accumulation_s, "p_mw": p_mw,
            "shape": sfwm.WavePacket(t, g2, 25.6),
            "seeds": [int(s) for s in rng.integers(0, 2**31, ROUNDTRIP_SEEDS[size])],
        })
    return {"scenarios": scenarios}


def gen_timetags(seed, size, work):
    medium, _ = medium_section(np.random.default_rng(seed))
    cfg = work / "timetags.ini"
    cfg.write_text(
        medium
        + "[drive]\ncoupling_rabi_mhz = 15.6\ncoupling_power_mw = 1.0\n"
        + small_grid(size)
        + "[detection]\nsuccess_probability = 0.0088\n"
        + f"accumulation_s = {TIMETAG_ACCUMULATION_S[size]!r}\n"
        + f"[run]\nseed = {seed}\n"
    )
    return {
        "config": str(cfg),
        "argv": ["synth", "--config", str(cfg), "--out", str(work / "counts.csv"),
                 "--tau-max-ns", repr(WINDOW_NS), "--timetags", str(work / "tags.txt")],
        "tags": str(work / "tags.txt"),
        "accumulation_s": TIMETAG_ACCUMULATION_S[size],
    }


def attempt(out, label, fn, *args, **kwargs):
    """Run one operation; one that raises is recorded and counts as failed."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        out.setdefault("errors", []).append(f"{label}: {exc!r}")
        return None


def run_sweep(inp, out):
    out.update(csv=inp["argv"][4], gamma=inp["gamma"])
    out["exit_code"] = attempt(out, "sfwm sweep", sfwm.cli.main, inp["argv"])


def run_eit(inp, out):
    fits = []
    out.update(cases=len(inp["cases"]), gamma=inp["gamma"], fits=[])
    for case in inp["cases"]:
        fit = attempt(out, f"fit_eit at {case['p_mw']} mW",
                      sfwm.fit_eit, case["spectrum"], case["m0"], case["d0"])
        if fit is not None:
            fits.append((case["p_mw"], fit))
            out["fits"].append({"p_mw": case["p_mw"], "truth": case["truth"],
                                "fit": [fit.alpha_s, fit.omega_c, fit.gamma]})
    out["low_power_gamma"] = attempt(out, "average_low_power_gamma",
                                     sfwm.average_low_power_gamma, fits)


def roundtrip_fit(sc, seed):
    dm = sfwm.DetectionModel(accumulation_s=sc["accumulation_s"], seed=seed)
    hist = sfwm.synth_histogram(sc["shape"], dm, sc["p_mw"], peak_sbr=sc["sbr"])
    return sfwm.fit_exponential(hist.to_wavepacket())


def run_roundtrip(inp, out):
    """Criterion 7's coverage: tau and SBR within 3 sigma of the truth."""
    out["scenarios"] = []
    for sc in inp["scenarios"]:
        hits = errors = 0
        for seed in sc["seeds"]:
            fit = attempt(out, f"round trip seed {seed}", roundtrip_fit, sc, seed)
            if fit is None:
                errors += 1
                continue
            ratio = sfwm.sbr(fit)
            sigma_ratio = ratio * np.hypot(
                fit.amplitude_err / fit.amplitude, fit.baseline_err / fit.baseline
            )
            if (
                abs(fit.tau_ns - sc["tau"]) <= 3.0 * fit.tau_err
                and abs(ratio - sc["sbr"]) <= 3.0 * sigma_ratio
            ):
                hits += 1
        out["scenarios"].append({"tau": sc["tau"], "seeds": len(sc["seeds"]),
                                 "hits": hits, "errors": errors})


def run_timetags(inp, out):
    """Four operations in sequence: synth, read, histogram, fit."""
    out.update(tags=inp["tags"], stages=0)
    out["exit_code"] = attempt(out, "sfwm synth", sfwm.cli.main, inp["argv"])
    if out["exit_code"] != 0:
        return
    out["stages"] = 1
    read = attempt(out, "read_timetags", sfwm.read_timetags, inp["tags"])
    if read is None:
        return
    out.update(stages=2, read=read)
    hist = attempt(out, "build_histogram", sfwm.build_histogram,
                   *read, WINDOW_NS, 25.6, inp["accumulation_s"])
    if hist is None:
        return
    out["stages"] = 3
    fit = attempt(out, "fit_exponential", sfwm.fit_exponential,
                  hist.to_wavepacket(), x0_ns=FIT_ONSET_NS)
    if fit is not None:
        out.update(stages=4, tau_ns=fit.tau_ns)


def model_tau(inp, out):
    """Decay constant of the noiseless model packet the time tags sample."""
    packet_csv = str(Path(inp["tags"]).with_name("packet.csv"))
    code = sfwm.cli.main(["simulate-biphoton", "--config", inp["config"],
                          "--tau-max-ns", repr(WINDOW_NS), "--out", packet_csv])
    if code != 0:
        raise RuntimeError(f"sfwm simulate-biphoton exited {code}")
    _, data = read_csv(packet_csv)
    packet = sfwm.WavePacket(data[:, 0], data[:, 1], float(data[1, 0] - data[0, 0]))
    out["model_tau_ns"] = sfwm.fit_exponential(packet, x0_ns=FIT_ONSET_NS).tau_ns


WORKLOADS = {
    "sweep": (gen_sweep, run_sweep),
    "eit_calibration": (gen_eit, run_eit),
    "roundtrip": (gen_roundtrip, run_roundtrip),
    "timetags": (gen_timetags, run_timetags),
}


def ps_digest(triggers_ns, partners_ns) -> str:
    """Digest of both streams as integer picoseconds, as written to the file."""
    h = hashlib.sha256()
    for stream in (triggers_ns, partners_ns):
        h.update(np.rint(np.asarray(stream) * 1e3).astype(np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def blas_threads():
    """Thread count of the BLAS numpy loaded, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sfwm": sfwm.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--role", default="pass", choices=("pass", "setup", "model"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    work = Path(args.work)
    generate, run = WORKLOADS[args.workload]
    inputs = generate(args.seed, args.size, work)
    if "config" in inputs:
        sfwm.config.load_config(inputs["config"])
    out = {"sfwm_file": sfwm.__file__}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sfwm)
    if args.role == "model":
        run = model_tau

    first = time.monotonic()
    cpu0 = time.process_time()
    if args.role != "setup":
        run(inputs, out)
    wall = time.monotonic() - first
    cpu = time.process_time() - cpu0

    read = out.pop("read", None)
    if read is not None:
        out["read_digest"] = ps_digest(*read)
    out.update(first_op=first, wall_s=wall, cpu_s=cpu, machine=machine_facts())
    if tracer is not None:
        out["trace"] = tracer.summary()
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
