"""Output checks of each workload, and the operations they count.

A workload pass is a list of operations; an operation fails if it raises,
exits nonzero, or fails its check.  Each ``check_*`` function takes what a
worker reported for one pass and returns (attempted, failed, problems).
Only numpy is used here, so the checks do not depend on the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_RTOL = 1e-6
EIT_RTOL = 0.05
COVERAGE = 0.95
TAU_RTOL = 0.15
NS_PER_GAMMA_INVERSE = 1e9 / (2.0 * math.pi * 6.0e6)  # 1/Gamma in ns

# Layer call counts of one `sfwm sweep` pass with the default eight powers:
# two of the ten amplitude evaluations hit GridTooNarrowError and are retried
# on a wider grid.
DEFAULT_SWEEP_COUNTS = {
    "biphoton.spectral_amplitude": {"calls": 10, "raised.GridTooNarrowError": 2},
    "biphoton.wavepacket": {"calls": 8},
    "physics.eit_transmission": {"calls": 8},
    "analysis.fit_exponential": {"calls": 8},
}


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and rows of an sfwm CSV file (``#`` metadata lines skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def load_reference(size: str, seed: int, path=REFERENCE_FILE):
    """Sweep columns recorded for this size and seed, or None."""
    table = json.loads(Path(path).read_text())
    return table.get(f"sweep/{size}/{seed}")


def _ranks(x):
    return np.argsort(np.argsort(x)).astype(float)


def sweep_shape_problems(header, rows, gamma) -> list[str]:
    """Acceptance criteria 3 and 5 on a sweep CSV."""
    col = {name: rows[:, i] for i, name in enumerate(header)}
    powers, tau = col["power_mw"], col["tau_ns"]
    problems = []
    target = NS_PER_GAMMA_INVERSE / (2.0 * gamma)
    if abs(tau[0] / target - 1.0) > 0.15:
        problems.append(f"tau at {powers[0]} mW is {tau[0]:.1f} ns, not within 15% of {target:.1f}")
    if not np.all(np.diff(tau) < 0.0):
        problems.append("tau does not decrease with power")
    imax = int(np.argmax(col["brightness_pairs_per_s_mw_mhz"]))
    if not (0 < imax < powers.size - 1 and powers[imax] in (0.5, 1.0, 2.0)):
        problems.append(f"brightness peaks at {powers[imax]} mW")
    # Spearman rank correlation; no ties occur in these columns.
    rho = float(np.corrcoef(_ranks(tau), _ranks(1.0 / col["eit_fwhm_hz"]))[0, 1])
    if rho < 0.95:
        problems.append(f"rank correlation of tau and 1/EIT width is {rho:.3f}")
    return problems


def reference_problems(header, rows, reference) -> list[str]:
    if header != reference["header"]:
        return [f"header {header} differs from the reference {reference['header']}"]
    ref = np.asarray(reference["rows"], dtype=float)
    if ref.shape != rows.shape:
        return [f"{rows.shape[0]} rows where the reference has {ref.shape[0]}"]
    rel = np.abs(rows - ref) / np.where(ref == 0.0, 1.0, np.abs(ref))
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    if rel[worst] > REFERENCE_RTOL:
        return [f"{header[worst[1]]} row {worst[0]} is {rel[worst]:.2e} off the reference"]
    return []


def sweep_count_problems(layers, n_powers, default) -> list[str]:
    """Trace self-check: every binding of the layers was wrapped."""
    def count(name, measure):
        return layers.get(name, {}).get(measure, 0)

    problems = []
    for name in ("biphoton.wavepacket", "physics.eit_transmission", "analysis.fit_exponential"):
        if count(name, "calls") != n_powers:
            problems.append(f"{name} traced {count(name, 'calls')} calls for {n_powers} powers")
    amp = "biphoton.spectral_amplitude"
    if count(amp, "calls") - count(amp, "raised") != n_powers:
        problems.append(f"{amp} traced {count(amp, 'calls')} calls, {count(amp, 'raised')} raised")
    if default:
        for name, expected in DEFAULT_SWEEP_COUNTS.items():
            for measure, n in expected.items():
                if count(name, measure) != n:
                    problems.append(f"{name}.{measure} is {count(name, measure)}, expected {n}")
    return problems


def check_sweep(out, ctx):
    if out["exit_code"] != 0:
        return 1, 1, [f"sfwm sweep exited {out['exit_code']}"] + out.get("errors", [])
    header, rows = read_csv(out["csv"])
    problems = sweep_shape_problems(header, rows, out["gamma"])
    if ctx["reference"] is not None:
        problems += reference_problems(header, rows, ctx["reference"])
    if "trace" in out:
        problems += sweep_count_problems(
            out["trace"]["layers"], rows.shape[0], ctx["default_counts"]
        )
    return 1, int(bool(problems)), problems


def check_eit(out, ctx):
    problems = list(out.get("errors", []))
    failed = len(problems)
    names = ("alpha_s", "omega_c")
    for fit in out.get("fits", []):
        # Per-fit gamma scatters by 1.5% at this noise level, so gamma is
        # checked on the calibration's low-power average below.
        bad = [
            f"{n} {got:.5g} vs {want:.5g}"
            for n, got, want in zip(names, fit["fit"], fit["truth"])
            if abs(got / want - 1.0) > EIT_RTOL
        ]
        if bad:
            failed += 1
            problems.append(f"fit at {fit['p_mw']} mW: {', '.join(bad)}")
    gamma = out.get("low_power_gamma")
    if gamma is not None and abs(gamma / out["gamma"] - 1.0) > EIT_RTOL:
        failed += 1
        problems.append(f"low-power gamma {gamma:.5g} vs {out['gamma']:.5g}")
    return out["cases"] + 1, failed, problems


def check_roundtrip(out, ctx):
    attempted = failed = 0
    problems = []
    for sc in out["scenarios"]:
        attempted += sc["seeds"] + 1
        failed += sc["errors"]
        if sc["hits"] < math.ceil(COVERAGE * sc["seeds"]):
            failed += 1
            problems.append(f"coverage {sc['hits']}/{sc['seeds']} at tau {sc['tau']} ns")
    return attempted, failed, problems


def timetag_file_digests(path) -> tuple[str, str]:
    """(sha256 of the file bytes, digest of its streams parsed independently)."""
    raw = Path(path).read_bytes()
    data = np.loadtxt(path, delimiter=",", comments="#", dtype=np.int64, ndmin=2)
    h = hashlib.sha256()
    for sid in (0, 1):
        h.update(np.sort(data[data[:, 0] == sid, 1]).tobytes())
        h.update(b"|")
    return hashlib.sha256(raw).hexdigest(), h.hexdigest()


def check_timetags(out, ctx):
    """Operations: synth, read, histogram, fit; a failed one stops the pass."""
    failed = 4 - out["stages"]
    problems = list(out.get("errors", []))
    if out["stages"] == 0:
        return 4, failed, problems + [f"sfwm synth exited {out['exit_code']}"]
    file_digest, stream_digest = timetag_file_digests(out["tags"])
    if file_digest != ctx.setdefault("file_digest", file_digest):
        failed += 1
        problems.append("time-tag file differs from the first pass with the same seed")
    if out["stages"] >= 2 and out["read_digest"] != stream_digest:
        failed += 1
        problems.append("read_timetags does not return the written picosecond stamps")
    if out["stages"] == 4 and abs(out["tau_ns"] / ctx["model_tau_ns"] - 1.0) > TAU_RTOL:
        failed += 1
        problems.append(f"tau {out['tau_ns']:.1f} ns vs model {ctx['model_tau_ns']:.1f} ns")
    return 4, failed, problems


CHECKS = {
    "sweep": check_sweep,
    "eit_calibration": check_eit,
    "roundtrip": check_roundtrip,
    "timetags": check_timetags,
}
