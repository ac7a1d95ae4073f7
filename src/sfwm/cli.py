"""Command-line front end producing plot-ready CSV data and fit reports.

Subcommands reproduce the standard outputs (transparency spectra, wave
packets, coupling-power sweeps, synthetic coincidence data) and run the two
fitting procedures on CSV inputs.  Exit codes: 0 success, 2 usage or
configuration error, 3 numerical or convergence error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (
    SWEEP_SPAN_NS,
    cs_violation,
    fit_eit,
    fit_exponential,
    linewidth_from_tau,
    sbr,
    sweep_predict,
)
from .biphoton import MAX_DELAY_BINS, WavePacket, delay_axis, predict_packet, rise_time_convolve
from .config import Scenario, load_config
from .detector import expected_bins, generate_timetags, synth_histogram, write_timetags
from .errors import (
    DegenerateDataError,
    NumericsError,
    PeakShapeError,
    UsageError,
)
from .physics import MIN_WIDTH_POINTS, Spectrum, eit_spectrum, spectrum_fwhm
from .units import frequency_from_hz, frequency_to_hz

# Most detunings simulate-eit evaluates; their spectrum takes about 90 MB.
MAX_POINTS = 1_000_000


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(out: str, meta: dict, header: list[str], rows) -> None:
    lines = [f"# sfwm {__version__}"]
    lines += [f"# {key}: {value}" for key, value in meta.items()]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise UsageError(f"{path} has no header line")
    header = [col.strip() for col in lines[0].split(",")]
    try:
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise UsageError(f"{path} has a malformed data row: {exc}") from exc
    if not data.size:
        return header, data.reshape(0, len(header))
    if data.shape[1] != len(header):
        raise UsageError(f"{path}: row width does not match header")
    bad = np.nonzero(~np.isfinite(data).all(axis=-1))[0]
    if bad.size:
        raise UsageError(f"{path}: data row {bad[0] + 1} holds a non-finite value")
    return header, data


def _report(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _meta(cfg: Scenario, command: str, **extra) -> dict:
    return {"command": command, "scenario-sha256": cfg.sha256, "seed": cfg.detection.seed, **extra}


def cmd_simulate_eit(args) -> int:
    scenario = load_config(args.config)
    if not (np.isfinite(args.delta_min_mhz) and np.isfinite(args.delta_max_mhz)):
        raise UsageError("--delta-min-mhz and --delta-max-mhz must be finite")
    points_ok = MIN_WIDTH_POINTS <= args.points <= MAX_POINTS
    if not points_ok or not args.delta_min_mhz < args.delta_max_mhz:
        raise UsageError(f"need {MIN_WIDTH_POINTS} to {MAX_POINTS} points "
                         "and delta-min below delta-max")
    lo = frequency_from_hz(args.delta_min_mhz * 1e6)
    hi = frequency_from_hz(args.delta_max_mhz * 1e6)
    spectrum = eit_spectrum(
        np.linspace(lo, hi, args.points), scenario.medium, scenario.drive, scenario.q
    )
    try:
        summary = f"EIT FWHM: {spectrum_fwhm(spectrum) / 1e3:.1f} kHz"
    except PeakShapeError:
        summary = "no transparency window above the baseline"
    rows = zip(frequency_to_hz(spectrum.delta), spectrum.transmission)
    _write_csv(args.out, _meta(scenario, "simulate-eit"), ["detuning_hz", "transmission"], rows)
    _note(summary)
    return 0


def cmd_simulate_biphoton(args) -> int:
    scenario = load_config(args.config)
    tau_axis = delay_axis(args.tau_max_ns, scenario.detection.bin_ns, name="--tau-max-ns")
    packet = predict_packet(scenario, tau_axis)
    smoothed = rise_time_convolve(packet, scenario.rise_ns)
    try:
        fit = fit_exponential(packet, x0_ns=scenario.fit_onset_ns)
    except DegenerateDataError:
        summary = ["no signal: wave packet is identically zero"]
    else:
        summary = [
            f"fitted decay constant: {fit.tau_ns:.1f} ns",
            f"linewidth: {linewidth_from_tau(fit.tau_ns) / 1e3:.1f} kHz",
        ]
        if scenario.detection.success_probability is not None:
            # The trigger count cancels out of the ratio, so one trigger gives
            # it, also where the chain expects none and 0/0 would leave it nan.
            one_trigger = replace(scenario.detection, trigger_rate=1.0, accumulation_s=1.0)
            means = expected_bins(smoothed, one_trigger, scenario.coupling_power_mw)
            floor = means.min()
            summary.append(f"predicted SBR: {(means.max() - floor) / floor:.1f}")
        else:
            summary.append(
                "predicted SBR: set detection.success_probability for a count-level estimate"
            )
    rows = zip(packet.tau_ns, packet.g2)
    _write_csv(args.out, _meta(scenario, "simulate-biphoton"), ["delay_ns", "g2_arb"], rows)
    for line in summary:
        _note(line)
    return 0


def cmd_fit_eit(args) -> int:
    scenario = load_config(args.config)
    header, data = _read_csv(args.csv)
    if data.size == 0 or len(header) < 2:
        raise UsageError(f"{args.csv} contains no usable spectrum")
    spectrum = Spectrum(frequency_from_hz(data[:, 0]), data[:, 1])
    fit = fit_eit(spectrum, scenario.medium, scenario.drive)
    _report(
        {
            "alpha_s": fit.alpha_s,
            "omega_c_gamma_units": fit.omega_c,
            "coupling_rabi_mhz": frequency_to_hz(fit.omega_c) / 1e6,
            "gamma_gamma_units": fit.gamma,
            "decoherence_mhz": frequency_to_hz(fit.gamma) / 1e6,
            "residual_norm": fit.residual_norm,
            "converged": fit.converged,
            "initial_guess": {
                "coupling_rabi_mhz": frequency_to_hz(scenario.drive.omega_c) / 1e6,
                "decoherence_mhz": frequency_to_hz(scenario.medium.gamma) / 1e6,
            },
        }
    )
    return 0


def cmd_fit_biphoton(args) -> int:
    scenario = load_config(args.config)
    header, data = _read_csv(args.csv)
    if data.size == 0 or len(header) < 2:
        raise UsageError(f"{args.csv} contains no usable wave packet")
    tau = data[:, 0]
    if tau.size < 2:
        raise UsageError("need at least two delay samples")
    packet = WavePacket(tau, data[:, 1], float(tau[1] - tau[0]))
    fit = fit_exponential(packet, x0_ns=scenario.fit_onset_ns)
    ratio = sbr(fit)
    _report(
        {
            "baseline": fit.baseline,
            "amplitude": fit.amplitude,
            "tau_ns": fit.tau_ns,
            "tau_err_ns": fit.tau_err,
            "linewidth_hz": linewidth_from_tau(fit.tau_ns),
            "sbr": ratio,
            "cs_violation": cs_violation(ratio) if np.isfinite(ratio) else float("inf"),
            "converged": fit.converged,
            "onset_ns": fit.onset_ns,
            "n_fit_bins": fit.n_fit_bins,
        }
    )
    return 0


def cmd_sweep(args) -> int:
    scenario = load_config(args.config)
    powers = []
    for token in filter(str.strip, args.powers_mw.split(",")):
        try:
            powers.append(float(token))
        except ValueError:
            raise UsageError(f"--powers-mw: {token.strip()!r} is not a number") from None
    anchor = None
    if args.anchor_power_mw is not None or args.anchor_rate_per_mhz is not None:
        if args.anchor_power_mw is None or args.anchor_rate_per_mhz is None:
            raise UsageError("anchor needs both --anchor-power-mw and --anchor-rate-per-mhz")
        anchor = (args.anchor_power_mw, args.anchor_rate_per_mhz)
    sweep = sweep_predict(scenario, powers, rate_anchor=anchor)
    rows = zip(
        sweep.powers_mw,
        sweep.tau_ns,
        sweep.linewidth_hz,
        sweep.eit_fwhm_hz,
        sweep.rate_pairs_per_s,
        sweep.brightness,
        sweep.sbr,
    )
    _write_csv(
        args.out,
        _meta(scenario, "sweep", rate_scale=sweep.rate_scale),
        ["power_mw", "tau_ns", "linewidth_hz", "eit_fwhm_hz", "rate_pairs_per_s",
         "brightness_pairs_per_s_mw_mhz", "sbr"],
        rows,
    )
    unmeasured = np.isnan(sweep.eit_fwhm_hz)
    if unmeasured.any():
        listed = ", ".join(f"{p:g}" for p in sweep.powers_mw[unmeasured])
        _note(f"no transparency window above the baseline at {listed} mW: eit_fwhm_hz is nan")
    imax = int(np.argmax(sweep.brightness))
    _note(f"peak spectral brightness at {sweep.powers_mw[imax]:g} mW")
    return 0


def cmd_synth(args) -> int:
    if args.timetags in ("", "-"):
        raise UsageError(f"--timetags needs a file path, not {args.timetags!r}; stdout is --out's")
    if args.timetags is not None and args.out != "-" and (
        os.path.realpath(args.timetags) == os.path.realpath(args.out)
    ):
        raise UsageError(f"--timetags {args.timetags} is also the --out file")
    scenario = load_config(args.config)
    dm = scenario.detection
    p_mw = scenario.coupling_power_mw
    success = dm.success_probability
    if (success is None) == (args.peak_sbr is None):
        raise UsageError("give exactly one of --peak-sbr and [detection] success_probability")
    if args.timetags is not None and success is None:
        raise UsageError("time tags need a success probability, not a peak SBR")

    rows, triggers, partners = [], np.empty(0), np.empty(0)
    if dm.accumulation_s > 0:
        # Synthesize from the unconvolved packet: the detector rise time moves
        # the smeared peak past the fixed fit onset, which would defeat the
        # two-stage exponential fit this data exists to validate.
        tau_axis = delay_axis(args.tau_max_ns, dm.bin_ns, name="--tau-max-ns")
        packet = predict_packet(scenario, tau_axis)
        hist = synth_histogram(packet, dm, p_mw, peak_sbr=args.peak_sbr)
        rows = zip(hist.delay_ns, hist.counts)
        if args.timetags is not None:
            triggers, partners = generate_timetags(packet, dm, p_mw)
    _write_csv(args.out, _meta(scenario, "synth", p_mw=p_mw), ["delay_ns", "counts"], rows)
    if args.timetags is not None:
        try:
            write_timetags(args.timetags, triggers, partners, scenario)
        except OSError as exc:
            # Both outputs or neither.
            if args.out != "-":
                os.remove(args.out)
            raise UsageError(f"cannot write {args.timetags}: {exc.strerror or exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfwm",
        description="Biphoton and EIT simulation toolkit for hot-vapor four-wave mixing",
    )
    parser.add_argument("--version", action="version", version=f"sfwm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tau_max_help = f"delay span in ns, at most {MAX_DELAY_BINS} detection bins"

    def add_config(p):
        p.add_argument("--config", default=None, help="INI config file (defaults if omitted)")

    def add_common(p):
        add_config(p)
        p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")

    p = sub.add_parser("simulate-eit", help="transparency spectrum over a detuning range")
    add_common(p)
    p.add_argument("--delta-min-mhz", type=float, default=-12.0)
    p.add_argument("--delta-max-mhz", type=float, default=12.0)
    p.add_argument("--points", type=int, default=481, help=f"{MIN_WIDTH_POINTS} to {MAX_POINTS}")
    p.set_defaults(func=cmd_simulate_eit)

    p = sub.add_parser("simulate-biphoton", help="predicted wave packet on a delay grid")
    add_common(p)
    p.add_argument("--tau-max-ns", type=float, default=SWEEP_SPAN_NS, help=tau_max_help)
    p.set_defaults(func=cmd_simulate_biphoton)

    p = sub.add_parser("fit-eit", help="recover medium parameters from a spectrum CSV")
    add_config(p)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_fit_eit)

    p = sub.add_parser("fit-biphoton", help="exponential fit of a wave-packet CSV")
    add_config(p)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_fit_biphoton)

    p = sub.add_parser("sweep", help="figures of merit across coupling powers")
    add_common(p)
    p.add_argument("--powers-mw", default="0.02,0.05,0.1,0.2,0.5,1,2,5")
    p.add_argument("--anchor-power-mw", type=float, default=None)
    p.add_argument("--anchor-rate-per-mhz", type=float, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="synthetic coincidence histogram and time tags")
    add_common(p)
    p.add_argument("--tau-max-ns", type=float, default=SWEEP_SPAN_NS, help=tau_max_help)
    p.add_argument("--peak-sbr", type=float, default=None)
    p.add_argument("--timetags", default=None, help="also write a time-tag file here")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # A closed stdout shows here at the latest, not at interpreter exit.
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"sfwm: error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"sfwm: numerical error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader went away.  What is still buffered goes to the null
        # device, so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("sfwm: error: cannot write stdout", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
