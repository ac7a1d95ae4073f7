"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import sfwm

from conftest import DELAY_NS, ONSET_NS, exponential_packet, scenario

POWERS_MW = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]


def verdict(num, name, ok, detail):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    medium = sfwm.MediumParams(alpha_s=82.0, gamma=0.025)
    return sfwm.sweep_predict(
        scenario(medium, sfwm.DriveParams(omega_c=2.7)), POWERS_MW, pump_mw=0.5,
        rate_anchor=(1.0, 1500.0),
    )


def test_criterion_1_eit_fwhm_regression():
    grid = np.linspace(-2.0, 2.0, 1601)
    results = []
    for (alpha, omega_c, gamma), target in (
        ((80.0, 2.6, 0.028), 560e3),
        ((82.0, 0.65, 0.024), 300e3),
    ):
        start = time.perf_counter()
        spectrum = sfwm.eit_spectrum(
            grid, sfwm.MediumParams(alpha_s=alpha, gamma=gamma), sfwm.DriveParams(omega_c=omega_c)
        )
        width = sfwm.spectrum_fwhm(spectrum)
        elapsed = time.perf_counter() - start
        results.append((width, target, elapsed))
    ok = all(abs(w / t - 1.0) <= 0.10 and dt < 10.0 for w, t, dt in results)
    detail = ", ".join(f"{w/1e3:.1f} kHz vs {t/1e3:.0f} kHz in {dt:.1f}s" for w, t, dt in results)
    verdict(1, "EIT FWHM regression", ok, detail)


def test_criterion_2_wavepacket_time_constants():
    fitted = {}
    timings = {}
    for label, alpha, gamma, omega_c, target in (
        ("strong", 80.0, 0.028, 2.6, 260.0),
        ("weak", 82.0, 0.024, 0.65, 560.0),
    ):
        start = time.perf_counter()
        amp = sfwm.spectral_amplitude(
            sfwm.SpectralGrid(),
            sfwm.MediumParams(alpha_s=alpha, gamma=gamma),
            sfwm.DriveParams(omega_c=omega_c),
        )
        packet = sfwm.wavepacket(sfwm.apply_etalons(amp), DELAY_NS, onset_ns=ONSET_NS)
        fitted[label] = (sfwm.fit_exponential(packet).tau_ns, target)
        timings[label] = time.perf_counter() - start

    lw_strong = sfwm.linewidth_from_tau(260.0)
    lw_weak = sfwm.linewidth_from_tau(560.0)
    conversions_ok = (
        round(lw_strong / 1e3) == 612
        and round(lw_weak / 1e3) == 284
        and lw_strong == pytest.approx(612134.0, abs=1.0)
        and lw_weak == pytest.approx(284205.0, abs=1.0)
    )
    ok = (
        all(abs(tau / target - 1.0) <= 0.15 for tau, target in fitted.values())
        and all(dt < 60.0 for dt in timings.values())
        and conversions_ok
    )
    detail = ", ".join(
        f"{k}: {tau:.1f} ns vs {target:.0f} ns in {timings[k]:.1f}s"
        for k, (tau, target) in fitted.items()
    ) + f"; conversions 612/284 kHz {'ok' if conversions_ok else 'WRONG'}"
    verdict(2, "wave-packet time constants", ok, detail)


def test_criterion_3_low_power_asymptote(sweep):
    tau = float(sweep.tau_ns[0])
    target = 530.0  # 1/(2*gamma) at gamma = 0.025
    ok = abs(tau / target - 1.0) <= 0.15
    verdict(3, "low-power decay asymptote", ok, f"tau(0.02 mW) = {tau:.1f} ns vs {target} ns")


def test_criterion_4_cauchy_schwarz_arithmetic():
    cases = ((42.0, 441.0), (5.4, 7.29), (60.0, 900.0))
    values = [sfwm.cs_violation(g) for g, _ in cases]
    ok = all(v == pytest.approx(t, abs=1e-12) for v, (_, t) in zip(values, cases))
    verdict(4, "Cauchy-Schwarz arithmetic", ok,
            ", ".join(f"{g} -> {v:.6g}" for (g, _), v in zip(cases, values)))


def test_criterion_5_sweep_shape(sweep):
    decreasing = bool(np.all(np.diff(sweep.tau_ns) < 0.0))
    imax = int(np.argmax(sweep.brightness))
    interior = 0 < imax < len(POWERS_MW) - 1
    adjacent = POWERS_MW[imax] in (0.5, 1.0, 2.0)
    rho = float(spearmanr(sweep.tau_ns, 1.0 / sweep.eit_fwhm_hz).statistic)
    ok = decreasing and interior and adjacent and rho >= 0.95
    verdict(
        5,
        "coupling-power sweep shape",
        ok,
        f"tau decreasing={decreasing}, brightness max at {POWERS_MW[imax]} mW, "
        f"rank correlation={rho:.3f}",
    )


def test_criterion_6_spectral_brightness_anchor(sweep):
    i = POWERS_MW.index(1.0)
    anchored = float(sweep.brightness[i])
    # Same arithmetic through the public scalar chain.
    rate = 1500.0 * 0.61  # pairs/s for the quoted rate per linewidth at 610 kHz
    direct = sfwm.spectral_brightness(rate, 0.5, 0.61e6)
    ok = abs(anchored / 3000.0 - 1.0) <= 0.02 and abs(direct / 3000.0 - 1.0) <= 0.02
    verdict(6, "spectral brightness anchor", ok,
            f"sweep-anchored {anchored:.1f}, scalar chain {direct:.1f} pairs/(s mW MHz)")


def test_criterion_7_round_trip_statistics():
    start = time.perf_counter()

    def exp_fit_coverage(tau_true, peak_sbr, accumulation_s, p_mw, seeds=100):
        shape = exponential_packet(1.0, tau_true, onset_ns=200.0, span_ns=4000.0)
        hits = 0
        for seed in range(seeds):
            dm = sfwm.DetectionModel(accumulation_s=accumulation_s, seed=seed)
            hist = sfwm.synth_histogram(shape, dm, p_mw, peak_sbr=peak_sbr)
            fit = sfwm.fit_exponential(hist.to_wavepacket())
            ratio = sfwm.sbr(fit)
            sigma_ratio = ratio * math.hypot(
                fit.amplitude_err / fit.amplitude, fit.baseline_err / fit.baseline
            )
            if (
                abs(fit.tau_ns - tau_true) <= 3.0 * fit.tau_err
                and abs(ratio - peak_sbr) <= 3.0 * sigma_ratio
            ):
                hits += 1
        return hits

    hits_a = exp_fit_coverage(260.0, 42.0, 1200.0, 1.0)
    hits_b = exp_fit_coverage(560.0, 5.4, 2400.0, 0.05)

    grid = np.linspace(-1.5, 1.5, 161)
    truth = (80.0, 2.6, 0.028)
    clean = sfwm.eit_spectrum(
        grid, sfwm.MediumParams(alpha_s=truth[0], gamma=truth[2]),
        sfwm.DriveParams(omega_c=truth[1]),
    )
    eit_hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noisy = sfwm.Spectrum(grid, clean.transmission + rng.normal(0.0, 0.005, grid.size))
        try:
            fit = sfwm.fit_eit(
                noisy,
                sfwm.MediumParams(alpha_s=70.0, gamma=0.035),
                sfwm.DriveParams(omega_c=2.2),
            )
        except sfwm.errors.ConvergenceError:
            continue
        if (
            abs(fit.alpha_s / truth[0] - 1.0) <= 0.05
            and abs(fit.omega_c / truth[1] - 1.0) <= 0.05
            and abs(fit.gamma / truth[2] - 1.0) <= 0.05
        ):
            eit_hits += 1

    elapsed = time.perf_counter() - start
    ok = hits_a >= 95 and hits_b >= 95 and eit_hits >= 45 and elapsed < 300.0
    verdict(
        7,
        "round-trip statistical suite",
        ok,
        f"exp-fit coverage {hits_a}/100 and {hits_b}/100, EIT recovery {eit_hits}/50, "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_numerical_hygiene(packet_a):
    medium = sfwm.MediumParams(alpha_s=80.0, gamma=0.028)
    drive = sfwm.DriveParams(omega_c=2.6)

    def fitted_tau(grid, quadrature):
        amp = sfwm.spectral_amplitude(grid, medium, drive, quadrature)
        packet = sfwm.wavepacket(sfwm.apply_etalons(amp), DELAY_NS, onset_ns=ONSET_NS)
        return sfwm.fit_exponential(packet).tau_ns

    base = sfwm.fit_exponential(packet_a).tau_ns
    fine_doppler = fitted_tau(sfwm.SpectralGrid(), sfwm.DopplerQuadrature(step=0.0625))
    dense_delta = fitted_tau(sfwm.SpectralGrid(count=65536), sfwm.DopplerQuadrature())
    doppler_shift = abs(fine_doppler / base - 1.0)
    delta_shift = abs(dense_delta / base - 1.0)

    nonnegative = bool(np.all(packet_a.g2 >= 0.0))

    tau_axis = np.arange(0.0, 1500.0, 25.6)
    small = sfwm.SpectralGrid(half_width=24.0, count=8192)
    fast = sfwm.DopplerQuadrature(step=0.25)
    g2 = [
        sfwm.wavepacket(
            sfwm.spectral_amplitude(
                small, medium, sfwm.DriveParams(omega_c=2.6, omega_p=om), fast, edge_tol=1.0
            ),
            tau_axis,
        ).g2
        for om in (1.0, 3.0)
    ]
    scaling_err = float(np.max(np.abs(g2[1] - 9.0 * g2[0]) / (9.0 * g2[0])))

    g_h = 0.1
    pole_grid = sfwm.SpectralGrid(half_width=256.0, count=32768)
    pole = sfwm.BiphotonAmplitude(pole_grid, 1.0 / (g_h - 1j * pole_grid.delta))
    tau = np.arange(50.0, 800.0, 5.0)
    g = sfwm.wavepacket(pole, tau).g2
    slope = np.polyfit(tau, np.log(g), 1)[0]
    pole_err = abs(-1.0 / slope / sfwm.DEFAULT_UNITS.time_to_ns(1.0 / (2.0 * g_h)) - 1.0)

    ok = (
        doppler_shift < 0.01
        and delta_shift < 0.01
        and nonnegative
        and scaling_err < 1e-12
        and pole_err < 0.01
    )
    verdict(
        8,
        "numerical hygiene",
        ok,
        f"doppler-step shift {doppler_shift:.2e}, delta-count shift {delta_shift:.2e}, "
        f"G2>=0 {nonnegative}, pump-scaling error {scaling_err:.1e}, "
        f"single-pole error {pole_err:.2e}",
    )
