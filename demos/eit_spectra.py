"""Transparency spectra of the probe field at strong and weak coupling.

Reproduces the two reference parameter sets: at 1 mW coupling power the
window is power-broadened to about 560 kHz, while at 0.05 mW it narrows
toward the decoherence-limited value near 300 kHz.  Runs in about half a second.
"""

import numpy as np

import sfwm

CASES = {
    "strong (1 mW)": dict(alpha_s=80.0, gamma=0.028, omega_c=2.6),
    "weak (0.05 mW)": dict(alpha_s=82.0, gamma=0.024, omega_c=0.65),
}

grid = np.linspace(-2.0, 2.0, 1601)  # +-12 MHz around two-photon resonance

for label, p in CASES.items():
    medium = sfwm.MediumParams(alpha_s=p["alpha_s"], gamma=p["gamma"])
    drive = sfwm.DriveParams(omega_c=p["omega_c"])
    spectrum = sfwm.eit_spectrum(grid, medium, drive)

    width = sfwm.spectrum_fwhm(spectrum)
    baseline = sfwm.spectrum_baseline(spectrum)
    peak = spectrum.transmission.max()
    print(f"{label}:")
    print(f"  baseline transmission {baseline:.3f}, peak {peak:.3f}")
    print(f"  window FWHM {width / 1e3:.0f} kHz")

    name = "eit_" + label.split()[0] + ".csv"
    np.savetxt(
        name,
        np.column_stack([sfwm.units.frequency_to_hz(spectrum.delta),
                         spectrum.transmission]),
        delimiter=",",
        header="detuning_hz,transmission",
        comments="",
    )
    print(f"  wrote {name}")

# The window width collapses toward gamma/pi as the coupling is turned down.
medium = sfwm.MediumParams(alpha_s=82.0, gamma=0.024)
for omega_c in (0.65, 0.4, 0.2):
    s = sfwm.eit_spectrum(np.linspace(-1, 1, 1601), medium, sfwm.DriveParams(omega_c=omega_c))
    print(f"omega_c = {omega_c:4.2f} Gamma -> FWHM {sfwm.spectrum_fwhm(s) / 1e3:6.1f} kHz"
          f"  (decoherence limit {2 * medium.gamma * sfwm.GAMMA_HZ / 1e3:.0f} kHz)")
