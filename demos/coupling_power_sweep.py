"""Figures of merit across the coupling-power range 0.02 to 5 mW.

One wave packet per power: the decay constant falls monotonically with
power while the transparency window widens, the pair rate saturates, and
the spectral brightness peaks near 1 mW.  The rate scale is anchored to the
measured 1,500 pairs/(s*MHz) at the 1 mW point.  Runs in about half a second.
"""

import dataclasses

import numpy as np

import sfwm

POWERS_MW = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]

# The default config's scenario with the medium recovered from the EIT fits:
# gamma averaged over the three lowest-power spectra.  The sweep sets the
# coupling itself, once per power.
scenario = dataclasses.replace(
    sfwm.load_config(), medium=sfwm.MediumParams(alpha_s=82.0, gamma=0.025)
)
sweep = sfwm.sweep_predict(scenario, POWERS_MW, pump_mw=0.5, rate_anchor=(1.0, 1500.0))

print(f"{'P (mW)':>7} {'tau (ns)':>9} {'linewidth':>10} {'EIT FWHM':>9} "
      f"{'rate (1/s)':>11} {'brightness':>11} {'SBR (arb)':>10}")
for i, p in enumerate(sweep.powers_mw):
    print(f"{p:7.2f} {sweep.tau_ns[i]:9.1f} "
          f"{sweep.linewidth_hz[i] / 1e3:8.0f} k {sweep.eit_fwhm_hz[i] / 1e3:7.0f} k "
          f"{sweep.rate_pairs_per_s[i]:11.0f} {sweep.brightness[i]:11.0f} "
          f"{sweep.sbr[i]:10.2e}")

imax = int(np.argmax(sweep.brightness))
print(f"\nbrightness peaks at {sweep.powers_mw[imax]:g} mW with "
      f"{sweep.brightness[imax]:.0f} pairs/(s mW MHz)")
print(f"low-power decay constant approaches 1/(2*gamma) = "
      f"{sfwm.DEFAULT_UNITS.time_to_ns(1 / (2 * scenario.medium.gamma)):.0f} ns "
      f"(got {sweep.tau_ns[0]:.0f} ns at 0.02 mW)")

np.savetxt(
    "sweep.csv",
    np.column_stack([sweep.powers_mw, sweep.tau_ns, sweep.linewidth_hz,
                     sweep.eit_fwhm_hz, sweep.rate_pairs_per_s,
                     sweep.brightness, sweep.sbr]),
    delimiter=",",
    header="power_mw,tau_ns,linewidth_hz,eit_fwhm_hz,rate_pairs_per_s,"
           "brightness_pairs_per_s_mw_mhz,sbr",
    comments="",
)
print("wrote sweep.csv")
