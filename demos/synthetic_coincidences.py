"""Round trip through the synthetic detector: packet -> counts -> fit.

Draws a Poisson coincidence histogram at the strong-coupling operating
point (840 triggers/s, 25.6 ns bins, 1200 s accumulation, background law of
the coupling power), fits it back, and cross-checks the per-bin model
against the event-level time-tag generator.  Runs in about half a second.
"""

import dataclasses

import numpy as np

import sfwm

SUCCESS = 0.0088  # Stokes detections per trigger

scenario = dataclasses.replace(
    sfwm.load_config(),
    medium=sfwm.MediumParams(alpha_s=80.0, gamma=0.028),
    drive=sfwm.DriveParams(omega_c=2.6),
    detection=sfwm.DetectionModel(accumulation_s=1200.0, seed=42),
)
P_MW = scenario.coupling_power_mw  # 1 mW: sets the background law
dm = scenario.detection
packet = sfwm.predict_packet(scenario, np.arange(0.0, 4000.0, dm.bin_ns))

hist = sfwm.synth_histogram(packet, dm, P_MW, success_probability=SUCCESS)
print(f"synthesized {hist.counts.sum()} coincidences over {hist.counts.size} bins "
      f"(peak {hist.counts.max()}, floor ~{np.median(hist.counts):.0f})")

fit = sfwm.fit_exponential(hist.to_wavepacket())
truth = sfwm.fit_exponential(packet)
print(f"fitted tau {fit.tau_ns:.0f} +/- {fit.tau_err:.0f} ns "
      f"(noiseless packet gives {truth.tau_ns:.0f} ns)")
print(f"peak correlation (SBR) {sfwm.sbr(fit):.1f}")

detected = (hist.counts.sum()
            - hist.counts.size * dm.trigger_rate * dm.accumulation_s
            * sfwm.background_rate(P_MW) * dm.bin_ns * 1e-9) / dm.accumulation_s
print(f"inferred source rate {sfwm.generation_rate(detected):.0f} pairs/s "
      f"after collection-efficiency correction")

# Event-level realism: time tags rebuilt into a histogram agree with the
# per-bin Poisson model in the mean.
trig, part = sfwm.generate_timetags(packet, dm, 100.0, P_MW, SUCCESS)
rebuilt = sfwm.build_histogram(trig, part, window_ns=packet.tau_ns.size * 25.6)
means = sfwm.expected_bins(
    packet, sfwm.DetectionModel(accumulation_s=100.0, seed=42), P_MW,
    success_probability=SUCCESS,
)
worst = np.max(np.abs(rebuilt.counts - means) / np.sqrt(means))
print(f"{trig.size} triggers, {part.size} partner events; "
      f"worst per-bin deviation from the model mean: {worst:.1f} sigma")

sfwm.write_timetags("timetags.txt", trig, part, dm, 100.0)
print("wrote timetags.txt")
