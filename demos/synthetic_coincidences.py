"""Round trip through the synthetic detector: packet -> counts -> fit.

Draws a Poisson coincidence histogram at the strong-coupling operating
point (840 triggers/s, 25.6 ns bins, 1200 s accumulation, background law of
the coupling power), fits it back, and cross-checks the per-bin model
against the event-level time-tag generator, whose streams it writes to
timetags.txt and reads back.  Runs in about half a second.
"""

import dataclasses

import numpy as np

import sfwm

# The model's success probability is the Stokes detections per trigger.
scenario = dataclasses.replace(
    sfwm.load_config(),
    medium=sfwm.MediumParams(alpha_s=80.0, gamma=0.028),
    drive=sfwm.DriveParams(omega_c=2.6),
    detection=sfwm.DetectionModel(accumulation_s=1200.0, seed=42, success_probability=0.0088),
)
P_MW = scenario.coupling_power_mw  # 1 mW: sets the background law
dm = scenario.detection
packet = sfwm.predict_packet(scenario, np.arange(0.0, 4000.0, dm.bin_ns))

hist = sfwm.synth_histogram(packet, dm, P_MW)
print(f"synthesized {hist.counts.sum()} coincidences over {hist.counts.size} bins "
      f"(peak {hist.counts.max()}, floor ~{np.median(hist.counts):.0f})")

fit = sfwm.fit_exponential(hist.to_wavepacket(), x0_ns=scenario.fit_onset_ns)
truth = sfwm.fit_exponential(packet, x0_ns=scenario.fit_onset_ns)
print(f"fitted tau {fit.tau_ns:.0f} +/- {fit.tau_err:.0f} ns "
      f"(noiseless packet gives {truth.tau_ns:.0f} ns)")
print(f"peak correlation (SBR) {sfwm.sbr(fit):.1f}")

floor = sfwm.expected_bins(packet, dataclasses.replace(dm, success_probability=0.0), P_MW)
detected = (hist.counts.sum() - floor.sum()) / dm.accumulation_s
print(f"inferred source rate {sfwm.generation_rate(detected, dm):.0f} pairs/s "
      f"after collection-efficiency correction")

# Event-level realism: time tags of a 100 s acquisition rebuilt into a
# histogram agree with the per-bin Poisson model in the mean.
short = dataclasses.replace(dm, accumulation_s=100.0)
trig, part = sfwm.generate_timetags(packet, short, P_MW)
rebuilt = sfwm.build_histogram(trig, part, packet.tau_ns.size * short.bin_ns, short.bin_ns)
means = sfwm.expected_bins(packet, short, P_MW)
worst = np.max(np.abs(rebuilt.counts - means) / np.sqrt(means))
print(f"{trig.size} triggers, {part.size} partner events; "
      f"worst per-bin deviation from the model mean: {worst:.1f} sigma")

# The tag file holds the streams to the picosecond, under a header with the
# hash of the scenario that drew them; rebuild the histogram from what it holds.
sfwm.write_timetags("timetags.txt", trig, part, dataclasses.replace(scenario, detection=short))
trig_ps, part_ps = sfwm.read_timetags("timetags.txt")
assert np.array_equal(trig_ps, np.round(trig * 1e3) / 1e3)
assert np.array_equal(part_ps, np.round(part * 1e3) / 1e3)
reread = sfwm.build_histogram(trig_ps, part_ps, packet.tau_ns.size * short.bin_ns, short.bin_ns)
moved = int(np.abs(reread.counts - rebuilt.counts).sum())
print(f"wrote and read back timetags.txt; {moved} of {rebuilt.counts.sum()} pairings "
      f"change bin at picosecond rounding")
