"""Synthetic detector data: coincidence histograms and time-tag streams.

The detection chain is modeled as a triggered coincidence measurement: each
anti-Stokes detection starts a delay window, and partner (Stokes) detections
fill delay bins.  Real pairs put a partner at a delay drawn from the wave
packet; uncorrelated detections (stray light plus dark counts, summarized by
the power-dependent background rate) add a flat floor.  Per-bin expected
counts are therefore

    mean(bin) = background + signal
    background = trigger_rate * background_rate(P_c) * bin * accumulation

and samples are drawn independently per bin from a Poisson law, which is
exact for this inhomogeneous-Poisson model.  A time-tag generator provides
event-level realism for tests that need it; both paths agree in the mean.

All randomness comes from numpy's PCG64 generator seeded from the model, so
identical seeds reproduce identical data on any platform.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analysis import background_rate
from .biphoton import WavePacket
from .errors import UsageError

TIMETAG_FORMAT = "sfwm-timetags v1"
_WRITE_BLOCK = 1 << 16  # records formatted per write call
_MAX_STAMP_NS = 2.0**62 / 1e3  # rounded picosecond stamps stay within int64


@dataclass(frozen=True)
class DetectionModel:
    """Collection efficiencies, count rates, and binning of the detection chain.

    The trigger rate is the anti-Stokes detection rate excluding dark counts;
    the dark rates of both counting modules are kept for bookkeeping (the
    Stokes dark rate is already part of the background law's constant term).
    """

    eff_as: float = 0.084
    eff_s: float = 0.13
    dark_as: float = 140.0
    dark_s: float = 220.0
    trigger_rate: float = 840.0
    bin_ns: float = 25.6
    accumulation_s: float = 1200.0
    seed: int = 0
    background_law: Callable[[float], float] = field(default=background_rate, repr=False)

    def __post_init__(self):
        if not (0.0 < self.eff_as <= 1.0 and 0.0 < self.eff_s <= 1.0):
            raise UsageError("collection efficiencies must lie in (0, 1]")
        # Written so that nan fails every comparison.
        if not all(0.0 <= r < math.inf for r in (self.dark_as, self.dark_s, self.trigger_rate)):
            raise UsageError("count rates must be finite and nonnegative")
        if not 0.0 < self.bin_ns < math.inf:
            raise UsageError("bin width must be finite and positive")
        if not 0.0 <= self.accumulation_s < math.inf:
            raise UsageError("accumulation time must be finite and nonnegative")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise UsageError(f"seed must be a nonnegative integer, got {self.seed!r}")
        # A numpy integer seed would print, and so fingerprint, differently.
        object.__setattr__(self, "seed", int(self.seed))

    def fingerprint(self) -> str:
        """Stable hash of the model constants, for provenance headers."""
        text = (
            f"{self.eff_as!r}|{self.eff_s!r}|{self.dark_as!r}|{self.dark_s!r}|"
            f"{self.trigger_rate!r}|{self.bin_ns!r}|{self.accumulation_s!r}|{self.seed!r}"
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(eq=False)
class CoincidenceHistogram:
    """Integer coincidence counts on a uniform delay-bin grid.

    ``delay_ns`` holds the left edge of each bin; a partner arriving at delay
    t lands in bin floor(t / bin_ns).
    """

    delay_ns: np.ndarray
    counts: np.ndarray
    bin_ns: float
    accumulation_s: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.delay_ns = np.asarray(self.delay_ns, dtype=float)
        self.counts = np.asarray(self.counts)
        if not np.issubdtype(self.counts.dtype, np.integer):
            raise UsageError("counts must be integers")
        if np.any(self.counts < 0):
            raise UsageError("counts must be nonnegative")
        if self.delay_ns.size != self.counts.size:
            raise UsageError("delay grid and counts lengths differ")
        if self.delay_ns.size >= 2:
            steps = np.diff(self.delay_ns)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-9):
                raise UsageError("delay bins must be uniform")

    def to_wavepacket(self) -> WavePacket:
        """View the counts as a wave packet for the exponential fitter."""
        return WavePacket(self.delay_ns, self.counts.astype(float), self.bin_ns)


def expected_bins(
    w: WavePacket,
    dm: DetectionModel,
    p_mw: float,
    *,
    success_probability: float | None = None,
    peak_sbr: float | None = None,
    rate_units: bool = False,
) -> np.ndarray:
    """Per-bin expected counts for a wave packet under the detection model.

    Exactly one normalization must be chosen: ``success_probability`` scales
    the packet so its total signal counts equal that probability per trigger;
    ``peak_sbr`` pins the peak signal to a multiple of the flat background;
    ``rate_units`` declares g2 to already be detected pairs/(s*ns of delay).
    """
    chosen = (success_probability is not None) + (peak_sbr is not None) + bool(rate_units)
    if chosen != 1:
        raise UsageError(
            "choose exactly one of success_probability, peak_sbr, rate_units"
        )
    n_triggers = dm.trigger_rate * dm.accumulation_s
    bkg_per_bin = n_triggers * dm.background_law(p_mw) * (dm.bin_ns * 1e-9)

    total = float(w.g2.sum())
    if success_probability is not None:
        if success_probability < 0:
            raise UsageError("success probability must be nonnegative")
        scale = 0.0 if total == 0.0 else success_probability * n_triggers / total
    elif peak_sbr is not None:
        if peak_sbr < 0:
            raise UsageError("peak SBR must be nonnegative")
        peak = float(w.g2.max())
        scale = 0.0 if peak == 0.0 else peak_sbr * bkg_per_bin / peak
    else:
        scale = dm.bin_ns * dm.accumulation_s
    means = bkg_per_bin + scale * w.g2
    if np.any(~np.isfinite(means)) or np.any(means < 0):
        raise UsageError("expected counts must be finite and nonnegative")
    return means


def synth_histogram(
    w: WavePacket,
    dm: DetectionModel,
    p_mw: float,
    **normalization,
) -> CoincidenceHistogram:
    """Poisson-sample a coincidence histogram from the per-bin expectation.

    Deterministic for a given DetectionModel seed.  The delay grid of the
    wave packet is reused as the bin grid.
    """
    means = expected_bins(w, dm, p_mw, **normalization)
    rng = np.random.Generator(np.random.PCG64(dm.seed))
    counts = rng.poisson(means).astype(np.int64)
    meta = {
        "seed": dm.seed,
        "p_mw": p_mw,
        "model": dm.fingerprint(),
        **{k: v for k, v in normalization.items() if v},
    }
    return CoincidenceHistogram(w.tau_ns, counts, w.bin_ns, dm.accumulation_s, meta)


def generate_timetags(
    w: WavePacket,
    dm: DetectionModel,
    duration_s: float,
    p_mw: float,
    success_probability: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate (trigger, partner) event streams in ns, sorted in time.

    Triggers form a homogeneous Poisson process at the trigger rate.  Each
    trigger yields a true partner with the given success probability, at a
    delay drawn from the normalized wave-packet density (uniform within a
    bin).  Uncorrelated partner events ride on top as a Poisson process at
    the power-dependent background rate, which includes dark counts.
    """
    if duration_s < 0:
        raise UsageError("duration must be nonnegative")
    if not (0.0 <= success_probability <= 1.0):
        raise UsageError("success probability must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(dm.seed))
    duration_ns = duration_s * 1e9
    if duration_s == 0.0:
        return np.empty(0), np.empty(0)

    n_trig = rng.poisson(dm.trigger_rate * duration_s)
    triggers = np.sort(rng.uniform(0.0, duration_ns, n_trig))

    paired = rng.random(n_trig) < success_probability
    n_pairs = int(paired.sum())
    total = float(w.g2.sum())
    if n_pairs and total > 0.0:
        bins = rng.choice(w.g2.size, size=n_pairs, p=w.g2 / total)
        delays = w.tau_ns[bins] + rng.uniform(0.0, w.bin_ns, n_pairs)
        signal = triggers[paired] + delays
    else:
        signal = np.empty(0)

    n_bkg = rng.poisson(dm.background_law(p_mw) * duration_s)
    background = rng.uniform(0.0, duration_ns, n_bkg)
    partners = np.sort(np.concatenate([signal, background]))
    return triggers, partners


def build_histogram(
    triggers_ns: np.ndarray,
    partners_ns: np.ndarray,
    window_ns: float,
    bin_ns: float = 25.6,
    accumulation_s: float | None = None,
) -> CoincidenceHistogram:
    """Multiscaler coincidence histogram: every partner within [0, window) of
    each trigger is counted, not just the first stop.

    Both streams must be sorted in time.
    """
    triggers = np.asarray(triggers_ns, dtype=float)
    partners = np.asarray(partners_ns, dtype=float)
    for name, stream in (("trigger", triggers), ("partner", partners)):
        if stream.size > 1 and np.any(np.diff(stream) < 0):
            raise UsageError(f"{name} stream is not sorted")
    if window_ns <= 0 or bin_ns <= 0:
        raise UsageError("window and bin width must be positive")
    n_bins = int(np.floor(window_ns / bin_ns))
    if n_bins == 0:
        raise UsageError("window shorter than one bin")
    edges = np.arange(n_bins) * bin_ns

    lo = np.searchsorted(partners, triggers)
    hi = np.searchsorted(partners, triggers + n_bins * bin_ns)
    per_trigger = hi - lo
    total = int(per_trigger.sum())
    counts = np.zeros(n_bins, dtype=np.int64)
    if total:
        # Flat gather of all (trigger, partner-in-window) pairings.
        offsets = np.repeat(np.cumsum(per_trigger) - per_trigger, per_trigger)
        flat = np.arange(total) - offsets + np.repeat(lo, per_trigger)
        delays = partners[flat] - np.repeat(triggers, per_trigger)
        counts = np.bincount((delays / bin_ns).astype(np.int64), minlength=n_bins)
    return CoincidenceHistogram(edges, counts.astype(np.int64), bin_ns, accumulation_s)


def write_timetags(
    path,
    triggers_ns: np.ndarray,
    partners_ns: np.ndarray,
    dm: DetectionModel,
    duration_s: float,
) -> None:
    """Write both streams as text records: stream id (0 trigger, 1 partner)
    and timestamp in integer picoseconds, merged in time order (a trigger
    before a partner with the same stamp).  Non-finite timestamps, or ones
    too large for 64-bit picoseconds, are a UsageError."""
    for stream in (triggers_ns, partners_ns):
        # Written so that nan fails the comparison.
        if not np.all(np.abs(stream) < _MAX_STAMP_NS):
            raise UsageError("time tags must be finite and below 2^62 ps in magnitude")
    ids = np.concatenate(
        [np.zeros(len(triggers_ns), dtype=np.int64), np.ones(len(partners_ns), dtype=np.int64)]
    )
    stamps = np.concatenate(
        [np.round(np.asarray(triggers_ns) * 1e3), np.round(np.asarray(partners_ns) * 1e3)]
    ).astype(np.int64)
    order = np.lexsort((ids, stamps))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {TIMETAG_FORMAT}\n")
        fh.write(f"# seed: {dm.seed}\n")
        fh.write(f"# model: {dm.fingerprint()}\n")
        fh.write(f"# duration_s: {duration_s!r}\n")
        fh.write("# columns: stream_id,timestamp_ps\n")
        # Gather and format one block at a time, so no full-length reordered
        # copy, Python list or text is ever held.
        for start in range(0, order.size, _WRITE_BLOCK):
            idx = order[start : start + _WRITE_BLOCK]
            block = np.stack((ids[idx], stamps[idx]), axis=1)
            fh.write(("%d,%d\n" * idx.size) % tuple(block.ravel().tolist()))


def read_timetags(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a time-tag file back into (trigger, partner) streams in ns.

    Comment lines and empty lines may appear anywhere after the header; a
    body record that is not two integers, or whose stream id is not 0 or 1,
    is a UsageError.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if TIMETAG_FORMAT not in first:
            raise UsageError(f"{path} is not a recognized time-tag file")
        try:
            with warnings.catch_warnings():
                # A header-only file (a zero-length run) is valid and empty.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise UsageError(f"{path}: malformed time-tag record: {exc}") from exc
    if data.size == 0:
        return np.empty(0), np.empty(0)
    if data.shape[1] != 2:
        raise UsageError(f"{path}: time-tag records need 2 fields, found {data.shape[1]}")
    ids = data[:, 0]
    if ids.min() < 0 or ids.max() > 1:
        raise UsageError(f"{path}: stream ids must be 0 (trigger) or 1 (partner)")
    stamps = data[:, 1] / 1e3
    return np.sort(stamps[ids == 0]), np.sort(stamps[ids == 1])
