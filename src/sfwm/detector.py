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

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .analysis import background_rate
from .biphoton import WavePacket, _check_delay_grid, _check_delay_span
from .errors import UsageError

if TYPE_CHECKING:
    from .config import Scenario

TIMETAG_FORMAT = "sfwm-timetags v2"
_WRITE_BLOCK = 1 << 16  # records formatted per write call
_MAX_STAMP_NS = 2.0**62 / 1e3  # rounded picosecond stamps stay within int64
_READ_CHUNK = 1 << 20  # body bytes parsed per step, rounded down to whole records
_GATHER_BLOCK = 1 << 20  # pairings gathered at once, unless one trigger has more
# The largest mean numpy's Poisson sampler takes.
_POISSON_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)
# Most expected events (triggers plus background) in one time-tag
# acquisition; a synth --timetags run at a tenth of it peaks near 340 MB.
MAX_TIMETAG_EVENTS = 100_000_000


@dataclass(frozen=True)
class DetectionModel:
    """Collection efficiencies, count rates, and binning of the detection chain.

    The trigger rate is the anti-Stokes detection rate excluding dark counts;
    the dark rates of both counting modules are kept for bookkeeping (the
    Stokes dark rate is already part of the background law's constant term).
    ``success_probability`` is the pair detections per trigger, in [0, 1];
    None leaves the signal to a peak SBR, and time tags need it set.
    """

    eff_as: float = 0.084
    eff_s: float = 0.13
    dark_as: float = 140.0
    dark_s: float = 220.0
    trigger_rate: float = 840.0
    bin_ns: float = 25.6
    accumulation_s: float = 1200.0
    seed: int = 1
    success_probability: float | None = None

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
        # Whatever integer type it came as, the seed is the int it equals.
        object.__setattr__(self, "seed", int(self.seed))
        p = self.success_probability
        if p is not None and not 0.0 <= p <= 1.0:
            raise UsageError(f"[detection] success_probability must be in [0, 1], got {p!r}")


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

    def __post_init__(self):
        self.delay_ns = np.asarray(self.delay_ns, dtype=float)
        self.counts = np.asarray(self.counts)
        if not np.issubdtype(self.counts.dtype, np.integer):
            raise UsageError("counts must be integers")
        if np.any(self.counts < 0):
            raise UsageError("counts must be nonnegative")
        if self.delay_ns.size != self.counts.size:
            raise UsageError("delay grid and counts lengths differ")
        _check_delay_grid(self.delay_ns, self.bin_ns, "delay bin grid")

    def to_wavepacket(self) -> WavePacket:
        """View the counts as a wave packet for the exponential fitter."""
        return WavePacket(self.delay_ns, self.counts, self.bin_ns)


def expected_bins(
    w: WavePacket,
    dm: DetectionModel,
    p_mw: float,
    *,
    peak_sbr: float | None = None,
) -> np.ndarray:
    """Per-bin expected counts for a wave packet under the detection model.

    Exactly one normalization must be chosen: the model's
    ``success_probability`` scales the packet so its total signal counts
    equal that probability per trigger; ``peak_sbr`` pins the peak signal to
    a multiple of the flat background.
    The background fills each bin of the packet's width ``w.bin_ns``.  A
    mean past what numpy's Poisson sampler takes is a UsageError.
    """
    success_probability = dm.success_probability
    if (success_probability is None) == (peak_sbr is None):
        raise UsageError("choose exactly one of the model's success_probability and peak_sbr")
    n_triggers = dm.trigger_rate * dm.accumulation_s
    bkg_per_bin = n_triggers * background_rate(p_mw) * (w.bin_ns * 1e-9)

    total = float(w.g2.sum())
    if success_probability is not None:
        scale = 0.0 if total == 0.0 else success_probability * n_triggers / total
    else:
        if peak_sbr < 0:
            raise UsageError("peak SBR must be nonnegative")
        peak = float(w.g2.max())
        scale = 0.0 if peak == 0.0 else peak_sbr * bkg_per_bin / peak
    # The packet's values, the scale and the background are nonnegative.
    means = bkg_per_bin + scale * w.g2
    if not np.isfinite(means).all():
        raise UsageError("expected counts must be finite")
    if np.any(means > _POISSON_MAX):
        knob = "peak_sbr" if peak_sbr is not None else "success_probability"
        raise UsageError(
            f"expected counts reach {means.max():.3g} per bin, past the Poisson sampler's "
            f"{_POISSON_MAX:.3g}: lower {knob}, trigger_cps or accumulation_s"
        )
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
    return CoincidenceHistogram(w.tau_ns, counts, w.bin_ns, dm.accumulation_s)


def generate_timetags(
    w: WavePacket,
    dm: DetectionModel,
    p_mw: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate (trigger, partner) event streams in ns, sorted in time.

    The streams span the model's accumulation time.  Triggers form a
    homogeneous Poisson process at the trigger rate.  Each trigger yields a
    true partner with the model's success probability, at a delay drawn from
    the normalized wave-packet density (uniform within a bin).  Uncorrelated
    partner events ride on top as a Poisson process at the power-dependent
    background rate, which includes dark counts.  More than
    MAX_TIMETAG_EVENTS expected events, or a model without a success
    probability, is a UsageError.
    """
    if dm.success_probability is None:
        raise UsageError("time tags need the model's success_probability")
    events = (dm.trigger_rate + background_rate(p_mw)) * dm.accumulation_s
    if events > MAX_TIMETAG_EVENTS:
        raise UsageError(
            f"time tags of {events:.3g} expected events exceed {MAX_TIMETAG_EVENTS}: "
            "lower [detection] accumulation_s or trigger_cps"
        )
    rng = np.random.Generator(np.random.PCG64(dm.seed))
    duration_s = dm.accumulation_s
    duration_ns = duration_s * 1e9
    if duration_s == 0.0:
        return np.empty(0), np.empty(0)

    n_trig = rng.poisson(dm.trigger_rate * duration_s)
    triggers = np.sort(rng.uniform(0.0, duration_ns, n_trig))

    paired = rng.random(n_trig) < dm.success_probability
    n_pairs = int(paired.sum())
    total = float(w.g2.sum())
    if n_pairs and total > 0.0:
        bins = rng.choice(w.g2.size, size=n_pairs, p=w.g2 / total)
        delays = w.tau_ns[bins] + rng.uniform(0.0, w.bin_ns, n_pairs)
        signal = triggers[paired] + delays
    else:
        signal = np.empty(0)

    n_bkg = rng.poisson(background_rate(p_mw) * duration_s)
    background = rng.uniform(0.0, duration_ns, n_bkg)
    partners = np.sort(np.concatenate([signal, background]))
    return triggers, partners


def build_histogram(
    triggers_ns: np.ndarray,
    partners_ns: np.ndarray,
    window_ns: float,
    bin_ns: float,
    accumulation_s: float | None = None,
) -> CoincidenceHistogram:
    """Multiscaler coincidence histogram: every partner within [0, window) of
    each trigger is counted, not just the first stop.

    With n whole bins in the window, a partner at p pairs with a trigger at t
    when t <= p < t + n*bin_ns, in bin floor((p - t)/bin_ns), or the last bin
    where that quotient rounds up to n.  Both streams must be sorted in time
    and finite.
    """
    triggers = _real_stream(triggers_ns, "trigger")
    partners = _real_stream(partners_ns, "partner")
    for name, stream in (("trigger", triggers), ("partner", partners)):
        # Written so that nan fails the comparison; then finite ends bound the rest.
        ordered = stream[1:] >= stream[:-1]
        if not ordered.all():
            k = int(np.argmin(ordered))
            raise UsageError(
                f"{name} stream is not sorted in time: {float(stream[k + 1])!r}"
                f" follows {float(stream[k])!r}"
            )
        for end in stream[:1].tolist() + stream[-1:].tolist():
            if not math.isfinite(end):
                raise UsageError(f"{name} stream must be finite, got {end!r}")
    _check_delay_span(window_ns, bin_ns, "window")
    n_bins = int(np.floor(window_ns / bin_ns))
    if n_bins < 1:
        raise UsageError(f"window {window_ns!r} is shorter than one bin of {bin_ns!r} ns")
    edges = np.arange(n_bins) * bin_ns

    lo = np.searchsorted(partners, triggers)
    limits = triggers + n_bins * bin_ns
    # Only triggers with a partner in their window take part from here on;
    # the +inf sentinel stands in for the partner after the last.
    paired = np.flatnonzero(np.append(partners, np.inf)[lo] < limits)
    lo = lo[paired]
    per_trigger = np.searchsorted(partners, limits[paired]) - lo
    ends = np.cumsum(per_trigger)
    counts = np.zeros(n_bins, dtype=np.int64)
    # Flat gathers of the (trigger, partner-in-window) pairings, in blocks of
    # whole triggers holding at most _GATHER_BLOCK pairings, or one trigger.
    start = done = 0
    while start < paired.size:
        stop = max(int(np.searchsorted(ends, done + _GATHER_BLOCK, side="right")), start + 1)
        per = per_trigger[start:stop]
        first = lo[start:stop] - (ends[start:stop] - per)  # partner index minus pairing index
        flat = np.arange(done, int(ends[stop - 1])) + np.repeat(first, per)
        delays = partners[flat] - np.repeat(triggers[paired[start:stop]], per)
        block = np.bincount((delays / bin_ns).astype(np.int64), minlength=n_bins)
        counts += block[:n_bins]
        # A delay just inside the window can round onto its end: count it in the last bin.
        counts[n_bins - 1] += block[n_bins:].sum()
        start, done = stop, int(ends[stop - 1])
    return CoincidenceHistogram(edges, counts, bin_ns, accumulation_s)


def _real_stream(values, name: str) -> np.ndarray:
    """``values`` as a one-dimensional float array (a scalar becomes one
    value); UsageError, naming the stream, unless it has one dimension and
    every value is a real number."""
    try:
        stream = np.asarray(values)
        # A complex array would convert with a warning, dropping its imaginary part.
        if np.iscomplexobj(stream):
            raise TypeError
        stream = np.atleast_1d(stream.astype(float, copy=False))
    except (TypeError, ValueError):
        raise UsageError(f"{name} stream must hold real numbers") from None
    if stream.ndim != 1:
        raise UsageError(f"{name} stream must be one-dimensional, got shape {stream.shape}")
    return stream


def write_timetags(
    path,
    triggers_ns: np.ndarray,
    partners_ns: np.ndarray,
    scenario: Scenario,
) -> None:
    """Write both streams as fixed-width text records: stream id (0 trigger,
    1 partner), a comma and the timestamp in integer picoseconds, merged in
    time order (a trigger before a partner with the same stamp).

    Every stamp is zero-padded to the digit count of the largest |stamp|;
    when any stamp is negative, every record gains a sign slot, ``-`` or
    ``0``.  The header records the scenario's detection seed, its hash and
    the accumulation time.  A stream that is not one-dimensional and real, or
    a timestamp that is not finite or too large for 64-bit picoseconds, is
    a UsageError.
    """
    triggers = _real_stream(triggers_ns, "trigger")
    partners = _real_stream(partners_ns, "partner")
    for stream in (triggers, partners):
        # Written so that nan fails the comparison.
        if not np.all(np.abs(stream) < _MAX_STAMP_NS):
            raise UsageError("time tags must be finite and below 2^62 ps in magnitude")
    # One int64 key per record, 2*stamp + id, orders by stamp and then by id;
    # |stamp| < 2^62 keeps it from overflowing.  Both halves are sorted runs
    # when the streams are, which the stable sort merges in linear time.
    key = np.concatenate([np.round(triggers * 1e3), np.round(partners * 1e3)]).astype(np.int64)
    key <<= 1
    key[triggers.size :] |= 1
    key.sort(kind="stable")
    ends = (key[[0, -1]] >> 1).tolist() if key.size else [0]
    signed = ends[0] < 0
    width = len(str(max(abs(end) for end in ends)))
    header = (
        f"# {TIMETAG_FORMAT}\n"
        f"# seed: {scenario.detection.seed}\n"
        f"# scenario-sha256: {scenario.sha256}\n"
        f"# duration_s: {scenario.detection.accumulation_s!r}\n"
        "# columns: stream_id,timestamp_ps\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        # Format one block at a time, so no full-length text is ever held.
        for start in range(0, key.size, _WRITE_BLOCK):
            fh.write(_format_records(key[start : start + _WRITE_BLOCK], width, signed))


def _format_records(key: np.ndarray, width: int, signed: bool) -> bytes:
    """Text of the records with keys 2*stamp + id: the stamp in ``width``
    digits, after a sign slot when ``signed``.

    Row j of the (record length, records) matrix holds byte j of every
    record, so each row is filled with one contiguous store.
    """
    rows = np.empty((3 + signed + width, key.size), np.uint8)
    rows[0] = key & 1
    rows[0] += ord("0")
    rows[1] = ord(",")
    if signed:
        rows[2] = np.where(key < 0, ord("-"), ord("0"))
    rows[-1] = ord("\n")
    digits = rows[2 + signed : -1]
    values = np.abs(key >> 1)
    # Eight-digit limbs in uint32, where dividing by 10 is fastest.
    for stop in range(width, 0, -8):
        if stop > 8:
            high = values // 100_000_000
            limb = (values - high * 100_000_000).astype(np.uint32)
            values = high
        else:
            limb = values.astype(np.uint32)
        for j in range(stop - 1, max(stop - 8, 0), -1):
            quotient = limb // 10
            digits[j] = limb - quotient * 10
            limb = quotient
        digits[max(stop - 8, 0)] = limb
    digits += ord("0")
    return rows.T.tobytes()


def read_timetags(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a time-tag file back into (trigger, partner) streams in ns.

    The first line must be ``# sfwm-timetags v2``; the ``#`` lines that
    follow it end the header.  Every later line is a record of the first
    record's length: ``[01],`` and a timestamp in ps below 2^63 in
    magnitude, ``-?[0-9]+`` of at most 20 characters, then LF.  The body is
    read in blocks of whole records, each parsed as one (records, length)
    array.  Any other line, a truncated last record among them, is a
    UsageError that names it; so is a v1 file.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        if first.startswith(b"# sfwm-timetags v1"):
            raise UsageError(
                f"{path} is a v1 time-tag file, which is no longer read: "
                "write it again with `sfwm synth --timetags`"
            )
        if first != f"# {TIMETAG_FORMAT}\n".encode():
            raise UsageError(f"{path} is not a recognized time-tag file")
        line, record = 2, fh.readline()
        while record.startswith(b"#"):
            line, record = line + 1, fh.readline()
        size = len(record)
        block = size * max(_READ_CHUNK // max(size, 1), 1)
        chunk = record + fh.read(block - size)
        ids, stamps = [], []
        while chunk:
            n = len(chunk) // size
            rows = np.frombuffer(chunk, np.uint8, n * size).reshape(n, size)
            bad = _parse_records(rows, ids, stamps) if n else 0
            if bad < 0 and n * size < len(chunk):
                bad = n  # a truncated last record
            if bad >= 0:
                shown = chunk[bad * size : (bad + 1) * size].split(b"\n")[0][:40]
                raise UsageError(
                    f"{path}, line {line + bad}: malformed time-tag record "
                    f"{shown.decode(errors='replace')!r} (want a line of {size - 1} characters: "
                    "a stream id 0 or 1, a comma and a zero-padded timestamp below 2^63 ps)"
                )
            line += n
            chunk = fh.read(block)
    if not stamps:
        return np.empty(0), np.empty(0)
    ids = np.concatenate(ids)
    stamps = np.concatenate(stamps)
    # The file is in time order, which the stable sort finds in linear time;
    # dividing after sorting gives the same floats as sorting after.
    return tuple(np.sort(np.compress(ids == i, stamps), kind="stable") / 1e3 for i in (0, 1))


def _parse_records(rows: np.ndarray, ids: list, stamps: list) -> int:
    """Parse the records of a (records, record length) byte array; append
    their ids and stamps to the lists and return -1, or return the first
    bad row."""
    count = rows.shape[1] - 3  # timestamp characters
    if not 1 <= count <= 20:
        return 0
    sign = rows[:, 2] == ord("-")
    # Digit j of every record in row j, so each step reads contiguous bytes.
    digits = np.array(rows[:, 2:-1].T, order="C")
    digits -= ord("0")
    digits[0, sign] = 0
    stream = rows[:, 0] - ord("0")
    # Eight-digit limbs in uint32, then the value in uint64: 19 digits fit.
    value = np.zeros(len(rows), np.uint64)
    start = 0
    for stop in range(count % 8 or 8, count + 1, 8):
        limb = digits[start].astype(np.uint32)
        for j in range(start + 1, stop):
            limb *= 10
            limb += digits[j]
        value = value * 10 ** (stop - start) + limb
        start = stop
    bad = (stream > 1) | (rows[:, 1] != ord(",")) | (rows[:, -1] != ord("\n")) | (value >= 2**63)
    if count == 1:
        bad |= sign  # no digit
    elif count == 20:
        bad |= digits[0] != 0  # 20 digits, which may wrap in uint64
    if digits.max() > 9:
        bad |= (digits > 9).any(axis=0)
    if bad.any():
        return int(np.argmax(bad))
    value = value.view(np.int64)
    np.negative(value, out=value, where=sign)
    ids.append(stream)
    stamps.append(value)
    return -1
