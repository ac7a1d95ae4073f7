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
from dataclasses import dataclass, field

import numpy as np

from .analysis import background_rate
from .biphoton import WavePacket, _is_uniform
from .errors import UsageError

TIMETAG_FORMAT = "sfwm-timetags v1"
_WRITE_BLOCK = 1 << 16  # records formatted per write call
_MAX_STAMP_NS = 2.0**62 / 1e3  # rounded picosecond stamps stay within int64
# Picosecond stamps at which the sign or the digit count changes.
_WIDTH_EDGES = np.array(
    sorted([1 - 10**k for k in range(1, 19)] + [0] + [10**k for k in range(1, 19)]), np.int64
)
_READ_CHUNK = 1 << 20  # body bytes parsed per step, extended to a line end
_MIN_RUN = 256  # equal-length records parsed in place; shorter runs are gathered
_MAX_RECORD = 22  # "1,-" and 19 digits


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
        if self.delay_ns.size >= 2 and not _is_uniform(self.delay_ns):
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
) -> np.ndarray:
    """Per-bin expected counts for a wave packet under the detection model.

    Exactly one normalization must be chosen: ``success_probability`` scales
    the packet so its total signal counts equal that probability per trigger;
    ``peak_sbr`` pins the peak signal to a multiple of the flat background.
    """
    if (success_probability is None) == (peak_sbr is None):
        raise UsageError("choose exactly one of success_probability, peak_sbr")
    n_triggers = dm.trigger_rate * dm.accumulation_s
    bkg_per_bin = n_triggers * background_rate(p_mw) * (dm.bin_ns * 1e-9)

    total = float(w.g2.sum())
    if success_probability is not None:
        if success_probability < 0:
            raise UsageError("success probability must be nonnegative")
        scale = 0.0 if total == 0.0 else success_probability * n_triggers / total
    else:
        if peak_sbr < 0:
            raise UsageError("peak SBR must be nonnegative")
        peak = float(w.g2.max())
        scale = 0.0 if peak == 0.0 else peak_sbr * bkg_per_bin / peak
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

    n_bkg = rng.poisson(background_rate(p_mw) * duration_s)
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
    # One int64 key per record, 2*stamp + id, orders by stamp and then by id;
    # |stamp| < 2^62 keeps it from overflowing.  Both halves are sorted runs
    # when the streams are, which the stable sort merges in linear time.
    key = np.concatenate(
        [np.round(np.asarray(triggers_ns) * 1e3), np.round(np.asarray(partners_ns) * 1e3)]
    ).astype(np.int64)
    key <<= 1
    key[len(triggers_ns) :] |= 1
    key.sort(kind="stable")
    header = (
        f"# {TIMETAG_FORMAT}\n"
        f"# seed: {dm.seed}\n"
        f"# model: {dm.fingerprint()}\n"
        f"# duration_s: {duration_s!r}\n"
        "# columns: stream_id,timestamp_ps\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        # Format one block at a time, so no full-length text is ever held.
        for start in range(0, key.size, _WRITE_BLOCK):
            block = key[start : start + _WRITE_BLOCK]
            stamps = block >> 1
            # Sorted stamps change sign and digit count only at these cuts.
            cuts = np.searchsorted(stamps, _WIDTH_EDGES).tolist()
            fh.write(
                b"".join(
                    _format_records(block[lo:hi] & 1, stamps[lo:hi])
                    for lo, hi in zip([0] + cuts, cuts + [block.size])
                    if lo < hi
                )
            )


def _format_records(ids: np.ndarray, stamps: np.ndarray) -> bytes:
    """Text of records whose stamps share one sign and one digit count.

    Row j of the (line length, records) matrix holds byte j of every line,
    so each row is filled with one contiguous store.
    """
    first = int(stamps[0])
    sign = first < 0
    width = len(str(abs(first)))
    rows = np.empty((3 + sign + width, ids.size), np.uint8)
    rows[0] = ids
    rows[0] += ord("0")
    rows[1] = ord(",")
    rows[2] = ord("-")  # the first digit row when there is no sign
    rows[-1] = ord("\n")
    digits = rows[2 + sign : -1]
    values = np.abs(stamps)
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

    After the header line, each line is a record ``[01],-?[0-9]{1,19}``
    (stream id, timestamp in ps below 2^63 in magnitude), a ``#`` comment
    or empty; lines end in LF or CRLF.  Any other line is a UsageError that
    names it.  The body is parsed in bounded chunks.
    """
    with open(path, "rb") as fh:
        if TIMETAG_FORMAT.encode() not in fh.readline():
            raise UsageError(f"{path} is not a recognized time-tag file")
        ids, stamps = [], []
        line = 2
        while chunk := fh.read(_READ_CHUNK):
            chunk += fh.readline()
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            line += _parse_lines(path, chunk, line, ids, stamps)
    if not stamps:
        return np.empty(0), np.empty(0)
    ids = np.concatenate(ids)
    stamps = np.concatenate(stamps)
    # The file is in time order, which the stable sort finds in linear time;
    # dividing after sorting gives the same floats as sorting after.
    return tuple(np.sort(stamps[ids == i], kind="stable") / 1e3 for i in (0, 1))


def _parse_lines(path, buf: bytes, first_line: int, ids: list, stamps: list) -> int:
    """Parse whole body lines; append each record's id and stamp to the lists.

    Runs of at least ``_MIN_RUN`` consecutive records of equal length are
    parsed in place as a (lines, line length) view of the buffer.  All other
    records are gathered by length, so the number of steps stays bounded
    however the lengths vary.  Returns the number of lines.
    """
    text = np.frombuffer(buf, np.uint8)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    cr = text[ends - 1] == ord("\r")  # an empty first line reads the final newline
    length = ends - starts - cr
    record = (length > 0) & (text[starts] != ord("#"))
    # Records in a run share this key, so their lines share one stride.
    key = np.where(record, 2 * length + cr, 0)
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    lo, hi = bounds[:-1], bounds[1:]
    in_place = (key[lo] > 0) & (hi - lo >= _MIN_RUN)

    faults = []
    for i, j in zip(lo[in_place].tolist(), hi[in_place].tolist()):
        stride = int(ends[i] - starts[i]) + 1
        view = text[starts[i] : ends[j - 1] + 1].reshape(j - i, stride)[:, : length[i]]
        bad = _parse_records(view, ids, stamps)
        if bad >= 0:
            faults.append(i + bad)

    rest = np.flatnonzero(record & ~np.repeat(in_place, hi - lo))
    rest = rest[np.argsort(length[rest], kind="stable")]
    groups = np.flatnonzero(np.diff(length[rest], prepend=-1, append=-1))
    for g, h in zip(groups[:-1].tolist(), groups[1:].tolist()):
        lines = rest[g:h]
        # One byte past the longest record is enough to reject a longer line.
        width = min(int(length[lines[0]]), _MAX_RECORD + 1)
        bad = _parse_records(text[starts[lines, None] + np.arange(width)], ids, stamps)
        if bad >= 0:
            faults.append(int(lines[bad]))

    if faults:
        k = min(faults)
        shown = buf[starts[k] : starts[k] + min(int(length[k]), 40)].decode(errors="replace")
        raise UsageError(
            f"{path}, line {first_line + k}: malformed time-tag record {shown!r}"
            " (want a stream id 0 or 1, a comma and an integer timestamp below 2^63 ps)"
        )
    return ends.size


def _parse_records(lines: np.ndarray, ids: list, stamps: list) -> int:
    """Parse records of equal length, rows of ``lines``; append their ids
    and stamps to the lists and return -1, or return the first bad row."""
    width = lines.shape[1]
    if not 3 <= width <= _MAX_RECORD:
        return 0
    sign = lines[:, 2] == ord("-")
    # Digit j of every record in row j, so each step reads contiguous bytes.
    digits = np.array(lines[:, 2:].T, order="C")  # a copy, even of one row
    digits -= ord("0")
    digits[0, sign] = 0
    stream = lines[:, 0] - ord("0")
    # Eight-digit limbs in uint32, then the value in uint64: 19 digits fit.
    value = np.zeros(len(lines), np.uint64)
    start = 0
    for stop in range((width - 2) % 8 or 8, width - 1, 8):
        limb = digits[start].astype(np.uint32)
        for j in range(start + 1, stop):
            limb *= 10
            limb += digits[j]
        value = value * 10 ** (stop - start) + limb
        start = stop
    bad = (stream > 1) | (lines[:, 1] != ord(",")) | (value >= 2**63)
    if width == 3:
        bad |= sign  # no digit
    elif width == _MAX_RECORD:
        bad |= ~sign  # 20 digits
    if digits.max() > 9:
        bad |= (digits > 9).any(axis=0)
    if bad.any():
        return int(np.argmax(bad))
    value = value.view(np.int64)
    np.negative(value, out=value, where=sign)
    ids.append(stream)
    stamps.append(value)
    return -1
