"""Two-photon spectral amplitude and time-domain wave packet.

For each two-photon detuning ``delta`` the Doppler-averaged cross and self
responses C(delta) and Z(delta) combine into the pair amplitude

    A(delta) = C(delta) * sinc(Z(delta)) * exp(i * Z(delta)),

with the complex sinc(z) = sin(z)/z.  That phase-matching factor is
evaluated as expm1(2iZ)/(2iZ), the integral of exp(2iZt) over 0 <= t <= 1,
so Im Z >= 0 keeps it finite with magnitude at most 1 at any finite optical
depth.  The delay-time wave packet is its squared Fourier transform,

    G2(tau) = | (1/2pi) * integral d(delta) exp(-i*delta*tau) A(delta) |^2,

evaluated by trapezoidal quadrature on the spectral grid.  Both the spectral
and the delay grids are uniform, so the sum over the grid is a chirp-z
transform, computed exactly by Bluestein's convolution with FFTs.  The
kernel spectrum of that convolution depends only on the grid count, the
delay-axis length and the product of their spacings; it is memoized for one
such triple, so a sweep over powers on one grid computes it once.  Narrowband
etalon filters multiply A by a single-pole amplitude response per etalon, so
the squared magnitude of each factor is a Lorentzian of the stated FWHM.

On a grid of spacing h the sum returns the periodized amplitude
y(tau) + y(tau + P) + ... with period P = 2*pi/h.  The slowest amplitude decay
is exp(-gamma*t), with gamma the ground-state decoherence, so the aliased copy
adds about 2*exp(-gamma*P) relative error to g2, its area and its peak.
:func:`predict_packet`, the one path from a scenario to a filtered
packet, therefore sizes the grid from the scenario unless given a count:
P >= max(delay span, 20/gamma), so count = the smallest 7-smooth integer not
below 1 + half_width*P/pi, capped at the 32768 samples of the default grid
(and at that cap when gamma = 0).  It also widens the window while |A| has
not decayed at its edges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AliasingError, DomainError, GridTooNarrowError, UsageError
from .physics import DopplerQuadrature, DriveParams, MediumParams, _averaged_pair
from .units import DEFAULT_UNITS

if TYPE_CHECKING:
    from .config import Scenario

# Default edge-decay requirement on |A| relative to its peak.
EDGE_DECAY_TOL = 1e-3
# Samples of the default grid; a derived count never exceeds it on the window
# it starts from.
DEFAULT_COUNT = 32768
# Decay margin gamma*P of the derived grid, where P = 2*pi/spacing is the
# period of the synthesized packet.  The aliased copy y(tau + P) adds about
# 2*exp(-gamma*P) relative error to g2: 4e-9 at a margin of 20.
ALIAS_DECAY_MARGIN = 20.0
# Doublings of the window tried when |A| has not decayed at its edges.
MAX_WIDENINGS = 4
# Longest delay axis built (25.6 ms of 25.6 ns bins); past it the axis alone
# would take gigabytes.
MAX_DELAY_BINS = 1_000_000


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform, symmetric detuning grid for the pair amplitude (Gamma units).

    The cross response falls off only as 1/delta out to the Doppler width, so
    the window must be much wider than the transparency feature it resolves;
    the default covers +-64 Gamma with a spacing fine enough for sub-MHz
    features.  A ``count`` of None leaves the number of samples to
    :func:`predict_packet`, which derives it from the scenario; such a grid
    cannot be sampled directly.
    """

    half_width: float = 64.0
    count: int | None = DEFAULT_COUNT

    def __post_init__(self):
        if self.count is not None and self.count < 1024:
            raise UsageError("spectral grid needs at least 1024 samples")
        # Written so that nan fails every comparison.
        if not 0.0 < self.half_width < math.inf:
            raise UsageError("half_width must be finite and positive")

    def _samples(self) -> int:
        if self.count is None:
            raise UsageError("grid count is derived per scenario; sample it through predict_packet")
        return self.count

    @property
    def delta(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self._samples())

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self._samples() - 1)


@dataclass(eq=False)
class BiphotonAmplitude:
    """Complex pair amplitude A(delta) sampled on a spectral grid."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.size != self.grid.count:
            raise UsageError("amplitude length does not match grid count")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("amplitude contains non-finite values")


@dataclass(frozen=True)
class EtalonChain:
    """Series of Lorentzian-line etalon filters, ordinary-frequency units."""

    fwhm_hz: tuple[float, ...] = (45e6, 60e6)
    centers_hz: tuple[float, ...] = (0.0, 0.0)

    def __post_init__(self):
        if len(self.fwhm_hz) != len(self.centers_hz):
            raise UsageError("need one center per etalon FWHM")
        if not all(0.0 < f < math.inf for f in self.fwhm_hz):
            raise UsageError("etalon FWHM must be finite and positive")
        if not all(abs(c) < math.inf for c in self.centers_hz):
            raise UsageError("etalon centers must be finite")


DEFAULT_ETALONS = EtalonChain()


def _is_uniform(t) -> bool:
    """Whether the steps of ``t`` (two or more samples) are finite and equal
    to the first within rtol = atol = 1e-9, the test of np.allclose."""
    steps = t[1:] - t[:-1]
    first = float(steps[0])
    tol = 1e-9 + 1e-9 * abs(first)
    return math.isfinite(first) and bool(np.abs(steps - first).max() <= tol)


@dataclass(eq=False)
class WavePacket:
    """Unnormalized two-photon correlation G2 on a uniform delay grid (ns)."""

    tau_ns: np.ndarray
    g2: np.ndarray
    bin_ns: float

    def __post_init__(self):
        self.tau_ns = np.asarray(self.tau_ns, dtype=float)
        self.g2 = np.asarray(self.g2, dtype=float)
        if self.tau_ns.size != self.g2.size:
            raise UsageError("tau and g2 lengths differ")
        tau = self.tau_ns
        if tau.size >= 2 and not (tau[1] > tau[0] and _is_uniform(tau)):
            raise UsageError("delay grid must be uniform and increasing")
        if np.any(self.g2 < 0):
            raise UsageError("correlation values must be nonnegative")


def _phase_matching(z: np.ndarray) -> np.ndarray:
    """sinc(z) * exp(iz) as expm1(2iz)/(2iz).

    Where expm1 returns 2iz itself (z = 0, or |z| so small that the quotient
    is 1 to rounding) the factor is 1; that also keeps numpy's complex
    division off subnormal divisors, whose reciprocal overflows.
    """
    w = 2j * z
    e = np.expm1(w)
    same = e == w
    return np.where(same, 1.0, e / np.where(same, 1.0, w))


def averaged_susceptibilities(
    grid: SpectralGrid,
    m: MediumParams,
    d: DriveParams,
    q: DopplerQuadrature | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Doppler-averaged cross and self responses on the spectral grid.

    Returns (cross_avg, self_avg).  The self average Z is what the
    phase-matching factor expm1(2iZ)/(2iZ) acts on; it is exactly linear in
    the Stokes optical depth.  The average is exact in closed form unless a
    quadrature is given, which selects the trapezoidal reference rule.
    """
    return _averaged_pair(grid.delta, m, d, q)


def spectral_amplitude(
    grid: SpectralGrid,
    m: MediumParams,
    d: DriveParams,
    q: DopplerQuadrature | None = None,
    edge_tol: float = EDGE_DECAY_TOL,
) -> BiphotonAmplitude:
    """Assemble the pair amplitude A = C * expm1(2iZ)/(2iZ) on the grid.

    Raises GridTooNarrowError if the amplitude has not decayed below
    ``edge_tol`` of its peak at the grid edges (a zero amplitude, as with
    omega_p = 0, passes trivially), and DomainError where the cross response
    overflows, as it does at decay rates far past any vapor's.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cross, self_ = averaged_susceptibilities(grid, m, d, q)
        values = cross * _phase_matching(self_)
    amp = BiphotonAmplitude(grid, values)
    peak = float(np.abs(amp.values).max())
    if peak > 0.0:
        edge = max(abs(amp.values[0]), abs(amp.values[-1])) / peak
        if edge > edge_tol:
            raise GridTooNarrowError(
                f"|A| at the grid edge is {edge:.3e} of its peak "
                f"(limit {edge_tol:.1e}); increase SpectralGrid.half_width"
            )
    return amp


def apply_etalons(a: BiphotonAmplitude, e: EtalonChain = DEFAULT_ETALONS) -> BiphotonAmplitude:
    """Filter the amplitude through the etalon chain.

    Each etalon contributes the causal single-pole response
    1 / (1 - 2i*(f - center)/FWHM), whose squared magnitude is a unit-peak
    Lorentzian of the given FWHM; physical filters act on the field.
    Filtering only sharpens the edge decay, so no recheck is needed.
    """
    f_hz = DEFAULT_UNITS.frequency_to_hz(a.grid.delta)
    values = a.values.copy()
    for fwhm, center in zip(e.fwhm_hz, e.centers_hz):
        values = values / (1.0 - 2j * (f_hz - center) / fwhm)
    return BiphotonAmplitude(a.grid, values)


def _next_fast_len(n: int) -> int:
    """Smallest 7-smooth integer (2^a 3^b 5^c 7^d) not below ``n``."""
    best = 1 << (n - 1).bit_length()
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:
                size = p3
                while size < n:
                    size *= 2
                best = min(best, size)
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


@functools.lru_cache(maxsize=1)
def _kernel_spectrum(n_delta: int, n_tau: int, b: float) -> tuple[int, np.ndarray]:
    """Transform length and read-only FFT of the Bluestein kernel
    exp(i*b*(lag + (n_delta - 1)/2)^2/2) over the circular lags from
    -(n_delta - 1) to n_tau - 1.  One entry: the last grid and delay axis."""
    size = _next_fast_len(n_delta + n_tau - 1)
    lag = np.arange(size)
    lag = np.where(lag < n_tau, lag, lag - size)
    spectrum = np.fft.fft(np.exp(0.5j * b * (lag + 0.5 * (n_delta - 1)) ** 2))
    spectrum.flags.writeable = False
    return size, spectrum


def wavepacket(a: BiphotonAmplitude, tau_ns, onset_ns: float = 0.0) -> WavePacket:
    """Fourier-synthesize G2 on a uniform delay grid (ns).

    ``onset_ns`` shifts the packet to later delays, standing in for the fixed
    instrumental delay between the trigger and the partner photon; samples
    before the onset probe the (essentially empty) negative-delay branch.

    The quadrature is valid only while one grid step of the spectral grid
    cannot wind through a full phase turn over the delay span; otherwise an
    AliasingError is raised.
    """
    tau_ns = np.asarray(tau_ns, dtype=float)
    if tau_ns.size < 2:
        raise UsageError("delay grid needs at least two samples")
    step = float(tau_ns[1] - tau_ns[0])
    if not (step > 0.0 and _is_uniform(tau_ns)):
        raise UsageError("delay grid must be uniform and increasing")
    if not math.isfinite(onset_ns):
        raise UsageError(f"onset must be finite, got {onset_ns!r} ns")
    span = DEFAULT_UNITS.time_from_ns(float(tau_ns[-1] - tau_ns[0]))
    if a.grid.spacing * span > 2.0 * np.pi:
        raise AliasingError(
            f"spectral spacing {a.grid.spacing:.3e} Gamma cannot support a "
            f"{tau_ns[-1] - tau_ns[0]:.0f} ns delay span; use more samples"
        )

    # With delta_k = delta_c + (k - c)*h about the grid midpoint c and
    # tau_j = tau_0 + j*s, the phase delta_k*tau_j is delta_c*tau_j plus
    # (k - c)*h*tau_0 plus b*(k - c)*j with b = h*s, and
    # (k - c)*j = ((k - c)^2 + j^2 - (j - k + c)^2)/2.  Terms in j alone are a
    # phase of each output and drop out of |.|^2; what remains is a convolution
    # over k of the chirped amplitude with the kernel exp(i*b*(j - k + c)^2/2),
    # done by FFT on a circular buffer of the lags j - k from -(n_delta - 1) to
    # n_tau - 1.
    n_delta, n_tau = a.grid.count, tau_ns.size
    h = a.grid.spacing
    b = h * span / (n_tau - 1)
    centered = np.arange(n_delta) - 0.5 * (n_delta - 1)
    tau0 = DEFAULT_UNITS.time_from_ns(float(tau_ns[0]) - onset_ns)
    w = np.full(n_delta, h / (2.0 * np.pi))
    w[0] *= 0.5
    w[-1] *= 0.5
    chirped = w * a.values * np.exp(-1j * centered * (h * tau0 + 0.5 * b * centered))

    size, kernel = _kernel_spectrum(n_delta, n_tau, b)
    y = np.fft.ifft(np.fft.fft(chirped, size) * kernel)[:n_tau]
    g2 = y.real**2 + y.imag**2
    return WavePacket(tau_ns, g2, step)


def _derived_count(half_width: float, gamma: float, span: float, cap: int) -> int:
    """Samples of a grid over +-half_width whose packet period P = 2*pi/spacing
    covers both the delay span and the decay margin: P >= max(span, 20/gamma).

    The count is the smallest 7-smooth integer not below 1 + half_width*P/pi,
    at least 1024 and at most ``cap``; without decoherence nothing bounds the
    aliased tail, and the cap is used.
    """
    if gamma > 0.0:
        period = max(span, ALIAS_DECAY_MARGIN / gamma)
        need = 1.0 + half_width * period / math.pi
        # Also false for nan.
        if need < cap:
            return min(max(_next_fast_len(math.ceil(need)), 1024), cap)
    return cap


def _check_delay_span(span_ns: float, bin_ns: float, name: str) -> None:
    """Raise UsageError, naming the value as ``name``, unless the span is
    finite and covers at most MAX_DELAY_BINS bins of a finite, positive width.
    """
    if not math.isfinite(span_ns):
        raise UsageError(f"{name} must be finite, got {span_ns!r}")
    if not 0.0 < bin_ns < math.inf:
        raise UsageError(f"bin width must be finite and positive, got {bin_ns!r}")
    if span_ns / bin_ns > MAX_DELAY_BINS:
        raise UsageError(f"{name} {span_ns!r} spans more than {MAX_DELAY_BINS} bins of {bin_ns} ns")


def delay_axis(span_ns: float, bin_ns: float, name: str = "delay span") -> np.ndarray:
    """Delays 0, bin_ns, 2*bin_ns, ... below ``span_ns``, as np.arange builds them.

    Raises UsageError as _check_delay_span does.
    """
    _check_delay_span(span_ns, bin_ns, name)
    return np.arange(0.0, span_ns, bin_ns)


def predict_packet(scenario: Scenario, tau_ns) -> WavePacket:
    """Etalon-filtered wave packet of a scenario on the delay grid ``tau_ns``.

    Reads the scenario's medium, drive, quadrature, etalons and onset.  The
    spectral grid starts from ``scenario.grid``.  A grid without a count gets
    one from _derived_count, capped at DEFAULT_COUNT; a grid with a count is
    used as given.  Strong coupling spreads the amplitude tail: while |A| has
    not decayed at the window edges, the window doubles, up to MAX_WIDENINGS
    times.  A given count doubles with it, keeping the spacing; a derived one
    is derived again with its cap doubled.  Raises GridTooNarrowError if the
    widest window still fails.
    """
    m, d, start = scenario.medium, scenario.drive, scenario.grid
    tau_ns = np.asarray(tau_ns, dtype=float)
    span = DEFAULT_UNITS.time_from_ns(float(tau_ns[-1] - tau_ns[0])) if tau_ns.size else 0.0
    for widening in range(MAX_WIDENINGS + 1):
        half_width = start.half_width * 2**widening
        if start.count is None:
            count = _derived_count(half_width, m.gamma, span, DEFAULT_COUNT << widening)
        else:
            count = start.count << widening
        try:
            amp = spectral_amplitude(SpectralGrid(half_width, count), m, d, scenario.q)
            break
        except GridTooNarrowError:
            if widening == MAX_WIDENINGS:
                raise
    return wavepacket(apply_etalons(amp, scenario.etalons), tau_ns, onset_ns=scenario.onset_ns)


def wavepacket_area(w: WavePacket, baseline: float = 0.0) -> float:
    """Trapezoidal integral of g2 over delay, minus an optional flat baseline.

    Proportional to the pair generation rate for rate-normalized packets.
    """
    return float(np.trapezoid(w.g2 - baseline, w.tau_ns))


def rise_time_convolve(w: WavePacket, rc_ns: float = 35.0) -> WavePacket:
    """Convolve with the causal detector response (1/rc)*exp(-t/rc), t >= 0.

    The discrete kernel is normalized to unit sum, so the packet area is
    preserved up to truncation of the far tail.  A response time below the
    bin width collapses the kernel to a single tap, leaving the packet
    unchanged; meaningful smearing needs bin_ns < rc_ns.
    """
    # Written so that nan fails every comparison.
    if not 0.0 < rc_ns < math.inf:
        raise UsageError(f"response time must be finite and positive, got {rc_ns!r} ns")
    t = delay_axis(20.0 * rc_ns, w.bin_ns, name="rise-time kernel length")
    kernel = np.exp(-t / rc_ns)
    kernel /= kernel.sum()
    smeared = np.convolve(w.g2, kernel)[: w.g2.size]
    return WavePacket(w.tau_ns, smeared, w.bin_ns)
