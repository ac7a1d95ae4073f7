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
and the delay grids are uniform.  Where the spacing h and the delay step s
satisfy h*s = 2*pi/M for an integer M, the sum over the grid folds modulo M
into one FFT of length M; on any other grid it is a chirp-z transform,
computed exactly by Bluestein's convolution with FFTs.  Narrowband
etalon filters multiply A by a single-pole amplitude response per etalon, so
the squared magnitude of each factor is a Lorentzian of the stated FWHM.

The spectral grid is exactly antisymmetric, delta[::-1] == -delta.  Under
either Doppler rule the self response is anti-conjugate in delta,
Z(-delta) = -conj Z(delta) (see physics._averaged_pair), so the
phase-matching factor is conjugate and is evaluated on delta >= 0 only; the
cross response has no such symmetry and is formed at every detuning.

Three one-entry memos hold the arrays that do not depend on the medium or
the drive, so a sweep over powers on one grid builds them once; each array
is read-only.  _grid_delta holds a SpectralGrid's detunings, keyed on its
half-width and count.  _synthesis holds the plan of the Fourier
synthesis, for either transform: its length, the trapezoid weights times
the onset phase (and the chirp), and the chirp-z transform's kernel
spectrum, keyed on the grid count and spacing, the delay count, the
spacing product and the phase offset spacing*(first delay - onset).
_etalon_response holds the product of the etalon responses, keyed on the
grid and the etalon chain.

On a grid of spacing h the sum returns the periodized amplitude
y(t) + y(t + P) + ... of the arguments t = tau - onset, with period P = 2*pi/h.
The slowest amplitude decay is exp(-gamma*t), with gamma the ground-state
decoherence, so a copy adds about 2*exp(-gamma*P) relative error to g2, its
area and its peak.  :func:`predict_packet` therefore locks the spacing to
the delay bin: P = M*s and h = 2*pi/P, with M the smallest integer such
that P holds the delays counted from the onset and 20/gamma past the first
argument.  The window is K = ceil(half_width/h) whole steps, 2K + 1
samples.  Where those would pass the scenario grid's count, and at
gamma = 0, the scenario grid is used as given, and its packet is a chirp-z
transform; at gamma > 0 a copy of that packet must still be at most
EDGE_DECAY_TOL of it, else AliasingError.  It also widens the window, at
the same spacing and with the count doubled, while |A| has not decayed at
its edges.

Each run value (the etalon chain, the onset, the detector response time)
reaches a stage as an argument without a default; predict_packet reads it
from a Scenario, whose config holds its one default.

Ownership: each stage writes only into arrays it allocated itself, never
into its arguments or into a memo entry, and returns arrays that no other
call holds (apply_etalons returns a new amplitude).  Inside a stage the
arithmetic lands in place, through ufunc ``out=``, ``*=`` and ``/=``, mask
assignment and numpy.fft's ``out=``.  The reason is the allocator: in a
fresh process each transient grid-sized array faults in new pages, since
freed pages go back to the system, and a sweep would pay that for every
power.  Each operation keeps its operands and their order, so results are
bit-identical to the expression in the comment beside the code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AliasingError, DomainError, GridTooNarrowError, UsageError
from .physics import DopplerQuadrature, DriveParams, MediumParams, _averaged_pair, _frozen, _unfold
from .units import frequency_to_hz, time_from_ns, time_to_ns

if TYPE_CHECKING:
    from .config import Scenario

# Edge-decay requirement on |A| relative to its peak.
EDGE_DECAY_TOL = 1e-3
# Fewest samples of any spectral grid.
MIN_COUNT = 1024
# Most samples of any spectral grid: the default grid's 32768 widened four
# times.  A packet on it takes about 80 MB.
MAX_COUNT = 1 << 19
# Decay margin gamma*P of predict_packet's grid, where P = 2*pi/spacing is
# the period of the synthesized packet.  The aliased copy y(tau + P) adds about
# 2*exp(-gamma*P) relative error to g2: 4e-9 at a margin of 20.
ALIAS_DECAY_MARGIN = 20.0
# Doublings of the window tried when |A| has not decayed at its edges.
MAX_WIDENINGS = 4
# Longest delay axis built (25.6 ms of 25.6 ns bins); past it the axis alone
# would take gigabytes.
MAX_DELAY_BINS = 1_000_000


@functools.lru_cache(maxsize=1)
def _grid_delta(half_width: float, count: int) -> np.ndarray:
    """Read-only detunings of SpectralGrid(half_width, count).  One entry:
    the last grid."""
    delta = np.linspace(-half_width, half_width, count)
    if count % 2:
        delta[count // 2] = 0.0
    delta[: count // 2] = -delta[: (count - 1) // 2 : -1]
    delta.flags.writeable = False
    return delta


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform, symmetric detuning grid for the pair amplitude (Gamma units).

    The cross response falls off only as 1/delta out to the Doppler width, so
    the window must be much wider than the transparency feature it resolves;
    the default covers +-64 Gamma with a spacing fine enough for sub-MHz
    features.  Sampled directly, the grid has ``count`` samples; as a
    scenario's grid, ``count`` is the most that :func:`predict_packet` may
    use on this window: it locks its own spacing to the delay bin, or uses
    this grid as given where the locked grid would need more samples.
    A count must be an integer in [MIN_COUNT, MAX_COUNT].
    """

    half_width: float = 64.0
    count: int = 32768

    def __post_init__(self):
        if not (isinstance(self.count, (int, np.integer)) and MIN_COUNT <= self.count <= MAX_COUNT):
            raise UsageError(
                f"grid count {self.count!r} is not within {MIN_COUNT} to {MAX_COUNT} samples"
            )
        # Written so that nan fails every comparison.
        if not 0.0 < self.half_width < math.inf:
            raise UsageError("half_width must be finite and positive")

    @property
    def delta(self) -> np.ndarray:
        """The samples of np.linspace over +-half_width, made exactly
        antisymmetric: the lower half mirrors the upper, and an odd count
        has delta = 0 at its midpoint.  Read-only, and shared by grids of
        the same half-width and count."""
        return _grid_delta(self.half_width, self.count)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.count - 1)


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


def _check_delay_grid(t: np.ndarray, bin_ns: float, name: str) -> None:
    """Raise UsageError, naming the grid as ``name``, unless ``t`` increases
    in finite steps equal to the first, ``bin_ns`` is finite and positive,
    and the first step is ``bin_ns``.  Steps agree within rtol = atol =
    1e-9, the test of np.allclose.  Fewer than two samples pass the step
    tests."""
    first = float(t[1] - t[0]) if t.size >= 2 else bin_ns
    tol = 1e-9 + 1e-9 * abs(first)
    # Written so that nan fails every comparison.
    if t.size >= 2 and not (0.0 < first < math.inf and np.abs(np.diff(t) - first).max() <= tol):
        raise UsageError(f"{name} must be uniform and increasing")
    if not 0.0 < bin_ns < math.inf:
        raise UsageError(f"bin width must be finite and positive, got {bin_ns!r}")
    if not abs(bin_ns - first) <= tol:
        raise UsageError(f"bin width {bin_ns!r} ns differs from the {name} step {first!r} ns")


@dataclass(frozen=True, eq=False)
class WavePacket:
    """Unnormalized two-photon correlation G2 on a delay grid in steps of
    ``bin_ns`` (ns), a read-only record of read-only copies of the arrays
    given.  The delays pass _check_delay_grid and the values are finite and
    nonnegative, else UsageError."""

    tau_ns: np.ndarray
    g2: np.ndarray
    bin_ns: float

    def __post_init__(self):
        object.__setattr__(self, "tau_ns", _frozen(self.tau_ns))
        _check_delay_grid(self.tau_ns, self.bin_ns, "delay grid")
        self._set_g2(self.g2)

    def _set_g2(self, g2) -> WavePacket:
        """Hold a read-only copy of the values ``g2``, checked; return this packet."""
        g2 = _frozen(g2)
        if g2.size != self.tau_ns.size:
            raise UsageError("tau and g2 lengths differ")
        if not (np.isfinite(g2).all() and (g2 >= 0).all()):
            raise UsageError("correlation values must be finite and nonnegative")
        object.__setattr__(self, "g2", g2)
        return self

    def _with_g2(self, g2) -> WavePacket:
        """This packet's delays, not checked again, with the values ``g2``, checked."""
        packet = object.__new__(WavePacket)
        packet.__dict__.update(self.__dict__)
        return packet._set_g2(g2)

    def __reduce__(self):
        # Copies and unpickled packets are built again: checked, and read-only.
        return WavePacket, (self.tau_ns, self.g2, self.bin_ns)


def _phase_matching(z: np.ndarray) -> np.ndarray:
    """sinc(z) * exp(iz) as expm1(2iz)/(2iz).

    Where expm1 returns 2iz itself (z = 0, or |z| so small that the quotient
    is 1 to rounding) the factor is 1; that also keeps numpy's complex
    division off subnormal divisors, whose reciprocal overflows.
    """
    w = 2j * z
    e = np.expm1(w)
    same = e == w
    w[same] = 1.0
    e /= w
    e[same] = 1.0
    return e


def averaged_susceptibilities(
    grid: SpectralGrid,
    m: MediumParams,
    d: DriveParams,
    q: DopplerQuadrature | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Doppler-averaged cross and self responses on the spectral grid.

    Returns (cross_avg, self_avg).  The self average Z is what the
    phase-matching factor expm1(2iZ)/(2iZ) acts on; it is exactly linear in
    the Stokes optical depth.  The average is exact in closed form where
    ``q`` is None; a quadrature selects the trapezoidal reference rule.
    """
    return _averaged_pair(grid.delta, m, d, q)


def spectral_amplitude(
    grid: SpectralGrid,
    m: MediumParams,
    d: DriveParams,
    q: DopplerQuadrature | None,
) -> BiphotonAmplitude:
    """Assemble the pair amplitude A = C * expm1(2iZ)/(2iZ) on the grid.

    Raises GridTooNarrowError if the amplitude has not decayed below
    EDGE_DECAY_TOL of its peak at the grid edges (a zero amplitude, as with
    omega_p = 0, passes trivially), and DomainError where the cross response
    overflows, as it does at decay rates far past any vapor's.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # A = C * expm1(2iZ)/(2iZ), formed in the array of the cross response C.
        values, self_ = averaged_susceptibilities(grid, m, d, q)
        # Z is anti-conjugate in delta, so the factor is conjugate.
        values *= _unfold(_phase_matching(self_[grid.count // 2 :]), grid.count, 1.0)
    amp = BiphotonAmplitude(grid, values)
    peak = float(np.abs(amp.values).max())
    if peak > 0.0:
        edge = max(abs(amp.values[0]), abs(amp.values[-1])) / peak
        if edge > EDGE_DECAY_TOL:
            raise GridTooNarrowError(
                f"|A| at the grid edge is {edge:.3e} of its peak "
                f"(limit {EDGE_DECAY_TOL:.1e}); increase SpectralGrid.half_width"
            )
    return amp


@functools.lru_cache(maxsize=1)
def _etalon_response(grid: SpectralGrid, e: EtalonChain) -> np.ndarray:
    """Read-only product of the etalons' responses on the grid.  One entry:
    the last grid and chain."""
    f_hz = frequency_to_hz(grid.delta)
    response = np.ones(grid.count, dtype=complex)
    offset = np.empty(grid.count)
    pole = np.empty(grid.count, dtype=complex)
    for fwhm, center in zip(e.fwhm_hz, e.centers_hz):
        # response /= 1 - 2i*(f - center)/FWHM
        np.subtract(f_hz, center, out=offset)
        np.multiply(2j, offset, out=pole)
        pole /= fwhm
        np.subtract(1.0, pole, out=pole)
        response /= pole
    response.flags.writeable = False
    return response


def apply_etalons(a: BiphotonAmplitude, e: EtalonChain) -> BiphotonAmplitude:
    """Filter the amplitude through ``e``, a scenario's etalon chain.

    Each etalon contributes the causal single-pole response
    1 / (1 - 2i*(f - center)/FWHM), whose squared magnitude is a unit-peak
    Lorentzian of the given FWHM; physical filters act on the field.
    Filtering only sharpens the edge decay, so no recheck is needed.
    """
    return BiphotonAmplitude(a.grid, a.values * _etalon_response(a.grid, e))


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


def _fold_period(b: float, n_delta: int, n_tau: int) -> int:
    """The period M, in delay bins, of a synthesis whose spacing product
    b = h*s is 2*pi/M to 1e-12 relative, or 0 where there is none.

    M must hold the n_tau delays, and stay below n_delta + n_tau, the least
    length of the chirp-z transform: the fold's one FFT is then shorter than
    each of the chirp-z transform's two, and a grid of few samples on a long
    period does not build a long, mostly empty FFT.
    """
    turns = 2.0 * np.pi / b if b > 0.0 else math.inf
    # Also false for inf, which round() cannot take.
    if not turns < n_delta + n_tau:
        return 0
    period = round(turns)
    return period if period >= n_tau and abs(turns - period) <= 1e-12 * turns else 0


@functools.lru_cache(maxsize=1)
def _synthesis(
    n_delta: int, n_tau: int, h: float, b: float, shift: float
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Read-only plan of the synthesis of n_tau delays from n_delta samples
    of spacing h at the spacing product b: (M, factors, None) where
    _fold_period finds a period M, else the chirp-z transform's (size,
    chirp, kernel spectrum).  One entry: the last grid, delay axis and onset.

    The factors are w_k*exp(-i*c_k*(shift + q*c_k)) over the centered
    indices c_k = k - (n_delta - 1)/2, with w_k the trapezoid weights of
    spacing h over 2*pi, q = 0 for the fold and q = b/2 for the chirp.  The
    kernel spectrum is the FFT of the Bluestein kernel
    exp(i*b*(lag + (n_delta - 1)/2)^2/2) over the circular lags from
    -(n_delta - 1) to n_tau - 1.
    """
    period = _fold_period(b, n_delta, n_tau)
    centered = np.arange(n_delta, dtype=float)
    centered -= 0.5 * (n_delta - 1)
    # factors = exp(-i*centered * (shift + q*centered))
    phase = np.multiply(0.0 if period else 0.5 * b, centered)
    np.add(shift, phase, out=phase)
    factors = np.multiply(-1j, centered)
    factors *= phase
    np.exp(factors, out=factors)
    factors *= h / (2.0 * np.pi)
    factors[[0, -1]] *= 0.5
    factors.flags.writeable = False
    if period:
        return period, factors, None
    size = _next_fast_len(n_delta + n_tau - 1)
    # spectrum = fft(exp(i*b*(lag + (n_delta - 1)/2)^2/2))
    lag = np.arange(size, dtype=float)
    lag[n_tau:] -= size
    lag += 0.5 * (n_delta - 1)
    np.square(lag, out=lag)
    spectrum = np.multiply(0.5j * b, lag)
    np.exp(spectrum, out=spectrum)
    np.fft.fft(spectrum, out=spectrum)
    spectrum.flags.writeable = False
    return size, factors, spectrum


def wavepacket(a: BiphotonAmplitude, tau_ns, onset_ns: float) -> WavePacket:
    """Fourier-synthesize G2 on a uniform delay grid (ns).

    ``onset_ns``, a scenario's ``onset_ns``, shifts the packet to later
    delays, standing in for the fixed instrumental delay between the trigger
    and the partner photon; samples before the onset probe the (essentially
    empty) negative-delay branch.

    The quadrature is valid only while one grid step of the spectral grid
    cannot wind through a full phase turn over the delay span or over any
    argument tau - onset; otherwise an AliasingError is raised.  Where the
    spacings h and s have a period M that _fold_period accepts, as on
    :func:`predict_packet`'s grids, the sum folds into one FFT of length M;
    on any other grid it is a chirp-z transform.
    """
    tau_ns = np.asarray(tau_ns, dtype=float)
    if tau_ns.size < 2:
        raise UsageError("delay grid needs at least two samples")
    # The packet's constructor checks the delay grid; g2 is filled in below.
    packet = WavePacket(tau_ns, np.zeros(tau_ns.size), float(tau_ns[1] - tau_ns[0]))
    if not math.isfinite(onset_ns):
        raise UsageError(f"onset must be finite, got {onset_ns!r} ns")
    h = a.grid.spacing
    span = time_from_ns(float(tau_ns[-1] - tau_ns[0]))
    tau0 = time_from_ns(float(tau_ns[0]) - onset_ns)
    reach = max(span, tau0 + span, -tau0)
    if h * reach > 2.0 * np.pi:
        raise AliasingError(
            f"spectral spacing {h:.3e} Gamma cannot support delays reaching "
            f"{time_to_ns(reach):.4g} ns from the onset; use more samples"
        )

    # With delta_k = delta_c + (k - c)*h about the grid midpoint c and
    # tau_j = tau_0 + j*s, the phase delta_k*tau_j is delta_c*tau_j plus
    # (k - c)*h*tau_0 plus b*(k - c)*j with b = h*s.  Terms in j alone are a
    # phase of each output and drop out of |.|^2.
    n_tau = tau_ns.size
    b = h * span / (n_tau - 1)
    n_delta = a.grid.count
    size, factors, kernel = _synthesis(n_delta, n_tau, h, b, h * tau0)
    # The weighted amplitude, zero-padded to whole rows of the transform
    # length; the chirp-z transform is longer than the grid, so one row.
    rows = -(-n_delta // size)
    y = np.empty(rows * size, dtype=complex)
    np.multiply(a.values, factors, out=y[:n_delta])
    y[n_delta:] = 0.0
    if kernel is None:
        # b*k*j = 2*pi*k*j/M depends on k only modulo M, so the weighted terms
        # sum into M residues and one FFT of length M gives every output:
        # y = fft((a.values * factors, zero-padded).reshape(-1, M).sum(0))[:n_tau]
        y = y.reshape(rows, size).sum(axis=0)
        np.fft.fft(y, out=y)
    else:
        # (k - c)*j = ((k - c)^2 + j^2 - (j - k + c)^2)/2, so what remains is a
        # convolution over k of the chirped amplitude with the kernel
        # exp(i*b*(j - k + c)^2/2), done by FFT on a circular buffer of the
        # lags j - k from -(n_delta - 1) to n_tau - 1:
        # y = ifft(fft(a.values * chirp, size) * kernel)[:n_tau], in one buffer
        np.fft.fft(y, out=y)
        y *= kernel
        np.fft.ifft(y, out=y)
    y = y[:n_tau]
    # g2 = y.real**2 + y.imag**2
    g2 = np.square(y.real)
    g2 += np.square(y.imag, out=y.imag)
    return packet._with_g2(g2)


def _locked_spacing(gamma: float, n_tau: int, step: float, first: float) -> float:
    """Spacing h = 2*pi/(M*step) of predict_packet's grids for n_tau delays
    in steps of ``step`` (1/Gamma), the first ``first`` past the onset, or
    0.0 where there is none.

    On it the packet repeats after M delay bins.  M is the smallest integer
    with M >= n_tau + max(first, 0)/step, so each copy y(t - P) of an
    argument t = tau - onset falls before the onset, where the packet is
    empty, and M*step >= ALIAS_DECAY_MARGIN/gamma - first, the decay margin
    past the first argument.  Without decoherence nothing bounds the period;
    past 2**53 bins M is not exact in floats, and on a step so small that h
    overflows there is no grid.
    """
    if not gamma > 0.0:
        return 0.0
    bins = max(n_tau, n_tau + first / step, (ALIAS_DECAY_MARGIN / gamma - first) / step)
    # Also false for inf.
    if not bins < 2.0**53:
        return 0.0
    h = 2.0 * np.pi / (math.ceil(bins) * step)
    return h if h < math.inf else 0.0


def _locked_grid(half_width: float, h: float, cap: int) -> SpectralGrid:
    """The grid of 2K + 1 samples at spacing h, K = ceil(half_width/h) but at
    least MIN_COUNT // 2: its window is half_width rounded up to whole steps.

    Where that grid would pass ``cap``, or h is 0.0, it is the cap's own,
    SpectralGrid(half_width, cap), on which the packet is a chirp-z
    transform.
    """
    steps = half_width / h if h > 0.0 else math.inf
    # Also false for inf.
    if steps < cap // 2:
        k = max(math.ceil(steps), MIN_COUNT // 2)
        if 2 * k + 1 <= cap:
            return SpectralGrid(k * h, 2 * k + 1)
    return SpectralGrid(half_width, cap)


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
    delay grid is checked first: at least two samples, uniform and
    increasing, else UsageError.  The spectral spacing is locked to the
    delay step and the onset by _locked_spacing, and each grid covers its
    window in whole steps, within ``scenario.grid``'s count; where the locked
    grid would pass that count, the grid is that count over the window, as
    given.  Strong coupling spreads the amplitude tail: while |A| has not
    decayed at the window edges, the window doubles, with the count cap
    doubled and at the same spacing, up to MAX_WIDENINGS times, skipping a
    window whose grid repeats the last.  Raises GridTooNarrowError if the
    widest window still fails, and UsageError if a widened count would
    pass MAX_COUNT.  At gamma > 0 it raises AliasingError, after
    wavepacket's own check, unless a copy of the packet is at most
    EDGE_DECAY_TOL of it: gamma*(P + first) >= ln(1/EDGE_DECAY_TOL), with
    P = 2*pi/spacing and first the first delay past the onset.  Only a grid
    used as given can fail, since a locked one keeps ALIAS_DECAY_MARGIN.
    """
    m, d, start = scenario.medium, scenario.drive, scenario.grid
    tau_ns = np.asarray(tau_ns, dtype=float)
    if tau_ns.size < 2:
        raise UsageError("delay grid needs at least two samples")
    _check_delay_grid(tau_ns, float(tau_ns[1] - tau_ns[0]), "delay grid")
    step = time_from_ns(float(tau_ns[-1] - tau_ns[0])) / (tau_ns.size - 1)
    first = time_from_ns(float(tau_ns[0]) - scenario.onset_ns)
    h = _locked_spacing(m.gamma, tau_ns.size, step, first)
    last = None
    for widening in range(MAX_WIDENINGS + 1):
        grid = _locked_grid(start.half_width * 2**widening, h, start.count << widening)
        if grid == last:  # both windows within the 1025-sample floor
            continue
        last = grid
        try:
            amp = spectral_amplitude(grid, m, d, scenario.q)
            break
        except GridTooNarrowError as exc:
            # Its traceback would hold the failed window's arrays.
            narrow = exc.with_traceback(None)
    else:
        raise narrow
    packet = wavepacket(apply_etalons(amp, scenario.etalons), tau_ns, onset_ns=scenario.onset_ns)
    period = 2.0 * np.pi / amp.grid.spacing
    if m.gamma > 0.0 and m.gamma * (period + first) < math.log(1.0 / EDGE_DECAY_TOL):
        raise AliasingError(
            f"the {amp.grid.count}-sample grid repeats the packet every {time_to_ns(period):.5g} ns, "
            f"leaving copies above {EDGE_DECAY_TOL:.1e} of it; increase [grid] count"
        )
    return packet


def wavepacket_area(w: WavePacket) -> float:
    """Trapezoidal integral of g2 over delay.

    Proportional to the pair generation rate for rate-normalized packets.
    """
    return float(np.trapezoid(w.g2, w.tau_ns))


def rise_time_convolve(w: WavePacket, rc_ns: float) -> WavePacket:
    """Convolve with the causal detector response (1/rc)*exp(-t/rc), t >= 0,
    of response time ``rc_ns``, a scenario's ``rise_ns``.

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
    return w._with_g2(np.convolve(w.g2, kernel)[: w.g2.size])
