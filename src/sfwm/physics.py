"""Microscopic susceptibilities and EIT transmission of the Doppler-broadened vapor.

The medium is a double-Lambda system driven by a far-detuned pump and a
resonant coupling field.  Two dimensionless response functions of the
two-photon detuning ``delta`` and the Doppler shift ``omega_d`` describe it
(all quantities in Gamma units, Gamma3 = Gamma4 = Gamma unless overridden):

    cross(delta, omega_d) = sqrt(alpha_as*alpha_s)*sqrt(G3*G4)/4
                            * Omega_p / (Delta_p - omega_d + i*G4/2)
                            * Omega_c / (Omega_c^2 - 4*(delta + i*gamma)
                                         * (delta + omega_d + i*G3/2))

    self(delta, omega_d)  = alpha_s*G3/2 * (delta + i*gamma)
                            / (Omega_c^2 - 4*(delta + i*gamma)
                               * (delta + omega_d + i*G3/2))

Thermal motion is handled by averaging over the Doppler shift with the
normalized Gaussian weight exp(-omega_d^2/Gamma_D^2)/(sqrt(pi)*Gamma_D).
Both responses are single poles in omega_d (the cross response has a second,
delta-independent pole from the pump detuning), so the average is exact in
closed form through the Faddeeva function w(z):

    <1/(omega_d - z)> = -i*sqrt(pi)/Gamma_D * w(-z/Gamma_D)    for Im z < 0

and by conjugate symmetry for Im z > 0, so w is only needed in the upper half
plane, where Weideman's rational approximation gives it to about 1e-14
relative.  Its degree-35 polynomial is evaluated in Paterson-Stockmeyer
blocks, one small real matrix product per chunk of 2048 points; the chunk
keeps that product on OpenBLAS's single-threaded path and the work buffers
a fixed size on large grids.  That closed form is the default; an explicit
:class:`DopplerQuadrature` selects the uniform trapezoidal reference rule
instead; the rules differ only in :func:`_doppler_mean`, the one caller of
the Faddeeva function.

The self response's pole P is written once, in :func:`_self_pole`, with its
two limits (coupling off, and the dark point delta = gamma = 0); the pair
average and the transmission, which is also the EIT fit's model, both take
P from it.  P obeys P(-delta) = -conj P(delta) and either rule's weight is
even, so the mean of 1/(omega_d - P) is anti-conjugate in delta.  On an
antisymmetric detuning grid the pair average therefore evaluates the pole
and its mean on delta >= 0 only and mirrors the rest; the pump pole
Delta_p + i*G4/2 breaks the symmetry of the cross response, which is
assembled at every detuning from the mirrored average.

The probe (Stokes) transmission follows from the averaged self response:

    T(delta) = exp(-<Im[4*self(delta, omega_d)]>_Doppler)
             = exp((alpha_s*G3/2) * Im <1/(omega_d - P)>)

where the factor 4 restores the full self-susceptibility exponent; one
function, :func:`_transmission`, gives it to :func:`eit_transmission` and,
with its gradient, to the EIT fit.

All functions here are pure, and write only into arrays they allocated
themselves, never into an argument.  The grid-sized ones make each result
array once and land the rest of the arithmetic in it (ufunc ``out=``,
``*=``, mask assignment): in a fresh process every transient grid-sized
array faults in new pages, since the allocator hands freed pages back, and
a sweep would pay that for every power.  Each operation keeps its operands
and their order, so results are bit-identical to the plain expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PeakShapeError, UsageError
from .units import GAMMA_HZ, frequency_to_hz

# Most nodes of a Doppler quadrature (8 MB per node array), and most terms
# of one block of the trapezoid sum (16 MB).  At the bound a 481-point
# spectrum takes seconds, and a sweep over eight powers tens of minutes.
MAX_NODES = 1 << 20
# Fewest samples of a spectrum whose width spectrum_fwhm measures.
MIN_WIDTH_POINTS = 5
# Largest magnitude of a spectrum's transmission and of a packet value the
# decay fit takes: a million of their squares still sum within the float range.
MAX_SAMPLE_VALUE = 1e150


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``, which stay as they were."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise UsageError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class MediumParams:
    """Optical depths, decoherence and decay rates of the vapor cell.

    alpha_s, alpha_as   dimensionless optical depths of the Stokes and
                        anti-Stokes transitions (alpha_as defaults to alpha_s;
                        it only scales the overall pair amplitude)
    gamma               ground-state decoherence rate, Gamma units
    gamma_doppler       Doppler width, Gamma units (54 at 38 C)
    gamma3, gamma4      excited-state decay rates, Gamma units
    """

    alpha_s: float
    gamma: float
    alpha_as: float | None = None
    gamma_doppler: float = 54.0
    gamma3: float = 1.0
    gamma4: float = 1.0

    def __post_init__(self):
        if self.alpha_as is None:
            object.__setattr__(self, "alpha_as", self.alpha_s)
        for name in ("alpha_s", "alpha_as", "gamma", "gamma_doppler", "gamma3", "gamma4"):
            _require_finite(name, getattr(self, name))
        if self.alpha_s <= 0 or self.alpha_as <= 0:
            raise UsageError("optical depths must be positive")
        if self.gamma < 0:
            raise UsageError("decoherence rate must be nonnegative")
        if self.gamma_doppler <= 0 or self.gamma3 <= 0 or self.gamma4 <= 0:
            raise UsageError("widths and decay rates must be positive")


@dataclass(frozen=True)
class DriveParams:
    """Rabi frequencies of the driving fields and the pump detuning.

    omega_c    coupling Rabi frequency, Gamma units
    omega_p    pump Rabi frequency, Gamma units (2.0 at 0.5 mW pump power)
    delta_p    pump detuning, Gamma units (-2.0 GHz, i.e. about -333.3)
    """

    omega_c: float
    omega_p: float = 2.0
    delta_p: float = -2.0e9 / GAMMA_HZ

    def __post_init__(self):
        for name in ("omega_c", "omega_p", "delta_p"):
            _require_finite(name, getattr(self, name))
        if self.omega_c < 0 or self.omega_p < 0:
            raise UsageError("Rabi frequencies must be nonnegative")
        # The responses square omega_c as a Python float, which raises
        # OverflowError past about 1.3e154.
        if self.omega_c > 1e150 or self.omega_p > 1e150:
            raise UsageError("Rabi frequencies must not exceed 1e150 Gamma")


@dataclass(frozen=True)
class DopplerQuadrature:
    """Uniform trapezoidal rule for the Gaussian velocity average.

    The reference path: functions that take an optional quadrature average
    exactly in closed form when none is given.

    half_range   integration half-width in units of gamma_doppler
    step         node spacing in Gamma units; must resolve the Gamma-wide
                 resonances sitting inside the much wider Gaussian
    """

    half_range: float = 4.0
    step: float = 0.125

    def __post_init__(self):
        for name in ("half_range", "step"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise UsageError(f"quadrature {name} must be finite and positive, got {value!r}")
        if self.half_range < 3.0:
            raise UsageError("half_range below 3 truncates the Gaussian visibly")
        if self.step > 0.25:
            raise UsageError("step above Gamma/4 cannot resolve the resonance features")

    def nodes(self, medium: MediumParams) -> np.ndarray:
        """step*(-k..k) with k = floor(half_range*gamma_doppler/step): exactly
        symmetric, as the half-grid mirror needs.  Past MAX_NODES nodes,
        UsageError before any array is built."""
        ratio = self.half_range * medium.gamma_doppler / self.step
        k = math.floor(ratio) if ratio < MAX_NODES else ratio
        if 2 * k + 1 > MAX_NODES:
            raise UsageError(f"quadrature needs {2 * k + 1:.0f} nodes, more than {MAX_NODES}")
        return self.step * np.arange(-k, k + 1)

    def weights(self, medium: MediumParams) -> np.ndarray:
        """Gaussian weight times trapezoid weight at each node; sums to ~1."""
        x = self.nodes(medium)
        gauss = np.exp(-((x / medium.gamma_doppler) ** 2))
        gauss /= np.sqrt(np.pi) * medium.gamma_doppler
        gauss *= self.step
        gauss[[0, -1]] *= 0.5
        return gauss


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Transmission on a detuning grid (Gamma units), a read-only record of
    read-only copies of the arrays given.  The detunings are non-empty,
    finite and strictly increasing, so the edge samples that the baseline
    reads are the outermost detunings, and the transmissions are finite and
    at most MAX_SAMPLE_VALUE in magnitude, so the baseline's sums cannot
    overflow.  Else UsageError."""

    delta: np.ndarray
    transmission: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _frozen(self.delta))
        object.__setattr__(self, "transmission", _frozen(self.transmission))
        if self.delta.size != self.transmission.size:
            raise UsageError("delta and transmission lengths differ")
        if self.delta.size == 0:
            raise UsageError("empty detuning grid")
        if not np.isfinite(self.delta).all():
            raise UsageError("detuning grid must be finite")
        if self.delta.size > 1 and not (np.diff(self.delta) > 0).all():
            raise UsageError("detuning grid must be strictly increasing")
        # Written so that nan fails the comparison.
        if not (np.abs(self.transmission) <= MAX_SAMPLE_VALUE).all():
            raise UsageError(
                "spectrum transmissions must be finite and at most "
                f"{MAX_SAMPLE_VALUE:g} in magnitude"
            )

    def __reduce__(self):
        # Copies and unpickled spectra are built again: checked, and read-only.
        return Spectrum, (self.delta, self.transmission)


def _cross_prefactor(m: MediumParams) -> float:
    # sqrt(alpha_as*alpha_s) without forming the product, which overflows for
    # huge depths; equal depths give the larger one exactly.
    hi = max(m.alpha_as, m.alpha_s)
    return hi * np.sqrt(min(m.alpha_as, m.alpha_s) / hi) * np.sqrt(m.gamma3 * m.gamma4) / 4.0


def _weideman_coefficients(n: int) -> tuple[float, np.ndarray]:
    """Scale L and the n polynomial coefficients (highest degree first) of
    Weideman's rational approximation to w (SIAM J. Numer. Anal. 31, 1497, 1994)."""
    scale = math.sqrt(n / math.sqrt(2.0))
    m = 2 * n
    t = scale * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, a[n:0:-1].copy()


# 36 terms: within 3e-14 relative of scipy.special.wofz over
# |Re z| <= 1e12, 1e-10 <= Im z <= 1e12 (32 terms: 3e-13).
_W_SCALE, _W_COEFFS = _weideman_coefficients(36)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# p(Z) = sum_b q_b(Z)*Z^(6b) over six blocks q_b of degree 5: row b holds the
# coefficients of Z^0..Z^5 in q_b.
_W_BLOCK = 6
_W_BLOCKS = np.ascontiguousarray(_W_COEFFS[::-1].reshape(_W_BLOCK, _W_BLOCK))
# Points per block product.  OpenBLAS runs larger products on several
# threads (on 2 cores, seen from 8k to 14k points on), which costs CPU time
# and a work buffer per thread; 2048 points stay on one thread, and the
# buffers stay a few hundred kB whatever the argument's size.
_FADDEEVA_CHUNK = 2048


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2)*erfc(-iz) on an array with Im z > 0.

    w(z) = 2*p(Z)/(L - iz)^2 + 1/(sqrt(pi)*(L - iz)) with Z = (L + iz)/(L - iz)
    inside the unit disk.  The degree-35 polynomial p is evaluated in
    Paterson-Stockmeyer blocks (SIAM J. Comput. 2, 60, 1973): the powers
    Z^0..Z^5 fill one (6, n) buffer, one real (6, 6) matrix product with its
    float view gives the six degree-5 block polynomials at once (the
    coefficients are real), and Horner's rule in Z^6 joins them.  A call
    costs about 25 array operations per chunk of _FADDEEVA_CHUNK points,
    so callers pass all their arguments in one array.  The chunk keeps the
    product on OpenBLAS's single-threaded path and the work buffers at two
    (6, 2048) arrays, however large the grid.
    """
    flat = np.asarray(z).reshape(-1)
    out = np.empty(flat.size, dtype=complex)
    size = max(1, min(flat.size, _FADDEEVA_CHUNK))
    powers = np.empty((_W_BLOCK, size), dtype=complex)
    powers[0] = 1.0
    blocks = np.empty_like(powers)
    for start in range(0, flat.size, size):
        k = min(size, flat.size - start)
        # d holds L - iz until the last operation writes w over it.
        zk, d, p = powers[1, :k], out[start : start + k], blocks[-1, :k]
        np.multiply(flat[start : start + k], 1j, out=zk)
        np.subtract(_W_SCALE, zk, out=d)
        zk += _W_SCALE
        zk /= d
        for i in range(2, _W_BLOCK):
            np.multiply(powers[i - 1, :k], zk, out=powers[i, :k])
        np.matmul(_W_BLOCKS, powers[:, :k].view(float), out=blocks[:, :k].view(float))
        # Z^2 is no longer needed: its row holds Z^6.
        z6 = np.multiply(powers[-1, :k], zk, out=powers[2, :k])
        for b in range(_W_BLOCK - 2, -1, -1):
            p *= z6
            p += blocks[b, :k]
        p *= 2.0
        p /= d
        p += _INV_SQRT_PI
        np.divide(p, d, out=d)
    return out.reshape(np.shape(z))


def _doppler_mean(z: np.ndarray, m: MediumParams, q: DopplerQuadrature | None) -> np.ndarray:
    """<1/(omega_d - z)> over the normalized Gaussian, for Im z < 0.

    Exact without a quadrature, -i*sqrt(pi)/Gamma_D * w(-z/Gamma_D); with
    one, on a 1-D array, the sum over its nodes x and weights v of v/(x - z),
    in blocks of at most MAX_NODES terms.
    """
    if q is None:
        u = np.negative(z)
        u /= m.gamma_doppler
        w = _faddeeva(u)
        return np.multiply(-1j * math.sqrt(math.pi) / m.gamma_doppler, w, out=w)
    # Complex weights: numpy's matmul runs BLAS only on operands of one dtype.
    nodes, weights = q.nodes(m), q.weights(m).astype(complex)
    out = np.empty(z.size, dtype=complex)
    rows = max(1, min(z.size, MAX_NODES // nodes.size))
    block = np.empty((rows, nodes.size), dtype=complex)
    for start in range(0, z.size, rows):
        b = block[: z.size - start]
        np.subtract(nodes, z[start : start + rows, None], out=b)
        np.divide(1.0, b, out=b)
        np.matmul(b, weights, out=out[start : start + rows])
    return out


def _unfold(upper: np.ndarray, n: int, sign: float) -> np.ndarray:
    """Values on an antisymmetric grid of n detunings of a function with
    f(-delta) = sign*conj(f(delta)), from its values on the upper half
    delta[n//2:] (which holds delta = 0 when n is odd)."""
    out = np.empty(n, dtype=upper.dtype)
    lower = out[: n // 2]
    np.conj(upper[::-1][: n // 2], out=lower)
    np.multiply(sign, lower, out=lower)
    out[n // 2 :] = upper
    return out


def _self_pole(delta: np.ndarray, gamma: float, gamma3: float, square: float):
    """Pole P of the self response in omega_d on a detuning array, with
    square = Omega_c^2, and the mask of the dark point.

    The self response is -(alpha_s*G3/8) / (omega_d - P) with
    P = Omega_c^2/(4*(delta + i*gamma)) - delta - i*G3/2, whose imaginary
    part is at most -G3/2.  The one formula holds two limits.  With the
    coupling off the two-photon factor cancels and P = -delta - i*G3/2, the
    two-level pole, finite also at delta = gamma = 0.  At delta = gamma = 0
    with the coupling on (the dark point) P is infinite, so the Doppler mean
    <1/(omega_d - P)> vanishes: the mask marks those points, where the
    returned P is a finite placeholder and callers set the mean to 0.
    """
    pole = delta + 1j * gamma
    zero = pole == 0.0
    pole[zero] = 1.0
    np.multiply(4.0, pole, out=pole)
    np.divide(square, pole, out=pole)
    pole -= delta
    pole -= 0.5j * gamma3
    return pole, (zero if square != 0.0 else np.zeros_like(zero))


def _averaged_pair(
    delta: np.ndarray, m: MediumParams, d: DriveParams, q: DopplerQuadrature | None
):
    """Doppler-averaged (cross, self) responses on an antisymmetric 1-D
    detuning array, delta[::-1] == -delta, as a SpectralGrid's is.

    The self response is a single pole P in omega_d (:func:`_self_pole`),
    and the cross response splits into partial fractions over P and the pump
    pole Q = Delta_p + i*G4/2; at the dark point the self response and P's
    share of the cross response vanish.  The means of 1/(omega_d - P) and
    1/(omega_d - Q) come from :func:`_doppler_mean`, exact without a
    quadrature and by its trapezoidal rule with one.

    P(-delta) = -conj P(delta) and the Doppler weight is even under either
    rule, so the mean <1/(omega_d - P)>, and with it the self response, is
    anti-conjugate in delta: the pole and its mean are needed on delta >= 0
    only, and the lower half is filled by _unfold.  The pump detuning breaks
    that symmetry for Q, so the cross response is formed on the whole array.
    """
    n = delta.size
    pole, dark = _self_pole(delta[n // 2 :], m.gamma, m.gamma3, d.omega_c**2)
    pump_pole = d.delta_p + 0.5j * m.gamma4
    # One call for both poles.  Im Q > 0: the mean at Q is the conjugate of
    # the one at conj(Q), as the nodes and weights of either rule are real.
    means = _doppler_mean(np.append(pole, np.conj(pump_pole)), m, q)
    means[:-1][dark] = 0.0
    mean_p = _unfold(means[:-1], n, -1.0)
    if d.omega_c == 0.0:
        cross = np.zeros(n, dtype=complex)
    else:
        # cross = prefactor * (conj <1/(omega_d - conj Q)> - <1/(omega_d - P)>)
        #         / (4*(delta + i*gamma)*(Q + delta + i*G3/2) - Omega_c^2)
        cross = delta + 1j * m.gamma
        np.multiply(4.0, cross, out=cross)
        work = delta + 0.5j * m.gamma3
        np.add(pump_pole, work, out=work)
        cross *= work
        cross -= d.omega_c**2
        np.divide(_cross_prefactor(m) * d.omega_p * d.omega_c, cross, out=cross)
        np.subtract(np.conj(means[-1]), mean_p, out=work)
        cross *= work
    # The self response -(alpha_s*G3/8) * mean_p, written over mean_p.
    return cross, np.multiply(-(m.alpha_s * m.gamma3 / 8.0), mean_p, out=mean_p)


def eit_transmission(
    delta,
    m: MediumParams,
    d: DriveParams,
    q: DopplerQuadrature | None,
):
    """Probe transmission T(delta) in (0, 1] through the Doppler-averaged medium.

    The Doppler average is exact where ``q`` is None and the quadrature's
    trapezoidal rule otherwise; either way T comes from
    :func:`_transmission`, the EIT fit's model.
    """
    _require_finite("delta", delta)
    arr = np.atleast_1d(np.asarray(delta, dtype=float))
    t, _ = _transmission(arr.ravel(), m.alpha_s, m.gamma, d.omega_c**2, m, q)
    return float(t[0]) if np.isscalar(delta) or np.ndim(delta) == 0 else t.reshape(arr.shape)


def _transmission(
    delta: np.ndarray,
    alpha_s: float,
    gamma: float,
    square: float,
    m: MediumParams,
    q: DopplerQuadrature | None,
):
    """T on a 1-D detuning array with Omega_c^2 = square, and a function
    giving the EIT fit's (dT/d(Omega_c^2), dT/d gamma).

    Raw floats, and only Gamma_D and G3 of ``m``: the caller validates them,
    the EIT fit once, not per evaluation.  T = exp((alpha_s*G3/2) * Im mu)
    with mu = <1/(omega_d - P)> from :func:`_self_pole` and
    :func:`_doppler_mean`; mu = 0 and T = 1 at the dark point.  By parts over
    the exact Gaussian, dmu/dP = -2*(1 + P*mu)/Gamma_D^2, so the gradient
    needs no second average; it needs gamma > 0, as the fit's bound keeps.
    """
    pole, dark = _self_pole(delta, gamma, m.gamma3, square)
    mean = _doppler_mean(pole, m, q)
    mean[dark] = 0.0
    t = np.exp((0.5 * alpha_s * m.gamma3) * mean.imag)

    def gradient():
        # slope = Gamma_D^2 * dmu/dP.  Its terms cancel to O(v), v = (Gamma_D/P)^2,
        # for |P| far past Gamma_D (small gamma at delta = 0), where the
        # asymptotic series is exact to rounding.
        slope = pole * mean
        slope += 1.0
        slope *= -2.0
        far = np.abs(pole) > 30.0 * m.gamma_doppler
        if far.any():
            v = m.gamma_doppler / pole[far]
            v *= v
            slope[far] = v * (1.0 + v * (1.5 + v * (3.75 + v * (13.125 + v * 59.0625))))
        two_photon = delta + 1j * gamma
        dpole_dsquare = 0.25 / two_photon
        dpole_dgamma = -1j * square * dpole_dsquare / two_photon
        scale = (0.5 * alpha_s * m.gamma3 / m.gamma_doppler**2) * t
        return scale * (slope * dpole_dsquare).imag, scale * (slope * dpole_dgamma).imag

    return t, gradient


def eit_spectrum(
    grid,
    m: MediumParams,
    d: DriveParams,
    q: DopplerQuadrature | None = None,
) -> Spectrum:
    """Pointwise transmission over a detuning grid (Gamma units), which
    :class:`Spectrum` checks.

    The grid should extend to at least ten times the expected window width
    so that the baseline estimate in :func:`spectrum_fwhm` sits on the flat
    absorption background.
    """
    return Spectrum(grid, eit_transmission(grid, m, d, q))


def _edges(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outermost 10% of a spectrum's samples on each side, at least one."""
    k = max(1, round(0.1 * values.size))
    return values[:k], values[-k:]


def spectrum_baseline(s: Spectrum) -> float:
    """Baseline transmission: mean over the outermost 10% of samples per side."""
    left, right = _edges(s.transmission)
    return float(0.5 * (left.mean() + right.mean()))


def spectrum_fwhm(s: Spectrum) -> float:
    """Full width at half of (peak - baseline), in Hz.

    The baseline is taken from the outer 10% of samples on each side and the
    half-height crossings are located by linear interpolation between the
    peak-side sample above half height and the nearest sample at or below it.
    """
    t = s.transmission
    if t.size < MIN_WIDTH_POINTS:
        raise UsageError("spectrum too short for a width measurement")
    baseline = spectrum_baseline(s)
    ipk = int(np.argmax(t))
    peak = t[ipk]
    if peak <= baseline + 1e-3:
        raise PeakShapeError(
            f"no peak above baseline (peak {peak:.6g}, baseline {baseline:.6g})"
        )
    # baseline + 0.5*(peak - baseline) without overflow: halving a normal float is exact.
    half = baseline + (0.5 * peak - 0.5 * baseline)

    # The peak lies above half height, so it falls between the nearest
    # samples at or below half height on its two sides.
    below = np.flatnonzero(t <= half)
    k = int(np.searchsorted(below, ipk))
    if k == 0:
        raise PeakShapeError("peak does not fall to half height on the left")
    if k == below.size:
        raise PeakShapeError("peak does not fall to half height on the right")
    i, j = below[k - 1], below[k]
    left = np.interp(half, [t[i], t[i + 1]], [s.delta[i], s.delta[i + 1]])
    right = np.interp(half, [t[j], t[j - 1]], [s.delta[j], s.delta[j - 1]])

    return frequency_to_hz(float(right - left))
