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
relative.  That closed form is the default; an explicit
:class:`DopplerQuadrature` selects the uniform trapezoidal rule over the raw
integrands instead, which serves as the reference path.

The probe (Stokes) transmission follows from the averaged self response:

    T(delta) = exp(-<Im[4*self(delta, omega_d)]>_Doppler)

where the factor 4 restores the full self-susceptibility exponent.

All functions here are pure; grid evaluations are independent per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, PeakShapeError, UsageError
from .units import DEFAULT_UNITS

_CHUNK = 256  # delta rows per vectorized block; keeps temporaries ~15 MB


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} must be finite, got {value!r}")


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
    delta_p: float = -2.0e9 / 6.0e6

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
        lim = self.half_range * medium.gamma_doppler
        return np.arange(-lim, lim + 0.5 * self.step, self.step)

    def weights(self, medium: MediumParams) -> np.ndarray:
        """Gaussian weight times trapezoid weight at each node; sums to ~1."""
        x = self.nodes(medium)
        gauss = np.exp(-((x / medium.gamma_doppler) ** 2))
        gauss /= np.sqrt(np.pi) * medium.gamma_doppler
        trap = np.full_like(x, self.step)
        trap[0] *= 0.5
        trap[-1] *= 0.5
        return gauss * trap


DEFAULT_QUADRATURE = DopplerQuadrature()


@dataclass(eq=False)
class Spectrum:
    """Transmission sampled on a detuning grid (Gamma units)."""

    delta: np.ndarray
    transmission: np.ndarray

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        self.transmission = np.asarray(self.transmission, dtype=float)
        if self.delta.size != self.transmission.size:
            raise UsageError("delta and transmission lengths differ")


def _cross_prefactor(m: MediumParams) -> float:
    return np.sqrt(m.alpha_as * m.alpha_s) * np.sqrt(m.gamma3 * m.gamma4) / 4.0


def _chi_pair_raw(delta, omega_d, m: MediumParams, d: DriveParams):
    """Both responses from one shared denominator evaluation.

    With the coupling off the two-photon factor cancels and the self response
    is the two-level one, finite also at delta = gamma = 0.
    """
    if d.omega_c == 0.0:
        self_ = -(m.alpha_s * m.gamma3 / 8.0) / (delta + omega_d + 0.5j * m.gamma3)
        return np.zeros_like(self_), self_
    two_photon = delta + 1j * m.gamma
    inv = 1.0 / (d.omega_c**2 - 4.0 * two_photon * (delta + omega_d + 0.5j * m.gamma3))
    pump = d.omega_p / (d.delta_p - omega_d + 0.5j * m.gamma4)
    cross = _cross_prefactor(m) * d.omega_c * pump * inv
    self_ = (m.alpha_s * m.gamma3 / 2.0) * two_photon * inv
    return cross, self_


def cross_chi(delta, omega_d, m: MediumParams, d: DriveParams):
    """Cross response coupling the pair amplitude to the driving fields.

    Exactly linear in omega_p.  Dimensionless; accepts scalars or
    broadcastable arrays of delta and omega_d in Gamma units.
    """
    _require_finite("delta", delta)
    _require_finite("omega_d", omega_d)
    return _chi_pair_raw(np.asarray(delta, dtype=float), np.asarray(omega_d, dtype=float), m, d)[0]


def self_chi(delta, omega_d, m: MediumParams, d: DriveParams):
    """Self response of the Stokes transition (independent of the pump)."""
    _require_finite("delta", delta)
    _require_finite("omega_d", omega_d)
    return _chi_pair_raw(np.asarray(delta, dtype=float), np.asarray(omega_d, dtype=float), m, d)[1]


def doppler_average(
    f: Callable[[np.ndarray], np.ndarray],
    m: MediumParams,
    q: DopplerQuadrature = DEFAULT_QUADRATURE,
) -> complex:
    """Gaussian velocity average of ``f(omega_d)`` by the trapezoidal rule.

    ``f`` must accept an ndarray of Doppler shifts (Gamma units) and return
    values of the same shape.  The quadrature is spectrally accurate for
    integrands whose poles stay at least Gamma/2 away from the real axis,
    which holds for both susceptibilities.
    """
    nodes = q.nodes(m)
    values = np.asarray(f(nodes))
    if not np.all(np.isfinite(values)):
        raise DomainError("integrand returned non-finite values on the Doppler grid")
    return complex(np.sum(values * q.weights(m)))


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


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2)*erfc(-iz) on an array with Im z > 0.

    w(z) = 2*p(Z)/(L - iz)^2 + 1/(sqrt(pi)*(L - iz)) with Z = (L + iz)/(L - iz)
    inside the unit disk.  p is evaluated by Horner's rule in place, without
    temporaries; a call costs about 80 array operations whatever its size,
    so callers pass all their arguments in one array.
    """
    iz = z * 1j
    den = _W_SCALE - iz
    iz += _W_SCALE
    iz /= den
    p = iz * _W_COEFFS[0]
    p += _W_COEFFS[1]
    for c in _W_COEFFS[2:]:
        p *= iz
        p += c
    p *= 2.0
    p /= den
    p += _INV_SQRT_PI
    p /= den
    return p


def _mean_inverse(z, gamma_doppler: float):
    """<1/(omega_d - z)> over the normalized Gaussian, for Im z < 0."""
    return -1j * math.sqrt(math.pi) / gamma_doppler * _faddeeva(-z / gamma_doppler)


def _averaged_pair(
    delta: np.ndarray, m: MediumParams, d: DriveParams, q: DopplerQuadrature | None = None
):
    """Doppler-averaged (cross, self) responses on a 1-D detuning array.

    Without a quadrature the averages are exact.  The self response is
    -(alpha_s*G3/8) / (omega_d - P) with the pole
    P = Omega_c^2/(4*(delta + i*gamma)) - delta - i*G3/2, whose imaginary part
    is at most -G3/2, and the cross response splits into partial fractions
    over P and the pump pole Q = Delta_p + i*G4/2.  Two limits are explicit:
    with the coupling off the two-photon factor cancels and P = -delta - i*G3/2
    (the two-level response), and at delta = gamma = 0 with the coupling on
    P is infinite, so the self response and P's share of the cross response
    vanish.  With a quadrature the raw integrands are summed by the
    trapezoidal rule instead.
    """
    if q is not None:
        nodes = q.nodes(m)[None, :]
        w = q.weights(m)
        cross = np.empty(delta.size, dtype=complex)
        self_ = np.empty(delta.size, dtype=complex)
        for i in range(0, delta.size, _CHUNK):
            cross_block, self_block = _chi_pair_raw(delta[i : i + _CHUNK, None], nodes, m, d)
            cross[i : i + _CHUNK] = cross_block @ w
            self_[i : i + _CHUNK] = self_block @ w
        return cross, self_

    level = delta + 0.5j * m.gamma3
    if d.omega_c == 0.0:
        mean_p = _mean_inverse(-level, m.gamma_doppler)
        cross = np.zeros(delta.size, dtype=complex)
    else:
        two_photon = delta + 1j * m.gamma
        dark = two_photon == 0.0
        pole = d.omega_c**2 / (4.0 * np.where(dark, 1.0, two_photon)) - level
        pump_pole = d.delta_p + 0.5j * m.gamma4
        # One call for both poles.  Im Q > 0: the average at Q is the
        # conjugate of the one at conj(Q).
        means = _mean_inverse(np.append(pole, np.conj(pump_pole)), m.gamma_doppler)
        mean_p = np.where(dark, 0.0, means[:-1])
        mean_q = np.conj(means[-1])
        front = _cross_prefactor(m) * d.omega_p * d.omega_c / (
            4.0 * two_photon * (pump_pole + level) - d.omega_c**2
        )
        cross = front * (mean_q - mean_p)
    self_ = -(m.alpha_s * m.gamma3 / 8.0) * mean_p
    return cross, self_


def eit_transmission(
    delta,
    m: MediumParams,
    d: DriveParams,
    q: DopplerQuadrature | None = None,
):
    """Probe transmission T(delta) in (0, 1] through the Doppler-averaged medium.

    The Doppler average is exact unless a quadrature is given.
    """
    _require_finite("delta", delta)
    arr = np.atleast_1d(np.asarray(delta, dtype=float))
    if q is None:
        t, _ = _transmission_raw(arr, m.alpha_s, m.gamma, m.gamma_doppler, m.gamma3, d.omega_c**2)
    else:
        t = np.exp(-4.0 * _averaged_pair(arr, m, d, q)[1].imag)
    return float(t[0]) if np.isscalar(delta) or np.ndim(delta) == 0 else t


def _transmission_raw(
    delta: np.ndarray,
    alpha_s: float,
    gamma: float,
    gamma_doppler: float,
    gamma3: float,
    square: float,
):
    """Exact-path T on a 1-D detuning array, and a function giving
    (dT/d(omega_c^2), dT/d gamma), on raw floats with omega_c^2 = square.

    The caller validates the parameters; the EIT fit does so once, not per
    evaluation.  T depends on the coupling only through omega_c^2, the
    variable the EIT fit uses.  T = exp(-g*Re w(u)) with u = -P/Gamma_D, the
    self-response pole P of :func:`_averaged_pair`, and
    g = alpha_s*G3*sqrt(pi)/(2*Gamma_D).  At delta = gamma = 0 the two-photon
    factor vanishes: with the coupling off P is the two-level pole, and with
    it on P is infinite, w vanishes and T = 1.  The derivative
    w'(u) = -2u*w(u) + 2i/sqrt(pi) reuses the one Faddeeva evaluation; the
    gradient needs gamma > 0, which the EIT fit's bound keeps.
    """
    two_photon = delta + 1j * gamma
    dark = two_photon == 0.0
    pole = square / (4.0 * np.where(dark, 1.0, two_photon)) - delta - 0.5j * gamma3
    u = pole / -gamma_doppler
    w = _faddeeva(u)
    if square != 0.0:
        w[dark] = 0.0
    gain = 0.5 * alpha_s * gamma3 * math.sqrt(math.pi) / gamma_doppler
    t = np.exp(-gain * w.real)

    def gradient():
        dw = 2j * _INV_SQRT_PI - 2.0 * u * w
        # The two terms cancel to O(1/u^2) for large |u| (small gamma at
        # delta = 0), where the asymptotic series is exact to rounding.
        far = np.abs(u) > 30.0
        if far.any():
            v = u[far] ** -2
            dw[far] = -1j * _INV_SQRT_PI * v * (
                1.0 + v * (1.5 + v * (3.75 + v * (13.125 + v * 59.0625)))
            )
        dw_dpole = dw / -gamma_doppler
        dpole_dsquare = 0.25 / two_photon
        dpole_dgamma = -1j * square * dpole_dsquare / two_photon
        scale = -gain * t
        return (
            scale * (dw_dpole * dpole_dsquare).real,
            scale * (dw_dpole * dpole_dgamma).real,
        )

    return t, gradient


def eit_spectrum(
    grid,
    m: MediumParams,
    d: DriveParams,
    q: DopplerQuadrature | None = None,
) -> Spectrum:
    """Pointwise transmission over a sorted detuning grid (Gamma units).

    The grid should extend to at least ten times the expected window width
    so that the baseline estimate in :func:`spectrum_fwhm` sits on the flat
    absorption background.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise UsageError("empty detuning grid")
    _require_finite("grid", grid)
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise UsageError("detuning grid must be strictly increasing")
    return Spectrum(grid, eit_transmission(grid, m, d, q))


def spectrum_baseline(s: Spectrum) -> float:
    """Baseline transmission: mean over the outermost 10% of samples per side."""
    n = s.transmission.size
    k = max(1, round(0.1 * n))
    return 0.5 * (s.transmission[:k].mean() + s.transmission[-k:].mean())


def spectrum_fwhm(s: Spectrum) -> float:
    """Full width at half of (peak - baseline), in Hz.

    The baseline is taken from the outer 10% of samples on each side and the
    half-height crossings are located by linear interpolation between the
    bracketing samples, walking outward from the peak.
    """
    t = s.transmission
    n = t.size
    if n < 5:
        raise UsageError("spectrum too short for a width measurement")
    baseline = spectrum_baseline(s)
    ipk = int(np.argmax(t))
    peak = t[ipk]
    if peak <= baseline + 1e-3:
        raise PeakShapeError(
            f"no peak above baseline (peak {peak:.6f}, baseline {baseline:.6f})"
        )
    half = baseline + 0.5 * (peak - baseline)

    i = ipk
    while i > 0 and t[i] > half:
        i -= 1
    if t[i] > half:
        raise PeakShapeError("peak does not fall to half height on the left")
    left = np.interp(half, [t[i], t[i + 1]], [s.delta[i], s.delta[i + 1]])

    i = ipk
    while i < n - 1 and t[i] > half:
        i += 1
    if t[i] > half:
        raise PeakShapeError("peak does not fall to half height on the right")
    right = np.interp(half, [t[i], t[i - 1]], [s.delta[i], s.delta[i - 1]])

    return DEFAULT_UNITS.frequency_to_hz(float(right - left))
