"""Reference implementations that the tests compare the package against."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from sfwm.biphoton import WavePacket
from sfwm.errors import DomainError, PeakShapeError, UsageError
from sfwm.physics import (
    _INV_SQRT_PI,
    _W_COEFFS,
    _W_SCALE,
    MIN_WIDTH_POINTS,
    DopplerQuadrature,
    DriveParams,
    MediumParams,
    Spectrum,
    _cross_prefactor,
    spectrum_baseline,
)
from sfwm.units import frequency_to_hz

DEFAULT_QUADRATURE = DopplerQuadrature()
# Detuning rows per block of raw_pair_average.
_RAW_ROWS = 256


def _chi_pair_raw(delta, omega_d, m: MediumParams, d: DriveParams):
    """Both responses at Doppler shift ``omega_d``, from one shared
    denominator evaluation: the per-velocity integrands.

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


def raw_pair_average(delta: np.ndarray, m: MediumParams, d: DriveParams, q: DopplerQuadrature):
    """Trapezoid-averaged (cross, self) responses on any 1-D detuning array,
    with the raw integrands summed at every detuning and node: the package's
    earlier trapezoid path, against which its pole form is checked."""
    nodes = q.nodes(m)[None, :]
    w = q.weights(m)
    cross = np.empty(delta.size, dtype=complex)
    self_ = np.empty(delta.size, dtype=complex)
    for i in range(0, delta.size, _RAW_ROWS):
        cross_block, self_block = _chi_pair_raw(delta[i : i + _RAW_ROWS, None], nodes, m, d)
        cross[i : i + _RAW_ROWS] = cross_block @ w
        self_[i : i + _RAW_ROWS] = self_block @ w
    return cross, self_


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


def faddeeva_horner(z: np.ndarray) -> np.ndarray:
    """Weideman's rational approximation to w(z), Im z > 0, with its
    polynomial evaluated by Horner's rule over all 36 coefficients: the
    package's earlier form, against which its block evaluation is checked."""
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


def masked_fit_windows(w: WavePacket, x0_ns: float) -> tuple[float, float, int]:
    """(baseline, baseline error, fit-bin count) of fit_exponential's first
    stage, with the baseline window [.., x0 - 2*bin] plus the last 10% of
    bins and the fit region [x0, ..] taken as boolean masks over the delays:
    the package's earlier selection, against which its index search is
    checked.  The rest of the fit reads only these and the fit region's bins."""
    t, y = w.tau_ns, w.g2
    base = t <= x0_ns - 2.0 * w.bin_ns
    base[-max(1, t.size // 10):] = True
    window = y[base]
    n = window.size
    y0 = float(window.mean())
    if n >= 2:
        scatter = window - y0
        y0_err = math.sqrt(float(scatter @ scatter) / (n - 1) / n)
    else:
        y0_err = math.sqrt(float(np.maximum(window, 1.0).sum())) / n
    return y0, y0_err, int(np.count_nonzero(t >= x0_ns))


def walking_fwhm(s: Spectrum) -> float:
    """spectrum_fwhm with each half-height crossing found by walking outward
    from the peak: the package's earlier form, against which its index
    search is checked on finite spectra."""
    t = s.transmission
    n = t.size
    if n < MIN_WIDTH_POINTS:
        raise UsageError("spectrum too short for a width measurement")
    baseline = spectrum_baseline(s)
    ipk = int(np.argmax(t))
    peak = t[ipk]
    if peak <= baseline + 1e-3:
        raise PeakShapeError(f"no peak above baseline (peak {peak:.6g}, baseline {baseline:.6g})")
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
    return frequency_to_hz(float(right - left))
