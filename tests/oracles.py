"""Reference implementations that the tests compare the package against."""

from __future__ import annotations

from typing import Callable

import numpy as np

from sfwm.errors import DomainError
from sfwm.physics import _INV_SQRT_PI, _W_COEFFS, _W_SCALE, DopplerQuadrature, MediumParams

DEFAULT_QUADRATURE = DopplerQuadrature()


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
