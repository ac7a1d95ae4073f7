"""Unit conventions and conversions.

Internally every angular frequency (detunings, Rabi frequencies, rates)
is expressed in units of the excited-state decay rate Gamma, and every
time in units of 1/Gamma.  Gamma is the constant 2*pi*GAMMA_HZ, with
GAMMA_HZ = 6 MHz for the rubidium D lines used here; every default in the
package (the pump detuning, the Doppler width, the coupling calibration)
assumes it.  The two external conversions are

    frequency axis:  f [Hz] = x * 6.0e6          for x in Gamma units
    time axis:       t [ns] = x / (2*pi*6e6) * 1e9   for x in 1/Gamma units

Conversions happen only at I/O boundaries; compute code stays dimensionless.
"""

from __future__ import annotations

import math

GAMMA_HZ = 6.0e6


def frequency_to_hz(x: float) -> float:
    """Detuning or rate in Gamma units -> ordinary frequency in Hz."""
    return x * GAMMA_HZ


def frequency_from_hz(f: float) -> float:
    """Ordinary frequency in Hz -> Gamma units."""
    return f / GAMMA_HZ


def time_to_ns(x: float) -> float:
    """Time in 1/Gamma units -> nanoseconds."""
    return x / (2.0 * math.pi * GAMMA_HZ) * 1e9


def time_from_ns(t_ns: float) -> float:
    """Nanoseconds -> 1/Gamma units."""
    return t_ns * 1e-9 * 2.0 * math.pi * GAMMA_HZ
