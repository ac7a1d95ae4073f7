import dataclasses

import numpy as np
import pytest

import sfwm

# Delay grid matching the detection chain: 25.6 ns bins over 4 us, with the
# instrumental onset placing the packet past the fit window start.
DELAY_NS = np.arange(0.0, 4000.0, 25.6)
ONSET_NS = 150.0
# The default config's etalon chain and detector response time; the stages
# take both from their caller.
ETALONS = sfwm.load_config().etalons
RISE_NS = sfwm.load_config().rise_ns

# Delay grids every delay-grid check rejects, since a grid must be uniform and
# increasing; equal infinite steps would pass np.allclose.
BAD_DELAY_GRIDS = {
    "nonuniform": np.array([0.0, 10.0, 30.0]),
    "nan": np.array([0.0, np.nan, 20.0]),
    "inf": np.array([-np.inf, 0.0, np.inf]),
    "descending": np.array([20.0, 10.0, 0.0]),
    "constant": np.array([300.0, 300.0, 300.0]),
}


def scenario(medium, drive, **fields):
    """The default config's scenario with the given medium, drive and fields."""
    return dataclasses.replace(sfwm.load_config(), medium=medium, drive=drive, **fields)


@pytest.fixture(scope="session")
def medium_a():
    return sfwm.MediumParams(alpha_s=80.0, gamma=0.028)


@pytest.fixture(scope="session")
def medium_b():
    return sfwm.MediumParams(alpha_s=82.0, gamma=0.024)


@pytest.fixture(scope="session")
def drive_a():
    return sfwm.DriveParams(omega_c=2.6)


@pytest.fixture(scope="session")
def drive_b():
    return sfwm.DriveParams(omega_c=0.65)


@pytest.fixture(scope="session")
def amplitude_a(medium_a, drive_a):
    """Unfiltered pair amplitude for the strong-coupling parameter set."""
    return sfwm.spectral_amplitude(sfwm.SpectralGrid(), medium_a, drive_a, None)


@pytest.fixture(scope="session")
def amplitude_b(medium_b, drive_b):
    """Unfiltered pair amplitude for the weak-coupling parameter set."""
    return sfwm.spectral_amplitude(sfwm.SpectralGrid(), medium_b, drive_b, None)


@pytest.fixture(scope="session")
def packet_a(amplitude_a):
    return sfwm.wavepacket(sfwm.apply_etalons(amplitude_a, ETALONS), DELAY_NS, onset_ns=ONSET_NS)


@pytest.fixture(scope="session")
def packet_b(amplitude_b):
    return sfwm.wavepacket(sfwm.apply_etalons(amplitude_b, ETALONS), DELAY_NS, onset_ns=ONSET_NS)


def exponential_packet(amplitude, tau_ns, onset_ns=200.0, baseline=0.0,
                       span_ns=8000.0, bin_ns=25.6):
    """Wave packet following the fit model exactly: flat before the onset."""
    t = np.arange(0.0, span_ns, bin_ns)
    g2 = np.where(t >= onset_ns, amplitude * np.exp(-np.maximum(t - onset_ns, 0.0) / tau_ns), 0.0)
    return sfwm.WavePacket(t, g2 + baseline, bin_ns)
