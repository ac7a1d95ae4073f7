"""Biphoton generation in hot atomic vapor: spectra, wave packets, detection.

A numpy toolkit for spontaneous four-wave mixing sources: microscopic
susceptibilities with Doppler averaging, EIT transmission spectra, biphoton
wave-packet synthesis and filtering, the standard fitting procedures and
figures of merit (linewidth, SBR, generation rate, spectral brightness,
Cauchy-Schwarz violation), and a synthetic detector model for round-trip
validation of the analysis pipeline.
"""

__version__ = "0.1.0"

from .analysis import (
    EitFit,
    ExpFit,
    SweepPrediction,
    average_low_power_gamma,
    background_rate,
    cs_violation,
    fit_eit,
    fit_exponential,
    generation_rate,
    linewidth_from_tau,
    omega_c_from_power,
    sbr,
    spectral_brightness,
    sweep_predict,
)
from .biphoton import (
    BiphotonAmplitude,
    EtalonChain,
    SpectralGrid,
    WavePacket,
    apply_etalons,
    averaged_susceptibilities,
    delay_axis,
    predict_packet,
    rise_time_convolve,
    spectral_amplitude,
    wavepacket,
    wavepacket_area,
)
from .config import Scenario, load_config
from .detector import (
    CoincidenceHistogram,
    DetectionModel,
    build_histogram,
    expected_bins,
    generate_timetags,
    read_timetags,
    synth_histogram,
    write_timetags,
)
from .physics import (
    DopplerQuadrature,
    DriveParams,
    MediumParams,
    Spectrum,
    eit_spectrum,
    eit_transmission,
    spectrum_baseline,
    spectrum_fwhm,
)
from .units import GAMMA_HZ
