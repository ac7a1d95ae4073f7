"""Run configuration: INI files in external units (MHz, mW, ns, s).

Frequencies and rates in the file are ordinary frequencies in MHz; the
conversion to internal Gamma units divides by 6 MHz.  Unknown sections or
keys are rejected.  See the README for the full grammar and key table.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import astuple, dataclass
from functools import cached_property
from pathlib import Path

from .analysis import FIT_ONSET_NS, RABI_PER_ROOT_MW, omega_c_from_power
from .biphoton import EtalonChain, SpectralGrid
from .detector import DetectionModel
from .errors import UsageError
from .physics import DopplerQuadrature, DriveParams, MediumParams
from .units import frequency_from_hz

_MHZ = 1e6


def _float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise UsageError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _mhz(section: str, key: str, raw: str) -> float:
    """A frequency in MHz, in Gamma units."""
    return frequency_from_hz(_float(section, key, raw) * _MHZ)


def _mhz_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    """Comma-separated frequencies in MHz, in Hz."""
    try:
        return tuple(float(part) * _MHZ for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"[{section}] {key} = {raw!r} is not a comma-separated list") from exc


# Each key's field and parser.  The fields of [medium], [drive], [quadrature],
# [grid], [etalons] and [detection] are those of MediumParams, DriveParams,
# DopplerQuadrature, SpectralGrid, EtalonChain and DetectionModel, whose
# fields include success_probability; seed is DetectionModel's, and the
# coupling pair and the run timing are Scenario's.
_KEYS = {
    "medium": {
        "od_stokes": ("alpha_s", _float),
        "od_anti_stokes": ("alpha_as", _float),
        "decoherence_mhz": ("gamma", _mhz),
        "doppler_width_mhz": ("gamma_doppler", _mhz),
        "decay3_mhz": ("gamma3", _mhz),
        "decay4_mhz": ("gamma4", _mhz),
    },
    "drive": {
        "coupling_rabi_mhz": ("omega_c", _mhz),
        "coupling_power_mw": ("coupling_power_mw", _float),
        "pump_rabi_mhz": ("omega_p", _mhz),
        "pump_detuning_mhz": ("delta_p", _mhz),
    },
    "quadrature": {"half_range": ("half_range", _float), "step_mhz": ("step", _mhz)},
    "grid": {"half_width_mhz": ("half_width", _mhz), "count": ("count", _int)},
    "etalons": {"fwhm_mhz": ("fwhm_hz", _mhz_list), "centers_mhz": ("centers_hz", _mhz_list)},
    "detection": {
        "eff_anti_stokes": ("eff_as", _float),
        "eff_stokes": ("eff_s", _float),
        "dark_anti_stokes_cps": ("dark_as", _float),
        "dark_stokes_cps": ("dark_s", _float),
        "trigger_cps": ("trigger_rate", _float),
        "bin_ns": ("bin_ns", _float),
        "accumulation_s": ("accumulation_s", _float),
        "success_probability": ("success_probability", _float),
    },
    "run": {
        "seed": ("seed", _int),
        "onset_ns": ("onset_ns", _float),
        "rise_ns": ("rise_ns", _float),
        "fit_onset_ns": ("fit_onset_ns", _float),
    },
}

# A key left out or empty keeps its field's default, which the library
# dataclass holds.  These are the defaults of the fields that have none; the
# coupling pair's is in load_config.  The fit onset is also the keyword
# default of fit_exponential, which the benchmark calls without it.
_DEFAULTS = {
    ("medium", "od_stokes"): "80",
    ("medium", "decoherence_mhz"): "0.168",
    ("run", "onset_ns"): "150",
    ("run", "rise_ns"): "35",
    ("run", "fit_onset_ns"): repr(FIT_ONSET_NS),
}


@dataclass(frozen=True)
class Scenario:
    """One operating point of the source: everything a prediction reads.

    :func:`load_config` builds it from a config file, all defaults without
    one; ``dataclasses.replace`` derives another.  Each part keeps its own
    class's defaults for the keys a file leaves out.  ``drive.omega_c`` sets
    the physics and ``coupling_power_mw`` the background law; ``q`` is None
    for the exact Doppler average; ``grid.count`` is the most samples
    :func:`~sfwm.biphoton.predict_packet` may use on the starting window.
    The run timing is in ns: the instrumental
    onset of the packet, the detector rise time and the onset of the
    exponential fit.  The seed and the success probability are
    ``detection``'s.  ``sha256`` identifies the run values in output headers.
    """

    medium: MediumParams
    drive: DriveParams
    q: DopplerQuadrature | None
    grid: SpectralGrid
    etalons: EtalonChain
    detection: DetectionModel
    onset_ns: float
    rise_ns: float
    fit_onset_ns: float
    coupling_power_mw: float

    def __post_init__(self):
        if not (math.isfinite(self.onset_ns) and math.isfinite(self.fit_onset_ns)):
            raise UsageError("onset_ns and fit_onset_ns must be finite")
        # Written so that nan fails every comparison.
        if not 0.0 < self.rise_ns < math.inf:
            raise UsageError(f"rise_ns must be finite and positive, got {self.rise_ns!r}")
        if not 0.0 <= self.coupling_power_mw < math.inf:
            raise UsageError(
                f"coupling power must be finite and nonnegative, got {self.coupling_power_mw!r} mW"
            )

    @cached_property
    def sha256(self) -> str:
        """sha256, to 16 hex digits, of every field of every part in order: the
        resolved config values.  Numpy scalars hash as the numbers they equal,
        and -0.0 as 0.0, which it equals."""
        text = json.dumps(_unsigned_zeros(astuple(self)), default=lambda value: value.item())
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _unsigned_zeros(value):
    """``value``, a tuple or a leaf of nested tuples, with each float -0.0 as 0.0."""
    if isinstance(value, tuple):
        return tuple(_unsigned_zeros(item) for item in value)
    # -0.0 + 0.0 is 0.0; any other float is unchanged.
    return value + 0.0 if isinstance(value, float) else value


def load_config(path: str | Path | None = None) -> Scenario:
    """Parse and validate a config file into a Scenario; ``None`` yields all defaults."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    if path is not None:
        try:
            parser.read_string(Path(path).read_bytes().decode("utf-8"), source=str(path))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot parse config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KEYS:
            raise UsageError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - set(_KEYS[section])
        if unknown:
            raise UsageError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")

    def fields(section: str) -> dict:
        """The section's values by field name, for the keys given or defaulted."""
        values = {}
        for key, (name, parse) in _KEYS[section].items():
            raw = parser.get(section, key, fallback="").strip() or _DEFAULTS.get((section, key))
            if raw:
                values[name] = parse(section, key, raw)
        return values

    medium = MediumParams(**fields("medium"))

    # The coupling: a key left out follows from the other by the
    # Omega_c = 2.7*sqrt(P/mW) Gamma calibration, and 1 mW stands in for both.
    drive = fields("drive")
    power_mw = drive.pop("coupling_power_mw", None)
    if "omega_c" not in drive:
        power_mw = 1.0 if power_mw is None else power_mw
        drive["omega_c"] = omega_c_from_power(power_mw)
    drive = DriveParams(**drive)
    if power_mw is None:
        power_mw = (drive.omega_c / RABI_PER_ROOT_MW) ** 2

    # Without [quadrature] values the Doppler average is exact; any value there
    # selects the trapezoidal reference rule.
    quadrature = fields("quadrature")
    detection, run = fields("detection"), fields("run")
    if "seed" in run:
        detection["seed"] = run.pop("seed")
    return Scenario(
        medium=medium,
        drive=drive,
        q=DopplerQuadrature(**quadrature) if quadrature else None,
        grid=SpectralGrid(**fields("grid")),
        etalons=EtalonChain(**fields("etalons")),
        detection=DetectionModel(**detection),
        **run,
        coupling_power_mw=power_mw,
    )
