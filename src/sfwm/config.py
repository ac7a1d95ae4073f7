"""Run configuration: INI files in external units (MHz, mW, ns, s).

Frequencies and rates in the file are ordinary frequencies in MHz; the
conversion to internal Gamma units divides by 6 MHz.  Unknown sections or
keys are rejected.  See the README for the full grammar and key table.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .analysis import RABI_PER_ROOT_MW, omega_c_from_power
from .biphoton import EtalonChain, SpectralGrid
from .detector import DetectionModel
from .errors import UsageError
from .physics import DopplerQuadrature, DriveParams, MediumParams
from .units import DEFAULT_UNITS

_MHZ = 1e6

# An empty value, given or default, means the key's default; where that is
# empty too, load_config works the value out (see the README's table).
_DEFAULTS = {
    "medium": {
        "od_stokes": "80",
        "od_anti_stokes": "",
        "decoherence_mhz": "0.168",
        "doppler_width_mhz": "324",
        "decay3_mhz": "6.0",
        "decay4_mhz": "6.0",
    },
    "drive": {
        "coupling_rabi_mhz": "",
        "coupling_power_mw": "",
        "pump_rabi_mhz": "12.0",
        "pump_detuning_mhz": "-2000",
    },
    "quadrature": {"half_range": "4.0", "step_mhz": "0.75"},
    "grid": {"half_width_mhz": "384", "count": ""},
    "etalons": {"fwhm_mhz": "45, 60", "centers_mhz": "0, 0"},
    "detection": {
        "eff_anti_stokes": "0.084",
        "eff_stokes": "0.13",
        "dark_anti_stokes_cps": "140",
        "dark_stokes_cps": "220",
        "trigger_cps": "840",
        "bin_ns": "25.6",
        "accumulation_s": "1200",
        "success_probability": "",
    },
    "run": {"seed": "1", "onset_ns": "150", "rise_ns": "35", "fit_onset_ns": "200"},
}

# The accepted keys of each section.
_SCHEMA = {section: set(keys) for section, keys in _DEFAULTS.items()}


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


def _float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"[{section}] {key} = {raw!r} is not a comma-separated list") from exc


def _gamma_units(mhz: float) -> float:
    return DEFAULT_UNITS.frequency_from_hz(mhz * _MHZ)


@dataclass(frozen=True)
class Scenario:
    """One operating point of the source: everything a prediction reads.

    :func:`load_config` builds it from a config file, all defaults without
    one; ``dataclasses.replace`` derives another.  ``drive.omega_c`` sets the
    physics and ``coupling_power_mw`` the background law; ``q`` is None for
    the exact Doppler average.  The run timing is in ns: the instrumental
    onset of the packet, the detector rise time and the onset of the
    exponential fit.  ``source_sha256`` and ``seed`` (the detection seed)
    are provenance for output headers.
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
    success_probability: float | None
    source_sha256: str

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
        p = self.success_probability
        if p is not None and not 0.0 <= p <= 1.0:
            raise UsageError(f"[detection] success_probability must be in [0, 1], got {p!r}")

    @property
    def seed(self) -> int:
        return self.detection.seed


def load_config(path: str | Path | None = None) -> Scenario:
    """Parse and validate a config file into a Scenario; ``None`` yields all defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    raw_bytes = b""
    if path is not None:
        raw_bytes = Path(path).read_bytes()
        try:
            parser.read_string(raw_bytes.decode("utf-8"), source=str(path))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot parse config {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise UsageError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - _SCHEMA[section]
        if unknown:
            raise UsageError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")

    def value(section: str, key: str):
        raw = parser.get(section, key, fallback="").strip() or _DEFAULTS[section][key]
        if raw == "":
            return None
        if key in ("fwhm_mhz", "centers_mhz"):
            return _float_list(section, key, raw)
        if key in ("seed", "count"):
            return _int(section, key, raw)
        return _float(section, key, raw)

    medium = MediumParams(
        alpha_s=value("medium", "od_stokes"),
        gamma=_gamma_units(value("medium", "decoherence_mhz")),
        alpha_as=value("medium", "od_anti_stokes"),
        gamma_doppler=_gamma_units(value("medium", "doppler_width_mhz")),
        gamma3=_gamma_units(value("medium", "decay3_mhz")),
        gamma4=_gamma_units(value("medium", "decay4_mhz")),
    )

    # The coupling: a key left out follows from the other by the
    # Omega_c = 2.7*sqrt(P/mW) Gamma calibration, and 1 mW stands in for both.
    rabi_mhz = value("drive", "coupling_rabi_mhz")
    power_mw = value("drive", "coupling_power_mw")
    if rabi_mhz is None:
        power_mw = 1.0 if power_mw is None else power_mw
        omega_c = omega_c_from_power(power_mw)
    else:
        omega_c = _gamma_units(rabi_mhz)
    drive = DriveParams(
        omega_c=omega_c,
        omega_p=_gamma_units(value("drive", "pump_rabi_mhz")),
        delta_p=_gamma_units(value("drive", "pump_detuning_mhz")),
    )
    if power_mw is None:
        power_mw = (drive.omega_c / RABI_PER_ROOT_MW) ** 2

    # Without [quadrature] values the Doppler average is exact; any value there
    # selects the trapezoidal reference rule.
    q = None
    if parser.has_section("quadrature") and any(v.strip() for v in parser["quadrature"].values()):
        q = DopplerQuadrature(
            half_range=value("quadrature", "half_range"),
            step=_gamma_units(value("quadrature", "step_mhz")),
        )

    return Scenario(
        medium=medium,
        drive=drive,
        q=q,
        grid=SpectralGrid(
            half_width=_gamma_units(value("grid", "half_width_mhz")), count=value("grid", "count")
        ),
        etalons=EtalonChain(
            fwhm_hz=tuple(f * _MHZ for f in value("etalons", "fwhm_mhz")),
            centers_hz=tuple(c * _MHZ for c in value("etalons", "centers_mhz")),
        ),
        detection=DetectionModel(
            eff_as=value("detection", "eff_anti_stokes"),
            eff_s=value("detection", "eff_stokes"),
            dark_as=value("detection", "dark_anti_stokes_cps"),
            dark_s=value("detection", "dark_stokes_cps"),
            trigger_rate=value("detection", "trigger_cps"),
            bin_ns=value("detection", "bin_ns"),
            accumulation_s=value("detection", "accumulation_s"),
            seed=value("run", "seed"),
        ),
        onset_ns=value("run", "onset_ns"),
        rise_ns=value("run", "rise_ns"),
        fit_onset_ns=value("run", "fit_onset_ns"),
        coupling_power_mw=power_mw,
        success_probability=value("detection", "success_probability"),
        source_sha256=hashlib.sha256(raw_bytes).hexdigest()[:16],
    )
