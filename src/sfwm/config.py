"""Run configuration: INI files in external units (MHz, mW, ns, s).

Frequencies and rates in the file are ordinary frequencies in MHz; the
conversion to internal Gamma units divides by 6 MHz.  Unknown sections or
keys are rejected.  See the README for the full grammar and key table.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .biphoton import EtalonChain, SpectralGrid
from .detector import DetectionModel
from .errors import UsageError
from .physics import DopplerQuadrature, DriveParams, MediumParams
from .units import DEFAULT_UNITS, UnitSystem

_MHZ = 1e6

_SCHEMA = {
    "medium": {
        "od_stokes",
        "od_anti_stokes",
        "decoherence_mhz",
        "doppler_width_mhz",
        "decay3_mhz",
        "decay4_mhz",
    },
    "drive": {
        "coupling_rabi_mhz",
        "coupling_power_mw",
        "pump_rabi_mhz",
        "pump_detuning_mhz",
    },
    "quadrature": {"half_range", "step_mhz"},
    "grid": {"half_width_mhz", "count"},
    "etalons": {"fwhm_mhz", "centers_mhz"},
    "detection": {
        "eff_anti_stokes",
        "eff_stokes",
        "dark_anti_stokes_cps",
        "dark_stokes_cps",
        "trigger_cps",
        "bin_ns",
        "accumulation_s",
        "success_probability",
    },
    "run": {"seed", "onset_ns", "rise_ns", "fit_onset_ns"},
}

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
        "coupling_power_mw": "1.0",
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


# An empty value means the key's default, which is None where that is empty.
# The exception: an empty coupling_power_mw asks for the power derived from
# coupling_rabi_mhz, so leaving both empty is an error.
_EMPTY_MEANS_UNSET = {("drive", "coupling_power_mw")}


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


@dataclass
class RunConfig:
    """Validated configuration with builders for the module parameter types."""

    values: dict
    source_sha256: str
    units: UnitSystem = DEFAULT_UNITS

    def _mhz_to_gamma(self, x: float) -> float:
        return x * _MHZ / self.units.gamma_hz

    @property
    def seed(self) -> int:
        return int(self.values["run"]["seed"])

    @property
    def onset_ns(self) -> float:
        return self.values["run"]["onset_ns"]

    @property
    def rise_ns(self) -> float:
        return self.values["run"]["rise_ns"]

    @property
    def fit_onset_ns(self) -> float:
        return self.values["run"]["fit_onset_ns"]

    @property
    def coupling_power_mw(self) -> float:
        """Coupling power, inferred from the Rabi calibration when absent."""
        drive = self.values["drive"]
        if drive["coupling_power_mw"] is not None:
            return drive["coupling_power_mw"]
        omega_c = self._mhz_to_gamma(drive["coupling_rabi_mhz"])
        return (omega_c / 2.7) ** 2

    @property
    def success_probability(self) -> float | None:
        return self.values["detection"]["success_probability"]

    def medium(self) -> MediumParams:
        sec = self.values["medium"]
        return MediumParams(
            alpha_s=sec["od_stokes"],
            gamma=self._mhz_to_gamma(sec["decoherence_mhz"]),
            alpha_as=sec["od_anti_stokes"],
            gamma_doppler=self._mhz_to_gamma(sec["doppler_width_mhz"]),
            gamma3=self._mhz_to_gamma(sec["decay3_mhz"]),
            gamma4=self._mhz_to_gamma(sec["decay4_mhz"]),
        )

    def drive(self) -> DriveParams:
        sec = self.values["drive"]
        if sec["coupling_rabi_mhz"] is not None:
            omega_c = self._mhz_to_gamma(sec["coupling_rabi_mhz"])
        else:
            omega_c = 2.7 * sec["coupling_power_mw"] ** 0.5
        return DriveParams(
            omega_c=omega_c,
            omega_p=self._mhz_to_gamma(sec["pump_rabi_mhz"]),
            delta_p=self._mhz_to_gamma(sec["pump_detuning_mhz"]),
        )

    def quadrature(self) -> DopplerQuadrature | None:
        """Trapezoidal reference rule if the file sets [quadrature], else None.

        None selects the exact closed-form Doppler average.
        """
        sec = self.values["quadrature"]
        if sec is None:
            return None
        return DopplerQuadrature(
            half_range=sec["half_range"], step=self._mhz_to_gamma(sec["step_mhz"])
        )

    def grid(self) -> SpectralGrid:
        """The configured window; without a count, one derived per scenario."""
        sec = self.values["grid"]
        return SpectralGrid(
            half_width=self._mhz_to_gamma(sec["half_width_mhz"]), count=sec["count"]
        )

    def etalons(self) -> EtalonChain:
        sec = self.values["etalons"]
        return EtalonChain(
            fwhm_hz=tuple(f * _MHZ for f in sec["fwhm_mhz"]),
            centers_hz=tuple(c * _MHZ for c in sec["centers_mhz"]),
        )

    def detection(self) -> DetectionModel:
        sec = self.values["detection"]
        return DetectionModel(
            eff_as=sec["eff_anti_stokes"],
            eff_s=sec["eff_stokes"],
            dark_as=sec["dark_anti_stokes_cps"],
            dark_s=sec["dark_stokes_cps"],
            trigger_rate=sec["trigger_cps"],
            bin_ns=sec["bin_ns"],
            accumulation_s=sec["accumulation_s"],
            seed=self.seed,
        )


def load_config(path: str | Path | None = None) -> RunConfig:
    """Parse and validate a config file; ``None`` yields all defaults."""
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

    values: dict = {}
    for section, defaults in _DEFAULTS.items():
        merged = dict(defaults)
        if parser.has_section(section):
            merged.update(parser[section])
        out = {}
        for key, raw in merged.items():
            raw = raw.strip()
            if raw == "" and (section, key) not in _EMPTY_MEANS_UNSET:
                raw = defaults[key]
            if raw == "":
                out[key] = None
            elif key in ("fwhm_mhz", "centers_mhz"):
                out[key] = _float_list(section, key, raw)
            elif key in ("seed", "count"):
                out[key] = _int(section, key, raw)
            else:
                out[key] = _float(section, key, raw)
        values[section] = out

    # Without [quadrature] values the Doppler average is exact; any value there
    # selects the trapezoidal reference rule.
    given = parser["quadrature"] if parser.has_section("quadrature") else {}
    if not any(raw.strip() for raw in given.values()):
        values["quadrature"] = None

    drive = values["drive"]
    if drive["coupling_rabi_mhz"] is None and drive["coupling_power_mw"] is None:
        raise UsageError("drive needs coupling_rabi_mhz or coupling_power_mw")
    if values["run"]["seed"] < 0:
        raise UsageError(f"[run] seed = {values['run']['seed']} must be nonnegative")

    digest = hashlib.sha256(raw_bytes).hexdigest()[:16]
    return RunConfig(values=values, source_sha256=digest)
