import configparser
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import sfwm
from sfwm.biphoton import MAX_COUNT
from sfwm.config import _KEYS, load_config
from sfwm.errors import UsageError


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_defaults_without_file():
    cfg = load_config(None)
    assert isinstance(cfg, sfwm.Scenario)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rise_ns = 10.0
    m = cfg.medium
    assert m.alpha_s == 80.0
    assert m.gamma == pytest.approx(0.028, rel=1e-12)
    assert m.gamma_doppler == pytest.approx(54.0)
    d = cfg.drive
    assert d.omega_c == pytest.approx(2.7)  # from the 1 mW power calibration
    assert cfg.coupling_power_mw == 1.0
    assert d.omega_p == pytest.approx(2.0)
    assert d.delta_p == pytest.approx(-2000.0 / 6.0)
    assert cfg.q is None  # exact Doppler average
    g = cfg.grid
    assert g.half_width == pytest.approx(64.0)
    assert g.count == 32768  # the most samples predict_packet may use
    e = cfg.etalons
    assert e.fwhm_hz == (45e6, 60e6)
    dm = cfg.detection
    assert dm.trigger_rate == 840.0
    assert dm.seed == 1
    assert (cfg.onset_ns, cfg.rise_ns, cfg.fit_onset_ns) == (150.0, 35.0, 200.0)


def test_rabi_overrides_power_for_coupling(tmp_path):
    cfg = load_config(write(tmp_path, "[drive]\ncoupling_rabi_mhz = 15.6\ncoupling_power_mw = 0.05\n"))
    assert cfg.drive.omega_c == pytest.approx(2.6)
    assert cfg.coupling_power_mw == 0.05


def test_power_inferred_from_rabi(tmp_path):
    cfg = load_config(write(tmp_path, "[drive]\ncoupling_rabi_mhz = 16.2\ncoupling_power_mw =\n"))
    assert cfg.coupling_power_mw == pytest.approx((2.7 / 2.7) ** 2)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[mystery]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[medium]\nod_stokes = 80\nbogus = 3\n"))


def test_bad_number_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[medium]\nod_stokes = eighty\n"))


@pytest.mark.parametrize(
    "text",
    [b"[medium\nod_stokes = 80\n", b"od_stokes = 80\n", b"[medium]\nod_stokes = 80\nod_stokes = 81\n",
     b"[medium]\nod_stokes = \xff\n"],
    ids=["open bracket", "no section", "duplicate key", "not utf-8"],
)
def test_unparsable_file_rejected(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_bytes(text)
    with pytest.raises(UsageError, match="cannot parse config"):
        load_config(path)


def test_bad_seed_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[run]\nseed = 1.5\n"))


def test_success_probability_optional(tmp_path):
    cfg = load_config(write(tmp_path, "[detection]\nsuccess_probability = 0.0088\n"))
    assert cfg.detection.success_probability == 0.0088
    assert load_config(None).detection.success_probability is None


def test_etalon_lists(tmp_path):
    cfg = load_config(write(tmp_path, "[etalons]\nfwhm_mhz = 35, 35\ncenters_mhz = 0, 1\n"))
    assert cfg.etalons.fwhm_hz == (35e6, 35e6)
    assert cfg.etalons.centers_hz == (0.0, 1e6)


def test_quadrature_section_selects_trapezoid(tmp_path):
    q = load_config(write(tmp_path, "[quadrature]\nhalf_range = 5\n")).q
    assert q == sfwm.DopplerQuadrature(half_range=5.0, step=0.125)
    q = load_config(write(tmp_path, "[quadrature]\nstep_mhz = 1.5\n")).q
    assert q == sfwm.DopplerQuadrature(half_range=4.0, step=0.25)
    q = load_config(write(tmp_path, "[quadrature]\nhalf_range = 5\nstep_mhz =\n")).q
    assert q == sfwm.DopplerQuadrature(half_range=5.0, step=0.125)
    assert load_config(write(tmp_path, "[quadrature]\n")).q is None
    assert load_config(write(tmp_path, "[quadrature]\nstep_mhz =\n")).q is None


def test_fractional_count_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[grid]\ncount = 32768.9\n"))
    assert load_config(write(tmp_path, "[grid]\ncount = 8192\n")).grid.count == 8192


@pytest.mark.parametrize("count", [MAX_COUNT + 1, 99_999_999, 2_000_000_000])
def test_count_past_the_maximum_rejected(tmp_path, count):
    """Rejected on loading, before any grid array is built."""
    with pytest.raises(UsageError, match=f"1024 to {MAX_COUNT} samples"):
        load_config(write(tmp_path, f"[grid]\ncount = {count}\n"))
    assert load_config(write(tmp_path, f"[grid]\ncount = {MAX_COUNT}\n")).grid.count == MAX_COUNT


def test_library_defaults_are_the_loaded_defaults(tmp_path):
    """A key left out keeps the library dataclass's default, so the two agree."""
    cfg = load_config(None)
    assert cfg.medium == sfwm.MediumParams(alpha_s=80.0, gamma=cfg.medium.gamma)
    assert cfg.drive == sfwm.DriveParams(omega_c=cfg.drive.omega_c)
    assert cfg.grid == sfwm.SpectralGrid()
    assert cfg.etalons == sfwm.EtalonChain()
    assert cfg.detection == sfwm.DetectionModel()
    q = load_config(write(tmp_path, "[quadrature]\nhalf_range = 4\n")).q
    assert q == sfwm.DopplerQuadrature()


def test_run_timing_defaults_are_the_keyword_defaults():
    """[run] fit_onset_ns defaults to the fit onset that fit_exponential
    takes without it; [run] rise_ns is the one default of the response
    time, which rise_time_convolve takes from its caller."""
    cfg = load_config(None)

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    assert cfg.rise_ns == 35.0
    assert default(sfwm.rise_time_convolve, "rc_ns") is inspect.Parameter.empty
    assert cfg.fit_onset_ns == default(sfwm.fit_exponential, "x0_ns") == 200.0


def test_inline_comments(tmp_path):
    cfg = load_config(write(tmp_path, "[medium]  # the cell\nod_stokes = 81  # depth\n"
                                      "decay3_mhz = 5 ; rate\n"))
    assert (cfg.medium.alpha_s, cfg.medium.gamma3) == (81.0, 5.0 / 6.0)


@pytest.mark.parametrize(
    "section,key",
    [
        (section, key)
        for section in sorted(_KEYS)
        for key in sorted(_KEYS[section])
    ],
)
def test_empty_value_means_default(tmp_path, section, key):
    cfg = load_config(write(tmp_path, f"[{section}]\n{key} =\n"))
    default = load_config(None)
    assert cfg == default


def test_empty_coupling_power_derives_from_rabi(tmp_path):
    cfg = load_config(write(tmp_path, "[drive]\ncoupling_rabi_mhz =\ncoupling_power_mw =\n"))
    assert (cfg.coupling_power_mw, cfg.drive.omega_c) == (1.0, 2.7)
    cfg = load_config(write(tmp_path, "[drive]\ncoupling_rabi_mhz = 8.1\ncoupling_power_mw =\n"))
    assert cfg.coupling_power_mw == pytest.approx(0.25)


def test_coupling_rule(tmp_path):
    """Power only: Omega_c = 2.7*sqrt(P) Gamma.  Rabi only: P = (Omega_c/2.7)^2."""
    cfg = load_config(write(tmp_path, "[drive]\ncoupling_power_mw = 0.25\n"))
    assert (cfg.coupling_power_mw, cfg.drive.omega_c) == (0.25, 1.35)
    cfg = load_config(write(tmp_path, "[drive]\ncoupling_rabi_mhz = 31.2\n"))
    assert cfg.drive.omega_c == pytest.approx(5.2, rel=1e-15)
    assert cfg.coupling_power_mw == pytest.approx((5.2 / 2.7) ** 2, rel=1e-15)
    assert cfg.coupling_power_mw == pytest.approx(3.709, abs=5e-4)


@pytest.mark.parametrize("power", ["-1", "nan", "inf"])
@pytest.mark.parametrize("rabi", ["", "15.6"])
def test_invalid_coupling_power_rejected(tmp_path, power, rabi):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, f"[drive]\ncoupling_rabi_mhz = {rabi}\ncoupling_power_mw = {power}\n"))


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[run]\nseed = -1\n"))
    assert load_config(write(tmp_path, "[run]\nseed = 0\n")).detection.seed == 0


@pytest.mark.parametrize(
    "line", ["onset_ns = nan", "fit_onset_ns = -inf", "rise_ns = 0", "rise_ns = inf"]
)
def test_invalid_run_timing_rejected(tmp_path, line):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, f"[run]\n{line}\n"))


def test_readme_table_matches_the_defaults(tmp_path):
    """The README's config table names every section and key that the
    loader accepts, and no other, and loads into the default scenario."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Configuration file\n", 1)[1].split("```ini\n", 1)[1]
    table = table.split("\n```", 1)[0]
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(table)
    assert {section: set(parser[section]) for section in parser.sections()} == {
        section: set(keys) for section, keys in _KEYS.items()
    }
    cfg = load_config(write(tmp_path, table))
    default = load_config(None)
    assert cfg == default


# One changed value for each config key, valid alone.
CHANGED = {
    ("medium", "od_stokes"): "70",
    ("medium", "od_anti_stokes"): "70",
    ("medium", "decoherence_mhz"): "0.3",
    ("medium", "doppler_width_mhz"): "300",
    ("medium", "decay3_mhz"): "5",
    ("medium", "decay4_mhz"): "5",
    ("drive", "coupling_rabi_mhz"): "15.6",
    ("drive", "coupling_power_mw"): "0.5",
    ("drive", "pump_rabi_mhz"): "24",
    ("drive", "pump_detuning_mhz"): "-1500",
    ("quadrature", "half_range"): "5",
    ("quadrature", "step_mhz"): "0.5",
    ("grid", "half_width_mhz"): "300",
    ("grid", "count"): "8192",
    ("etalons", "fwhm_mhz"): "45, 50",
    ("etalons", "centers_mhz"): "0, 1",
    ("detection", "eff_anti_stokes"): "0.5",
    ("detection", "eff_stokes"): "0.5",
    ("detection", "dark_anti_stokes_cps"): "1000",
    ("detection", "dark_stokes_cps"): "1000",
    ("detection", "trigger_cps"): "2000",
    ("detection", "bin_ns"): "12.8",
    ("detection", "accumulation_s"): "30",
    ("detection", "success_probability"): "0.0088",
    ("run", "seed"): "2",
    ("run", "onset_ns"): "100",
    ("run", "rise_ns"): "20",
    ("run", "fit_onset_ns"): "250",
}


def test_scenario_fields_are_the_config_keys():
    """The hash covers every field of every part: the fields the config
    keys set, and no other."""
    cfg = dataclasses.replace(load_config(None), q=sfwm.DopplerQuadrature())
    leaves = []
    for field in dataclasses.fields(cfg):
        part = getattr(cfg, field.name)
        is_part = dataclasses.is_dataclass(part)
        leaves += [f.name for f in dataclasses.fields(part)] if is_part else [field.name]
    assert sorted(leaves) == sorted(name for keys in _KEYS.values() for name, _ in keys.values())


@pytest.mark.parametrize("section,key", sorted(CHANGED))
def test_every_key_changes_the_hash(tmp_path, section, key):
    assert set(CHANGED) == {(s, k) for s in _KEYS for k in _KEYS[s]}
    changed = load_config(write(tmp_path, f"[{section}]\n{key} = {CHANGED[section, key]}\n"))
    assert changed != load_config(None)
    assert changed.sha256 != load_config(None).sha256


@pytest.mark.parametrize(
    "text",
    [
        "[medium]\nod_stokes = 80\n",
        "# a comment only\n",
        "[run]\nseed = 1\n",
        "[etalons]\ncenters_mhz = -0, 0\n",
    ],
)
def test_equal_run_values_hash_alike(tmp_path, text):
    """The hash is of the resolved values, not of the file's bytes; -0.0
    equals 0.0, and hashes alike."""
    cfg = load_config(write(tmp_path, text))
    assert cfg == load_config(None)
    assert cfg.sha256 == load_config(None).sha256


def test_hash_is_pinned():
    """Output headers keep their hash while the default run values stay."""
    cfg = load_config(None)
    assert cfg.sha256 == "3a6b552c09bab05d"
    dm = sfwm.DetectionModel(accumulation_s=5.0, seed=4, success_probability=0.0088)
    assert dataclasses.replace(cfg, detection=dm).sha256 == "3a9a684ff708adab"


def test_numpy_scalars_hash_as_the_numbers_they_equal():
    cfg = load_config(None)
    numpy_valued = dataclasses.replace(
        cfg,
        grid=sfwm.SpectralGrid(count=np.int64(32768)),
        detection=sfwm.DetectionModel(seed=np.int64(1)),
        onset_ns=np.float64(150.0),
    )
    assert numpy_valued == cfg
    assert numpy_valued.sha256 == cfg.sha256
    assert type(numpy_valued.detection.seed) is int
