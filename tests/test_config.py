import pytest

import sfwm
from sfwm.config import _SCHEMA, load_config
from sfwm.errors import UsageError


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_defaults_without_file():
    cfg = load_config(None)
    m = cfg.medium()
    assert m.alpha_s == 80.0
    assert m.gamma == pytest.approx(0.028, rel=1e-12)
    assert m.gamma_doppler == pytest.approx(54.0)
    d = cfg.drive()
    assert d.omega_c == pytest.approx(2.7)  # from the 1 mW power calibration
    assert d.omega_p == pytest.approx(2.0)
    assert d.delta_p == pytest.approx(-2000.0 / 6.0)
    assert cfg.quadrature() is None  # exact Doppler average
    g = cfg.grid()
    assert g.half_width == pytest.approx(64.0)
    assert g.count is None  # derived per scenario by predict_packet
    e = cfg.etalons()
    assert e.fwhm_hz == (45e6, 60e6)
    dm = cfg.detection()
    assert dm.trigger_rate == 840.0
    assert cfg.seed == 1


def test_rabi_overrides_power_for_coupling(tmp_path):
    cfg = load_config(write(tmp_path, "[drive]\ncoupling_rabi_mhz = 15.6\ncoupling_power_mw = 0.05\n"))
    assert cfg.drive().omega_c == pytest.approx(2.6)
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


def test_bad_seed_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[run]\nseed = 1.5\n"))


def test_missing_coupling_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[drive]\ncoupling_rabi_mhz =\ncoupling_power_mw =\n"))


def test_success_probability_optional(tmp_path):
    cfg = load_config(write(tmp_path, "[detection]\nsuccess_probability = 0.0088\n"))
    assert cfg.success_probability == 0.0088
    assert load_config(None).success_probability is None


def test_etalon_lists(tmp_path):
    cfg = load_config(write(tmp_path, "[etalons]\nfwhm_mhz = 35, 35\ncenters_mhz = 0, 1\n"))
    assert cfg.etalons().fwhm_hz == (35e6, 35e6)
    assert cfg.etalons().centers_hz == (0.0, 1e6)


def test_quadrature_section_selects_trapezoid(tmp_path):
    q = load_config(write(tmp_path, "[quadrature]\nhalf_range = 5\n")).quadrature()
    assert q == sfwm.DopplerQuadrature(half_range=5.0, step=0.125)
    q = load_config(write(tmp_path, "[quadrature]\nstep_mhz = 1.5\n")).quadrature()
    assert q == sfwm.DopplerQuadrature(half_range=4.0, step=0.25)
    q = load_config(write(tmp_path, "[quadrature]\nhalf_range = 5\nstep_mhz =\n")).quadrature()
    assert q == sfwm.DopplerQuadrature(half_range=5.0, step=0.125)
    assert load_config(write(tmp_path, "[quadrature]\n")).quadrature() is None
    assert load_config(write(tmp_path, "[quadrature]\nstep_mhz =\n")).quadrature() is None


def test_fractional_count_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[grid]\ncount = 32768.9\n"))
    assert load_config(write(tmp_path, "[grid]\ncount = 8192\n")).grid().count == 8192


@pytest.mark.parametrize(
    "section,key",
    [
        (section, key)
        for section in sorted(_SCHEMA)
        for key in sorted(_SCHEMA[section])
        if (section, key) != ("drive", "coupling_power_mw")
    ],
)
def test_empty_value_means_default(tmp_path, section, key):
    cfg = load_config(write(tmp_path, f"[{section}]\n{key} =\n"))
    assert cfg.values == load_config(None).values


def test_empty_coupling_power_derives_from_rabi(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[drive]\ncoupling_power_mw =\n"))
    cfg = load_config(write(tmp_path, "[drive]\ncoupling_rabi_mhz = 8.1\ncoupling_power_mw =\n"))
    assert cfg.coupling_power_mw == pytest.approx(0.25)


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "[run]\nseed = -1\n"))
    assert load_config(write(tmp_path, "[run]\nseed = 0\n")).seed == 0
