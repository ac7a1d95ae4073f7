import argparse
import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfwm
import sfwm.cli
from sfwm.cli import main
from sfwm.config import _SCHEMA

from conftest import exponential_packet

STRONG_CONFIG = """\
[medium]
od_stokes = 80
decoherence_mhz = 0.168
[drive]
coupling_rabi_mhz = 15.6
coupling_power_mw = 1.0
[grid]
count = 8192
[detection]
accumulation_s = 1200
success_probability = 0.0088
[run]
seed = 11
"""

WEAK_CONFIG = """\
[medium]
od_stokes = 82
decoherence_mhz = 0.144
[drive]
coupling_rabi_mhz = 3.9
coupling_power_mw = 0.05
[grid]
count = 8192
[detection]
accumulation_s = 2400
success_probability = 0.00093
[run]
seed = 4
"""


@pytest.fixture
def strong_config(tmp_path):
    path = tmp_path / "strong.ini"
    path.write_text(STRONG_CONFIG)
    return str(path)


@pytest.fixture
def weak_config(tmp_path):
    path = tmp_path / "weak.ini"
    path.write_text(WEAK_CONFIG)
    return str(path)


def read_csv(path):
    header, rows = None, []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


class TestSimulateEit:
    def test_strong_coupling_width_summary(self, strong_config, tmp_path, capsys):
        out = tmp_path / "eit.csv"
        code = main(["simulate-eit", "--config", strong_config, "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["detuning_hz", "transmission"]
        assert rows.shape[0] == 481
        match = re.search(r"EIT FWHM: ([0-9.]+) kHz", capsys.readouterr().err)
        assert match, "summary line missing"
        assert float(match.group(1)) == pytest.approx(560.0, rel=0.10)

    def test_empty_range_is_usage_error(self, strong_config, tmp_path):
        code = main(["simulate-eit", "--config", strong_config, "--points", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "line", ["step_mhz = 0", "step_mhz = -0.5", "half_range = nan"]
    )
    def test_invalid_quadrature_is_usage_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "quad.ini"
        cfg.write_text(f"[quadrature]\n{line}\n")
        code = main(["simulate-eit", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "quadrature" in capsys.readouterr().err

    def test_quadrature_section_reaches_the_spectrum(self, strong_config, tmp_path):
        exact, trapezoid = tmp_path / "exact.csv", tmp_path / "trapezoid.csv"
        coarse = tmp_path / "coarse.ini"
        coarse.write_text(STRONG_CONFIG + "[quadrature]\nstep_mhz = 1.5\n")
        assert main(["simulate-eit", "--config", strong_config, "--out", str(exact)]) == 0
        assert main(["simulate-eit", "--config", str(coarse), "--out", str(trapezoid)]) == 0
        _, rows_exact = read_csv(exact)
        _, rows_trapezoid = read_csv(trapezoid)
        assert not np.array_equal(rows_exact[:, 1], rows_trapezoid[:, 1])

    def test_huge_optical_depth_does_not_warn(self, tmp_path, capsys):
        """The spectrum averages the self response alone; the cross response,
        whose prefactor overflows at this depth, is not computed."""
        cfg = tmp_path / "deep.ini"
        cfg.write_text("[medium]\nod_stokes = 1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate-eit", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 0
        _, rows = read_csv(tmp_path / "x.csv")
        assert np.all(rows[:, 1] == 0.0)
        assert "no transparency window" in capsys.readouterr().err

    def test_no_coupling_notice(self, tmp_path, capsys):
        cfg = tmp_path / "dark.ini"
        cfg.write_text("[drive]\ncoupling_rabi_mhz = 0\ncoupling_power_mw =\n")
        code = main(["simulate-eit", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 0
        assert "no transparency window" in capsys.readouterr().err


class TestSimulateBiphoton:
    def test_strong_coupling_decay_constant(self, strong_config, tmp_path, capsys):
        out = tmp_path / "wp.csv"
        code = main(["simulate-biphoton", "--config", strong_config, "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["delay_ns", "g2_arb"]
        err = capsys.readouterr().err
        tau = float(re.search(r"fitted decay constant: ([0-9.]+) ns", err).group(1))
        assert tau == pytest.approx(260.0, rel=0.15)
        assert "predicted SBR" in err

    def test_pump_off_writes_zeros(self, tmp_path, capsys):
        cfg = tmp_path / "off.ini"
        cfg.write_text("[drive]\ncoupling_rabi_mhz = 15.6\npump_rabi_mhz = 0\n[grid]\ncount = 8192\n")
        out = tmp_path / "wp.csv"
        code = main(["simulate-biphoton", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert np.all(rows[:, 1] == 0.0)
        assert "no signal" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-biphoton", "sweep", "synth"])
    def test_huge_optical_depth_stays_finite(self, tmp_path, capsys, command):
        """The phase-matching factor is finite at any finite depth, so the
        packet commands write finite rows; the sweep's EIT spectrum has no
        transparency window to measure, and it says so."""
        cfg = tmp_path / "deep.ini"
        cfg.write_text("[medium]\nod_stokes = 1e20\n[detection]\nsuccess_probability = 0.0088\n")
        out = tmp_path / "x.csv"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        if command == "sweep":
            assert code == 3
            assert "no peak above baseline" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == 0
            _, rows = read_csv(out)
            assert rows.size and np.all(np.isfinite(rows))

    def test_strong_coupling_widens_the_grid_like_the_sweep(self, tmp_path):
        """At 31.2 MHz |A| has not decayed at the edges of the default window;
        the packet path widens it, as the sweep does at the same power."""
        cfg = tmp_path / "strong.ini"
        cfg.write_text("[drive]\ncoupling_rabi_mhz = 31.2\n")
        out = tmp_path / "wp.csv"
        assert main(["simulate-biphoton", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        tau = sfwm.fit_exponential(sfwm.WavePacket(rows[:, 0], rows[:, 1], 25.6)).tau_ns
        p_mw = (31.2 / 6.0 / 2.7) ** 2
        expected = sfwm.sweep_predict(sfwm.load_config(str(cfg)), [p_mw]).tau_ns[0]
        assert tau == pytest.approx(expected, rel=1e-10)

    def test_explicit_count_is_used_as_given(self, tmp_path):
        """[grid] count = 8192 gives the bytes of the direct API on that grid."""
        cfg = tmp_path / "explicit.ini"
        cfg.write_text("[grid]\ncount = 8192\n")
        out = tmp_path / "wp.csv"
        assert main(["simulate-biphoton", "--config", str(cfg), "--out", str(out)]) == 0
        medium = sfwm.MediumParams(alpha_s=80.0, gamma=0.168 / 6.0)
        drive = sfwm.DriveParams(omega_c=2.7)
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(sfwm.SpectralGrid(count=8192), medium, drive))
        packet = sfwm.wavepacket(amp, np.arange(0.0, 4000.0, 25.6), onset_ns=150.0)
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[1:] == [f"{t:.12g},{g:.12g}" for t, g in zip(packet.tau_ns, packet.g2)]

    def test_coarse_grid_aliasing_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "coarse.ini"
        cfg.write_text("[grid]\nhalf_width_mhz = 576\ncount = 2048\n")
        code = main(["simulate-biphoton", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "spacing" in capsys.readouterr().err


class TestFitCommands:
    def test_fit_eit_round_trip(self, weak_config, tmp_path, capsys):
        out = tmp_path / "eit.csv"
        assert main(["simulate-eit", "--config", weak_config, "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["fit-eit", "--csv", str(out), "--alpha0", "70",
                     "--coupling0-mhz", "3.0", "--gamma0-mhz", "0.2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_s"] == pytest.approx(82.0, rel=0.01)
        assert report["coupling_rabi_mhz"] == pytest.approx(3.9, rel=0.01)
        assert report["decoherence_mhz"] == pytest.approx(0.144, rel=0.01)
        assert report["converged"]

    def test_fit_eit_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("detuning_hz,transmission\n1.0,not_a_number\n")
        assert main(["fit-eit", "--csv", str(bad)]) == 2

    def test_fit_biphoton_exact_model(self, tmp_path, capsys):
        t = np.arange(0.0, 8000.0, 25.6)
        y = 10.0 + np.where(t >= 200.0, 420.0 * np.exp(-(t - 200.0) / 260.0), 0.0)
        path = tmp_path / "wp.csv"
        path.write_text("delay_ns,counts\n" + "\n".join(f"{a},{b}" for a, b in zip(t, y)) + "\n")
        assert main(["fit-biphoton", "--csv", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tau_ns"] == pytest.approx(260.0, rel=1e-6)
        assert report["sbr"] == pytest.approx(42.0, rel=1e-6)
        assert report["cs_violation"] == pytest.approx(441.0, rel=1e-6)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [3, 40])  # baseline window, fit region
    def test_fit_biphoton_nonfinite_row_is_usage_error(self, tmp_path, capsys, value, row):
        t = np.arange(0.0, 4000.0, 25.6)
        y = 10.0 + np.where(t >= 200.0, 420.0 * np.exp(-(t - 200.0) / 260.0), 0.0)
        cells = [f"{a},{b}" for a, b in zip(t, y)]
        cells[row] = f"{t[row]},{value}"
        path = tmp_path / "wp.csv"
        path.write_text("delay_ns,counts\n" + "\n".join(cells) + "\n")
        assert main(["fit-biphoton", "--csv", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_fit_biphoton_flat_file(self, tmp_path, capsys):
        t = np.arange(0.0, 4000.0, 25.6)
        path = tmp_path / "flat.csv"
        path.write_text("delay_ns,counts\n" + "\n".join(f"{a},12" for a in t) + "\n")
        assert main(["fit-biphoton", "--csv", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sbr"] == pytest.approx(0.0, abs=1e-9)

    def test_fit_biphoton_poisson_synthetic(self, tmp_path, capsys):
        shape = exponential_packet(1.0, 260.0, span_ns=4000.0)
        dm = sfwm.DetectionModel(accumulation_s=1200.0, seed=31)
        hist = sfwm.synth_histogram(shape, dm, 1.0, peak_sbr=42.0)
        path = tmp_path / "hist.csv"
        path.write_text(
            "delay_ns,counts\n"
            + "\n".join(f"{a},{b}" for a, b in zip(hist.delay_ns, hist.counts))
            + "\n"
        )
        assert main(["fit-biphoton", "--csv", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tau_ns"] == pytest.approx(260.0, abs=3.0 * report["tau_err_ns"])
        assert report["sbr"] == pytest.approx(42.0, rel=0.15)


class TestSweep:
    def test_single_power_row(self, strong_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", strong_config, "--powers-mw", "0.5", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert rows.shape == (1, 7)
        assert rows[0, 0] == 0.5

    def test_negative_power_rejected(self, strong_config, tmp_path):
        code = main(["sweep", "--config", strong_config, "--powers-mw", "-1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_brightness_peaks_near_one_milliwatt(self, strong_config, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", strong_config, "--powers-mw", "0.2,1,5",
                     "--anchor-power-mw", "1", "--anchor-rate-per-mhz", "1500",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        brightness = rows[:, header.index("brightness_pairs_per_s_mw_mhz")]
        assert np.argmax(brightness) == 1  # interior maximum at 1 mW
        assert "peak spectral brightness at 1 mW" in capsys.readouterr().err


    def test_bin_width_reaches_the_sweep(self, strong_config, tmp_path):
        """[detection] bin_ns sets the delay grid the sweep fits."""
        taus = {}
        for bin_ns in ("25.6", "12.8"):
            config = tmp_path / f"bin{bin_ns}.ini"
            config.write_text(
                STRONG_CONFIG.replace("[detection]\n", f"[detection]\nbin_ns = {bin_ns}\n")
            )
            out = tmp_path / f"sweep{bin_ns}.csv"
            assert main(["sweep", "--config", str(config), "--powers-mw", "0.5,1",
                         "--out", str(out)]) == 0
            header, rows = read_csv(out)
            taus[bin_ns] = rows[:, header.index("tau_ns")]
        cfg = sfwm.load_config(str(tmp_path / "bin25.6.ini"))
        finer = dataclasses.replace(cfg, detection=dataclasses.replace(cfg.detection, bin_ns=12.8))
        expected = sfwm.sweep_predict(finer, [0.5, 1.0]).tau_ns
        np.testing.assert_allclose(taus["12.8"], expected, rtol=1e-10)
        assert np.all(np.abs(taus["12.8"] / taus["25.6"] - 1.0) > 0.01)


# One changed value for each config key the sweep reads besides bin_ns.  The
# sweep ignores the coupling keys (--powers-mw replaces them), the other
# [detection] keys and the seed.
SWEEP_KEYS = {
    ("medium", "od_stokes"): "60",
    ("medium", "od_anti_stokes"): "40",
    ("medium", "decoherence_mhz"): "0.3",
    ("medium", "doppler_width_mhz"): "200",
    ("medium", "decay3_mhz"): "9",
    ("medium", "decay4_mhz"): "4",
    ("drive", "pump_rabi_mhz"): "18",
    ("drive", "pump_detuning_mhz"): "-1500",
    ("run", "onset_ns"): "100",
    ("run", "rise_ns"): "20",
    ("run", "fit_onset_ns"): "250",
}


def sweep_rows(tmp_path, text):
    cfg, out = tmp_path / "sweep.ini", tmp_path / "sweep.csv"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--powers-mw", "0.5", "--out", str(out)]) == 0
    return [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]


@pytest.fixture(scope="module")
def default_sweep_rows(tmp_path_factory):
    return sweep_rows(tmp_path_factory.mktemp("default"), "")


def test_sweep_keys_cover_the_medium():
    assert {key for section, key in SWEEP_KEYS if section == "medium"} == _SCHEMA["medium"]


@pytest.mark.parametrize("section,key", sorted(SWEEP_KEYS))
def test_every_key_reaches_the_sweep(tmp_path, default_sweep_rows, section, key):
    changed = sweep_rows(tmp_path, f"[{section}]\n{key} = {SWEEP_KEYS[section, key]}\n")
    assert changed != default_sweep_rows


def test_brightness_divides_by_the_configured_pump_power(tmp_path):
    """Four times the pump Rabi frequency is 16 times the pump power: the
    pair rate rises 16-fold and the rate per pump power stays put."""
    cfg = tmp_path / "pump.ini"
    cfg.write_text("[drive]\npump_rabi_mhz = 48\n")
    powers = [0.05, 1.0, 5.0]
    default = sfwm.sweep_predict(sfwm.load_config(), powers)
    strong = sfwm.sweep_predict(sfwm.load_config(str(cfg)), powers)
    np.testing.assert_allclose(strong.rate_pairs_per_s, 16.0 * default.rate_pairs_per_s, rtol=1e-12)
    np.testing.assert_allclose(strong.brightness, default.brightness, rtol=1e-12)


@pytest.mark.parametrize("command,option", [("sweep", "--pump-mw"), ("synth", "--power-mw")])
def test_config_copies_are_not_options(tmp_path, capsys, command, option):
    """The pump and coupling powers come from the config alone."""
    with pytest.raises(SystemExit) as exc:
        main([command, option, "1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


# Values of the exit-code contract; a key left out or left empty keeps its
# default.
CONTRACT_KEYS = [
    *((section, key) for section in ("medium", "drive") for key in sorted(_SCHEMA[section])),
    ("run", "onset_ns"), ("run", "rise_ns"), ("run", "fit_onset_ns"),
]
CONTRACT_VALUES = ["", "0", "-1", "-2.5", "nan", "inf", "-inf", "1e300", "-1e300"]
CONTRACT_COMMANDS = {
    "simulate-eit": [],
    "simulate-biphoton": ["--tau-max-ns", "1000"],
    "sweep": ["--powers-mw", "1"],
    "synth": ["--tau-max-ns", "1000", "--success-probability", "0.0088"],
}
# The fit commands read the CSV that a simulation writes under the same
# config values, or a drawn CSV text.
CONTRACT_SOURCES = {
    "fit-eit": ["simulate-eit", "--points", "41"],
    "fit-biphoton": ["simulate-biphoton", "--tau-max-ns", "1000"],
}
CSV_TOKENS = ["0", "1", "-1", "25.6", "0.5", "1e300", "-1e300", "nan", "inf", "-inf", "x", ""]
csv_texts = st.lists(
    st.lists(st.sampled_from(CSV_TOKENS), min_size=1, max_size=3), max_size=14
).map(lambda rows: "a,b\n" + "".join(",".join(row) + "\n" for row in rows))


@settings(max_examples=160, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(sorted([*CONTRACT_COMMANDS, *CONTRACT_SOURCES])),
    values=st.dictionaries(
        st.sampled_from(CONTRACT_KEYS), st.sampled_from(CONTRACT_VALUES), max_size=2
    ),
    csv=st.none() | csv_texts,
)
# A negative power made the derived Rabi frequency complex (TypeError).
@example(command="sweep", values={("drive", "coupling_power_mw"): "-1"}, csv=None)
# Squaring a huge Rabi frequency raised OverflowError.
@example(command="simulate-eit", values={("drive", "coupling_rabi_mhz"): "1e300"}, csv=None)
# A non-finite or huge rise time reached np.arange (ValueError).
@example(command="simulate-biphoton", values={("run", "rise_ns"): "nan"}, csv=None)
@example(command="sweep", values={("run", "rise_ns"): "1e300"}, csv=None)
# An infinite onset wrote a packet of nan before the fit refused it.
@example(command="simulate-biphoton", values={("run", "onset_ns"): "-inf"}, csv=None)
@example(command="synth", values={("medium", "od_stokes"): "1e300"}, csv=None)
# The cross response overflows without a warning (exit 2).
@example(command="simulate-biphoton",
         values={("medium", "decay3_mhz"): "1e300", ("medium", "decay4_mhz"): "1e300"}, csv=None)
# Inputs of the fits: simulated, empty, header only, ragged, malformed,
# non-finite, one column, too short, and spectra without a window.
@example(command="fit-eit", values={}, csv=None)
@example(command="fit-biphoton", values={}, csv=None)
@example(command="fit-eit", values={("drive", "coupling_rabi_mhz"): "0"}, csv=None)
@example(command="fit-biphoton", values={("drive", "pump_rabi_mhz"): "0"}, csv=None)
@example(command="fit-eit", values={}, csv="")
@example(command="fit-biphoton", values={}, csv="delay_ns,counts\n")
@example(command="fit-eit", values={}, csv="a,b\n1,2\n3\n")
@example(command="fit-biphoton", values={}, csv="a,b\n1,2,3\n4,5,6\n")
@example(command="fit-eit", values={}, csv="a,b\n1,2\n3,x\n")
@example(command="fit-biphoton", values={}, csv="a,b\n0,1\n25.6,nan\n")
@example(command="fit-eit", values={}, csv="a,b\n0,inf\n1,0.5\n")
@example(command="fit-biphoton", values={}, csv="a\n0\n25.6\n")
@example(command="fit-eit", values={}, csv="a,b\n0,0.5\n1,0.5\n")
@example(command="fit-biphoton", values={}, csv="a,b\n25.6,1\n0,2\n")
# A falling delay grid overflowed exp in the decay fit (RuntimeWarning).
@example(command="fit-biphoton", values={},
         csv="a,b\n" + "".join(f"{481.6 - 25.6 * k:.1f},{1000 >> k}\n" for k in range(12)))
def test_config_values_exit_0_2_or_3(tmp_path_factory, command, values, csv):
    """Whatever the [medium], [drive] and run-timing values, and whatever a
    fit command's CSV holds, a command ends in success, a usage error or a
    numerical error, never in a traceback."""
    work = tmp_path_factory.mktemp("contract")
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for (s, k), v in values.items() if s == section)
        for section in ("medium", "drive", "run")
    )
    (work / "run.ini").write_text(text)
    config = ["--config", str(work / "run.ini")]
    if command in CONTRACT_SOURCES:
        data = work / "in.csv"
        if csv is None:
            assert main([*CONTRACT_SOURCES[command], *config, "--out", str(data)]) in (0, 2, 3)
        else:
            data.write_text(csv)
        argv = [command, "--csv", str(data)]
    else:
        argv = [command, *CONTRACT_COMMANDS[command], *config, "--out", str(work / "out.csv")]
    assert main(argv) in (0, 2, 3)


# Usage errors that each writing command meets after its config has loaded:
# (command, config text, arguments).  "TAGS" stands for a time-tag path and
# "MISSING" for a path in a directory that does not exist.
LATE_USAGE_ERRORS = [
    ("simulate-eit", "", ["--points", "1"]),
    ("simulate-eit", "", ["--delta-min-mhz", "1", "--delta-max-mhz", "-1"]),
    # Three points make a CSV but no width measurement.
    ("simulate-eit", "", ["--points", "3"]),
    ("simulate-biphoton", "", ["--tau-max-ns", "1e30"]),
    # Fewer than 10 bins past the fit onset.
    ("simulate-biphoton", "[run]\nfit_onset_ns = 5000\n", []),
    # The cross response overflows, so the amplitude is not finite.
    ("simulate-biphoton", "[medium]\ndecay3_mhz = 1e300\ndecay4_mhz = 1e300\n", []),
    ("sweep", "", ["--powers-mw", ","]),
    ("sweep", "", ["--powers-mw", "1", "--anchor-power-mw", "1"]),
    ("sweep", "", ["--powers-mw", "1", "--anchor-power-mw", "2", "--anchor-rate-per-mhz", "1500"]),
    ("synth", "", []),
    ("synth", "", ["--success-probability", "0.0088", "--tau-max-ns", "1e30"]),
    ("synth", "", ["--success-probability", "2", "--timetags", "TAGS"]),
    ("synth", "", ["--peak-sbr", "10", "--timetags", "TAGS"]),
    ("synth", "[detection]\naccumulation_s = 0\n", ["--peak-sbr", "10", "--timetags", "TAGS"]),
    ("simulate-eit", "", ["--out", "MISSING"]),
    ("simulate-biphoton", "", ["--out", "MISSING"]),
    ("sweep", "", ["--powers-mw", "1", "--out", "MISSING"]),
    ("synth", "", ["--peak-sbr", "10", "--out", "MISSING"]),
    ("synth", "", ["--success-probability", "0.0088", "--timetags", "TAGS", "--out", "MISSING"]),
    # The CSV is written first and removed when the tags cannot be.
    ("synth", "[detection]\naccumulation_s = 20\n",
     ["--success-probability", "0.0088", "--timetags", "MISSING"]),
    ("synth", "[detection]\naccumulation_s = 0\n",
     ["--success-probability", "0.0088", "--timetags", "MISSING"]),
]


@pytest.mark.parametrize("command,text,args", LATE_USAGE_ERRORS)
def test_usage_error_writes_no_output(tmp_path, capsys, command, text, args):
    """Every command computes first and writes last: a usage error leaves no file."""
    cfg, out, tags = tmp_path / "run.ini", tmp_path / "out.csv", tmp_path / "tags.txt"
    missing = tmp_path / "nodir" / "x.txt"
    cfg.write_text("[grid]\ncount = 8192\n" + text)
    paths = {"TAGS": str(tags), "MISSING": str(missing)}
    argv = [command, "--config", str(cfg), "--out", str(out), *(paths.get(a, a) for a in args)]
    assert main(argv) == 2
    assert not out.exists() and not tags.exists()
    if "MISSING" in args:
        assert f"cannot write {missing}" in capsys.readouterr().err


class TestSynth:
    def test_byte_identical_reruns(self, strong_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--config", strong_config, "--out", str(a)]) == 0
        assert main(["synth", "--config", strong_config, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_duration_header_only(self, tmp_path):
        cfg = tmp_path / "zero.ini"
        cfg.write_text("[detection]\naccumulation_s = 0\nsuccess_probability = 0.0088\n")
        out = tmp_path / "zero.csv"
        tags = tmp_path / "zero_tags.txt"
        code = main(["synth", "--config", str(cfg), "--out", str(out), "--timetags", str(tags)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["delay_ns", "counts"]
        assert rows.size == 0
        trig, part = sfwm.read_timetags(tags)
        assert trig.size == 0 and part.size == 0

    def test_missing_normalization_rejected(self, tmp_path):
        cfg = tmp_path / "none.ini"
        cfg.write_text("[medium]\nod_stokes = 80\n[grid]\ncount = 8192\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_weak_coupling_synth_recovers_decay_constant(self, weak_config, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        assert main(["synth", "--config", weak_config, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fit-biphoton", "--csv", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)

        medium = sfwm.MediumParams(alpha_s=82.0, gamma=0.144 / 6.0)
        drive = sfwm.DriveParams(omega_c=3.9 / 6.0)
        amp = sfwm.spectral_amplitude(sfwm.SpectralGrid(count=8192), medium, drive)
        packet = sfwm.wavepacket(sfwm.apply_etalons(amp), np.arange(0.0, 4000.0, 25.6),
                                 onset_ns=150.0)
        truth = sfwm.fit_exponential(packet).tau_ns
        assert report["tau_ns"] == pytest.approx(truth, abs=3.0 * report["tau_err_ns"])
        assert 476.0 <= truth <= 644.0  # 560 ns +/- 15% for the underlying packet

    def test_timetag_reruns_byte_identical(self, tmp_path):
        cfg = tmp_path / "short.ini"
        cfg.write_text(STRONG_CONFIG.replace("accumulation_s = 1200", "accumulation_s = 20"))
        tags = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in tags:
            assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "h.csv"),
                         "--timetags", str(path)]) == 0
        assert tags[0].read_bytes() == tags[1].read_bytes()

    def test_timetag_file(self, strong_config, tmp_path):
        cfg = tmp_path / "short.ini"
        cfg.write_text(STRONG_CONFIG.replace("accumulation_s = 1200", "accumulation_s = 20"))
        tags = tmp_path / "tags.txt"
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "h.csv"),
                     "--timetags", str(tags)])
        assert code == 0
        trig, part = sfwm.read_timetags(tags)
        assert trig.size > 0 and part.size > 0
        assert np.all(np.diff(trig) >= 0) and np.all(np.diff(part) >= 0)


class TestConfigErrors:
    def test_empty_numeric_value_never_a_traceback(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("[grid]\ncount =\n")
        code = main(["simulate-biphoton", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code in (0, 2)

    @pytest.mark.parametrize(
        "text",
        [
            "[run]\nseed = -1\n",
            "[detection]\nbin_ns = nan\n",
            "[detection]\nbin_ns = inf\n",
            "[detection]\ntrigger_cps = nan\n",
            "[detection]\naccumulation_s = inf\n",
            "[detection]\neff_stokes = nan\n",
        ],
    )
    def test_invalid_detection_or_seed_is_usage_error(self, text, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text + "[grid]\ncount = 8192\n")
        code = main(["synth", "--config", str(cfg), "--success-probability", "0.0088",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[grid]\nhalf_width_mhz = nan\n",
            "[grid]\nhalf_width_mhz = inf\n",
            "[etalons]\nfwhm_mhz = nan, 60\n",
            "[etalons]\ncenters_mhz = 0, inf\n",
        ],
    )
    def test_nonfinite_grid_or_etalon_is_usage_error(self, text, tmp_path, recwarn):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        code = main(["simulate-biphoton", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert not recwarn.list


class TestCsvContract:
    def test_round_trip_preserves_printed_precision(self, strong_config, tmp_path):
        out = tmp_path / "eit.csv"
        main(["simulate-eit", "--config", strong_config, "--points", "51", "--out", str(out)])
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("detuning"):
                continue
            for token in line.strip().split(","):
                assert format(float(token), ".12g") == token

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[medium]\nod_stokes = 80\nnonsense = 1\n")
        assert main(["simulate-eit", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


class TestNonfiniteArguments:
    @pytest.mark.parametrize("command", ["simulate-biphoton", "synth"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_tau_max_is_usage_error(self, strong_config, tmp_path, capsys, command, value):
        out = tmp_path / "x.csv"
        code = main([command, "--config", strong_config, "--out", str(out),
                     f"--tau-max-ns={value}"])
        assert code == 2
        assert "--tau-max-ns must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate-biphoton", "synth"])
    @pytest.mark.parametrize("value", ["1e12", "1e30"])
    def test_huge_tau_max_is_usage_error(self, strong_config, tmp_path, capsys, command, value):
        """The delay axis is bounded before it is allocated."""
        out = tmp_path / "x.csv"
        code = main([command, "--config", strong_config, "--out", str(out),
                     f"--tau-max-ns={value}"])
        assert code == 2
        assert f"spans more than {sfwm.biphoton.MAX_DELAY_BINS} bins" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_sweep_anchor_rate_is_usage_error(self, strong_config, tmp_path, capsys, value):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", strong_config, "--powers-mw", "1",
                     "--anchor-power-mw", "1", f"--anchor-rate-per-mhz={value}", "--out", str(out)])
        assert code == 2
        assert "anchor rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("powers", ["nan", "1,inf"])
    def test_sweep_nonfinite_power_is_usage_error(self, strong_config, tmp_path, powers):
        code = main(["sweep", "--config", strong_config, "--powers-mw", powers,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("bound", ["--delta-min-mhz=-inf", "--delta-max-mhz=inf"])
    def test_eit_detuning_bounds_checked_up_front(self, strong_config, tmp_path, capsys, recwarn,
                                                  bound):
        code = main(["simulate-eit", "--config", strong_config, bound,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "array" not in err
        assert not recwarn.list


def float_options():
    """(command, option) for every float-typed option of every subcommand."""
    parser = sfwm.cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, action.option_strings[-1])
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.type is float
    ]


@pytest.fixture
def base_argv(tmp_path):
    """A valid invocation of every subcommand, on small inputs."""
    cfg = tmp_path / "small.ini"
    cfg.write_text(STRONG_CONFIG.replace("accumulation_s = 1200", "accumulation_s = 20"))
    cfg, out = str(cfg), str(tmp_path / "out.csv")
    eit = tmp_path / "eit.csv"
    assert main(["simulate-eit", "--config", cfg, "--points", "41", "--out", str(eit)]) == 0
    t = np.arange(0.0, 4000.0, 25.6)
    y = 10.0 + np.where(t >= 200.0, 420.0 * np.exp(-(t - 200.0) / 260.0), 0.0)
    packet = tmp_path / "wp.csv"
    packet.write_text("delay_ns,counts\n" + "\n".join(f"{a},{b}" for a, b in zip(t, y)) + "\n")
    return {
        "simulate-eit": ["--config", cfg, "--out", out],
        "simulate-biphoton": ["--config", cfg, "--out", out],
        "fit-eit": ["--csv", str(eit)],
        "fit-biphoton": ["--csv", str(packet)],
        "sweep": ["--config", cfg, "--powers-mw", "1", "--anchor-power-mw", "1",
                  "--anchor-rate-per-mhz", "1500", "--out", out],
        "synth": ["--config", cfg, "--out", out, "--timetags", str(tmp_path / "tags.txt")],
    }


class TestFloatOptionContract:
    """Every float option of every command: a non-finite value is a usage
    error (exit 2), reported without a numpy warning."""

    def test_every_command_has_a_base_invocation(self, base_argv, capsys):
        parser = sfwm.cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(commands.choices) == set(base_argv)
        assert len(float_options()) >= 12
        for command, argv in base_argv.items():
            assert main([command, *argv]) == 0, command

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,option", float_options())
    def test_nonfinite_value_is_usage_error(self, base_argv, capsys, recwarn, command, option,
                                            value):
        code = main([command, *base_argv[command], f"{option}={value}"])
        assert code == 2, capsys.readouterr().err
        assert not recwarn.list, [str(w.message) for w in recwarn.list]
