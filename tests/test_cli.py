import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfwm
import sfwm.cli
from sfwm.cli import MAX_POINTS, main
from sfwm.physics import MIN_WIDTH_POINTS
from sfwm.config import _KEYS

from conftest import exponential_packet
from oracles import faddeeva_horner

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

    def test_quadrature_past_the_node_bound_is_usage_error(self, tmp_path, capsys):
        """A step of 2.47 kHz over +-4 Doppler widths needs 1049393 nodes,
        just past MAX_NODES: refused before any node array is built."""
        cfg = tmp_path / "fine.ini"
        cfg.write_text("[quadrature]\nstep_mhz = 0.00247\n")
        out = tmp_path / "x.csv"
        code = main(["simulate-eit", "--config", str(cfg), "--points", "5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"needs 1049393 nodes, more than {sfwm.physics.MAX_NODES}" in err
        assert not out.exists()

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
        transparency window to measure, so that one column is nan, and it
        says so."""
        cfg = tmp_path / "deep.ini"
        cfg.write_text("[medium]\nod_stokes = 1e20\n[detection]\nsuccess_probability = 0.0088\n")
        out = tmp_path / "x.csv"
        extra = ["--powers-mw", "0.5,1"] if command == "sweep" else []
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 0
        header, rows = read_csv(out)
        assert rows.size
        if command == "sweep":
            fwhm = header.index("eit_fwhm_hz")
            assert np.all(np.isnan(rows[:, fwhm]))
            assert np.all(np.isfinite(np.delete(rows, fwhm, axis=1)))
            assert "no transparency window above the baseline at 0.5, 1 mW" in capsys.readouterr().err
        else:
            assert np.all(np.isfinite(rows))

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
        amp = sfwm.spectral_amplitude(sfwm.SpectralGrid(count=8192), medium, drive, None)
        amp = sfwm.apply_etalons(amp, sfwm.load_config(cfg).etalons)
        packet = sfwm.wavepacket(amp, np.arange(0.0, 4000.0, 25.6), onset_ns=150.0)
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[1:] == [f"{t:.12g},{g:.12g}" for t, g in zip(packet.tau_ns, packet.g2)]

    @pytest.mark.parametrize("line", ["accumulation_s = 0", "trigger_cps = 0"])
    def test_sbr_estimate_without_triggers(self, tmp_path, capsys, line):
        """The trigger count cancels out of the SBR estimate, so a chain that
        expects no triggers prints the value of any positive count."""
        cfg = tmp_path / "none.ini"
        estimates = []
        for text in ("", line):
            cfg.write_text(f"[detection]\nsuccess_probability = 0.0088\n{text}\n")
            argv = ["simulate-biphoton", "--config", str(cfg), "--out", str(tmp_path / "wp.csv")]
            assert main(argv) == 0
            estimates.append(re.search(r"predicted SBR: (\S+)", capsys.readouterr().err).group(1))
        assert estimates[1] == estimates[0] != "nan"

    def test_window_that_widening_cannot_fix_exit_code(self, tmp_path, capsys):
        """A +-1 Gamma window still cuts the 2.6 Gamma amplitude after the
        last doubling: exit 3, and no CSV."""
        cfg, out = tmp_path / "narrow.ini", tmp_path / "wp.csv"
        cfg.write_text("[drive]\ncoupling_rabi_mhz = 15.6\n[grid]\nhalf_width_mhz = 6\ncount = 1024\n")
        assert main(["simulate-biphoton", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("sfwm: numerical error: |A| at the grid edge")
        assert not out.exists()

    def test_coarse_grid_aliasing_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "coarse.ini"
        cfg.write_text("[grid]\nhalf_width_mhz = 576\ncount = 2048\n")
        code = main(["simulate-biphoton", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "spacing" in capsys.readouterr().err

    def test_onset_beyond_any_period_exit_code(self, tmp_path, capsys):
        """An onset of 1e300 ns puts the delays farther from it than any
        grid's period reaches: exit 3, and no CSV."""
        cfg, out = tmp_path / "late.ini", tmp_path / "wp.csv"
        cfg.write_text("[run]\nonset_ns = 1e300\n")
        assert main(["simulate-biphoton", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("sfwm: numerical error: spectral spacing")
        assert "from the onset" in err
        assert not out.exists()

    def test_capped_grid_short_of_the_decay_budget_exit_code(self, tmp_path, capsys):
        """At an onset of 42000 ns the default count caps the grid, whose
        42.65 us period holds the delays from the onset but leaves a copy of
        the packet above EDGE_DECAY_TOL of it: exit 3, naming the remedy,
        and no CSV of the spurious peak at delay 0."""
        cfg, out = tmp_path / "late.ini", tmp_path / "wp.csv"
        cfg.write_text("[run]\nonset_ns = 42000\n")
        assert main(["simulate-biphoton", "--config", str(cfg), "--out", str(out)]) == 3
        assert "increase [grid] count" in capsys.readouterr().err
        assert not out.exists()


class TestFitCommands:
    def test_fit_eit_round_trip(self, weak_config, tmp_path, capsys):
        out = tmp_path / "eit.csv"
        assert main(["simulate-eit", "--config", weak_config, "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["fit-eit", "--config", weak_config, "--csv", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_s"] == pytest.approx(82.0, rel=0.01)
        assert report["coupling_rabi_mhz"] == pytest.approx(3.9, rel=0.01)
        assert report["decoherence_mhz"] == pytest.approx(0.144, rel=0.01)
        assert report["converged"]
        assert report["initial_guess"] == pytest.approx(
            {"coupling_rabi_mhz": 3.9, "decoherence_mhz": 0.144}, rel=1e-12
        )

    @pytest.mark.parametrize(
        "line", ["doppler_width_mhz = 200", "doppler_width_mhz = 324",
                 "doppler_width_mhz = 500", "decay3_mhz = 4"]
    )
    def test_fit_eit_holds_the_configured_medium(self, tmp_path, capsys, line):
        """fit-eit fixes the Doppler width and the decay rate at the config's
        values, so it recovers the spectrum's alpha, Omega_c and gamma."""
        cfg, out = tmp_path / "run.ini", tmp_path / "eit.csv"
        cfg.write_text(f"[medium]\n{line}\n")
        assert main(["simulate-eit", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fit-eit", "--config", str(cfg), "--csv", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_s"] == pytest.approx(80.0, rel=0.01)
        assert report["omega_c_gamma_units"] == pytest.approx(2.7, rel=0.01)
        assert report["decoherence_mhz"] == pytest.approx(0.168, rel=0.01)

    def test_fit_eit_shuffled_csv_is_usage_error(self, tmp_path, capsys):
        """The baseline is read from the outermost detunings, so a spectrum
        whose rows are out of order is refused, not fitted."""
        out, shuffled = tmp_path / "eit.csv", tmp_path / "shuffled.csv"
        assert main(["simulate-eit", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        rows = lines[start:]
        order = np.random.default_rng(0).permutation(len(rows))
        shuffled.write_text("\n".join(lines[:start] + [rows[i] for i in order]) + "\n")
        capsys.readouterr()
        assert main(["fit-eit", "--csv", str(shuffled)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "detuning grid must be strictly increasing" in captured.err

    def test_fit_eit_transmission_past_1e150_is_usage_error(self, tmp_path, capsys):
        """Past the spectrum's limit the baseline's sums could overflow; the
        input is refused (exit 2) before the fit, which ended in an
        InversionError (exit 3)."""
        out, bright = tmp_path / "eit.csv", tmp_path / "bright.csv"
        assert main(["simulate-eit", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        lines[first] = lines[first].split(",")[0] + ",1e200"
        bright.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["fit-eit", "--csv", str(bright)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spectrum transmissions must be finite and at most 1e+150" in captured.err

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
        assert report["onset_ns"] == 200.0

    def test_fit_eit_out_of_steps_exit_code(self, weak_config, tmp_path, capsys, monkeypatch):
        """A solve cut to one step from the default guesses does not converge:
        exit 3 with the numerical-error prefix."""
        out = tmp_path / "eit.csv"
        assert main(["simulate-eit", "--config", weak_config, "--out", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(sfwm.analysis, "_LM_MAX_STEPS", 1)
        assert main(["fit-eit", "--csv", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("sfwm: numerical error: EIT fit did not converge")
        assert captured.out == ""

    def test_fit_biphoton_out_of_steps_exit_code(self, tmp_path, capsys, monkeypatch):
        packet = sfwm.synth_histogram(
            exponential_packet(1.0, 260.0, span_ns=4000.0), sfwm.DetectionModel(seed=0), 1.0,
            peak_sbr=42.0,
        )
        path = tmp_path / "wp.csv"
        path.write_text("delay_ns,counts\n" + "\n".join(
            f"{t},{c}" for t, c in zip(packet.delay_ns, packet.counts)) + "\n")
        monkeypatch.setattr(sfwm.analysis, "_NEWTON_MAX_STEPS", 1)
        assert main(["fit-biphoton", "--csv", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("sfwm: numerical error: exponential fit did not converge")
        assert captured.out == ""

    def test_fit_biphoton_reads_the_fit_onset(self, tmp_path, capsys):
        t = np.arange(0.0, 8000.0, 25.6)
        y = 10.0 + np.where(t >= 300.0, 420.0 * np.exp(-(t - 300.0) / 260.0), 0.0)
        path, cfg = tmp_path / "wp.csv", tmp_path / "run.ini"
        path.write_text("delay_ns,counts\n" + "\n".join(f"{a},{b}" for a, b in zip(t, y)) + "\n")
        cfg.write_text("[run]\nfit_onset_ns = 300\n")
        assert main(["fit-biphoton", "--config", str(cfg), "--csv", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["onset_ns"] == 300.0
        assert report["tau_ns"] == pytest.approx(260.0, rel=1e-6)

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


# `sfwm sweep` on the default config, 12 significant digits.  First written
# by the closed form evaluated at every np.linspace detuning; re-recorded
# when the grid's period came to count the 150 ns onset, which moved the
# values by at most 3.6e-8 relative.
FULL_GRID_SWEEP = """\
power_mw,tau_ns,linewidth_hz,eit_fwhm_hz,rate_pairs_per_s,brightness_pairs_per_s_mw_mhz,sbr
0.02,464.603184705,342561.02483,326611.647299,3.4646303833e-05,0.000202278142122,2.15621058153e-10
0.05,451.949834876,352151.789447,341311.886272,8.42097403901e-05,0.000478258199525,4.92434109873e-10
0.1,432.063238717,368360.297359,355196.51898,0.000160873354829,0.000873456536884,8.92677619185e-10
0.2,396.383645041,401517.431617,380759.867093,0.000294755493917,0.0014682077076,1.56294910555e-09
0.5,314.929426398,505367.011626,463663.631013,0.000583587799865,0.00230956032523,3.04571936494e-09
1,231.618021408,687144.040537,622184.054318,0.000855231437473,0.0024892348242,4.73452796305e-09
2,149.127582529,1067240.14694,976751.172491,0.00109679742412,0.00205539011489,6.77937036715e-09
5,69.6964158604,2283545.59022,2111382.13675,0.00127512443603,0.00111679349998,9.28406668553e-09
"""


class TestFaddeevaBlocks:
    """The default commands against the same commands with the Faddeeva
    function's polynomial evaluated by Horner's rule over all 36
    coefficients, its earlier form."""

    @staticmethod
    def block_and_horner(tmp_path, command):
        """The command's CSV columns, as is and with Horner's rule."""
        block, horner = tmp_path / "block.csv", tmp_path / "horner.csv"
        assert main([command, "--out", str(block)]) == 0
        with mock.patch.object(sfwm.physics, "_faddeeva", faddeeva_horner):
            assert main([command, "--out", str(horner)]) == 0
        return read_csv(block)[1], read_csv(horner)[1]

    @pytest.mark.parametrize("command", ["simulate-eit", "sweep"])
    def test_printed_values(self, tmp_path, command):
        """Equal up to one unit in the twelfth printed digit."""
        block, horner = self.block_and_horner(tmp_path, command)
        np.testing.assert_allclose(block, horner, rtol=2e-11, atol=0.0)

    def test_simulate_biphoton(self, tmp_path):
        block, horner = self.block_and_horner(tmp_path, "simulate-biphoton")
        assert np.all(np.abs(block - horner) <= 1e-13 * np.abs(horner).max(axis=0))


class TestSweep:
    def test_default_sweep_matches_the_full_grid_values(self, tmp_path):
        """The sweep's values stay within 1e-10 relative of the recorded
        ones, which the full-grid amplitude first wrote, and a rerun writes
        the same bytes."""
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--out", str(a)]) == 0
        assert main(["sweep", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, rows = read_csv(a)
        lines = FULL_GRID_SWEEP.splitlines()
        assert header == lines[0].split(",")
        expected = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_allclose(rows, expected, rtol=1e-10, atol=0.0)

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

    def test_empty_power_list_rejected(self, tmp_path, capsys):
        """A list of separators alone meets the sweep's own check: exit 2."""
        assert main(["sweep", "--powers-mw", ",", "--out", str(tmp_path / "x.csv")]) == 2
        assert "empty power list" in capsys.readouterr().err

    def test_overflowing_anchor_is_numerics_error(self, strong_config, tmp_path, capsys):
        """An anchor rate of 1e308 pairs/s/MHz overflows the rate scale: exit
        3 without a warning, and no CSV of infinite rates."""
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--config", strong_config, "--powers-mw", "0.5,1",
                         "--anchor-power-mw", "1", "--anchor-rate-per-mhz", "1e308",
                         "--out", str(out)])
        assert code == 3
        assert "rate scale inf" in capsys.readouterr().err
        assert not out.exists()

    def test_anchor_matches_its_own_power(self, tmp_path):
        """Powers far below 1e-8 mW are told apart: the anchor fixes the rate
        per MHz of linewidth at 2e-9 mW, not at the 1e-9 mW row."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--powers-mw", "1e-9,2e-9", "--anchor-power-mw", "2e-9",
                     "--anchor-rate-per-mhz", "1500", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        per_mhz = rows[:, header.index("rate_pairs_per_s")] / (
            rows[:, header.index("linewidth_hz")] / 1e6)
        assert per_mhz[1] == pytest.approx(1500.0, rel=1e-9)
        assert per_mhz[0] == pytest.approx(750.0, rel=1e-3)

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
    assert {key for section, key in SWEEP_KEYS if section == "medium"} == set(_KEYS["medium"])


@pytest.mark.parametrize("section,key", sorted(SWEEP_KEYS))
def test_every_key_reaches_the_sweep(tmp_path, default_sweep_rows, section, key):
    changed = sweep_rows(tmp_path, f"[{section}]\n{key} = {SWEEP_KEYS[section, key]}\n")
    assert changed != default_sweep_rows


def test_sweep_header_hashes_the_run_values(tmp_path):
    """No file, a file that sets a default and a comment-only file run the
    same values, and their headers say so with one hash."""
    cfg, out = tmp_path / "sweep.ini", tmp_path / "sweep.csv"
    lines = []
    for text in (None, "[medium]\nod_stokes = 80\n", "# nothing set\n"):
        argv = ["sweep", "--powers-mw", "0.5", "--out", str(out)]
        if text is not None:
            cfg.write_text(text)
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        lines += [ln for ln in out.read_text().splitlines() if ln.startswith("# scenario-sha256:")]
    assert lines == [f"# scenario-sha256: {sfwm.load_config().sha256}"] * 3


# One changed value for each [detection] key that reaches synth's counts or
# time tags, on a short acquisition with time tags.
SYNTH_KEYS = {
    "trigger_cps": "2000",
    "bin_ns": "12.8",
    "accumulation_s": "30",
    "success_probability": "0.02",
}
SYNTH_BASE = {"accumulation_s": "20", "success_probability": "0.0088"}
# [detection] keys that reach synth's outputs only through the scenario hash
# in their headers.  A detection chain driven by the pair rate, which reads
# them, empties this set.
FINGERPRINT_ONLY = {
    "eff_anti_stokes": "0.5",
    "eff_stokes": "0.5",
    "dark_anti_stokes_cps": "1000",
    "dark_stokes_cps": "1000",
}


def synth_outputs(tmp_path, **changed):
    """synth's data rows and time-tag records, without the header lines."""
    cfg, out, tags = tmp_path / "synth.ini", tmp_path / "synth.csv", tmp_path / "tags.txt"
    cfg.write_text(
        "[detection]\n" + "".join(f"{k} = {v}\n" for k, v in (SYNTH_BASE | changed).items())
    )
    argv = ["synth", "--config", str(cfg), "--out", str(out), "--timetags", str(tags)]
    assert main(argv) == 0
    return [
        [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        for path in (out, tags)
    ]


@pytest.fixture(scope="module")
def default_synth_outputs(tmp_path_factory):
    return synth_outputs(tmp_path_factory.mktemp("default"))


def test_synth_keys_cover_the_detection_section():
    assert set(SYNTH_KEYS) | set(FINGERPRINT_ONLY) == set(_KEYS["detection"])


@pytest.mark.parametrize("key", sorted(SYNTH_KEYS))
def test_every_detection_key_reaches_synth(tmp_path, default_synth_outputs, key):
    counts, tags = synth_outputs(tmp_path, **{key: SYNTH_KEYS[key]})
    assert counts != default_synth_outputs[0] or tags != default_synth_outputs[1]


@pytest.mark.parametrize("key", sorted(FINGERPRINT_ONLY))
def test_fingerprint_only_keys_leave_synth_data_alone(tmp_path, default_synth_outputs, key):
    assert synth_outputs(tmp_path, **{key: FINGERPRINT_ONLY[key]}) == default_synth_outputs


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


@pytest.mark.parametrize("command,option", [
    ("sweep", "--pump-mw"),
    ("synth", "--power-mw"),
    ("synth", "--success-probability"),
    ("fit-eit", "--alpha0"),
    ("fit-eit", "--coupling0-mhz"),
    ("fit-eit", "--gamma0-mhz"),
    ("fit-biphoton", "--x0-ns"),
])
def test_config_copies_are_not_options(tmp_path, capsys, command, option):
    """The pump and coupling powers, the success probability, the fit
    commands' starting values and the fit onset come from the config alone;
    fit-eit inverts the optical depth from the baseline."""
    path = ["--csv" if command.startswith("fit-") else "--out", str(tmp_path / "x.csv")]
    with pytest.raises(SystemExit) as exc:
        main([command, option, "1", *path])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


# Values of the exit-code contract; a key left out or left empty keeps its
# default.
CONTRACT_SECTIONS = ("medium", "drive", "grid", "etalons", "detection", "run")
CONTRACT_KEYS = [
    *((section, key) for section in CONTRACT_SECTIONS[:-1] for key in sorted(_KEYS[section])),
    ("run", "onset_ns"), ("run", "rise_ns"), ("run", "fit_onset_ns"),
]
CONTRACT_VALUES = ["", "0", "-1", "-2.5", "nan", "inf", "-inf", "1e300", "-1e300"]
# The option of a command that takes a count, a list or a normalization, and
# values drawn for it.
CONTRACT_OPTIONS = {"simulate-eit": "--points", "sweep": "--powers-mw", "synth": "--peak-sbr"}
CONTRACT_OPTION_VALUES = ["0", "2", "1e300", "abc", "1,x", "100000000000"]
CONTRACT_COMMANDS = {
    "simulate-eit": [],
    "simulate-biphoton": ["--tau-max-ns", "1000"],
    "sweep": ["--powers-mw", "1"],
    "synth": ["--tau-max-ns", "1000"],
}
# [detection] values that drawn ones replace: a short acquisition, and the
# success probability of synth (simulate-biphoton reads it too) unless synth
# draws --peak-sbr.  synth writes time tags whenever it has no --peak-sbr.
CONTRACT_DETECTION = {
    ("detection", "accumulation_s"): "60",
    ("detection", "success_probability"): "0.0088",
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
    option=st.none() | st.sampled_from(CONTRACT_OPTION_VALUES),
)
# A negative power made the derived Rabi frequency complex (TypeError).
@example(command="sweep", values={("drive", "coupling_power_mw"): "-1"}, csv=None, option=None)
# Squaring a huge Rabi frequency raised OverflowError.
@example(command="simulate-eit", values={("drive", "coupling_rabi_mhz"): "1e300"}, csv=None,
         option=None)
# A non-finite or huge rise time reached np.arange (ValueError).
@example(command="simulate-biphoton", values={("run", "rise_ns"): "nan"}, csv=None, option=None)
@example(command="sweep", values={("run", "rise_ns"): "1e300"}, csv=None, option=None)
# An infinite onset wrote a packet of nan before the fit refused it.
@example(command="simulate-biphoton", values={("run", "onset_ns"): "-inf"}, csv=None, option=None)
@example(command="synth", values={("medium", "od_stokes"): "1e300"}, csv=None, option=None)
# The cross response overflows without a warning (exit 2).
@example(command="simulate-biphoton",
         values={("medium", "decay3_mhz"): "1e300", ("medium", "decay4_mhz"): "1e300"}, csv=None,
         option=None)
# The far-field series of the EIT fit's gradient squared a huge argument
# (RuntimeWarning).
@example(command="fit-eit", values={("medium", "decay3_mhz"): "1e300"}, csv=None, option=None)
# Inputs of the fits: simulated, empty, header only, ragged, malformed,
# non-finite, one column, too short, and spectra without a window.
@example(command="fit-eit", values={}, csv=None, option=None)
@example(command="fit-biphoton", values={}, csv=None, option=None)
@example(command="fit-eit", values={("drive", "coupling_rabi_mhz"): "0"}, csv=None, option=None)
@example(command="fit-biphoton", values={("drive", "pump_rabi_mhz"): "0"}, csv=None, option=None)
@example(command="fit-eit", values={}, csv="", option=None)
@example(command="fit-biphoton", values={}, csv="delay_ns,counts\n", option=None)
@example(command="fit-eit", values={}, csv="a,b\n1,2\n3\n", option=None)
@example(command="fit-biphoton", values={}, csv="a,b\n1,2,3\n4,5,6\n", option=None)
@example(command="fit-eit", values={}, csv="a,b\n1,2\n3,x\n", option=None)
@example(command="fit-biphoton", values={}, csv="a,b\n0,1\n25.6,nan\n", option=None)
@example(command="fit-eit", values={}, csv="a,b\n0,inf\n1,0.5\n", option=None)
@example(command="fit-biphoton", values={}, csv="a\n0\n25.6\n", option=None)
@example(command="fit-eit", values={}, csv="a,b\n0,0.5\n1,0.5\n", option=None)
@example(command="fit-biphoton", values={}, csv="a,b\n25.6,1\n0,2\n", option=None)
# A falling delay grid overflowed exp in the decay fit (RuntimeWarning).
@example(command="fit-biphoton", values={},
         csv="a,b\n" + "".join(f"{481.6 - 25.6 * k:.1f},{1000 >> k}\n" for k in range(12)),
         option=None)
# A power that is not a number raised ValueError.
@example(command="sweep", values={}, csv=None, option="abc")
# Counts past any memory: numpy's allocation failed, or the process was killed.
@example(command="simulate-eit", values={}, csv=None, option="100000000000")
@example(command="simulate-biphoton", values={("grid", "count"): "2000000000"}, csv=None,
         option=None)
@example(command="sweep", values={("grid", "count"): "99999999"}, csv=None, option=None)
# Expected counts past numpy's Poisson sampler raised ValueError.
@example(command="synth", values={}, csv=None, option="1e300")
@example(command="synth",
         values={("detection", "trigger_cps"): "1e18", ("detection", "success_probability"): "0.5"},
         csv=None, option=None)
# Time tags past any memory: numpy's allocation failed.
@example(command="synth",
         values={("detection", "accumulation_s"): "1e9",
                 ("detection", "success_probability"): "0.5"},
         csv=None, option=None)
def test_config_values_exit_0_2_or_3(tmp_path_factory, command, values, csv, option):
    """Whatever the [medium], [drive], [grid], [etalons], [detection] and
    run-timing values, whatever a fit command's CSV holds, and whatever the
    point count of simulate-eit, the power list of sweep or the peak SBR of
    synth, a command ends in success, a usage error or a numerical error,
    never in a traceback.  The fit commands read the drawn config too."""
    work = tmp_path_factory.mktemp("contract")
    detection = dict(CONTRACT_DETECTION)
    if command == "synth" and option is not None:
        del detection["detection", "success_probability"]
    values = detection | values
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for (s, k), v in values.items() if s == section)
        for section in CONTRACT_SECTIONS
    )
    (work / "run.ini").write_text(text)
    config = ["--config", str(work / "run.ini")]
    if command in CONTRACT_SOURCES:
        data = work / "in.csv"
        if csv is None:
            assert main([*CONTRACT_SOURCES[command], *config, "--out", str(data)]) in (0, 2, 3)
        else:
            data.write_text(csv)
        argv = [command, "--csv", str(data), *config]
    else:
        argv = [command, *CONTRACT_COMMANDS[command], *config, "--out", str(work / "out.csv")]
        if option is not None and command in CONTRACT_OPTIONS:
            # The last value given is the one argparse keeps.
            argv += [CONTRACT_OPTIONS[command], option]
        elif command == "synth":
            argv += ["--timetags", str(work / "tags.txt")]
    try:
        code = main(argv)
    except SystemExit as exc:
        # argparse's own usage errors, such as --points abc.
        code = exc.code
    assert code in (0, 2, 3)


# Usage errors that each writing command meets after its config has loaded:
# (command, config text, arguments).  "TAGS" stands for a time-tag path and
# "MISSING" for a path in a directory that does not exist.
LATE_USAGE_ERRORS = [
    ("simulate-eit", "", ["--points", "1"]),
    ("simulate-eit", "", ["--delta-min-mhz", "1", "--delta-max-mhz", "-1"]),
    # Three points are too few for the width measurement.
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
    ("synth", "[detection]\nsuccess_probability = 0.0088\n", ["--tau-max-ns", "1e30"]),
    ("synth", "", ["--peak-sbr", "10", "--timetags", "TAGS"]),
    ("synth", "[detection]\naccumulation_s = 0\n", ["--peak-sbr", "10", "--timetags", "TAGS"]),
    # Without a success probability a non-finite peak SBR reaches expected_bins.
    ("synth", "", ["--peak-sbr", "nan"]),
    ("simulate-eit", "", ["--out", "MISSING"]),
    ("simulate-biphoton", "", ["--out", "MISSING"]),
    ("sweep", "", ["--powers-mw", "1", "--out", "MISSING"]),
    ("synth", "", ["--peak-sbr", "10", "--out", "MISSING"]),
    ("synth", "[detection]\nsuccess_probability = 0.0088\n",
     ["--timetags", "TAGS", "--out", "MISSING"]),
    # The CSV is written first and removed when the tags cannot be.
    ("synth", "[detection]\naccumulation_s = 20\nsuccess_probability = 0.0088\n",
     ["--timetags", "MISSING"]),
    ("synth", "[detection]\naccumulation_s = 0\nsuccess_probability = 0.0088\n",
     ["--timetags", "MISSING"]),
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


@pytest.mark.parametrize("command", ["simulate-eit", "fit-biphoton"])
def test_closed_stdout_is_usage_error(tmp_path, command):
    """A reader that closed the pipe ends the run with exit 2 and one line,
    whether the CSV write or the final flush of a short report meets it."""
    packet = tmp_path / "wp.csv"
    t = np.arange(0.0, 4000.0, 25.6)
    y = 10.0 + np.where(t >= 200.0, 420.0 * np.exp(-(t - 200.0) / 260.0), 0.0)
    packet.write_text("delay_ns,counts\n" + "".join(f"{a},{b}\n" for a, b in zip(t, y)))
    argv = {"simulate-eit": [], "fit-biphoton": ["--csv", str(packet)]}[command]
    env = dict(os.environ)
    package_root = str(Path(sfwm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sfwm.cli", command, *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2, done.stderr
    assert done.stderr.strip().splitlines()[-1] == "sfwm: error: cannot write stdout"
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


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

    @pytest.mark.parametrize(
        "pair, omega_c, p_mw",
        [("coupling_rabi_mhz = 15.6\ncoupling_power_mw = 1", 2.6, 1.0),
         ("coupling_rabi_mhz = 15.6", 2.6, (2.6 / 2.7) ** 2),
         ("coupling_power_mw = 1", 2.7, 1.0)],
        ids=["both", "rabi only", "power only"],
    )
    def test_coupling_pair(self, tmp_path, pair, omega_c, p_mw):
        """The packet's Omega_c is coupling_rabi_mhz where it is set, and the
        background's power, written as the p_mw line, is coupling_power_mw
        where it is set; a key left out follows from the other."""
        cfg, out = tmp_path / "pair.ini", tmp_path / "h.csv"
        cfg.write_text(f"[drive]\n{pair}\n[detection]\naccumulation_s = 0\n"
                       "success_probability = 0.0088\n")
        scenario = sfwm.load_config(cfg)
        assert scenario.drive.omega_c == pytest.approx(omega_c, rel=1e-15)
        assert scenario.coupling_power_mw == pytest.approx(p_mw, rel=1e-15)
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert f"# p_mw: {scenario.coupling_power_mw}" in out.read_text().splitlines()

    def test_missing_normalization_rejected(self, tmp_path):
        cfg = tmp_path / "none.ini"
        cfg.write_text("[medium]\nod_stokes = 80\n[grid]\ncount = 8192\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("timetags", [False, True])
    def test_peak_sbr_and_success_probability_rejected(self, tmp_path, capsys, timetags):
        """One normalization per run: a CSV scaled by the peak SBR beside
        tags drawn from the success probability would disagree."""
        cfg, out, tags = tmp_path / "both.ini", tmp_path / "h.csv", tmp_path / "tags.txt"
        cfg.write_text(STRONG_CONFIG.replace("accumulation_s = 1200", "accumulation_s = 20"))
        extra = ["--timetags", str(tags)] if timetags else []
        argv = ["synth", "--config", str(cfg), "--out", str(out), "--peak-sbr", "2", *extra]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--peak-sbr" in err and "[detection] success_probability" in err
        assert not out.exists() and not tags.exists()

    def test_weak_coupling_synth_recovers_decay_constant(self, weak_config, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        assert main(["synth", "--config", weak_config, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["fit-biphoton", "--csv", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)

        medium = sfwm.MediumParams(alpha_s=82.0, gamma=0.144 / 6.0)
        drive = sfwm.DriveParams(omega_c=3.9 / 6.0)
        amp = sfwm.spectral_amplitude(sfwm.SpectralGrid(count=8192), medium, drive, None)
        packet = sfwm.wavepacket(sfwm.apply_etalons(amp, sfwm.load_config().etalons),
                                 np.arange(0.0, 4000.0, 25.6), onset_ns=150.0)
        truth = sfwm.fit_exponential(packet).tau_ns
        assert report["tau_ns"] == pytest.approx(truth, abs=3.0 * report["tau_err_ns"])
        assert 476.0 <= truth <= 644.0  # 560 ns +/- 15% for the underlying packet

    @pytest.mark.parametrize("out, tags", [("c.csv", "c.csv"), ("c.csv", "./sub/../c.csv"),
                                           ("-", "-"), ("c.csv", "-"), ("c.csv", "")])
    def test_timetags_path_clash_rejected(self, tmp_path, monkeypatch, capsys, out, tags):
        """The tag file never replaces the CSV, and '-' and '' are no tag file names."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        cfg = tmp_path / "short.ini"
        cfg.write_text("[detection]\nsuccess_probability = 0.0088\naccumulation_s = 5\n")
        assert main(["synth", "--config", str(cfg), "--out", out, "--timetags", tags]) == 2
        captured = capsys.readouterr()
        assert "--timetags" in captured.err and not captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["short.ini", "sub"]

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

    def test_headers_hash_the_run_values(self, tmp_path):
        """The CSV and the tag file carry the scenario's hash, so two runs
        that differ only in the decoherence, which the detection model does
        not hold, write different headers over their different records."""
        cfg, out, tags = tmp_path / "run.ini", tmp_path / "h.csv", tmp_path / "tags.txt"
        headers = []
        for gamma in ("0.168", "0.3"):
            cfg.write_text(f"[medium]\ndecoherence_mhz = {gamma}\n"
                           "[detection]\naccumulation_s = 5\nsuccess_probability = 0.0088\n")
            assert main(["synth", "--config", str(cfg), "--out", str(out),
                         "--timetags", str(tags)]) == 0
            line = f"# scenario-sha256: {sfwm.load_config(cfg).sha256}"
            csv_header = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
            tag_header = [ln for ln in tags.read_text().splitlines() if ln.startswith("#")]
            assert line in csv_header and line in tag_header
            assert not any(ln.startswith("# model:") for ln in csv_header + tag_header)
            headers.append(tag_header)
        assert headers[0] != headers[1]


class TestConfigErrors:
    def test_empty_numeric_value_never_a_traceback(self, tmp_path):
        cfg = tmp_path / "empty.ini"
        cfg.write_text("[grid]\ncount =\n")
        code = main(["simulate-biphoton", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code in (0, 2)

    @pytest.mark.parametrize(
        "text",
        [
            "[run]\nseed = -1\n[detection]\n",
            "[detection]\nbin_ns = nan\n",
            "[detection]\nbin_ns = inf\n",
            "[detection]\ntrigger_cps = nan\n",
            "[detection]\naccumulation_s = inf\n",
            "[detection]\neff_stokes = nan\n",
        ],
    )
    def test_invalid_detection_or_seed_is_usage_error(self, text, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text + "success_probability = 0.0088\n[grid]\ncount = 8192\n")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "cannot parse" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-biphoton", "synth"])
    @pytest.mark.parametrize("value", ["2", "nan"])
    def test_invalid_success_probability_is_usage_error(self, tmp_path, capsys, command, value):
        """Checked once, as the config loads: no command writes a file."""
        cfg, out, tags = tmp_path / "bad.ini", tmp_path / "x.csv", tmp_path / "tags.txt"
        cfg.write_text(f"[detection]\nsuccess_probability = {value}\n[grid]\ncount = 8192\n")
        extra = ["--timetags", str(tags)] if command == "synth" else []
        assert main([command, "--config", str(cfg), "--out", str(out), *extra]) == 2
        assert "[detection] success_probability must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists() and not tags.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[grid]\nhalf_width_mhz = nan\n",
            "[grid]\nhalf_width_mhz = inf\n",
            "[etalons]\nfwhm_mhz = nan, 60\n",
            "[etalons]\ncenters_mhz = 0, inf\n",
            "[etalons]\nfwhm_mhz = 45,abc\n",
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

    @pytest.mark.parametrize("command", ["simulate-biphoton", "synth"])
    @pytest.mark.parametrize("value", ["10", "0"])
    def test_short_tau_max_is_usage_error(self, strong_config, tmp_path, capsys, command, value):
        """A span shorter than two bins stops before any amplitude is evaluated."""
        out = tmp_path / "x.csv"
        with mock.patch.object(sfwm.biphoton, "spectral_amplitude") as amplitude:
            code = main([command, "--config", strong_config, "--out", str(out),
                         f"--tau-max-ns={value}"])
        assert code == 2
        assert "at least two samples" in capsys.readouterr().err
        amplitude.assert_not_called()
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

    @pytest.mark.parametrize("powers", ["abc", "1, x ,5"])
    def test_sweep_nonnumeric_power_is_usage_error(self, tmp_path, capsys, powers):
        code = main(["sweep", "--powers-mw", powers, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        bad = powers if powers == "abc" else "x"
        assert f"--powers-mw: {bad!r} is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [MAX_POINTS + 1, 100_000_000_000])
    def test_eit_points_past_the_maximum_is_usage_error(self, tmp_path, capsys, points):
        """Rejected before any spectrum is computed."""
        with mock.patch.object(sfwm.cli, "eit_spectrum", side_effect=AssertionError("computed")):
            code = main(["simulate-eit", "--points", str(points), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"need {MIN_WIDTH_POINTS} to {MAX_POINTS} points" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [2, 4])
    def test_eit_points_below_the_width_minimum_is_usage_error(self, tmp_path, capsys, points):
        """Fewer points than the width measurement needs are rejected before
        any spectrum is computed, and the message names the bound."""
        out = tmp_path / "x.csv"
        with mock.patch.object(sfwm.cli, "eit_spectrum", side_effect=AssertionError("computed")):
            code = main(["simulate-eit", "--points", str(points), "--out", str(out)])
        assert code == 2
        assert f"need {MIN_WIDTH_POINTS} to {MAX_POINTS} points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["--delta-min-mhz=-inf", "--delta-max-mhz=inf"])
    def test_eit_detuning_bounds_checked_up_front(self, strong_config, tmp_path, capsys, recwarn,
                                                  bound):
        code = main(["simulate-eit", "--config", strong_config, bound,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "array" not in err
        assert not recwarn.list


def subcommands(parser):
    """Subcommand name -> its parser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def float_options():
    """(command, option) for every float-typed option of every subcommand."""
    return [
        (name, action.option_strings[-1])
        for name, sub in subcommands(sfwm.cli.build_parser()).items()
        for action in sub._actions
        if action.type is float
    ]


def test_readme_names_every_option():
    """The README's command-line section names every option of the parser
    and of each subcommand, and no option that they lack."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    parser = sfwm.cli.build_parser()
    defined = {
        option
        for p in (parser, *subcommands(parser).values())
        for action in p._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert sorted(defined - named) == []
    assert sorted(named - defined) == []


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
        "fit-eit": ["--config", cfg, "--csv", str(eit)],
        "fit-biphoton": ["--config", cfg, "--csv", str(packet)],
        "sweep": ["--config", cfg, "--powers-mw", "1", "--anchor-power-mw", "1",
                  "--anchor-rate-per-mhz", "1500", "--out", out],
        "synth": ["--config", cfg, "--out", out, "--timetags", str(tmp_path / "tags.txt")],
    }


class TestFloatOptionContract:
    """Every float option of every command: a non-finite value is a usage
    error (exit 2), reported without a numpy warning."""

    def test_every_command_has_a_base_invocation(self, base_argv, capsys):
        assert set(subcommands(sfwm.cli.build_parser())) == set(base_argv)
        assert sorted(float_options()) == [
            ("simulate-biphoton", "--tau-max-ns"),
            ("simulate-eit", "--delta-max-mhz"),
            ("simulate-eit", "--delta-min-mhz"),
            ("sweep", "--anchor-power-mw"),
            ("sweep", "--anchor-rate-per-mhz"),
            ("synth", "--peak-sbr"),
            ("synth", "--tau-max-ns"),
        ]
        for command, argv in base_argv.items():
            assert main([command, *argv]) == 0, command

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,option", float_options())
    def test_nonfinite_value_is_usage_error(self, base_argv, capsys, recwarn, command, option,
                                            value):
        code = main([command, *base_argv[command], f"{option}={value}"])
        assert code == 2, capsys.readouterr().err
        assert not recwarn.list, [str(w.message) for w in recwarn.list]
