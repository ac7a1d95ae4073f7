import dataclasses
import warnings

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import sfwm
from sfwm import analysis
from sfwm.biphoton import (
    DEFAULT_COUNT,
    _derived_count,
    _is_uniform,
    _kernel_spectrum,
    _next_fast_len,
    _phase_matching,
)
from sfwm.errors import AliasingError, GridTooNarrowError, UsageError

from conftest import BAD_DELAY_GRIDS, DELAY_NS, ONSET_NS, scenario

SMALL_GRID = sfwm.SpectralGrid(half_width=24.0, count=4096)
FAST_QUAD = sfwm.DopplerQuadrature(step=0.25)


def mp_phase_matching(z: complex) -> complex:
    """expm1(2iz)/(2iz) in 40-digit arithmetic, 1 at z = 0."""
    with mpmath.workdps(40):
        w = 2j * mpmath.mpc(z)
        return complex(mpmath.expm1(w) / w) if w != 0 else 1.0 + 0.0j


# 0, subnormal z, |z| near 1e-6, moderate z, large Im z, and depths far past
# any vapor's, where sin(z) and exp(iz) each overflow or underflow.
PHASE_MATCHING_POINTS = [
    0.0, 5e-324, 1e-310 + 1e-310j, 1e-6, -1e-6, 1e-6j, 7e-7 + 7e-7j, -3e-7 + 1e-6j,
    1.0 + 1.0j, 0.12 + 0.3j, np.pi, -2.5 + 0.01j, 50.0 + 1.0j,
    2.0 + 50.0j, -0.5 + 300.0j, 1e5 + 1e5j, 1e150 + 1.0j,
]


class TestPhaseMatching:
    @pytest.mark.parametrize("z", PHASE_MATCHING_POINTS, ids=str)
    def test_against_mpmath(self, z):
        """The largest deviation at these points is 1.7e-16, and 4.2e-16
        over 963 points of magnitude 1e-320 to 1e160."""
        value = _phase_matching(np.array([z], dtype=complex))[0]
        oracle = mp_phase_matching(complex(z))
        assert abs(value - oracle) <= 1e-15 * abs(oracle)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(z=st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False))
    def test_finite_and_bounded_in_the_upper_half_plane(self, z):
        """The factor is the mean of exp(2izt) over 0 <= t <= 1, so with
        Im z >= 0, as for the self response, its magnitude is at most 1."""
        value = _phase_matching(np.array([complex(z.real, abs(z.imag))]))
        assert np.all(np.isfinite(value))
        assert abs(value[0]) <= 1.0 + 1e-15


class TestSpectralGrid:
    def test_minimum_count(self):
        with pytest.raises(UsageError):
            sfwm.SpectralGrid(count=512)

    @pytest.mark.parametrize("half_width", [np.nan, np.inf, 0.0, -1.0])
    def test_half_width_must_be_finite_and_positive(self, half_width):
        with pytest.raises(UsageError):
            sfwm.SpectralGrid(half_width=half_width)

    def test_grid_is_symmetric_and_uniform(self):
        g = sfwm.SpectralGrid(half_width=8.0, count=2048)
        assert g.delta[0] == -8.0 and g.delta[-1] == 8.0
        steps = np.diff(g.delta)
        np.testing.assert_allclose(steps, g.spacing, rtol=1e-12)

    def test_grid_without_count_cannot_be_sampled(self, medium_a, drive_a):
        g = sfwm.SpectralGrid(count=None)
        with pytest.raises(UsageError):
            g.delta
        with pytest.raises(UsageError):
            sfwm.spectral_amplitude(g, medium_a, drive_a)


class TestSpectralAmplitude:
    def test_zero_pump_gives_zero_amplitude(self, medium_a):
        d = sfwm.DriveParams(omega_c=2.6, omega_p=0.0)
        amp = sfwm.spectral_amplitude(SMALL_GRID, medium_a, d, FAST_QUAD)
        assert np.all(amp.values == 0.0)

    def test_peak_inside_window_and_edges_decayed(self, amplitude_a):
        mags = np.abs(amplitude_a.values)
        peak_delta = amplitude_a.grid.delta[int(np.argmax(mags))]
        assert abs(peak_delta) < 0.2  # within the sub-MHz transparency window
        edge = max(mags[0], mags[-1]) / mags.max()
        assert edge < 1e-3

    def test_narrow_grid_rejected(self, medium_a, drive_a):
        narrow = sfwm.SpectralGrid(half_width=2.0, count=1024)
        with pytest.raises(GridTooNarrowError):
            sfwm.spectral_amplitude(narrow, medium_a, drive_a, FAST_QUAD)

    def test_against_adaptive_quadrature_oracle(self, amplitude_a, medium_a, drive_a):
        """Closed-form-averaged amplitude vs scipy.quad at samples near the peak."""
        gd = medium_a.gamma_doppler

        def averaged(func, delta):
            def component(part):
                val, _ = quad(
                    lambda w: np.exp(-((w / gd) ** 2)) / (np.sqrt(np.pi) * gd)
                    * part(func(delta, w, medium_a, drive_a)),
                    -np.inf,
                    np.inf,
                    epsabs=1e-11,
                    epsrel=1e-11,
                    limit=400,
                )
                return val
            return component(np.real) + 1j * component(np.imag)

        mags = np.abs(amplitude_a.values)
        ipk = int(np.argmax(mags))
        for idx in (ipk - 40, ipk, ipk + 40):
            delta = float(amplitude_a.grid.delta[idx])
            c = averaged(sfwm.cross_chi, delta)
            z = averaged(sfwm.self_chi, delta)
            oracle = c * np.sin(z) / z * np.exp(1j * z)
            assert abs(oracle - amplitude_a.values[idx]) / abs(oracle) < 1e-6

    def test_fused_averages_match_reference_path(self, medium_a, drive_a):
        """The vectorized trapezoid path agrees with doppler_average per point."""
        grid = sfwm.SpectralGrid(half_width=24.0, count=1024)
        cross, self_ = sfwm.averaged_susceptibilities(
            grid, medium_a, drive_a, sfwm.DopplerQuadrature()
        )
        for idx in (0, 311, 512, 777):
            delta = float(grid.delta[idx])
            c_ref = sfwm.doppler_average(lambda w: sfwm.cross_chi(delta, w, medium_a, drive_a), medium_a)
            z_ref = sfwm.doppler_average(lambda w: sfwm.self_chi(delta, w, medium_a, drive_a), medium_a)
            assert abs(cross[idx] - c_ref) <= 1e-12 * abs(c_ref)
            assert abs(self_[idx] - z_ref) <= 1e-12 * abs(z_ref)

    @pytest.mark.parametrize("case", ["strong", "weak", "5 mW widened"])
    def test_closed_form_matches_trapezoid(self, case, medium_a, drive_a, medium_b, drive_b):
        """The exact Doppler average against the default trapezoidal rule.

        The widened window is the one the sweep reaches at 5 mW after two
        doublings (+-256 Gamma).  Each point is averaged independently, so a
        coarser sampling of that window covers the same detunings; the largest
        deviation there sits where the window crosses the trapezoid's
        truncation at 4 Doppler widths.
        """
        grid, m, d = {
            "strong": (sfwm.SpectralGrid(), medium_a, drive_a),
            "weak": (sfwm.SpectralGrid(), medium_b, drive_b),
            "5 mW widened": (
                sfwm.SpectralGrid(half_width=256.0, count=8192),
                sfwm.MediumParams(alpha_s=82.0, gamma=0.025),
                sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(5.0)),
            ),
        }[case]
        exact = sfwm.averaged_susceptibilities(grid, m, d)
        trapezoid = sfwm.averaged_susceptibilities(grid, m, d, sfwm.DopplerQuadrature())
        for fast, ref in zip(exact, trapezoid):
            assert np.max(np.abs(fast - ref)) <= 1e-7 * np.max(np.abs(ref))

    def test_closed_form_against_adaptive_quadrature_oracle(self):
        """Where the trapezoid deviates most (5 mW, delta near 4 Doppler
        widths), the closed form agrees with scipy.quad to rounding."""
        m = sfwm.MediumParams(alpha_s=82.0, gamma=0.025)
        d = sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(5.0))
        grid = sfwm.SpectralGrid(half_width=256.0, count=8192)
        idx = int(np.searchsorted(grid.delta, 4.0 * m.gamma_doppler))
        delta = float(grid.delta[idx])
        gd = m.gamma_doppler
        exact = sfwm.averaged_susceptibilities(grid, m, d)
        for func, value in zip((sfwm.cross_chi, sfwm.self_chi), exact):
            parts = [
                quad(
                    lambda w: np.exp(-((w / gd) ** 2)) / (np.sqrt(np.pi) * gd)
                    * part(func(delta, w, m, d)),
                    -np.inf, np.inf, epsabs=1e-15, epsrel=1e-13, limit=800,
                )[0]
                for part in (np.real, np.imag)
            ]
            oracle = parts[0] + 1j * parts[1]
            assert abs(value[idx] - oracle) <= 1e-10 * abs(oracle)

    def test_self_average_linear_in_optical_depth(self, drive_a):
        m1 = sfwm.MediumParams(alpha_s=40.0, gamma=0.03, alpha_as=80.0)
        m2 = sfwm.MediumParams(alpha_s=80.0, gamma=0.03, alpha_as=80.0)
        _, z1 = sfwm.averaged_susceptibilities(SMALL_GRID, m1, drive_a, FAST_QUAD)
        _, z2 = sfwm.averaged_susceptibilities(SMALL_GRID, m2, drive_a, FAST_QUAD)
        assert np.array_equal(2.0 * z1, z2)

    def test_huge_optical_depth_averages_without_overflow(self):
        """The cross prefactor takes the root of each depth, not of their
        product, which overflows at 1e300."""
        m = sfwm.MediumParams(alpha_s=1e300, gamma=0.025)
        m_unit = sfwm.MediumParams(alpha_s=1.0, gamma=0.025)
        d = sfwm.DriveParams(omega_c=2.7)
        grid = sfwm.SpectralGrid(64.0, 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cross, self_ = sfwm.averaged_susceptibilities(grid, m, d)
        assert np.all(np.isfinite(cross)) and np.all(np.isfinite(self_))
        # Both averages are linear in a common optical depth.
        unit_cross, unit_self = sfwm.averaged_susceptibilities(grid, m_unit, d)
        np.testing.assert_allclose(cross, 1e300 * unit_cross, rtol=1e-12)
        np.testing.assert_allclose(self_, 1e300 * unit_self, rtol=1e-12)


class TestEtalons:
    def test_flat_filter_leaves_amplitude_unchanged(self):
        grid = sfwm.SpectralGrid(half_width=8.0, count=2049)
        amp = sfwm.BiphotonAmplitude(grid, np.ones(2049, dtype=complex))
        out = sfwm.apply_etalons(amp, sfwm.EtalonChain((1e15,), (0.0,)))
        assert np.max(np.abs(out.values - amp.values)) < 1e-6

    def test_on_resonance_unity(self):
        grid = sfwm.SpectralGrid(half_width=8.0, count=2049)
        amp = sfwm.BiphotonAmplitude(grid, np.full(2049, 2.0 + 1.0j))
        out = sfwm.apply_etalons(amp, sfwm.EtalonChain((45e6,), (0.0,)))
        center = 1024  # delta exactly zero there
        assert out.values[center] == amp.values[center]

    def test_half_width_point_transmits_half_power(self):
        grid = sfwm.SpectralGrid(half_width=8.0, count=2049)
        amp = sfwm.BiphotonAmplitude(grid, np.ones(2049, dtype=complex))
        out = sfwm.apply_etalons(amp, sfwm.EtalonChain((45e6,), (0.0,)))
        idx = 1024 + 480  # delta = 3.75 Gamma = 22.5 MHz = FWHM/2
        assert abs(out.values[idx]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_mismatched_chain_rejected(self):
        with pytest.raises(UsageError):
            sfwm.EtalonChain((45e6, 60e6), (0.0,))

    @pytest.mark.parametrize(
        "fwhm, centers",
        [((np.nan,), (0.0,)), ((np.inf,), (0.0,)), ((0.0,), (0.0,)),
         ((45e6,), (np.inf,)), ((45e6,), (-np.inf,)), ((45e6,), (np.nan,))],
    )
    def test_nonfinite_or_nonpositive_values_rejected(self, fwhm, centers):
        with pytest.raises(UsageError):
            sfwm.EtalonChain(fwhm, centers)


class TestWavePacket:
    def test_single_pole_fourier_pair(self):
        """A(delta) = 1/(G_h - i*delta) transforms to exp(-2*G_h*tau)."""
        g_h = 0.1
        grid = sfwm.SpectralGrid(half_width=256.0, count=32768)
        amp = sfwm.BiphotonAmplitude(grid, 1.0 / (g_h - 1j * grid.delta))
        tau = np.arange(0.0, 800.0, 5.0)
        packet = sfwm.wavepacket(amp, tau)
        sel = tau >= 50.0
        expected = np.exp(-2.0 * g_h * sfwm.DEFAULT_UNITS.time_from_ns(tau[sel]))
        ratio = packet.g2[sel] / expected
        assert np.max(np.abs(ratio / ratio.mean() - 1.0)) < 0.01
        slope = np.polyfit(tau[sel], np.log(packet.g2[sel]), 1)[0]
        decay_ns = -1.0 / slope
        assert decay_ns == pytest.approx(sfwm.DEFAULT_UNITS.time_to_ns(1.0 / (2 * g_h)), rel=0.01)

    def test_negative_delays_are_empty(self, amplitude_a):
        tau = np.arange(-1000.0, 500.0, 25.6)
        packet = sfwm.wavepacket(sfwm.apply_etalons(amplitude_a), tau)
        early = packet.g2[tau < -50.0]
        assert early.max() < 1e-6 * packet.g2.max()

    def test_aliasing_guard(self):
        coarse = sfwm.SpectralGrid(half_width=64.0, count=1024)
        amp = sfwm.BiphotonAmplitude(coarse, np.ones(1024, dtype=complex))
        with pytest.raises(AliasingError):
            sfwm.wavepacket(amp, np.arange(0.0, 4000.0, 25.6))

    def test_nonuniform_delay_grid_rejected(self, amplitude_a):
        with pytest.raises(UsageError):
            sfwm.wavepacket(amplitude_a, np.array([0.0, 10.0, 30.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", BAD_DELAY_GRIDS.values(), ids=BAD_DELAY_GRIDS.keys())
    def test_bad_delay_grid_is_usage_error(self, amplitude_a, tau):
        with pytest.raises(UsageError):
            sfwm.wavepacket(amplitude_a, tau)
        with pytest.raises(UsageError):
            sfwm.WavePacket(tau, np.ones(tau.size), 10.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("onset_ns", [np.nan, np.inf, -np.inf])
    def test_nonfinite_onset_is_usage_error(self, amplitude_a, onset_ns):
        with pytest.raises(UsageError):
            sfwm.wavepacket(amplitude_a, DELAY_NS, onset_ns=onset_ns)

    def test_uniformity_matches_allclose(self):
        """On finite grids the check is np.allclose's, tolerances included."""
        rng = np.random.default_rng(3)
        for _ in range(2000):
            step = 10.0 ** rng.uniform(-12.0, 4.0)
            jitter = 10.0 ** rng.uniform(-12.0, -7.0) * max(step, 1.0)
            t = rng.uniform(-1e4, 1e4) + step * np.arange(20) + rng.normal(0.0, jitter, 20)
            steps = np.diff(t)
            assert _is_uniform(t) == np.allclose(steps, steps[0], rtol=1e-9, atol=1e-9)

    def test_pump_scaling_is_quadratic_and_exact(self, medium_a):
        tau = np.arange(0.0, 1500.0, 25.6)
        packets = []
        for omega_p in (1.1, 3.3):
            d = sfwm.DriveParams(omega_c=2.6, omega_p=omega_p)
            amp = sfwm.spectral_amplitude(SMALL_GRID, medium_a, d, FAST_QUAD, edge_tol=1.0)
            packets.append(sfwm.wavepacket(amp, tau).g2)
        rel = np.abs(packets[1] - 9.0 * packets[0]) / (9.0 * packets[0])
        assert np.max(rel) < 1e-12

    @pytest.mark.parametrize("count", [8191, 8192])
    def test_matches_direct_fourier_sum(self, count, medium_a, drive_a):
        """The chirp-z synthesis against the plain trapezoidal Fourier sum."""
        grid = sfwm.SpectralGrid(half_width=64.0, count=count)
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(grid, medium_a, drive_a))
        tau_ns = np.arange(-333.3, 3000.0, 12.8)
        onset_ns = 77.0
        packet = sfwm.wavepacket(amp, tau_ns, onset_ns=onset_ns)

        tau = sfwm.DEFAULT_UNITS.time_from_ns(tau_ns - onset_ns)
        w = np.full(count, grid.spacing)
        w[[0, -1]] *= 0.5
        phases = np.exp(-1j * np.outer(grid.delta, tau))
        direct = np.abs((w * amp.values / (2.0 * np.pi)) @ phases) ** 2
        assert np.max(np.abs(packet.g2 - direct)) <= 1e-10 * direct.max()

    def test_correlation_is_nonnegative(self, packet_a):
        assert np.all(packet_a.g2 >= 0.0)

    def test_transform_length_is_smallest_7_smooth(self):
        def smooth(n):
            for p in (2, 3, 5, 7):
                while n % p == 0:
                    n //= p
            return n == 1

        for n in range(1, 3000):
            size = _next_fast_len(n)
            assert size >= n and smooth(size)
            assert not any(smooth(m) for m in range(n, size))
        # The sweep's transforms: 157 delays on 32768 and 65536 samples.
        assert _next_fast_len(32768 + 157 - 1) == 32928
        assert _next_fast_len(65536 + 157 - 1) == 65856


class TestKernelMemo:
    """The memoized Bluestein kernel spectrum gives bit-identical packets."""

    @staticmethod
    def fresh(amp, tau_ns, onset_ns=0.0):
        _kernel_spectrum.cache_clear()
        return sfwm.wavepacket(amp, tau_ns, onset_ns=onset_ns).g2

    def test_hit_equals_fresh_computation(self, amplitude_a):
        amp = sfwm.apply_etalons(amplitude_a)
        fresh = self.fresh(amp, DELAY_NS, ONSET_NS)
        hit = sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS).g2
        assert _kernel_spectrum.cache_info().hits == 1
        assert np.array_equal(hit, fresh)

    def test_no_stale_kernel_across_grids_and_delay_axes(self, medium_a, drive_a):
        amps = [
            sfwm.spectral_amplitude(sfwm.SpectralGrid(half_width, 4096), medium_a, drive_a,
                                    FAST_QUAD, edge_tol=1.0)
            for half_width in (24.0, 32.0)
        ]
        # The second axis differs in length, the third only in step.
        axes = [np.arange(0.0, 1500.0, 25.6), np.arange(0.0, 1500.0, 12.8), 20.0 * np.arange(59)]
        assert axes[0].size == axes[2].size
        cases = [(amps[0], axes[0]), (amps[1], axes[0]), (amps[1], axes[1]), (amps[1], axes[2]),
                 (amps[0], axes[0])]
        _kernel_spectrum.cache_clear()
        served = [sfwm.wavepacket(amp, tau).g2 for amp, tau in cases]
        assert _kernel_spectrum.cache_info().misses == len(cases)
        for (amp, tau), g2 in zip(cases, served):
            assert np.array_equal(g2, self.fresh(amp, tau))

    def test_spectrum_is_read_only(self):
        _, spectrum = _kernel_spectrum(1024, 157, 0.01)
        with pytest.raises(ValueError):
            spectrum[0] = 0.0

    def test_sweep_equals_sweep_with_memo_cleared_per_power(self):
        scenario = sfwm.load_config()
        powers = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]
        _kernel_spectrum.cache_clear()
        memo = analysis.sweep_predict(scenario, powers)
        assert _kernel_spectrum.cache_info().hits > 0

        def cleared(*args, **kwargs):
            _kernel_spectrum.cache_clear()
            return sfwm.predict_packet(*args, **kwargs)

        with mock.patch.object(analysis, "predict_packet", side_effect=cleared):
            fresh = analysis.sweep_predict(scenario, powers)
        assert _kernel_spectrum.cache_info().hits == 0
        for name in ("tau_ns", "linewidth_hz", "eit_fwhm_hz", "area", "rate_pairs_per_s",
                     "brightness", "sbr"):
            assert np.array_equal(getattr(memo, name), getattr(fresh, name)), name


class TestAreaAndRise:
    def test_zero_packet_has_zero_area(self):
        w = sfwm.WavePacket(np.arange(0.0, 100.0, 10.0), np.zeros(10), 10.0)
        assert sfwm.wavepacket_area(w) == 0.0

    def test_exponential_area(self):
        tau0, amp = 180.0, 3.5
        t = np.arange(0.0, 20.0 * tau0, 2.0)
        w = sfwm.WavePacket(t, amp * np.exp(-t / tau0), 2.0)
        assert sfwm.wavepacket_area(w) == pytest.approx(amp * tau0, rel=5e-3)

    def test_area_ratio_tracks_success_probabilities(self, packet_a, packet_b):
        # Detection probabilities 0.88% and 0.093% at the same pump power.
        ratio = sfwm.wavepacket_area(packet_a) / sfwm.wavepacket_area(packet_b)
        assert ratio == pytest.approx(0.88 / 0.093, rel=0.35)

    def test_delta_response_limit_is_identity(self):
        t = np.arange(0.0, 2000.0, 25.6)
        w = sfwm.WavePacket(t, np.exp(-t / 300.0), 25.6)
        out = sfwm.rise_time_convolve(w, rc_ns=1e-3)
        np.testing.assert_allclose(out.g2, w.g2, rtol=1e-3)

    def test_step_response_time_constant(self):
        t = np.arange(0.0, 2000.0, 5.0)
        w = sfwm.WavePacket(t, np.where(t >= 500.0, 1.0, 0.0), 5.0)
        out = sfwm.rise_time_convolve(w, rc_ns=35.0)
        sel = (t >= 520.0) & (t <= 700.0)
        slope = np.polyfit(t[sel], np.log(1.0 - out.g2[sel]), 1)[0]
        assert -1.0 / slope == pytest.approx(35.0, rel=0.02)

    @pytest.mark.parametrize("rc_ns", [np.nan, np.inf, 1e300, 0.0, -35.0])
    def test_unusable_response_time_is_usage_error(self, rc_ns):
        w = sfwm.WavePacket(np.arange(0.0, 100.0, 10.0), np.ones(10), 10.0)
        with pytest.raises(UsageError):
            sfwm.rise_time_convolve(w, rc_ns=rc_ns)

    def test_area_conserved_on_predicted_packet(self, packet_a):
        smeared = sfwm.rise_time_convolve(packet_a)
        assert sfwm.wavepacket_area(smeared) == pytest.approx(
            sfwm.wavepacket_area(packet_a), rel=1e-3
        )

    def test_etalons_barely_move_the_decay_constant(self, amplitude_a, packet_a):
        bare = sfwm.wavepacket(amplitude_a, DELAY_NS, onset_ns=ONSET_NS)
        tau_bare = sfwm.fit_exponential(bare).tau_ns
        tau_filtered = sfwm.fit_exponential(packet_a).tau_ns
        assert tau_filtered == pytest.approx(tau_bare, rel=0.03)


class TestDelayAxis:
    def test_matches_arange(self):
        assert np.array_equal(sfwm.delay_axis(4000.0, 25.6), DELAY_NS)

    @pytest.mark.parametrize("span_ns", [np.nan, np.inf, 1e30])
    def test_unbuildable_span_is_usage_error(self, span_ns):
        with pytest.raises(UsageError):
            sfwm.delay_axis(span_ns, 25.6)

    @pytest.mark.parametrize("bin_ns", [np.nan, np.inf, 0.0, -25.6])
    def test_unusable_bin_is_usage_error(self, bin_ns):
        with pytest.raises(UsageError):
            sfwm.delay_axis(4000.0, bin_ns)

    def test_sweep_bounds_its_delay_axis(self, medium_a, drive_a):
        """The sweep builds its axis from the scenario's bin width."""
        s = scenario(medium_a, drive_a)
        fine = dataclasses.replace(s, detection=dataclasses.replace(s.detection, bin_ns=1e-30))
        with pytest.raises(UsageError, match="spans more than"):
            sfwm.sweep_predict(fine, [1.0])


def _figures(packet):
    """Fitted tau, area and rise-convolved peak: what a sweep reads off a packet."""
    return np.array([
        sfwm.fit_exponential(packet).tau_ns,
        sfwm.wavepacket_area(packet),
        sfwm.rise_time_convolve(packet).g2.max(),
    ])


class TestPredictPacket:
    SPAN = sfwm.DEFAULT_UNITS.time_from_ns(DELAY_NS[-1] - DELAY_NS[0])

    @staticmethod
    def medium_drive(gamma, p_mw):
        return (sfwm.MediumParams(alpha_s=82.0, gamma=gamma),
                sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(p_mw)))

    @pytest.mark.parametrize("p_mw", [0.02, 0.5, 5.0])
    @pytest.mark.parametrize("gamma", [0.015, 0.024, 0.028])
    def test_derived_grid_matches_four_times_denser(self, gamma, p_mw):
        """At 5 mW both windows are widened, the explicit one at its own spacing."""
        m, d = self.medium_drive(gamma, p_mw)
        count = _derived_count(64.0, gamma, self.SPAN, DEFAULT_COUNT)
        assert count < DEFAULT_COUNT
        derived = sfwm.predict_packet(scenario(m, d), DELAY_NS)
        dense = sfwm.predict_packet(
            scenario(m, d, grid=sfwm.SpectralGrid(count=4 * count)), DELAY_NS
        )
        np.testing.assert_allclose(_figures(derived), _figures(dense), rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("gamma", [0.006, 0.0])
    def test_cap_binds_and_reproduces_the_default_grid(self, gamma):
        m, d = self.medium_drive(gamma, 0.5)
        assert _derived_count(64.0, gamma, self.SPAN, DEFAULT_COUNT) == DEFAULT_COUNT
        derived = sfwm.predict_packet(scenario(m, d), DELAY_NS)
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(sfwm.SpectralGrid(), m, d))
        direct = sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS)
        assert np.array_equal(derived.g2, direct.g2)

    def test_explicit_grid_is_used_as_given(self, medium_a, drive_a):
        grid = sfwm.SpectralGrid(count=8192)
        given = sfwm.predict_packet(scenario(medium_a, drive_a, grid=grid), DELAY_NS)
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(grid, medium_a, drive_a))
        direct = sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS)
        assert np.array_equal(given.g2, direct.g2)

    @pytest.mark.parametrize("half_width", [8.0, 24.0, 64.0, 128.0, 1024.0])
    def test_count_never_exceeds_the_default_grid(self, half_width):
        """The default count is the cap on every window, and below it the
        count is a 7-smooth size whose period covers both limits, with less
        than 10% to spare."""
        for gamma in (0.0, 1e-4, 0.006, 0.015, 0.028, 0.3, 10.0, np.inf):
            for span in (0.0, 10.0, self.SPAN, 2000.0, np.nan):
                count = _derived_count(half_width, gamma, span, DEFAULT_COUNT)
                assert 1024 <= count <= DEFAULT_COUNT
                if 1024 < count < DEFAULT_COUNT:
                    bound = max(span, 20.0 / gamma)
                    assert bound <= np.pi * (count - 1) / half_width < 1.1 * bound
                    assert count == _next_fast_len(count)

    def test_widening_rederives_the_count(self, medium_a):
        """A 31.2 MHz coupling fails the edge test on the default window and
        succeeds once widened; the wider window needs no more than twice the
        derived count."""
        d = sfwm.DriveParams(omega_c=31.2 / 6.0)
        with pytest.raises(GridTooNarrowError):
            sfwm.spectral_amplitude(sfwm.SpectralGrid(), medium_a, d)
        packet = sfwm.predict_packet(scenario(medium_a, d), DELAY_NS)
        wide = sfwm.SpectralGrid(
            half_width=128.0, count=_derived_count(128.0, medium_a.gamma, self.SPAN, 2 * DEFAULT_COUNT)
        )
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(wide, medium_a, d))
        assert np.array_equal(packet.g2, sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS).g2)
        assert wide.count <= 2 * _derived_count(64.0, medium_a.gamma, self.SPAN, DEFAULT_COUNT)
