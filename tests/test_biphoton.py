import copy
import dataclasses
import functools
import math
import pickle
import warnings

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import sfwm
from sfwm import analysis, biphoton
from sfwm.biphoton import (
    ALIAS_DECAY_MARGIN,
    MAX_COUNT,
    MAX_WIDENINGS,
    _etalon_response,
    _fold_period,
    _check_delay_grid,
    _grid_delta,
    _locked_grid,
    _locked_spacing,
    _next_fast_len,
    _phase_matching,
    _synthesis,
)
from sfwm.errors import AliasingError, GridTooNarrowError, NumericsError, UsageError
from sfwm.physics import _averaged_pair, _cross_prefactor, _doppler_mean

from oracles import _chi_pair_raw, doppler_average, raw_pair_average

from conftest import BAD_DELAY_GRIDS, DELAY_NS, ETALONS, ONSET_NS, RISE_NS, scenario

SMALL_GRID = sfwm.SpectralGrid(half_width=24.0, count=4096)
# Odd: delta = 0 is a sample.
SMALL_GRID_ODD = sfwm.SpectralGrid(half_width=24.0, count=4097)
DEFAULT_COUNT = sfwm.SpectralGrid().count
FAST_QUAD = sfwm.DopplerQuadrature(step=0.25)


def delay_step(tau_ns):
    """The delay step of ``tau_ns`` in 1/Gamma, as predict_packet takes it."""
    return sfwm.units.time_from_ns(tau_ns[-1] - tau_ns[0]) / (tau_ns.size - 1)


def first_argument(tau_ns, onset_ns):
    """The first delay's distance from the onset in 1/Gamma, as predict_packet takes it."""
    return sfwm.units.time_from_ns(tau_ns[0] - onset_ns)


def locked(half_width, gamma, cap=DEFAULT_COUNT, tau_ns=DELAY_NS, onset_ns=0.0):
    """predict_packet's spacing and first grid for the delay axis ``tau_ns``
    and the onset ``onset_ns``."""
    h = _locked_spacing(gamma, tau_ns.size, delay_step(tau_ns), first_argument(tau_ns, onset_ns))
    return h, _locked_grid(half_width, h, cap)


def chirp_z(amp, tau_ns, onset_ns=0.0):
    """The packet by the chirp-z transform, whatever the grid.  The plan is
    cleared on both sides, so no fold plan serves this packet and its chirp-z
    plan serves no later one."""
    _synthesis.cache_clear()
    try:
        with mock.patch.object(biphoton, "_fold_period", return_value=0):
            return sfwm.wavepacket(amp, tau_ns, onset_ns=onset_ns).g2
    finally:
        _synthesis.cache_clear()


def with_plans(run, *args, **kwargs):
    """``run(*args, **kwargs)`` from an empty plan memo, and the synthesis
    plan that served each of its packets."""
    plans = []

    def spy(*key):
        plans.append(_synthesis(*key))
        return plans[-1]

    _synthesis.cache_clear()
    with mock.patch.object(biphoton, "_synthesis", side_effect=spy):
        return run(*args, **kwargs), plans


def long_chirp_z(amp, tau_ns, onset_ns):
    """The packet by the chirp-z transform in np.clongdouble, from the same
    float64 spacing, delay step and onset as wavepacket's.  numpy >= 2.0
    transforms long-double arrays in long double; where longdouble is
    float64 (MSVC builds, macOS on arm64) this is the float64 transform."""
    n_delta, n_tau = amp.grid.count, tau_ns.size
    h = np.longdouble(amp.grid.spacing)
    b = h * np.longdouble(sfwm.units.time_from_ns(float(tau_ns[-1] - tau_ns[0]))) / (n_tau - 1)
    shift = h * np.longdouble(first_argument(tau_ns, onset_ns))
    centered = np.arange(n_delta, dtype=np.longdouble) - np.longdouble(n_delta - 1) / 2
    weights = np.full(n_delta, h / (2 * np.pi), dtype=np.longdouble)
    weights[[0, -1]] /= 2
    size = _next_fast_len(n_delta + n_tau - 1)
    lag = np.arange(size, dtype=np.longdouble)
    lag[n_tau:] -= size
    lag += np.longdouble(n_delta - 1) / 2
    y = np.zeros(size, dtype=np.clongdouble)
    y[:n_delta] = amp.values * weights * np.exp(-1j * centered * (shift + b * centered / 2))
    y = np.fft.ifft(np.fft.fft(y) * np.fft.fft(np.exp(0.5j * b * lag**2)))[:n_tau]
    return np.abs(y).astype(float) ** 2


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

    @pytest.mark.parametrize("size", [2047, 2049])
    def test_amplitude_length_is_the_grid_count(self, size):
        grid = sfwm.SpectralGrid(half_width=8.0, count=2048)
        with pytest.raises(UsageError, match="does not match grid count"):
            sfwm.BiphotonAmplitude(grid, np.ones(size, dtype=complex))

    def test_grid_is_symmetric_and_uniform(self):
        g = sfwm.SpectralGrid(half_width=8.0, count=2048)
        assert g.delta[0] == -8.0 and g.delta[-1] == 8.0
        steps = np.diff(g.delta)
        np.testing.assert_allclose(steps, g.spacing, rtol=1e-12)

    def test_maximum_count(self):
        """Checked when the grid is built, before any array is; a count that
        is not an integer fails the same check."""
        assert sfwm.SpectralGrid(count=MAX_COUNT).count == MAX_COUNT == 1 << 19
        for count in (MAX_COUNT + 1, 99_999_999, 2_000_000_000, 2048.5, None):
            with pytest.raises(UsageError, match=f"1024 to {MAX_COUNT} samples"):
                sfwm.SpectralGrid(count=count)


def full_grid_pair(delta, m, d, q=None):
    """Pole-form (cross, self) evaluated at every detuning of ``delta``,
    without the mirror symmetry: the oracle of the half-grid path."""
    level = delta + 0.5j * m.gamma3
    if d.omega_c == 0.0:
        mean_p = _doppler_mean(-level, m, q)
        cross = np.zeros(delta.size, dtype=complex)
    else:
        two_photon = delta + 1j * m.gamma
        dark = two_photon == 0.0
        pole = d.omega_c**2 / (4.0 * np.where(dark, 1.0, two_photon)) - level
        pump_pole = d.delta_p + 0.5j * m.gamma4
        # Both poles in one call, as the program makes it: numpy's complex
        # arithmetic can round a one-element array differently.
        means = _doppler_mean(np.append(pole, np.conj(pump_pole)), m, q)
        mean_p = np.where(dark, 0.0, means[:-1])
        mean_q = np.conj(means[-1])
        front = _cross_prefactor(m) * d.omega_p * d.omega_c / (
            4.0 * two_photon * (pump_pole + level) - d.omega_c**2
        )
        cross = front * (mean_q - mean_p)
    return cross, -(m.alpha_s * m.gamma3 / 8.0) * mean_p


def full_grid_amplitude(delta, m, d, q=None):
    cross, self_ = full_grid_pair(delta, m, d, q)
    return cross * _phase_matching(self_)


def full_grid_packet(values, grid, tau_ns, onset_ns, chain):
    """Etalon divisions and the chirp-z synthesis with the chirp and the
    kernel built for this packet alone, on the np.linspace detunings."""
    f_hz = sfwm.units.frequency_to_hz(np.linspace(-grid.half_width, grid.half_width,
                                                          grid.count))
    for fwhm, center in zip(chain.fwhm_hz, chain.centers_hz):
        values = values / (1.0 - 2j * (f_hz - center) / fwhm)
    n, n_tau, h = grid.count, tau_ns.size, grid.spacing
    b = h * sfwm.units.time_from_ns(tau_ns[-1] - tau_ns[0]) / (n_tau - 1)
    tau0 = sfwm.units.time_from_ns(tau_ns[0] - onset_ns)
    centered = np.arange(n) - 0.5 * (n - 1)
    w = np.full(n, h / (2.0 * np.pi))
    w[[0, -1]] *= 0.5
    chirped = w * values * np.exp(-1j * centered * (h * tau0 + 0.5 * b * centered))
    size = _next_fast_len(n + n_tau - 1)
    lag = np.arange(size)
    lag = np.where(lag < n_tau, lag, lag - size)
    kernel = np.fft.fft(np.exp(0.5j * b * (lag + 0.5 * (n - 1)) ** 2))
    y = np.fft.ifft(np.fft.fft(chirped, size) * kernel)[:n_tau]
    return np.abs(y) ** 2


media = st.builds(
    sfwm.MediumParams,
    alpha_s=st.floats(1.0, 300.0),
    gamma=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
    gamma_doppler=st.floats(10.0, 100.0),
    gamma3=st.floats(0.5, 2.0),
    gamma4=st.floats(0.5, 2.0),
)
drives = st.builds(
    sfwm.DriveParams,
    omega_c=st.one_of(st.just(0.0), st.floats(0.01, 20.0)),
    omega_p=st.floats(0.1, 5.0),
    delta_p=st.floats(-1000.0, 1000.0),
)


class TestHalfGrid:
    """The closed form evaluated on delta >= 0 and mirrored against the
    evaluation at every detuning."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=media, d=drives, half_width=st.floats(4.0, 256.0), count=st.integers(1024, 4096))
    @example(m=sfwm.MediumParams(80.0, 0.0), d=sfwm.DriveParams(2.6), half_width=24.0, count=1071)
    @example(m=sfwm.MediumParams(80.0, 0.0), d=sfwm.DriveParams(0.0), half_width=64.0, count=1025)
    def test_matches_the_full_grid_oracle(self, m, d, half_width, count):
        """Odd counts put delta = 0, the dark point at gamma = 0, on the grid;
        np.linspace(-24, 24, 1071) has its midpoint at -3.6e-15, not 0."""
        grid = sfwm.SpectralGrid(half_width, count)
        assert np.array_equal(grid.delta[::-1], -grid.delta)
        pair = sfwm.averaged_susceptibilities(grid, m, d, None)
        for value, oracle in zip(pair, full_grid_pair(grid.delta, m, d)):
            assert np.max(np.abs(value - oracle)) <= 1e-14 * np.max(np.abs(oracle))
        with mock.patch.object(biphoton, "EDGE_DECAY_TOL", np.inf):
            amp = sfwm.spectral_amplitude(grid, m, d, None).values
        oracle = full_grid_amplitude(grid.delta, m, d)
        assert np.max(np.abs(amp - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        m=media,
        d=drives,
        q=st.builds(sfwm.DopplerQuadrature, half_range=st.floats(3.0, 4.5),
                    step=st.sampled_from([0.125, 0.25])),
        half_width=st.floats(4.0, 256.0),
        count=st.integers(1024, 2048),
    )
    @example(m=sfwm.MediumParams(80.0, 0.0), d=sfwm.DriveParams(2.6),
             q=sfwm.DopplerQuadrature(step=0.25), half_width=24.0, count=1071)
    @example(m=sfwm.MediumParams(80.0, 0.0), d=sfwm.DriveParams(0.0),
             q=sfwm.DopplerQuadrature(step=0.25), half_width=64.0, count=1025)
    @example(m=sfwm.MediumParams(80.0, 0.028), d=sfwm.DriveParams(2.6),
             q=sfwm.DopplerQuadrature(half_range=3.3, step=0.17), half_width=24.0, count=1024)
    def test_trapezoid_matches_the_full_grid_oracle(self, m, d, q, half_width, count):
        """The same for the trapezoidal rule, whose symmetric nodes and
        weights keep the self average anti-conjugate; the last example has
        no integer number of steps in half_range*gamma_doppler."""
        grid = sfwm.SpectralGrid(half_width, count)
        pair = sfwm.averaged_susceptibilities(grid, m, d, q)
        for value, oracle in zip(pair, full_grid_pair(grid.delta, m, d, q)):
            assert np.max(np.abs(value - oracle)) <= 1e-14 * np.max(np.abs(oracle))
        with mock.patch.object(biphoton, "EDGE_DECAY_TOL", np.inf):
            amp = sfwm.spectral_amplitude(grid, m, d, q).values
        oracle = full_grid_amplitude(grid.delta, m, d, q)
        assert np.max(np.abs(amp - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("case", ["strong", "weak", "5 mW widened", "dark point"])
    def test_amplitude_and_packet_match_the_linspace_evaluation(
        self, case, medium_a, drive_a, medium_b, drive_b
    ):
        """Against the full-grid amplitude on np.linspace detunings, filtered
        and synthesized with per-packet factors: the amplitude within 1e-12
        of its peak, the packet within 1e-13 of its peak."""
        grid, m, d = {
            "strong": (sfwm.SpectralGrid(), medium_a, drive_a),
            "weak": (sfwm.SpectralGrid(), medium_b, drive_b),
            "5 mW widened": (
                sfwm.SpectralGrid(half_width=128.0, count=65536),
                sfwm.MediumParams(alpha_s=82.0, gamma=0.025),
                sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(5.0)),
            ),
            "dark point": (sfwm.SpectralGrid(count=16385), sfwm.MediumParams(80.0, 0.0), drive_a),
        }[case]
        linspace = np.linspace(-grid.half_width, grid.half_width, grid.count)
        oracle = full_grid_amplitude(linspace, m, d)
        amp = sfwm.spectral_amplitude(grid, m, d, None)
        assert np.max(np.abs(amp.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))
        chain = sfwm.EtalonChain()
        packet = sfwm.wavepacket(sfwm.apply_etalons(amp, chain), DELAY_NS, onset_ns=ONSET_NS).g2
        expected = full_grid_packet(oracle, grid, DELAY_NS, ONSET_NS, chain)
        assert np.max(np.abs(packet - expected)) <= 1e-13 * expected.max()


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

        def averaged(index, delta):
            def component(part):
                val, _ = quad(
                    lambda w: np.exp(-((w / gd) ** 2)) / (np.sqrt(np.pi) * gd)
                    * part(_chi_pair_raw(delta, w, medium_a, drive_a)[index]),
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
            c = averaged(0, delta)
            z = averaged(1, delta)
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
            def pair(w):
                return _chi_pair_raw(delta, w, medium_a, drive_a)

            c_ref = doppler_average(lambda w: pair(w)[0], medium_a)
            z_ref = doppler_average(lambda w: pair(w)[1], medium_a)
            assert abs(cross[idx] - c_ref) <= 1e-12 * abs(c_ref)
            assert abs(self_[idx] - z_ref) <= 1e-12 * abs(z_ref)

    @pytest.mark.parametrize(
        "case, step",
        [("strong", 0.0625), ("strong", 0.125), ("strong", 0.25), ("weak", 0.25),
         ("5 mW widened", 0.25), ("dark point", 0.25), ("coupling off", 0.25)],
    )
    def test_trapezoid_matches_the_raw_integrand_sum(
        self, case, step, medium_a, drive_a, medium_b, drive_b
    ):
        """The pole-form trapezoid against the raw integrands summed over the
        same nodes at every detuning, within 1e-13 of each response's peak."""
        grid, m, d = {
            "strong": (SMALL_GRID_ODD, medium_a, drive_a),
            "weak": (SMALL_GRID_ODD, medium_b, drive_b),
            "5 mW widened": (
                sfwm.SpectralGrid(half_width=256.0, count=8192),
                sfwm.MediumParams(alpha_s=82.0, gamma=0.025),
                sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(5.0)),
            ),
            "dark point": (SMALL_GRID_ODD, sfwm.MediumParams(80.0, 0.0), drive_a),
            "coupling off": (SMALL_GRID_ODD, medium_a, sfwm.DriveParams(omega_c=0.0)),
        }[case]
        q = sfwm.DopplerQuadrature(step=step)
        pair = sfwm.averaged_susceptibilities(grid, m, d, q)
        for value, ref in zip(pair, raw_pair_average(grid.delta, m, d, q)):
            assert np.max(np.abs(value - ref)) <= 1e-13 * np.max(np.abs(ref))

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
        exact = sfwm.averaged_susceptibilities(grid, m, d, None)
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
        exact = sfwm.averaged_susceptibilities(grid, m, d, None)
        for index, value in enumerate(exact):
            parts = [
                quad(
                    lambda w: np.exp(-((w / gd) ** 2)) / (np.sqrt(np.pi) * gd)
                    * part(_chi_pair_raw(delta, w, m, d)[index]),
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
            cross, self_ = sfwm.averaged_susceptibilities(grid, m, d, None)
        assert np.all(np.isfinite(cross)) and np.all(np.isfinite(self_))
        # Both averages are linear in a common optical depth.
        unit_cross, unit_self = sfwm.averaged_susceptibilities(grid, m_unit, d, None)
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

    def test_each_chain_matches_the_unmemoized_filter(self, amplitude_a):
        """Two chains on one grid: the memo keeps no stale response."""
        f_hz = sfwm.units.frequency_to_hz(amplitude_a.grid.delta)
        chains = [sfwm.EtalonChain(), sfwm.EtalonChain((30e6,), (2e6,)), sfwm.EtalonChain()]
        _etalon_response.cache_clear()
        for chain in chains:
            filtered = sfwm.apply_etalons(amplitude_a, chain).values
            values = amplitude_a.values
            for fwhm, center in zip(chain.fwhm_hz, chain.centers_hz):
                values = values / (1.0 - 2j * (f_hz - center) / fwhm)
            assert np.max(np.abs(filtered - values)) <= 1e-15 * np.max(np.abs(values))
        assert _etalon_response.cache_info().misses == 3

    def test_response_is_read_only(self, amplitude_a):
        response = _etalon_response(amplitude_a.grid, sfwm.EtalonChain())
        with pytest.raises(ValueError):
            response[0] = 0.0

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
        packet = sfwm.wavepacket(amp, tau, onset_ns=0.0)
        sel = tau >= 50.0
        expected = np.exp(-2.0 * g_h * sfwm.units.time_from_ns(tau[sel]))
        ratio = packet.g2[sel] / expected
        assert np.max(np.abs(ratio / ratio.mean() - 1.0)) < 0.01
        slope = np.polyfit(tau[sel], np.log(packet.g2[sel]), 1)[0]
        decay_ns = -1.0 / slope
        assert decay_ns == pytest.approx(sfwm.units.time_to_ns(1.0 / (2 * g_h)), rel=0.01)

    def test_negative_delays_are_empty(self, amplitude_a):
        tau = np.arange(-1000.0, 500.0, 25.6)
        packet = sfwm.wavepacket(sfwm.apply_etalons(amplitude_a, ETALONS), tau, onset_ns=0.0)
        early = packet.g2[tau < -50.0]
        assert early.max() < 1e-6 * packet.g2.max()

    def test_aliasing_guard(self):
        coarse = sfwm.SpectralGrid(half_width=64.0, count=1024)
        amp = sfwm.BiphotonAmplitude(coarse, np.ones(1024, dtype=complex))
        with pytest.raises(AliasingError):
            sfwm.wavepacket(amp, np.arange(0.0, 4000.0, 25.6), onset_ns=0.0)

    def test_nonuniform_delay_grid_rejected(self, amplitude_a):
        with pytest.raises(UsageError):
            sfwm.wavepacket(amplitude_a, np.array([0.0, 10.0, 30.0]), onset_ns=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", BAD_DELAY_GRIDS.values(), ids=BAD_DELAY_GRIDS.keys())
    def test_bad_delay_grid_is_usage_error(self, amplitude_a, tau):
        with pytest.raises(UsageError):
            sfwm.wavepacket(amplitude_a, tau, onset_ns=0.0)
        with pytest.raises(UsageError):
            sfwm.WavePacket(tau, np.ones(tau.size), 10.0)

    @pytest.mark.parametrize("bin_ns", [25.6, 10.0 + 2e-8, np.nan, np.inf, 0.0, -10.0])
    def test_bin_width_is_the_grid_step(self, bin_ns):
        """A packet has one bin width: its grid step."""
        with pytest.raises(UsageError, match="bin width"):
            sfwm.WavePacket(np.arange(0.0, 100.0, 10.0), np.ones(10), bin_ns)

    @pytest.mark.parametrize("tau", [np.empty(0), np.array([0.0])], ids=["empty", "one sample"])
    def test_fewer_than_two_delays_is_usage_error(self, amplitude_a, tau):
        with pytest.raises(UsageError, match="at least two samples"):
            sfwm.wavepacket(amplitude_a, tau, onset_ns=0.0)

    @pytest.mark.parametrize(
        "tau", [np.empty(0), np.array([0.0]), *BAD_DELAY_GRIDS.values()],
        ids=["empty", "one sample", *BAD_DELAY_GRIDS.keys()],
    )
    def test_short_or_bad_delay_axis_is_rejected_before_synthesis(self, amplitude_a, tau):
        """A delay axis of fewer than two samples, or not uniform and
        increasing, is a usage error before any synthesis plan is made."""
        with mock.patch.object(biphoton, "_synthesis") as synthesis:
            with pytest.raises(UsageError, match="delay grid"):
                sfwm.wavepacket(amplitude_a, tau, onset_ns=0.0)
        synthesis.assert_not_called()

    @pytest.mark.parametrize(
        "g2, match",
        [(np.ones(9), "lengths differ"), (np.ones(11), "lengths differ"),
         (np.r_[np.ones(9), -1e-300], "finite and nonnegative"),
         (np.r_[np.ones(9), np.nan], "finite and nonnegative"),
         (np.r_[np.inf, np.ones(9)], "finite and nonnegative")],
        ids=["short", "long", "negative", "nan", "inf"],
    )
    def test_invalid_correlation_is_usage_error(self, g2, match):
        with pytest.raises(UsageError, match=match):
            sfwm.WavePacket(np.arange(0.0, 100.0, 10.0), g2, 10.0)

    def test_packet_is_read_only(self):
        """It holds read-only copies: the caller's arrays stay writable and
        unchanged, and neither a write into the packet's arrays nor an
        attribute assignment goes through."""
        t, g2 = np.arange(0.0, 100.0, 10.0), np.ones(10)
        w = sfwm.WavePacket(t, g2, 10.0)
        assert t.flags.writeable and g2.flags.writeable
        assert not np.shares_memory(w.tau_ns, t) and not np.shares_memory(w.g2, g2)
        for array in (w.tau_ns, w.g2):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        for name in ("tau_ns", "g2", "bin_ns"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, name, getattr(w, name))
        g2[0] = 7.0
        assert w.g2[0] == 1.0 and np.array_equal(t, np.arange(0.0, 100.0, 10.0))
        # A deep copy or an unpickled packet had writable arrays.
        for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert np.array_equal(twin.g2, w.g2) and twin.bin_ns == w.bin_ns
            assert not (twin.tau_ns.flags.writeable or twin.g2.flags.writeable)

    def test_bin_width_within_the_grid_tolerance_is_accepted(self):
        t = np.arange(0.0, 100.0, 10.0)
        assert sfwm.WavePacket(t, np.ones(10), 10.0 + 5e-9).bin_ns == 10.0 + 5e-9
        assert sfwm.WavePacket(t[:1], np.ones(1), 25.6).bin_ns == 25.6
        with pytest.raises(UsageError, match="bin width"):
            sfwm.WavePacket(t[:1], np.ones(1), np.nan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("onset_ns", [np.nan, np.inf, -np.inf])
    def test_nonfinite_onset_is_usage_error(self, amplitude_a, onset_ns):
        with pytest.raises(UsageError):
            sfwm.wavepacket(amplitude_a, DELAY_NS, onset_ns=onset_ns)

    def test_uniformity_matches_allclose(self):
        """On finite grids the check is a rising first step and np.allclose's
        test, tolerances included."""
        rng = np.random.default_rng(3)
        for _ in range(2000):
            step = 10.0 ** rng.uniform(-12.0, 4.0)
            jitter = 10.0 ** rng.uniform(-12.0, -7.0) * max(step, 1.0)
            t = rng.uniform(-1e4, 1e4) + step * np.arange(20) + rng.normal(0.0, jitter, 20)
            steps = np.diff(t)
            try:
                _check_delay_grid(t, steps[0], "delay grid")
                uniform = True
            except UsageError:
                uniform = False
            assert uniform == (
                steps[0] > 0.0 and np.allclose(steps, steps[0], rtol=1e-9, atol=1e-9)
            )

    def test_pump_scaling_is_quadratic_and_exact(self, medium_a):
        tau = np.arange(0.0, 1500.0, 25.6)
        packets = []
        for omega_p in (1.1, 3.3):
            d = sfwm.DriveParams(omega_c=2.6, omega_p=omega_p)
            with mock.patch.object(biphoton, "EDGE_DECAY_TOL", 1.0):
                amp = sfwm.spectral_amplitude(SMALL_GRID, medium_a, d, FAST_QUAD)
            packets.append(sfwm.wavepacket(amp, tau, onset_ns=0.0).g2)
        rel = np.abs(packets[1] - 9.0 * packets[0]) / (9.0 * packets[0])
        assert np.max(rel) < 1e-12

    @pytest.mark.parametrize("count", [8191, 8192])
    def test_matches_direct_fourier_sum(self, count, medium_a, drive_a):
        """The chirp-z synthesis against the plain trapezoidal Fourier sum."""
        grid = sfwm.SpectralGrid(half_width=64.0, count=count)
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(grid, medium_a, drive_a, None), ETALONS)
        tau_ns = np.arange(-333.3, 3000.0, 12.8)
        onset_ns = 77.0
        packet = sfwm.wavepacket(amp, tau_ns, onset_ns=onset_ns)

        tau = sfwm.units.time_from_ns(tau_ns - onset_ns)
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


class TestThinMediumLimit:
    """At a vanishing optical depth the phase-matching factor is 1 and the
    pair amplitude is the cross response.  Without Doppler broadening its two
    poles, at delta = -i(gamma + G3/2)/2 +- Omega_e/2, give the damped Rabi
    oscillation of Du, Wen and Rubin (JOSA B 25, C98, 2008):

        G2(tau) = |K/2|^2 exp(-(gamma + G3/2) tau) sin^2(Omega_e tau/2) / Omega_e^2

    with Omega_e = sqrt(Omega_c^2 - (G3/2 - gamma)^2) and K the cross
    response's numerator, sqrt(alpha_as*alpha_s*G3*G4)/4 Omega_c Omega_p
    over Delta_p + i G4/2.  Where Omega_c < G3/2 - gamma the sine and
    Omega_e become sinh and kappa = sqrt((G3/2 - gamma)^2 - Omega_c^2).
    The packets agree with it in absolute units to a fraction of the peak:
    the +-400 Gamma window cuts off the 1/delta^2 tail of the amplitude,
    which leaves 1.43e-5 at the first few ns and falls as 1/half_width^2,
    and a Doppler width Gamma_D moves the poles by a relative O(Gamma_D^2),
    which adds up to 2.3e-5 at Gamma_D = 1e-2."""

    GAMMA = 0.05
    DELAY_NS = np.arange(0.0, 1001.0, 1.0)

    def check(self, omega_c, gamma_doppler, tol):
        m = sfwm.MediumParams(alpha_s=1e-6, gamma=self.GAMMA, gamma_doppler=gamma_doppler)
        d = sfwm.DriveParams(omega_c=omega_c)
        amp = sfwm.spectral_amplitude(sfwm.SpectralGrid(400.0, 2**19), m, d, None)
        g2 = sfwm.wavepacket(amp, self.DELAY_NS, onset_ns=0.0).g2
        x = sfwm.units.time_from_ns(self.DELAY_NS)
        k = m.alpha_s * math.sqrt(m.gamma3 * m.gamma4) / 4.0 * omega_c * d.omega_p
        k /= abs(d.delta_p + 0.5j * m.gamma4)
        detuning = m.gamma3 / 2.0 - m.gamma
        if omega_c > detuning:
            rabi = math.sqrt(omega_c**2 - detuning**2)
            oscillation = np.sin(rabi * x / 2.0) / rabi
        else:
            kappa = math.sqrt(detuning**2 - omega_c**2)
            oscillation = np.sinh(kappa * x / 2.0) / kappa
        expected = (k / 2.0) ** 2 * np.exp(-(m.gamma + m.gamma3 / 2.0) * x) * oscillation**2
        assert np.max(np.abs(g2 - expected)) <= tol * g2.max()

    @pytest.mark.parametrize("gamma_doppler, tol", [(1e-3, 1.5e-5), (1e-2, 4e-5)])
    def test_damped_rabi_oscillation(self, gamma_doppler, tol):
        self.check(3.0, gamma_doppler, tol)

    def test_overdamped(self):
        self.check(0.2, 1e-3, 4e-6)


class TestKernelMemo:
    """The memoized synthesis plan gives bit-identical packets, by the fold
    and by the chirp-z transform."""

    @staticmethod
    def fresh(amp, tau_ns, onset_ns=0.0):
        _synthesis.cache_clear()
        return sfwm.wavepacket(amp, tau_ns, onset_ns=onset_ns).g2

    @staticmethod
    def locked_amplitude(m, d, half_width=64.0, tau_ns=DELAY_NS):
        grid = locked(half_width, m.gamma, tau_ns=tau_ns)[1]
        return TestKernelMemo.amplitude(grid, m, d)

    @staticmethod
    def amplitude(grid, m, d):
        with mock.patch.object(biphoton, "EDGE_DECAY_TOL", 1.0):
            amp = sfwm.spectral_amplitude(grid, m, d, FAST_QUAD)
        return sfwm.apply_etalons(amp, ETALONS)

    @staticmethod
    def assert_equals_sweep_with_plan_cleared_per_power(sweep, scenario, powers):
        def cleared(*args, **kwargs):
            _synthesis.cache_clear()
            return sfwm.predict_packet(*args, **kwargs)

        with mock.patch.object(analysis, "predict_packet", side_effect=cleared):
            fresh = analysis.sweep_predict(scenario, powers)
        assert _synthesis.cache_info().hits == 0
        for name in ("tau_ns", "linewidth_hz", "eit_fwhm_hz", "rate_pairs_per_s",
                     "brightness", "sbr"):
            assert np.array_equal(getattr(sweep, name), getattr(fresh, name)), name

    def test_hit_equals_fresh_computation(self, medium_a, drive_a):
        amp = self.locked_amplitude(medium_a, drive_a)
        fresh = self.fresh(amp, DELAY_NS, ONSET_NS)
        hit = sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS).g2
        assert _synthesis.cache_info().hits == 1
        assert np.array_equal(hit, fresh)

    def test_chirp_z_hit_equals_fresh_computation(self, medium_a, drive_a):
        """On a grid as given, the second packet is served by the chirp-z
        plan of the first."""
        b = SMALL_GRID.spacing * delay_step(DELAY_NS)
        assert _fold_period(b, SMALL_GRID.count, DELAY_NS.size) == 0
        amp = self.amplitude(SMALL_GRID, medium_a, drive_a)
        fresh = self.fresh(amp, DELAY_NS, ONSET_NS)
        hit = sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS).g2
        info = _synthesis.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert np.array_equal(hit, fresh)

    def test_no_stale_factors_across_grids_and_delay_axes(self, medium_a, drive_a):
        """Each locked amplitude is on the grid locked to its delay axis; the
        second axis differs from the first in length, the third in step.  A
        grid as given, whose packet is a chirp-z transform, comes between
        them and the first again.  Every packet is the fresh one."""
        axes = [np.arange(0.0, 1500.0, 25.6), np.arange(0.0, 3000.0, 25.6), 20.0 * np.arange(59)]
        cases = [(self.locked_amplitude(medium_a, drive_a, half_width, tau), tau)
                 for half_width, tau in [(24.0, axes[0]), (32.0, axes[0]), (32.0, axes[1]),
                                         (32.0, axes[2])]]
        cases.append((self.amplitude(SMALL_GRID, medium_a, drive_a), axes[0]))
        cases.append(cases[0])
        _synthesis.cache_clear()
        served = [sfwm.wavepacket(amp, tau, onset_ns=0.0).g2 for amp, tau in cases]
        assert _synthesis.cache_info().misses == len(cases)
        for (amp, tau), g2 in zip(cases, served):
            assert np.array_equal(g2, self.fresh(amp, tau))

    def test_new_onset_is_a_miss(self, medium_a, drive_a):
        """The factors depend on the onset; the grid and delay axis do not change."""
        amp = self.locked_amplitude(medium_a, drive_a)
        _synthesis.cache_clear()
        sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS)
        later = sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS + 40.0).g2
        assert _synthesis.cache_info().misses == 2
        assert np.array_equal(later, self.fresh(amp, DELAY_NS, ONSET_NS + 40.0))

    def test_chirp_z_transform_length(self):
        size, chirp, spectrum = _synthesis(1024, 157, 0.125, 0.01, 0.5)
        assert size == _next_fast_len(1024 + 157 - 1)
        assert chirp.size == 1024 and spectrum.size == size

    def test_each_memo_holds_one_entry(self):
        """One grid's factors at most stay resident, whatever a run sweeps."""
        for memo in (_synthesis, _etalon_response, _grid_delta):
            assert memo.cache_info().maxsize == 1

    def test_sweep_equals_sweep_with_memo_cleared_per_power(self):
        """The sweep's packets all fold, and its powers share the plan of
        each grid."""
        scenario = sfwm.load_config()
        powers = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]
        sweep, plans = with_plans(analysis.sweep_predict, scenario, powers)
        assert _synthesis.cache_info().hits > 0
        assert all(kernel is None for _, _, kernel in plans)
        self.assert_equals_sweep_with_plan_cleared_per_power(sweep, scenario, powers)

    def test_narrow_source_sweep_builds_one_chirp_z_plan_per_grid(self, tmp_path):
        """At 0.036 MHz decoherence the locked grid would pass the count cap,
        so every packet is a chirp-z transform on the grid as given, and on
        the widened grid of the strong couplings; the plan is built once on
        each and serves the other powers."""
        config = tmp_path / "narrow.ini"
        config.write_text("[medium]\ndecoherence_mhz = 0.036\n")
        scenario = sfwm.load_config(config)
        powers = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]
        sweep, plans = with_plans(analysis.sweep_predict, scenario, powers)
        assert len(plans) == len(powers)
        assert all(kernel is not None for _, _, kernel in plans)
        assert len({id(plan) for plan in plans}) == 2
        assert _synthesis.cache_info().misses == 2
        self.assert_equals_sweep_with_plan_cleared_per_power(sweep, scenario, powers)


# Odd count: delta = 0 is on the grid, the dark point when gamma = 0.
OWNERSHIP_GRID = sfwm.SpectralGrid(half_width=24.0, count=4097)
OWNERSHIP_CASES = {
    "strong": (sfwm.MediumParams(80.0, 0.028), sfwm.DriveParams(2.6), None),
    "dark point": (sfwm.MediumParams(80.0, 0.0), sfwm.DriveParams(2.6), None),
    "coupling off": (sfwm.MediumParams(80.0, 0.028), sfwm.DriveParams(0.0), None),
    "quadrature": (sfwm.MediumParams(80.0, 0.028), sfwm.DriveParams(2.6), FAST_QUAD),
    "quadrature dark point": (sfwm.MediumParams(80.0, 0.0), sfwm.DriveParams(2.6), FAST_QUAD),
    "quadrature coupling off": (
        sfwm.MediumParams(80.0, 0.028), sfwm.DriveParams(0.0), FAST_QUAD
    ),
}


class TestOwnership:
    """Each stage writes only into arrays it allocated: its array arguments
    and the memo entries are left as they were, and two calls return equal
    arrays that share no memory with each other or with a memo."""

    @staticmethod
    def assert_fresh(first, second):
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)

    @staticmethod
    def amplitude(case):
        m, d, q = OWNERSHIP_CASES[case]
        with mock.patch.object(biphoton, "EDGE_DECAY_TOL", np.inf):
            return sfwm.spectral_amplitude(OWNERSHIP_GRID, m, d, q)

    def test_memo_entries_are_read_only(self):
        """Among them the arrays of a fold plan and of a chirp-z plan."""
        fold = _synthesis(OWNERSHIP_GRID.count, 157, OWNERSHIP_GRID.spacing, 2.0 * np.pi / 741, 0.5)
        chirp = _synthesis(OWNERSHIP_GRID.count, 157, OWNERSHIP_GRID.spacing, 0.01, 0.5)
        assert fold[0] == 741 and fold[2] is None and chirp[2] is not None
        entries = (
            OWNERSHIP_GRID.delta,
            _etalon_response(OWNERSHIP_GRID, ETALONS),
            fold[1],
            *chirp[1:],
        )
        for array in entries:
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("case", OWNERSHIP_CASES)
    def test_averaged_susceptibilities(self, case):
        """On the grid's read-only detunings, and on a writable copy passed
        to the physics layer directly."""
        m, d, q = OWNERSHIP_CASES[case]
        memo = OWNERSHIP_GRID.delta
        delta = memo.copy()
        first = sfwm.averaged_susceptibilities(OWNERSHIP_GRID, m, d, q)
        second = _averaged_pair(delta, m, d, q)
        assert OWNERSHIP_GRID.delta is memo and np.array_equal(memo, delta)
        for a, b in zip(first, second):
            self.assert_fresh(a, b)
            assert not np.shares_memory(a, memo) and not np.shares_memory(b, delta)
        assert not np.shares_memory(*first)

    @pytest.mark.parametrize("case", OWNERSHIP_CASES)
    def test_spectral_amplitude(self, case):
        delta = OWNERSHIP_GRID.delta
        before = delta.copy()
        first, second = self.amplitude(case), self.amplitude(case)
        assert np.array_equal(delta, before)
        self.assert_fresh(first.values, second.values)
        assert not np.shares_memory(first.values, delta)

    def test_phase_matching(self):
        """Over points where the factor is 1 (z = 0, subnormal) and where it
        is the quotient."""
        z = np.array(PHASE_MATCHING_POINTS, dtype=complex)
        before = z.copy()
        first, second = _phase_matching(z), _phase_matching(z)
        assert np.array_equal(z, before)
        self.assert_fresh(first, second)
        assert not np.shares_memory(first, z)

    @pytest.mark.parametrize("case", ["strong", "coupling off"])
    def test_apply_etalons(self, case):
        amp = self.amplitude(case)
        before = amp.values.copy()
        first = sfwm.apply_etalons(amp, ETALONS)
        response = _etalon_response(OWNERSHIP_GRID, ETALONS)
        response_before = response.copy()
        second = sfwm.apply_etalons(amp, ETALONS)
        assert np.array_equal(amp.values, before)
        assert np.array_equal(response, response_before) and not response.flags.writeable
        self.assert_fresh(first.values, second.values)
        for out in (first.values, second.values):
            assert not np.shares_memory(out, amp.values)
            assert not np.shares_memory(out, response)

    @pytest.mark.parametrize("transform", ["chirp-z", "fold"])
    def test_wavepacket(self, transform):
        """By the chirp-z transform on OWNERSHIP_GRID, and by the fold on the
        locked grid over the same window; the second packet reads the plan
        memoized by the first."""
        m, d, _ = OWNERSHIP_CASES["strong"]
        fold = transform == "fold"
        grid = locked(24.0, m.gamma)[1] if fold else OWNERSHIP_GRID
        with mock.patch.object(biphoton, "EDGE_DECAY_TOL", np.inf):
            amp = sfwm.apply_etalons(sfwm.spectral_amplitude(grid, m, d, None), ETALONS)
        values = amp.values.copy()
        tau = DELAY_NS.copy()
        entries = []

        def spy(*args):
            plan = _synthesis(*args)
            entries.append([array for array in plan[1:] if array is not None])
            return plan

        _synthesis.cache_clear()
        with mock.patch.object(biphoton, "_synthesis", spy):
            first = sfwm.wavepacket(amp, tau, onset_ns=ONSET_NS)
            copies = [array.copy() for array in entries[0]]
            second = sfwm.wavepacket(amp, tau, onset_ns=ONSET_NS)
        assert np.array_equal(tau, DELAY_NS) and np.array_equal(amp.values, values)
        assert len(entries) == 2 and len(entries[0]) == (1 if fold else 2)
        for array, copy in zip(entries[0], copies):
            assert np.array_equal(array, copy)
        assert all(a is b for a, b in zip(*entries))
        assert not any(array.flags.writeable for array in entries[0])
        self.assert_fresh(first.g2, second.g2)
        for g2 in (first.g2, second.g2):
            for array in (amp.values, tau, *entries[0]):
                assert not np.shares_memory(g2, array)


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
        smeared = sfwm.rise_time_convolve(packet_a, RISE_NS)
        assert sfwm.wavepacket_area(smeared) == pytest.approx(
            sfwm.wavepacket_area(packet_a), rel=1e-3
        )

    def test_etalons_barely_move_the_decay_constant(self, amplitude_a, packet_a):
        bare = sfwm.wavepacket(amplitude_a, DELAY_NS, onset_ns=ONSET_NS)
        tau_bare = sfwm.fit_exponential(bare).tau_ns
        tau_filtered = sfwm.fit_exponential(packet_a).tau_ns
        assert tau_filtered == pytest.approx(tau_bare, rel=0.03)


MOMENT_GRID = sfwm.SpectralGrid(128.0, 2**18 + 1)
MOMENT_DELAYS = np.arange(-1000.0, 30000.5, 1.0)


@functools.lru_cache(maxsize=None)
def moment_case(p_mw):
    """The filtered amplitude of the default medium at ``p_mw`` on a wide,
    fine grid, and its packet from -1 to 30 us in 1 ns steps at onset 0."""
    cfg = sfwm.load_config()
    drive = sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(p_mw))
    amp = sfwm.spectral_amplitude(MOMENT_GRID, cfg.medium, drive, None)
    amp = sfwm.apply_etalons(amp, cfg.etalons)
    return amp, sfwm.wavepacket(amp, MOMENT_DELAYS, onset_ns=0.0)


def spectral_mean_t(amp):
    """<t> in 1/Gamma of the packet of ``amp`` at onset 0, by the first-moment
    identity: int Re(-i conj(A) dA/ddelta) / int |A|^2."""
    slope = np.gradient(amp.values, amp.grid.spacing)
    moment = np.trapezoid(np.real(-1j * np.conj(amp.values) * slope), amp.grid.delta)
    return moment / np.trapezoid(np.abs(amp.values) ** 2, amp.grid.delta)


def folded_tails(amp, values):
    """The integral of |values|^2 over the detunings that the 1 ns delay step
    folds onto each other: farther than w - half_width from the center,
    with w = 2*pi/(1 ns)."""
    w = 2.0 * np.pi / sfwm.units.time_from_ns(1.0)
    tail = np.abs(amp.grid.delta) > w - amp.grid.half_width
    return np.trapezoid(np.abs(values[tail]) ** 2, amp.grid.delta[tail])


def moment_identities(amp, packet):
    """The packet's <t>, and each identity of TestSpectralMoments on ``amp``
    and its packet at onset 0, by name: its relative deviation and its
    tolerance."""
    t = sfwm.units.time_from_ns(packet.tau_ns)
    area = np.trapezoid(packet.g2, t)
    mean_t, mean_t2, mean_t4 = (np.trapezoid(t**k * packet.g2, t) / area for k in (1, 2, 4))
    h, delta = amp.grid.spacing, amp.grid.delta
    slope = np.gradient(amp.values, h)
    spectral = np.trapezoid(np.abs(amp.values) ** 2, delta)
    spectral_slope = np.trapezoid(np.abs(slope) ** 2, delta)
    moment = np.trapezoid(np.real(-1j * np.conj(amp.values) * slope), delta)
    folded, folded_slope = folded_tails(amp, amp.values), folded_tails(amp, slope)
    ends = abs(amp.values[0]) + abs(amp.values[-1])
    r = max(abs(amp.values[0]), abs(amp.values[-1])) / np.abs(amp.values).max()
    step_first = h**2 / 6.0 * np.trapezoid(np.abs(t) ** 3 * packet.g2, t) / area
    cut_second = ends**2 * (t[-1] - t[0]) / (2.0 * np.pi * spectral_slope)
    return mean_t, {
        "area": (abs(2.0 * np.pi * area / spectral - 1.0), folded / spectral + r**2 + 1e-12),
        "first": (
            abs(moment / spectral / mean_t - 1.0),
            step_first / mean_t
            + folded / spectral
            + 2.0 * math.sqrt(folded * folded_slope) / abs(moment)
            + 2.0 * r**2
            + 1e-12,
        ),
        "second": (
            abs(spectral_slope / spectral / mean_t2 - 1.0),
            h**2 * mean_t4 / (3.0 * mean_t2)
            + folded / spectral
            + folded_slope / spectral_slope
            + r**2
            + cut_second
            + 1e-12,
        ),
    }


class TestSpectralMoments:
    """Three Fourier identities of psi(t) = (1/2pi) int A(delta) exp(-i delta t),
    exact at any optical depth: Parseval, int G2 dt = (1/2pi) int |A|^2; the
    first moment, <t> = int Re(-i conj(A) dA/ddelta) / int |A|^2; and the
    second, <t^2> = int |dA/ddelta|^2 / int |A|^2, since t*psi is the
    transform of -i dA/ddelta.  A mirrored packet flips the sign of <t>, a
    wrong 1/2pi scales the area by 2pi, and a wrong time unit scales <t>
    and <t^2>.

    The tolerances of moment_identities follow from the amplitude and the
    packet:
    - Sampling G2 at a step s adds its Fourier components at +-2pi/s, the
      overlaps of conj(A(delta)) with A(delta +- 2pi/s).  Both factors lie
      in the tails of folded_tails, so by Cauchy-Schwarz the two together
      are at most the tails' integral, relative to int |A|^2; likewise
      2*sqrt(tails of A * tails of dA/ddelta) relative to the first
      moment's integral, and the tails of dA/ddelta relative to
      int |dA/ddelta|^2 for t^2*G2.  Without the etalons this term is what
      the area's deviation of up to 4e-4 measures: at a 0.5 ns step, which
      folds nothing, it falls to 7e-10.
    - The grid ends where |A| is r of its peak, and the cut rings in the
      packet at the order r^2 of G2.  In t*psi the cut is the boundary
      term i*(A(H)exp(-iHt) - A(-H)exp(iHt))/2pi, so t^2*G2 gains at most
      (|A(H)| + |A(-H)|)^2/(4pi^2) over each unit of the delay span.
    - np.gradient's central difference at spacing h weights G2 by
      sin(ht)/h in place of t, and |x - sin(x)| <= |x|^3/6 bounds the
      difference by h^2<|t|^3>/6; for the second moment it weights G2 by
      sin(ht)^2/h^2, which differs from t^2 by at most h^2 t^4/3.
    - The 30 us of delays end past the packet: its slowest decay,
      exp(-2 gamma t), leaves below 1e-18 of its peak there for gamma >= 0.02.
    """

    @pytest.mark.parametrize("p_mw", [0.02, 1.0, 5.0])
    def test_parseval(self, p_mw):
        _, identities = moment_identities(*moment_case(p_mw))
        deviation, tol = identities["area"]
        assert deviation <= tol

    @pytest.mark.parametrize("p_mw", [0.02, 1.0, 5.0])
    def test_first_moment_is_the_group_delay(self, p_mw):
        mean_t, identities = moment_identities(*moment_case(p_mw))
        deviation, tol = identities["first"]
        assert mean_t > 0.0
        assert deviation <= tol

    @pytest.mark.parametrize("p_mw", [0.02, 1.0, 5.0])
    def test_second_moment_is_the_width(self, p_mw):
        _, identities = moment_identities(*moment_case(p_mw))
        deviation, tol = identities["second"]
        assert deviation <= tol

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        alpha_s=st.floats(20.0, 200.0),
        gamma=st.floats(0.02, 0.08),
        omega_c=st.floats(0.3, 6.0),
        gamma_doppler=st.floats(30.0, 60.0),
    )
    @pytest.mark.parametrize("etalons", [True, False], ids=["etalons", "bare"])
    def test_identities_on_drawn_media(self, etalons, alpha_s, gamma, omega_c, gamma_doppler):
        """All three, on moment_case's grid and delays.  At the corners of
        these ranges |A| at the grid edge is at most 9.1e-4 of its peak,
        within spectral_amplitude's limit of 1e-3."""
        medium = sfwm.MediumParams(alpha_s=alpha_s, gamma=gamma, gamma_doppler=gamma_doppler)
        amp = sfwm.spectral_amplitude(MOMENT_GRID, medium, sfwm.DriveParams(omega_c=omega_c), None)
        if etalons:
            amp = sfwm.apply_etalons(amp, ETALONS)
        packet = sfwm.wavepacket(amp, MOMENT_DELAYS, onset_ns=0.0)
        mean_t, identities = moment_identities(amp, packet)
        assert mean_t > 0.0
        for name, (deviation, tol) in identities.items():
            assert deviation <= tol, name


    def test_group_delay_report(self):
        """<t> of the bare amplitude at onset 0 over a grid of optical depths
        and couplings, at the default decoherence and Doppler width, next to
        the group delay alpha_s*G3/Omega_c^2 of a thin rectangle and to the
        decoherence time 1/(2 gamma).  No formula is gated: <t> is finite and
        positive, falls with Omega_c and rises with alpha_s.  The table
        prints under -s."""
        medium = sfwm.load_config().medium
        depths, couplings = (20.0, 40.0, 80.0, 160.0), (0.5, 1.0, 2.7, 6.0)
        mean_t = np.array([[
            spectral_mean_t(sfwm.spectral_amplitude(
                MOMENT_GRID, dataclasses.replace(medium, alpha_s=alpha_s, alpha_as=alpha_s),
                sfwm.DriveParams(omega_c=omega_c), None,
            ))
            for omega_c in couplings] for alpha_s in depths])
        print(f"\n<t> in 1/Gamma; 1/(2 gamma) = {0.5 / medium.gamma:.1f}")
        print("alpha_s  Omega_c    <t>  alpha_s*G3/Omega_c^2   ratio")
        for alpha_s, row in zip(depths, mean_t):
            for omega_c, value in zip(couplings, row):
                rectangle = alpha_s * medium.gamma3 / omega_c**2
                print(f"{alpha_s:7.0f}  {omega_c:7.1f}  {value:5.2f}  {rectangle:20.3f}  "
                      f"{value / rectangle:6.3f}")
        assert np.all(np.isfinite(mean_t)) and np.all(mean_t > 0.0)
        assert np.all(np.diff(mean_t, axis=1) < 0.0)
        assert np.all(np.diff(mean_t, axis=0) > 0.0)


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


class TestFold:
    """The folded synthesis on predict_packet's grids against the chirp-z
    transform on the same grids, within 1e-12 of the packet's peak."""

    @pytest.mark.parametrize("onset_ns", [0.0, 37.3, 150.0])
    @pytest.mark.parametrize("half_width", [64.0, 128.0])
    def test_matches_the_chirp_z(self, half_width, onset_ns, medium_a, drive_a):
        """The default delay axis, on the first window and on the widened
        one; the onsets of 37.3 and 150 ns are not whole bins.  The largest
        deviation seen is 1.0e-14 of the peak."""
        h, _ = locked(64.0, medium_a.gamma)
        grid = _locked_grid(half_width, h, MAX_COUNT)
        assert grid.count % 2 == 1
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(grid, medium_a, drive_a, None), ETALONS)
        packet, plans = with_plans(sfwm.wavepacket, amp, DELAY_NS, onset_ns=onset_ns)
        assert plans[0][2] is None
        reference = chirp_z(amp, DELAY_NS, onset_ns)
        assert np.max(np.abs(packet.g2 - reference)) <= 1e-12 * reference.max()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        half_width=st.floats(8.0, 256.0),
        gamma=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
        bin_ns=st.floats(5.0, 60.0),
        onset_ns=st.floats(-300.0, 300.0),
        cap=st.integers(1024, DEFAULT_COUNT),
    )
    @example(half_width=64.0, gamma=0.028, bin_ns=25.6, onset_ns=150.0, cap=DEFAULT_COUNT)
    @example(half_width=64.0, gamma=0.0, bin_ns=25.6, onset_ns=0.0, cap=1024)
    @example(half_width=8.0, gamma=1.0, bin_ns=5.0, onset_ns=37.3, cap=1024)
    @example(half_width=8.0, gamma=1.0, bin_ns=5.0, onset_ns=-161.0, cap=1025)
    def test_locked_grid(self, half_width, gamma, bin_ns, onset_ns, cap):
        """Over a 4 us delay axis: the grid's period M holds the delays
        (counted from the onset where they start after it) and is the
        smallest that also meets the decay margin past the first of them;
        its window is
        half_width rounded up to whole steps (unless the 1024-sample floor
        binds), and its count is at most the cap; where that count would
        pass the cap, and at gamma = 0, the grid is SpectralGrid(half_width,
        cap).  The packet on it matches the chirp-z transform in long
        double, by the fold wherever a locked grid's M is below count +
        n_tau.  At onset -161 ns the fold is 2.1e-14 of the peak off that
        reference and the float64 chirp-z transform 2.0e-12, so where
        longdouble is float64 that example fails."""
        tau = sfwm.delay_axis(4000.0, bin_ns)
        step, n_tau, first = delay_step(tau), tau.size, first_argument(tau, onset_ns)
        h, grid = locked(half_width, gamma, cap, tau, onset_ns)
        assert grid.count <= cap
        if gamma == 0.0:
            assert h == 0.0
        else:
            turns = 2.0 * np.pi / (h * step)
            period = round(turns)
            assert abs(turns - period) <= 1e-12 * turns
            need = max(n_tau, n_tau + first / step, (ALIAS_DECAY_MARGIN / gamma - first) / step)
            assert need * (1.0 - 1e-12) <= period < need + 1.0
        k = max(math.ceil(half_width / h), 512) if h else math.inf
        fits = 2 * k + 1 <= cap
        if fits:
            assert grid.count == 2 * k + 1
            assert grid.spacing == pytest.approx(h, rel=1e-14)
            if k > 512:
                assert half_width * (1.0 - 1e-14) <= grid.half_width < half_width + h
        else:
            assert grid == sfwm.SpectralGrid(half_width, cap)

        m = sfwm.MediumParams(alpha_s=80.0, gamma=gamma)
        with mock.patch.object(biphoton, "EDGE_DECAY_TOL", np.inf):
            amp = sfwm.apply_etalons(
                sfwm.spectral_amplitude(grid, m, sfwm.DriveParams(2.7), None), ETALONS
            )
        span = step * (n_tau - 1)
        if grid.spacing * max(span, first + span, -first) > 2.0 * np.pi:
            # Only a cap's grid can be too coarse for the delays from the onset.
            assert not fits
            with pytest.raises(AliasingError):
                sfwm.wavepacket(amp, tau, onset_ns=onset_ns)
            return
        packet, plans = with_plans(sfwm.wavepacket, amp, tau, onset_ns=onset_ns)
        if fits:
            assert (plans[0][2] is None) == (period < grid.count + n_tau)
        reference = long_chirp_z(amp, tau, onset_ns)
        assert np.max(np.abs(packet.g2 - reference)) <= 1e-12 * reference.max()

    def test_fold_period(self):
        """Only a spacing product within 1e-12 of 2*pi/M folds, and only for
        n_tau <= M < n_delta + n_tau."""
        for b, expected in [
            (2.0 * np.pi / 741, 741),
            (2.0 * np.pi / 741 * (1.0 + 5e-13), 741),
            (2.0 * np.pi / 741 * (1.0 + 5e-12), 0),
            (2.0 * np.pi / 741.5, 0),
            (2.0 * np.pi / 156, 0),
            (2.0 * np.pi / 157, 157),
            (2.0 * np.pi / (16384 + 156), 16384 + 156),
            (2.0 * np.pi / (16384 + 157), 0),
            (0.0, 0),
            (5e-324, 0),
        ]:
            assert _fold_period(b, 16384, 157) == expected, b


def _figures(packet):
    """Fitted tau, area and rise-convolved peak: what a sweep reads off a packet."""
    return np.array([
        sfwm.fit_exponential(packet).tau_ns,
        sfwm.wavepacket_area(packet),
        sfwm.rise_time_convolve(packet, RISE_NS).g2.max(),
    ])


class TestPredictPacket:
    @staticmethod
    def medium_drive(gamma, p_mw):
        return (sfwm.MediumParams(alpha_s=82.0, gamma=gamma),
                sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(p_mw)))

    @staticmethod
    def direct(grid, m, d):
        """The packet of the public API on ``grid``."""
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(grid, m, d, None), ETALONS)
        return sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS)

    @staticmethod
    def dense_packet(m, d, h):
        """The packet on each window of spacing h with four times the steps,
        spacing h/4, widened while |A| has not decayed at the edges; the
        edge samples are those of the window's own grid."""
        for widening in range(MAX_WIDENINGS + 1):
            window = _locked_grid(64.0 * 2**widening, h, DEFAULT_COUNT << widening)
            grid = sfwm.SpectralGrid(window.half_width, 4 * (window.count - 1) + 1)
            try:
                amp = sfwm.spectral_amplitude(grid, m, d, None)
                break
            except GridTooNarrowError:
                pass
        return sfwm.wavepacket(sfwm.apply_etalons(amp, ETALONS), DELAY_NS, onset_ns=ONSET_NS)

    @pytest.mark.parametrize("p_mw", [0.02, 0.5, 5.0])
    @pytest.mark.parametrize("gamma", [0.015, 0.024, 0.028])
    def test_derived_grid_matches_four_times_denser(self, gamma, p_mw):
        """At 5 mW both windows are widened, the dense one on the same
        window as the locked grid."""
        m, d = self.medium_drive(gamma, p_mw)
        h, grid = locked(64.0, gamma, onset_ns=ONSET_NS)
        assert grid.count < DEFAULT_COUNT
        derived = sfwm.predict_packet(scenario(m, d), DELAY_NS)
        dense = self.dense_packet(m, d, h)
        np.testing.assert_allclose(_figures(derived), _figures(dense), rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("gamma", [0.006, 0.0])
    def test_cap_binds_and_reproduces_the_default_grid(self, gamma):
        m, d = self.medium_drive(gamma, 0.5)
        assert locked(64.0, gamma)[1] == sfwm.SpectralGrid()
        derived = sfwm.predict_packet(scenario(m, d), DELAY_NS)
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(sfwm.SpectralGrid(), m, d, None), ETALONS)
        direct = sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS)
        assert np.array_equal(derived.g2, direct.g2)

    def test_count_below_the_need_is_used(self, medium_a, drive_a):
        """8192 samples are fewer than the 14571 of the grid gamma = 0.028
        locks, so the count is used as given."""
        assert locked(64.0, medium_a.gamma)[1].count == 14571
        grid = sfwm.SpectralGrid(count=8192)
        capped = sfwm.predict_packet(scenario(medium_a, drive_a, grid=grid), DELAY_NS)
        amp = sfwm.apply_etalons(sfwm.spectral_amplitude(grid, medium_a, drive_a, None), ETALONS)
        direct = sfwm.wavepacket(amp, DELAY_NS, onset_ns=ONSET_NS)
        assert np.array_equal(capped.g2, direct.g2)

    def test_capped_grid_within_the_decay_budget_is_used(self):
        """A count of 8192 at gamma = 0.026 and the 150 ns onset, as the
        benchmark's tiny sweep runs it: gamma*(P + first) is 10.3, past
        ln(1/EDGE_DECAY_TOL) = 6.9, so the packet is the direct one."""
        m, d = self.medium_drive(0.026, 0.5)
        grid = sfwm.SpectralGrid(count=8192)
        assert locked(64.0, m.gamma, cap=grid.count, onset_ns=ONSET_NS)[1] == grid
        capped = sfwm.predict_packet(scenario(m, d, grid=grid), DELAY_NS)
        assert np.array_equal(capped.g2, self.direct(grid, m, d).g2)

    @pytest.mark.parametrize("onset_ns", [38000.0, 40000.0, 42000.0])
    def test_capped_grid_short_of_the_decay_budget_is_aliasing_error(
        self, medium_a, drive_a, onset_ns
    ):
        """The default grid repeats the packet every 42.65 us, which holds
        the delays from these onsets; but gamma*(P + first) is 4.9, 2.8 and
        0.70, below ln(1/EDGE_DECAY_TOL), so a copy of the packet passes
        EDGE_DECAY_TOL of it.  At 42000 ns the sum put a spurious peak at
        delay 0; more samples are the remedy."""
        assert locked(64.0, medium_a.gamma, onset_ns=onset_ns)[1] == sfwm.SpectralGrid()
        s = dataclasses.replace(scenario(medium_a, drive_a), onset_ns=onset_ns)
        with pytest.raises(AliasingError, match=r"increase \[grid\] count"):
            sfwm.predict_packet(s, DELAY_NS)

    def test_count_above_the_need_is_a_cap_only(self, medium_a, drive_a):
        """A larger count than the derived one changes nothing."""
        derived = sfwm.predict_packet(scenario(medium_a, drive_a), DELAY_NS)
        grid = sfwm.SpectralGrid(count=65536)
        roomy = sfwm.predict_packet(scenario(medium_a, drive_a, grid=grid), DELAY_NS)
        assert np.array_equal(roomy.g2, derived.g2)

    def test_widening_past_the_maximum_count(self, medium_a):
        """A count that doubles past MAX_COUNT on widening is a usage error."""
        d = sfwm.DriveParams(omega_c=31.2 / 6.0)
        m = dataclasses.replace(medium_a, gamma=0.0)
        grid = sfwm.SpectralGrid(count=MAX_COUNT)
        with pytest.raises(UsageError, match="samples"):
            sfwm.predict_packet(scenario(m, d, grid=grid), DELAY_NS)

    @pytest.mark.parametrize("half_width", [8.0, 24.0, 64.0, 128.0, 1024.0])
    def test_count_never_exceeds_the_default_grid(self, half_width):
        """The default count caps every window's grid.  Below the cap the
        grid is locked, an odd count whose period is the smallest that holds
        the delays and the decay margin; at the cap it is the default grid
        on the window."""
        for gamma in (0.0, 1e-4, 0.006, 0.015, 0.028, 0.3, 10.0, np.inf):
            for bins in (2, 10, 157, 2000):
                tau = 25.6 * np.arange(bins)
                step = delay_step(tau)
                h, grid = locked(half_width, gamma, tau_ns=tau)
                assert 1024 <= grid.count <= DEFAULT_COUNT
                if grid.count == DEFAULT_COUNT:
                    assert grid == sfwm.SpectralGrid(half_width, DEFAULT_COUNT)
                    assert h == 0.0 or 2 * math.ceil(half_width / h) + 1 > DEFAULT_COUNT
                    continue
                period = round(2.0 * np.pi / (h * step))
                need = max(bins, ALIAS_DECAY_MARGIN / gamma / step)
                assert period >= bins and need * (1.0 - 1e-12) <= period < need + 1.0

    @pytest.mark.parametrize("early_ns", [0.0, 469.6])
    def test_onset_near_the_period_leaves_the_window_empty(self, medium_a, drive_a, early_ns):
        """At an onset of the period the default axis locks without one,
        18969.6 ns, or 469.6 ns less, a period of the span and the decay
        margin alone brought the packet's copy y(t + P) back into the
        window.  The period counts the onset, so the window stays below
        1e-12 of the onset-0 peak."""
        h = _locked_spacing(medium_a.gamma, DELAY_NS.size, delay_step(DELAY_NS), 0.0)
        period_ns = sfwm.units.time_to_ns(2.0 * np.pi / h)
        s = scenario(medium_a, drive_a)
        peak = sfwm.predict_packet(dataclasses.replace(s, onset_ns=0.0), DELAY_NS).g2.max()
        late = sfwm.predict_packet(dataclasses.replace(s, onset_ns=period_ns - early_ns), DELAY_NS)
        assert late.g2.max() < 1e-12 * peak

    def test_negative_onset_has_no_interior_peak(self):
        """At 6 MHz decoherence the packet has fallen below 1e-98 of its peak
        3000 ns past the onset, where the window starts.  A period of the
        delay span alone put the copy y(t - P) inside the window, a peak at
        1049.6 ns; the period holds the 3000 ns too, so the window stays
        below 1e-12 of the onset-0 peak."""
        s = scenario(sfwm.MediumParams(alpha_s=80.0, gamma=1.0), sfwm.DriveParams(omega_c=2.7))
        peak = sfwm.predict_packet(dataclasses.replace(s, onset_ns=0.0), DELAY_NS).g2.max()
        early = sfwm.predict_packet(dataclasses.replace(s, onset_ns=-3000.0), DELAY_NS)
        assert early.g2.max() < 1e-12 * peak

    def test_widening_keeps_the_spacing(self, medium_a):
        """A 31.2 MHz coupling fails the edge test on the default window and
        succeeds once widened; the wider grid has the first grid's spacing,
        and about twice its samples."""
        d = sfwm.DriveParams(omega_c=31.2 / 6.0)
        h, first = locked(64.0, medium_a.gamma, onset_ns=ONSET_NS)
        with pytest.raises(GridTooNarrowError):
            sfwm.spectral_amplitude(first, medium_a, d, None)
        packet = sfwm.predict_packet(scenario(medium_a, d), DELAY_NS)
        wide = _locked_grid(128.0, h, 2 * DEFAULT_COUNT)
        assert wide.spacing == pytest.approx(first.spacing, rel=1e-14)
        assert wide.count in (2 * first.count - 1, 2 * first.count - 3)
        assert np.array_equal(packet.g2, self.direct(wide, medium_a, d).g2)

    def test_widening_gives_up_after_the_last_doubling(self, medium_a, monkeypatch):
        """From a +-1 Gamma window of 1024 samples a 2.6 Gamma coupling still
        fails the edge test on the widest window, +-16 Gamma: predict_packet
        raises the last window's GridTooNarrowError.  The +-2 and +-4 Gamma
        windows both round up to the 1025-sample floor, one grid, so it is
        evaluated once: MAX_WIDENINGS distinct grids in all."""
        grids = []
        amplitude = biphoton.spectral_amplitude

        def recorded(grid, *args):
            grids.append(grid)
            return amplitude(grid, *args)

        monkeypatch.setattr(biphoton, "spectral_amplitude", recorded)
        narrow = scenario(medium_a, sfwm.DriveParams(omega_c=2.6), grid=sfwm.SpectralGrid(1.0, 1024))
        with pytest.raises(GridTooNarrowError, match="grid edge"):
            sfwm.predict_packet(narrow, DELAY_NS)
        assert len(set(grids)) == len(grids) == MAX_WIDENINGS
        assert grids[1].count == 1025
        # The locked grids round their windows up to whole steps of 0.0087.
        assert grids[0].half_width == 1.0 and 16.0 <= grids[-1].half_width < 16.01

    @pytest.mark.parametrize(
        "tau", [np.empty(0), np.array([0.0]), *BAD_DELAY_GRIDS.values()],
        ids=["empty", "one sample", *BAD_DELAY_GRIDS.keys()],
    )
    def test_short_or_bad_delay_axis_is_rejected_first(self, medium_a, drive_a, tau):
        """A delay axis of fewer than two samples, or not uniform and
        increasing, is a usage error before any amplitude is evaluated."""
        with mock.patch.object(biphoton, "spectral_amplitude") as amplitude:
            with pytest.raises(UsageError, match="delay grid"):
                sfwm.predict_packet(scenario(medium_a, drive_a), tau)
        amplitude.assert_not_called()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        gamma=st.sampled_from([0.0, 1e-6, 10.0]),
        cap=st.integers(1024, MAX_COUNT),
        span_ns=st.sampled_from([0.0, 10.0, 25.6, 4000.0]),
        omega_c=st.sampled_from([2.7, 31.2 / 6.0]),
    )
    @example(gamma=0.0, cap=MAX_COUNT, span_ns=4000.0, omega_c=31.2 / 6.0)
    @example(gamma=10.0, cap=1024, span_ns=4000.0, omega_c=2.7)
    @example(gamma=1e-6, cap=1024, span_ns=10.0, omega_c=2.7)
    def test_every_outcome_is_a_packet_or_a_contract_error(self, gamma, cap, span_ns, omega_c):
        """Any decoherence, any cap, a delay span shorter than one bin, and a
        widening past MAX_COUNT: a packet, a UsageError or a NumericsError."""
        s = scenario(sfwm.MediumParams(80.0, gamma), sfwm.DriveParams(omega_c),
                     grid=sfwm.SpectralGrid(count=cap))
        try:
            packet = sfwm.predict_packet(s, sfwm.delay_axis(span_ns, 25.6))
        except (UsageError, NumericsError):
            return
        assert np.all(np.isfinite(packet.g2)) and packet.g2.size >= 2
