import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import wofz

import sfwm
from sfwm.errors import DomainError, PeakShapeError, UsageError
from sfwm.physics import _averaged_pair, _faddeeva, _transmission_raw

# Independent high-precision evaluations (40-digit arithmetic) of the two
# response functions, frozen as regression constants.
CROSS_REF = -0.045249654751199166973 - 0.000067881270253824132873j
SELF_REF = 0.77035847443802578558 + 2.2054173437051441252j
# Adaptive quadrature of the coupling-off absorption at optical depth 82.
BASELINE_T_82 = 0.26399998858205675


def medium(**kw):
    base = dict(alpha_s=82.0, gamma=0.025)
    base.update(kw)
    return sfwm.MediumParams(**base)


class TestParams:
    def test_alpha_as_defaults_to_alpha_s(self):
        m = medium(alpha_s=73.0)
        assert m.alpha_as == 73.0

    def test_invalid_medium(self):
        with pytest.raises(UsageError):
            sfwm.MediumParams(alpha_s=-1.0, gamma=0.02)
        with pytest.raises(UsageError):
            sfwm.MediumParams(alpha_s=80.0, gamma=-0.1)
        with pytest.raises(DomainError):
            sfwm.MediumParams(alpha_s=float("nan"), gamma=0.02)

    def test_invalid_drive(self):
        with pytest.raises(UsageError):
            sfwm.DriveParams(omega_c=-2.0)
        with pytest.raises(DomainError):
            sfwm.DriveParams(omega_c=1.0, delta_p=float("inf"))

    def test_quadrature_invariants(self):
        with pytest.raises(UsageError):
            sfwm.DopplerQuadrature(half_range=2.0)
        with pytest.raises(UsageError):
            sfwm.DopplerQuadrature(step=0.3)
        for bad in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(UsageError):
                sfwm.DopplerQuadrature(step=bad)
            with pytest.raises(UsageError):
                sfwm.DopplerQuadrature(half_range=bad)

    def test_quadrature_weights_normalized(self):
        q = sfwm.DopplerQuadrature()
        assert q.weights(medium()).sum() == pytest.approx(1.0, abs=1e-7)


class TestCrossChi:
    def test_zero_pump_gives_zero(self):
        d = sfwm.DriveParams(omega_c=2.6, omega_p=0.0)
        assert sfwm.cross_chi(0.3, -1.2, medium(), d) == 0.0

    def test_regression_against_high_precision_value(self):
        d = sfwm.DriveParams(omega_c=2.7, omega_p=2.0, delta_p=-333.3)
        value = sfwm.cross_chi(0.0, 0.0, medium(), d)
        assert value.real == pytest.approx(CROSS_REF.real, rel=1e-13)
        assert value.imag == pytest.approx(CROSS_REF.imag, rel=1e-13)

    def test_exactly_linear_in_pump(self):
        m = medium()
        d1 = sfwm.DriveParams(omega_c=2.7, omega_p=1.3)
        d2 = sfwm.DriveParams(omega_c=2.7, omega_p=2.6)
        assert sfwm.cross_chi(0.2, 3.0, m, d1) * 2.0 == sfwm.cross_chi(0.2, 3.0, m, d2)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(DomainError):
            sfwm.cross_chi(float("nan"), 0.0, medium(), sfwm.DriveParams(omega_c=1.0))


class TestSelfChi:
    def test_vanishes_on_resonance_without_decoherence(self):
        m = medium(gamma=0.0)
        assert sfwm.self_chi(0.0, 1.0, m, sfwm.DriveParams(omega_c=2.0)) == 0.0

    def test_regression_against_high_precision_value(self):
        value = sfwm.self_chi(0.01, 0.0, medium(), sfwm.DriveParams(omega_c=0.65))
        assert value.real == pytest.approx(SELF_REF.real, rel=1e-13)
        assert value.imag == pytest.approx(SELF_REF.imag, rel=1e-13)

    def test_strong_coupling_suppression(self):
        m = medium()
        weak = sfwm.self_chi(0.01, 0.0, m, sfwm.DriveParams(omega_c=1.0))
        strong = sfwm.self_chi(0.01, 0.0, m, sfwm.DriveParams(omega_c=1e3))
        assert abs(strong) < 1e-4 * abs(weak)

    def test_independent_of_pump_parameters(self):
        m = medium()
        a = sfwm.self_chi(0.3, -2.0, m, sfwm.DriveParams(omega_c=1.5, omega_p=0.1, delta_p=-100.0))
        b = sfwm.self_chi(0.3, -2.0, m, sfwm.DriveParams(omega_c=1.5, omega_p=9.0, delta_p=40.0))
        assert a == b


class TestDopplerAverage:
    def test_constant(self):
        value = sfwm.doppler_average(lambda w: np.full(w.shape, 3.7 + 0.4j), medium())
        assert value == pytest.approx(3.7 + 0.4j, rel=1e-6)

    def test_second_moment(self):
        m = medium()
        value = sfwm.doppler_average(lambda w: w**2 + 0j, m)
        assert value.real == pytest.approx(m.gamma_doppler**2 / 2.0, rel=1e-4)

    def test_against_adaptive_quadrature_oracle(self, medium_b, drive_b):
        """Trapezoid vs scipy.integrate.quad on the weak-coupling self response."""
        gd = medium_b.gamma_doppler

        def gauss(w):
            return np.exp(-((w / gd) ** 2)) / (np.sqrt(np.pi) * gd)

        def component(part):
            val, err = quad(
                lambda w: gauss(w) * part(sfwm.self_chi(0.01, w, medium_b, drive_b)),
                -np.inf,
                np.inf,
                epsabs=1e-10,
                epsrel=1e-10,
                limit=400,
            )
            assert err < 1e-8
            return val

        oracle = component(np.real) + 1j * component(np.imag)
        trap = sfwm.doppler_average(lambda w: sfwm.self_chi(0.01, w, medium_b, drive_b), medium_b)
        assert abs(trap - oracle) / abs(oracle) < 1e-3

    def test_linearity(self):
        m = medium()
        f = lambda w: 1.0 / (w + 10.0 + 2j)
        g = lambda w: np.exp(1j * w / 40.0)
        combined = sfwm.doppler_average(lambda w: 2.5 * f(w) - 1.5j * g(w), m)
        split = 2.5 * sfwm.doppler_average(f, m) - 1.5j * sfwm.doppler_average(g, m)
        assert abs(combined - split) / abs(split) < 1e-12

    def test_against_closed_form_faddeeva_oracle(self):
        """Both responses are single poles in the Doppler shift, so their
        Gaussian averages have closed forms through the Faddeeva function;
        entirely independent of any numerical quadrature."""
        m = medium(alpha_s=80.0, gamma=0.028)
        gd = m.gamma_doppler

        def avg_lower(z):
            # <1/(w - z)> over the normalized Gaussian, for Im z < 0
            return -1j * np.sqrt(np.pi) / gd * wofz(-z / gd)

        def avg_upper(z):
            # same average for Im z > 0
            return 1j * np.sqrt(np.pi) / gd * wofz(z / gd)

        for omega_c, delta in ((2.6, 0.0), (2.6, 0.4), (0.65, -0.07)):
            d = sfwm.DriveParams(omega_c=omega_c)
            two_photon = delta + 1j * m.gamma
            pole = omega_c**2 / (4.0 * two_photon) - delta - 0.5j * m.gamma3

            self_closed = -(m.alpha_s * m.gamma3 / 8.0) * avg_lower(pole)
            self_trap = sfwm.doppler_average(lambda w: sfwm.self_chi(delta, w, m, d), m)
            assert abs(self_trap - self_closed) / abs(self_closed) < 1e-6

            pump_pole = d.delta_p + 0.5j * m.gamma4
            pref = np.sqrt(m.alpha_as * m.alpha_s) * np.sqrt(m.gamma3 * m.gamma4) / 4.0
            front = -pref * d.omega_p * omega_c / (4.0 * two_photon)
            cross_closed = front / (pump_pole - pole) * (
                avg_lower(pole) - avg_upper(pump_pole)
            )
            cross_trap = sfwm.doppler_average(lambda w: sfwm.cross_chi(delta, w, m, d), m)
            assert abs(cross_trap - cross_closed) / abs(cross_closed) < 1e-6

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            sfwm.doppler_average(lambda w: np.full(w.shape, np.nan), medium())


class TestFaddeeva:
    """The numpy Faddeeva function against scipy.special.wofz as the oracle."""

    def test_upper_half_plane_accuracy(self):
        rng = np.random.default_rng(5)
        n = 100_000
        # Log-uniform magnitudes over the whole domain, plus a dense patch
        # where the function has structure: |Re z| <= 10 near the real axis.
        x = 10.0 ** rng.uniform(-12.0, 12.0, n) * rng.choice([-1.0, 1.0], n)
        y = 10.0 ** rng.uniform(-10.0, 12.0, n)
        x[: n // 4] = rng.uniform(-10.0, 10.0, n // 4)
        y[: n // 4] = 10.0 ** rng.uniform(-10.0, 1.0, n // 4)
        z = x + 1j * y
        ref = wofz(z)
        assert np.max(np.abs(_faddeeva(z) - ref) / np.abs(ref)) < 1e-12

    def test_arguments_of_the_doppler_average(self, medium_a, drive_a, medium_b, drive_b):
        """Every pole the exact average passes, at both conftest parameter sets."""
        delta = sfwm.SpectralGrid().delta
        for m, d in ((medium_a, drive_a), (medium_b, drive_b)):
            pole = d.omega_c**2 / (4.0 * (delta + 1j * m.gamma)) - delta - 0.5j * m.gamma3
            z = -pole / m.gamma_doppler
            assert np.max(np.abs(_faddeeva(z) / wofz(z) - 1.0)) < 1e-12


class TestTransmissionGradient:
    """The exact transmission kernel, which is also the EIT fit's model: T
    and its analytic gradient in (omega_c^2, gamma)."""

    @staticmethod
    def transmission(delta, square, gamma):
        """T from the averaged pair responses, a path apart from the model's."""
        m = medium(alpha_s=80.0, gamma=gamma)
        _, self_ = _averaged_pair(delta, m, sfwm.DriveParams(omega_c=np.sqrt(square)))
        return np.exp(-4.0 * self_.imag)

    @staticmethod
    def model(delta, square, gamma):
        m = medium(alpha_s=80.0, gamma=gamma)
        return _transmission_raw(delta, m.alpha_s, m.gamma, m.gamma_doppler, m.gamma3, square)

    @pytest.mark.parametrize("omega_c, gamma", [(2.6, 0.028), (0.65, 0.024), (0.05, 0.3)])
    def test_against_eit_transmission_and_central_differences(self, omega_c, gamma):
        delta = np.linspace(-2.0, 2.0, 241)
        square = omega_c**2
        t, gradient = self.model(delta, square, gamma)
        np.testing.assert_allclose(t, self.transmission(delta, square, gamma), rtol=1e-13)
        for analytic, h, shift in zip(gradient(), (1e-4 * square, 1e-4 * gamma),
                                      ((1.0, 0.0), (0.0, 1.0))):
            up = self.transmission(delta, square + h * shift[0], gamma + h * shift[1])
            down = self.transmission(delta, square - h * shift[0], gamma - h * shift[1])
            central = (up - down) / (2.0 * h)
            assert np.max(np.abs(analytic - central)) < 1e-6 * np.max(np.abs(central))

    def test_coupling_off(self):
        """On the bound omega_c = 0 the slope in omega_c^2 is finite and the
        one in gamma vanishes."""
        delta = np.linspace(-2.0, 2.0, 241)
        t, gradient = self.model(delta, 0.0, 0.03)
        np.testing.assert_allclose(t, self.transmission(delta, 0.0, 0.03), rtol=1e-13)
        d_square, d_gamma = gradient()
        h = 1e-7
        forward = (self.transmission(delta, h, 0.03) - t) / h
        assert np.max(np.abs(d_square - forward)) < 1e-5 * np.max(np.abs(forward))
        assert np.all(d_gamma == 0.0)

    def test_small_decoherence_at_two_photon_resonance(self):
        """|u| grows as 1/gamma at delta = 0, where the slope comes from the
        asymptotic series; it must still match the differences."""
        delta = np.array([0.0])
        for gamma in (1e-9, 1e-6, 1e-3):
            _, gradient = self.model(delta, 2.6**2, gamma)
            h = 0.1 * gamma  # T is close to exp(-c*gamma) there
            central = (self.transmission(delta, 2.6**2, gamma + h)
                       - self.transmission(delta, 2.6**2, gamma - h)) / (2.0 * h)
            np.testing.assert_allclose(gradient()[1], central, rtol=1e-5)


class TestTransmission:
    def test_ideal_eit_is_fully_transparent(self):
        m = medium(gamma=0.0)
        assert sfwm.eit_transmission(0.0, m, sfwm.DriveParams(omega_c=1.0)) == 1.0

    def test_coupling_off_baseline_regression(self):
        t = sfwm.eit_transmission(0.0, medium(gamma=0.31), sfwm.DriveParams(omega_c=0.0))
        assert t == pytest.approx(BASELINE_T_82, rel=1e-8)

    def test_coupling_off_two_photon_resonance_is_finite(self):
        """At omega_c = gamma = delta = 0 the two-photon factor cancels and the
        two-level absorption remains; it is the limit of nearby detunings."""
        m = medium(gamma=0.0)
        d = sfwm.DriveParams(omega_c=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = sfwm.eit_transmission(0.0, m, d)
        assert t == pytest.approx(sfwm.eit_transmission(1e-9, m, d), rel=1e-6)
        assert 0.0 < t < 1.0

    def test_coupling_off_two_photon_resonance_on_trapezoid_path(self):
        """The quadrature integrand has the same two-level limit as the exact path."""
        m = sfwm.MediumParams(82.0, 0.0)
        d = sfwm.DriveParams(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = sfwm.eit_transmission(0.0, m, d, sfwm.DopplerQuadrature())
        assert np.isfinite(t)
        assert t == pytest.approx(sfwm.eit_transmission(0.0, m, d), rel=1e-7)

    def test_far_detuned_transparency(self):
        t = sfwm.eit_transmission(500.0, medium(), sfwm.DriveParams(omega_c=1.0))
        assert t > 0.99

    def test_bounded_on_random_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            m = sfwm.MediumParams(
                alpha_s=rng.uniform(1, 150), gamma=rng.uniform(0, 0.2)
            )
            d = sfwm.DriveParams(omega_c=rng.uniform(0, 5))
            t = sfwm.eit_transmission(rng.uniform(-10, 10), m, d)
            assert 0.0 < t <= 1.0

    def test_baseline_decreases_with_optical_depth(self):
        rng = np.random.default_rng(3)
        d = sfwm.DriveParams(omega_c=0.0)
        for _ in range(20):
            lo = rng.uniform(5, 80)
            hi = lo + rng.uniform(1, 60)
            gamma = rng.uniform(0, 0.1)
            t_lo = sfwm.eit_transmission(0.0, medium(alpha_s=lo, gamma=gamma), d)
            t_hi = sfwm.eit_transmission(0.0, medium(alpha_s=hi, gamma=gamma), d)
            assert t_hi < t_lo

    def test_matches_scalar_evaluation(self, medium_a, drive_a):
        grid = np.linspace(-1, 1, 7)
        vector = sfwm.eit_transmission(grid, medium_a, drive_a)
        scalars = [sfwm.eit_transmission(x, medium_a, drive_a) for x in grid]
        np.testing.assert_allclose(vector, scalars, rtol=1e-13)

    def test_quadrature_step_convergence(self, medium_a, drive_a, medium_b, drive_b):
        """Halving the Doppler step moves the transmission by < 1e-3 everywhere."""
        grid = np.linspace(-2, 2, 101)
        fine = sfwm.DopplerQuadrature(step=0.0625)
        for m, d in ((medium_a, drive_a), (medium_b, drive_b)):
            base = sfwm.eit_transmission(grid, m, d, sfwm.DopplerQuadrature())
            refined = sfwm.eit_transmission(grid, m, d, fine)
            assert np.max(np.abs(refined - base) / base) < 1e-3


class TestSpectrum:
    def test_strong_coupling_width(self, medium_a, drive_a):
        s = sfwm.eit_spectrum(np.linspace(-2, 2, 1601), medium_a, drive_a)
        assert sfwm.spectrum_fwhm(s) == pytest.approx(560e3, rel=0.10)

    def test_weak_coupling_width(self, medium_b, drive_b):
        s = sfwm.eit_spectrum(np.linspace(-2, 2, 1601), medium_b, drive_b)
        assert sfwm.spectrum_fwhm(s) == pytest.approx(300e3, rel=0.10)

    def test_no_coupling_means_no_window(self, medium_b):
        # Narrow scan so the slow Doppler curvature of the background stays
        # below the comparison threshold; no transparency feature appears.
        s = sfwm.eit_spectrum(np.linspace(-0.1, 0.1, 401), medium_b, sfwm.DriveParams(omega_c=0.0))
        assert s.transmission.max() - sfwm.spectrum_baseline(s) < 1e-6
        wide = sfwm.eit_spectrum(np.linspace(-2, 2, 401), medium_b, sfwm.DriveParams(omega_c=0.0))
        with pytest.raises(PeakShapeError):
            sfwm.spectrum_fwhm(wide)

    def test_low_power_width_approaches_decoherence_limit(self, medium_b):
        """Well below saturation the window width tends to gamma/pi in Hz."""
        s = sfwm.eit_spectrum(np.linspace(-1, 1, 1601), medium_b, sfwm.DriveParams(omega_c=0.2))
        limit_hz = 2.0 * medium_b.gamma * sfwm.GAMMA_HZ
        assert sfwm.spectrum_fwhm(s) == pytest.approx(limit_hz, rel=0.15)

    def test_empty_grid_rejected(self, medium_a, drive_a):
        with pytest.raises(UsageError):
            sfwm.eit_spectrum(np.array([]), medium_a, drive_a)

    def test_unsorted_grid_rejected(self, medium_a, drive_a):
        with pytest.raises(UsageError):
            sfwm.eit_spectrum(np.array([0.0, -1.0, 1.0]), medium_a, drive_a)

    def test_fwhm_of_synthetic_lorentzian(self):
        # 1 MHz FWHM peak on a flat baseline, in Gamma units (1 MHz = 1/6 Gamma).
        delta = np.linspace(-2, 2, 4001)
        width = 1e6 / sfwm.GAMMA_HZ
        peak = 0.5 * (width / 2) ** 2 / (delta**2 + (width / 2) ** 2)
        s = sfwm.Spectrum(delta, 0.3 + peak)
        assert sfwm.spectrum_fwhm(s) == pytest.approx(1e6, rel=5e-3)

    def test_fwhm_needs_a_peak(self):
        s = sfwm.Spectrum(np.linspace(-1, 1, 101), np.full(101, 0.4))
        with pytest.raises(PeakShapeError):
            sfwm.spectrum_fwhm(s)
