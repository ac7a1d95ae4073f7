import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import wofz

import sfwm
from sfwm.errors import DomainError, PeakShapeError, UsageError
from sfwm.biphoton import _grid_delta
from sfwm.physics import (
    _FADDEEVA_CHUNK, MAX_NODES, MIN_WIDTH_POINTS, _averaged_pair, _faddeeva, _transmission,
)

from oracles import _chi_pair_raw, doppler_average, faddeeva_horner, raw_pair_average, walking_fwhm

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

    @pytest.mark.parametrize(
        "q, m",
        [
            (sfwm.DopplerQuadrature(), medium()),
            (sfwm.DopplerQuadrature(step=sfwm.units.frequency_from_hz(1.5e6)), medium()),
            (sfwm.DopplerQuadrature(half_range=5.0, step=0.0625), medium()),
            (sfwm.DopplerQuadrature(step=0.125), medium(gamma_doppler=200.0 / 6.0)),
            (sfwm.DopplerQuadrature(half_range=4.3, step=0.17), medium(gamma_doppler=61.7)),
        ],
        ids=["default", "1.5 MHz", "fine", "200 MHz Doppler", "no integer ratio"],
    )
    def test_nodes_are_symmetric(self, q, m):
        """Exactly, as the half-grid mirror of the trapezoid needs; where
        half_range*gamma_doppler/step is an integer the nodes are those of
        np.arange over +-half_range*gamma_doppler."""
        x = q.nodes(m)
        assert np.array_equal(x[::-1], -x) and x[x.size // 2] == 0.0
        lim = q.half_range * m.gamma_doppler
        assert x[-1] <= lim < x[-1] + q.step
        if (lim / q.step).is_integer():
            assert np.array_equal(x, np.arange(-lim, lim + 0.5 * q.step, q.step))

    def test_node_bound(self):
        """MAX_NODES - 1 nodes are built; MAX_NODES + 1 are refused before
        any node array is, also by a spectrum of one detuning."""
        m = medium()
        lim = 4.0 * m.gamma_doppler
        below = sfwm.DopplerQuadrature(step=lim / (MAX_NODES // 2 - 1))
        assert below.nodes(m).size == MAX_NODES - 1
        over = sfwm.DopplerQuadrature(step=lim / (MAX_NODES // 2))
        message = f"needs {MAX_NODES + 1} nodes, more than {MAX_NODES}"
        with pytest.raises(UsageError, match=message):
            over.nodes(m)
        with pytest.raises(UsageError, match=message):
            sfwm.eit_transmission(0.0, m, sfwm.DriveParams(omega_c=2.6), over)
        with pytest.raises(UsageError, match="needs inf nodes"):
            sfwm.DopplerQuadrature(step=5e-324).weights(m)


class TestCrossChi:
    def test_zero_pump_gives_zero(self):
        d = sfwm.DriveParams(omega_c=2.6, omega_p=0.0)
        assert _chi_pair_raw(0.3, -1.2, medium(), d)[0] == 0.0

    def test_regression_against_high_precision_value(self):
        d = sfwm.DriveParams(omega_c=2.7, omega_p=2.0, delta_p=-333.3)
        value = _chi_pair_raw(0.0, 0.0, medium(), d)[0]
        assert value.real == pytest.approx(CROSS_REF.real, rel=1e-13)
        assert value.imag == pytest.approx(CROSS_REF.imag, rel=1e-13)

    def test_exactly_linear_in_pump(self):
        m = medium()
        d1 = sfwm.DriveParams(omega_c=2.7, omega_p=1.3)
        d2 = sfwm.DriveParams(omega_c=2.7, omega_p=2.6)
        assert _chi_pair_raw(0.2, 3.0, m, d1)[0] * 2.0 == _chi_pair_raw(0.2, 3.0, m, d2)[0]


class TestSelfChi:
    def test_vanishes_on_resonance_without_decoherence(self):
        m = medium(gamma=0.0)
        assert _chi_pair_raw(0.0, 1.0, m, sfwm.DriveParams(omega_c=2.0))[1] == 0.0

    def test_regression_against_high_precision_value(self):
        value = _chi_pair_raw(0.01, 0.0, medium(), sfwm.DriveParams(omega_c=0.65))[1]
        assert value.real == pytest.approx(SELF_REF.real, rel=1e-13)
        assert value.imag == pytest.approx(SELF_REF.imag, rel=1e-13)

    def test_strong_coupling_suppression(self):
        m = medium()
        weak = _chi_pair_raw(0.01, 0.0, m, sfwm.DriveParams(omega_c=1.0))[1]
        strong = _chi_pair_raw(0.01, 0.0, m, sfwm.DriveParams(omega_c=1e3))[1]
        assert abs(strong) < 1e-4 * abs(weak)

    def test_independent_of_pump_parameters(self):
        m = medium()
        d_a = sfwm.DriveParams(omega_c=1.5, omega_p=0.1, delta_p=-100.0)
        d_b = sfwm.DriveParams(omega_c=1.5, omega_p=9.0, delta_p=40.0)
        a = _chi_pair_raw(0.3, -2.0, m, d_a)[1]
        b = _chi_pair_raw(0.3, -2.0, m, d_b)[1]
        assert a == b


class TestDopplerAverage:
    def test_constant(self):
        value = doppler_average(lambda w: np.full(w.shape, 3.7 + 0.4j), medium())
        assert value == pytest.approx(3.7 + 0.4j, rel=1e-6)

    def test_second_moment(self):
        m = medium()
        value = doppler_average(lambda w: w**2 + 0j, m)
        assert value.real == pytest.approx(m.gamma_doppler**2 / 2.0, rel=1e-4)

    def test_against_adaptive_quadrature_oracle(self, medium_b, drive_b):
        """Trapezoid vs scipy.integrate.quad on the weak-coupling self response."""
        gd = medium_b.gamma_doppler

        def gauss(w):
            return np.exp(-((w / gd) ** 2)) / (np.sqrt(np.pi) * gd)

        def component(part):
            val, err = quad(
                lambda w: gauss(w) * part(_chi_pair_raw(0.01, w, medium_b, drive_b)[1]),
                -np.inf,
                np.inf,
                epsabs=1e-10,
                epsrel=1e-10,
                limit=400,
            )
            assert err < 1e-8
            return val

        oracle = component(np.real) + 1j * component(np.imag)
        trap = doppler_average(lambda w: _chi_pair_raw(0.01, w, medium_b, drive_b)[1], medium_b)
        assert abs(trap - oracle) / abs(oracle) < 1e-3

    def test_linearity(self):
        m = medium()
        f = lambda w: 1.0 / (w + 10.0 + 2j)
        g = lambda w: np.exp(1j * w / 40.0)
        combined = doppler_average(lambda w: 2.5 * f(w) - 1.5j * g(w), m)
        split = 2.5 * doppler_average(f, m) - 1.5j * doppler_average(g, m)
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
            self_trap = doppler_average(lambda w: _chi_pair_raw(delta, w, m, d)[1], m)
            assert abs(self_trap - self_closed) / abs(self_closed) < 1e-6

            pump_pole = d.delta_p + 0.5j * m.gamma4
            pref = np.sqrt(m.alpha_as * m.alpha_s) * np.sqrt(m.gamma3 * m.gamma4) / 4.0
            front = -pref * d.omega_p * omega_c / (4.0 * two_photon)
            cross_closed = front / (pump_pole - pole) * (
                avg_lower(pole) - avg_upper(pump_pole)
            )
            cross_trap = doppler_average(lambda w: _chi_pair_raw(delta, w, m, d)[0], m)
            assert abs(cross_trap - cross_closed) / abs(cross_closed) < 1e-6

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            doppler_average(lambda w: np.full(w.shape, np.nan), medium())


def faddeeva_domain(n, seed):
    """n points of the upper half plane: log-uniform magnitudes over
    |Re z| <= 1e12, 1e-10 <= Im z <= 1e12, plus a dense patch where the
    function has structure, |Re z| <= 10 near the real axis."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-12.0, 12.0, n) * rng.choice([-1.0, 1.0], n)
    y = 10.0 ** rng.uniform(-10.0, 12.0, n)
    x[: n // 4] = rng.uniform(-10.0, 10.0, n // 4)
    y[: n // 4] = 10.0 ** rng.uniform(-10.0, 1.0, n // 4)
    return x + 1j * y


def assert_close_to_horner(z):
    w, ref = _faddeeva(z), faddeeva_horner(z)
    assert w.shape == z.shape and w.dtype == complex
    if z.size:
        assert np.max(np.abs(w - ref) / np.abs(ref)) < 1e-14


class TestFaddeeva:
    """The numpy Faddeeva function against scipy.special.wofz as the oracle,
    and its block evaluation against Horner's rule over the same
    coefficients."""

    def test_upper_half_plane_accuracy(self):
        z = faddeeva_domain(100_000, 5)
        ref = wofz(z)
        assert np.max(np.abs(_faddeeva(z) - ref) / np.abs(ref)) < 1e-12

    def test_block_form_against_horner(self):
        assert_close_to_horner(faddeeva_domain(100_000, 6))

    @pytest.mark.parametrize("size", [0, 1, 2, _FADDEEVA_CHUNK - 1, _FADDEEVA_CHUNK,
                                      _FADDEEVA_CHUNK + 1, 3 * _FADDEEVA_CHUNK + 5])
    def test_sizes_around_the_chunk(self, size):
        assert_close_to_horner(faddeeva_domain(size, size))

    def test_two_dimensional_argument(self):
        assert_close_to_horner(faddeeva_domain(3 * 1001, 8).reshape(3, 1001))
        assert_close_to_horner(faddeeva_domain(3 * 1001, 8).reshape(1001, 3).T)

    def test_chunks_are_independent(self):
        """A call equals calls on its chunk-sized pieces, bit for bit."""
        z = faddeeva_domain(3 * _FADDEEVA_CHUNK + 5, 9)
        pieces = [_faddeeva(z[i : i + _FADDEEVA_CHUNK]) for i in range(0, z.size, _FADDEEVA_CHUNK)]
        assert np.array_equal(_faddeeva(z), np.concatenate(pieces))

    @pytest.mark.parametrize("size", [5, 3 * _FADDEEVA_CHUNK + 5])
    def test_argument_untouched_and_result_fresh(self, size):
        z = faddeeva_domain(size, 10)
        before = z.copy()
        first, second = _faddeeva(z), _faddeeva(z)
        assert np.array_equal(z, before)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, z) and not np.shares_memory(second, z)

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

    # Every fifth sample of the grid: 241 detunings over +-2 Gamma, with
    # delta = 0 at index 120.
    GRID = sfwm.SpectralGrid(half_width=2.0, count=1201)
    DELTA = GRID.delta[::5]

    @classmethod
    def transmission(cls, square, gamma):
        """T on DELTA from the averaged pair responses, a path apart from the
        model's."""
        m = medium(alpha_s=80.0, gamma=gamma)
        d = sfwm.DriveParams(omega_c=np.sqrt(square))
        _, self_ = sfwm.averaged_susceptibilities(cls.GRID, m, d, None)
        return np.exp(-4.0 * self_[::5].imag)

    @staticmethod
    def model(delta, square, gamma):
        m = medium(alpha_s=80.0, gamma=gamma)
        return _transmission(delta, m.alpha_s, m.gamma, square, m, None)

    @pytest.mark.parametrize("omega_c, gamma", [(2.6, 0.028), (0.65, 0.024), (0.05, 0.3)])
    def test_against_eit_transmission_and_central_differences(self, omega_c, gamma):
        square = omega_c**2
        t, gradient = self.model(self.DELTA, square, gamma)
        np.testing.assert_allclose(t, self.transmission(square, gamma), rtol=1e-13)
        for analytic, h, shift in zip(gradient(), (1e-4 * square, 1e-4 * gamma),
                                      ((1.0, 0.0), (0.0, 1.0))):
            up = self.transmission(square + h * shift[0], gamma + h * shift[1])
            down = self.transmission(square - h * shift[0], gamma - h * shift[1])
            central = (up - down) / (2.0 * h)
            assert np.max(np.abs(analytic - central)) < 1e-6 * np.max(np.abs(central))

    @pytest.mark.parametrize("omega_c", [2.6, 0.0])
    def test_dark_point(self, omega_c):
        """Without decoherence delta = 0 is the dark point of the pole: with
        the coupling on both paths give T = 1 exactly there, and with it off
        the two-level absorption."""
        t, _ = self.model(self.DELTA, omega_c**2, 0.0)
        np.testing.assert_allclose(t, self.transmission(omega_c**2, 0.0), rtol=1e-13)
        if omega_c:
            assert t[120] == 1.0
        else:
            assert 0.0 < t[120] < 1.0

    def test_coupling_off(self):
        """On the bound omega_c = 0 the slope in omega_c^2 is finite and the
        one in gamma vanishes."""
        t, gradient = self.model(self.DELTA, 0.0, 0.03)
        np.testing.assert_allclose(t, self.transmission(0.0, 0.03), rtol=1e-13)
        d_square, d_gamma = gradient()
        h = 1e-7
        forward = (self.transmission(h, 0.03) - t) / h
        assert np.max(np.abs(d_square - forward)) < 1e-5 * np.max(np.abs(forward))
        assert np.all(d_gamma == 0.0)

    def test_small_decoherence_at_two_photon_resonance(self):
        """|u| grows as 1/gamma at delta = 0, where the slope comes from the
        asymptotic series; it must still match the differences."""
        delta = self.DELTA[120:121]
        assert delta[0] == 0.0
        for gamma in (1e-9, 1e-6, 1e-3):
            _, gradient = self.model(delta, 2.6**2, gamma)
            h = 0.1 * gamma  # T is close to exp(-c*gamma) there
            central = (self.transmission(2.6**2, gamma + h)[120]
                       - self.transmission(2.6**2, gamma - h)[120]) / (2.0 * h)
            np.testing.assert_allclose(gradient()[1], central, rtol=1e-5)


class TestTransmission:
    def test_ideal_eit_is_fully_transparent(self):
        m = medium(gamma=0.0)
        assert sfwm.eit_transmission(0.0, m, sfwm.DriveParams(omega_c=1.0), None) == 1.0

    def test_coupling_off_baseline_regression(self):
        t = sfwm.eit_transmission(0.0, medium(gamma=0.31), sfwm.DriveParams(omega_c=0.0), None)
        assert t == pytest.approx(BASELINE_T_82, rel=1e-8)

    def test_coupling_off_two_photon_resonance_is_finite(self):
        """At omega_c = gamma = delta = 0 the two-photon factor cancels and the
        two-level absorption remains; it is the limit of nearby detunings."""
        m = medium(gamma=0.0)
        d = sfwm.DriveParams(omega_c=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = sfwm.eit_transmission(0.0, m, d, None)
        assert t == pytest.approx(sfwm.eit_transmission(1e-9, m, d, None), rel=1e-6)
        assert 0.0 < t < 1.0

    def test_coupling_off_two_photon_resonance_on_trapezoid_path(self):
        """The quadrature integrand has the same two-level limit as the exact path."""
        m = sfwm.MediumParams(82.0, 0.0)
        d = sfwm.DriveParams(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = sfwm.eit_transmission(0.0, m, d, sfwm.DopplerQuadrature())
        assert np.isfinite(t)
        assert t == pytest.approx(sfwm.eit_transmission(0.0, m, d, None), rel=1e-7)

    def test_far_detuned_transparency(self):
        t = sfwm.eit_transmission(500.0, medium(), sfwm.DriveParams(omega_c=1.0), None)
        assert t > 0.99

    def test_bounded_on_random_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            m = sfwm.MediumParams(
                alpha_s=rng.uniform(1, 150), gamma=rng.uniform(0, 0.2)
            )
            d = sfwm.DriveParams(omega_c=rng.uniform(0, 5))
            t = sfwm.eit_transmission(rng.uniform(-10, 10), m, d, None)
            assert 0.0 < t <= 1.0

    def test_baseline_decreases_with_optical_depth(self):
        rng = np.random.default_rng(3)
        d = sfwm.DriveParams(omega_c=0.0)
        for _ in range(20):
            lo = rng.uniform(5, 80)
            hi = lo + rng.uniform(1, 60)
            gamma = rng.uniform(0, 0.1)
            t_lo = sfwm.eit_transmission(0.0, medium(alpha_s=lo, gamma=gamma), d, None)
            t_hi = sfwm.eit_transmission(0.0, medium(alpha_s=hi, gamma=gamma), d, None)
            assert t_hi < t_lo

    def test_matches_scalar_evaluation(self, medium_a, drive_a):
        grid = np.linspace(-1, 1, 7)
        vector = sfwm.eit_transmission(grid, medium_a, drive_a, None)
        scalars = [sfwm.eit_transmission(x, medium_a, drive_a, None) for x in grid]
        np.testing.assert_allclose(vector, scalars, rtol=1e-13)

    # SpectralGrid's detunings over +-2 Gamma at 401 samples, below its
    # 1024-sample floor; _averaged_pair is what averaged_susceptibilities
    # returns on them.
    PROPERTY_DELTA = _grid_delta(2.0, 401)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        alpha_s=st.floats(1.0, 200.0),
        gamma=st.floats(1e-3, 0.5),
        omega_c=st.floats(0.0, 5.0),
        gamma_doppler=st.floats(20.0, 100.0),
        q=st.sampled_from([None, sfwm.DopplerQuadrature(4.0, 0.125)]),
    )
    def test_one_path_under_either_rule(self, alpha_s, gamma, omega_c, gamma_doppler, q):
        """T against exp(-4*Im Z) with Z from the pair average, which takes
        the same mean on half the detunings and mirrors it; a (200, 2) array and scalar calls
        give the same values.  Under the exact rule, from gamma = 0.01 and
        omega_c = 0.1 on (below, the steps' rounding swamps the slopes), the
        fit's gradient matches central differences of exp(-4*Im Z) within
        1e-6 of their largest value."""
        delta = self.PROPERTY_DELTA

        def pair_transmission(square, g):
            m = sfwm.MediumParams(alpha_s=alpha_s, gamma=g, gamma_doppler=gamma_doppler)
            _, self_ = _averaged_pair(delta, m, sfwm.DriveParams(np.sqrt(square)), q)
            return np.exp(-4.0 * self_.imag)

        m = sfwm.MediumParams(alpha_s=alpha_s, gamma=gamma, gamma_doppler=gamma_doppler)
        d = sfwm.DriveParams(omega_c=omega_c)
        t = sfwm.eit_transmission(delta, m, d, q)
        square = omega_c**2
        np.testing.assert_allclose(t, pair_transmission(square, gamma), rtol=1e-12, atol=0.0)
        block = sfwm.eit_transmission(delta[:400].reshape(200, 2), m, d, q)
        assert np.array_equal(block, t[:400].reshape(200, 2))
        scalars = [sfwm.eit_transmission(x, m, d, q) for x in delta[::10]]
        np.testing.assert_allclose(scalars, t[::10], rtol=1e-13, atol=0.0)
        if q is not None or gamma < 0.01 or omega_c < 0.1:
            return
        _, gradient = _transmission(delta, alpha_s, gamma, square, m, None)
        for analytic, h, shift in zip(gradient(), (1e-4 * square, 1e-4 * gamma),
                                      ((1.0, 0.0), (0.0, 1.0))):
            up = pair_transmission(square + h * shift[0], gamma + h * shift[1])
            down = pair_transmission(square - h * shift[0], gamma - h * shift[1])
            central = (up - down) / (2.0 * h)
            assert np.max(np.abs(analytic - central)) <= 1e-6 * np.max(np.abs(central))

    @pytest.mark.parametrize("omega_c, gamma", [(2.6, 0.028), (0.65, 0.024), (0.0, 0.028),
                                                (2.6, 0.0), (0.0, 0.0)])
    def test_trapezoid_matches_the_raw_integrand_sum(self, omega_c, gamma):
        """On detunings neither sorted nor symmetric, with delta = 0 (the
        dark point at gamma = 0): T from the trapezoid mean of the self pole
        against T from the raw self integrand summed over the same nodes.
        A 2-D array gives the same values in its shape."""
        delta = np.array([0.3, -2.0, 0.0, 1e-3, 17.5, -0.04, 250.0, -0.3])
        m, d = sfwm.MediumParams(80.0, gamma), sfwm.DriveParams(omega_c)
        q = sfwm.DopplerQuadrature(step=0.25)
        expected = np.exp(-4.0 * raw_pair_average(delta, m, d, q)[1].imag)
        t = sfwm.eit_transmission(delta, m, d, q)
        np.testing.assert_allclose(t, expected, rtol=1e-13)
        assert np.array_equal(sfwm.eit_transmission(delta.reshape(2, 4), m, d, q), t.reshape(2, 4))

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

    @pytest.mark.parametrize(
        "delta",
        [[], [0.0, -1.0, 1.0], [-1.0, 0.0, 0.0, 1.0], [-1.0, np.nan, 1.0], [-np.inf, 0.0, 1.0]],
        ids=["empty", "unsorted", "repeated", "nan", "inf"],
    )
    def test_spectrum_rejects_a_bad_detuning_grid(self, delta):
        """Baseline and width read the outermost samples as the outermost
        detunings, so a Spectrum's detunings are non-empty, finite and
        strictly increasing."""
        with pytest.raises(UsageError, match="detuning grid"):
            sfwm.Spectrum(delta, np.full(len(delta), 0.5))

    def test_spectrum_is_read_only(self):
        """It holds read-only copies: the caller's arrays stay writable and
        unchanged, and neither a write into the spectrum's arrays nor an
        attribute assignment goes through."""
        delta, transmission = np.linspace(-1, 1, 5), np.full(5, 0.5)
        s = sfwm.Spectrum(delta, transmission)
        assert delta.flags.writeable and transmission.flags.writeable
        assert not np.shares_memory(s.delta, delta)
        assert not np.shares_memory(s.transmission, transmission)
        for array in (s.delta, s.transmission):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        for name in ("delta", "transmission"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, getattr(s, name))
        transmission[0] = 0.9
        assert s.transmission[0] == 0.5 and np.array_equal(delta, np.linspace(-1, 1, 5))
        # A deep copy or an unpickled spectrum had writable arrays.
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert np.array_equal(twin.transmission, s.transmission)
            assert not (twin.delta.flags.writeable or twin.transmission.flags.writeable)

    def test_spectrum_rejects_mismatched_lengths(self):
        with pytest.raises(UsageError, match="lengths differ"):
            sfwm.Spectrum(np.linspace(-1, 1, 5), np.full(4, 0.5))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_fwhm_needs_a_half_height_crossing_on_each_side(self, side):
        """A peak on the scan's edge never falls to half height on that side."""
        t = np.linspace(1.0, 0.0, 101)
        s = sfwm.Spectrum(np.linspace(-1, 1, 101), t if side == "left" else t[::-1])
        with pytest.raises(PeakShapeError, match=f"half height on the {side}"):
            sfwm.spectrum_fwhm(s)

    def test_fwhm_of_synthetic_lorentzian(self):
        # 1 MHz FWHM peak on a flat baseline, in Gamma units (1 MHz = 1/6 Gamma).
        delta = np.linspace(-2, 2, 4001)
        width = 1e6 / sfwm.GAMMA_HZ
        peak = 0.5 * (width / 2) ** 2 / (delta**2 + (width / 2) ** 2)
        s = sfwm.Spectrum(delta, 0.3 + peak)
        assert sfwm.spectrum_fwhm(s) == pytest.approx(1e6, rel=5e-3)

    def test_fwhm_needs_min_width_points(self):
        """A peak of MIN_WIDTH_POINTS samples has a width; one sample fewer is
        a usage error."""
        t = np.full(MIN_WIDTH_POINTS, 0.3)
        t[MIN_WIDTH_POINTS // 2] = 0.8
        assert sfwm.spectrum_fwhm(sfwm.Spectrum(np.linspace(-1, 1, MIN_WIDTH_POINTS), t)) > 0.0
        with pytest.raises(UsageError, match="too short"):
            sfwm.spectrum_fwhm(sfwm.Spectrum(np.linspace(-1, 1, MIN_WIDTH_POINTS - 1), t[1:]))

    @pytest.mark.parametrize(
        "index, value",
        [("peak", np.nan), (0, np.nan), (-1, np.nan), (150, np.inf), (150, -np.inf)],
        ids=["nan at peak", "nan at left edge", "nan at right edge", "inf", "-inf"],
    )
    def test_nonfinite_transmission_is_usage_error(self, medium_a, drive_a, index, value):
        """One non-finite sample gave a width of -120 kHz (inf) or nan; now
        the spectrum refuses it when it is built, and cannot take it later."""
        s = sfwm.eit_spectrum(np.linspace(-2, 2, 401), medium_a, drive_a)
        k = int(np.argmax(s.transmission)) if index == "peak" else index
        transmission = s.transmission.copy()
        transmission[k] = value
        with pytest.raises(UsageError, match="spectrum transmissions must be finite"):
            sfwm.Spectrum(s.delta, transmission)
        with pytest.raises(ValueError, match="read-only"):
            s.transmission[k] = value

    @pytest.mark.parametrize("transmission", [
        [-1e308, -1e308, 1e308, -1e308, -1e308, -1e308],  # the two means' sum
        [1.7e308] * 40,  # each edge's sum
    ])
    def test_transmissions_past_1e150_are_usage_error(self, transmission):
        """Sums past the largest float made the baseline -inf or inf, and
        the first spectrum gave a width of 4.8 MHz, np.interp's slope having
        overflowed.  The same shape at 1e150 has the interpolated width."""
        with pytest.raises(UsageError, match="at most 1e\\+150 in magnitude"):
            sfwm.Spectrum(np.linspace(-1, 1, len(transmission)), transmission)
        limit = np.array([-1.0, -1.0, 1.0, -1.0, -1.0, -1.0]) * 1e150
        assert sfwm.spectrum_fwhm(sfwm.Spectrum(np.linspace(-1, 1, 6), limit)) == pytest.approx(
            2.4e6, rel=1e-12
        )

    def test_fwhm_needs_a_peak(self):
        s = sfwm.Spectrum(np.linspace(-1, 1, 101), np.full(101, 0.4))
        with pytest.raises(PeakShapeError):
            sfwm.spectrum_fwhm(s)

    def test_no_peak_message_shows_tiny_values(self):
        """An opaque medium transmits about 1e-200; the message prints it,
        not zeros."""
        t = np.full(101, 2e-200)
        t[50] = 3e-200
        with pytest.raises(PeakShapeError, match=r"peak 3e-200, baseline 2e-200"):
            sfwm.spectrum_fwhm(sfwm.Spectrum(np.linspace(-1, 1, 101), t))


_LEVELS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])  # exact ties with half height


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=40))
def test_baseline_is_the_mean_of_the_edge_means(values):
    """Bit-identical to 0.5*(left.mean() + right.mean()), which the
    spectrum's limit on its transmissions keeps finite."""
    t = np.array(values)
    k = max(1, round(0.1 * t.size))
    plain = 0.5 * (t[:k].mean() + t[-k:].mean())
    baseline = sfwm.spectrum_baseline(sfwm.Spectrum(np.linspace(-1.0, 1.0, t.size), t))
    assert baseline == plain


@st.composite
def _peaked(draw):
    """A Lorentzian peak of random center, width and height on a flat
    baseline, with optional noise."""
    n = draw(st.integers(MIN_WIDTH_POINTS, 300))
    delta = np.linspace(-1.0, 1.0, n)
    center, width = draw(st.floats(-1.2, 1.2)), draw(st.floats(1e-3, 2.0))
    peak = draw(st.floats(0.0, 1.0)) / (1.0 + ((delta - center) / width) ** 2)
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    return draw(st.floats(0.0, 0.5)) + peak + draw(st.sampled_from([0.0, 1e-3, 0.05])) * noise


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.lists(_LEVELS | st.floats(0.0, 1.0), min_size=MIN_WIDTH_POINTS, max_size=60).map(np.array),
    _peaked(),
))
# An edge sample exactly at half height is the crossing on its side.
@example(np.array([0.0, 0.25, 0.75, 0.75, 0.5]))
@example(np.array([0.5, 0.75, 0.75, 0.25, 0.0]))
def test_fwhm_matches_the_walking_crossings(t):
    """On finite spectra the index search gives the walking loops' width to
    the bit, or the same PeakShapeError message."""
    s = sfwm.Spectrum(np.linspace(-1.0, 1.0, t.size), t)
    try:
        expected = walking_fwhm(s)
    except PeakShapeError as exc:
        with pytest.raises(PeakShapeError) as raised:
            sfwm.spectrum_fwhm(s)
        assert str(raised.value) == str(exc)
    else:
        assert sfwm.spectrum_fwhm(s) == expected
