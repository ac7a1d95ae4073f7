import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares

import sfwm
from sfwm import analysis, physics
from sfwm.errors import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    InversionError,
    UsageError,
)

from conftest import DELAY_NS, ETALONS, ONSET_NS, exponential_packet
from oracles import masked_fit_windows

# Criterion 7's two round-trip scenarios: (tau ns, peak SBR, accumulation s, power mW).
ROUND_TRIP_SCENARIOS = [(260.0, 42.0, 1200.0, 1.0), (560.0, 5.4, 2400.0, 0.05)]


def poisson_packet(tau_ns, peak_sbr, accumulation_s, p_mw, seed):
    shape = exponential_packet(1.0, tau_ns, span_ns=4000.0)
    dm = sfwm.DetectionModel(accumulation_s=accumulation_s, seed=seed)
    return sfwm.synth_histogram(shape, dm, p_mw, peak_sbr=peak_sbr).to_wavepacket()


def oracle_exponential_fit(w, x0_ns=200.0):
    """(S, tau) of fit_exponential's procedure solved by scipy at 1e-15 tolerances.

    Same baseline window, start guesses, weights and up to three Poisson
    reweighting rounds; the residuals are scaled to order unity because
    scipy's gradient tolerance is absolute.
    """
    t, y = w.tau_ns, w.g2
    base = t <= x0_ns - 2.0 * w.bin_ns
    base[-max(1, t.size // 10):] = True
    y0 = y[base].mean()
    tf, yf = t[t >= x0_ns], y[t >= x0_ns]
    amp0 = max(yf[0] - y0, 0.0)
    below = np.nonzero(yf - y0 < amp0 / math.e)[0]
    tau0 = tf[below[0]] - tf[0] if below.size else (tf[-1] - tf[0]) / 2.0
    p = np.array([amp0, max(tau0, 2.0 * w.bin_ns)])
    sigma = np.sqrt(np.maximum(yf, 1.0))
    for _ in range(3):
        s = sigma
        k = 1.0 / np.abs((yf - y0) / s).max()
        p = least_squares(
            lambda q: k * (y0 + q[0] * np.exp(-(tf - x0_ns) / q[1]) - yf) / s,
            p, bounds=([0.0, 1e-6], [np.inf, np.inf]), x_scale="jac",
            ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=5000,
        ).x
        sigma = np.sqrt(np.maximum(y0 + p[0] * np.exp(-(tf - x0_ns) / p[1]), 1.0))
        if np.allclose(sigma, s, rtol=1e-3):
            break
    return p


def oracle_decay(z, wd, W, tau):
    """(S, tau) minimizing sum(W*(S*exp(-z/tau) - d)^2), with wd = W*d, over
    S >= 0 and tau >= 1e-6: scipy least_squares at 1e-15 tolerances from tau
    and its best S."""
    d, w = wd / W, np.sqrt(W)
    k = 1.0 / np.abs(d * w).max()
    e = np.exp(-z / tau)
    return least_squares(
        lambda q: k * (q[0] * np.exp(-z / q[1]) - d) * w,
        [max(wd @ e, 0.0) / (W @ (e * e)), tau], bounds=([0.0, 1e-6], [np.inf, np.inf]),
        x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=5000,
    ).x


def decay_cost(z, wd, W, amp, tau):
    """The weighted cost sum(W*(S*exp(-z/tau) - d)^2) of one decay solve."""
    r = amp * np.exp(-z / tau) - wd / W
    return float(W @ (r * r))


@pytest.fixture
def decay_solves(monkeypatch):
    """Every weighted problem (z, wd, W, tau0) fit_exponential solves, with the
    tau its solver returns, and the profile evaluations each solve made."""
    solves = []
    solve, profile = analysis._fit_decay, analysis._decay_profile
    evaluations = [0]

    def counted_profile(*args):
        evaluations[0] += 1
        return profile(*args)

    def recorded_solve(z, wd, W, tau):
        before = evaluations[0]
        result = solve(z, wd, W, tau)
        solves.append(((z, wd, W, tau), result[0], evaluations[0] - before))
        return result

    monkeypatch.setattr(analysis, "_decay_profile", counted_profile)
    monkeypatch.setattr(analysis, "_fit_decay", recorded_solve)
    return solves


@pytest.fixture
def eit_solves(monkeypatch):
    """Every stage-2 solve fit_eit makes, as (start, model evaluations,
    result), and the count of all its model evaluations in calls[0]."""
    solves, calls = [], [0]
    solve, model = analysis._solve_2x2, analysis._transmission

    def counted_model(*args):
        calls[0] += 1
        return model(*args)

    def recorded_solve(evaluate, p1, p2, lo1, lo2):
        before = calls[0]
        result = solve(evaluate, p1, p2, lo1, lo2)
        solves.append(((p1, p2), calls[0] - before, result))
        return result

    monkeypatch.setattr(analysis, "_transmission", counted_model)
    monkeypatch.setattr(analysis, "_solve_2x2", recorded_solve)
    return solves, calls


def assert_no_worse_than_oracle(solves):
    """At each solve's tau, with S in closed form, the weighted cost is no
    higher than at the scipy oracle's (S, tau) for the same problem."""
    assert solves
    for (z, wd, W, tau0), tau, _ in solves:
        e = np.exp(-z / tau)
        ours = decay_cost(z, wd, W, max(wd @ e, 0.0) / (W @ (e * e)), tau)
        theirs = decay_cost(z, wd, W, *oracle_decay(z, wd, W, tau0))
        assert ours <= theirs * (1.0 + 1e-12)


def oracle_eit_fit(data, m0, d0):
    """(alpha, omega_c, gamma) of fit_eit's two stages solved by scipy at tight tolerances.

    Same baseline window, coupling-off inversion, start guesses and bounds:
    brentq on the mean edge transmission, then least_squares from that alpha.
    """
    k = max(1, round(0.1 * data.delta.size))
    edge = np.concatenate([data.delta[:k], data.delta[-k:]])
    target = sfwm.spectrum_baseline(data)

    def medium(alpha, gamma):
        return sfwm.MediumParams(alpha, gamma, alpha, m0.gamma_doppler, m0.gamma3, m0.gamma4)

    def drive(omega_c):
        return sfwm.DriveParams(omega_c, d0.omega_p, d0.delta_p)

    alpha = brentq(
        lambda a: np.mean(sfwm.eit_transmission(edge, medium(a, m0.gamma), drive(0.0), None))
        - target,
        1e-6, 1e5, xtol=1e-14, rtol=1e-15, maxiter=500,
    )
    omega_c, gamma = least_squares(
        lambda p: sfwm.eit_transmission(data.delta, medium(alpha, p[1]), drive(p[0]), None)
        - data.transmission,
        [max(d0.omega_c, 1e-3), max(m0.gamma, 1e-4)], bounds=([0.0, 1e-9], [np.inf, np.inf]),
        x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=5000,
    ).x
    return alpha, omega_c, gamma


class TestFitExponential:
    def test_noiseless_model_recovery(self):
        w = exponential_packet(500.0, 260.0, baseline=100.0)
        fit = sfwm.fit_exponential(w)
        assert fit.baseline == pytest.approx(100.0, rel=1e-6)
        assert fit.amplitude == pytest.approx(500.0, rel=1e-6)
        assert fit.tau_ns == pytest.approx(260.0, rel=1e-6)
        assert fit.converged

    def test_noiseless_recovery_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            amp = rng.uniform(10, 1e4)
            tau = rng.uniform(100, 800)
            base = rng.uniform(1, 100)
            w = exponential_packet(amp, tau, baseline=base, span_ns=200.0 + 25.0 * tau)
            fit = sfwm.fit_exponential(w)
            assert fit.amplitude == pytest.approx(amp, rel=1e-6)
            assert fit.tau_ns == pytest.approx(tau, rel=1e-6)

    def test_too_few_bins_past_onset(self):
        w = sfwm.WavePacket(np.arange(0.0, 400.0, 25.6), np.ones(16), 25.6)
        with pytest.raises(UsageError):
            sfwm.fit_exponential(w, x0_ns=300.0)

    def test_one_baseline_bin_takes_its_poisson_error(self):
        """15 bins from the onset leave one tail bin for the baseline, whose
        error is then the root of its count."""
        w = exponential_packet(100.0, 60.0, onset_ns=0.0, baseline=5.0, span_ns=15 * 25.6)
        fit = sfwm.fit_exponential(w, x0_ns=0.0)
        assert fit.baseline == w.g2[-1]
        assert fit.baseline_err == math.sqrt(w.g2[-1])

    def test_onset_amplitude_overflows_to_inf(self):
        """With the onset 1e6 ns before the first bin the amplitude there is
        exp(1e6/260) times the first bin's: inf, with an infinite error, and
        the decay constant is still recovered."""
        w = exponential_packet(500.0, 260.0, onset_ns=0.0)
        fit = sfwm.fit_exponential(w, x0_ns=-1e6)
        assert fit.amplitude == math.inf and fit.amplitude_err == math.inf
        assert fit.tau_ns == pytest.approx(260.0, rel=1e-6)

    def test_all_zero_data(self):
        w = sfwm.WavePacket(np.arange(0.0, 4000.0, 25.6), np.zeros(157), 25.6)
        with pytest.raises(DegenerateDataError):
            sfwm.fit_exponential(w)

    def test_flat_data_gives_zero_amplitude(self):
        w = sfwm.WavePacket(np.arange(0.0, 4000.0, 25.6), np.full(157, 40.0), 25.6)
        fit = sfwm.fit_exponential(w)
        assert sfwm.sbr(fit) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("index", [3, 100])  # baseline window, fit region
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_values_are_usage_error(self, index, value):
        """The packet refuses them when it is built, and cannot take them
        later, so the fit never sees them."""
        w = exponential_packet(500.0, 260.0, baseline=100.0)
        g2 = w.g2.copy()
        g2[index] = value
        with pytest.raises(UsageError, match="finite and nonnegative"):
            sfwm.WavePacket(w.tau_ns, g2, w.bin_ns)
        with pytest.raises(ValueError, match="read-only"):
            w.g2[index] = value

    def test_nonfinite_delays_or_onset_are_usage_error(self):
        w = exponential_packet(500.0, 260.0, baseline=100.0)
        tau = w.tau_ns.copy()
        tau[-1] = np.inf
        with pytest.raises(UsageError, match="delay grid"):
            sfwm.WavePacket(tau, w.g2, w.bin_ns)
        with pytest.raises(ValueError, match="read-only"):
            w.tau_ns[-1] = np.inf
        with pytest.raises(UsageError, match="onset must be finite"):
            sfwm.fit_exponential(exponential_packet(500.0, 260.0), x0_ns=np.nan)

    def test_values_past_1e150_are_usage_error_without_overflow(self):
        """Past 1e150 the squared scatter of the baseline window overflowed;
        up to it the sums stay finite on a million bins."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for amplitude in (1e160, 1e300):
                with pytest.raises(UsageError, match="must not exceed 1e\\+150"):
                    sfwm.fit_exponential(exponential_packet(amplitude, 260.0, baseline=1.0),
                                         x0_ns=203.0)
            fit = sfwm.fit_exponential(exponential_packet(1e150, 260.0, baseline=1.0), x0_ns=203.0)
        assert fit.tau_ns == pytest.approx(260.0, rel=1e-6)

    def test_poisson_coverage_smoke(self):
        """Light Monte Carlo at weak-coupling statistics; full run in acceptance."""
        dm = sfwm.DetectionModel(accumulation_s=2400.0)
        shape = exponential_packet(1.0, 560.0, span_ns=4000.0)
        hits = 0
        for seed in range(10):
            hist = sfwm.synth_histogram(
                shape, sfwm.DetectionModel(accumulation_s=2400.0, seed=seed), 0.05, peak_sbr=5.4
            )
            fit = sfwm.fit_exponential(hist.to_wavepacket())
            if abs(fit.tau_ns - 560.0) <= 3.0 * fit.tau_err:
                hits += 1
        assert hits >= 9


class TestFitExponentialOracle:
    """The closed-form solver against scipy least_squares at 1e-15 tolerances."""

    @staticmethod
    def check(w):
        fit = sfwm.fit_exponential(w)
        amp, tau = oracle_exponential_fit(w)
        assert fit.converged
        assert fit.amplitude == pytest.approx(amp, rel=1e-6)
        assert fit.tau_ns == pytest.approx(tau, rel=1e-6)

    @pytest.mark.parametrize("scenario", ROUND_TRIP_SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 99])
    def test_poisson_histograms(self, scenario, seed):
        self.check(poisson_packet(*scenario, seed))

    @pytest.mark.parametrize("p_mw", [0.02, 0.5, 1.0])
    def test_noiseless_model_packets(self, p_mw, medium_b):
        drive = sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(p_mw))
        amp = sfwm.spectral_amplitude(sfwm.SpectralGrid(), medium_b, drive, None)
        self.check(sfwm.wavepacket(sfwm.apply_etalons(amp, ETALONS), DELAY_NS, onset_ns=ONSET_NS))


class TestDecaySolver:
    """The variable-projection solve of each weighted problem of the fit."""

    @pytest.mark.parametrize("scenario", ROUND_TRIP_SCENARIOS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 99])
    def test_poisson_histograms_no_worse_than_scipy(self, decay_solves, scenario, seed):
        sfwm.fit_exponential(poisson_packet(*scenario, seed))
        assert_no_worse_than_oracle(decay_solves)

    @pytest.mark.parametrize("p_mw", [0.02, 0.5, 1.0])
    def test_noiseless_model_packets_no_worse_than_scipy(self, decay_solves, p_mw, medium_b):
        drive = sfwm.DriveParams(omega_c=sfwm.omega_c_from_power(p_mw))
        amp = sfwm.spectral_amplitude(sfwm.SpectralGrid(), medium_b, drive, None)
        sfwm.fit_exponential(sfwm.wavepacket(sfwm.apply_etalons(amp, ETALONS), DELAY_NS, onset_ns=ONSET_NS))
        assert_no_worse_than_oracle(decay_solves)

    # (tau ns, onset ns, accumulation s, peak SBR, seed): a decay far below
    # the 25.6 ns bin with the onset between bin edges leaves one spike bin,
    # whose profile rises towards tau -> 0 without a maximum.
    ONE_BIN_SPIKES = [(1.0, 80.0, 80.0, 79.0, 37710), (5.0, 4.0, 915.0, 4.0, 241)]

    @pytest.mark.parametrize("tau_ns, onset_ns, accumulation_s, peak_sbr, seed", ONE_BIN_SPIKES)
    def test_one_bin_spike_converges(self, decay_solves, tau_ns, onset_ns, accumulation_s,
                                     peak_sbr, seed):
        shape = exponential_packet(1.0, tau_ns, onset_ns=onset_ns, span_ns=4000.0)
        dm = sfwm.DetectionModel(accumulation_s=accumulation_s, seed=seed)
        packet = sfwm.synth_histogram(shape, dm, 1.0, peak_sbr=peak_sbr).to_wavepacket()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = sfwm.fit_exponential(packet, x0_ns=onset_ns)
        assert fit.converged
        assert fit.tau_ns < 0.1 * packet.bin_ns or (
            math.isfinite(fit.amplitude_err) and math.isfinite(fit.tau_err)
        )
        assert_no_worse_than_oracle(decay_solves)

    def test_no_excess_gives_zero_amplitude(self):
        """A dip below the baseline past the onset: S = 0 on its bound."""
        w = exponential_packet(-50.0, 260.0, baseline=100.0, span_ns=4000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = sfwm.fit_exponential(w)
        assert fit.converged
        assert fit.amplitude == 0.0
        assert fit.amplitude_err == math.inf and fit.tau_err == math.inf

    def test_evaluation_budget(self, decay_solves):
        """Newton's method converges in a few profile evaluations per solve;
        a linearly converging solver would need many more."""
        for scenario in ROUND_TRIP_SCENARIOS:
            for seed in range(20):
                sfwm.fit_exponential(poisson_packet(*scenario, seed))
        counts = [n for _, _, n in decay_solves]
        assert len(counts) >= 40
        assert max(counts) <= 6
        assert sum(counts) <= 3 * len(counts)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    tau_ns=st.floats(1.0, 1e4),
    peak_sbr=st.floats(1e-3, 1e3),
    accumulation_s=st.floats(1e-2, 1e5),
    onset_ns=st.floats(-100.0, 3900.0),
    seed=st.integers(0, 2**32 - 1),
    noiseless=st.booleans(),
)
def test_fit_exponential_outcomes(tau_ns, peak_sbr, accumulation_s, onset_ns, seed, noiseless):
    """A fit converges with nonnegative errors or raises a package error, silently.

    The errors are finite unless the decay is unresolved: the amplitude on its
    bound S = 0 (as for exactly flat data), or a decay constant far below one
    bin, where the model is a single-bin spike whose tau the data cannot fix.
    """
    shape = exponential_packet(1.0, tau_ns, onset_ns=onset_ns, span_ns=4000.0)
    dm = sfwm.DetectionModel(accumulation_s=accumulation_s, seed=seed)
    if noiseless:
        packet = sfwm.WavePacket(
            shape.tau_ns, sfwm.expected_bins(shape, dm, 1.0, peak_sbr=peak_sbr), shape.bin_ns
        )
    else:
        packet = sfwm.synth_histogram(shape, dm, 1.0, peak_sbr=peak_sbr).to_wavepacket()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = sfwm.fit_exponential(packet, x0_ns=onset_ns)
    except ConvergenceError as exc:
        assert isinstance(exc.best, sfwm.ExpFit)
        return
    except (DegenerateDataError, UsageError):
        return
    assert fit.converged
    assert fit.amplitude >= 0.0 and fit.tau_ns >= 1e-6
    assert 0.0 <= fit.baseline_err < math.inf
    unresolved = fit.amplitude == 0.0 or fit.tau_ns < 0.1 * packet.bin_ns
    for err in (fit.amplitude_err, fit.tau_err):
        assert 0.0 <= err < math.inf or (err == math.inf and unresolved)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(10, 400),
    bin_ns=st.sampled_from([25.6, 1.0, 0.3]),
    start_ns=st.floats(-1e3, 1e3),
    back=st.integers(0, 410),
    shift=st.sampled_from([0.0, 0.5, -1e-7]),
    seed=st.integers(0, 2**32 - 1),
    noiseless=st.booleans(),
)
# The pre-onset window meets the last 10% of bins.
@example(n=150, bin_ns=25.6, start_ns=0.0, back=11, shift=0.0, seed=0, noiseless=False)
# The onset lies before the first delay.
@example(n=40, bin_ns=25.6, start_ns=0.0, back=45, shift=0.5, seed=1, noiseless=False)
# Exactly 9 and exactly 10 bins past the onset.
@example(n=40, bin_ns=25.6, start_ns=0.0, back=9, shift=0.0, seed=2, noiseless=False)
@example(n=40, bin_ns=25.6, start_ns=0.0, back=10, shift=0.0, seed=2, noiseless=False)
def test_fit_windows_match_the_masks(n, bin_ns, start_ns, back, shift, seed, noiseless):
    """The fit region and the baseline window found by index search are the
    mask-selected ones: the baseline and its error agree to the bit and the
    fit takes as many bins, and the rest of the fit reads nothing else.
    The onset sits ``back`` bins before the end, ``shift`` bins off a delay."""
    t = start_ns + bin_ns * np.arange(n)
    x0_ns = start_ns + bin_ns * (n - back + shift)
    rng = np.random.default_rng(seed)
    tau_ns = bin_ns * rng.uniform(0.5, 50.0)
    decay = np.where(t >= x0_ns, np.exp(-np.maximum(t - x0_ns, 0.0) / tau_ns), 0.0)
    g2 = rng.uniform(0.0, 50.0) + rng.uniform(1.0, 1e3) * decay
    w = sfwm.WavePacket(t, g2 if noiseless else rng.poisson(g2).astype(float), bin_ns)
    y0, y0_err, n_fit = masked_fit_windows(w, x0_ns)
    try:
        fit = sfwm.fit_exponential(w, x0_ns)
    except DegenerateDataError:
        assert not w.g2.any()
        return
    except UsageError:
        assert n_fit < 10
        return
    except ConvergenceError as exc:
        fit = exc.best
    assert (fit.baseline, fit.baseline_err, fit.n_fit_bins) == (y0, y0_err, n_fit)


class TestScalarMetrics:
    def test_linewidth_values(self):
        assert round(sfwm.linewidth_from_tau(260.0) / 1e3) == 612
        assert round(sfwm.linewidth_from_tau(560.0) / 1e3) == 284

    def test_linewidth_definition(self):
        tau_ns = 1e9 / (2.0 * math.pi)  # tau = 1/(2 pi) seconds
        assert sfwm.linewidth_from_tau(tau_ns) == pytest.approx(1.0, rel=1e-12)

    def test_linewidth_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            sfwm.linewidth_from_tau(0.0)

    def _fit(self, amplitude, baseline):
        return sfwm.ExpFit(
            baseline=baseline, amplitude=amplitude, tau_ns=260.0, onset_ns=200.0,
            baseline_err=0.0, amplitude_err=0.0, tau_err=0.0, residual_norm=0.0,
            converged=True, n_fit_bins=100,
        )

    def test_sbr_values(self):
        assert sfwm.sbr(self._fit(420.0, 10.0)) == 42.0
        assert sfwm.sbr(self._fit(54.0, 10.0)) == pytest.approx(5.4)
        assert sfwm.sbr(self._fit(0.0, 10.0)) == 0.0
        assert sfwm.sbr(self._fit(5.0, 0.0)) == float("inf")

    def test_cs_violation_values(self):
        assert sfwm.cs_violation(42.0) == pytest.approx(441.0, abs=1e-12)
        assert sfwm.cs_violation(5.4) == pytest.approx(7.29, abs=1e-12)
        assert sfwm.cs_violation(60.0) == pytest.approx(900.0, abs=1e-12)

    def test_cs_violation_is_squared_sbr_over_four(self):
        rng = np.random.default_rng(5)
        for g2 in rng.uniform(0, 100, 20):
            assert sfwm.cs_violation(g2) == pytest.approx(g2**2 / 4.0, rel=1e-14)

    def test_cs_violation_domain(self):
        with pytest.raises(DomainError):
            sfwm.cs_violation(-1.0)

    def test_generation_rate(self):
        dm = sfwm.DetectionModel()
        assert sfwm.generation_rate(10.0, dm) == pytest.approx(10.0 / 0.01092, rel=1e-12)
        assert sfwm.generation_rate(0.0, dm) == 0.0
        halved = sfwm.DetectionModel(eff_as=0.042)
        assert sfwm.generation_rate(10.0, halved) == pytest.approx(20.0 / 0.01092, rel=1e-12)

    def test_spectral_brightness(self):
        assert sfwm.spectral_brightness(915.0, 0.5, 0.61e6) == pytest.approx(3000.0, rel=1e-12)
        assert sfwm.spectral_brightness(0.0, 0.5, 0.61e6) == 0.0
        base = sfwm.spectral_brightness(915.0, 0.5, 0.61e6)
        assert sfwm.spectral_brightness(915.0, 1.0, 0.61e6) == 0.5 * base
        with pytest.raises(DomainError):
            sfwm.spectral_brightness(1.0, 0.0, 1e6)
        rates, widths = np.array([915.0, 0.0, 40.0]), np.array([0.61e6, 0.29e6, 1e5])
        each = [sfwm.spectral_brightness(r, 0.5, w) for r, w in zip(rates, widths)]
        assert np.array_equal(sfwm.spectral_brightness(rates, 0.5, widths), each)
        with pytest.raises(DomainError):
            sfwm.spectral_brightness(rates, 0.5, np.array([0.61e6, 0.0, 1e5]))

    def test_omega_c_from_power(self):
        assert sfwm.omega_c_from_power(1.0) == 2.7
        assert sfwm.omega_c_from_power(0.0) == 0.0
        assert sfwm.omega_c_from_power(0.05) == pytest.approx(0.6037, abs=2e-4)
        with pytest.raises(DomainError):
            sfwm.omega_c_from_power(-0.1)

    def test_background_rate(self):
        assert sfwm.background_rate(0.0) == 240.0
        assert sfwm.background_rate(1.0) == 560.0
        assert sfwm.background_rate(0.05) == pytest.approx(305.4, abs=0.1)
        with pytest.raises(DomainError):
            sfwm.background_rate(-0.1)


def test_truncated_holds_a_parameter_the_step_pushes_out_of_its_bound():
    """A parameter on its bound stays put while the other takes its whole
    step; cutting the step at the bound would leave both where they were."""
    assert analysis._truncated(1.0, 2.0, 1.0, 0.0, -0.5, 0.25) == (1.0, 2.25)
    assert analysis._truncated(2.0, 1.0, 0.0, 1.0, 0.25, -0.5) == (2.25, 1.0)


def test_average_low_power_gamma():
    fits = [
        (2.0, sfwm.EitFit(80, 3.8, 0.031, 0.0, True)),
        (0.02, sfwm.EitFit(82, 0.38, 0.024, 0.0, True)),
        (0.1, sfwm.EitFit(81, 0.85, 0.026, 0.0, True)),
        (0.05, sfwm.EitFit(82, 0.60, 0.025, 0.0, True)),
    ]
    assert sfwm.average_low_power_gamma(fits) == pytest.approx((0.024 + 0.025 + 0.026) / 3)
    with pytest.raises(UsageError):
        sfwm.average_low_power_gamma(fits[:2])


class TestFitEit:
    GRID = np.linspace(-2.0, 2.0, 241)

    def _spectrum(self, alpha, omega_c, gamma):
        m = sfwm.MediumParams(alpha_s=alpha, gamma=gamma)
        return sfwm.eit_spectrum(self.GRID, m, sfwm.DriveParams(omega_c=omega_c))

    def test_noiseless_round_trip_weak_coupling(self):
        fit = sfwm.fit_eit(
            self._spectrum(82.0, 0.65, 0.024),
            sfwm.MediumParams(alpha_s=70.0, gamma=0.03),
            sfwm.DriveParams(omega_c=0.5),
        )
        assert fit.alpha_s == pytest.approx(82.0, rel=0.01)
        assert fit.omega_c == pytest.approx(0.65, rel=0.01)
        assert fit.gamma == pytest.approx(0.024, rel=0.01)
        assert fit.converged

    def test_noiseless_round_trip_strong_coupling(self):
        fit = sfwm.fit_eit(
            self._spectrum(80.0, 2.6, 0.028),
            sfwm.MediumParams(alpha_s=70.0, gamma=0.02),
            sfwm.DriveParams(omega_c=2.0),
        )
        assert fit.alpha_s == pytest.approx(80.0, rel=0.01)
        assert fit.omega_c == pytest.approx(2.6, rel=0.01)
        assert fit.gamma == pytest.approx(0.028, rel=0.01)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(31)
        noisy = self._spectrum(80.0, 2.6, 0.028)
        noisy = sfwm.Spectrum(noisy.delta, noisy.transmission + rng.normal(0, 0.005, noisy.delta.size))
        first = sfwm.fit_eit(
            noisy, sfwm.MediumParams(alpha_s=70.0, gamma=0.02), sfwm.DriveParams(omega_c=2.0)
        )
        regenerated = self._spectrum(first.alpha_s, first.omega_c, first.gamma)
        second = sfwm.fit_eit(
            regenerated,
            sfwm.MediumParams(alpha_s=first.alpha_s, gamma=first.gamma),
            sfwm.DriveParams(omega_c=first.omega_c),
        )
        assert second.alpha_s == pytest.approx(first.alpha_s, rel=0.01)
        assert second.omega_c == pytest.approx(first.omega_c, rel=0.01)
        assert second.gamma == pytest.approx(first.gamma, rel=0.01)

    def test_noise_recovery_smoke(self):
        """Light version of the Monte Carlo acceptance run."""
        rng = np.random.default_rng(47)
        clean = self._spectrum(80.0, 2.6, 0.028)
        ok = 0
        for _ in range(5):
            noisy = sfwm.Spectrum(clean.delta, clean.transmission + rng.normal(0, 0.005, clean.delta.size))
            fit = sfwm.fit_eit(
                noisy, sfwm.MediumParams(alpha_s=75.0, gamma=0.035), sfwm.DriveParams(omega_c=2.2)
            )
            if (
                abs(fit.alpha_s / 80.0 - 1) < 0.05
                and abs(fit.omega_c / 2.6 - 1) < 0.05
                and abs(fit.gamma / 0.028 - 1) < 0.05
            ):
                ok += 1
        assert ok >= 4

    def test_baseline_out_of_range(self):
        bright = sfwm.Spectrum(self.GRID, np.full(self.GRID.size, 1.2))
        with pytest.raises(
            InversionError, match=r"^baseline transmission 1\.2 is outside \(0, 1\)$"
        ):
            sfwm.fit_eit(
                bright, sfwm.MediumParams(alpha_s=80.0, gamma=0.02), sfwm.DriveParams(omega_c=1.0)
            )

    def test_baseline_brighter_than_any_medium(self):
        """Inside (0, 1) but above the transmission at optical depth 1e-6."""
        bright = sfwm.Spectrum(self.GRID, np.full(self.GRID.size, 1.0 - 1e-12))
        with pytest.raises(InversionError, match="brighter"):
            sfwm.fit_eit(
                bright, sfwm.MediumParams(alpha_s=80.0, gamma=0.02), sfwm.DriveParams(omega_c=1.0)
            )

    def test_baseline_darker_than_any_medium(self):
        """Edge samples 5000-6000 Gamma off resonance would need an optical
        depth near 1e9 to transmit only 1e-3."""
        far = np.concatenate([-np.linspace(6000.0, 5000.0, 25), np.linspace(5000.0, 6000.0, 25)])
        dark = sfwm.Spectrum(far, np.full(far.size, 1e-3))
        with pytest.raises(InversionError, match="darker"):
            sfwm.fit_eit(
                dark, sfwm.MediumParams(alpha_s=80.0, gamma=0.02), sfwm.DriveParams(omega_c=1.0)
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_spectrum_is_usage_error(self, value):
        """The spectrum refuses it when it is built, and cannot take it
        later, so the fit never sees it."""
        data = self._spectrum(80.0, 2.6, 0.028)
        transmission = data.transmission.copy()
        transmission[120] = value
        with pytest.raises(UsageError, match="spectrum transmissions must be finite"):
            sfwm.Spectrum(data.delta, transmission)
        with pytest.raises(ValueError, match="read-only"):
            data.transmission[120] = value


def _noisy_eit_cases():
    """Noisy 161-point spectra (sigma = 0.005) and offset guesses, as calibrated."""
    grid = np.linspace(-1.5, 1.5, 161)
    medium = sfwm.MediumParams(alpha_s=81.0, gamma=0.026)
    cases = []
    for p_mw in (0.5, 2.0, 2.75):
        omega_c = sfwm.omega_c_from_power(p_mw)
        clean = sfwm.eit_spectrum(grid, medium, sfwm.DriveParams(omega_c=omega_c))
        for seed in range(10):
            noise = np.random.default_rng(seed).normal(0.0, 0.005, grid.size)
            cases.append(pytest.param(
                sfwm.Spectrum(grid, clean.transmission + noise),
                sfwm.MediumParams(alpha_s=70.0, gamma=1.25 * medium.gamma),
                sfwm.DriveParams(omega_c=0.85 * omega_c),
                id=f"{p_mw}mW-seed{seed}",
            ))
    return cases


def _test_fit_eit_cases():
    """The spectra and guesses of TestFitEit."""
    spectrum = TestFitEit()._spectrum
    strong = spectrum(80.0, 2.6, 0.028)
    cases = [
        pytest.param(spectrum(82.0, 0.65, 0.024), sfwm.MediumParams(70.0, 0.03),
                     sfwm.DriveParams(0.5), id="weak"),
        pytest.param(strong, sfwm.MediumParams(70.0, 0.02), sfwm.DriveParams(2.0), id="strong"),
    ]
    for name, seed, m0, d0 in (("fixed-point", 31, sfwm.MediumParams(70.0, 0.02), sfwm.DriveParams(2.0)),
                               ("smoke", 47, sfwm.MediumParams(75.0, 0.035), sfwm.DriveParams(2.2))):
        noise = np.random.default_rng(seed).normal(0, 0.005, strong.delta.size)
        cases.append(pytest.param(sfwm.Spectrum(strong.delta, strong.transmission + noise),
                                  m0, d0, id=name))
    return cases


class TestFitEitOracle:
    """Both stages against scipy brentq and least_squares at tight tolerances."""

    @pytest.mark.parametrize("data, m0, d0", _test_fit_eit_cases() + _noisy_eit_cases())
    def test_matches_scipy(self, data, m0, d0):
        fit = sfwm.fit_eit(data, m0, d0)
        alpha, omega_c, gamma = oracle_eit_fit(data, m0, d0)
        assert fit.converged
        assert fit.alpha_s == pytest.approx(alpha, rel=1e-10)
        assert fit.omega_c == pytest.approx(omega_c, rel=1e-6)
        assert fit.gamma == pytest.approx(gamma, rel=1e-6)


def _random_eit_case(alpha, omega_c, gamma, noise, seed, omega_offset, gamma_offset):
    """A 161-point spectrum over +-1.5 Gamma with Gaussian noise, and guesses
    offset from the truth."""
    grid = np.linspace(-1.5, 1.5, 161)
    clean = sfwm.eit_spectrum(grid, sfwm.MediumParams(alpha, gamma), sfwm.DriveParams(omega_c))
    noisy = clean.transmission + np.random.default_rng(seed).normal(0.0, noise, grid.size)
    return (sfwm.Spectrum(grid, noisy), sfwm.MediumParams(alpha_s=70.0, gamma=gamma * gamma_offset),
            sfwm.DriveParams(omega_c=omega_c * omega_offset))


def _calibration_cases(seed):
    """Spectra as the calibration benchmark draws them: alpha 80-82 and gamma
    0.024-0.028, 2-2.75 mW, sigma = 0.005, guesses OD 70, 0.85 Omega_c and
    1.25 gamma."""
    rng = np.random.default_rng(seed)
    medium = sfwm.MediumParams(rng.uniform(80.0, 82.0), rng.uniform(0.024, 0.028))
    grid = np.linspace(-1.5, 1.5, 161)
    for p_mw in (2.0, 2.25, 2.5, 2.75):
        omega_c = sfwm.omega_c_from_power(p_mw)
        clean = sfwm.eit_spectrum(grid, medium, sfwm.DriveParams(omega_c))
        yield (sfwm.Spectrum(grid, clean.transmission + rng.normal(0.0, 0.005, grid.size)),
               sfwm.MediumParams(70.0, 1.25 * medium.gamma), sfwm.DriveParams(0.85 * omega_c))


# Random spectra (_random_eit_case arguments; noise <= 0.03, guesses 0.3-3x
# Omega_c and 0.1-10x gamma) where the first solve ends with the coupling off,
# above the interior minimum the scipy oracle finds.
BOUND_CASES = {
    "low-depth": (2.4579470148743634, 2.8385334490743297, 0.02880413768489425,
                  0.026639960811078847, 3596762112, 1.6574533106200118, 0.14277350810942158),
    "weak-coupling": (41.998859217308265, 0.3160584883027895, 0.034752946837464535,
                      0.01885560045022566, 2680230947, 1.9227726400930245, 0.6197448481363285),
    "deep": (128.89715135651525, 0.29612650073354696, 0.20804829124320423,
             0.0025357996098014824, 2009584141, 2.8967720574783806, 0.21103037802073052),
    "quiet": (41.58187269040715, 0.10041814389963366, 0.26792345346409235,
              0.00036307428337561395, 1519569252, 1.8606416428278492, 1.0314242114912597),
}


class TestFitEitStages:
    @pytest.mark.parametrize("data, m0, d0", _test_fit_eit_cases() + _noisy_eit_cases()[::5])
    def test_stage_one_alpha_is_the_coupling_off_transmission(self, data, m0, d0):
        """The optical depth inverted from eit_transmission at unit depth with
        the coupling off, bit for bit."""
        edge = np.concatenate(physics._edges(data.delta))
        unit = sfwm.eit_transmission(
            edge, replace(m0, alpha_s=1.0, alpha_as=1.0), replace(d0, omega_c=0.0), None
        )
        alpha = analysis._invert_baseline(-np.log(unit), sfwm.spectrum_baseline(data))
        assert sfwm.fit_eit(data, m0, d0).alpha_s == alpha

    @pytest.mark.parametrize("case", BOUND_CASES.values(), ids=BOUND_CASES)
    def test_bound_fit_restarts_inside(self, eit_solves, case):
        data, m0, d0 = _random_eit_case(*case)
        fit = sfwm.fit_eit(data, m0, d0)
        (start, _, first), (restart, _, _) = eit_solves[0]
        assert first[0] == 0.0
        assert restart == (analysis._EIT_RESTART * start[0], analysis._EIT_RESTART * start[1])
        assert fit.converged and fit.omega_c > 0.0
        assert fit.residual_norm < np.linalg.norm(first[2])
        alpha, omega_c, gamma = oracle_eit_fit(data, m0, d0)
        oracle = sfwm.eit_transmission(
            data.delta, sfwm.MediumParams(alpha, gamma), sfwm.DriveParams(omega_c), None
        )
        assert fit.residual_norm <= np.linalg.norm(oracle - data.transmission) * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_interior_fit_solves_once(self, eit_solves, seed):
        """A fit that ends inside the bounds is its one solve from the guesses:
        the same result and the same model evaluations, plus stage 1's."""
        solves, calls = eit_solves
        for data, m0, d0 in _calibration_cases(seed):
            solves.clear()
            calls[0] = 0
            fit = sfwm.fit_eit(data, m0, d0)
            [(start, evaluations, (square, gamma, r, converged))] = solves
            assert start == (max(d0.omega_c, 1e-3) ** 2, max(m0.gamma, 1e-4))
            assert square > 0.0 and converged
            assert (fit.omega_c, fit.gamma) == (math.sqrt(square), gamma)
            assert fit.residual_norm == float(np.linalg.norm(r))
            assert calls[0] == 1 + evaluations


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    alpha=st.floats(1.0, 150.0),
    omega_c=st.floats(0.0, 6.0),
    gamma=st.floats(1e-3, 0.3),
    noise=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**32 - 1),
    omega_offset=st.floats(0.3, 3.0),
    gamma_offset=st.floats(0.1, 10.0),
)
def test_fit_eit_outcomes(alpha, omega_c, gamma, noise, seed, omega_offset, gamma_offset):
    """A fit converges within its bounds, or raises ConvergenceError carrying
    the best iterate or InversionError, and never warns."""
    data, m0, d0 = _random_eit_case(alpha, omega_c, gamma, noise, seed, omega_offset, gamma_offset)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = sfwm.fit_eit(data, m0, d0)
    except ConvergenceError as exc:
        assert isinstance(exc.best, sfwm.EitFit)
        return
    except InversionError:
        return
    assert fit.converged
    assert 1e-6 <= fit.alpha_s <= 1e5
    assert fit.omega_c >= 0.0 and fit.gamma >= 1e-9
    assert math.isfinite(fit.residual_norm)


class TestConvergenceFailures:
    """A solver that runs out of steps raises ConvergenceError; its ``best``
    is the fit at the solver's last iterate, marked not converged."""

    def test_fit_exponential(self, monkeypatch, decay_solves):
        monkeypatch.setattr(analysis, "_NEWTON_MAX_STEPS", 1)
        packet = poisson_packet(*ROUND_TRIP_SCENARIOS[0], seed=0)
        with pytest.raises(ConvergenceError, match="did not converge in 1 steps") as info:
            sfwm.fit_exponential(packet)
        best = info.value.best
        assert isinstance(best, sfwm.ExpFit) and not best.converged
        assert best.tau_ns == decay_solves[-1][1]

    def test_fit_eit(self, monkeypatch, eit_solves):
        monkeypatch.setattr(analysis, "_LM_MAX_STEPS", 1)
        medium = sfwm.MediumParams(alpha_s=82.0, gamma=0.024)
        data = sfwm.eit_spectrum(np.linspace(-1.5, 1.5, 161), medium, sfwm.DriveParams(0.65))
        with pytest.raises(ConvergenceError, match="did not converge in 1 steps") as info:
            sfwm.fit_eit(data, replace(medium, gamma=0.05), sfwm.DriveParams(omega_c=1.3))
        best = info.value.best
        assert isinstance(best, sfwm.EitFit) and not best.converged
        solves, _ = eit_solves
        square, gamma, residuals, converged = solves[-1][2]
        assert not converged
        assert (best.omega_c, best.gamma) == (math.sqrt(square), gamma)
        assert best.residual_norm == float(np.linalg.norm(residuals))


class TestGenerationRateRoundTrip:
    def test_monte_carlo_inversion(self):
        """Simulate a known source rate, detect, invert; unbiased within errors."""
        true_rate = 2000.0
        eff = 0.084 * 0.13
        dm0 = sfwm.DetectionModel(accumulation_s=1200.0)
        detected_rate = true_rate * eff
        success = detected_rate / dm0.trigger_rate
        shape = exponential_packet(1.0, 260.0, span_ns=8000.0)
        p_mw = 1.0
        n_bins = shape.tau_ns.size
        bkg_per_bin = dm0.trigger_rate * dm0.accumulation_s * sfwm.background_rate(p_mw) * 25.6e-9

        estimates = []
        within = 0
        for seed in range(100):
            dm = sfwm.DetectionModel(accumulation_s=1200.0, seed=seed, success_probability=success)
            hist = sfwm.synth_histogram(shape, dm, p_mw)
            signal = hist.counts.sum() - n_bins * bkg_per_bin
            est = sfwm.generation_rate(signal / dm.accumulation_s, dm)
            estimates.append(est)
            sigma = math.sqrt(hist.counts.sum()) / dm.accumulation_s / eff
            if abs(est - true_rate) <= 3.0 * sigma:
                within += 1
        assert within >= 95
        mean = float(np.mean(estimates))
        sigma_mean = float(np.std(estimates) / math.sqrt(len(estimates)))
        assert abs(mean - true_rate) <= 4.0 * sigma_mean
