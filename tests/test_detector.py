import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sfwm
from sfwm import detector
from sfwm.errors import UsageError

from conftest import BAD_DELAY_GRIDS, exponential_packet


def model(**kw):
    return sfwm.DetectionModel(**kw)


def run(**kw):
    """The default scenario with the detection model of ``kw``."""
    return dataclasses.replace(sfwm.load_config(), detection=model(**kw))


class TestDetectionModel:
    def test_validation(self):
        with pytest.raises(UsageError):
            model(eff_as=0.0)
        with pytest.raises(UsageError):
            model(eff_s=1.5)
        with pytest.raises(UsageError):
            model(trigger_rate=-1.0)
        with pytest.raises(UsageError):
            model(bin_ns=0.0)

    @pytest.mark.parametrize(
        "field", ["eff_as", "eff_s", "dark_as", "dark_s", "trigger_rate", "bin_ns", "accumulation_s"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_values_rejected(self, field, value):
        with pytest.raises(UsageError):
            model(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, np.nan, "3", None])
    def test_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(UsageError):
            model(seed=seed)

    def test_numpy_integer_seed_is_the_same_model(self):
        dm = model(seed=np.int64(7))
        assert dm == model(seed=7)
        assert type(dm.seed) is int

    @pytest.mark.parametrize("p", [-0.1, 1.5, np.nan])
    def test_invalid_success_probability_is_usage_error(self, p):
        with pytest.raises(UsageError, match=re.escape("success_probability must be in [0, 1]")):
            model(success_probability=p)


class TestExpectedBins:
    def test_exactly_one_normalization(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        with pytest.raises(UsageError):
            sfwm.expected_bins(w, model(), 1.0)
        with pytest.raises(UsageError):
            sfwm.expected_bins(w, model(success_probability=0.01), 1.0, peak_sbr=42.0)

    def test_negative_peak_sbr_is_usage_error(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        with pytest.raises(UsageError, match="peak SBR must be nonnegative"):
            sfwm.expected_bins(w, model(), 1.0, peak_sbr=-1.0)

    @pytest.mark.parametrize("normalization,fields,name", [
        ({"peak_sbr": 1e300}, {}, "peak_sbr"),
        ({}, {"success_probability": 0.5, "trigger_rate": 1e18}, "success_probability"),
    ])
    def test_counts_past_the_poisson_sampler_are_usage_error(self, normalization, fields, name):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        with pytest.raises(UsageError, match=f"lower {name}, trigger_cps or accumulation_s"):
            sfwm.expected_bins(w, model(**fields), 1.0, **normalization)

    def test_poisson_bound_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(detector._POISSON_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(detector._POISSON_MAX, np.inf))

    def test_doubling_accumulation_doubles_means_exactly(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        m1 = sfwm.expected_bins(w, model(accumulation_s=1200.0, success_probability=0.0088), 1.0)
        m2 = sfwm.expected_bins(w, model(accumulation_s=2400.0, success_probability=0.0088), 1.0)
        assert np.array_equal(2.0 * m1, m2)

    def test_background_only_is_uniform(self):
        w = exponential_packet(0.0, 260.0, span_ns=4000.0)
        means = sfwm.expected_bins(w, model(success_probability=0.0), 1.0)
        assert np.all(means == means[0])
        expected = 840.0 * 560.0 * 25.6e-9 * 1200.0
        assert means[0] == pytest.approx(expected, rel=1e-12)

    def test_background_fills_the_packet_bins(self):
        """The background per bin follows the packet's bin width, not the
        model's."""
        w = exponential_packet(0.0, 260.0, span_ns=4000.0, bin_ns=12.8)
        means = sfwm.expected_bins(w, model(bin_ns=25.6, success_probability=0.0), 1.0)
        assert means[0] == pytest.approx(840.0 * 560.0 * 12.8e-9 * 1200.0, rel=1e-12)


class TestSynthHistogram:
    def test_deterministic_per_seed(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        a = sfwm.synth_histogram(w, model(seed=7), 1.0, peak_sbr=42.0)
        b = sfwm.synth_histogram(w, model(seed=7), 1.0, peak_sbr=42.0)
        c = sfwm.synth_histogram(w, model(seed=8), 1.0, peak_sbr=42.0)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_background_only_sample_mean(self):
        w = exponential_packet(0.0, 260.0, span_ns=4000.0)
        hist = sfwm.synth_histogram(w, model(seed=3, success_probability=0.0), 1.0)
        mu = 840.0 * 560.0 * 25.6e-9 * 1200.0
        n = hist.counts.size
        assert abs(hist.counts.mean() - mu) <= 3.0 * np.sqrt(mu / n)

    def test_total_counts_match_expectation(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        totals = []
        mu_total = None
        for seed in range(20):
            dm = model(seed=seed, success_probability=0.0088)
            mu_total = sfwm.expected_bins(w, dm, 1.0).sum()
            totals.append(sfwm.synth_histogram(w, dm, 1.0).counts.sum())
        sigma_mean = np.sqrt(mu_total / len(totals))
        assert abs(np.mean(totals) - mu_total) <= 3.0 * sigma_mean

    def test_histogram_delay_grid_reuses_packet_grid(self):
        w = exponential_packet(1.0, 560.0, span_ns=4000.0)
        hist = sfwm.synth_histogram(w, model(), 0.05, peak_sbr=5.4)
        assert np.array_equal(hist.delay_ns, w.tau_ns)
        assert hist.accumulation_s == 1200.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delay", BAD_DELAY_GRIDS.values(), ids=BAD_DELAY_GRIDS.keys())
    def test_bad_delay_grid_is_usage_error(self, delay):
        with pytest.raises(UsageError):
            sfwm.CoincidenceHistogram(delay, np.ones(delay.size, dtype=int), 10.0)

    @pytest.mark.parametrize("bin_ns", [25.6, np.nan, np.inf, 0.0, -10.0])
    def test_bin_width_is_the_grid_step(self, bin_ns):
        with pytest.raises(UsageError, match="bin width"):
            sfwm.CoincidenceHistogram(np.arange(0.0, 100.0, 10.0), np.ones(10, dtype=int), bin_ns)

    @pytest.mark.parametrize(
        "counts, match",
        [(np.ones(10), "integers"), (np.r_[np.ones(9, dtype=int), -1], "nonnegative"),
         (np.ones(9, dtype=int), "lengths differ")],
        ids=["float", "negative", "short"],
    )
    def test_invalid_counts_are_usage_error(self, counts, match):
        with pytest.raises(UsageError, match=match):
            sfwm.CoincidenceHistogram(np.arange(0.0, 100.0, 10.0), counts, 10.0)


def pair_loop_counts(triggers, partners, window_ns, bin_ns):
    """Coincidence counts by testing every (trigger, partner) pair."""
    n_bins = math.floor(window_ns / bin_ns)
    counts = np.zeros(n_bins, dtype=np.int64)
    for t in triggers:
        for p in partners:
            if t <= p < t + n_bins * bin_ns:
                counts[min(int((p - t) / bin_ns), n_bins - 1)] += 1
    return counts


def two_search_counts(triggers, partners, window_ns, bin_ns):
    """Coincidence counts with both window bounds found by a full binary search."""
    n_bins = int(np.floor(window_ns / bin_ns))
    lo = np.searchsorted(partners, triggers)
    hi = np.searchsorted(partners, triggers + n_bins * bin_ns)
    per_trigger = hi - lo
    total = int(per_trigger.sum())
    offsets = np.repeat(np.cumsum(per_trigger) - per_trigger, per_trigger)
    flat = np.arange(total) - offsets + np.repeat(lo, per_trigger)
    delays = partners[flat] - np.repeat(triggers, per_trigger)
    return np.bincount((delays / bin_ns).astype(np.int64), minlength=n_bins)


# Stamps on a lattice of 25.6 ns steps, clustered so that windows of 1 to 159
# bins often end on a stamp, where float rounding decides membership.
LATTICE = st.lists(st.integers(0, 12) | st.integers(150, 165), max_size=25).map(sorted)


class TestBuildHistogram:
    def test_single_pair_lands_in_third_bin(self):
        hist = sfwm.build_histogram(np.array([0.0]), np.array([100.0]), 4000.0, 25.6)
        assert hist.counts[3] == 1
        assert hist.counts.sum() == 1

    def test_uniform_partners_give_flat_histogram(self):
        rng = np.random.default_rng(12)
        window = 156 * 25.6
        partners = np.sort(rng.uniform(0.0, window, 120000))
        hist = sfwm.build_histogram(np.array([0.0]), partners, window, 25.6)
        mu = 120000 / 156
        assert np.all(np.abs(hist.counts - mu) <= 3.0 * np.sqrt(mu) + 1.0)

    def test_multiscaler_counts_all_partners_in_window(self):
        triggers = np.array([0.0, 50.0])
        partners = np.array([10.0, 60.0, 90.0])
        hist = sfwm.build_histogram(triggers, partners, 102.4, 25.6)
        # trigger 0 sees delays 10, 60, 90; trigger 50 sees 10, 40.
        assert hist.counts.sum() == 5

    def test_window_shorter_than_one_bin_rejected(self):
        with pytest.raises(UsageError, match="shorter than one bin"):
            sfwm.build_histogram(np.array([0.0]), np.array([10.0]), 20.0, 25.6)

    def test_unsorted_streams_rejected(self):
        with pytest.raises(UsageError):
            sfwm.build_histogram(np.array([5.0, 1.0]), np.array([2.0]), 100.0, 25.6)
        with pytest.raises(UsageError):
            sfwm.build_histogram(np.array([1.0]), np.array([5.0, 2.0]), 100.0, 25.6)

    def test_invariant_to_stream_concatenation_order(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1e6, 500)
        b = rng.uniform(0, 1e6, 700)
        triggers = np.sort(rng.uniform(0, 1e6, 300))
        one = sfwm.build_histogram(triggers, np.sort(np.concatenate([a, b])), 2000.0, 25.6)
        two = sfwm.build_histogram(triggers, np.sort(np.concatenate([b, a])), 2000.0, 25.6)
        assert np.array_equal(one.counts, two.counts)

    def test_delay_rounding_onto_window_end_lands_in_last_bin(self):
        # 4070.4 < 3*25.6 + 156*25.6, yet the delay divides to exactly 156.0.
        hist = sfwm.build_histogram(np.array([3 * 25.6]), np.array([4070.4]), 4000.0, 25.6)
        assert hist.counts.size == 156
        assert hist.counts[-1] == 1 and hist.counts.sum() == 1

    @pytest.mark.parametrize(
        "triggers, partners, window_ns, bin_ns, named",
        [
            ([1.0, np.nan], [2.0], 4000.0, 25.6, "nan"),
            ([1.0], [2.0, np.nan, 3.0], 4000.0, 25.6, "nan"),
            ([np.nan], [2.0], 4000.0, 25.6, "nan"),
            ([1.0], [np.inf], 4000.0, 25.6, "inf"),
            ([-np.inf, 1.0], [2.0], 4000.0, 25.6, "-inf"),
            ([1.0], [2.0], np.nan, 25.6, "nan"),
            ([1.0], [2.0], 4000.0, np.nan, "nan"),
            ([1.0], [2.0], np.inf, 25.6, "inf"),
            ([1.0], [2.0], 4000.0, np.inf, "inf"),
            ([1.0], [2.0], 1e18, 1e-3, "1e+18"),
            ([[0.0, 1.0]], [2.0], 4000.0, 25.6, "(1, 2)"),
            (["a"], [1.0], 100.0, 25.6, "trigger stream"),
            ([1.0], [1.0 + 2.0j], 100.0, 25.6, "partner stream"),
        ],
    )
    def test_invalid_input_is_usage_error_naming_it(
        self, triggers, partners, window_ns, bin_ns, named
    ):
        with pytest.raises(UsageError, match=re.escape(named)):
            sfwm.build_histogram(np.array(triggers), np.array(partners), window_ns, bin_ns)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        triggers=LATTICE,
        partners=LATTICE,
        origin=st.sampled_from([0.0, -512.0, 1e6 + 0.1]),
        bin_ns=st.sampled_from([25.6, 12.8]),
        n_bins=st.sampled_from([1, 2, 3, 156, 159]),
        spare=st.sampled_from([0.0, 0.5]),
        # Gathers in blocks of whole triggers, one trigger alone when it has more pairings.
        block=st.sampled_from([detector._GATHER_BLOCK, 1, 2, 5]),
    )
    @example(triggers=[3], partners=[159], origin=0.0, bin_ns=25.6, n_bins=156, spare=0.25,
             block=detector._GATHER_BLOCK)
    def test_matches_pair_loop(self, triggers, partners, origin, bin_ns, n_bins, spare, block):
        triggers = np.array([origin + k * 25.6 for k in triggers])
        partners = np.array([origin + k * 25.6 for k in partners])
        window = (n_bins + spare) * bin_ns
        with mock.patch.object(detector, "_GATHER_BLOCK", block):
            hist = sfwm.build_histogram(triggers, partners, window, bin_ns)
        np.testing.assert_array_equal(hist.counts,
                                      pair_loop_counts(triggers, partners, window, bin_ns))

    @pytest.mark.parametrize("n_bins", [156, 2**18])  # about 0 and 4 partners a window
    def test_matches_two_searches_on_generated_tags(self, n_bins):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        dm = model(accumulation_s=70.0, seed=6, success_probability=0.0088)
        trig, part = sfwm.generate_timetags(w, dm, 1.0)
        assert 90_000 < trig.size + part.size < 110_000
        hist = sfwm.build_histogram(trig, part, n_bins * 25.6, 25.6)
        np.testing.assert_array_equal(hist.counts,
                                      two_search_counts(trig, part, n_bins * 25.6, 25.6))

    @pytest.mark.parametrize("n_bins", [156, 2**18])
    def test_small_gather_blocks_match_two_searches(self, n_bins):
        with mock.patch.object(detector, "_GATHER_BLOCK", 1000):
            self.test_matches_two_searches_on_generated_tags(n_bins)

    def test_dense_window_gathers_in_bounded_memory(self):
        """500 triggers each paired with 20,000 partners: 10 M pairings, which
        one flat gather would hold as several arrays of 80 MB each."""
        code = (
            "import resource, numpy as np, sfwm\n"
            "triggers = np.linspace(0.0, 499.0, 500)\n"
            "partners = np.linspace(500.0, 3500.0, 20000)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "hist = sfwm.build_histogram(triggers, partners, 3993.6, 25.6)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(int(hist.counts.sum()), (after - before) // 1024)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        pairings, growth_mb = map(int, done.stdout.split())
        assert pairings == 500 * 20_000
        assert growth_mb < 128


class TestRoundTripUnbiased:
    @pytest.mark.parametrize(
        "tau_true,peak_sbr,accumulation_s,p_mw",
        [(260.0, 42.0, 1200.0, 1.0), (560.0, 5.4, 2400.0, 0.05)],
    )
    def test_fit_recovery_is_unbiased(self, tau_true, peak_sbr, accumulation_s, p_mw):
        """Mean recovered (tau, SBR) over seeds sits within Monte Carlo error.

        The decay constant is strictly unbiased.  The S/y0 ratio carries the
        intrinsic convexity bias of dividing by a finite-sample baseline
        estimate (~2% at a 14-count floor), so it gets that much headroom.
        """
        shape = exponential_packet(1.0, tau_true, onset_ns=200.0, span_ns=4000.0)
        taus, ratios = [], []
        for seed in range(100):
            dm = model(accumulation_s=accumulation_s, seed=seed)
            hist = sfwm.synth_histogram(shape, dm, p_mw, peak_sbr=peak_sbr)
            fit = sfwm.fit_exponential(hist.to_wavepacket())
            taus.append(fit.tau_ns)
            ratios.append(sfwm.sbr(fit))
        taus = np.array(taus)
        sigma_mean = taus.std(ddof=1) / np.sqrt(taus.size)
        assert abs(taus.mean() - tau_true) <= 3.0 * sigma_mean
        ratios = np.array(ratios)
        sigma_mean = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(ratios.mean() - peak_sbr) <= max(3.0 * sigma_mean, 0.025 * peak_sbr)


class TestTimeTags:
    def test_needs_a_success_probability(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        with pytest.raises(UsageError, match="success_probability"):
            sfwm.generate_timetags(w, model(accumulation_s=20.0), 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_packet_values_cannot_change_after_construction(self, value):
        """A nan drew no pairs and no error, an inf failed inside numpy, and
        the area summed either in.  The packet refuses them when it is
        built, its arrays are read-only, and the caller's array is a copy
        it does not follow."""
        t = np.arange(0.0, 4000.0, 25.6)
        g2 = np.exp(-t / 300.0)
        w = sfwm.WavePacket(t, g2, 25.6)
        g2[40] = value
        with pytest.raises(UsageError, match="finite and nonnegative"):
            sfwm.WavePacket(t, g2, 25.6)
        with pytest.raises(ValueError, match="read-only"):
            w.g2[40] = value
        assert w.g2[40] == math.exp(-t[40] / 300.0)
        dm = model(accumulation_s=10.0, success_probability=0.0088)
        assert sfwm.generate_timetags(w, dm, 1.0)[0].size > 0
        assert math.isfinite(sfwm.wavepacket_area(w))

    def test_empty_duration(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        dm = model(accumulation_s=0.0, success_probability=0.0088)
        trig, part = sfwm.generate_timetags(w, dm, 1.0)
        assert trig.size == 0 and part.size == 0

    def test_expected_events_bound(self, monkeypatch):
        """(trigger_cps + background) * accumulation_s, 14000 here, may reach
        the bound but not pass it; past it nothing is drawn."""
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        with pytest.raises(UsageError, match="accumulation_s or trigger_cps"):
            sfwm.generate_timetags(w, model(accumulation_s=1e9, success_probability=0.5), 1.0)
        dm = model(accumulation_s=10.0, success_probability=0.5)
        monkeypatch.setattr(detector, "MAX_TIMETAG_EVENTS", 14000)
        trig, _ = sfwm.generate_timetags(w, dm, 1.0)
        assert trig.size > 0
        monkeypatch.setattr(detector, "MAX_TIMETAG_EVENTS", 13999)
        with pytest.raises(UsageError, match="accumulation_s or trigger_cps"):
            sfwm.generate_timetags(w, dm, 1.0)

    def test_zero_success_gives_pure_background(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        duration = 50.0
        dm = model(accumulation_s=duration, seed=5, success_probability=0.0)
        trig, part = sfwm.generate_timetags(w, dm, 1.0)
        mu = sfwm.background_rate(1.0) * duration
        assert abs(part.size - mu) <= 3.0 * np.sqrt(mu)
        mu_t = 840.0 * duration
        assert abs(trig.size - mu_t) <= 3.0 * np.sqrt(mu_t)

    def test_streams_are_sorted(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        dm = model(accumulation_s=20.0, seed=2, success_probability=0.0088)
        trig, part = sfwm.generate_timetags(w, dm, 1.0)
        assert np.all(np.diff(trig) >= 0)
        assert np.all(np.diff(part) >= 0)

    def test_matches_synthetic_histogram_means(self):
        """Event-level generator and per-bin Poisson model agree bin by bin."""
        w = exponential_packet(1.0, 260.0, onset_ns=200.0, span_ns=4000.0)
        duration = 400.0
        dm = model(accumulation_s=duration, seed=14, success_probability=0.0088)
        trig, part = sfwm.generate_timetags(w, dm, 1.0)
        window = w.tau_ns.size * 25.6
        hist = sfwm.build_histogram(trig, part, window, 25.6)
        means = sfwm.expected_bins(w, dm, 1.0)
        assert hist.counts.size == means.size
        z = np.abs(hist.counts - means) / np.sqrt(means)
        assert z.max() <= 3.0
        total_sigma = np.sqrt(means.sum())
        assert abs(hist.counts.sum() - means.sum()) <= 3.0 * total_sigma

    def test_file_round_trip(self, tmp_path):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        scenario = run(accumulation_s=5.0, seed=21, success_probability=0.0088)
        trig, part = sfwm.generate_timetags(w, scenario.detection, 1.0)
        path = tmp_path / "tags.txt"
        sfwm.write_timetags(path, trig, part, scenario)
        trig2, part2 = sfwm.read_timetags(path)
        assert trig2.size == trig.size and part2.size == part.size
        # picosecond quantization: at most half a ps plus representation slack
        assert np.max(np.abs(np.sort(trig) - trig2)) <= 1e-3
        assert np.max(np.abs(np.sort(part) - part2)) <= 1e-3

    @pytest.mark.parametrize(
        "triggers, partners",
        [
            ([np.nan, 1.0], []), ([1.0], [np.inf]), ([1.0], [-np.inf]), ([1e16], []),
            ([[0.0, 1.0]], [2.0]), ([1.0], [2.0 + 1j]),  # not one-dimensional, not real
        ],
    )
    def test_write_rejects_unrepresentable_stamps(self, tmp_path, triggers, partners):
        path = tmp_path / "tags.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError):
                sfwm.write_timetags(path, np.array(triggers), np.array(partners), run())
        assert not path.exists()

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a tag file\n")
        with pytest.raises(UsageError):
            sfwm.read_timetags(path)

    def test_read_rejects_v1_file(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("# sfwm-timetags v1\n# seed: 1\n0,1000\n1,2500\n")
        with pytest.raises(UsageError, match="v1 .* no longer read: write it again with `sfwm synth"):
            sfwm.read_timetags(path)


def reference_timetag_text(triggers_ns, partners_ns, scenario) -> str:
    """The time-tag file format written one record at a time."""
    ids = [0] * len(triggers_ns) + [1] * len(partners_ns)
    stamps = [int(round(t * 1e3)) for t in list(triggers_ns) + list(partners_ns)]
    # Zero-padded to the largest |stamp|, with a sign slot when any is negative.
    width = len(str(max(map(abs, stamps), default=0))) + any(s < 0 for s in stamps)
    lines = [
        "# sfwm-timetags v2",
        f"# seed: {scenario.detection.seed}",
        f"# scenario-sha256: {scenario.sha256}",
        f"# duration_s: {scenario.detection.accumulation_s!r}",
        "# columns: stream_id,timestamp_ps",
    ]
    order = sorted(range(len(ids)), key=lambda i: (stamps[i], ids[i]))
    lines += [f"{ids[i]},{stamps[i]:0{width}d}" for i in order]
    return "\n".join(lines) + "\n"


class TestTimeTagFormat:
    def check_bytes(self, tmp_path, triggers, partners, accumulation_s=5.0):
        scenario = run(accumulation_s=accumulation_s, seed=4)
        path = tmp_path / "tags.txt"
        sfwm.write_timetags(path, np.asarray(triggers), np.asarray(partners), scenario)
        expected = reference_timetag_text(triggers, partners, scenario)
        assert path.read_bytes() == expected.encode()
        return path

    def test_negative_stamps(self, tmp_path):
        # Partners of triggers near t = 0 at delays on a tau axis from -333.3 ns.
        triggers = np.array([0.0, 12.8, 900.0])
        partners = triggers + np.array([-333.3, -12.80049, 25.6]) + 0.25
        assert partners.min() < 0.0
        path = self.check_bytes(tmp_path, triggers, partners)
        assert path.read_text().splitlines()[5:8] == ["1,-333050", "0,0000000", "1,0000250"]

    def test_same_picosecond_puts_trigger_first(self, tmp_path):
        path = self.check_bytes(tmp_path, [10.0, 20.0004], [10.0, 20.0, 5.0001])
        body = path.read_text().splitlines()[5:]
        assert body == ["1,05000", "0,10000", "1,10000", "0,20000", "1,20000"]

    def test_unsorted_input(self, tmp_path):
        rng = np.random.default_rng(5)
        self.check_bytes(tmp_path, rng.uniform(-1e3, 1e6, 300), rng.uniform(0.0, 1e6, 400))

    def test_empty_streams(self, tmp_path):
        path = self.check_bytes(tmp_path, [], [], 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trig, part = sfwm.read_timetags(path)
        assert trig.size == 0 and part.size == 0

    def test_more_records_than_one_block(self, tmp_path):
        rng = np.random.default_rng(8)
        trig = np.sort(rng.uniform(0.0, 1e9, 50_000))
        part = np.sort(rng.uniform(0.0, 1e9, 40_000))
        path = self.check_bytes(tmp_path, trig, part)
        trig2, part2 = sfwm.read_timetags(path)
        np.testing.assert_array_equal(trig2, np.round(trig * 1e3) / 1e3)
        np.testing.assert_array_equal(part2, np.round(part * 1e3) / 1e3)

    @pytest.mark.parametrize(
        "record", ["1,abc", "1", "0,1,2", "1,2.5", "1,1e3", "2,100", "-1,100", ","]
    )
    def test_malformed_record_is_usage_error(self, tmp_path, record):
        path = tmp_path / "tags.txt"
        path.write_text(f"# sfwm-timetags v2\n0,1000\n{record}\n")
        with pytest.raises(UsageError):
            sfwm.read_timetags(path)
        path.write_text(f"# sfwm-timetags v2\n{record}\n")
        with pytest.raises(UsageError):
            sfwm.read_timetags(path)


# One record line: the reader must agree with it.  A stamp has at most 20
# characters, so a 20-digit one has a leading zero in the sign slot.
RECORD = re.compile(rb"([01]),(-[0-9]{1,19}|[0-9]{1,20})\n")


def reference_parse(body: bytes):
    """(triggers, partners) in ns of the file body after a one-line header,
    or the number of its first bad line (the header is line 1)."""
    lines = re.findall(rb"[^\n]*\n|[^\n]+\Z", body)
    first = 2
    while lines and lines[0].startswith(b"#"):
        lines.pop(0)
        first += 1
    streams = ([], [])
    for number, line in enumerate(lines, start=first):
        match = RECORD.fullmatch(line)
        if len(line) != len(lines[0]) or match is None or abs(int(match[2])) >= 2**63:
            return number
        streams[int(match[1])].append(int(match[2]))
    return tuple(np.array(sorted(s), dtype=np.int64) / 1e3 for s in streams)


MALFORMED = [
    " 0,1000", "0, 1000", "0,1000 ", "0 ,1000", "\t0,1000",  # whitespace around a field
    "+0,1000", "0,+1000",  # a plus sign
    "0,1000 # note", "0,1000#note", "# note", "#,12345",  # a comment
    "", "0,1000\r",  # a blank line, a CRLF ending
    "0,12345678901234567890", "0,99999999999999999999",  # 20 digits, wrapping in uint64 or not
    "1,-12345678901234567890", "0,000000000000000000001",  # 21 characters
    "0,9223372036854775808", "1,-9223372036854775808",  # 2^63 ps
    "0,12a4", "1,1.5", "0,1\x00", "0,1é", "0,-", "0,1-", "0,--1",  # a non-digit byte
    "2,1000", "-1,100", "0,", "0.1000",  # a bad id or comma, no stamp
]

HEADER = b"# sfwm-timetags v2\n"
FULL_HEADER = (
    b"# sfwm-timetags v2\n# seed: 9\n# scenario-sha256: 0123456789abcdef\n# duration_s: 1.0\n"
    b"# columns: stream_id,timestamp_ps\n"
)


@pytest.fixture
def chunking():
    """Patch the reader's chunk size."""
    return lambda chunk: mock.patch.object(detector, "_READ_CHUNK", chunk)


class TestTimeTagCodec:
    def write(self, tmp_path, triggers_ns, partners_ns, chunk=detector._READ_CHUNK):
        scenario = run(accumulation_s=1.0, seed=9)
        path = tmp_path / "tags.txt"
        sfwm.write_timetags(path, triggers_ns, partners_ns, scenario)
        expected = reference_timetag_text(triggers_ns, partners_ns, scenario)
        assert path.read_bytes() == expected.encode()
        ps = [np.sort(np.round(s * 1e3).astype(np.int64)) for s in (triggers_ns, partners_ns)]
        with mock.patch.object(detector, "_READ_CHUNK", chunk):
            trig, part = sfwm.read_timetags(path)
        np.testing.assert_array_equal(trig, ps[0] / 1e3)
        np.testing.assert_array_equal(part, ps[1] / 1e3)
        # The benchmark's timetag check parses the same file this way.
        if ps[0].size + ps[1].size:
            data = np.loadtxt(path, delimiter=",", comments="#", dtype=np.int64, ndmin=2)
            assert data.shape == (ps[0].size + ps[1].size, 2)
            assert set(data[:, 0].tolist()) <= {0, 1}
            for sid in (0, 1):
                np.testing.assert_array_equal(np.sort(data[data[:, 0] == sid, 1]), ps[sid])

    def test_every_digit_count_and_both_signs(self, tmp_path):
        ps = [0]
        for digits in range(1, 20):
            lo = 10 ** (digits - 1)
            hi = min(10**digits - 1, 4_600_000_000_000_000_000)  # 2^62 ps is 4.61e18
            ps += [lo, (lo + hi) // 2, hi]
        ps = np.array(ps, dtype=float)
        assert np.all(ps / 1e3 < 2.0**62 / 1e3)
        self.write(tmp_path, ps / 1e3, -ps[::-1] / 1e3)
        self.write(tmp_path, np.concatenate([ps, -ps]) / 1e3, ps[1::2] / 1e3)
        # Each digit count as the file's widest, with and without a sign slot.
        for top in ps[1::3]:
            self.write(tmp_path, np.array([0.0, top]) / 1e3, np.array([top]) / 1e3)
            self.write(tmp_path, np.array([-top, 0.0]) / 1e3, np.array([1.0, top]) / 1e3)

    def test_runs_cross_block_boundaries(self, tmp_path):
        rng = np.random.default_rng(17)
        ps = rng.integers(-(10**7), 10**7, 150_000)  # 2.3 write blocks, 8 digits and a sign
        triggers = ps[:90_000] / 1e3
        partners = np.concatenate([ps[90_000:], ps[:500]]) / 1e3  # ties with triggers
        self.write(tmp_path, triggers, partners)
        self.write(tmp_path, triggers, partners, chunk=1000)  # 3,000 read blocks

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        triggers=st.lists(st.floats(-1e6, 1e6) | st.floats(-4.6e15, 4.6e15), max_size=200),
        partners=st.lists(st.floats(-1e6, 1e6) | st.floats(-4.6e15, 4.6e15), max_size=200),
        ties=st.integers(0, 200),
        chunk=st.sampled_from([1 << 20, 64, 1]),
    )
    def test_round_trip_is_exact_in_picoseconds(self, tmp_path, triggers, partners, ties, chunk):
        partners = partners + triggers[:ties]  # equal stamps on both ids
        self.write(tmp_path, np.array(triggers, dtype=float), np.array(partners, dtype=float),
                   chunk=chunk)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), chunk=st.sampled_from([1 << 20, 48, 1]))
    def test_reader_matches_reference_parser(self, tmp_path, chunking, data, chunk):
        # Records of one length, as the writer makes them.
        digits = data.draw(st.integers(1, 19))
        signed = data.draw(st.booleans())
        top = min(10**digits - 1, 2**63 - 1)
        items = st.tuples(st.sampled_from("01"), st.integers(-top if signed else 0, top))
        lines = [f"{i},{v:0{digits + signed}d}\n" for i, v in data.draw(st.lists(items, max_size=20))]
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(MALFORMED)) + "\n")
        body = "".join(lines).encode()
        if body and data.draw(st.booleans()):
            body = body[: data.draw(st.integers(0, len(body) - 1))]  # a truncated end
        path = tmp_path / "tags.txt"
        path.write_bytes(HEADER + body)
        expected = reference_parse(body)
        with chunking(chunk):
            if isinstance(expected, int):
                with pytest.raises(UsageError, match=f", line {expected}: "):
                    sfwm.read_timetags(path)
            else:
                trig, part = sfwm.read_timetags(path)
                np.testing.assert_array_equal(trig, expected[0])
                np.testing.assert_array_equal(part, expected[1])

    @pytest.mark.parametrize("record", MALFORMED)
    def test_malformed_record_names_its_line(self, tmp_path, chunking, record):
        path = tmp_path / "tags.txt"
        bad = record.encode()
        # A good record of the bad line's own length, where a record can have it.
        good = b"0," + b"0" * (min(max(len(bad), 3), 22) - 3) + b"1\n"
        for before in (1, 600):
            path.write_bytes(FULL_HEADER + good * before + bad + b"\n" + good * 600)
            for chunk in (1 << 20, 100):
                with chunking(chunk), pytest.raises(UsageError, match=f", line {before + 6}: "):
                    sfwm.read_timetags(path)

    def test_truncated_last_record_names_its_line(self, tmp_path, chunking):
        path = tmp_path / "tags.txt"
        sfwm.write_timetags(path, np.arange(100.0), np.arange(50.0) + 0.5, run())
        text = path.read_bytes()
        for cut in (1, 3, 7):  # the last newline, a digit, the whole stamp
            path.write_bytes(text[:-cut])
            for chunk in (1 << 20, 24, 1):
                with chunking(chunk), pytest.raises(UsageError, match=", line 155: "):
                    sfwm.read_timetags(path)

    def read_body(self, tmp_path, body: bytes) -> int:
        """Read a file body as the reference parser does; return the number
        of _parse_records calls."""
        path = tmp_path / "tags.txt"
        path.write_bytes(HEADER + body)
        expected = reference_parse(body)
        with mock.patch.object(detector, "_parse_records", wraps=detector._parse_records) as parse:
            if isinstance(expected, int):
                with pytest.raises(UsageError, match=f", line {expected}: "):
                    sfwm.read_timetags(path)
            else:
                trig, part = sfwm.read_timetags(path)
                np.testing.assert_array_equal(trig, expected[0])
                np.testing.assert_array_equal(part, expected[1])
        return parse.call_count

    def test_each_block_is_one_step(self, tmp_path, chunking):
        # Negative 7-digit and positive 8-digit stamps share one record length.
        body = b"".join(b"%d,%08d\n" % (k % 2, -(10**6 + k) if k % 3 else 10**7 + k)
                        for k in range(3000))
        assert self.read_body(tmp_path, body) == 1
        with chunking(1000):  # 90 records of 11 bytes a block
            assert self.read_body(tmp_path, body) == math.ceil(3000 / 90)

    def test_two_short_records_filling_one_stride(self, tmp_path):
        # Stride 15: the first line, then rows of two valid shorter records.
        body = b"0,123456789012\n" + b"0,123\n1,123456\n" * 400
        assert reference_parse(body) == 3
        self.read_body(tmp_path, body)

    @pytest.mark.parametrize("comment", [b"#,12345", b"#1234567", b"0#12345"])
    def test_comment_of_record_length_in_a_run(self, tmp_path, comment):
        body = b"0,12345\n" * 300 + comment + b"\n" + b"1,-1234\n" * 300
        assert reference_parse(body) == 302
        self.read_body(tmp_path, body)

    @pytest.mark.parametrize("lines", [
        [b"0,12345\r\n", b"0,123456\n"],  # a CRLF stride, then an LF line of that stride
        [b"0,123456\n", b"0,12345\r\n"],  # the reverse
        [b"0,12345\n", b"0,1234560,12345\n"],  # a malformed line two strides long
    ])
    def test_rows_of_one_stride_that_are_not_one_line_each(self, tmp_path, lines):
        self.read_body(tmp_path, lines[0] * 300 + lines[1] + lines[0] * 300)

    def test_malformed_record_in_a_clean_chunk_names_its_line(self, tmp_path):
        body = b"0,12345\n" * 400 + b"0,12a45\n" + b"1,12345\n" * 400
        assert reference_parse(body) == 402
        self.read_body(tmp_path, body)

    def test_record_of_another_length_names_its_line(self, tmp_path):
        rng = np.random.default_rng(23)
        body = b"".join(b"%d,%09d\n" % (k % 2, v) for k, v in enumerate(rng.integers(0, 10**9, 500)))
        for other in (b"1,12345678\n", b"1,1234567890\n", b"\n"):
            assert reference_parse(body + other + body) == 502
            self.read_body(tmp_path, body + other + body)
