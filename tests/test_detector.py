import contextlib
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sfwm
from sfwm import detector
from sfwm.errors import UsageError

from conftest import BAD_DELAY_GRIDS, exponential_packet


def model(**kw):
    return sfwm.DetectionModel(**kw)


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
        assert model(seed=np.int64(7)).fingerprint() == model(seed=7).fingerprint()

    def test_fingerprint_tracks_fields(self):
        assert model().fingerprint() == model().fingerprint()
        assert model(seed=1).fingerprint() != model(seed=2).fingerprint()


class TestExpectedBins:
    def test_exactly_one_normalization(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        with pytest.raises(UsageError):
            sfwm.expected_bins(w, model(), 1.0)
        with pytest.raises(UsageError):
            sfwm.expected_bins(w, model(), 1.0, peak_sbr=42.0, success_probability=0.01)

    def test_doubling_accumulation_doubles_means_exactly(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        m1 = sfwm.expected_bins(w, model(accumulation_s=1200.0), 1.0, success_probability=0.0088)
        m2 = sfwm.expected_bins(w, model(accumulation_s=2400.0), 1.0, success_probability=0.0088)
        assert np.array_equal(2.0 * m1, m2)

    def test_background_only_is_uniform(self):
        w = exponential_packet(0.0, 260.0, span_ns=4000.0)
        means = sfwm.expected_bins(w, model(), 1.0, success_probability=0.0)
        assert np.all(means == means[0])
        expected = 840.0 * 560.0 * 25.6e-9 * 1200.0
        assert means[0] == pytest.approx(expected, rel=1e-12)


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
        hist = sfwm.synth_histogram(w, model(seed=3), 1.0, success_probability=0.0)
        mu = 840.0 * 560.0 * 25.6e-9 * 1200.0
        n = hist.counts.size
        assert abs(hist.counts.mean() - mu) <= 3.0 * np.sqrt(mu / n)

    def test_total_counts_match_expectation(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        totals = []
        mu_total = None
        for seed in range(20):
            dm = model(seed=seed)
            mu_total = sfwm.expected_bins(w, dm, 1.0, success_probability=0.0088).sum()
            totals.append(sfwm.synth_histogram(w, dm, 1.0, success_probability=0.0088).counts.sum())
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

    def test_unsorted_streams_rejected(self):
        with pytest.raises(UsageError):
            sfwm.build_histogram(np.array([5.0, 1.0]), np.array([2.0]), 100.0)
        with pytest.raises(UsageError):
            sfwm.build_histogram(np.array([1.0]), np.array([5.0, 2.0]), 100.0)

    def test_invariant_to_stream_concatenation_order(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1e6, 500)
        b = rng.uniform(0, 1e6, 700)
        triggers = np.sort(rng.uniform(0, 1e6, 300))
        one = sfwm.build_histogram(triggers, np.sort(np.concatenate([a, b])), 2000.0)
        two = sfwm.build_histogram(triggers, np.sort(np.concatenate([b, a])), 2000.0)
        assert np.array_equal(one.counts, two.counts)


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
    def test_empty_duration(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        trig, part = sfwm.generate_timetags(w, model(), 0.0, 1.0, 0.0088)
        assert trig.size == 0 and part.size == 0

    def test_zero_success_gives_pure_background(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        duration = 50.0
        trig, part = sfwm.generate_timetags(w, model(seed=5), duration, 1.0, 0.0)
        mu = sfwm.background_rate(1.0) * duration
        assert abs(part.size - mu) <= 3.0 * np.sqrt(mu)
        mu_t = 840.0 * duration
        assert abs(trig.size - mu_t) <= 3.0 * np.sqrt(mu_t)

    def test_streams_are_sorted(self):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        trig, part = sfwm.generate_timetags(w, model(seed=2), 20.0, 1.0, 0.0088)
        assert np.all(np.diff(trig) >= 0)
        assert np.all(np.diff(part) >= 0)

    def test_matches_synthetic_histogram_means(self):
        """Event-level generator and per-bin Poisson model agree bin by bin."""
        w = exponential_packet(1.0, 260.0, onset_ns=200.0, span_ns=4000.0)
        duration = 400.0
        dm = model(accumulation_s=duration, seed=14)
        trig, part = sfwm.generate_timetags(w, dm, duration, 1.0, 0.0088)
        window = w.tau_ns.size * 25.6
        hist = sfwm.build_histogram(trig, part, window, 25.6)
        means = sfwm.expected_bins(w, dm, 1.0, success_probability=0.0088)
        assert hist.counts.size == means.size
        z = np.abs(hist.counts - means) / np.sqrt(means)
        assert z.max() <= 3.0
        total_sigma = np.sqrt(means.sum())
        assert abs(hist.counts.sum() - means.sum()) <= 3.0 * total_sigma

    def test_file_round_trip(self, tmp_path):
        w = exponential_packet(1.0, 260.0, span_ns=4000.0)
        dm = model(seed=21)
        trig, part = sfwm.generate_timetags(w, dm, 5.0, 1.0, 0.0088)
        path = tmp_path / "tags.txt"
        sfwm.write_timetags(path, trig, part, dm, 5.0)
        trig2, part2 = sfwm.read_timetags(path)
        assert trig2.size == trig.size and part2.size == part.size
        # picosecond quantization: at most half a ps plus representation slack
        assert np.max(np.abs(np.sort(trig) - trig2)) <= 1e-3
        assert np.max(np.abs(np.sort(part) - part2)) <= 1e-3

    @pytest.mark.parametrize(
        "triggers, partners",
        [([np.nan, 1.0], []), ([1.0], [np.inf]), ([1.0], [-np.inf]), ([1e16], [])],
    )
    def test_write_rejects_unrepresentable_stamps(self, tmp_path, triggers, partners):
        path = tmp_path / "tags.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError):
                sfwm.write_timetags(path, np.array(triggers), np.array(partners), model(), 1.0)
        assert not path.exists()

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a tag file\n")
        with pytest.raises(UsageError):
            sfwm.read_timetags(path)


def reference_timetag_text(triggers_ns, partners_ns, dm, duration_s) -> str:
    """The time-tag file format written one record at a time."""
    ids = [0] * len(triggers_ns) + [1] * len(partners_ns)
    stamps = [int(round(t * 1e3)) for t in list(triggers_ns) + list(partners_ns)]
    lines = [
        "# sfwm-timetags v1",
        f"# seed: {dm.seed}",
        f"# model: {dm.fingerprint()}",
        f"# duration_s: {duration_s!r}",
        "# columns: stream_id,timestamp_ps",
    ]
    lines += [f"{ids[i]},{stamps[i]}" for i in sorted(range(len(ids)), key=lambda i: (stamps[i], ids[i]))]
    return "\n".join(lines) + "\n"


class TestTimeTagFormat:
    def check_bytes(self, tmp_path, triggers, partners, duration_s=5.0):
        dm = model(seed=4)
        path = tmp_path / "tags.txt"
        sfwm.write_timetags(path, np.asarray(triggers), np.asarray(partners), dm, duration_s)
        expected = reference_timetag_text(triggers, partners, dm, duration_s)
        assert path.read_bytes() == expected.encode()
        return path

    def test_negative_stamps(self, tmp_path):
        # Partners of triggers near t = 0 at delays on a tau axis from -333.3 ns.
        triggers = np.array([0.0, 12.8, 900.0])
        partners = triggers + np.array([-333.3, -12.80049, 25.6]) + 0.25
        assert partners.min() < 0.0
        path = self.check_bytes(tmp_path, triggers, partners)
        assert path.read_text().splitlines()[5:7] == ["1,-333050", "0,0"]

    def test_same_picosecond_puts_trigger_first(self, tmp_path):
        path = self.check_bytes(tmp_path, [10.0, 20.0004], [10.0, 20.0, 5.0001])
        body = path.read_text().splitlines()[5:]
        assert body == ["1,5000", "0,10000", "1,10000", "0,20000", "1,20000"]

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

    def test_read_skips_comment_and_blank_lines(self, tmp_path):
        path = tmp_path / "tags.txt"
        path.write_text("# sfwm-timetags v1\n0,1000\n\n# note\n1,2500\n\n0,3000\n")
        trig, part = sfwm.read_timetags(path)
        np.testing.assert_array_equal(trig, [1.0, 3.0])
        np.testing.assert_array_equal(part, [2.5])

    @pytest.mark.parametrize(
        "record", ["1,abc", "1", "0,1,2", "1,2.5", "1,1e3", "2,100", "-1,100", ","]
    )
    def test_malformed_record_is_usage_error(self, tmp_path, record):
        path = tmp_path / "tags.txt"
        path.write_text(f"# sfwm-timetags v1\n0,1000\n{record}\n")
        with pytest.raises(UsageError):
            sfwm.read_timetags(path)
        path.write_text(f"# sfwm-timetags v1\n{record}\n")
        with pytest.raises(UsageError):
            sfwm.read_timetags(path)


# The record grammar, one line at a time: the reader must agree with it.
RECORD = re.compile(rb"([01]),(-?[0-9]{1,19})")


def reference_parse(body: bytes):
    """(triggers, partners) in ns of a file body, or the number of its first
    bad line (the header is line 1)."""
    streams = ([], [])
    lines = body.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    for number, line in enumerate(lines, start=2):
        if line.endswith(b"\r"):
            line = line[:-1]
        if not line or line.startswith(b"#"):
            continue
        match = RECORD.fullmatch(line)
        if match is None or abs(int(match[2])) >= 2**63:
            return number
        streams[int(match[1])].append(int(match[2]))
    return tuple(np.array(sorted(s), dtype=np.int64) / 1e3 for s in streams)


MALFORMED = [
    " 0,1000", "0, 1000", "0,1000 ", "0 ,1000", "\t0,1000",  # whitespace around a field
    "+0,1000", "0,+1000",  # a plus sign
    "0,1000 # note", "0,1000#note",  # an inline comment
    "0,12345678901234567890", "1,-12345678901234567890",  # 20 digits
    "0,00000000000000000001", "0,99999999999999999999",  # 20 digits, small or wrapping in uint64
    "0,9223372036854775808", "1,-9223372036854775808",  # 2^63 ps
    "0,12a4", "1,1.5", "0,1\x00", "0,1é", "0,-", "0,1-",  # a non-digit byte
]


@pytest.fixture
def chunking():
    """Patch the reader's chunk size and in-place run length."""
    def patch(chunk, min_run):
        stack = contextlib.ExitStack()
        stack.enter_context(mock.patch.object(detector, "_READ_CHUNK", chunk))
        stack.enter_context(mock.patch.object(detector, "_MIN_RUN", min_run))
        return stack
    return patch


class TestTimeTagCodec:
    def write(self, tmp_path, triggers_ns, partners_ns):
        dm = model(seed=9)
        path = tmp_path / "tags.txt"
        sfwm.write_timetags(path, triggers_ns, partners_ns, dm, 1.0)
        expected = reference_timetag_text(triggers_ns, partners_ns, dm, 1.0)
        assert path.read_bytes() == expected.encode()
        trig, part = sfwm.read_timetags(path)
        np.testing.assert_array_equal(trig, np.sort(np.round(triggers_ns * 1e3)) / 1e3)
        np.testing.assert_array_equal(part, np.sort(np.round(partners_ns * 1e3)) / 1e3)

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

    def test_runs_cross_block_boundaries(self, tmp_path):
        rng = np.random.default_rng(17)
        ps = rng.integers(-(10**7), 10**7, 150_000)  # 2.3 blocks, widths 1 to 8
        triggers = ps[:90_000] / 1e3
        partners = np.concatenate([ps[90_000:], ps[:500]]) / 1e3  # ties with triggers
        self.write(tmp_path, triggers, partners)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        triggers=st.lists(st.floats(-1e6, 1e6) | st.floats(-4.6e15, 4.6e15), max_size=200),
        partners=st.lists(st.floats(-1e6, 1e6) | st.floats(-4.6e15, 4.6e15), max_size=200),
    )
    def test_round_trip_is_exact_in_picoseconds(self, tmp_path, triggers, partners):
        self.write(tmp_path, np.array(triggers, dtype=float), np.array(partners, dtype=float))

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), sizes=st.sampled_from([(1 << 20, 256), (48, 3), (1, 1)]))
    def test_reader_matches_reference_parser(self, tmp_path, chunking, data, sizes):
        lines = []
        for _ in range(data.draw(st.integers(0, 12))):
            kind = data.draw(st.sampled_from(["run", "record", "comment", "blank"]))
            if kind == "run":  # equal lengths, so in-place parsing
                digits = data.draw(st.integers(1, 19))
                sign = data.draw(st.sampled_from(["", "-"]))
                lo = 10 ** (digits - 1) if digits > 1 else 0
                values = st.integers(lo, min(10**digits - 1, 2**63 - 1))
                items = st.tuples(st.sampled_from("01"), values)
                lines += [f"{i},{sign}{v}" for i, v in data.draw(st.lists(items, max_size=20))]
            elif kind == "record":
                stamp = data.draw(st.integers(-(2**63) + 1, 2**63 - 1))
                lines.append(f"{data.draw(st.sampled_from('01'))},{stamp}")
            elif kind == "comment":
                lines.append("#" + data.draw(st.text(st.characters(exclude_characters="\n\r"))))
            else:
                lines.append("")
        if lines and data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(MALFORMED)))
        endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                                     max_size=len(lines)))
        body = "".join(line + end for line, end in zip(lines, endings))
        if lines and data.draw(st.booleans()):
            body = body.rstrip("\r\n")  # no newline at the end
        body = body.encode()
        path = tmp_path / "tags.txt"
        path.write_bytes(b"# sfwm-timetags v1\n" + body)
        expected = reference_parse(body)
        with chunking(*sizes):
            if isinstance(expected, int):
                with pytest.raises(UsageError, match=f", line {expected}: "):
                    sfwm.read_timetags(path)
            else:
                trig, part = sfwm.read_timetags(path)
                np.testing.assert_array_equal(trig, expected[0])
                np.testing.assert_array_equal(part, expected[1])

    @pytest.mark.parametrize("record", MALFORMED)
    def test_malformed_record_names_its_line(self, tmp_path, record):
        path = tmp_path / "tags.txt"
        bad = record.encode()
        path.write_bytes(b"# sfwm-timetags v1\n0,1\n# note\n" + bad + b"\n1,22\n")
        with pytest.raises(UsageError, match=", line 4: "):
            sfwm.read_timetags(path)
        # Amid runs parsed in place, of the same length where a record can be.
        good = b"1,-" + b"1" * 19 if len(bad) >= 22 else b"0," + b"1" * (len(bad) - 2)
        path.write_bytes(b"# sfwm-timetags v1\n" + (good + b"\n") * 600 + bad + b"\n"
                         + (good + b"\n") * 600)
        with pytest.raises(UsageError, match=", line 602: "):
            sfwm.read_timetags(path)

    def test_alternating_lengths(self, tmp_path):
        """A length change on every line is parsed in a bounded number of steps."""
        rng = np.random.default_rng(23)
        short = rng.integers(10_000, 100_000, 100_000)
        long = rng.integers(10**8, 10**9, 100_000)
        body = "".join(f"0,{a}\n1,{b}\n" for a, b in zip(short, long)).encode()
        path = tmp_path / "tags.txt"
        path.write_bytes(b"# sfwm-timetags v1\n" + body)
        with mock.patch.object(detector, "_parse_records", wraps=detector._parse_records) as parse:
            trig, part = sfwm.read_timetags(path)
        np.testing.assert_array_equal(trig, np.sort(short) / 1e3)
        np.testing.assert_array_equal(part, np.sort(long) / 1e3)
        chunks = len(body) // detector._READ_CHUNK + 1
        assert parse.call_count <= 2 * chunks
