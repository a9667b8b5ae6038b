"""Correlator tests: oracle equivalence, conservation, decay and trace binning."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonkit as pk


def stream(events, duration=None, channel=0):
    ev = np.asarray(events, dtype=np.int64)
    if duration is None:
        duration = int(ev[-1]) if ev.size else 0
    return pk.TimestampStream(channel, ev, duration)


def random_pair(rng, n_a, n_b, span):
    a = stream(np.sort(rng.integers(0, span, n_a)), span)
    b = stream(np.sort(rng.integers(0, span, n_b)), span, channel=1)
    return a, b


class TestCrossCorrelate:
    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(101)
        cases = [(2000, 2000, 10**8), (3000, 500, 10**7),
                 (500, 3000, 10**9), (2500, 2500, 10**6)]
        for n_a, n_b, span in cases:
            a, b = random_pair(rng, n_a, n_b, span)
            fast = pk.cross_correlate(a, b, window=200_000, bin_width=500)
            brute = pk.brute_force_correlate(a, b, window=200_000, bin_width=500)
            np.testing.assert_array_equal(fast.counts, brute.counts)

    @given(st.lists(st.integers(0, 3000), min_size=0, max_size=40),
           st.lists(st.integers(0, 3000), min_size=0, max_size=40),
           st.integers(1, 40), st.integers(0, 200))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_property(self, raw_a, raw_b, bw, extra):
        a = stream(sorted(raw_a), 3000)
        b = stream(sorted(raw_b), 3000, channel=1)
        window = bw + extra
        fast = pk.cross_correlate(a, b, window, bin_width=bw)
        brute = pk.brute_force_correlate(a, b, window, bin_width=bw)
        np.testing.assert_array_equal(fast.counts, brute.counts)

    def test_count_conservation(self):
        rng = np.random.default_rng(7)
        a, b = random_pair(rng, 300, 400, 10**6)
        window = 50_000
        hist = pk.cross_correlate(a, b, window, bin_width=777)
        delta = b.events[None, :] - a.events[:, None]
        n_pairs = int(((delta >= -window) & (delta < window)).sum())
        assert int(hist.counts.sum()) == n_pairs

    def test_reversing_streams_mirrors_the_histogram(self):
        rng = np.random.default_rng(3)
        # even times against odd times: no delay can land on a bin edge,
        # so the mirrored histogram is exactly the reversed one
        a = stream(np.sort(rng.integers(0, 10**6, 800)) * 2, 2 * 10**6)
        b = stream(np.sort(rng.integers(0, 10**6, 800)) * 2 + 1, 2 * 10**6, 1)
        ab = pk.cross_correlate(a, b, window=40_000, bin_width=500)
        ba = pk.cross_correlate(b, a, window=40_000, bin_width=500)
        np.testing.assert_array_equal(ab.counts, ba.counts[::-1])

    def test_worker_count_does_not_change_counts(self):
        rng = np.random.default_rng(11)
        a, b = random_pair(rng, 30_000, 30_000, 10**9)
        one = pk.cross_correlate(a, b, window=10**6, bin_width=500, workers=1)
        three = pk.cross_correlate(a, b, window=10**6, bin_width=500, workers=3)
        np.testing.assert_array_equal(one.counts, three.counts)

    def test_window_edges(self):
        a = stream([5000], 10**5)
        at_minus = pk.cross_correlate(a, stream([4000], 10**5, 1), 1000, 500)
        assert at_minus.counts[0] == 1 and at_minus.counts.sum() == 1
        at_plus = pk.cross_correlate(a, stream([6000], 10**5, 1), 1000, 500)
        assert at_plus.counts.sum() == 0
        just_inside = pk.cross_correlate(a, stream([5999], 10**5, 1), 1000, 500)
        assert just_inside.counts[-1] == 1

    def test_empty_stream_gives_zero_histogram(self):
        a = stream([], 1000)
        b = stream([1, 2, 3], 1000, 1)
        hist = pk.cross_correlate(a, b, window=100, bin_width=10)
        assert hist.counts.sum() == 0
        assert hist.counts.size == 20

    def test_argument_errors(self):
        good = stream([1, 2], 10)
        with pytest.raises(ValueError, match="channel 1 stream is not sorted"):
            stream([5, 3], 10, 1)
        with pytest.raises(ValueError):
            pk.cross_correlate(good, good, window=5, bin_width=0)
        with pytest.raises(ValueError):
            pk.cross_correlate(good, good, window=5, bin_width=10)
        with pytest.raises(ValueError):
            pk.cross_correlate(good, good, window=5, bin_width=1, workers=0)
        with pytest.raises(ValueError, match="workers must be a whole number"):
            pk.cross_correlate(good, good, window=5, bin_width=1, workers=1.5)


class TestSyncDecayHistogram:
    def test_photon_on_sync_lands_in_bin_zero(self):
        h = pk.sync_decay_histogram(stream([200], 1000),
                                    sync=stream([100, 200, 300], 1000, 255),
                                    bin_width=10)
        assert h.counts[0] == 1 and h.counts.sum() == 1
        assert h.period == 100

    def test_delays_measured_from_preceding_sync(self):
        sync = stream([0, 100, 200], 1000, 255)
        photons = stream([0, 5, 99, 105, 250], 1000)
        h = pk.sync_decay_histogram(photons, sync=sync, bin_width=10)
        expect = np.zeros(10, dtype=np.int64)
        expect[0] = 3   # delays 0, 5, 5
        expect[5] = 1   # delay 50
        expect[9] = 1   # delay 99
        np.testing.assert_array_equal(h.counts, expect)
        assert h.discarded == 0

    def test_before_first_sync_discarded(self):
        h = pk.sync_decay_histogram(stream([50, 150], 1000),
                                    sync=stream([100, 200, 300], 1000, 255),
                                    bin_width=10)
        assert h.discarded == 1
        assert h.counts.sum() == 1

    def test_skipped_sync_overflow_discarded(self):
        # last sync at 1000, photon 1500 ps later than the bin range covers
        h = pk.sync_decay_histogram(stream([2500], 5000),
                                    sync=stream([0, 1000], 5000, 255),
                                    bin_width=100)
        assert h.discarded == 1
        assert h.counts.sum() == 0

    def test_conservation(self):
        rng = np.random.default_rng(17)
        photons = stream(np.sort(rng.integers(0, 10**6, 5000)), 10**6)
        sync = stream(np.arange(500, 10**6, 1000), 10**6, 255)
        h = pk.sync_decay_histogram(photons, sync=sync, bin_width=50)
        assert int(h.counts.sum()) + h.discarded == len(photons)

    def test_explicit_period_is_modular(self):
        photons = stream([0, 150, 270, 999], 1000)
        h = pk.sync_decay_histogram(photons, period=100, bin_width=10)
        expect = np.zeros(10, dtype=np.int64)
        expect[0] = 1   # 0
        expect[5] = 1   # 150 -> 50
        expect[7] = 1   # 270 -> 70
        expect[9] = 1   # 999 -> 99
        np.testing.assert_array_equal(h.counts, expect)
        assert h.discarded == 0

    def test_explicit_period_wins_over_sync(self):
        photons = stream([130], 1000)
        sync = stream([0, 500], 1000, 255)
        h = pk.sync_decay_histogram(photons, sync=sync, period=100, bin_width=10)
        assert h.period == 100
        assert h.counts[3] == 1

    def test_argument_errors(self):
        photons = stream([1, 2, 3], 10)
        with pytest.raises(ValueError):
            pk.sync_decay_histogram(photons)
        with pytest.raises(ValueError):
            pk.sync_decay_histogram(photons, sync=stream([5], 10, 255))
        with pytest.raises(ValueError):
            pk.sync_decay_histogram(photons, period=100, bin_width=200)
        with pytest.raises(ValueError):
            pk.sync_decay_histogram(photons, period=0)
        with pytest.raises(ValueError):
            pk.sync_decay_histogram(photons, period=100, bin_width=0)
        with pytest.raises(ValueError):
            pk.sync_decay_histogram(stream([3, 1], 10), period=100, bin_width=10)


class TestPeriodicSyncOracle:
    """A PeriodicStream sync must bin exactly like its materialized pulses,
    which go through the explicit-stream search."""

    @given(photons=st.lists(st.integers(0, 8000), max_size=60),
           offset=st.integers(0, 1500),
           period=st.integers(1, 700),
           count=st.integers(2, 12),
           bin_seed=st.integers(0, 10**6),
           tail=st.integers(0, 1500),
           at_edges=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_materialized_sync(self, photons, offset, period, count,
                                       bin_seed, tail, at_edges):
        sync = pk.PeriodicStream(255, offset, period, count,
                                 offset + (count - 1) * period + tail)
        bin_width = 1 + bin_seed % period
        t = [p for p in photons if p <= sync.duration]
        if at_edges:   # before the offset, on the last pulse, at duration
            t += [max(offset - 1, 0), sync.last, sync.duration]
        ph = stream(sorted(t), sync.duration)
        fast = pk.sync_decay_histogram(ph, sync=sync, bin_width=bin_width)
        ref = pk.sync_decay_histogram(
            ph, sync=pk.TimestampStream(255, sync.events, sync.duration),
            bin_width=bin_width)
        assert fast == ref
        assert int(fast.counts.sum()) + fast.discarded == len(ph)

    def test_photon_at_duration_on_a_pulse_multiple(self):
        # duration = count * period: the searched grid and the periodic
        # sync discard the photon (delay = period), the unbounded fold of
        # ``period=`` puts it in bin 0.
        sync = pk.PeriodicStream(255, 0, 100, 10, 1000)
        ph = stream([1000], 1000)
        h = pk.sync_decay_histogram(ph, sync=sync, bin_width=10)
        assert h.discarded == 1 and h.counts.sum() == 0
        folded = pk.sync_decay_histogram(ph, period=100, bin_width=10)
        assert folded.counts[0] == 1 and folded.discarded == 0

    def test_period_wins_over_periodic_sync(self):
        sync = pk.PeriodicStream(255, 40, 500, 2, 1000)
        h = pk.sync_decay_histogram(stream([130], 1000), sync=sync,
                                    period=100, bin_width=10)
        assert h.period == 100 and h.counts[3] == 1

    def test_grid_is_never_materialized(self):
        sync = pk.PeriodicStream(255, 0, 100_000, 10**7, 10**12)
        ph = stream(np.arange(5, 10**12, 10**7), 10**12)
        h = pk.sync_decay_histogram(ph, sync=sync, bin_width=500)
        assert "events" not in vars(sync)
        assert h.discarded == 0 and h.counts[0] == len(ph)

    def test_bin_wider_than_grid_period_rejected(self):
        sync = pk.PeriodicStream(255, 0, 100, 3, 300)
        with pytest.raises(ValueError, match="must not exceed period"):
            pk.sync_decay_histogram(stream([5], 300), sync=sync,
                                    bin_width=200)


class TestIntensityTraceBinning:
    def test_conservation_and_shape(self):
        rng = np.random.default_rng(23)
        s = stream(np.sort(rng.integers(0, 10 * pk.PS_PER_MS, 4000)),
                   10 * pk.PS_PER_MS)
        trace = pk.intensity_trace(s)
        assert trace.counts.size == 10
        assert int(trace.counts.sum()) == len(s)

    def test_event_at_duration_lands_in_last_bin(self):
        s = stream([0, 5 * pk.PS_PER_MS], 5 * pk.PS_PER_MS)
        trace = pk.intensity_trace(s)
        assert trace.counts.size == 5
        assert trace.counts[-1] == 1
        assert int(trace.counts.sum()) == 2

    def test_empty_stream(self):
        trace = pk.intensity_trace(stream([], 3 * pk.PS_PER_MS))
        assert trace.counts.size == 3
        assert trace.counts.sum() == 0

    def test_custom_bin_width(self):
        s = stream([0, 99, 100, 199], 200)
        trace = pk.intensity_trace(s, bin_width=100)
        np.testing.assert_array_equal(trace.counts, [2, 2])

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            pk.intensity_trace(stream([1], 10), bin_width=0)
        with pytest.raises(ValueError):
            pk.intensity_trace(stream([], 0))
        with pytest.raises(ValueError):
            pk.intensity_trace(stream([3, 1], 10))


class TestWorkerSlices:
    def test_more_workers_than_events(self):
        rng = np.random.default_rng(5)
        a = stream(np.sort(rng.integers(0, 10**5, 3)), 10**5)
        b = stream(np.sort(rng.integers(0, 10**5, 50)), 10**5, 1)
        one = pk.cross_correlate(a, b, window=50_000, bin_width=500, workers=1)
        for workers in (4, 7):
            many = pk.cross_correlate(a, b, window=50_000, bin_width=500,
                                      workers=workers)
            np.testing.assert_array_equal(many.counts, one.counts)
        assert one.counts.sum() > 0

    def test_empty_streams_on_several_workers(self):
        hist = pk.cross_correlate(stream([], 1000), stream([], 1000, 1),
                                  window=100, bin_width=10, workers=3)
        np.testing.assert_array_equal(hist.counts, np.zeros(20, np.int64))

    def test_zero_workers_rejected_on_empty_streams(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            pk.cross_correlate(stream([], 1000), stream([], 1000, 1),
                               window=100, bin_width=10, workers=0)


def _pair():
    return stream([1, 2], 10), stream([3], 10, 1)


class TestOneBinningRule:
    """A builder rejects an invalid bin geometry with the same message as
    the record it builds: both take the bin count from one rule."""

    @pytest.mark.parametrize("build, record", [
        (lambda: pk.cross_correlate(*_pair(), window=400, bin_width=500),
         lambda: pk.CoincidenceHistogram(500, 400, [1])),
        (lambda: pk.brute_force_correlate(*_pair(), window=400,
                                          bin_width=500),
         lambda: pk.CoincidenceHistogram(500, 400, [1])),
        (lambda: pk.cross_correlate(*_pair(), window=5, bin_width=0),
         lambda: pk.CoincidenceHistogram(0, 5, [1])),
        (lambda: pk.sync_decay_histogram(stream([5], 10), period=2000,
                                         bin_width=3000),
         lambda: pk.DecayHistogram(3000, 2000, [1])),
        (lambda: pk.sync_decay_histogram(stream([5], 10), period=2000,
                                         bin_width=0),
         lambda: pk.DecayHistogram(0, 2000, [1])),
        (lambda: pk.intensity_trace(stream([1], 10), bin_width=0),
         lambda: pk.IntensityTrace([1], bin_width=0)),
        (lambda: pk.simulate_intensity_trace(pk.BlinkingLaw(), 10.0,
                                             pk.PS_PER_S, seed=0,
                                             bin_width=0),
         lambda: pk.IntensityTrace([1], bin_width=0)),
    ], ids=["cross_window", "brute_window", "cross_zero_bin",
            "decay_period", "decay_zero_bin", "trace_zero_bin",
            "sim_trace_zero_bin"])
    def test_builder_and_record_agree(self, build, record):
        with pytest.raises(ValueError) as from_record:
            record()
        with pytest.raises(ValueError) as from_builder:
            build()
        assert str(from_builder.value) == str(from_record.value)



class TestWholePicoseconds:
    """Window, bin width and period are whole picoseconds: an integral
    float bins exactly like the int, a fractional one is rejected by name."""

    @pytest.mark.parametrize("correlate", [pk.cross_correlate,
                                           pk.brute_force_correlate])
    def test_integral_float_bins_like_int(self, correlate):
        a, b = random_pair(np.random.default_rng(5), 800, 800, 10**6)
        want = correlate(a, b, 600, 500)
        for window, bin_width in ((600.0, 500), (600, 500.0),
                                  (np.float64(600.0), np.float32(500.0))):
            got = correlate(a, b, window, bin_width)
            np.testing.assert_array_equal(got.counts, want.counts)
            assert (got.window, got.bin_width) == (600, 500)

    @pytest.mark.parametrize("correlate", [pk.cross_correlate,
                                           pk.brute_force_correlate])
    @pytest.mark.parametrize("window, bin_width, name", [
        (600.5, 500, "window"), (600, 499.9, "bin_width"),
        (float("nan"), 500, "window"), (600, float("inf"), "bin_width")])
    def test_fractional_value_rejected_by_name(self, correlate, window,
                                               bin_width, name):
        a, b = _pair()
        with pytest.raises(ValueError, match=f"^{name} must be a whole"):
            correlate(a, b, window, bin_width)

    def test_decay_and_trace_builders(self):
        photons = stream(np.arange(0, 10**6, 777), 10**6)
        want = pk.sync_decay_histogram(photons, period=100_000, bin_width=500)
        got = pk.sync_decay_histogram(photons, period=100_000.0,
                                      bin_width=500.0)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert (got.period, got.bin_width) == (100_000, 500)
        np.testing.assert_array_equal(
            pk.intensity_trace(photons, 1000.0).counts,
            pk.intensity_trace(photons, 1000).counts)
        with pytest.raises(ValueError, match="^period must be a whole"):
            pk.sync_decay_histogram(photons, period=100_000.5)
        with pytest.raises(ValueError, match="^bin_width must be a whole"):
            pk.intensity_trace(photons, 0.5)


class TestSimulatorWholePicoseconds:
    """The simulator takes durations and bin widths as whole picoseconds
    too: an integral float simulates exactly like the int, a fractional one
    is rejected by name."""

    LAW = pk.BlinkingLaw(kind="power_law", max_dwell_ms=50.0)

    def test_integral_float_simulates_like_int(self):
        want = pk.simulate_intensity_trace(self.LAW, 100.0, 10**9, 3,
                                           bin_width=10**6)
        got = pk.simulate_intensity_trace(self.LAW, 100.0, 1e9, 3,
                                          bin_width=1e6)
        assert got == want
        assert (got[0].duration, got[0].bin_width) == (10**9, 10**6)
        emitter = pk.EmitterModel(blinking=self.LAW)
        excitation = pk.ExcitationConfig(cw_rate_per_s=2e6)
        assert (pk.generate_emission(emitter, excitation, 1e9, 3)
                == pk.generate_emission(emitter, excitation, 10**9, 3))

    @pytest.mark.parametrize("duration, bin_width, name", [
        (1e9 + 0.5, 10**6, "duration"), (1e9, 1e6 + 0.5, "bin_width"),
        (float("nan"), 10**6, "duration"), (1e9, float("inf"), "bin_width")])
    def test_fractional_value_rejected_by_name(self, duration, bin_width,
                                               name):
        with pytest.raises(ValueError, match=f"^{name} must be a whole"):
            pk.simulate_intensity_trace(self.LAW, 100.0, duration, 3,
                                        bin_width=bin_width)

    def test_fractional_emission_duration_rejected(self):
        with pytest.raises(ValueError, match="^duration must be a whole"):
            pk.generate_emission(pk.EmitterModel(), pk.ExcitationConfig(),
                                 1e9 + 0.5, 3)


class TestDeepBurst:
    """A burst of thousands of partners at one timestamp takes thousands
    of partner-rank passes over a handful of events; the histogram must
    still equal the oracle at any worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_burst_matches_oracle(self, workers):
        rng = np.random.default_rng(11)
        span = 10**6
        a = stream(np.sort(rng.integers(0, span, 2000)), span)
        b_events = np.concatenate((rng.integers(0, span, 2000),
                                   np.full(3000, 500_000)))
        b = stream(np.sort(b_events), span, channel=1)
        want = pk.brute_force_correlate(a, b, window=20_000, bin_width=500)
        got = pk.cross_correlate(a, b, window=20_000, bin_width=500,
                                 workers=workers)
        np.testing.assert_array_equal(got.counts, want.counts)
        assert got.counts.sum() > 3000 * 50


class TestPartnerWalk:
    """Each event's partners are found by one search for the lower window
    edge and a walk that stops at the upper edge or at the end of ``b``;
    the histogram must equal the oracle at any worker count, on the
    boundaries that walk has to get right."""

    CASES = {
        # delays of exactly -window (counted) and +window (not counted)
        "window_edges": ([5000, 9000], [4000, 6000, 8000, 10_000]),
        # equal timestamps across the two channels, with repeats
        "equal_times": ([100, 100, 2000, 2000, 2000, 7000],
                        [100, 2000, 2000, 7000, 7000]),
        # every event's walk runs into the last event of b
        "walk_to_last_b": ([9000, 9500, 9999], [8500, 9000, 9800, 9990]),
        # events of a after the end of b, some still within the window
        "a_after_b": ([100, 3000, 3500, 4200, 9000], [50, 2500, 3000]),
        "b_empty": ([1000, 2000], []),
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_oracle(self, case, workers):
        raw_a, raw_b = self.CASES[case]
        a = stream(raw_a, 10_000)
        b = stream(raw_b, 10_000, channel=1)
        for window, bin_width in ((1000, 500), (1000, 1), (500, 250)):
            want = pk.brute_force_correlate(a, b, window, bin_width)
            got = pk.cross_correlate(a, b, window, bin_width,
                                     workers=workers)
            np.testing.assert_array_equal(got.counts, want.counts)

    @given(st.lists(st.integers(0, 60), max_size=40),
           st.lists(st.integers(0, 60), max_size=40),
           st.integers(1, 8), st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_a_coarse_grid(self, raw_a, raw_b, steps,
                                             workers):
        # Times on a 50 ps grid and a window of whole grid steps, so that
        # ties and delays of exactly +-window turn up in most examples.
        a = stream(np.sort(raw_a) * 50, 3000)
        b = stream(np.sort(raw_b) * 50, 3000, channel=1)
        window = 50 * steps
        want = pk.brute_force_correlate(a, b, window, bin_width=50)
        got = pk.cross_correlate(a, b, window, bin_width=50, workers=workers)
        np.testing.assert_array_equal(got.counts, want.counts)


class TestBlockedCorrelate:
    """Each worker folds its slice of ``a`` over ``correlator._BLOCK``-event
    blocks; at any block size and worker count the histogram must equal
    the oracle, also for partners exactly one window away whose events sit
    on either side of a block cut."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(31)
        # a every 1000 ps; b at a - 1000 (counted), a and a + 1000 (not
        # counted), so the b events at +-window are shared by neighbours
        # of a that fall into different blocks.
        a = np.arange(1, 12) * 1000
        b = np.sort(np.concatenate((a - 1000, a, a + 1000)))
        yield "window_apart", stream(a, 13_000), stream(b, 13_000, 1), 1000
        a, b = random_pair(rng, 40, 50, 20_000)
        yield "random", a, b, 3000
        ties = np.repeat([2000, 4000, 6000], 4)
        yield ("ties", stream(ties, 8000),
               stream(np.sort(np.concatenate((ties, ties + 2000))), 8000, 1),
               2000)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_matches_oracle_at_any_block_size(self, monkeypatch, block,
                                              workers):
        monkeypatch.setattr(pk.correlator, "_BLOCK", block)
        for name, a, b, window in self.cases():
            for bin_width in (500, 1000, 1):
                want = pk.brute_force_correlate(a, b, window, bin_width)
                got = pk.cross_correlate(a, b, window, bin_width,
                                         workers=workers)
                np.testing.assert_array_equal(got.counts, want.counts,
                                              err_msg=name)
                assert got.counts.sum() > 0, name

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_backwards_pair_across_a_block_cut_is_refused(self, monkeypatch,
                                                          block):
        monkeypatch.setattr(pk.core, "_BLOCK", block)
        events = np.arange(20) * 10
        events[block] = events[block - 1] - 1   # first event of block 2
        with pytest.raises(ValueError, match="channel 0 stream is not sorted"):
            stream(events, 200)


class TestBlockedDecay:
    """``sync_decay_histogram`` folds the photons over
    ``correlator._BLOCK``-event blocks; the counts and ``discarded`` must
    equal a one-block run's for each kind of sync."""

    @staticmethod
    def syncs():
        yield "periodic", {"sync": pk.PeriodicStream(255, 300, 700, 12, 10_000)}
        yield "explicit", {"sync": stream([300, 1000, 1650, 2400, 3100, 3800,
                                           5000, 5700, 6400], 10_000, 255)}
        yield "period", {"period": 700}

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_matches_one_block_run(self, monkeypatch, block):
        rng = np.random.default_rng(37)
        # Photons before the first pulse, on pulses, in a skipped-pulse gap
        # and after the last pulse, so every kind sees discarded photons.
        events = np.sort(np.concatenate((
            rng.integers(0, 10_000, 200), [0, 299, 300, 1000, 3800, 9000,
                                           10_000])))
        photons = stream(events, 10_000)
        for name, kw in self.syncs():
            one = pk.sync_decay_histogram(photons, bin_width=50, **kw)
            assert photons.events.size <= pk.core._BLOCK
            with monkeypatch.context() as m:
                m.setattr(pk.correlator, "_BLOCK", block)
                got = pk.sync_decay_histogram(photons, bin_width=50, **kw)
            assert got == one, name
            assert got.discarded == one.discarded, name
            assert int(got.counts.sum()) + got.discarded == events.size
            if name != "period":
                assert got.discarded > 0, name


class TestEdgeSearchTrace:
    """``intensity_trace`` counts by a search for each bin edge in the
    sorted events; it must equal a ``bincount`` of ``t // bin_width``
    with the events at the duration clamped into the last bin."""

    @staticmethod
    def oracle(events, duration, bin_width):
        n_bins = -(-duration // bin_width)
        bins = np.minimum(np.asarray(events, np.int64) // bin_width,
                          n_bins - 1)
        return np.bincount(bins, minlength=n_bins)

    @pytest.mark.parametrize("duration", [1000, 1050])
    def test_events_on_edges_at_zero_and_at_duration(self, duration):
        events = [0, 0, 99, 100, 100, 101, 500, 899, 900, 999, 1000,
                  duration, duration]
        s = stream(sorted(events), duration)
        got = pk.intensity_trace(s, bin_width=100)
        np.testing.assert_array_equal(
            got.counts, self.oracle(sorted(events), duration, 100))
        assert int(got.counts.sum()) == len(events)

    @given(st.lists(st.integers(0, 5000), max_size=80),
           st.integers(1, 5000), st.integers(1, 1200))
    @settings(max_examples=200, deadline=None)
    def test_matches_bincount_oracle(self, raw, duration, bin_width):
        events = sorted(t for t in raw if t <= duration)
        events += [duration] * (len(raw) % 3)
        got = pk.intensity_trace(stream(events, duration), bin_width)
        np.testing.assert_array_equal(
            got.counts, self.oracle(events, duration, bin_width))

    def test_negative_time_raises(self):
        with pytest.raises(ValueError, match=re.escape(
                "channel 0 events must lie within [0, 100] ps, got -5")):
            pk.TimestampStream(0, np.array([-5, 10, 20], np.int64), 100)


class TestStreamSequence:
    """``sync_decay_histogram`` and ``intensity_trace`` take a sequence of
    streams and fold every stream's blocks into one record, which must
    equal the record of the streams merged into one time-ordered stream
    on the longest of their durations."""

    @staticmethod
    def channels():
        rng = np.random.default_rng(41)
        # Photons before the first pulse, on pulses, in the skipped-pulse
        # gap and after the last pulse, on two channels whose durations
        # differ, so each channel has discards of its own.
        a = stream(np.sort(np.concatenate((
            rng.integers(0, 10_000, 150), [0, 299, 300, 3800, 10_000]))),
            10_000)
        b = stream(np.sort(np.concatenate((
            rng.integers(0, 7_000, 90), [100, 1000, 4000, 7_000]))),
            7_000, channel=1)
        return a, b

    @staticmethod
    def merged(*parts):
        events = np.sort(np.concatenate([p.events for p in parts]),
                         kind="stable")
        return stream(events, max(p.duration for p in parts))

    @staticmethod
    def syncs():
        yield "periodic", {"sync": pk.PeriodicStream(255, 300, 700, 12,
                                                     10_000)}
        # Jittered, with the pulse near 3800 skipped.
        yield "explicit", {"sync": stream([300, 1010, 1690, 2400, 3080,
                                           4520, 5210, 5890, 6600, 7310],
                                          10_000, 255)}
        yield "period", {"period": 700}

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_decay_equals_the_merged_stream(self, monkeypatch, block):
        a, b = self.channels()
        refs = {name: pk.sync_decay_histogram(self.merged(a, b),
                                              bin_width=50, **kw)
                for name, kw in self.syncs()}
        monkeypatch.setattr(pk.correlator, "_BLOCK", block)
        for name, kw in self.syncs():
            for order in ([a, b], [b, a]):
                got = pk.sync_decay_histogram(order, bin_width=50, **kw)
                assert got == refs[name], name
                assert got.discarded == refs[name].discarded, name
            assert int(got.counts.sum()) + got.discarded == len(a) + len(b)
            if name != "period":
                one = pk.sync_decay_histogram(a, bin_width=50, **kw)
                assert one.discarded < got.discarded, name

    @pytest.mark.parametrize("first", ["short", "long"])
    def test_trace_spans_the_longest_duration(self, first):
        a, b = self.channels()
        order = [b, a] if first == "short" else [a, b]
        got = pk.intensity_trace(order, bin_width=300)
        ref = pk.intensity_trace(self.merged(a, b), bin_width=300)
        assert got == ref
        assert got.duration == a.duration > b.duration
        assert int(got.counts.sum()) == len(a) + len(b)

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError, match="non-empty sequence"):
            pk.sync_decay_histogram([], period=100)
        with pytest.raises(ValueError, match="non-empty sequence"):
            pk.intensity_trace([], bin_width=100)

    def test_every_stream_is_checked_for_order(self):
        with pytest.raises(ValueError, match="channel 1 stream is not sorted"):
            stream([30, 10], 100, channel=1)

    def test_periodic_stream_as_a_single_stream(self):
        grid = pk.PeriodicStream(0, 50, 100, 10, 1000)
        same = stream(grid.events, 1000)
        assert (pk.sync_decay_histogram(grid, period=100, bin_width=10)
                == pk.sync_decay_histogram(same, period=100, bin_width=10))
        trace = pk.intensity_trace(grid, bin_width=100)
        assert trace == pk.intensity_trace(same, bin_width=100)
        np.testing.assert_array_equal(trace.counts, np.ones(10))
