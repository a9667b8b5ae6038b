"""Correlator tests: oracle equivalence, conservation, decay and trace binning."""

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
        bad = stream([5, 3], 10, 1)
        with pytest.raises(ValueError):
            pk.cross_correlate(good, bad, window=5, bin_width=1)
        with pytest.raises(ValueError):
            pk.cross_correlate(good, good, window=5, bin_width=0)
        with pytest.raises(ValueError):
            pk.cross_correlate(good, good, window=5, bin_width=10)
        with pytest.raises(ValueError):
            pk.cross_correlate(good, good, window=5, bin_width=1, workers=0)


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
