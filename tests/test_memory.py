"""Peak memory of the simulate stage's three layers.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of
one call is the most its arrays and Python objects held at once. Each
layer is run on about two million photons, where a temporary the size of
the stream costs 8 bytes per photon and any fixed overhead is small.
"""

import contextlib
import hashlib
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import photonkit as pk
from photonkit import sim

PS_S = pk.PS_PER_S


@contextlib.contextmanager
def tracing():
    """Trace allocations in the block, unless they are traced already."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def traced_peak(call):
    """``call()`` and the peak bytes traced while it ran."""
    with tracing():
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1]


@pytest.fixture(scope="module")
def pulsed():
    """About 2e6 photons, one per excited pulse of a 10 MHz laser."""
    return pk.generate_emission(
        pk.EmitterModel(), pk.ExcitationConfig(
            "pulsed", excitation_probability=0.5), 2 * PS_S // 5, seed=51)


class TestPeakMemory:
    """The emission is assembled in place, detection holds one segment's
    draws at a time, and the writer sorts its records chunk by chunk, so
    none of them holds a second copy of the stream."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cw_emission(self, workers):
        emission, peak = traced_peak(lambda: pk.generate_emission(
            pk.EmitterModel(), pk.ExcitationConfig("cw", cw_rate_per_s=2e6),
            PS_S, seed=52, workers=workers))
        assert 1.9e6 < len(emission) < 2.1e6
        assert peak / len(emission) <= 14.0  # the record itself takes 9

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pulsed_emission(self, workers):
        """A pulsed piece holds its excitation flags packed, a bit per
        pulse, so the call peaks at the record it returns."""
        with tracing():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            emission = pk.generate_emission(
                pk.EmitterModel(), pk.ExcitationConfig(
                    "pulsed", excitation_probability=0.5), 2 * PS_S // 5,
                seed=51, workers=workers)
            held, peak = tracemalloc.get_traced_memory()
        assert 1.9e6 < len(emission) < 2.1e6
        # 0.06 bytes per photon above the 9.35 held; a byte-per-pulse mask
        # beside the photons took 1.29 (a peak of 10.64).
        assert (peak - held) / len(emission) <= 0.3
        assert (held - start) / len(emission) <= 9.5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_detection(self, pulsed, workers):
        assert 1.9e6 < len(pulsed) < 2.1e6
        (ch0, ch1, _), peak = traced_peak(lambda: pk.detect_hbt(
            pulsed, pk.DetectorModel(efficiency=0.6), seed=53,
            workers=workers))
        returned = ch0.events.nbytes + ch1.events.nbytes
        assert (peak - returned) / len(pulsed) <= 7.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_writer(self, tmp_path, workers):
        rng = np.random.default_rng(54)
        streams = [pk.TimestampStream(c, np.sort(rng.integers(0, PS_S, 10**6)),
                                      PS_S) for c in (0, 1)]
        streams.append(pk.PeriodicStream(255, 0, 100_000, 10**7, PS_S))
        n, peak = traced_peak(lambda: pk.write_timestamps(
            streams, tmp_path / "x.ptst", workers=workers,
            hasher=hashlib.sha256()))
        assert n == 2 * 10**6
        assert peak / n <= 20.0  # the file takes 16 bytes a record


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 the calling frame holds the "
                           "arguments of a call until it returns")
class TestRecordRelease:
    """``detect_hbt`` drops its references to the emission record once its
    photons are routed, so a record that nobody else holds is freed
    before the channel pass joins, sorts and filters the two channels."""

    @pytest.mark.parametrize("workers", [1, 2])
    # Without jitter the segments routed are views of the record.
    @pytest.mark.parametrize("jitter", [600.0, 0.0])
    def test_freed_before_the_channel_pass(self, monkeypatch, workers,
                                           jitter):
        channel_pass = sim._dead_time_filter
        freed = []

        def spy(times, dead):
            freed.append(record_times() is None)
            return channel_pass(times, dead)

        monkeypatch.setattr(sim, "_dead_time_filter", spy)
        with tracing():
            args = [pk.generate_emission(
                pk.EmitterModel(), pk.ExcitationConfig(
                    "pulsed", excitation_probability=0.5), 2 * PS_S // 5,
                seed=51)]
            n = len(args[0])
            record_times = weakref.ref(args[0].times)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            ch0, ch1, _ = sim.detect_hbt(
                args.pop(), pk.DetectorModel(efficiency=0.6,
                                             jitter_sigma_ps=jitter),
                seed=53, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        assert freed == [True, True]
        # Above the record it was handed and the streams it returns,
        # detection holds one segment's draws; keeping the record through
        # the channel pass took 3.4 (workers 1) to 5.8 bytes per photon.
        returned = ch0.events.nbytes + ch1.events.nbytes
        assert (peak - start - returned) / n <= 2.5


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 the calling frame holds the "
                           "arguments of a call until it returns")
class TestInPlaceDetection:
    """Handed a record no one else holds, as the simulate stage hands it,
    detection writes the kept photons back into the record's times and
    makes them channel 0's array, so beyond the record it holds one
    segment's draws and then channel 1's photons."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_above_the_record(self, workers):
        with tracing():
            args = [pk.generate_emission(
                pk.EmitterModel(), pk.ExcitationConfig(
                    "pulsed", excitation_probability=0.5), 2 * PS_S // 5,
                seed=51)]
            n = len(args[0])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            pk.detect_hbt(args.pop(), pk.DetectorModel(efficiency=0.6),
                          seed=53, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        # 3.2 bytes per photon; routing to arrays of its own, as for a
        # record the caller keeps, took 6.9. On pulsed_sync's 5.0M photons
        # the traced peak with the record was 52.9 MB against 73.9 MB.
        # Serially, with one normals buffer and the unrouted photons freed
        # before channel 1 is copied out, 2.2; two buffers, or the copy
        # beside the whole record, took 3.24.
        assert (peak - start) / n <= (2.6 if workers == 1 else 4.5)


class TestParting:
    """``_parted`` cuts the record's times to the routed photons before it
    copies channel 1's out, so it never holds the whole record and
    channel 1 at once."""

    def test_no_peak_above_the_record(self):
        n, step = 2 * 10**6, 4 * sim._BLOCK
        rng = np.random.default_rng(55)
        written = []
        for lo in range(0, n, step):  # efficiency 0.6, split 50:50
            kept = rng.binomial(min(step, n - lo), 0.6)
            a = rng.binomial(kept, 0.5)
            written.append([a, kept - a])
        routed = sum(map(sum, written))
        with tracing():
            t = np.arange(n, dtype=np.int64)
            parts = ([np.arange(3)], [np.arange(5)])  # the dark counts
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            sim._parted(t, written, parts)
            peak = tracemalloc.get_traced_memory()[1]
        # Copying channel 1 out beside the whole record added its 2.4 MB.
        assert peak - start <= 4096
        want, at = ([], []), 0
        for a, b in written:
            want[0].append(np.arange(at, at + a))
            want[1].append(np.arange(at + a, at + a + b))
            at += a + b
        ch0, = parts[0]
        ch1, = parts[1]
        assert ch0 is t and at == routed
        want[0].append(np.arange(3))
        want[1].append(np.arange(5))
        np.testing.assert_array_equal(ch0, np.concatenate(want[0]))
        np.testing.assert_array_equal(ch1, np.concatenate(want[1]))
