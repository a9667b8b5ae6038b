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
