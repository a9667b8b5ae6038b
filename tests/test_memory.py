"""Peak memory of the simulate stage's three layers.

numpy reports its array buffers to ``tracemalloc``, so the traced peak of
one call is the most its arrays and Python objects held at once. Each
layer is run on about two million photons, where a temporary the size of
the stream costs 8 bytes per photon and any fixed overhead is small.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import photonkit as pk

PS_S = pk.PS_PER_S


def traced_peak(call):
    """``call()`` and the peak bytes traced while it ran."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return out, peak


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
