"""In-memory spans around photonkit's layer functions.

A span records a name, its start and end (``time.perf_counter``), the index
of its parent span, the job it belongs to, and any counts the wrapped call
produced. Spans live in a list until the run ends, when ``dump`` writes
them out; nothing is written while a job is timed.

``installed(tracer)`` swaps the layer functions, as ``photonkit.pipeline``
and the benchmark look them up, for wrappers that open a span per call, and
puts the originals back on exit. Nothing under ``src/`` is edited: the
wrappers replace module attributes only for the duration of the block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import time


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans from one thread, one job at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = -1

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span; the yielded dict receives the span's counts."""
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record.counts
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def dump(self, path: str) -> None:
        """Write every span as JSON; ``parent`` indexes into the list."""
        with open(path, "w") as f:
            json.dump([dataclasses.asdict(s) for s in self.spans], f)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out


# --- counts taken from a layer call's arguments and result -----------------

def _emission_counts(args, result):
    return {"events": len(result)}


def _detect_counts(args, result):
    ch0, ch1, sync = result
    return {"events_out": len(ch0) + len(ch1), "sync_records": len(sync)}


def _write_counts(args, result):
    return {"records": int(result), "mb": os.path.getsize(args[1]) / 1e6}


def _read_counts(args, result):
    return {"records": sum(len(s) for s in result.values())}


def _correlate_counts(args, result):
    return {"pairs": int(result.counts.sum())}


def _decay_counts(args, result):
    return {"photons": len(args[0]), "discarded": int(result.discarded)}


def _fit_counts(args, result):
    return {"iterations": int(result.iterations),
            "flagged": int(bool(result.flags))}


def _blinking_counts(args, result):
    return {"dwells": int(result.on_durations_ms.size
                          + result.off_durations_ms.size)}


def _layer_table():
    """(module, attribute, span name, count function) for every wrapped call.

    ``photonkit.pipeline`` imports most layer functions by name, so they are
    replaced there; it reaches the fit drivers through the ``fit`` module,
    so those are replaced on ``photonkit.fit``. The benchmark's own calls in
    the fit workload go through ``photonkit.fit``, ``photonkit.sim`` and
    ``photonkit.blinking``.
    """
    from photonkit import blinking, fit, pipeline, sim
    return [
        (pipeline, "generate_emission", "sim.generate_emission", _emission_counts),
        (pipeline, "detect_hbt", "sim.detect_hbt", _detect_counts),
        (sim, "simulate_intensity_trace", "sim.simulate_intensity_trace", None),
        (pipeline, "write_timestamps", "fileio.write_timestamps", _write_counts),
        (pipeline, "read_timestamps", "fileio.read_timestamps", _read_counts),
        (pipeline, "file_digest", "fileio.file_digest", None),
        (pipeline, "export_histogram_csv", "fileio.export_histogram_csv", None),
        (pipeline, "cross_correlate", "correlator.cross_correlate", _correlate_counts),
        (pipeline, "sync_decay_histogram", "correlator.sync_decay_histogram", _decay_counts),
        (pipeline, "intensity_trace", "correlator.intensity_trace", None),
        (fit, "fit_g2_pw", "fit.fit_g2_pw", _fit_counts),
        (fit, "fit_g2_cw", "fit.fit_g2_cw", _fit_counts),
        (fit, "fit_multiexp", "fit.fit_multiexp", _fit_counts),
        (fit, "normalize_g2", "fit.normalize_g2", None),
        (pipeline, "analyze_blinking", "blinking.analyze_blinking", _blinking_counts),
        (blinking, "analyze_blinking", "blinking.analyze_blinking", _blinking_counts),
        (blinking, "alpha_distribution", "blinking.alpha_distribution", None),
    ]


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as counts:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts.update(counter(args, result))
        return result
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every layer call in the table through ``tracer`` for the block."""
    table = _layer_table()
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in table]
    try:
        for (mod, attr, name, counter), (_, _, fn) in zip(table, originals):
            setattr(mod, attr, _wrap(tracer, fn, name, counter))
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
