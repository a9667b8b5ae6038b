"""Golden seeded outputs: a refactor that claims "same results" must leave
these integers unchanged.

Five small jobs are simulated to a timestamp file, read back, and binned:
two pulsed (one at excitation probability 0.5; one at probability 1 with
biexciton emission and a quantum yield below 1), two CW with power-law
and two-state exponential blinking, and one CW behind a lossy, unbalanced
detector with dark counts (every other job detects every photon on a
50:50 splitter, so only this one sees where the efficiency draws come
from). The file's SHA-256
and the g2, decay and intensity histogram counts are pinned. Only
integers are pinned (counts as their sum and the SHA-256 of their
little-endian int64 bytes), never fitted floats, so the check is exact.
The power-law and lossy jobs run on two workers and the others on one,
which covers both sides of the worker pool.
"""

import hashlib

import numpy as np
import pytest

from photonkit.pipeline import (
    run_correlate,
    run_decay_histogram,
    run_intensity_trace,
    run_load,
    run_simulate,
)

JOBS = {
    "pulsed": {
        "seed": 7, "duration_s": 0.05, "workers": 1,
        "excitation": {"mode": "pulsed", "excitation_probability": 0.5},
        "correlation": {"window_ns": 600.0},
    },
    "pulsed_full": {
        "seed": 7, "duration_s": 0.05, "workers": 1,
        "emitter": {"quantum_yield": 0.9, "biexciton_probability": 0.2},
        "excitation": {"mode": "pulsed", "excitation_probability": 1.0},
        "correlation": {"window_ns": 600.0},
    },
    "cw_blinking": {
        "seed": 7, "duration_s": 0.3, "workers": 2,
        "emitter": {"blinking": {"kind": "power_law", "max_dwell_ms": 50.0}},
        "excitation": {"cw_rate_per_s": 5e6},
        "correlation": {"window_ns": 1000.0},
    },
    "cw_two_state": {
        "seed": 7, "duration_s": 0.3, "workers": 1,
        "emitter": {"blinking": {"kind": "two_state_exponential",
                                 "mean_on_ms": 20.0, "mean_off_ms": 10.0}},
        "excitation": {"cw_rate_per_s": 5e6},
        "correlation": {"window_ns": 1000.0},
    },
    "cw_lossy": {
        "seed": 7, "duration_s": 0.3, "workers": 2,
        "detector": {"efficiency": 0.6, "splitter_ratio": 0.4,
                     "dark_rate_per_ms": 5.0},
        "correlation": {"window_ns": 1000.0},
    },
}

GOLDEN = {
    "pulsed": {
        "ptst": "6628fd6db871202cc33418088fa391f3"
                "c5673a9b5f7489c667567c6f20f8f94f",
        "g2": (346263, "94ef1c36ecf4387c89183c22c7bd12cf"
                       "61afb90cc5608f960725624cd3b05f1f"),
        "decay": (250552, "ee1413be7c8ba6665315bd9e6b3ef965"
                          "5ce92fb72918ff61e3dfc7467c520753"),
        "intensity": (250552, "198e3c87296489d1e93231c4f11bfed0"
                              "8ab874d5a3f4ad546c1181cd0b5afec1"),
    },
    "pulsed_full": {
        "ptst": "8eb57b5e5cbb2087679eeddb47c2ce18"
                "0a71538ca527fdfa386bf1aef281e406",
        "g2": (1420859, "6237717dd3badbf4c975f4514fcfa67e"
                        "6e42050848282c6e760b9b97cd23f7ec"),
        "decay": (501016, "b61ca79a14b2adf6a164ee187ab638c9"
                          "00bd7bab686954e63f473c40249b6a12"),
        "intensity": (501016, "2e2b6e5075153f64e30cdf7e2ee0cdf7"
                              "63f33fa8ee0ac79dd9d14ee37a512c84"),
    },
    "cw_blinking": {
        "ptst": "22be7769460e1e93719c41886af1b3ef"
                "644a5dc35882ab5e52ad058d00b6c525",
        "g2": (1416529, "3841664280791e28ada60a5594ed7173"
                        "4f9514cbb77f064ce4c2482142ff6902"),
        "intensity": (609173, "7d4448dd072bd606dcd26de6bbe5cd3d"
                              "28dfbe99c722d03273b8126667aa563f"),
    },
    "cw_two_state": {
        "ptst": "a42991521e0a91f09023e0e565e99eeb"
                "dc2fcbbfabc305f91468fe536ce89c32",
        "g2": (2010812, "e48b198895782b2cff4b04b0a3158d23"
                        "5dbc1a42e3e37d38a543fbb96229b1bc"),
        "intensity": (862587, "469da4da47e45e3de95fd618f3007061"
                              "7289054275afedd88bbe04b74d1a8aec"),
    },
    "cw_lossy": {
        "ptst": "749b3035c7526f17e127a59033853533"
                "9f05391234974ea5033880009e94a32e",
        "g2": (54300, "78bb80b7587358286d23cc4c51a689e5"
                      "2ccceb65ce97ee270f870701211a4d80"),
        "intensity": (184167, "7a52be41e951957272323daa8661fc8c"
                              "4e33d7cdddfa430a853eeab7d68daa07"),
    },
}


def pin(counts) -> tuple[int, str]:
    counts = np.asarray(counts, dtype="<i8")
    return int(counts.sum()), hashlib.sha256(counts.tobytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(JOBS))
def outputs(request, tmp_path_factory):
    name = request.param
    job = JOBS[name]
    base = tmp_path_factory.mktemp("golden")
    result, _ = run_simulate({**job, "output": f"{name}.ptst"}, str(base))
    _, streams = run_load({"input": result["output"]})
    out = {
        "ptst": result["sha256"],
        "g2": pin(run_correlate(streams, job).counts),
        "intensity": pin(run_intensity_trace(streams, {}).counts),
    }
    if "decay" in GOLDEN[name]:
        out["decay"] = pin(run_decay_histogram(streams, job).counts)
    return name, out


def test_seeded_outputs_are_bit_identical(outputs):
    name, out = outputs
    assert out == GOLDEN[name]
