"""Smoke test of the benchmark itself, at a small data scale.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
WORKLOADS = ["pulsed_sync", "cw_blinking"]
SCALE = 0.25


def declared(kind):
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def bench(workload, trace, seed=3):
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace),
                           "--scale", str(SCALE)])
    return run.run_benchmark(args)


def test_declared_names_match_the_runner():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_present_and_traced_results_match(workload):
    plain = bench(workload, trace=0)
    traced = bench(workload, trace=1)
    for out, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert out["failed"] == 0, out["problems"]
        assert out["attempted"] >= 1
        want = declared(kind)
        assert set(out["metrics"]) == set(want)
        assert out["units"] == want
        assert all(isinstance(v, float) for v in out["metrics"].values())
    assert plain["metrics"]["job_s"] > 0
    assert traced["metrics"]["bench.job.span_coverage"] > 0.9
    fingerprints = {r.fingerprint for _, r in plain["results"] + traced["results"]}
    assert len(fingerprints) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_failed_check_raises_fail_frac(workload, monkeypatch, capsys):
    import photonkit.fit

    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    # Every workload normalizes its g2 fit through this module attribute.
    monkeypatch.setattr(photonkit.fit, "normalize_g2", broken)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--scale", str(SCALE)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_sources():
    """A tree holding only BENCHMARK.json and bench/ has nothing to measure."""
    os.makedirs(run.WORK, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK)
    try:
        shutil.copy(BENCHMARK, bare)
        shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)),
                        os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cw_blinking",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
