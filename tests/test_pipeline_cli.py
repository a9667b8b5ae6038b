"""End-to-end tests for the pipeline orchestrator and the CLI."""

import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonkit import cli, correlator
from photonkit import fit as fitmod
from photonkit import pipeline
from photonkit.cli import _print_fit, build_parser
from photonkit.cli import main as cli_main
from photonkit.core import (PS_PER_MS, PS_PER_NS, SYNC_CHANNEL,
                            CoincidenceHistogram, Measurement, PeriodicStream,
                            TimestampStream, Verdict, ns_to_ps)
from photonkit.correlator import (cross_correlate, intensity_trace,
                                  sync_decay_histogram)
from photonkit.fileio import (file_digest, read_histogram_csv,
                              read_timestamps, write_timestamps)
from photonkit.pipeline import run_pipeline
from photonkit.sim import detect_hbt

IDEAL_DETECTOR = {"efficiency": 1.0, "dark_rate_per_ms": 0.0,
                  "jitter_sigma_ps": 0.0, "dead_time_ps": 0}


def cw_config(**overrides):
    cfg = {
        "mode": "simulate",
        "seed": 3,
        "duration_s": 0.25,
        "emitter": {"lifetime_ns": 4.7},
        "excitation": {"mode": "cw", "cw_rate_per_s": 2e6},
        "detector": dict(IDEAL_DETECTOR),
        "output": "cw.ptst",
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def cw_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipe")
    doc = run_pipeline(cw_config(), base_dir=str(base))
    assert doc.ok
    return doc, base / "cw.ptst"


class TestReportDigest:
    """The reports take the file's SHA-256 from the bytes the writer and
    the reader move, so it must equal a digest of the file itself, and the
    reports must read the same at any worker count."""

    JOB = {"mode": "simulate", "seed": 5, "duration_s": 0.05,
           "excitation": {"mode": "pulsed", "excitation_probability": 0.5},
           "detector": {"efficiency": 0.6}, "output": "pulsed.ptst"}
    # SHA-256 of the simulate and analyze reports' JSON without
    # ``created``, ``tool`` and ``config``, recorded when the pipeline
    # still hashed the file by reading it back.
    REPORTS = ("3f0f5d7a64f3f404a182c3989284d66d"
               "59e56671b9872190a6189422c18619c6",
               "9ac6977e02123a1ae1f5772ffd6ca934"
               "143d076ea2c773fd389472b1f3249fa1")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_digests_match_the_file(self, tmp_path, monkeypatch, workers):
        monkeypatch.chdir(tmp_path)
        sim = run_pipeline({**self.JOB, "workers": workers})
        ana = run_pipeline({"mode": "analyze", "input": "pulsed.ptst",
                            "workers": workers})
        assert sim.ok and ana.ok
        digest = file_digest(tmp_path / "pulsed.ptst")
        assert sim.results["simulate"]["sha256"] == digest
        assert sim.input["sha256"] == ana.input["sha256"] == digest
        for doc, want in zip((sim, ana), self.REPORTS):
            stripped = doc.to_dict()
            for key in ("created", "tool", "config"):
                del stripped[key]
            text = json.dumps(stripped, sort_keys=True).encode()
            assert hashlib.sha256(text).hexdigest() == want


class TestRunPipeline:
    def test_simulate_reports_file_facts(self, cw_run):
        doc, path = cw_run
        sim = doc.results["simulate"]
        assert path.exists()
        counts = sim["counts"]
        assert sim["records"] == counts["channel_0"] + counts["channel_1"]
        assert counts["sync"] == 0
        assert sim["sha256"] == file_digest(path)
        assert doc.input == {"path": str(path), "sha256": sim["sha256"]}
        assert doc.config["seed"] == 3

    def test_analyze_file_matches_in_memory(self, cw_run, tmp_path):
        _, path = cw_run
        cfg = {
            "mode": "analyze",
            "input": str(path),
            "analyses": ["g2cw"],
            "correlation": {"window_ns": 800.0, "bin_width_ps": 500},
        }
        report = run_pipeline(cfg, base_dir=str(tmp_path))
        assert report.ok
        assert report.results["input"]["channels"] == [0, 1]

        streams = read_timestamps(path)
        hist = cross_correlate(streams[0], streams[1],
                               int(800 * PS_PER_NS), 500)
        res = fitmod.fit_g2_cw(hist)
        _, g2 = fitmod.normalize_g2(hist, res)
        got = report.results["g2cw"]
        assert got["g2_at_dip"].value == g2.value
        assert got["g2_at_dip"].sigma == g2.sigma
        assert got["n_pairs"] == int(hist.counts.sum())
        assert got["fit"] == res.as_dict()
        assert got["verdict"] is fitmod.single_photon_verdict(g2)
        assert g2.value + 2 * g2.sigma < 0.5

    def test_full_loop_pulsed(self, tmp_path):
        cfg = {
            "mode": "simulate",
            "seed": 2,
            "duration_s": 0.2,
            "emitter": {"lifetime_ns": 4.7},
            "excitation": {"mode": "pulsed", "pulse_period_ps": 100_000,
                           "excitation_probability": 0.3},
            "detector": {"efficiency": 0.7, "dark_rate_per_ms": 0.2,
                         "jitter_sigma_ps": 300.0, "dead_time_ps": 0},
            "analyses": ["g2pw", "lifetime", "blinking"],
            "correlation": {"window_ns": 600.0, "csv": "g2.csv"},
            "lifetime": {"n_components": 1, "bin_width_ps": 100,
                         "csv": "decay.csv"},
            "output": "pulsed.ptst",
        }
        doc = run_pipeline(cfg, base_dir=str(tmp_path))
        assert doc.ok, doc.errors

        g2 = doc.results["g2pw"]["g2_at_dip"]
        assert g2.value < 0.5
        assert doc.results["g2pw"]["verdict"] is Verdict.SINGLE_PHOTON

        tau_avg = doc.results["lifetime"]["tau_avg_ns"]
        assert abs(tau_avg.value - 4.7) < 0.3

        blink = doc.results["blinking"]
        assert blink["alpha_on"] is None
        assert blink["mean_on_rate_per_ms"] > 100

        g2_csv = read_histogram_csv(tmp_path / "g2.csv")
        assert set(g2_csv) == {"bin_center_ns", "g2", "sigma"}
        assert (tmp_path / "decay.csv").exists()

        parsed = json.loads(doc.to_json())
        assert parsed["results"]["g2pw"]["verdict"] == "single_photon"

    def test_pulsed_jobs_never_materialize_the_sync_grid(self, tmp_path,
                                                       monkeypatch):
        # The pulse array of a PeriodicStream is cached on first access, so
        # an uncached grid after both jobs means no stage ever built it.
        syncs = []

        def spy(fn, pick):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                syncs.append(pick(out))
                return out
            return wrapper

        monkeypatch.setattr(pipeline, "detect_hbt",
                            spy(pipeline.detect_hbt, lambda out: out[2]))
        monkeypatch.setattr(pipeline, "read_timestamps",
                            spy(pipeline.read_timestamps,
                                lambda out: out[SYNC_CHANNEL]))
        sim = run_pipeline({
            "mode": "simulate", "seed": 4, "duration_s": 0.05,
            "excitation": {"mode": "pulsed", "excitation_probability": 0.5},
            "detector": {"efficiency": 0.6}, "output": "pulsed.ptst",
        }, base_dir=str(tmp_path))
        assert sim.ok, sim.errors
        doc = run_pipeline({
            "mode": "analyze", "input": str(tmp_path / "pulsed.ptst"),
            "duration_ps": 5 * 10**10, "analyses": ["g2pw", "lifetime"],
            "correlation": {"window_ns": 600.0},
            "lifetime": {"n_components": 1},
        })
        assert doc.ok, doc.errors
        assert sim.results["simulate"]["records"] == sum(
            doc.results["input"]["counts"][c] for c in ("0", "1"))
        assert len(syncs) == 2
        for sync in syncs:
            assert isinstance(sync, PeriodicStream)
            assert len(sync) == 500_000
            assert "events" not in vars(sync)

    def test_g2pw_without_period_is_an_error_entry(self, cw_run, tmp_path):
        _, path = cw_run
        cfg = {
            "mode": "analyze",
            "input": str(path),
            "analyses": ["g2pw", "blinking"],
        }
        report = run_pipeline(cfg, base_dir=str(tmp_path))
        assert not report.ok
        assert report.errors[0]["stage"] == "g2pw"
        assert "period" in report.errors[0]["message"]
        assert "blinking" in report.results

    def test_unknown_analysis_is_an_error_entry(self, cw_run, tmp_path):
        _, path = cw_run
        cfg = {"mode": "analyze", "input": str(path), "analyses": ["warp"]}
        report = run_pipeline(cfg, base_dir=str(tmp_path))
        assert not report.ok
        assert report.errors[0]["stage"] == "warp"
        assert "g2cw" in report.errors[0]["message"]
        assert "input" in report.results

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_pipeline({"mode": "tune"})

    def test_unknown_emitter_option_is_an_error_entry(self, tmp_path):
        cfg = cw_config(emitter={"lifetime": 4.7})
        doc = run_pipeline(cfg, base_dir=str(tmp_path))
        assert not doc.ok
        assert doc.errors[0]["stage"] == "simulate"
        assert "unknown emitter options: lifetime" in doc.errors[0]["message"]

    def test_analyze_without_input_is_an_error_entry(self, tmp_path):
        doc = run_pipeline({"mode": "analyze", "analyses": []},
                           base_dir=str(tmp_path))
        assert not doc.ok
        assert doc.errors[0]["stage"] == "input"

    def test_repeat_runs_write_identical_files(self, tmp_path):
        cfg = cw_config(duration_s=0.05, output="rep.ptst")
        dirs = tmp_path / "a", tmp_path / "b"
        for d in dirs:
            d.mkdir()
        a = run_pipeline(dict(cfg), base_dir=str(dirs[0]))
        b = run_pipeline(dict(cfg), base_dir=str(dirs[1]))
        assert a.results["simulate"]["sha256"] == b.results["simulate"]["sha256"]
        assert a.results["simulate"]["counts"] == b.results["simulate"]["counts"]


@pytest.fixture(scope="module")
def pulsed_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "pulsed.ptst"
    rc = cli_main([
        "simulate", "--mode", "pulsed", "--duration-s", "0.1",
        "--excitation-probability", "0.3", "--efficiency", "0.7",
        "--jitter-ps", "0", "--dead-time-ps", "0",
        "--dark-rate-per-ms", "0.2", "--seed", "4", "-o", str(out)])
    assert rc == 0
    return out


def out_lines(capsys):
    return capsys.readouterr().out


class TestCli:
    def test_simulate_prints_counts(self, tmp_path, capsys):
        out = tmp_path / "tiny.ptst"
        rc = cli_main(["simulate", "--duration-s", "0.02", "--seed", "1",
                       "-o", str(out)])
        assert rc == 0
        assert out.exists()
        text = out_lines(capsys)
        assert "wrote" in text
        assert "channel 0:" in text

    def test_correlate_with_pulsed_fit(self, pulsed_path, tmp_path, capsys):
        rc = cli_main(["correlate", str(pulsed_path), "--window", "600",
                       "--fit", "pulsed", "--outdir", str(tmp_path),
                       "-o", "g2.csv"])
        assert rc == 0
        text = out_lines(capsys)
        assert "verdict = single_photon" in text
        assert "g2(tau0) = " in text
        columns = read_histogram_csv(tmp_path / "g2.csv")
        assert set(columns) == {"bin_center_ns", "g2", "sigma"}
        assert np.all(np.isfinite(columns["g2"]))

    def test_correlate_raw_export_then_refit(self, pulsed_path, tmp_path,
                                             capsys):
        rc = cli_main(["correlate", str(pulsed_path), "--window", "600",
                       "--outdir", str(tmp_path), "-o", "raw.csv"])
        assert rc == 0
        columns = read_histogram_csv(tmp_path / "raw.csv")
        assert set(columns) == {"bin_center_ns", "count"}
        capsys.readouterr()

        rc = cli_main(["fit", str(tmp_path / "raw.csv"), "--model", "pulsed",
                       "--period", "100"])
        assert rc == 0
        assert "verdict = single_photon" in out_lines(capsys)

    def test_lifetime_then_decay_refit(self, pulsed_path, tmp_path, capsys):
        rc = cli_main(["lifetime", str(pulsed_path), "--bin-width", "100",
                       "--components", "1", "--outdir", str(tmp_path),
                       "-o", "decay.csv"])
        assert rc == 0
        text = out_lines(capsys)
        tau = float(text.split("tau_avg_ns = ")[1].split(" ")[0])
        assert 4.5 < tau < 4.9

        rc = cli_main(["fit", str(tmp_path / "decay.csv"), "--model", "decay",
                       "--components", "1"])
        assert rc == 0
        text = out_lines(capsys)
        tau2 = float(text.split("tau_avg_ns = ")[1].split(" ")[0])
        assert abs(tau2 - tau) < 1e-6

    def test_blink_smoke(self, pulsed_path, capsys):
        rc = cli_main(["blink", str(pulsed_path)])
        assert rc == 0
        text = out_lines(capsys)
        assert "on dwells" in text
        assert "mean rates" in text

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"seed": 9, "duration-s": 0.02}))
        a, b = tmp_path / "a.ptst", tmp_path / "b.ptst"
        assert cli_main(["simulate", "--config", str(cfg), "--seed", "1",
                         "--duration-s", "0.5", "-o", str(a)]) == 0
        assert cli_main(["simulate", "--seed", "9", "--duration-s", "0.02",
                         "-o", str(b)]) == 0
        assert file_digest(a) == file_digest(b)

    def test_config_with_unknown_key_exits(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"frobs": 1}))
        with pytest.raises(SystemExit) as err:
            cli_main(["simulate", "--config", str(cfg)])
        assert err.value.code == 2

    def test_outdir_env_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PHOTONKIT_OUTDIR", str(tmp_path))
        rc = cli_main(["simulate", "--duration-s", "0.01", "-o", "env.ptst"])
        assert rc == 0
        assert (tmp_path / "env.ptst").exists()

    def test_missing_input_reports_error(self, tmp_path, capsys):
        rc = cli_main(["correlate", str(tmp_path / "nope.ptst")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_input_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ptst"
        bad.write_bytes(b"XXXX" + bytes(15))
        rc = cli_main(["correlate", str(bad)])
        assert rc == 1
        assert "magic" in capsys.readouterr().err

    def test_pipeline_subcommand(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(cw_config(
            duration_s=0.1, analyses=["g2cw"],
            correlation={"window_ns": 400.0, "csv": "g2.csv"},
            output="run.ptst")))
        rc = cli_main(["pipeline", str(job), "--outdir", str(tmp_path),
                       "-o", "report.json"])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["g2cw"]["verdict"] == "single_photon"
        assert report["results"]["g2cw"]["g2_at_dip"]["value"] < 0.5
        assert report["input"]["sha256"]
        assert (tmp_path / "g2.csv").exists()

    def test_pipeline_subcommand_failure_exit_code(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "mode": "analyze",
            "input": str(tmp_path / "missing.ptst"),
            "analyses": [],
        }))
        rc = cli_main(["pipeline", str(job), "--outdir", str(tmp_path)])
        assert rc == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["errors"]
        assert "error[input]" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "photonkit.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("simulate", "correlate", "lifetime", "blink", "fit",
                     "pipeline"):
            assert name in proc.stdout


class TestCliPipelineParity:
    """The CLI subcommands and JSON jobs run the same stage functions, so
    the same nominal job gives byte-identical files and equal results."""

    @pytest.fixture(scope="class")
    def pairs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("parity")
        out = {}
        for mode in ("cw", "pulsed"):
            cli_path = base / f"cli_{mode}.ptst"
            flags = ["--mode", "pulsed"] if mode == "pulsed" else []
            assert cli_main(["simulate", "--seed", "5", "--duration-s", "0.05",
                             *flags, "-o", str(cli_path)]) == 0
            job = {"mode": "simulate", "seed": 5, "duration_s": 0.05,
                   "output": f"job_{mode}.ptst"}
            if mode == "pulsed":
                job["excitation"] = {"mode": "pulsed"}
            doc = run_pipeline(job, base_dir=str(base))
            assert doc.ok, doc.errors
            out[mode] = cli_path, base / f"job_{mode}.ptst"
        return out

    @pytest.mark.parametrize("mode", ["cw", "pulsed"])
    def test_simulate_files_are_byte_identical(self, pairs, mode):
        cli_path, job_path = pairs[mode]
        assert cli_path.read_bytes() == job_path.read_bytes()

    def test_lifetime_matches_pipeline_analysis(self, pairs, tmp_path,
                                                capsys):
        cli_path, _ = pairs["pulsed"]
        capsys.readouterr()
        assert cli_main(["lifetime", str(cli_path), "--components", "1",
                         "--outdir", str(tmp_path)]) == 0
        printed = out_lines(capsys).split("tau_avg_ns = ")[1].splitlines()[0]
        doc = run_pipeline({"mode": "analyze", "input": str(cli_path),
                            "analyses": ["lifetime"],
                            "lifetime": {"n_components": 1}},
                           base_dir=str(tmp_path))
        assert doc.ok, doc.errors
        assert printed == str(doc.results["lifetime"]["tau_avg_ns"])


class TestErrorEntries:
    def test_bad_magic_keeps_type_and_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ptst"
        bad.write_bytes(b"XXXX" + bytes(15))
        job = {"mode": "analyze", "input": str(bad), "analyses": ["g2cw"]}
        doc = run_pipeline(job, base_dir=str(tmp_path))
        entry = doc.errors[0]
        assert entry["stage"] == "input"
        assert entry["type"] == "BadMagicError"
        assert entry["code"] == "bad_magic"
        assert len(doc.errors) == 1

        (tmp_path / "job.json").write_text(json.dumps(job))
        assert cli_main(["pipeline", str(tmp_path / "job.json"),
                         "--outdir", str(tmp_path)]) == 1
        assert "error[input:bad_magic]: " in capsys.readouterr().err


class TestWorkersKey:
    def test_correlate_workers_flag_maps_to_job_workers(
            self, pulsed_path, tmp_path, monkeypatch):
        seen = []

        def spy(*args):
            seen.append(args[-1])
            return cross_correlate(*args)

        monkeypatch.setattr(pipeline, "cross_correlate", spy)
        for workers in ("1", "2"):
            assert cli_main(["correlate", str(pulsed_path), "--window", "600",
                             "--workers", workers, "--outdir", str(tmp_path),
                             "-o", f"raw_w{workers}.csv"]) == 0
        assert seen == [1, 2]
        assert ((tmp_path / "raw_w1.csv").read_bytes()
                == (tmp_path / "raw_w2.csv").read_bytes())

    def test_simulate_workers_reach_detection(self, tmp_path, monkeypatch):
        seen = []

        def spy(*args):
            seen.append(args[-1])
            return detect_hbt(*args)

        monkeypatch.setattr(pipeline, "detect_hbt", spy)
        lossy = {"efficiency": 0.6, "splitter_ratio": 0.4,
                 "dark_rate_per_ms": 5.0}
        digests = []
        for workers in (1, 2):
            doc = run_pipeline(
                cw_config(workers=workers, detector=lossy,
                          output=f"lossy_w{workers}.ptst"),
                base_dir=str(tmp_path))
            assert doc.ok
            digests.append(doc.results["simulate"]["sha256"])
        assert seen == [1, 2]
        assert digests[0] == digests[1]
        assert ((tmp_path / "lossy_w1.ptst").read_bytes()
                == (tmp_path / "lossy_w2.ptst").read_bytes())

    @pytest.mark.parametrize("command, flags", [
        ("lifetime", ["--components", "1"]),
        ("blink", []),
    ])
    def test_reader_workers_flag_maps_to_job_workers(
            self, pulsed_path, tmp_path, monkeypatch, capsys, command, flags):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["workers"])
            return read_timestamps(*args, **kwargs)

        monkeypatch.setattr(pipeline, "read_timestamps", spy)
        printed = []
        for workers in ("1", "2"):
            assert cli_main([command, str(pulsed_path), *flags,
                             "--workers", workers,
                             "--outdir", str(tmp_path)]) == 0
            printed.append(out_lines(capsys))
        assert seen == [1, 2]
        assert printed[0] == printed[1]


class TestUnknownJobKeys:
    """Every job-config key is read by some stage or rejected."""

    @pytest.mark.parametrize("analysis, section, key", [
        ("g2cw", "correlation", "window_nss"),
        ("g2cw", "correlation", "workers"),  # the removed per-stage key
        ("lifetime", "lifetime", "components"),
        ("blinking", "blinking", "threshold"),
    ])
    def test_section_typo_is_that_analysis_error_entry(
            self, cw_run, tmp_path, analysis, section, key):
        _, path = cw_run
        other = "blinking" if analysis != "blinking" else "g2cw"
        cfg = {"mode": "analyze", "input": str(path),
               "analyses": [analysis, other], section: {key: 5}}
        doc = run_pipeline(cfg, base_dir=str(tmp_path))
        assert not doc.ok
        assert doc.errors == [{
            "stage": analysis, "type": "ValueError",
            "message": f"unknown {section} options: {key}"}]
        assert other in doc.results

    @pytest.mark.parametrize("key", ["analysis", "period_ns", "output_dir"])
    def test_top_level_typo_raises(self, cw_run, key):
        _, path = cw_run
        cfg = {"mode": "analyze", "input": str(path), key: ["g2cw"]}
        with pytest.raises(ValueError, match=f"unknown job options: {key}$"):
            run_pipeline(cfg)

    def test_pipeline_subcommand_rejects_top_level_typo(self, cw_run,
                                                        tmp_path, capsys):
        _, path = cw_run
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"mode": "analyze", "input": str(path),
                                   "analysis": ["g2cw"]}))
        assert cli_main(["pipeline", str(job), "--outdir",
                         str(tmp_path)]) == 1
        assert "unknown job options: analysis" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestAnalysesValue:
    """``analyses`` must be a list of analysis names. Any other value is
    refused before a stage runs, the way an unknown job key is."""

    MESSAGE = "analyses must be a list of analysis names, got "

    @pytest.mark.parametrize("value", [None, "g2cw", ("g2cw",),
                                       ["g2cw", 3], {"g2cw": True}],
                             ids=["null", "string", "tuple", "non_string",
                                  "dict"])
    def test_rejected_before_simulating(self, tmp_path, value):
        cfg = cw_config(duration_s=0.01, analyses=value)
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}"):
            run_pipeline(cfg, base_dir=str(tmp_path))
        assert not (tmp_path / "cw.ptst").exists()

    @pytest.mark.parametrize("value", [None, "g2cw"])
    def test_pipeline_subcommand_exits_with_the_message(self, tmp_path,
                                                         capsys, value):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(cw_config(duration_s=0.01,
                                            analyses=value)))
        assert cli_main(["pipeline", str(job), "--outdir",
                         str(tmp_path)]) == 1
        assert self.MESSAGE in capsys.readouterr().err
        assert not (tmp_path / "cw.ptst").exists()
        assert not (tmp_path / "report.json").exists()

    def test_empty_list_runs_the_source_stage_only(self, tmp_path):
        doc = run_pipeline(cw_config(duration_s=0.01, analyses=[]),
                           base_dir=str(tmp_path))
        assert doc.ok
        assert list(doc.results) == ["simulate"]


class TestRepeatedAnalyses:
    """A name listed twice in ``analyses`` is refused before a stage runs,
    with a message of its own."""

    ANALYSES = ["lifetime", "g2cw", "lifetime"]
    MESSAGE = "analysis 'lifetime' is listed more than once"

    def test_rejected_before_simulating(self, tmp_path):
        cfg = cw_config(duration_s=0.01, analyses=self.ANALYSES)
        with pytest.raises(ValueError, match=f"^{self.MESSAGE}$"):
            run_pipeline(cfg, base_dir=str(tmp_path))
        assert not (tmp_path / "cw.ptst").exists()

    def test_pipeline_subcommand_exits_with_the_message(self, tmp_path,
                                                         capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(cw_config(duration_s=0.01,
                                            analyses=self.ANALYSES)))
        assert cli_main(["pipeline", str(job), "--outdir",
                         str(tmp_path)]) == 1
        assert self.MESSAGE in capsys.readouterr().err
        assert not (tmp_path / "cw.ptst").exists()
        assert not (tmp_path / "report.json").exists()


class TestCwBiexciton:
    """CW excitation draws no biexciton photon, so a job asking for one
    is a simulate error entry, not a silently ignored key."""

    def test_simulate_error_entry(self, tmp_path):
        cfg = cw_config(duration_s=0.01, emitter={
            "lifetime_ns": 4.7, "biexciton_probability": 0.5})
        doc = run_pipeline(cfg, base_dir=str(tmp_path))
        [entry] = doc.errors
        assert (entry["stage"], entry["type"]) == ("simulate", "ValueError")
        assert "biexciton_probability" in entry["message"]
        assert not (tmp_path / "cw.ptst").exists()


class TestPrintedResults:
    """The CLI prints each branch of a stage result: warnings, flags and
    discards on stderr, and the blinking exponents or their absence."""

    def lifetime_result(self, **overrides):
        return {"fit": {"tau1_ns": {"value": 4.7, "sigma": 0.1}},
                "chi2_reduced": 1.0, "tau_avg_ns": Measurement(4.7, 0.1),
                "converged": True, "flags": [], "discarded": 0,
                **overrides}

    def test_non_convergence_flags_and_discards_go_to_stderr(self, capsys):
        _print_fit(self.lifetime_result(
            converged=False, discarded=12,
            flags=["singular_covariance", "degenerate_component"]))
        assert capsys.readouterr().err.splitlines() == [
            "warning: fit did not converge",
            "flag: singular_covariance",
            "flag: degenerate_component",
            "12 photons outside the sync window",
        ]

    def test_blink_without_dwells_says_so(self, pulsed_path, capsys):
        assert cli_main(["blink", str(pulsed_path), "--threshold",
                         "1e9"]) == 0
        text = out_lines(capsys)
        assert "on dwells = 0, off dwells = 0" in text
        assert "on: too few dwells to characterize" in text
        assert "off: too few dwells to characterize" in text

    def test_blink_prints_each_state_exponent(self, tmp_path, capsys):
        path = tmp_path / "blinking.ptst"
        assert cli_main(["simulate", "--duration-s", "1", "--rate-per-s",
                         "2e5", "--blinking", "power_law", "--seed", "3",
                         "-o", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["blink", str(path), "--threshold", "30"]) == 0
        text = out_lines(capsys)
        for state in ("on", "off"):
            line = next(s for s in text.splitlines()
                        if s.startswith(f"{state}: "))
            assert re.fullmatch(
                rf"{state}: alpha = \S+ \+/- \S+, "
                r"model = (power_law|exponential)", line), line

    def test_blink_names_the_estimator_refusal(self, tmp_path, capsys):
        """Thirty 1 ms ON dwells between OFF dwells of 1 to 5 ms: the ON
        sample has no spread above its minimum, which the estimator
        refuses, while the OFF state is fitted."""
        on, off = [1] * 30, [1 + k % 5 for k in range(30)]
        bins = [c for a, b in zip(on, off) for c in [100] * a + [0] * b]
        duration = len(bins) * PS_PER_MS
        # 100 events spread over each ON bin, on channel 0.
        events = np.concatenate([
            k * PS_PER_MS + np.arange(100) * (PS_PER_MS // 100)
            for k, c in enumerate(bins) if c])
        path = tmp_path / "refused.ptst"
        write_timestamps([TimestampStream(0, events, duration),
                          TimestampStream(1, [], duration)], path)
        assert cli_main(["blink", str(path), "--threshold", "50"]) == 0
        text = out_lines(capsys).splitlines()
        assert ("on: estimator refused the dwells: durations have no "
                "spread above tau_min") in text
        off = next(s for s in text if s.startswith("off: "))
        assert off.startswith("off: alpha = "), off
        doc = run_pipeline({"mode": "analyze", "input": str(path),
                            "analyses": ["blinking"]})
        entry = doc.results["blinking"]
        assert entry["alpha_on"] is None and entry["reason_off"] is None
        assert entry["reason_on"].startswith("estimator refused the dwells")


class TestReadmeFlagTable:
    """The README's flag -> job-config table matches the parser."""

    UNMAPPED = {"-h", "--help", "--outdir", "--config", "--fit"}

    @staticmethod
    def table_rows():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### One implementation behind both")[1]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not cells[1].startswith("`"):
                continue
            for command in cells[0].split(", "):
                rows.setdefault(command, set()).update(
                    re.findall(r"`([^`]+)`", cells[1]))
        return rows

    @staticmethod
    def parser_flags():
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {name: [a.option_strings or [a.dest] for a in p._actions]
                for name, p in sub.choices.items()}

    def test_table_flags_exist_on_their_subcommands(self):
        flags = self.parser_flags()
        for command, listed in self.table_rows().items():
            known = {f for names in flags[command] for f in names}
            assert listed <= known, (command, listed - known)

    def test_every_mapped_flag_is_in_the_table(self):
        rows = self.table_rows()
        flags = self.parser_flags()
        for command in ("simulate", "correlate", "lifetime", "blink"):
            for names in flags[command]:
                if self.UNMAPPED.isdisjoint(names):
                    assert rows[command].intersection(names), (command, names)



def readme_flag_pairs():
    """(subcommand, flag cell, key cell) for each flag of the README's flag
    -> job-config table; a row's flags and keys pair up in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### One implementation behind both")[1]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[1].startswith("`"):
            continue
        flags, keys = cells[1].split(", "), cells[2].split(", ")
        assert len(flags) == len(keys), line
        for command in cells[0].split(", "):
            yield from ((command, f, k) for f, k in zip(flags, keys))


class _StageReached(Exception):
    pass


class TestReadmeFlagKeys:
    """Each flag in the README's table lands on the job-config key its row
    names, in the config that reaches the stage the subcommand calls."""

    # The stage whose config is captured. ``correlate`` runs with ``--fit``
    # so that ``-o`` becomes ``correlation.csv``; its load and histogram
    # stages are stubbed.
    STAGE = {"simulate": "run_simulate", "correlate": "run_g2_fit",
             "lifetime": "run_load", "blink": "run_load"}

    @staticmethod
    def flag_value(command, flag):
        """A value for ``flag`` as typed, and as the parser stores it."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        action = next(a for a in sub.choices[command]._actions
                      if flag in (a.option_strings or [a.dest]))
        if action.choices:
            typed = action.choices[-1]
        else:
            typed = {int: "3", float: "2.5"}.get(action.type, "out.x")
        return typed, action.type(typed) if action.type else typed

    @pytest.mark.parametrize(
        "command, flag_cell, key_cell", list(readme_flag_pairs()),
        ids=lambda cell: cell.split("`")[1] if "`" in cell else cell)
    def test_flag_sets_its_key(self, tmp_path, monkeypatch, command,
                               flag_cell, key_cell):
        flag = re.findall(r"`([^`]+)`", flag_cell)[0]
        paths = re.findall(r"`([^`]+)`", key_cell)
        parent = paths[0].rpartition(".")[0]
        paths = [p if "." in p or not parent else f"{parent}.{p}"
                 for p in paths]
        typed, value = self.flag_value(command, flag)
        if "(ns)" in flag_cell:
            assert "(ps)" in key_cell
            value = ns_to_ps(value)

        stage = self.STAGE[command]
        signature = inspect.signature(getattr(pipeline, stage))
        seen = []

        def spy(*args, **kwargs):
            seen.append(signature.bind(*args, **kwargs).arguments["config"])
            raise _StageReached

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(f"photonkit.pipeline.{stage}", spy)
        argv = [command]
        if command != "simulate":
            argv.append(typed if flag == "input" else "in.ptst")
        if flag != "input":
            argv += [flag, typed]
        if command == "correlate":
            monkeypatch.setattr("photonkit.pipeline.run_load",
                                lambda config, hasher=None: ({}, {}))
            monkeypatch.setattr(
                "photonkit.pipeline.run_correlate",
                lambda streams, config: CoincidenceHistogram(500, 1000,
                                                             [0] * 4))
            argv += ["--fit", "pulsed"]
        # The job's stage boundary turns the spy's exception into an
        # error entry, so the subcommand exits 1.
        assert cli_main(argv) == 1
        [config] = seen
        for path in paths:
            node = config
            for part in path.split("."):
                node = node[part]
            assert node == value, (path, node, value)

class TestReadmePythonApi:
    """The README's Python API block runs as written."""

    def test_python_block_runs(self, capsys):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})
        out = capsys.readouterr().out
        assert "single_photon" in out
        assert "PeriodicStream(channel=255" in out


class TestReadmeJobKeys:
    """The README's job-key table lists ``pipeline._KEYS`` row for row,
    and its job block runs as written."""

    @staticmethod
    def readme():
        return (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def test_table_rows_are_the_key_table(self):
        table = self.readme().split("| Section | Key | Rule | Default |")[1]
        rows = []
        for line in table.split("\n\n")[0].splitlines():
            if line.startswith("| "):
                section, key, rule, default = (
                    c.strip().strip("`") for c in line.strip("|").split("|"))
                default = json.loads(default)
                rows.append(("" if section == "top level" else section, key,
                             rule, type(default), default))
        assert rows == [
            (section, key, rule.__name__.strip("_").replace("_", " "),
             type(default), default)
            for section, keys in pipeline._KEYS.items()
            for key, (rule, default) in keys.items()]

    def test_json_block_runs(self, tmp_path):
        [block] = re.findall(r"```json\n(.*?)```", self.readme(), re.S)
        doc = run_pipeline(json.loads(block), base_dir=str(tmp_path))
        assert doc.ok, doc.errors


class TestWholePicosecondJobs:
    """A job's ps values follow the records' rule: an integral float runs
    exactly like the int, a fractional one is an error entry naming it."""

    JOB = {"mode": "simulate", "seed": 6, "duration_s": 0.02,
           "excitation": {"mode": "pulsed", "excitation_probability": 0.5},
           "output": "pulsed.ptst"}

    def test_integral_float_period_writes_the_same_file(self, tmp_path):
        files = []
        for period in (100_000, 100_000.0):
            excitation = {**self.JOB["excitation"], "pulse_period_ps": period}
            base = tmp_path / type(period).__name__
            base.mkdir()
            doc = run_pipeline({**self.JOB, "excitation": excitation},
                               base_dir=str(base))
            assert doc.ok, doc.errors
            files.append((base / "pulsed.ptst").read_bytes())
        assert files[0] == files[1]

    def test_fractional_period_is_a_simulate_error(self, tmp_path):
        excitation = {**self.JOB["excitation"], "pulse_period_ps": 100_000.5}
        doc = run_pipeline({**self.JOB, "excitation": excitation},
                           base_dir=str(tmp_path))
        [entry] = doc.errors
        assert entry["stage"] == "simulate"
        assert entry["type"] == "ValueError"
        assert "pulse_period_ps" in entry["message"]
        assert not (tmp_path / "pulsed.ptst").exists()

    def test_quoted_period_is_a_simulate_error(self, tmp_path):
        excitation = {**self.JOB["excitation"], "pulse_period_ps": "100000"}
        doc = run_pipeline({**self.JOB, "excitation": excitation},
                           base_dir=str(tmp_path))
        [entry] = doc.errors
        assert (entry["stage"], entry["type"]) == ("simulate", "ValueError")
        assert entry["message"].startswith("pulse_period_ps must be")
        assert not (tmp_path / "pulsed.ptst").exists()

    def test_fractional_bin_width_is_an_analysis_error(self, tmp_path):
        doc = run_pipeline({
            **self.JOB, "analyses": ["g2pw", "lifetime"],
            "correlation": {"window_ns": 300, "bin_width_ps": 500.5},
            "lifetime": {"bin_width_ps": 500.5}}, base_dir=str(tmp_path))
        assert "simulate" in doc.results
        assert [(e["stage"], e["type"]) for e in doc.errors] == [
            ("g2pw", "ValueError"), ("lifetime", "ValueError")]
        for entry, section in zip(doc.errors, ("correlation", "lifetime")):
            assert entry["message"].startswith(
                f"{section}.bin_width_ps must be a whole")

    @pytest.mark.parametrize("spacings, period_ps", [
        ((), 12_346), ((99_999, 100_000), 99_999)],
        ids=["period_ns", "half_ps_median_sync"])
    def test_g2pw_and_lifetime_share_one_whole_ps_period(
            self, cw_run, tmp_path, monkeypatch, spacings, period_ps):
        """The pulsed fit's period in ns is the lifetime fold's whole ps
        period, divided once: ``period_ns`` without a sync channel, else
        the sync's median spacing, truncated to whole ps when it falls on
        a half ps."""
        _, path = cw_run
        if spacings:
            streams = read_timestamps(path)
            # 1000 spacings, half of each: the median is a half ps.
            pulses = np.cumsum(np.resize(spacings, 1001))
            path = tmp_path / "sync.ptst"
            write_timestamps([streams[0], streams[1], TimestampStream(
                SYNC_CHANNEL, pulses, streams[0].duration)], path)
        seen, inferred = {}, []
        fold, median = pipeline.sync_decay_histogram, correlator._sync_period

        def g2pw(histogram, period_ns, n_side):
            seen["g2pw"] = period_ns
            raise _StageReached

        def decay(*args, **kwargs):
            # The period the pipeline passes, else the one the fold infers
            # from the sync.
            seen["lifetime"] = (kwargs["period"]
                                if kwargs.get("period") is not None
                                else fold(*args, **kwargs).period)
            raise _StageReached

        def sync_period(sync):
            inferred.append(median(sync))
            return inferred[-1]

        monkeypatch.setattr(fitmod, "fit_g2_pw", g2pw)
        monkeypatch.setattr(pipeline, "sync_decay_histogram", decay)
        # The fit reads pipeline's binding, the fold correlator's.
        monkeypatch.setattr(pipeline, "_sync_period", sync_period)
        monkeypatch.setattr(correlator, "_sync_period", sync_period)
        doc = run_pipeline({
            "mode": "analyze", "input": str(path),
            "analyses": ["g2pw", "lifetime"],
            "correlation": {"window_ns": 300, "period_ns": 12.3456},
            "lifetime": {"period_ns": 12.3456}}, base_dir=str(tmp_path))
        assert [e["type"] for e in doc.errors] == ["_StageReached"] * 2
        assert seen == {"g2pw": period_ps / PS_PER_NS, "lifetime": period_ps}
        assert type(seen["lifetime"]) is int
        assert inferred == ([period_ps] * 2 if spacings else [])
        assert all(type(p) is int for p in inferred)



class TestWholeNumberJobs:
    """A job's counts follow the ps values' rule without the unit: an
    integral float runs exactly like the int; a fractional value, a string
    or a bool is that stage's error entry naming the key. A ``period_ns``
    that is not positive is refused the same way."""

    JOB = {"mode": "simulate", "seed": 6, "duration_s": 0.02,
           "excitation": {"mode": "pulsed", "excitation_probability": 0.5},
           "output": "pulsed.ptst"}

    @staticmethod
    def only_error(doc, stage, key):
        [entry] = doc.errors
        assert (entry["stage"], entry["type"]) == (stage, "ValueError")
        assert entry["message"].startswith(f"{key} must be a"), entry
        assert "ps" not in entry["message"].split(", got")[0]
        return entry

    @pytest.mark.parametrize("key, value", [
        ("workers", 2.5), ("workers", True), ("workers", "2"),
        ("seed", 1.5), ("seed", "7"), ("seed", None)])
    def test_simulate_count_is_a_simulate_error(self, tmp_path, key, value):
        doc = run_pipeline({**self.JOB, key: value}, base_dir=str(tmp_path))
        self.only_error(doc, "simulate", key)
        assert not (tmp_path / "pulsed.ptst").exists()

    def test_negative_seed_is_a_simulate_error(self, tmp_path):
        doc = run_pipeline({**self.JOB, "seed": -1}, base_dir=str(tmp_path))
        assert doc.errors == [{"stage": "simulate", "type": "ValueError",
                               "message": "seed must be >= 0, got -1"}]
        assert not (tmp_path / "pulsed.ptst").exists()

    def test_integral_float_counts_write_the_same_file(self, tmp_path):
        files = []
        for seed, workers in ((6, 2), (6.0, 2.0)):
            base = tmp_path / type(seed).__name__
            base.mkdir()
            doc = run_pipeline({**self.JOB, "seed": seed, "workers": workers},
                               base_dir=str(base))
            assert doc.ok, doc.errors
            files.append((base / "pulsed.ptst").read_bytes())
        assert files[0] == files[1]

    def test_quoted_workers_is_an_input_error(self, cw_run, tmp_path):
        _, path = cw_run
        doc = run_pipeline({"mode": "analyze", "input": str(path),
                            "workers": "2"}, base_dir=str(tmp_path))
        self.only_error(doc, "input", "workers")

    @pytest.mark.parametrize("analysis, section, key, value", [
        ("g2pw", "correlation", "n_side", 4.7),
        ("g2pw", "correlation", "n_side", None),
        ("lifetime", "lifetime", "n_components", True)])
    def test_fit_count_is_that_analysis_error(self, tmp_path, analysis,
                                              section, key, value):
        doc = run_pipeline({**self.JOB, "analyses": [analysis],
                            "correlation": {"window_ns": 300},
                            section: {key: value}}, base_dir=str(tmp_path))
        assert "simulate" in doc.results
        self.only_error(doc, analysis, f"{section}.{key}")

    def test_integral_float_n_components_fits_the_same(self, tmp_path):
        results = [
            run_pipeline({**self.JOB, "analyses": ["lifetime"],
                          "lifetime": {"n_components": n}},
                         base_dir=str(tmp_path)).results["lifetime"]
            for n in (1, 1.0)]
        assert results[0] == results[1]

    def test_period_not_positive_is_refused_in_either_section(
            self, cw_run, tmp_path):
        _, path = cw_run
        doc = run_pipeline({
            "mode": "analyze", "input": str(path),
            "analyses": ["g2pw", "lifetime"],
            "correlation": {"window_ns": 300, "period_ns": 0},
            "lifetime": {"period_ns": -100}}, base_dir=str(tmp_path))
        assert [(e["stage"], e["message"]) for e in doc.errors] == [
            ("g2pw", "correlation.period_ns must be positive, got 0"),
            ("lifetime", "lifetime.period_ns must be positive, got -100")]

    @pytest.mark.parametrize("command, config, key", [
        ("simulate", {"seed": 1.5}, "seed"),
        ("simulate", {"workers": "2"}, "workers"),
        ("correlate", {"fit": "pulsed", "n_side": 4.7}, "correlation.n_side"),
        ("lifetime", {"components": True}, "lifetime.n_components"),
        ("lifetime", {"period": 0}, "lifetime.period_ns"),
        ("correlate", {"window": [1]}, "correlation.window_ns")])
    def test_cli_config_exits_1_naming_the_key(self, pulsed_path, tmp_path,
                                               capsys, command, config, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        source = (["--duration-s", "0.01"] if command == "simulate"
                  else [str(pulsed_path)])
        assert cli_main([command, *source, "--config", str(cfg),
                         "--outdir", str(tmp_path)]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err

class TestFloatJobKeys:
    """A job's real-valued keys refuse a bool, a numeric string, null, NaN
    or an infinity with an error entry naming the key, as the whole-number
    keys do; ``true`` must not silently read as 1. Null still means unset
    for ``tau_min_ms``, ``period_ns`` and ``csv``."""

    @pytest.mark.parametrize("value", [True, "1", None, float("nan"),
                                       float("inf")])
    def test_duration_is_a_simulate_error(self, tmp_path, value):
        doc = run_pipeline(cw_config(duration_s=value), base_dir=str(tmp_path))
        TestWholeNumberJobs.only_error(doc, "simulate", "duration_s")
        assert not (tmp_path / "cw.ptst").exists()

    @pytest.mark.parametrize("value", [True, "1", float("nan"),
                                       float("inf")])
    @pytest.mark.parametrize("analysis, section, key", [
        ("g2cw", "correlation", "window_ns"),
        ("g2pw", "correlation", "period_ns"),
        ("blinking", "blinking", "threshold_per_ms"),
        ("blinking", "blinking", "bin_width_ms"),
        ("blinking", "blinking", "min_dwell_ms"),
        ("blinking", "blinking", "tau_min_ms")])
    def test_analysis_key_is_that_analysis_error(self, cw_run, tmp_path,
                                                  analysis, section, key,
                                                  value):
        _, path = cw_run
        doc = run_pipeline({"mode": "analyze", "input": str(path),
                            "analyses": [analysis], section: {key: value}},
                           base_dir=str(tmp_path))
        entry = TestWholeNumberJobs.only_error(doc, analysis,
                                               f"{section}.{key}")
        assert entry["message"] == (
            f"{section}.{key} must be a number, got {value!r}")

    @pytest.mark.parametrize("analysis, section, key", [
        ("g2cw", "correlation", "window_ns"),
        ("blinking", "blinking", "threshold_per_ms"),
        ("blinking", "blinking", "bin_width_ms"),
        ("blinking", "blinking", "min_dwell_ms")])
    def test_null_analysis_key_is_that_analysis_error(
            self, cw_run, tmp_path, analysis, section, key):
        self.test_analysis_key_is_that_analysis_error(
            cw_run, tmp_path, analysis, section, key, None)

    @pytest.mark.parametrize("mode, stage, keys, message", [
        ("analyze", "g2cw", {"correlation": {"bin_width_ps": None}},
         "correlation.bin_width_ps must be a number of ps, got None"),
        ("analyze", "input", {"duration_ps": "abc"},
         "duration_ps must be a number of ps, got 'abc'"),
        ("analyze", "input", {"duration_ps": 1000},
         "duration_ps: duration 1000 is before the last event "
         "249999924715"),
        ("simulate", "simulate", {"duration_s": -1},
         "duration_s must be positive, got -1"),
        ("analyze", "blinking", {"blinking": {"bin_width_ms": -1}},
         "blinking.bin_width_ms must be positive, got -1")])
    def test_key_is_refused_by_its_job_name(self, cw_run, tmp_path, mode,
                                            stage, keys, message):
        """Not by the argument name of the builder it is passed to."""
        _, path = cw_run
        job = (cw_config(duration_s=0.01) if mode == "simulate" else
               {"mode": "analyze", "input": str(path),
                "analyses": [stage] if stage != "input" else []})
        doc = run_pipeline({**job, **keys}, base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            (stage, "ValueError", message)]

    @pytest.mark.parametrize("out_of_range", ["under_1_ps", "past_2**63_ps"])
    @pytest.mark.parametrize("stage, section, key, under", [
        ("simulate", "", "duration_s", 1e-13),
        ("g2cw", "correlation", "window_ns", 1e-4),
        ("g2pw", "correlation", "period_ns", 1e-4),
        ("lifetime", "lifetime", "period_ns", 1e-4),
        ("blinking", "blinking", "bin_width_ms", 1e-13)])
    def test_span_out_of_range_is_refused_by_its_job_name(
            self, cw_run, tmp_path, monkeypatch, stage, section, key, under,
            out_of_range):
        """A span that rounds to 0 ps, or to 2**63 ps or more, is that
        stage's error entry naming the key, before a simulation runs or a
        builder sees 0 ps or an overflow."""
        value = under if out_of_range == "under_1_ps" else 1e300
        _, path = cw_run
        simulated = []
        monkeypatch.setattr(pipeline, "generate_emission",
                            lambda *args: simulated.append(args))
        if stage == "simulate":
            job = cw_config(duration_s=value)
        else:
            job = {"mode": "analyze", "input": str(path), "analyses": [stage],
                   section: {key: value}}
        doc = run_pipeline(job, base_dir=str(tmp_path))
        name = f"{section}.{key}" if section else key
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            (stage, "ValueError",
             f"{name} must be from 1 ps to below 2**63 ps, got {value}")]
        assert simulated == []
        assert list(tmp_path.iterdir()) == []

    def test_null_reads_as_unset(self, pulsed_path, tmp_path):
        job = {"mode": "analyze", "input": str(pulsed_path),
               "analyses": ["lifetime", "blinking"]}
        unset = run_pipeline(job, base_dir=str(tmp_path))
        null = run_pipeline({**job, "lifetime": {"period_ns": None,
                                                 "csv": None},
                             "blinking": {"tau_min_ms": None}},
                            base_dir=str(tmp_path))
        assert unset.ok and null.ok, (unset.errors, null.errors)
        assert null.results == unset.results


class TestModelFieldJobs:
    """A model block's real-valued fields take the same number rule: a
    bool, a string, null or NaN is the simulate stage's error entry naming
    the field, and no file is written."""

    @pytest.mark.parametrize("value", [True, "4.7", None, float("nan")])
    @pytest.mark.parametrize("block, key", [
        ("emitter", "lifetime_ns"),
        ("excitation", "excitation_probability"),
        ("detector", "efficiency"),
        ("detector", "jitter_sigma_ps")])
    def test_simulate_error_entry_names_the_field(self, tmp_path, block,
                                                  key, value):
        cfg = cw_config(duration_s=0.01)
        cfg[block] = {**cfg[block], key: value}
        doc = run_pipeline(cfg, base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            ("simulate", "ValueError", f"{key} must be a number, got {value!r}")]
        assert not (tmp_path / "cw.ptst").exists()

    @pytest.mark.parametrize("block, key", [
        ("emitter", "lifetime_ns"),
        ("excitation", "cw_rate_per_s"),
        ("detector", "jitter_sigma_ps"),
        ("detector", "dark_rate_per_ms")])
    def test_infinity_names_the_field(self, tmp_path, block, key):
        """Only ``max_dwell_ms`` takes an infinity."""
        self.test_simulate_error_entry_names_the_field(tmp_path, block, key,
                                                       float("inf"))

    def test_blinking_field_and_infinite_dwell(self, tmp_path):
        emitter = {"lifetime_ns": 4.7, "blinking": {
            "kind": "power_law", "max_dwell_ms": float("nan")}}
        doc = run_pipeline(cw_config(duration_s=0.01, emitter=emitter),
                           base_dir=str(tmp_path))
        TestWholeNumberJobs.only_error(doc, "simulate", "max_dwell_ms")
        emitter["blinking"]["max_dwell_ms"] = float("inf")
        doc = run_pipeline(cw_config(duration_s=0.01, emitter=emitter),
                           base_dir=str(tmp_path))
        assert doc.ok, doc.errors


class TestJobBlocks:
    """An analysis section or a model block that is not a JSON object is
    refused by name, as that analysis's or the simulate stage's error
    entry; a null one reads as empty."""

    @pytest.mark.parametrize("analysis, section, value", [
        ("g2cw", "correlation", "abc"),
        ("g2cw", "correlation", [1]),
        ("lifetime", "lifetime", 5),
        ("blinking", "blinking", [])])
    def test_section_is_that_analysis_error(self, cw_run, tmp_path,
                                            analysis, section, value):
        _, path = cw_run
        doc = run_pipeline({"mode": "analyze", "input": str(path),
                            "analyses": [analysis], section: value},
                           base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            (analysis, "ValueError",
             f"{section} must be a JSON object, got {value!r}")]

    @pytest.mark.parametrize("emitter, label, value", [
        (5, "emitter", 5),
        ("abc", "emitter", "abc"),
        ({"blinking": 3}, "blinking", 3)])
    def test_model_block_is_a_simulate_error(self, tmp_path, emitter, label,
                                             value):
        doc = run_pipeline(cw_config(duration_s=0.01, emitter=emitter),
                           base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            ("simulate", "ValueError",
             f"{label} must be a JSON object, got {value!r}")]
        assert not (tmp_path / "cw.ptst").exists()

    def test_null_block_reads_as_empty(self, cw_run, tmp_path):
        _, path = cw_run
        doc = run_pipeline(cw_config(duration_s=0.01, emitter=None,
                                     detector={"dark_rate_per_ms": 0.0}),
                           base_dir=str(tmp_path))
        assert doc.ok, doc.errors
        doc = run_pipeline({"mode": "analyze", "input": str(path),
                            "analyses": ["blinking"], "blinking": None},
                           base_dir=str(tmp_path))
        assert doc.ok, doc.errors


class TestPathJobKeys:
    """``input``, ``output`` and each section's ``csv`` name files, so they
    must be strings: anything else is the reading stage's error entry
    naming the key, before any file is opened. ``open(True)`` would be
    file descriptor 1, and closing it would close stdout."""

    @pytest.mark.parametrize("value", [True, 2])
    def test_input_is_an_input_error(self, tmp_path, value):
        doc = run_pipeline({"mode": "analyze", "input": value,
                            "analyses": ["g2cw"]}, base_dir=str(tmp_path))
        assert (doc.errors[0]["stage"], doc.errors[0]["type"],
                doc.errors[0]["message"]) == (
            "input", "ValueError", f"input must be a string, got {value!r}")
        os.fstat(1)
        os.fstat(2)

    def test_input_error_is_printed(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"mode": "analyze", "input": 2}))
        assert cli_main(["pipeline", str(job), "--outdir",
                         str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error[input]: input must be a string, got 2\n")
        os.fstat(1)
        os.fstat(2)

    def test_output_is_a_simulate_error(self, tmp_path):
        doc = run_pipeline(cw_config(duration_s=0.01, output=7),
                           base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            ("simulate", "ValueError", "output must be a string, got 7")]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("analysis, section", [
        ("g2cw", "correlation"), ("lifetime", "lifetime")])
    def test_csv_is_that_analysis_error(self, pulsed_path, tmp_path,
                                        analysis, section):
        doc = run_pipeline({"mode": "analyze", "input": str(pulsed_path),
                            "analyses": [analysis], section: {"csv": 5}},
                           base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            (analysis, "ValueError", f"{section}.csv must be a string, got 5")]

    def test_empty_output_is_refused_before_simulating(self, tmp_path,
                                                        monkeypatch):
        """Joined to the base directory, "" would name the directory
        itself, and the write would fail only after the simulation."""
        simulated = []
        monkeypatch.setattr(pipeline, "generate_emission",
                            lambda *args: simulated.append(args))
        doc = run_pipeline(cw_config(duration_s=0.01, output=""),
                           base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            ("simulate", "ValueError", "output must not be empty")]
        assert simulated == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("analysis, section", [
        ("g2cw", "correlation"), ("lifetime", "lifetime")])
    def test_empty_csv_is_that_analysis_error(self, pulsed_path, tmp_path,
                                              analysis, section):
        """Not read as "no CSV", which would drop the export silently."""
        doc = run_pipeline({"mode": "analyze", "input": str(pulsed_path),
                            "analyses": [analysis], section: {"csv": ""}},
                           base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            (analysis, "ValueError", f"{section}.csv must not be empty")]
        assert list(tmp_path.iterdir()) == []

    def test_empty_correlate_output_is_refused_before_reading(
            self, pulsed_path, tmp_path, capsys, monkeypatch):
        """``correlate -o ""`` is read as ``correlation.csv``, so it is
        refused before the file is read, not after correlating it."""
        loaded = []
        monkeypatch.setattr(pipeline, "run_load",
                            lambda *args: loaded.append(args))
        assert cli_main(["correlate", str(pulsed_path), "--outdir",
                         str(tmp_path), "-o", ""]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: correlation.csv must not be empty\n"
        assert captured.out == ""
        assert loaded == []
        assert list(tmp_path.iterdir()) == []

    def test_empty_pipeline_output_is_refused_before_the_job(
            self, tmp_path, capsys, monkeypatch):
        """``pipeline -o ""`` names the flag before the job runs, not
        after it, as a directory that cannot be written."""
        ran = []
        monkeypatch.setattr(cli, "run_pipeline",
                            lambda *args, **kw: ran.append(args))
        job = tmp_path / "job.json"
        job.write_text(json.dumps(cw_config(duration_s=0.01)))
        outdir = tmp_path / "out"
        assert cli_main(["pipeline", str(job), "--outdir", str(outdir),
                         "-o", ""]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: -o must not be empty\n"
        assert captured.out == ""
        assert ran == []
        assert not outdir.exists()

    def test_empty_input_is_an_input_error(self, tmp_path):
        doc = run_pipeline({"mode": "analyze", "input": ""},
                           base_dir=str(tmp_path))
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            ("input", "ValueError", "input must not be empty")]


class TestMissingOutputDirectory:
    """An ``output``, ``correlation.csv`` or ``lifetime.csv`` whose
    directory does not exist is refused by its key before its stage
    simulates or builds its histogram, not found after the work."""

    def test_output_refused_before_simulating(self, tmp_path, monkeypatch):
        simulated = []
        monkeypatch.setattr(pipeline, "generate_emission",
                            lambda *args: simulated.append(args))
        doc = run_pipeline(cw_config(duration_s=0.01, output="missing/x.ptst"),
                           base_dir=str(tmp_path))
        [entry] = doc.errors
        assert (entry["stage"], entry["type"]) == ("simulate", "ValueError")
        assert entry["message"].startswith("output: directory of ")
        assert simulated == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("analysis, section, build", [
        ("g2", "correlation", "cross_correlate"),
        ("g2cw", "correlation", "cross_correlate"),
        ("lifetime", "lifetime", "sync_decay_histogram")])
    def test_csv_refused_before_its_histogram(self, pulsed_path, tmp_path,
                                              monkeypatch, analysis, section,
                                              build):
        built = []
        monkeypatch.setattr(pipeline, build,
                            lambda *args, **kw: built.append(args))
        doc = run_pipeline({"mode": "analyze", "input": str(pulsed_path),
                            "analyses": [analysis],
                            section: {"csv": "missing/h.csv"}},
                           base_dir=str(tmp_path))
        [entry] = doc.errors
        assert (entry["stage"], entry["type"]) == (analysis, "ValueError")
        assert entry["message"].startswith(f"{section}.csv: directory of ")
        assert built == []
        assert list(tmp_path.iterdir()) == []

    def test_pipeline_report_refused_before_the_job(self, tmp_path, capsys,
                                                    monkeypatch):
        simulated = []
        monkeypatch.setattr(pipeline, "generate_emission",
                            lambda *args: simulated.append(args))
        job = tmp_path / "job.json"
        job.write_text(json.dumps(cw_config(duration_s=0.01)))
        outdir = tmp_path / "out"
        assert cli_main(["pipeline", str(job), "--outdir", str(outdir),
                         "-o", "missing/r.json"]) == 1
        captured = capsys.readouterr()
        path = os.path.join(str(outdir), "missing", "r.json")
        assert captured.err == (
            f"error: -o: directory of {path!r} does not exist\n")
        assert captured.out == ""
        assert simulated == []
        assert list(outdir.iterdir()) == []

    def test_cli_names_output(self, tmp_path, capsys):
        assert cli_main(["simulate", "--duration-s", "0.01", "--outdir",
                         str(tmp_path), "-o", "missing/x.ptst"]) == 1
        captured = capsys.readouterr()
        path = os.path.join(str(tmp_path), "missing", "x.ptst")
        assert captured.err == (
            f"error: output: directory of {path!r} does not exist\n")
        assert captured.out == ""


class TestSubcommandErrorCodes:
    """A file error keeps its stable code on every subcommand, as it does
    in the pipeline's ``error[stage:code]`` lines."""

    @pytest.mark.parametrize("command", ["correlate", "lifetime", "blink"])
    def test_bad_magic_prints_its_code(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.ptst"
        bad.write_bytes(b"NOTP" + bytes(15))
        assert cli_main([command, str(bad), "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[bad_magic]: "), err


class TestFitPeriodFlag:
    """``photonkit fit --model decay`` refuses a ``--period`` that is not
    positive, naming the flag, instead of replacing it by the CSV's extent
    or failing on the bin width. ``photonkit simulate --period`` and the
    out-of-range spans of both follow the job's ns span rule, by the
    flag's name."""

    @pytest.mark.parametrize("period", ["0", "-50"])
    def test_not_positive_exits_1_naming_the_flag(self, pulsed_path,
                                                   tmp_path, capsys, period):
        assert cli_main(["lifetime", str(pulsed_path), "--components", "1",
                         "--outdir", str(tmp_path), "-o", "decay.csv"]) == 0
        capsys.readouterr()
        assert cli_main(["fit", str(tmp_path / "decay.csv"), "--model",
                         "decay", "--components", "1",
                         f"--period={period}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --period must be positive, got {float(period)}\n")
        assert captured.out == ""

    def test_config_string_exits_1_naming_the_flag(self, pulsed_path,
                                                   tmp_path, capsys):
        assert cli_main(["lifetime", str(pulsed_path), "--components", "1",
                         "--outdir", str(tmp_path), "-o", "decay.csv"]) == 0
        capsys.readouterr()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"period": "abc"}))
        assert cli_main(["fit", str(tmp_path / "decay.csv"), "--model",
                         "decay", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --period must be a number, got 'abc'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command, period, message", [
        ("fit", "0.0001", "from 1 ps to below 2**63 ps, got 0.0001"),
        ("fit", "1e300", "from 1 ps to below 2**63 ps, got 1e+300"),
        ("simulate", "0.0001", "from 1 ps to below 2**63 ps, got 0.0001"),
        ("simulate", "1e300", "from 1 ps to below 2**63 ps, got 1e+300"),
        ("simulate", "0", "positive, got 0.0")])
    def test_span_exits_1_naming_the_flag(self, pulsed_path, tmp_path,
                                          capsys, command, period, message):
        if command == "fit":
            assert cli_main(["lifetime", str(pulsed_path), "--components",
                             "1", "--outdir", str(tmp_path),
                             "-o", "decay.csv"]) == 0
            argv = ["fit", str(tmp_path / "decay.csv"), "--model", "decay",
                    "--components", "1"]
        else:
            argv = ["simulate", "--mode", "pulsed", "--duration-s", "0.001",
                    "--outdir", str(tmp_path)]
        capsys.readouterr()
        files = sorted(os.listdir(tmp_path))
        assert cli_main([*argv, f"--period={period}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --period must be {message}\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == files

    @pytest.mark.parametrize("model", ["cw", "pulsed"])
    @pytest.mark.parametrize("period, message", [
        ("0.0001", "from 1 ps to below 2**63 ps, got 0.0001"),
        ("1e300", "from 1 ps to below 2**63 ps, got 1e+300"),
        ("0", "positive, got 0.0")])
    def test_g2_models_exit_1_naming_the_flag(self, pulsed_path, tmp_path,
                                              capsys, model, period, message):
        """The g2 models read ``--period`` by the flag's name too, not as
        the job key ``correlation.period_ns`` it becomes."""
        assert cli_main(["correlate", str(pulsed_path), "--window", "600",
                         "--outdir", str(tmp_path), "-o", "raw.csv"]) == 0
        capsys.readouterr()
        assert cli_main(["fit", str(tmp_path / "raw.csv"), "--model", model,
                         f"--period={period}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --period must be {message}\n"
        assert captured.out == ""

    def test_simulate_config_string_exits_1_naming_the_flag(self, tmp_path,
                                                             capsys):
        """Not an uncaught ``TypeError`` from rounding a string."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"period": "abc", "mode": "pulsed"}))
        assert cli_main(["simulate", "--duration-s", "0.001", "--config",
                         str(cfg), "--outdir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --period must be a number, got 'abc'\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["c.json"]

    def test_fractional_count_exits_1_naming_the_row(self, tmp_path, capsys):
        csv = tmp_path / "h.csv"
        csv.write_text("bin_center_ns,count\n0.250,3\n0.750,2.7\n"
                       "1.250,1\n")
        assert cli_main(["fit", str(csv), "--model", "decay"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: column 'count' must hold whole "
                                "numbers, got 2.7 in row 2\n")
        assert captured.out == ""


class TestChannelSumOracle:
    """The decay histogram and intensity trace are built per detector
    channel and summed. The reference builds them once on both channels
    merged into one time-ordered stream, on the longest duration of the
    channels that hold events."""

    DURATION = 2 * 10**9
    PERIOD = 100_000
    CONFIG = {"lifetime": {"bin_width_ps": 1000},
              "blinking": {"bin_width_ms": 0.01}}

    @staticmethod
    def merged(streams):
        parts = [streams[c] for c in (0, 1) if c in streams and len(streams[c])]
        events = np.sort(np.concatenate([s.events for s in parts]),
                         kind="stable")
        return TimestampStream(0, events, max(s.duration for s in parts))

    def channel(self, c, n, seed, duration=None):
        duration = duration or self.DURATION
        events = np.random.default_rng(seed).integers(0, duration, n)
        events.sort()
        events[0] = 0  # before the first sync pulse: discarded
        events[-1] = duration  # lands in the clamped last trace bin
        return TimestampStream(c, events, duration)

    def syncs(self):
        # Both syncs start after some photons and end before others, so
        # both kinds of discard occur; the explicit one jitters and skips
        # a pulse, so its median period and its search both matter.
        count = self.DURATION // self.PERIOD - 30
        grid = PeriodicStream(SYNC_CHANNEL, 7_000, self.PERIOD, count,
                              self.DURATION)
        pulses = grid.events + np.random.default_rng(9).integers(
            -40, 40, count)
        explicit = TimestampStream(SYNC_CHANNEL, np.delete(pulses, 500),
                                   self.DURATION)
        return {"periodic": grid, "explicit": explicit, "period_ns": None}

    def cases(self):
        ch0 = self.channel(0, 6000, 1)
        ch1 = self.channel(1, 4000, 2, duration=self.DURATION - 10**8)
        empty = TimestampStream(1, [], 3 * self.DURATION)
        return {"both": {0: ch0, 1: ch1}, "one_empty": {0: ch0, 1: empty},
                "one_missing": {1: ch1}}

    @pytest.mark.parametrize("case", ["both", "one_empty", "one_missing"])
    @pytest.mark.parametrize("sync_kind", ["periodic", "explicit",
                                           "period_ns"])
    def test_equals_the_merged_stream(self, sync_kind, case):
        streams = dict(self.cases()[case])
        sync = self.syncs()[sync_kind]
        config = {k: dict(v) for k, v in self.CONFIG.items()}
        if sync is None:
            config["lifetime"]["period_ns"] = self.PERIOD / PS_PER_NS
        else:
            streams[SYNC_CHANNEL] = sync
        merged = self.merged(streams)

        decay = pipeline.run_decay_histogram(streams, config)
        ref = sync_decay_histogram(
            merged, sync=sync, period=self.PERIOD if sync is None else None,
            bin_width=1000)
        np.testing.assert_array_equal(decay.counts, ref.counts)
        assert decay.discarded == ref.discarded
        assert (ref.discarded > 0) == (sync is not None)
        assert (decay.bin_width, decay.period) == (ref.bin_width, ref.period)

        trace = pipeline.run_intensity_trace(streams, config)
        ref = intensity_trace(merged, PS_PER_MS // 100)
        np.testing.assert_array_equal(trace.counts, ref.counts)
        assert (trace.bin_width, trace.duration) == (ref.bin_width,
                                                     ref.duration)

    def test_explicit_sync_checked_once(self, monkeypatch):
        """Both channels share one median of an explicit sync, and the sum
        equals the per-channel histograms."""
        streams = {**self.cases()["both"],
                   SYNC_CHANNEL: self.syncs()["explicit"]}
        want = [sync_decay_histogram(streams[c], sync=streams[SYNC_CHANNEL],
                                     bin_width=1000) for c in (0, 1)]
        calls = []
        median = correlator._sync_period
        monkeypatch.setattr(correlator, "_sync_period", lambda sync: (
            calls.append("median"), median(sync))[1])

        decay = pipeline.run_decay_histogram(streams, self.CONFIG)
        assert calls == ["median"]
        np.testing.assert_array_equal(decay.counts,
                                      want[0].counts + want[1].counts)
        assert decay.discarded == want[0].discarded + want[1].discarded > 0
        assert (decay.bin_width, decay.period) == (want[0].bin_width,
                                                   want[0].period)

    def test_file_without_detector_events_is_an_error_entry(self, tmp_path):
        path = tmp_path / "sync_only.ptst"
        write_timestamps([TimestampStream(0, [], self.DURATION),
                          self.syncs()["periodic"]], path)
        doc = run_pipeline({"mode": "analyze", "input": str(path),
                            "analyses": ["lifetime", "blinking"]})
        assert [(e["stage"], e["type"], e["message"]) for e in doc.errors] == [
            (stage, "ValueError", "no detector events to analyze")
            for stage in ("lifetime", "blinking")]


def printed_result(name, entry, outdir):
    """The stdout and stderr lines a subcommand prints for the report
    entry ``entry`` of analysis ``name``, its CSV taken in ``outdir``."""
    out, err = [], []
    if name == "blinking":
        out += [f"threshold = {entry['threshold_per_ms']:g} counts/ms",
                f"on dwells = {entry['n_on_dwells']}, "
                f"off dwells = {entry['n_off_dwells']}"]
        for state in ("on", "off"):
            alpha = entry[f"alpha_{state}"]
            out.append(f"{state}: too few dwells to characterize"
                       if alpha is None else
                       f"{state}: alpha = {Measurement(**alpha)}, "
                       f"model = {entry[f'model_{state}']}")
        out.append(f"mean rates: on {entry['mean_on_rate_per_ms']:.2f}/ms, "
                   f"off {entry['mean_off_rate_per_ms']:.2f}/ms")
        return out, err
    if "n_pairs" in entry:
        out.append(f"{entry['n_pairs']} pairs in {entry['n_bins']} bins")
    if "fit" in entry:
        out += [f"{k} = {Measurement(**m)}" for k, m in entry["fit"].items()]
        out.append(f"chi2_reduced = {entry['chi2_reduced']:.4g}")
        if "g2_at_dip" in entry:
            out += [f"g2(tau0) = {Measurement(**entry['g2_at_dip'])}",
                    f"verdict = {entry['verdict']}"]
        else:
            out.append(f"tau_avg_ns = {Measurement(**entry['tau_avg_ns'])}")
        if not entry["converged"]:
            err.append("warning: fit did not converge")
        err += [f"flag: {flag}" for flag in entry["flags"]]
        if entry.get("discarded"):
            err.append(f"{entry['discarded']} photons outside the sync window")
    csv = os.path.join(outdir, os.path.basename(entry["csv"]))
    out.append(f"histogram written to {csv}")
    return out, err


class TestSubcommandJobParity:
    """Every analysis subcommand prints the values of the ``pipeline``
    subcommand's report entry for the same keys, and writes the same CSV
    bytes, on seeded files."""

    # subcommand flags, analysis, job section, file
    CASES = {
        "correlate_none": (
            ["correlate", "--window", "600", "-o", "raw.csv"], "g2",
            {"correlation": {"window_ns": 600.0, "csv": "raw.csv"}},
            "pulsed"),
        "correlate_cw": (
            ["correlate", "--fit", "cw", "--window", "400", "-o", "g2.csv"],
            "g2cw", {"correlation": {"window_ns": 400.0, "csv": "g2.csv"}},
            "cw"),
        "correlate_pulsed": (
            ["correlate", "--fit", "pulsed", "--window", "600", "--n-side",
             "4", "-o", "g2.csv"], "g2pw",
            {"correlation": {"window_ns": 600.0, "n_side": 4,
                             "csv": "g2.csv"}}, "pulsed"),
        "lifetime": (
            ["lifetime", "--components", "1", "--bin-width", "100",
             "-o", "decay.csv"], "lifetime",
            {"lifetime": {"n_components": 1, "bin_width_ps": 100,
                          "csv": "decay.csv"}}, "pulsed"),
        "blink": (
            ["blink", "--threshold", "30", "--bin-ms", "2"], "blinking",
            {"blinking": {"threshold_per_ms": 30.0, "bin_width_ms": 2.0}},
            "blinking"),
    }

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory, pulsed_path):
        base = tmp_path_factory.mktemp("subcommand_parity")
        files = {"pulsed": pulsed_path}
        for kind, flags in (("cw", ["--rate-per-s", "2e6"]),
                            ("blinking", ["--rate-per-s", "2e5",
                                          "--blinking", "power_law"])):
            files[kind] = base / f"{kind}.ptst"
            assert cli_main(["simulate", "--duration-s", "0.5", "--seed", "3",
                             *flags, "-o", str(files[kind])]) == 0
        return files

    @pytest.mark.parametrize("case", list(CASES))
    def test_prints_the_report_entry_and_writes_its_csv(
            self, files, tmp_path, capsys, case):
        argv, name, section, kind = self.CASES[case]
        path = str(files[kind])
        cli_dir, job_dir = tmp_path / "cli", tmp_path / "job"
        capsys.readouterr()
        assert cli_main([argv[0], path, *argv[1:],
                         "--outdir", str(cli_dir)]) == 0
        printed = capsys.readouterr()

        job = tmp_path / "job.json"
        job.write_text(json.dumps({"mode": "analyze", "input": path,
                                   "analyses": [name], **section}))
        assert cli_main(["pipeline", str(job), "--outdir", str(job_dir)]) == 0
        capsys.readouterr()
        report = json.loads((job_dir / "report.json").read_text())
        out, err = printed_result(name, report["results"][name], str(cli_dir))
        # The report sorts its keys, so the fit parameters come in another
        # order than the subcommand prints them.
        assert sorted(printed.out.splitlines()) == sorted(out)
        assert printed.err.splitlines() == err
        for csv in {s.get("csv") for s in section.values()} - {None}:
            assert ((cli_dir / csv).read_bytes()
                    == (job_dir / csv).read_bytes())
        if name == "blinking":  # both exponents reach the printed lines
            entry = report["results"][name]
            assert None not in (entry["alpha_on"], entry["alpha_off"])


class TestFitUnreadFlags:
    """``photonkit fit`` refuses a flag its model does not read, before
    the CSV is read, instead of ignoring it."""

    @pytest.mark.parametrize("model, flag, value", [
        ("cw", "--period", "100"), ("cw", "--n-side", "3"),
        ("cw", "--components", "2"), ("pulsed", "--components", "2"),
        ("decay", "--n-side", "3")])
    def test_exits_1_naming_the_flag(self, tmp_path, capsys, model, flag,
                                     value):
        assert cli_main(["fit", str(tmp_path / "missing.csv"), "--model",
                         model, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag} does not apply to --model {model}\n")
        assert captured.out == ""


class TestRefitParity:
    """``photonkit fit`` on the raw CSV an analysis exported prints that
    analysis's fit lines, line for line, at a bin width of 333 ps, whose
    centres fall on half picoseconds and print 0.5 ps off."""

    # analysis flags, flags that make it fit, refit flags
    CASES = {
        "pulsed": (["correlate", "--window", "599.4", "--bin-width", "333"],
                   ["--fit", "pulsed"],
                   ["--model", "pulsed", "--period", "100"]),
        "decay": (["lifetime", "--bin-width", "333", "--components", "1"],
                  [], ["--model", "decay", "--components", "1"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_refit_prints_the_analysis_fit(self, pulsed_path, tmp_path,
                                           capsys, case):
        analysis, fit_flags, refit = self.CASES[case]
        argv = [analysis[0], str(pulsed_path), *analysis[1:],
                "--outdir", str(tmp_path)]
        assert cli_main([*argv, *fit_flags, "-o", "fitted.csv"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert cli_main([*argv, "-o", "raw.csv"]) == 0
        capsys.readouterr()
        assert cli_main(["fit", str(tmp_path / "raw.csv"), *refit]) == 0
        fit_lines = [line for line in printed if " pairs in " not in line
                     and not line.startswith("histogram written to ")]
        assert capsys.readouterr().out.splitlines() == fit_lines


class TestFitKindMismatch:
    """A CSV whose kind the ``--model`` does not fit is refused, naming
    the kind, before any fit runs."""

    @pytest.mark.parametrize("analysis, refit, kind", [
        (["correlate", "--window", "600"], ["--model", "decay"],
         "CoincidenceHistogram"),
        (["lifetime"], ["--model", "cw"], "DecayHistogram"),
        (["lifetime"], ["--model", "pulsed", "--period", "50"],
         "DecayHistogram")])
    def test_exits_1_naming_the_csv_kind(self, pulsed_path, tmp_path, capsys,
                                         monkeypatch, analysis, refit, kind):
        assert cli_main([analysis[0], str(pulsed_path), *analysis[1:],
                         "--outdir", str(tmp_path), "-o", "h.csv"]) == 0
        capsys.readouterr()

        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        for name in ("fit_g2_cw", "fit_g2_pw", "fit_multiexp"):
            monkeypatch.setattr(fitmod, name, no_fit)
        csv = tmp_path / "h.csv"
        assert cli_main(["fit", str(csv), *refit]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {csv} holds a {kind}, which "
                                f"--model {refit[1]} does not fit\n")
        assert captured.out == ""


class TestConfigChoices:
    """A ``--config`` value outside its flag's choices is refused the way
    an unknown key is, naming the key, instead of running as another
    choice."""

    @pytest.mark.parametrize("command, key", [("correlate", "fit"),
                                              ("fit", "model")])
    def test_exits_2_naming_the_key(self, pulsed_path, tmp_path, capsys,
                                    command, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: "bogus"}))
        outdir = tmp_path / "out"
        argv = ([command, str(pulsed_path)] if command == "correlate" else
                [command, str(tmp_path / "h.csv"), "--model", "decay"])
        with pytest.raises(SystemExit) as err:
            cli_main([*argv, "--config", str(cfg), "--outdir", str(outdir)])
        assert err.value.code == 2
        assert f"config key {key!r} must be one of [" in (
            capsys.readouterr().err)
        assert not outdir.exists()


class TestConfigFileErrors:
    """A ``--config`` file that cannot be opened or parsed is an
    ``error:`` line and exit 1, like any other unreadable input, not a
    traceback; a key or choice refusal still exits 2 (above)."""

    def test_missing_file(self, pulsed_path, tmp_path, capsys):
        missing, outdir = tmp_path / "missing.json", tmp_path / "out"
        assert cli_main(["correlate", str(pulsed_path), "--config",
                         str(missing), "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] ") and str(missing) in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_malformed_file(self, pulsed_path, tmp_path, capsys):
        cfg, outdir = tmp_path / "c.json", tmp_path / "out"
        cfg.write_text('{"window": 20,')
        assert cli_main(["correlate", str(pulsed_path), "--config",
                         str(cfg), "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Expecting property name")
        assert not outdir.exists()

    def test_truncated_job_file_is_named(self, tmp_path, capsys):
        job, outdir = tmp_path / "job.json", tmp_path / "out"
        job.write_text('{"mode": "simulate", "duration_s"')
        assert cli_main(["pipeline", str(job), "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Expecting ':' delimiter")
        assert err.rstrip().endswith(f"in job file {job}")
        assert "Traceback" not in err
        assert not outdir.exists()


class TestOneCorrelationCsv:
    """"g2", "g2cw" and "g2pw" each write ``correlation.csv``, so a job
    that lists more than one of them while it is set is refused before
    any stage runs, instead of keeping the last writer's histogram."""

    @pytest.mark.parametrize("analyses, message", [
        (["g2cw", "g2pw"], "analyses 'g2cw', 'g2pw' would each write "
                           "correlation.csv"),
        (["g2", "lifetime", "g2cw"], "analyses 'g2', 'g2cw' would each "
                                     "write correlation.csv")])
    def test_rejected_before_simulating(self, tmp_path, analyses, message):
        cfg = cw_config(duration_s=0.01, analyses=analyses,
                        correlation={"csv": "g2.csv"})
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_pipeline(cfg, base_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_without_csv_each_reports_the_histogram(self, cw_run, tmp_path):
        doc = run_pipeline({"mode": "analyze", "input": str(cw_run[1]),
                            "analyses": ["g2", "g2cw"]},
                           base_dir=str(tmp_path))
        assert doc.ok, doc.errors
        g2, g2cw = doc.results["g2"], doc.results["g2cw"]
        assert g2 == {"n_pairs": g2cw["n_pairs"], "n_bins": g2cw["n_bins"]}
        assert list(tmp_path.iterdir()) == []
