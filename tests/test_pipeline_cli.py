"""End-to-end tests for the pipeline orchestrator and the CLI."""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonkit import fit as fitmod
from photonkit import pipeline
from photonkit.cli import build_parser
from photonkit.cli import main as cli_main
from photonkit.core import PS_PER_NS, SYNC_CHANNEL, PeriodicStream, Verdict
from photonkit.correlator import cross_correlate
from photonkit.fileio import file_digest, read_histogram_csv, read_timestamps
from photonkit.pipeline import run_pipeline

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
        assert "code" not in doc.errors[1]

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
