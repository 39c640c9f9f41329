import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from bslcert import cli
from bslcert.domains import DomainSpec
from bslcert.errors import IOFailure
from bslcert.harness import (ExperimentConfig, Row, RunRecord, bound_validate,
                             emit, reduction_fuzz, reproduce, run_config,
                             vi_demo, write_meta)


class TestReproduce:
    def test_case2_shape_and_dominance(self):
        rec = reproduce(2, 6, 0)
        assert len(rec.rows) == 12  # two metrics per step
        assert rec.violations == 0
        assert {r.metric for r in rec.rows} == {"tv", "hellinger"}
        assert rec.meta["realized_y"] and rec.meta["realized_x_star"]

    def test_case3_trials(self):
        rec = reproduce(3, 4, 7, trials=3)
        assert len(rec.rows) == 3 * 4 * 2
        assert rec.violations == 0
        assert len(rec.meta["realized_y"]) == 3

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            reproduce(2, 0, 0)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="reproduce_case2", steps=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            reproduce(3, 4, 7, trials=0)

    def test_thread_count_does_not_change_results(self):
        serial = reproduce(3, 3, 5, trials=6, threads=1)
        parallel = reproduce(3, 3, 5, trials=6, threads=4)
        assert serial.rows == parallel.rows

    def test_rerun_is_identical(self):
        a = reproduce(1, 3, 9)
        b = reproduce(1, 3, 9)
        assert a.rows == b.rows and a.meta == b.meta


class TestBoundValidate:
    def test_gauss_proj_rows(self):
        rec = bound_validate("gauss_proj", 3, 0)
        assert rec.violations == 0
        # two metrics, two bound sets, three steps
        assert len(rec.rows) == 12
        assert {r.series for r in rec.rows} == {"set1", "set2"}

    def test_particle_rows(self):
        rec = bound_validate("particle", 3, 0, n_particles=400)
        assert rec.violations == 0
        assert len(rec.rows) == 6
        assert all(r.metric == "w1" for r in rec.rows)


class TestReductionFuzzDriver:
    def test_summary_counts(self):
        rec = reduction_fuzz("hellinger", 120, 2)
        assert rec.trials == 120
        assert rec.violations == 0
        assert rec.guaranteed >= 1


class TestViDemo:
    def test_small_run(self):
        rec = vi_demo(2, 0, elbo_samples=1000)
        assert len(rec.rows) == 2
        assert rec.violations == 0


class TestEmit:
    def _record(self):
        rows = tuple(Row(k, "tv", 0.1 / k, 0.2 / k, 0.3, 0.4) for k in range(1, 21))
        return RunRecord("reproduce_case2", rows, {"seed": 0})

    def test_csv_shape(self, tmp_path):
        paths = emit(self._record(), "csv", str(tmp_path))
        assert [os.path.basename(p) for p in paths] == ["tv.csv"]
        lines = Path(paths[0]).read_bytes().decode().split("\n")
        assert lines[0] == "step,metric,distance,bound,evidence_p,evidence_q"
        assert len(lines) == 22 and lines[-1] == ""  # header + 20 rows + trailing LF

    def test_emit_is_byte_deterministic(self, tmp_path):
        a = emit(self._record(), "csv", str(tmp_path / "a"))
        b = emit(self._record(), "csv", str(tmp_path / "b"))
        assert Path(a[0]).read_bytes() == Path(b[0]).read_bytes()

    def test_svg_is_well_formed(self, tmp_path):
        paths = emit(self._record(), "svg", str(tmp_path))
        tree = ET.parse(paths[0])
        assert tree.getroot().tag.endswith("svg")

    def test_empty_record_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(RunRecord("reproduce_case2", ()), "csv", str(tmp_path))

    def test_bound_set_files(self, tmp_path):
        rows = (Row(1, "tv", 0.1, 0.2, 0.3, 0.4, series="set1"),
                Row(1, "tv", 0.1, 0.25, 0.3, 0.4, series="set2"))
        paths = emit(RunRecord("bound_validate", rows), "csv", str(tmp_path))
        assert [os.path.basename(p) for p in paths] == ["tv_set1.csv", "tv_set2.csv"]

    def test_io_failure(self):
        with pytest.raises(IOFailure):
            emit(self._record(), "csv", "/proc/definitely/not/writable")

    def test_meta_roundtrip(self, tmp_path):
        path = write_meta(self._record(), str(tmp_path))
        meta = json.loads(Path(path).read_text())
        assert meta["seed"] == 0 and meta["violations"] == 0


class TestConfig:
    def test_from_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "reproduce_case1", "steps": 4, "seed": 3}))
        config = ExperimentConfig.from_json(str(p))
        rec = run_config(config)
        assert rec.experiment == "reproduce_case1"
        assert len(rec.rows) == 8

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "reproduce_case1", "step": 4}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(str(p))

    def test_domain_override(self):
        config = ExperimentConfig(experiment="reproduce_case2", lower=-30.0,
                                  upper=30.0, grid_points=2001)
        d = config.domain()
        assert d == DomainSpec(-30.0, 30.0, 2001)


class TestCli:
    def test_reproduce_roundtrip(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["reproduce", "--case", "2", "--steps", "3", "--seed", "1",
                         "--out", out])
        assert code == 0
        assert sorted(os.listdir(out)) == ["hellinger.csv", "hellinger.svg",
                                           "run_meta.json", "tv.csv", "tv.svg"]

    def test_metric_command(self, capsys):
        assert cli.main(["metric", "--kind", "w1", "--a", "gaussian:0,1",
                         "--b", "gaussian:2,1"]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 2.0) < 1e-6

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "--case", "9"])
        assert exc.value.code == 1

    def test_bad_gaussian_spec(self):
        assert cli.main(["metric", "--kind", "tv", "--a", "gaussian:zz",
                         "--b", "gaussian:0,1"]) == 1

    def test_vi_bound_command(self, tmp_path, capsys):
        p = tmp_path / "vi.json"
        p.write_text(json.dumps({"r": 1, "det_gamma": 3.0, "elbo_floors": [-2.0],
                                 "evidences": [0.2], "metric": "tv"}))
        assert cli.main(["vi-bound", "--config", str(p)]) == 0
        assert abs(float(capsys.readouterr().out.strip()) - 0.5156332623392678) < 1e-12

    def test_vi_bound_vacuous_is_numerical_failure(self, tmp_path):
        p = tmp_path / "vi.json"
        p.write_text(json.dumps({"r": 1, "det_gamma": 3.0, "elbo_floors": [5.0],
                                 "evidences": [0.2]}))
        assert cli.main(["vi-bound", "--config", str(p)]) == 3

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        # no genuine violation is reachable, so patch in a violating record
        bad = RunRecord("reproduce_case2", (Row(1, "tv", 0.5, 0.1, 0.2, 0.2),))
        monkeypatch.setattr("bslcert.cli.run_config", lambda config: bad)
        assert cli.main(["reproduce", "--case", "2", "--steps", "1", "--seed", "0"]) == 2

    def test_reduction_fuzz_command(self, capsys):
        assert cli.main(["reduction-fuzz", "--theorem", "tv", "--trials", "40",
                         "--seed", "1"]) == 0
        assert "reduction_fuzz[tv]" in capsys.readouterr().out

    def test_config_file_with_flag_overrides(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "reproduce_case2", "steps": 2, "seed": 4}))
        out = str(tmp_path / "o")
        assert cli.main(["reproduce", "--config", str(p), "--steps", "3",
                         "--out", out]) == 0
        lines = Path(out, "tv.csv").read_text().strip().split("\n")
        assert len(lines) == 4  # header + 3 steps


class TestStrictConfig:
    VI = {"r": 1, "det_gamma": 3.0, "elbo_floors": [-2.0], "evidences": [0.2]}

    @pytest.mark.parametrize("command,body", [
        ("reproduce", {"experiment": "reproduce_case2", "stepz": 3}),
        ("reproduce", {"experiment": "reproduce_case2", "steps": "3"}),
        ("reproduce", [{"experiment": "reproduce_case2"}]),
        ("reproduce", {"experiment": "reproduce_case2", "theorem": "w1-dyn"}),
        ("reproduce", {"experiment": "vi_demo"}),
        ("vi-bound", dict(VI, metrc="w1")),
        ("vi-bound", {"r": 1, "det_gamma": 3.0, "elbo_floors": [-2.0]}),
        ("vi-bound", dict(VI, elbo_floors=["-2.0"])),
        ("vi-bound", dict(VI, bound_type=2, beta_inputs=[
            {"c_vi_tilde": 0.1, "w_err": 0.01, "z_hat": 0.2, "zhat": 0.2}])),
    ])
    def test_malformed_config_is_one_line_error(self, tmp_path, capsys, command, body):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(body))
        assert cli.main([command, "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bslcert: config error: ")
        assert captured.err.count("\n") == 1

    def test_from_json_needs_experiment(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"steps": 4}))
        with pytest.raises(ValueError, match="missing key 'experiment'"):
            ExperimentConfig.from_json(str(p))

    def test_vi_bound_closes_its_config(self, tmp_path):
        p = tmp_path / "vi.json"
        p.write_text(json.dumps(self.VI))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "bslcert", "vi-bound",
             "--config", str(p)],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0 and proc.stderr == ""
        assert float(proc.stdout) == 0.5156332623392678


class TestViDemoCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "vd")
        assert cli.main(["vi-demo", "--steps", "2", "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["run_meta.json", "tv.csv", "tv.svg"]
        assert "vi_demo: 2 rows, 0 violations" in capsys.readouterr().out
