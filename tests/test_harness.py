import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bslcert import cli, domains, harness, metrics, reduction
from bslcert.bayes import conjugate_update_ip
from bslcert.domains import DomainSpec, Gaussian1D
from bslcert.errors import IOFailure
from bslcert.harness import (ExperimentConfig, FuzzRecord, Row, RunRecord, emit, run_config,
                             write_meta)


class TestReproduce:
    def test_case2_shape_and_dominance(self):
        rec = run_config(ExperimentConfig("reproduce_case2", steps=6, seed=0))
        assert len(rec.rows) == 12  # two metrics per step
        assert rec.violations == 0
        assert {r.metric for r in rec.rows} == {"tv", "hellinger"}
        assert rec.meta["realized_y"] and rec.meta["realized_x_star"]

    def test_case3_trials(self):
        rec = run_config(ExperimentConfig("reproduce_case3", steps=4, seed=7, trials=3))
        assert len(rec.rows) == 3 * 4 * 2
        assert rec.violations == 0
        assert len(rec.meta["realized_y"]) == 3

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            ExperimentConfig(experiment="reproduce_case2", steps=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            ExperimentConfig("reproduce_case3", steps=4, seed=7, trials=0)

    @pytest.mark.parametrize("case, priors", [
        (1, (Gaussian1D(-10.0, 5.0), Gaussian1D(8.0, 5.0))),
        (2, (Gaussian1D(0.0, 1.0), Gaussian1D(2.0, 1.0))),
    ])
    def test_distances_are_the_metric_values(self, case, priors):
        rec = run_config(ExperimentConfig(f"reproduce_case{case}", steps=5, seed=3))
        y = rec.meta["realized_y"][0]
        mu, mu_prime = priors
        for k in range(1, 6):
            mu, mu_prime = (conjugate_update_ip(g, harness.OBSERVATION_GAIN,
                                                harness.OBSERVATION_NOISE_VAR, y).posterior
                            for g in (mu, mu_prime))
            for r in rec.rows[2 * k - 2: 2 * k]:
                assert r.step == k
                assert r.distance == getattr(metrics, r.metric)(mu, mu_prime,
                                                                harness.DEFAULT_DOMAIN)

    def test_discretizes_each_gaussian_once_per_step(self, monkeypatch):
        calls = []
        real = domains.discretize

        def counting(*args):
            calls.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("bslcert") and getattr(module, "discretize", None) is real:
                monkeypatch.setattr(module, "discretize", counting)
        steps = 7
        run_config(ExperimentConfig("reproduce_case3", steps=steps, seed=11))
        assert len(calls) == 2 * steps + 2

    def test_thread_count_does_not_change_results(self):
        serial, parallel = (run_config(ExperimentConfig("reproduce_case3", steps=3, seed=5,
                                                        trials=6, threads=threads))
                            for threads in (1, 4))
        assert serial.rows == parallel.rows
        with pytest.raises(ValueError, match="threads must be >= 1"):
            ExperimentConfig("reproduce_case3", threads=0)

    def test_rerun_is_identical(self):
        a, b = (run_config(ExperimentConfig("reproduce_case1", steps=3, seed=9)) for _ in range(2))
        assert a.rows == b.rows and a.meta == b.meta


class TestBoundValidate:
    def test_gauss_proj_rows(self):
        rec = run_config(ExperimentConfig("bound_validate", filter_kind="gauss_proj", steps=3, seed=0))
        assert rec.violations == 0
        # two metrics, two bound sets, three steps
        assert len(rec.rows) == 12
        assert {r.series for r in rec.rows} == {"set1", "set2"}

    def test_particle_rows(self):
        rec = run_config(ExperimentConfig("bound_validate", filter_kind="particle", steps=3, seed=0))
        assert rec.violations == 0
        assert len(rec.rows) == 6
        assert all(r.metric == "w1" for r in rec.rows)

    def test_gauss_proj_evaluates_each_gaussian_once(self, monkeypatch):
        # the step, metrics.tv, metrics.hellinger and the next grid_update each discretize a
        # projection; the memo evaluates the prior and each of the 40 projections once
        calls, evaluated = [], []
        real, evaluate = domains.discretize, domains._discretize

        def counting(*args):
            calls.append(args)
            return real(*args)

        def spy(g, d):
            evaluated.append(g)
            return evaluate(g, d)

        for name, module in list(sys.modules.items()):
            if name.startswith("bslcert") and getattr(module, "discretize", None) is real:
                monkeypatch.setattr(module, "discretize", counting)
        monkeypatch.setattr(domains, "_discretize", spy)
        monkeypatch.setattr(domains, "_last_discretized", (None, None, None))
        run_config(ExperimentConfig("bound_validate", filter_kind="gauss_proj", steps=40, seed=0))
        assert len(calls) == 161
        assert len(evaluated) == 41 and len({id(g) for g in evaluated}) == 41

    @pytest.mark.parametrize("filter_kind", ["gauss_proj", "particle"])
    def test_rejects_zero_steps(self, filter_kind):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            ExperimentConfig("bound_validate", filter_kind=filter_kind, steps=0)


class TestReductionFuzzDriver:
    def test_summary_counts(self):
        rec = run_config(ExperimentConfig("reduction_fuzz", theorem="hellinger", trials=120, seed=2))
        assert rec.trials == 120
        assert rec.violations == 0
        assert rec.guaranteed >= 1

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown theorem tag 'bogus'"):
            ExperimentConfig("reduction_fuzz", theorem="bogus", trials=20, seed=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            ExperimentConfig("reduction_fuzz", theorem="tv", trials=0, seed=0)

    @pytest.mark.parametrize("theorem,skipped", [("tv", {"DomainTooSmall": 195}),
                                                 ("w1-dyn", {"DomainTooSmall": 128}),
                                                 ("w1-ip", {})])
    def test_skips_by_reason_at_seed_97(self, theorem, skipped):
        skips = Counter()
        config = ExperimentConfig("reduction_fuzz", theorem=theorem, trials=1000, seed=97)
        record = run_config(config, fuzz_skips=skips)
        assert isinstance(record, FuzzRecord) and record.trials == 1000
        assert skips == Counter(skipped)


def _stub_check_tv(monkeypatch, excess):
    """Make every tv check return a guaranteed verdict whose distance grew by ``excess``."""
    verdict = reduction.ReductionVerdict("tv", {}, True, 0.0, excess)
    monkeypatch.setattr(reduction, "check_tv", lambda s, k, p, q: verdict)


class TestFuzzViolations:
    """No real check violates, so stubbed verdicts drive the violation path."""

    @pytest.mark.parametrize("excess,violating", [(2e-8, True), (5e-9, False)])
    def test_excess_past_the_threshold_counts(self, monkeypatch, excess, violating):
        _stub_check_tv(monkeypatch, excess)
        skips = Counter()
        rec = run_config(ExperimentConfig("reduction_fuzz", theorem="tv", trials=40, seed=1), skips)
        assert rec.guaranteed == 40 - skips.total() > 0
        assert rec.violations == (rec.guaranteed if violating else 0)
        assert rec.worst_excess == excess

    def test_cli_exits_2(self, monkeypatch, capsys):
        _stub_check_tv(monkeypatch, 2e-8)
        assert cli.main(["reduction-fuzz", "--theorem", "tv", "--trials", "40",
                         "--seed", "1"]) == 2
        assert capsys.readouterr().out == (
            "reduction_fuzz[tv]: 40 trials, 40 guaranteed, 40 violations, worst excess 2e-08, "
            "skipped 0\n")


# sha256 prefix of each system's data bytes followed by the caller's next draw
SIMULATED_DATA = {(0, "se"): "09e723c4ff36527f", (0, "ps"): "c1958ff01d88c26f",
                  (1, "se"): "e8519eafe0038bc6", (1, "ps"): "609a385fcc0e76cb",
                  (7, "se"): "91b3f8ec190b434e", (7, "ps"): "9615eb67f0023827"}


@pytest.mark.parametrize("seed,variant", sorted(SIMULATED_DATA))
def test_simulated_data_keeps_its_bytes(seed, variant):
    rng = np.random.default_rng(seed)
    if variant == "se":
        system = harness.linear_se_system(20, rng, harness.DEFAULT_DOMAIN)
    else:
        system = harness.ps_toy_system(20, rng)
    data = np.asarray(system.data, dtype=float).tobytes() + np.float64(rng.random()).tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == SIMULATED_DATA[(seed, variant)]


class TestViDemo:
    def test_small_run(self):
        rec = run_config(ExperimentConfig("vi_demo", steps=2, seed=0))
        assert len(rec.rows) == 2
        assert rec.violations == 0

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            ExperimentConfig("vi_demo", steps=0, seed=0)


# (step, metric, series, distance, bound, evidence_p, evidence_q), recorded
# before the in-place transition matrices
PINNED_ROWS = {
    "vi_demo": [
        (1, "tv", "", "0.02116691939770139", "0.502804996129472", "0.3417635784639169", "0.3417635784639169"),
        (2, "tv", "", "0.016570953934688465", "1.1871011915670062", "0.3804924666691305", "0.3812173853584211"),
        (3, "tv", "", "0.021023650037523902", "4.247713920020145", "0.19108503135334037", "0.19077877757456857"),
        (4, "tv", "", "0.026288603744906824", "5.858822275413458", "0.4349588955956408", "0.43583927130345884"),
        (5, "tv", "", "0.017218001509426813", "11.157520638328052", "0.31048023238709554", "0.31148031064224047"),
    ],
    "particle": [
        (1, "w1", "set1", "0.04873962986452132", "0.04873962986452132", "0.22218271828741276", "0.22218271828741276"),
        (1, "w1", "set2", "0.04873962986452132", "0.04873962986452132", "0.22218271828741276", "0.22218271828741276"),
        (2, "w1", "set1", "0.019057919279313645", "4.824686113516703", "0.22071278083681434", "0.22401081148365581"),
        (2, "w1", "set2", "0.019057919279313645", "4.753884071058537", "0.22071278083681434", "0.22401081148365581"),
        (3, "w1", "set1", "0.04011765244638788", "832.1442208491006", "0.12626879167450128", "0.12641718799822305"),
        (3, "w1", "set2", "0.04011765244638788", "818.9706694183967", "0.12626879167450128", "0.12641718799822305"),
        (4, "w1", "set1", "0.03745272432675159", "72565.49435289459", "0.24973188997120688", "0.2517486485147715"),
        (4, "w1", "set2", "0.03745272432675159", "70844.60231424397", "0.24973188997120688", "0.2517486485147715"),
        (5, "w1", "set1", "0.017148840574455305", "9003824.05294813", "0.17551267845518964", "0.17685549761058297"),
        (5, "w1", "set2", "0.017148840574455305", "8723555.684383746", "0.17551267845518964", "0.17685549761058297"),
        (6, "w1", "set1", "0.041891180077464465", "2073109778.7683175", "0.09458233551873116", "0.09392684927052648"),
        (6, "w1", "set2", "0.041891180077464465", "2022595876.6839027", "0.09458233551873116", "0.09392684927052648"),
        (7, "w1", "set1", "0.04204207639260637", "179438165193.42285", "0.251601261733859", "0.2519995805715458"),
        (7, "w1", "set2", "0.04204207639260637", "174789215808.4741", "0.251601261733859", "0.2519995805715458"),
        (8, "w1", "set1", "0.059325250323873056", "15585969287375.01", "0.2507184752767846", "0.25239593543954375"),
        (8, "w1", "set2", "0.059325250323873056", "15081259451460.592", "0.2507184752767846", "0.25239593543954375"),
        (9, "w1", "set1", "0.047150814104644084", "1411864583986841.2", "0.24040644486843774", "0.23884369503227115"),
        (9, "w1", "set2", "0.047150814104644084", "1375083796151384.0", "0.24040644486843774", "0.23884369503227115"),
        (10, "w1", "set1", "0.023772354665139002", "1.3509793442961629e+17", "0.22758816260020498", "0.22454938918724865"),
        (10, "w1", "set2", "0.023772354665139002", "1.3335908918311194e+17", "0.22758816260020498", "0.22454938918724865"),
    ],
}


@pytest.mark.parametrize("name,run", [
    ("vi_demo", lambda: run_config(ExperimentConfig("vi_demo", steps=5, seed=0))),
    ("particle", lambda: run_config(ExperimentConfig("bound_validate", filter_kind="particle",
                                                     steps=10, seed=0)))])
def test_rows_keep_their_bits(name, run):
    rows = [(r.step, r.metric, r.series) + tuple(
        repr(v) for v in (r.distance, r.bound, r.evidence_p, r.evidence_q)) for r in run().rows]
    assert rows == PINNED_ROWS[name]


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
    def test_from_json(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "reproduce_case1", "steps": 4, "seed": 3}))
        assert cli.main(["reproduce", "--config", str(p)]) == 0
        assert capsys.readouterr().out == "reproduce_case1: 8 rows, 0 violations\n"

    def test_domain_override(self):
        config = ExperimentConfig(experiment="reproduce_case2", lower=-30.0,
                                  upper=30.0, grid_points=2001)
        d = config.domain()
        assert d == DomainSpec(-30.0, 30.0, 2001)

    @pytest.mark.parametrize("experiment", ["vi_demo", "reduction_fuzz", "bound_validate"])
    @pytest.mark.parametrize("key,value", [("lower", -3.0), ("upper", 3.0), ("grid_points", 501)])
    def test_fixed_grid_experiments_reject_domain_keys(self, experiment, key, value):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(experiment, steps=1, **{key: value})

    UNREAD = [(f"reproduce_case{c}", key) for c in (1, 2, 3) for key in ("filter_kind", "theorem")] + [
        ("bound_validate", "trials"), ("bound_validate", "theorem"), ("bound_validate", "threads"),
        ("reduction_fuzz", "steps"), ("reduction_fuzz", "filter_kind"),
        ("reduction_fuzz", "out_dir"), ("reduction_fuzz", "threads"),
        ("vi_demo", "trials"), ("vi_demo", "filter_kind"), ("vi_demo", "theorem"),
        ("vi_demo", "threads")]
    VALUES = {"steps": 2, "trials": 7, "threads": 3, "filter_kind": "particle",
              "theorem": "w1-dyn", "out_dir": "out"}

    @pytest.mark.parametrize("experiment,key", UNREAD)
    def test_keys_the_experiment_does_not_read_are_refused(self, experiment, key):
        with pytest.raises(ValueError, match=f"^{experiment} takes no {key!r}$"):
            ExperimentConfig(**{"experiment": experiment, key: self.VALUES[key]})

    def test_one_error_names_every_refused_key(self):
        with pytest.raises(ValueError, match=r"^reduction_fuzz takes no 'steps', 'lower'$"):
            ExperimentConfig("reduction_fuzz", steps=2, lower=3.0)

    @pytest.mark.parametrize("kwargs,key", [
        ({"experiment": "reproduce_case1", "steps": 2, "trials": True}, "trials"),
        ({"experiment": "vi_demo", "steps": True}, "steps"),
        ({"experiment": "bound_validate", "seed": 1.5}, "seed"),
    ])
    def test_constructor_checks_value_types(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^key {key!r} must be int, got "):
            ExperimentConfig(**kwargs)

    def test_numpy_integers_count_as_ints(self):
        config = ExperimentConfig("vi_demo", steps=np.int64(2), seed=np.int32(3))
        assert (config.steps, config.seed) == (2, 3)
        assert type(config.steps) is int and type(config.seed) is int

    def test_unset_keys_take_the_table_defaults(self):
        assert ExperimentConfig("bound_validate").steps == 10
        assert ExperimentConfig("vi_demo").steps == 5
        assert ExperimentConfig("reduction_fuzz").trials == 1000
        for experiment, defaults in harness.EXPERIMENTS.items():
            config = ExperimentConfig(experiment)
            assert {k: getattr(config, k) for k in defaults} == defaults
            assert all(getattr(config, k) is None for k in harness.CONFIG_FIELDS
                       if k != "experiment" and k not in defaults)
        assert ExperimentConfig("reproduce_case1").domain() == harness.DEFAULT_DOMAIN
        with pytest.raises(ValueError, match="vi_demo runs on fixed grids"):
            ExperimentConfig("vi_demo").domain()


class TestCli:
    def test_reproduce_roundtrip(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["reproduce", "--case", "2", "--steps", "3", "--seed", "1",
                         "--out", out])
        assert code == 0
        assert sorted(os.listdir(out)) == ["hellinger.csv", "hellinger.svg",
                                           "run_meta.json", "tv.csv", "tv.svg"]

    @pytest.mark.parametrize("filter_kind,stems", [("gauss-proj", ["hellinger", "tv"]),
                                                   ("particle", ["w1"])])
    def test_bound_validate_command(self, tmp_path, capsys, filter_kind, stems):
        out = str(tmp_path / "bv")
        assert cli.main(["bound-validate", "--filter", filter_kind, "--steps", "2",
                         "--out", out]) == 0
        assert sorted(os.listdir(out)) == sorted(
            [f"{m}_{s}.{ext}" for m in stems for s in ("set1", "set2") for ext in ("csv", "svg")]
            + ["run_meta.json"])
        rows = 2 * 2 * len(stems)
        assert capsys.readouterr().out == f"bound_validate: {rows} rows, 0 violations\n"

    def test_reused_out_directory_is_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["reproduce", "--case", "1", "--steps", "2", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert cli.main(["bound-validate", "--filter", "gauss-proj", "--steps", "2",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bslcert: config error: ")
        assert captured.err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_path_through_a_file_is_refused_before_the_run(self, tmp_path, capsys,
                                                                monkeypatch, below):
        blocker = tmp_path / "f"
        blocker.write_text("x")
        monkeypatch.setattr("bslcert.cli.run_config", lambda config: pytest.fail("the run started"))
        out = blocker / "sub" if below else blocker
        assert cli.main(["reproduce", "--case", "1", "--steps", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bslcert: config error: cannot make output directory ")
        assert captured.err.count("\n") == 1
        assert blocker.read_text() == "x"

    def test_empty_out_directory_is_accepted(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert cli.main(["vi-demo", "--steps", "1", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["run_meta.json", "tv.csv", "tv.svg"]

    def test_metric_command(self, capsys):
        assert cli.main(["metric", "--kind", "w1", "--a", "gaussian:0,1",
                         "--b", "gaussian:2,1"]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 2.0) < 1e-6

    @pytest.mark.parametrize("a, b", [("gaussian:0,0.0001", "gaussian:0.05,0.0001"),
                                      ("gaussian:100,1", "gaussian:101,1")])
    def test_metric_command_off_the_default_domain(self, capsys, a, b):
        assert cli.main(["metric", "--kind", "tv", "--a", a, "--b", b]) == 0
        ga, gb = cli._parse_gaussian(a), cli._parse_gaussian(b)
        # equal variances: TV = 2 Phi(|mean gap| / (2 std)) - 1
        exact = math.erf(abs(ga.mean - gb.mean) / (2.0 * ga.std) / math.sqrt(2.0))
        assert abs(float(capsys.readouterr().out) - exact) < 1e-4

    @pytest.mark.parametrize("kind,exact", [
        ("tv", math.erf(0.5 / math.sqrt(2.0))),
        ("hellinger", math.sqrt(1.0 - math.exp(-1.0 / 8.0))),
        ("w1", 1e-5)])
    def test_metric_command_resolves_narrow_gaussians(self, capsys, kind, exact):
        # std 1e-5 with means 1e-5 apart: too narrow for [-40, 40] under the node cap
        assert cli.main(["metric", "--kind", kind, "--a", "gaussian:0,1e-10",
                         "--b", "gaussian:0.00001,1e-10"]) == 0
        assert abs(float(capsys.readouterr().out) - exact) <= 1e-4 * exact

    @pytest.mark.parametrize("a, b", [("gaussian:0,1e-12", "gaussian:1,1e-12"),
                                      ("gaussian:1e308,1", "gaussian:0,1")])
    def test_metric_command_refuses_unresolvable_pairs(self, capsys, a, b):
        assert cli.main(["metric", "--kind", "tv", "--a", a, "--b", b]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bslcert: config error: ")
        assert captured.err.count("\n") == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "--case", "9"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("a", ["gaussian:nan,1", "gaussian:inf,1", "gaussian:-inf,1",
                                   "gaussian:0,nan", "gaussian:0,-1"])
    def test_metric_command_reports_a_bad_gaussian_spec(self, capsys, a):
        assert cli.main(["metric", "--kind", "tv", "--a", a, "--b", "gaussian:0,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"bslcert: config error: bad gaussian spec {a!r}: ")
        assert captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("floor", [float("nan"), float("-inf")])
    def test_vi_bound_non_finite_floor_is_numerical_failure(self, tmp_path, capsys, floor):
        p = tmp_path / "vi.json"
        p.write_text(json.dumps({"r": 1, "det_gamma": 0.5, "elbo_floors": [floor, -1.0],
                                 "evidences": [0.2, 0.3]}))
        assert cli.main(["vi-bound", "--config", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bslcert: NonFinite: ")
        assert captured.err.count("\n") == 1

    @staticmethod
    def _run_after_cli_import(check: str):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, bslcert.cli; " + check],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_skips_scipy_integrate(self):
        self._run_after_cli_import("assert 'scipy.integrate' not in sys.modules")

    def test_cli_import_skips_scipy(self):
        self._run_after_cli_import(
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
            "assert not loaded, loaded")

    def test_gaussian_w1_output_is_pinned(self, capsys):
        assert cli.main(["metric", "--kind", "w1", "--a", "gaussian:0,1",
                         "--b", "gaussian:2,1"]) == 0
        assert capsys.readouterr().out == "2.0\n"

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        # no genuine violation is reachable, so patch in a violating record
        bad = RunRecord("reproduce_case2", (Row(1, "tv", 0.5, 0.1, 0.2, 0.2),))
        monkeypatch.setattr("bslcert.cli.run_config", lambda config: bad)
        assert cli.main(["reproduce", "--case", "2", "--steps", "1", "--seed", "0"]) == 2

    def test_reduction_fuzz_command(self, capsys):
        assert cli.main(["reduction-fuzz", "--theorem", "tv", "--trials", "40",
                         "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("reduction_fuzz[tv]: 40 trials")
        assert out.rstrip().endswith(", skipped 10 (DomainTooSmall 10)")

    @pytest.mark.parametrize("domain", [{"grid_points": 50}, {"lower": 40.0},
                                        {"lower": 1.0, "upper": 1.0},
                                        {"lower": -1e308, "upper": 1e308}])
    def test_bad_reproduce_domain_is_refused_before_out_is_made(self, tmp_path, capsys, domain):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(dict(experiment="reproduce_case1", **domain)))
        out = tmp_path / "o"
        assert cli.main(["reproduce", "--config", str(p), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bslcert: config error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_experiment_flags_take_their_defaults_from_the_table(self):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
        for command in ("reproduce", "bound-validate", "reduction-fuzz", "vi-demo"):
            defaults = {a.dest: a.default for a in sub[command]._actions if a.dest != "help"}
            assert set(defaults.values()) == {None}, (command, defaults)
        choices = {a.dest: a.choices for c in ("bound-validate", "reduction-fuzz")
                   for a in sub[c]._actions}
        assert choices["filter"] == ["gauss-proj", "particle"]
        assert tuple(choices["theorem"]) == harness.FUZZ_THEOREMS
        assert set(cli.REPRODUCE_FIELDS) == {"experiment", *harness.EXPERIMENTS["reproduce_case1"]}

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
        ("vi-bound", dict(VI, metric="w1", d=-5.0)),
        ("vi-bound", dict(VI, metric="w1", d=float("nan"))),
        ("vi-bound", dict(VI, r=0)),
        ("vi-bound", dict(VI, det_gamma=0.0)),
        ("vi-bound", dict(VI, det_gamma=-3.0)),
        ("vi-bound", dict(VI, elbo_floors=[], evidences=[])),
        ("vi-bound", dict(VI, evidences=[0.2, 0.3])),
        ("vi-bound", dict(VI, bound_type=3)),
        ("vi-bound", dict(VI, bound_type=2)),
        ("vi-bound", dict(VI, bound_type=2, beta_inputs=[
            {"c_vi_tilde": 0.1, "w_err": 0.01, "z_hat": 0.2}] * 2)),
        # a type-1 bound reads no beta_inputs, whether bound_type is set or not
        ("vi-bound", dict(VI, bound_type=1, beta_inputs=[
            {"c_vi_tilde": 5.0, "w_err": 9.0, "z_hat": 0.3}])),
        ("vi-bound", dict(VI, beta_inputs=[{"c_vi_tilde": 5.0, "w_err": 9.0, "z_hat": 0.3}])),
    ])
    def test_malformed_config_is_one_line_error(self, tmp_path, capsys, command, body):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(body))
        assert cli.main([command, "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bslcert: config error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("body,error", [
        (dict(VI, bound_type=2, beta_inputs=[{"c_vi_tilde": -0.1, "w_err": 0.01, "z_hat": 0.2}]),
         "NonFinite"),
        (dict(VI, bound_type=2, beta_inputs=[{"c_vi_tilde": 0.1, "w_err": -0.01, "z_hat": 0.2}]),
         "NonFinite"),
        (dict(VI, bound_type=2, beta_inputs=[{"c_vi_tilde": 0.1, "w_err": 0.01, "z_hat": 0}]),
         "ZeroEvidence"),
        (dict(VI, evidences=[0]), "ZeroEvidence"),
        # below models.EVIDENCE_FLOOR, as a grid update's evidence may not be
        (dict(VI, elbo_floors=[-2.0, -2.0], evidences=[0.3, 1e-310]), "ZeroEvidence"),
        (dict(VI, bound_type=2, beta_inputs=[{"c_vi_tilde": 0.1, "w_err": 0.01, "z_hat": 1e-310}]),
         "ZeroEvidence"),
    ])
    def test_vi_bound_numerical_failure(self, tmp_path, capsys, body, error):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(body))
        assert cli.main(["vi-bound", "--config", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"bslcert: {error}: ")
        assert captured.err.count("\n") == 1

    def test_boolean_is_not_an_int(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"experiment": "reproduce_case1", "steps": True}))
        assert cli.main(["reproduce", "--config", str(p)]) == 1
        assert capsys.readouterr().err == "bslcert: config error: key 'steps' must be int, got True\n"

    def test_from_json_needs_experiment(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"steps": 4}))
        assert cli.main(["reproduce", "--config", str(p)]) == 1
        assert capsys.readouterr().err == ("bslcert: config error: need --case or a "
                                           "reproduce_case1|2|3 experiment key in the config\n")

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


def _readme_commands() -> list[list[str]]:
    """The argument lists of every ``bslcert`` line in the README's code blocks,
    one per value of a for-loop's ``$tag``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in readme.split("```")[1::2]:
        tags = [""]
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:3] == ["for", "tag", "in"]:
                tags = [w.rstrip(";") for w in words[3:] if w.rstrip(";") not in ("", "do")]
            elif words[:1] == ["done"]:
                tags = [""]
            elif words[:1] == ["bslcert"]:
                commands += [[w.replace("$tag", tag) for w in words[1:]] for tag in tags]
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a stale flag or choice exits with SystemExit
    assert ["reduction-fuzz", "--theorem", "w1-dyn", "--trials", "1000", "--seed", "0"] in commands
