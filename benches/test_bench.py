"""Tests of the benchmark itself.

    python3 -m pytest -q benches

Not part of the library's test suite (pytest's testpaths is ``tests``).
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from run import HERE, ROOT, SRC, launch, load_reference
from tracer import Tracer
from workloads import CHECKS, WORKLOADS, layer_metrics

sys.path.insert(0, SRC)

from bslcert import harness  # noqa: E402
from bslcert.harness import ExperimentConfig  # noqa: E402

EXACT_COUNTS = ("models.kernel_matvec.calls", "models.kernel_entries", "models.kernel_bytes",
                "models.system_constants.calls", "domains.discretize.calls", "metrics.calls",
                "bayes.grid_update.calls", "bounds.recursion.calls",
                "reduction.check.attempted", "reduction.check.returned",
                "reduction.check.raised", "reduction.guaranteed_ratio", "harness.emit.bytes")


def test_tracer_wraps_every_binding_and_restores():
    import bslcert.models as models

    original = models.kernel_matvec
    tracer = Tracer()
    tracer.install()
    try:
        bound = set(tracer.bindings())
        for site in ("bslcert.bayes.kernel_matvec", "bslcert.bayes.lik_values",
                     "bslcert.bayes.lik_values_ps", "bslcert.bounds.system_constants",
                     "bslcert.reduction.lik_values", "bslcert.reduction.se_g_values",
                     "bslcert.reduction.ps_g_values", "bslcert.harness.discretize",
                     "bslcert.harness.discretize_product"):
            assert site in bound
        assert models.kernel_matvec is not original
    finally:
        tracer.uninstall()
    assert models.kernel_matvec is original


@pytest.mark.parametrize("theorem,skipped,guaranteed", [("tv", 195, 22), ("w1-dyn", 128, 14)])
def test_skip_count_from_outside(theorem, skipped, guaranteed):
    tracer = Tracer(CHECKS)
    tracer.install()
    try:
        record = harness.run_config(ExperimentConfig(
            "reduction_fuzz", theorem=theorem, trials=1000, seed=97))
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.totals())
    assert record.trials - m["reduction.check.returned"] == skipped
    assert record.guaranteed == guaranteed
    assert m["reduction.guaranteed_ratio"] == guaranteed / m["reduction.check.returned"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_and_trace_keeps_outputs(workload, tmp_path):
    seed = min(load_reference(workload))
    plain = launch(workload, seed, False, str(tmp_path / "plain"))
    first = launch(workload, seed, True, str(tmp_path / "a"))
    second = launch(workload, seed, True, str(tmp_path / "b"))
    for res in (plain, first, second):
        assert res is not None and res["error"] is None and res["failed"] == 0
        assert res["digest"] == load_reference(workload)[seed]
    a, b = layer_metrics(first["funcs"]), layer_metrics(second["funcs"])
    assert {k: a[k] for k in EXACT_COUNTS} == {k: b[k] for k in EXACT_COUNTS}
    assert first["skipped"] == second["skipped"] == plain["skipped"]


def test_broken_repetitions_stay_out_of_checked_frac(monkeypatch):
    reference = load_reference("no-reuse")
    outcomes = itertools.cycle(["raised", "clean", None])
    clean = []

    def fake_launch(workload, seed, trace, out_dir):
        kind = next(outcomes)
        if kind is None:
            return None
        clean.append(kind == "clean")
        return {"run_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 80.0, "config_s": [0.2] * 5,
                "failed": 0 if kind == "clean" else 1, "skipped": 0 if kind == "raised" else 10,
                "guaranteed": {}, "digest": reference[seed],
                "error": None if kind == "clean" else "raised"}

    monkeypatch.setattr(run, "launch", fake_launch)
    counts, series = run.measure("no-reuse", 0, 0, False)
    trials = sum(kw["trials"] for kw in WORKLOADS["no-reuse"] if "theorem" in kw)
    assert sum(clean) >= 1 and not all(clean)
    assert counts["trials"] == sum(clean) * trials and counts["skipped"] == sum(clean) * 10
    assert series["checked_frac"] == [1.0 - 10 / trials]
    assert series["ok_frac"][0] < 1.0


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_reports_every_declared_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "kernel-reuse", "--seed", "3", "--seconds", "1", "--trace", trace],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benches",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "benches/run.py", "--workload", "kernel-reuse",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
