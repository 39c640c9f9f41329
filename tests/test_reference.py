"""The emitted bytes of pool seed 0 of each benchmark workload equal the
digests recorded in benches/reference.json, also with one kernel-pool worker."""

import hashlib
import json
from pathlib import Path

import pytest

from bslcert import models
from bslcert.harness import ExperimentConfig, FuzzRecord, emit, run_config, write_meta

BENCHES = Path(__file__).resolve().parent.parent / "benches"


@pytest.mark.parametrize("workload", ["no-reuse", "kernel-reuse"])
def test_pool_seed_0_matches_reference(workload, tmp_path, monkeypatch):
    _check_pool_seed_0(workload, tmp_path, monkeypatch)


def test_kernel_reuse_with_one_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(models, "_WORKERS", 1)
    _check_pool_seed_0("kernel-reuse", tmp_path, monkeypatch)


def _check_pool_seed_0(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHES))
    from rep import record_digest

    reference = json.loads((BENCHES / "reference.json").read_text())["workloads"][workload]
    digest = hashlib.sha256()
    for i, kw in enumerate(reference["configs"]):
        record = run_config(ExperimentConfig(seed=0, **kw))
        out_dir = str(tmp_path / f"r{i}")
        if not isinstance(record, FuzzRecord):
            emit(record, "csv", out_dir)
            write_meta(record, out_dir)
        record_digest(digest, record, out_dir)
    assert digest.hexdigest() == reference["digests"]["0"]
