"""The emitted bytes of pool seed 0 of each benchmark workload equal the
digests recorded in benches/reference.json, also with one kernel-pool worker
and with four BLAS threads.  So do the kernel-reuse pool seeds whose bytes
once depended on the BLAS thread count, both with BLAS pinned to one thread as
the benchmark pins it and with two BLAS threads."""

import hashlib
import json
from pathlib import Path

import pytest

from bslcert import models
from bslcert.harness import ExperimentConfig, FuzzRecord, emit, run_config, write_meta
from helpers import run_python

BENCHES = Path(__file__).resolve().parent.parent / "benches"


@pytest.mark.parametrize("workload", ["no-reuse", "kernel-reuse"])
def test_pool_seed_0_matches_reference(workload, tmp_path, monkeypatch):
    _check_pool_seed_0(workload, tmp_path, monkeypatch)


def test_kernel_reuse_with_one_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(models, "_WORKERS", 1)
    _check_pool_seed_0("kernel-reuse", tmp_path, monkeypatch)


# These kernel-reuse seeds (the particle bound-validate config) gave other bytes
# with two BLAS threads while a cached kernel was multiplied in one BLAS call;
# seed 0 gives the same bytes either way.
BLAS_SENSITIVE_SEEDS = [5, 11, 14]


@pytest.mark.parametrize("seed", BLAS_SENSITIVE_SEEDS)
def test_blas_sensitive_seeds_match_reference_with_pinned_blas(seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHES))
    from run import launch, load_reference  # runs benches/rep.py with BLAS pinned to one thread

    result = launch("kernel-reuse", seed, False, str(tmp_path / "out"))
    assert result is not None and result["error"] is None
    assert result["digest"] == load_reference("kernel-reuse")[seed]


@pytest.mark.parametrize("seed", BLAS_SENSITIVE_SEEDS)
def test_blas_sensitive_seeds_match_reference_with_two_blas_threads(seed, tmp_path):
    _check_rep("kernel-reuse", seed, 2, tmp_path)


@pytest.mark.parametrize("workload", ["no-reuse", "kernel-reuse"])
def test_pool_seed_0_matches_reference_with_four_blas_threads(workload, tmp_path):
    _check_rep(workload, 0, 4, tmp_path)


def _check_rep(workload, seed, blas_threads, tmp_path):
    """benches/rep.py's digest of one pool seed, with BLAS on ``blas_threads``
    threads, equals its digest in benches/reference.json."""
    out = run_python([str(BENCHES / "rep.py"), workload, str(seed), "0", str(tmp_path / "out")],
                     blas_threads=blas_threads)
    result = json.loads(out.strip().splitlines()[-1])
    reference = json.loads((BENCHES / "reference.json").read_text())["workloads"][workload]
    assert result["error"] is None
    assert result["digest"] == reference["digests"][str(seed)]


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
