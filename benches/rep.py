"""One measured repetition of a workload, in a fresh process.

Usage: rep.py WORKLOAD CONFIG_SEED TRACE OUT_DIR
       rep.py env

Imports the library, builds the workload's configs, runs each through
``harness.run_config`` and writes run records with ``harness.emit`` and
``harness.write_meta`` as the CLI does.  Prints one JSON line: the
monotonic time at which set-up ended, the run time and each config's share of
it, peak resident memory,
items and failures, fuzz skips, the output digest, and (with TRACE=1) the
per-function span totals.  ``rep.py env`` prints the Python, numpy, scipy
and BLAS versions instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

from bslcert import harness
from bslcert.harness import ExperimentConfig, FuzzRecord

from tracer import Tracer
from workloads import CHECKS, EXPECTED_CALLS, WORKLOADS, expected_items


def record_digest(digest, record, out_dir: str) -> None:
    """Fold one record's outputs into the digest: CSV and run_meta.json bytes,
    or the FuzzRecord fields."""
    if isinstance(record, FuzzRecord):
        digest.update(repr(dataclasses.astuple(record)).encode())
        return
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".csv")) + ["run_meta.json"]
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


def run(workload: str, config_seed: int, trace: bool, out_dir: str) -> dict:
    configs = [ExperimentConfig(seed=config_seed, **kw) for kw in WORKLOADS[workload]]
    dirs = [os.path.join(out_dir, f"r{i}") for i in range(len(configs))]
    # Untraced repetitions still wrap the reduction checks: counting the calls
    # that return is the only outside view of the trials the fuzzer skips.
    tracer = Tracer() if trace else Tracer(CHECKS)
    tracer.install()
    ready = time.monotonic()

    records, config_s, error = [], [], None
    t0 = time.perf_counter()
    try:
        for cfg, rec_dir in zip(configs, dirs):
            c0 = time.perf_counter()
            record = harness.run_config(cfg)
            if not isinstance(record, FuzzRecord):
                harness.emit(record, "csv", rec_dir)
                harness.emit(record, "svg", rec_dir)
                harness.write_meta(record, rec_dir)
            records.append(record)
            config_s.append(time.perf_counter() - c0)
    except Exception:  # reported as failed items; the driver keeps measuring
        error = traceback.format_exc()
    run_s = time.perf_counter() - t0
    tracer.uninstall()

    items = sum(expected_items(kw) for kw in WORKLOADS[workload])
    funcs = tracer.totals()
    returned = sum(funcs.get(c, {}).get("calls", 0) - funcs.get(c, {}).get("raised", 0)
                   for c in CHECKS)
    failed = items
    digest = hashlib.sha256()
    if error is None:
        failed = 0
        for kw, record, rec_dir in zip(WORKLOADS[workload], records, dirs):
            rows = record.trials if isinstance(record, FuzzRecord) else len(record.rows)
            if rows != expected_items(kw):
                error = f"{kw}: {rows} items, expected {expected_items(kw)}"
            failed += record.violations
            record_digest(digest, record, rec_dir)
    missing = [f for f in EXPECTED_CALLS[workload] if trace and f not in funcs]
    if error is None and missing:
        error = f"traced run recorded no call to {missing}"
    if error is not None:
        failed = items

    # Skips are trials minus returned checks, which only holds for a whole run:
    # a run that stopped part-way reports none, and run.py leaves its
    # trials out too.
    fuzz = [r for r in records if isinstance(r, FuzzRecord)] if error is None else []
    return {
        "ready": ready,
        "run_s": run_s,
        "config_s": config_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": failed,
        "skipped": sum(r.trials for r in fuzz) - returned if fuzz else 0,
        "guaranteed": {r.theorem: r.guaranteed for r in fuzz},
        "digest": digest.hexdigest(),
        "error": error,
        "funcs": funcs if trace else None,
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["env"]:
        print(json.dumps(environment()))
    else:
        name, seed, trace, out = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
        print(json.dumps(run(name, seed, trace, out)))
