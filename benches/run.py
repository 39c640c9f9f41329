"""bslcert benchmark driver.

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition is a fresh Python
process (benches/rep.py) that imports the library from ``src``, runs the
workload through ``harness.run_config`` and emits its records into a
scratch directory under ``.bench_tmp``.  Repetitions continue while one
more fits in S seconds (at least MIN_REPS).  The pool seed of each repetition is drawn
from ``--seed``; its output digest must equal the one stored in
reference.json, and no row may violate its bound.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over the
repetitions).  --trace 1 runs each pool seed twice, untraced and traced, and
reports the per-layer metrics (medians over the traced repetitions) with
``trace.overhead_s``, the median traced-minus-untraced run time.

The last stdout line is the JSON result; the lines before it record the
environment, the counts, each config's wall time, and each metric's quartiles
and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from workloads import GRIDS, WORKLOADS, expected_items, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
MIN_REPS = 3
REP_TIMEOUT_S = 60
WALL_LIMIT_S = 120  # measure no longer than this, to end well inside 180 s
BLAS_THREADS = 1    # pinned, so both sides of a comparison use the same count


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, stale reference)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list, timeout: float):
    return subprocess.run([sys.executable, os.path.join(HERE, "rep.py"), *args], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)


def launch(workload: str, config_seed: int, trace: bool, out_dir: str):
    """Run one repetition; returns its result dict with setup_s, or None if it crashed."""
    start = time.monotonic()
    try:
        proc = _child([workload, str(config_seed), "1" if trace else "0", out_dir], REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repetition {workload}/{config_seed} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"repetition {workload}/{config_seed} exited {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # both stamps are CLOCK_MONOTONIC, which is shared by all processes on Linux
    result["setup_s"] = result["ready"] - start
    if result["error"]:
        print(f"repetition {workload}/{config_seed}: {result['error']}", file=sys.stderr)
    return result


def config_label(cfg: dict) -> str:
    return "/".join(str(cfg[k]) for k in ("experiment", "theorem", "filter_kind") if k in cfg)


def load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"][workload]
    if ref["configs"] != [dict(kw) for kw in WORKLOADS[workload]]:
        raise BenchError(f"reference.json is stale for {workload}; rerun benches/make_reference.py")
    return {int(k): v for k, v in ref["digests"].items()}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(workload: str) -> dict:
    """Source identity, interpreter and library versions, BLAS threads, workload sizes."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bslcert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass  # not a git checkout: the source digest identifies the code
    return {"git_sha": sha, "src_sha256": h.hexdigest(), "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, **json.loads(_child(["env"], REP_TIMEOUT_S).stdout),
            "workload": workload, "configs": [dict(kw) for kw in WORKLOADS[workload]],
            "grids": GRIDS[workload],
            "items_per_rep": sum(expected_items(kw) for kw in WORKLOADS[workload])}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run repetitions for `seconds`; returns (counts, per-metric value lists)."""
    reference = load_reference(workload)
    order = random.Random(seed).sample(sorted(reference), len(reference))
    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    items = sum(expected_items(kw) for kw in WORKLOADS[workload])
    trials = sum(kw["trials"] for kw in WORKLOADS[workload]
                 if kw["experiment"] == "reduction_fuzz")
    counts = {"attempted": 0, "failed": 0, "trials": 0, "skipped": 0, "guaranteed": {}}
    plain, traced, overhead = [], [], []
    start = time.monotonic()
    i = 0
    try:
        while True:
            elapsed = time.monotonic() - start
            # start another repetition only if one of average length still fits
            if i >= MIN_REPS and elapsed * (i + 1) / i > min(seconds, WALL_LIMIT_S):
                break
            cseed = order[i % len(order)]
            # traced and untraced twins alternate which runs first
            modes = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
            pair = {}
            for mode in modes:
                res = launch(workload, cseed, mode, os.path.join(tmp, f"{i}-{int(mode)}"))
                counts["attempted"] += items
                if res is None:
                    counts["failed"] += items
                    continue
                if res["digest"] != reference[cseed]:
                    print(f"repetition {workload}/{cseed} (trace={int(mode)}): output digest "
                          f"differs from the reference", file=sys.stderr)
                    res["failed"] = items
                counts["failed"] += res["failed"]
                if res["error"] is None:  # a broken run's skips are unknown: leave it out
                    counts["trials"] += trials
                    counts["skipped"] += res["skipped"]
                for tag, n in res["guaranteed"].items():
                    counts["guaranteed"][tag] = counts["guaranteed"].get(tag, 0) + n
                pair[mode] = res
                (traced if mode else plain).append(res)
            if len(pair) == 2:
                overhead.append(pair[True]["run_s"] - pair[False]["run_s"])
            i += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run in this checkout still uses it
    counts["reps"] = i
    if not (traced if trace else plain):
        raise BenchError(f"every repetition of {workload} crashed")
    # Wall time of each config in the untraced repetitions, so that a change to
    # one experiment can be told apart inside its workload's run_s.
    whole = [r["config_s"] for r in plain if r["error"] is None]
    counts["config_s"] = {config_label(kw): spread([c[k] for c in whole])
                          for k, kw in enumerate(WORKLOADS[workload])} if whole else {}

    if trace:
        per_rep = [layer_metrics(r["funcs"]) for r in traced]
        series = {name: [m[name] for m in per_rep] for name in per_rep[0]}
        series["trace.overhead_s"] = overhead or [0.0]
    else:
        series = {key: [r[key] for r in plain] for key in ("run_s", "setup_s", "peak_rss_mb")}
        series["ok_frac"] = [1.0 - counts["failed"] / counts["attempted"]]
        series["checked_frac"] = [1.0 - counts["skipped"] / max(counts["trials"], 1)]
    return counts, series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "bslcert", "harness.py")):
            raise BenchError(f"no library sources under {SRC}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        counts, series = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        env = environment(args.workload)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(series):
        print(f"metrics {sorted(set(units) ^ set(series))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    detail = {name: spread(values) for name, values in series.items()}
    print("env: " + json.dumps({**env, **counts}, sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": detail[name]["median"], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
