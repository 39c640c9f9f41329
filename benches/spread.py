"""Run the benchmark over several seeds and print every metric for every workload.

    python3 benches/spread.py [--seeds 10] [--workloads a,b] [--save F] [--against F]

For each end-to-end metric and workload it prints the median of the per-run
values, their quartile spread as a share of the median (as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the bound from
BENCHMARK.json; a spread over its bound fails the check, except for
``setup_s``.  ``--against`` compares medians with a set saved earlier by
``--save`` and marks any metric worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    before = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)

    saved, ok = {}, True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, spec["run_seconds"])
                for s in range(args.first_seed, args.first_seed + args.seeds)]
        correct = all(r["correct"] for r in runs)
        ok &= correct
        print(f"{workload}: {len(runs)} runs, correct={correct}, "
              f"failed={sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rel = (q3 - q1) / median
            saved.setdefault(workload, {})[name] = median
            line = (f"  {name:13s} median {median:12.6g} {metric['unit']:6s} "
                    f"spread {rel:7.2%} (bound {bound:.0%})  runs "
                    + " ".join(f"{v:.4g}" for v in values))
            # The acceptance rule gates every spread except setup_s's: set-up is
            # import time, which follows machine load more than the code.  Its
            # spread is still printed, and its median is still compared below.
            if name != "setup_s" and rel > bound:
                line += "  SPREAD OVER BOUND"
                ok = False
            if workload in before:
                old = before[workload][name]
                worse = (median - old) / old
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  vs saved {worse:+7.2%}"
                if worse > bound:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
