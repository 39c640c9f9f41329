"""Write benches/reference.json: the output digest of every pool seed of every workload.

    python3 benches/make_reference.py

Run this only at a commit whose outputs are the reference (the benchmark
then fails any commit whose outputs differ from it).  A repetition that
raises, violates a bound or emits the wrong number of items aborts it.
"""

from __future__ import annotations

import json
import os
import sys

from run import REFERENCE, ROOT, launch
from workloads import WORKLOADS

POOL = 24  # pool seeds 0..POOL-1; run.py reads the pool back from reference.json


def main() -> int:
    out = {"workloads": {}}
    for name in WORKLOADS:
        digests = {}
        for seed in range(POOL):
            res = launch(name, seed, False, os.path.join(ROOT, ".bench_tmp", f"ref-{name}-{seed}"))
            if res is None or res["error"] or res["failed"]:
                print(f"{name}/{seed}: not a clean reference run: {res}", file=sys.stderr)
                return 1
            digests[str(seed)] = res["digest"]
            print(f"{name}/{seed}: {res['digest'][:16]} run_s={res['run_s']:.3f}", flush=True)
        out["workloads"][name] = {"configs": [dict(kw) for kw in WORKLOADS[name]],
                                  "digests": digests}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
