"""The library's traced entry points, seen through the benchmark's own tracer.

A benchmark repetition fails its self-check when a function that
``benches/workloads.EXPECTED_CALLS`` names records no call.  These tests run
short configs under ``benches/tracer.Tracer`` so that a refactor which moves
work off a traced entry point fails here too, not only under
``python3 -m pytest benches``.
"""

import os
import sys

import numpy as np

from bslcert import bayes, harness, models
from bslcert.domains import DomainSpec, Gaussian1D, discretize
from bslcert.harness import ExperimentConfig
from bslcert.models import LikelihoodModel, SystemSpec

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benches"))
from tracer import Tracer  # noqa: E402
from workloads import EXPECTED_CALLS  # noqa: E402

def _traced(run, names=None):
    tracer = Tracer() if names is None else Tracer(names)
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.totals()


# short versions of both workloads' configs
CONFIGS = (
    {"experiment": "reproduce_case3", "steps": 2},
    {"experiment": "bound_validate", "filter_kind": "gauss_proj", "steps": 40},
    {"experiment": "bound_validate", "filter_kind": "particle", "steps": 3},
    {"experiment": "vi_demo", "steps": 2},
) + tuple({"experiment": "reduction_fuzz", "theorem": theorem, "trials": 10}
          for theorem in ("tv", "hellinger", "w1-ip", "w1-dyn"))


def test_configs_reach_their_entry_points(tmp_path):
    def run():
        for config in CONFIGS:
            record = harness.run_config(ExperimentConfig(seed=0, **config))
            if config["experiment"] == "bound_validate":
                harness.emit(record, "csv", str(tmp_path))

    funcs = _traced(run)
    expected = set(EXPECTED_CALLS["no-reuse"]) | set(EXPECTED_CALLS["kernel-reuse"])
    assert sorted(name for name in expected if funcs.get(name, {}).get("calls", 0) == 0) == []


def test_memo_hit_and_miss_each_record_one_call():
    s = SystemSpec("ip", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.5, 0.5, 1.5],
                   DomainSpec(-10.0, 10.0, 401))
    p = discretize(Gaussian1D(0.0, 1.0), s.domain)

    def calls(run):
        return _traced(run, ("models.lik_values",))["models.lik_values"]["calls"]

    assert calls(lambda: models.lik_values(s, 1)) == 1  # a miss
    assert calls(lambda: models.lik_values(s, 2)) == 1  # a hit
    assert calls(lambda: bayes.grid_update(s, 3, p)) == 1
    assert calls(lambda: models.lik_values(s, 3, np.array([0.0]))) == 1
