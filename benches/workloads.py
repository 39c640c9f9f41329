"""Benchmark workloads and the per-layer metrics computed from a traced run.

A workload is the list of ``ExperimentConfig`` keyword sets that one measured
repetition hands to ``harness.run_config``; the repetition adds the seed.
Configs are plain dicts so the driver can read them without importing the
library.
"""

from __future__ import annotations

FUZZ_TAGS = ("tv", "hellinger", "w1-ip", "w1-dyn")

REPRODUCE_C3 = ({"experiment": "reproduce_case3", "steps": 20, "trials": 50, "threads": 1},)
FILTER_VALIDATE = (
    {"experiment": "bound_validate", "filter_kind": "gauss_proj", "steps": 40},
    {"experiment": "bound_validate", "filter_kind": "particle", "steps": 10},
)
VI_PS = ({"experiment": "vi_demo", "steps": 5},)
FUZZ_CERT = tuple({"experiment": "reduction_fuzz", "theorem": tag, "trials": 250}
                  for tag in FUZZ_TAGS)

# Each repetition runs about 2.5 s of work on a 2-core x86 machine.  Two
# workloads rather than one per experiment: wall time on shared machines
# drifts over tens of seconds, so each run must be long (60 s) to give a
# steady median, and a comparison's run count grows with the workload count.
WORKLOADS = {
    # Conjugate chains without a transition kernel, and fuzz trials that each
    # build a new small system and use it once: operator reuse is bypassed.
    # The only workload with skipped trials.
    "no-reuse": REPRODUCE_C3 + FUZZ_CERT,
    # Long-lived systems updated step after step: one 2001-node kernel (the
    # particle filter) and 241 small kernels per update (the VI demo).
    "kernel-reuse": FILTER_VALIDATE + VI_PS,
}

GRIDS = {
    "no-reuse": "reproduce: 8001-node default domain; fuzz: 401 nodes (tv, hellinger, "
                "w1-ip), 201 nodes (w1-dyn)",
    "kernel-reuse": "gauss-proj 8001 nodes; particle 2001 nodes, 2000 particles; "
                    "vi_demo 241 x 241 joint (x, w) grid",
}


def expected_items(cfg: dict) -> int:
    """Items one config yields: a fuzz trial or a step row of the emitted CSVs."""
    exp, steps = cfg["experiment"], cfg.get("steps", 20)
    if exp.startswith("reproduce_case"):
        return cfg["trials"] * steps * 2  # tv and hellinger
    if exp == "bound_validate":
        metrics = 2 if cfg["filter_kind"] == "gauss_proj" else 1
        return metrics * 2 * steps  # both bound sets
    if exp == "vi_demo":
        return steps
    return cfg["trials"]


# Functions that do work on each workload at the seed commit; a traced
# repetition in which one of them records no call fails its self-check.
EXPECTED_CALLS = {
    "no-reuse": (
        "harness.run_config", "harness.emit", "bayes.conjugate_update_ip",
        "bounds.pointwise_K", "models.system_constants", "models.lik_values",
        "domains.discretize", "metrics.tv", "metrics.hellinger", "metrics.w1",
        "reduction.check_tv", "reduction.check_hellinger", "reduction.check_w1",
        "bayes.grid_update", "bayes.predicted_values", "models.kernel_matvec"),
    "kernel-reuse": (
        "harness.run_config", "harness.emit", "bayes.grid_update",
        "bayes.gaussian_projection_step", "bayes.particle_step", "bayes.predicted_values",
        "models.kernel_matvec", "models.kernel_rmatvec", "models.system_constants",
        "models.lik_values", "models.lik_values_ps", "bounds.recursion_set1",
        "bounds.recursion_set2", "domains.discretize", "domains.discretize_product",
        "metrics.tv", "metrics.hellinger", "metrics.w1", "metrics.tv_joint",
        "onlinevi.elbo_mc", "onlinevi.vi_bound_type1"),
}

CHECKS = ("reduction.check_tv", "reduction.check_hellinger", "reduction.check_w1")
RECURSIONS = ("bounds.recursion_set1", "bounds.recursion_set2")


def layer_metrics(funcs: dict) -> dict:
    """Per-layer metrics of one traced repetition from its per-function totals.

    ``funcs`` maps "module.function" to {"calls", "raised", "self_s", "work"};
    ``work`` is the function's computed count (kernel entries, guaranteed
    verdicts, bytes written).  ``trace.overhead_s`` needs an untraced twin
    and is added by the driver.
    """

    def get(name, key):
        return funcs.get(name, {}).get(key, 0)

    def total(names, key):
        return sum(get(n, key) for n in names)

    entries = total(("models.kernel_matvec", "models.kernel_rmatvec"), "work")
    attempted = total(CHECKS, "calls")
    returned = attempted - total(CHECKS, "raised")
    out = {
        "models.kernel_matvec.calls": get("models.kernel_matvec", "calls"),
        "models.kernel_matvec.self_s": get("models.kernel_matvec", "self_s"),
        "models.kernel_rmatvec.self_s": get("models.kernel_rmatvec", "self_s"),
        "models.kernel_entries": entries,
        "models.kernel_bytes": 8 * entries,
        "models.system_constants.calls": get("models.system_constants", "calls"),
        "models.system_constants.self_s": get("models.system_constants", "self_s"),
        "models.lik_values.self_s": get("models.lik_values", "self_s"),
        "models.ps_g_values.self_s": get("models.ps_g_values", "self_s"),
        "domains.discretize.calls": get("domains.discretize", "calls"),
        "domains.discretize.self_s": get("domains.discretize", "self_s"),
        "domains.discretize_product.self_s": get("domains.discretize_product", "self_s"),
        "metrics.calls": total(("metrics.tv", "metrics.hellinger", "metrics.w1",
                                "metrics.tv_joint"), "calls"),
        "bayes.grid_update.calls": get("bayes.grid_update", "calls"),
        "bounds.pointwise_K.self_s": get("bounds.pointwise_K", "self_s"),
        "bounds.recursion.calls": total(RECURSIONS, "calls"),
        "bounds.recursion.self_s": total(RECURSIONS, "self_s"),
        "reduction.check.attempted": attempted,
        "reduction.check.returned": returned,
        "reduction.check.raised": attempted - returned,
        "reduction.guaranteed_ratio": total(CHECKS, "work") / returned if returned else 0.0,
        "harness.run_config.self_s": get("harness.run_config", "self_s"),
        "harness.emit.self_s": total(("harness.emit", "harness.write_meta"), "self_s"),
        "harness.emit.bytes": total(("harness.emit", "harness.write_meta"), "work"),
    }
    for name in ("metrics.tv", "metrics.hellinger", "metrics.w1", "metrics.tv_joint",
                 "bayes.grid_update", "bayes.particle_step", "bayes.gaussian_projection_step",
                 "bayes.conjugate_update_ip", "bayes.predicted_values",
                 "reduction.check_tv", "reduction.check_hellinger", "reduction.check_w1",
                 "onlinevi.elbo_mc", "onlinevi.vi_bound_type1"):
        out[f"{name}.self_s"] = get(name, "self_s")
    return out
