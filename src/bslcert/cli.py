"""Command-line front-end.

Exit codes: 0 success, 1 usage/config error, 2 bound violation detected,
3 numerical failure (zero evidence, non-finite values, vacuous bounds, ...).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import Optional

from .domains import DomainSpec, Gaussian1D
from .errors import BslError, NonFinite
from .harness import (CONFIG_FIELDS, DEFAULT_DOMAIN, EXPERIMENTS, FILTER_DOMAINS, FUZZ_THEOREMS,
                      ExperimentConfig, FuzzRecord, emit, read_config, run_config, write_meta)
from .metrics import hellinger, tv, w1
from .onlinevi import BetaInputs, VIBoundInputs, vi_bound_type1, vi_bound_type2

USAGE_ERROR, VIOLATION_ERROR, NUMERICAL_ERROR = 1, 2, 3

REPRODUCE_FIELDS = {k: CONFIG_FIELDS[k] for k in ("experiment", *EXPERIMENTS["reproduce_case1"])}
VI_BOUND_FIELDS = {"r": int, "det_gamma": float, "elbo_floors": list[float],
                   "evidences": list[float], "d": Optional[float], "bound_type": int,
                   "metric": str, "beta_inputs": Optional[list[BetaInputs]]}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bslcert", description="Sequential Bayesian updating with certified error bounds")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    rep = sub.add_parser("reproduce", help="paired posterior chains with per-step bounds")
    rep.add_argument("--case", type=int, choices=(1, 2, 3))
    rep.add_argument("--steps", type=int)
    rep.add_argument("--seed", type=int)
    rep.add_argument("--out")
    rep.add_argument("--trials", type=int)
    rep.add_argument("--threads", type=int, help="accepted; has no effect")
    rep.add_argument("--config", help="JSON config; flags override its values")

    bv = sub.add_parser("bound-validate", help="exact vs approximate sequence with both bound sets")
    bv.add_argument("--filter", choices=[k.replace("_", "-") for k in FILTER_DOMAINS], required=True)
    bv.add_argument("--steps", type=int)
    bv.add_argument("--seed", type=int)
    bv.add_argument("--out")

    rf = sub.add_parser("reduction-fuzz", help="randomized soundness sweep of the reduction checks")
    rf.add_argument("--theorem", choices=FUZZ_THEOREMS, required=True)
    rf.add_argument("--trials", type=int)
    rf.add_argument("--seed", type=int)

    vd = sub.add_parser("vi-demo", help="online-VI bound on the parameter-state toy")
    vd.add_argument("--steps", type=int)
    vd.add_argument("--seed", type=int)
    vd.add_argument("--out")

    met = sub.add_parser("metric", help="distance between two distributions")
    met.add_argument("--kind", choices=("tv", "hellinger", "w1"), required=True)
    met.add_argument("--a", required=True, metavar="gaussian:M,V")
    met.add_argument("--b", required=True, metavar="gaussian:M,V")

    vb = sub.add_parser("vi-bound", help="online-VI learning-error bound from a JSON config; "
                                         "unknown keys are rejected")
    vb.add_argument("--config", required=True)
    return parser


def _parse_gaussian(text: str) -> Gaussian1D:
    kind, _, rest = text.partition(":")
    if kind != "gaussian" or not rest:
        raise ValueError(f"expected gaussian:MEAN,VARIANCE, got {text!r}")
    try:
        mean_s, var_s = rest.split(",")
        return Gaussian1D(float(mean_s), float(var_s))
    except (ValueError, TypeError, NonFinite) as exc:
        raise ValueError(f"bad gaussian spec {text!r}: {exc}") from exc


METRIC_MAX_POINTS = 500001


def _metric_domain(a: Gaussian1D, b: Gaussian1D) -> DomainSpec:
    """The default domain widened to the ±10σ hull of both Gaussians; when that
    takes more than METRIC_MAX_POINTS nodes, the hull alone."""
    hull_lo = min(a.mean - 10 * a.std, b.mean - 10 * b.std)
    hull_hi = max(a.mean + 10 * a.std, b.mean + 10 * b.std)
    # narrow densities need spacing well below their width for the |p - q| kink
    spacing = min(0.01, min(a.std, b.std) / 10.0)
    for lo, hi in ((min(DEFAULT_DOMAIN.lower, hull_lo), max(DEFAULT_DOMAIN.upper, hull_hi)),
                   (hull_lo, hull_hi)):
        span = (hi - lo) / spacing
        if span < METRIC_MAX_POINTS:
            return DomainSpec(lo, hi, max(8001, int(span) + 1))
    raise ValueError(f"resolving {a} and {b} takes more than {METRIC_MAX_POINTS} grid points")


def _run(config: ExperimentConfig) -> int:
    """Run one experiment, write its outputs under ``out_dir`` if set, report it.

    ``out_dir`` is created before the run, and one that cannot be created or
    is a non-empty directory is refused, so a bad path fails before any work
    and one directory never mixes the files of two runs."""
    if config.out_dir:
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot make output directory {config.out_dir!r}: {exc.strerror}") from exc
        if os.listdir(config.out_dir):
            raise ValueError(f"output directory {config.out_dir!r} is not empty")
    record = run_config(config)
    if config.out_dir:
        emit(record, "csv", config.out_dir)
        emit(record, "svg", config.out_dir)
        write_meta(record, config.out_dir)
    print(f"{record.experiment}: {len(record.rows)} rows, {record.violations} violations")
    return VIOLATION_ERROR if record.violations else 0


def _cmd_reproduce(args) -> int:
    base = read_config(args.config, REPRODUCE_FIELDS) if args.config else {}
    if args.case is not None:
        base["experiment"] = f"reproduce_case{args.case}"
    if not base.get("experiment", "").startswith("reproduce_case"):
        raise ValueError("need --case or a reproduce_case1|2|3 experiment key in the config")
    for key, val in (("steps", args.steps), ("seed", args.seed),
                     ("trials", args.trials), ("threads", args.threads),
                     ("out_dir", args.out)):
        if val is not None:
            base[key] = val
    return _run(ExperimentConfig(**base))


def _cmd_bound_validate(args) -> int:
    return _run(ExperimentConfig(experiment="bound_validate", steps=args.steps, seed=args.seed,
                                 filter_kind=args.filter.replace("-", "_"), out_dir=args.out))


def _cmd_vi_demo(args) -> int:
    return _run(ExperimentConfig(experiment="vi_demo", steps=args.steps, seed=args.seed,
                                 out_dir=args.out))


def _cmd_reduction_fuzz(args) -> int:
    config = ExperimentConfig(experiment="reduction_fuzz", theorem=args.theorem,
                              trials=args.trials, seed=args.seed)
    skips = Counter()
    record: FuzzRecord = run_config(config, fuzz_skips=skips)
    by_reason = ", ".join(f"{name} {n}" for name, n in sorted(skips.items()))
    print(f"reduction_fuzz[{record.theorem}]: {record.trials} trials, "
          f"{record.guaranteed} guaranteed, {record.violations} violations, "
          f"worst excess {record.worst_excess:.3g}, skipped {skips.total()}"
          + (f" ({by_reason})" if by_reason else ""))
    return VIOLATION_ERROR if record.violations else 0


def _cmd_metric(args) -> int:
    a = _parse_gaussian(args.a)
    b = _parse_gaussian(args.b)
    domain = _metric_domain(a, b)
    fn = {"tv": tv, "hellinger": hellinger, "w1": w1}[args.kind]
    print(repr(fn(a, b, domain)))
    return 0


def _cmd_vi_bound(args) -> int:
    raw = read_config(args.config, VI_BOUND_FIELDS,
                      required=("r", "det_gamma", "elbo_floors", "evidences"))
    bound = {1: vi_bound_type1, 2: vi_bound_type2}.get(raw.get("bound_type", 1))
    if bound is None:
        raise ValueError(f"bound_type must be 1 or 2, got {raw['bound_type']}")
    betas = raw.get("beta_inputs")
    if betas is not None and bound is vi_bound_type1:
        raise ValueError("beta_inputs apply only to bound_type 2")
    inputs = VIBoundInputs(
        r=raw["r"], det_gamma=float(raw["det_gamma"]),
        elbo_floors=tuple(raw["elbo_floors"]), evidences=tuple(raw["evidences"]),
        d=float(raw["d"]) if raw.get("d") is not None else None,
        beta_inputs=tuple(BetaInputs(float(b["c_vi_tilde"]), float(b["w_err"]),
                                     float(b["z_hat"])) for b in betas) if betas else None)
    print(repr(bound(inputs, raw.get("metric", "tv"))))
    return 0


_COMMANDS = {
    "reproduce": _cmd_reproduce,
    "bound-validate": _cmd_bound_validate,
    "reduction-fuzz": _cmd_reduction_fuzz,
    "metric": _cmd_metric,
    "vi-bound": _cmd_vi_bound,
    "vi-demo": _cmd_vi_demo,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"bslcert: config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BslError as exc:
        print(f"bslcert: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
