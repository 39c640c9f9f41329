"""Numerical evaluation of the error-reduction sufficient conditions.

Each check evaluates the condition integrals for one assimilation step with
the reference measure fixed to Lebesgue-on-grid (trapezoid weights), then
measures the actual prior and posterior distances of the same discretized
system.  With this choice every inequality is evaluated for exactly the
discrete measures that the grid update propagates, so a GUARANTEED verdict
implies reduction up to floating-point roundoff, not quadrature slack.

NOT_GUARANTEED is never a refutation: the conditions are existential in the
reference measure, and only the canonical witness is checked.  The verdict
carries every integral so other witnesses can be tried by hand; raw-array
condition evaluators are exposed for small hand-checkable fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import bayes, metrics
from .domains import GridDensity, ParticleSet, grid_values
from .errors import UnsupportedRepresentation
# se_g_values and ps_g_values are unused here: benches/test_bench.py checks the
# bindings bslcert.reduction.{lik_values,se_g_values,ps_g_values}
from .models import SystemSpec, g_values, lik_values, se_g_values, ps_g_values  # noqa: F401


@dataclass(frozen=True)
class ReductionVerdict:
    theorem: str  # "tv" | "h_er1" | "h_er2" | "w1_ip" | "w1_dyn"
    condition_values: Dict[str, float]
    guaranteed: bool
    measured_prior_dist: float
    measured_post_dist: float


# -- raw-array condition evaluators (also used by hand fixtures) -------------


def _condition_inputs(weights, g, p, q):
    """The four inputs as float arrays, then the evidences z_p and z_q they give."""
    weights, g, p, q = (np.asarray(a, dtype=float) for a in (weights, g, p, q))
    return weights, g, p, q, float(weights @ (g * p)), float(weights @ (g * q))


def tv_condition_values(weights, g, p, q) -> Dict[str, float]:
    """Condition integrals for the TV reduction check on an explicit measure.

    `weights` are the reference-measure weights of the nodes; ties p == q are
    assigned to the restricted set, matching its closed (>= / <=) definition.
    """
    weights, g, p, q, z_p, z_q = _condition_inputs(weights, g, p, q)
    mask = (p >= q) if z_p >= z_q else (p <= q)
    m = weights * mask
    diff = np.abs(p - q)
    return {
        "z_p": z_p,
        "z_q": z_q,
        "restricted_g_absdiff": float(m @ (g * diff)),
        "restricted_g_mass": float(m @ g),
        "restricted_absdiff": float(m @ diff),
        "max_prior_g_mean": max(z_p, z_q),
    }


def tv_conditions_hold(vals: Dict[str, float]) -> bool:
    c1 = vals["restricted_g_absdiff"] <= vals["restricted_g_mass"] * vals["restricted_absdiff"]
    c2 = vals["restricted_g_mass"] <= vals["max_prior_g_mean"]
    return c1 and c2


def hellinger_condition_values(weights, g, p, q) -> Dict[str, float]:
    """Condition integrals for both Hellinger reduction branches."""
    weights, g, p, q, z_p, z_q = _condition_inputs(weights, g, p, q)
    root_pq = np.sqrt(p * q)
    root_gap = (np.sqrt(p) - np.sqrt(q)) ** 2
    return {
        "z_p": z_p,
        "z_q": z_q,
        "g_mass": float(weights @ g),
        "g_root_pq": float(weights @ (g * root_pq)),
        "root_pq_mass": float(weights @ root_pq),
        "g_root_gap": float(weights @ (g * root_gap)),
        "root_gap_mass": float(weights @ root_gap),
        "geo_mean_prior_g": math.sqrt(max(0.0, z_p * z_q)),
    }


def hellinger_branch(vals: Dict[str, float]) -> str | None:
    """Which branch certifies reduction, if any ("er1" preferred)."""
    er1 = (vals["g_root_pq"] >= vals["g_mass"] * vals["root_pq_mass"]
           and vals["g_mass"] >= vals["geo_mean_prior_g"])
    if er1:
        return "er1"
    er2 = (vals["g_root_gap"] <= vals["g_mass"] * vals["root_gap_mass"]
           and vals["g_mass"] <= vals["geo_mean_prior_g"])
    return "er2" if er2 else None


# -- grid checks --------------------------------------------------------------


def _grid_check(s: SystemSpec, k: int, p_prev: GridDensity, q_prev: GridDensity,
                condition_values, distance) -> tuple[Dict[str, float], float, float]:
    """Condition values, then the measured prior and posterior distances."""
    p, q = grid_values(p_prev, s.domain), grid_values(q_prev, s.domain)
    vals = condition_values(s.domain.trapezoid_weights, g_values(s, k), p, q)
    post_p = bayes.grid_update(s, k, p_prev).posterior
    post_q = bayes.grid_update(s, k, q_prev).posterior
    return vals, distance(p_prev, q_prev, s.domain), distance(post_p, post_q, s.domain)


def check_tv(s: SystemSpec, k: int, p_prev: GridDensity, q_prev: GridDensity) -> ReductionVerdict:
    vals, prior_dist, post_dist = _grid_check(s, k, p_prev, q_prev,
                                              tv_condition_values, metrics.tv)
    return ReductionVerdict("tv", vals, tv_conditions_hold(vals), prior_dist, post_dist)


def check_hellinger(s: SystemSpec, k: int, p_prev: GridDensity, q_prev: GridDensity) -> ReductionVerdict:
    vals, prior_dist, post_dist = _grid_check(s, k, p_prev, q_prev,
                                              hellinger_condition_values, metrics.hellinger)
    branch = hellinger_branch(vals)
    return ReductionVerdict("h_er1" if branch in (None, "er1") else "h_er2", vals,
                            branch is not None, prior_dist, post_dist)


def _abs_gap_matvec(xs: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(|x_i - x_j|)_ij @ vec for ascending xs, in O(n) without the matrix.

    With c and s the prefix sums of vec and xs * vec, and C and S their
    totals, the i-th entry is x_i (2 c_i - C) - 2 s_i + S.
    """
    c = np.cumsum(vec)
    s = np.cumsum(xs * vec)
    return xs * (2.0 * c - c[-1]) - 2.0 * s + s[-1]


def _atomic(s: SystemSpec, masses: np.ndarray) -> ParticleSet:
    return ParticleSet(s.domain.nodes, masses / masses.sum())


def _w1_atomic(s: SystemSpec, a: np.ndarray, b: np.ndarray) -> float:
    return metrics.w1(_atomic(s, a), _atomic(s, b), s.domain)


def check_w1(s: SystemSpec, k: int, p_prev: GridDensity, q_prev: GridDensity) -> ReductionVerdict:
    """Wasserstein reduction check: static ("w1_ip") on an inverse problem,
    on the predicted densities ("w1_dyn") in state estimation.

    Distances are measured between the node-atomic discretizations, which are
    exactly the measures the condition integrals describe.
    """
    if s.variant == "ps":
        raise UnsupportedRepresentation("the w1 reduction checks run on 1-D state systems")
    p, q = grid_values(p_prev, s.domain), grid_values(q_prev, s.domain)
    xs = s.domain.nodes
    w = s.domain.trapezoid_weights
    h = lik_values(s, k)

    prior_slack = _abs_gap_matvec(xs, w * (p - q))
    sup_dual_prior = float(np.max(np.abs(prior_slack)))

    if s.variant == "ip":
        a = w * h * p
        b = w * h * q
        z_p, z_q = float(a.sum()), float(b.sum())
        pair_cost = float(a @ _abs_gap_matvec(xs, b))
        vals = {
            "z_p": z_p, "z_q": z_q,
            "weighted_pair_cost": pair_cost / (z_p * z_q),
            "sup_dual_prior": sup_dual_prior,
        }
        guaranteed = vals["weighted_pair_cost"] <= vals["sup_dual_prior"]
        return ReductionVerdict(
            "w1_ip", vals, guaranteed,
            measured_prior_dist=_w1_atomic(s, w * p, w * q),
            measured_post_dist=_w1_atomic(s, a, b))

    p_pred = bayes.predicted_values(s, p_prev)
    q_pred = bayes.predicted_values(s, q_prev)
    a, b = w * p_pred, w * q_pred
    ah, bh = a * h, b * h
    h_mass = float(w @ h)
    pair_cost_h = float(ah @ _abs_gap_matvec(xs, bh))
    pair_cost = float(a @ _abs_gap_matvec(xs, b))
    z_p, z_q = float(ah.sum()), float(bh.sum())
    vals = {
        "z_p": z_p, "z_q": z_q,
        "pair_cost_h": pair_cost_h,
        "h_mass_sq_pair_cost": h_mass ** 2 * pair_cost,
        "pair_cost": pair_cost,
        "sup_dual_prior": sup_dual_prior,
        "h_mass_sq": h_mass ** 2,
        "evidence_product": z_p * z_q,
    }
    guaranteed = (pair_cost_h <= vals["h_mass_sq_pair_cost"]
                  and pair_cost <= sup_dual_prior
                  and vals["h_mass_sq"] <= vals["evidence_product"])
    return ReductionVerdict(
        "w1_dyn", vals, guaranteed,
        measured_prior_dist=_w1_atomic(s, w * p, w * q),
        measured_post_dist=_w1_atomic(s, ah, bh))
