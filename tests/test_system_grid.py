"""One grid per system: every system function evaluates on the system's own
grid, and another grid means another system, built with helpers.on_grid.

The digests were recorded when these functions still took a grid argument,
from calls on grids other than each system's own; the same quantities of the
system rebuilt on that grid keep every bit.  A guard keeps grid arguments
from coming back.
"""

import hashlib
import inspect
import typing

import numpy as np
import pytest

from bslcert import bayes, harness, models, reduction
from bslcert.domains import DomainSpec
from bslcert.models import SystemSpec, g_values, lik_values_ps, ps_g_values, transition_matrix
from helpers import grid_constant_estimates, on_grid

STEPS = (1, 2, 3)


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())
    return h.hexdigest()[:32]


SYSTEMS = {
    "ip": lambda: harness.bimodal_ip_system(3, np.random.default_rng(0), harness.DEFAULT_DOMAIN),
    "se": lambda: harness.linear_se_system(3, np.random.default_rng(0),
                                           harness.FILTER_DOMAINS["particle"]),
    "ps": lambda: harness.ps_toy_system(3, np.random.default_rng(0)),
}
# two grids other than each system's own, one symmetric about zero and one not
GRIDS = {
    "ip": (DomainSpec(-40.0, 40.0, 2001), DomainSpec(-12.5, 30.0, 1001)),
    "se": (DomainSpec(-25.0, 25.0, 801), DomainSpec(-30.0, 20.0, 1201)),
    "ps": (DomainSpec(-15.0, 15.0, 121), DomainSpec(-12.0, 15.0, 401)),
}
G_DIGESTS = {
    ("ip", 0): "c06508ce1d80184f3e21413055e95aed",
    ("ip", 1): "fe1f772aa11ed78ff39409df4e15797a",
    ("se", 0): "8b61733a894c4118c9adf3cee0016579",
    ("se", 1): "55200e4c036dcbeb9fdab69fd3ba99dc",
    ("ps", 0): "f4d5cca32e20932f9e8c1ba0dbdb3971",
    ("ps", 1): "9b9aa5967b285306345500ec014e1a89",
}


@pytest.mark.parametrize("name,i", sorted(G_DIGESTS))
def test_g_on_another_grid_is_g_of_the_system_on_that_grid(name, i):
    s = on_grid(SYSTEMS[name](), GRIDS[name][i])
    assert _digest(g_values(s, k) for k in STEPS) == G_DIGESTS[name, i]


@pytest.mark.parametrize("i,lik,g,kernels", [
    (0, "e5bc65cf71f0ffc82fcbaf515bc382e5", "f4d5cca32e20932f9e8c1ba0dbdb3971",
     "087d0c7530274876ed7a11056d75174e"),
    (1, "9b9f6172cc02d3561f84e58a8b3beaa2", "9b9aa5967b285306345500ec014e1a89",
     "014b263e27c0747fe9b8a3fb9aa1193e"),
])
def test_ps_functions_on_another_grid(i, lik, g, kernels):
    s = on_grid(SYSTEMS["ps"](), GRIDS["ps"][i])
    assert _digest(lik_values_ps(s, k) for k in STEPS) == lik
    assert _digest(ps_g_values(s, k) for k in STEPS) == g
    assert _digest(transition_matrix(s, w) for w in s.w_domain.nodes[::60]) == kernels


@pytest.mark.parametrize("i,kernel", [(0, "6aee671f71453fdb9f147a933fca847d"),
                                      (1, "083ade3a72e32990b833a2caf9ed2175")])
def test_se_transition_matrix_on_another_grid(i, kernel):
    assert _digest([transition_matrix(on_grid(SYSTEMS["se"](), GRIDS["se"][i]))]) == kernel


@pytest.mark.parametrize("name,n,expected", [
    ("ip", 2001, "11db48b06312edfec40b5ca4ad6a3a4b"),
    ("ip", 8001, "abed72f8970ee817b065ade7b3dff6a2"),
    ("se", 2001, "5de3bc89f76351d4d88e2115f7b1816a"),
    ("se", 8001, "b03cbbbd712cfca63488f6f13825693c"),
])
def test_grid_constant_estimates_keep_their_bits(name, n, expected):
    s = SYSTEMS[name]()
    reports = [grid_constant_estimates(s, k, "w1", n) for k in (1, 2)]
    assert _digest([(c.sup, c.lip) for c in reports]) == expected


def _system_functions(module) -> dict:
    """{name: its parameters' types} for each of ``module``'s own functions whose
    first parameter is a SystemSpec; the annotations are strings, resolved here."""
    found = {}
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if fn.__module__ != module.__name__:
            continue
        hints = typing.get_type_hints(fn)
        types = [hints.get(p) for p in inspect.signature(fn).parameters]
        if types and types[0] is SystemSpec:
            found[name] = types
    return found


@pytest.mark.parametrize("module,some", [
    (models, {"g_values", "se_g_values", "ps_g_values", "lik_values_ps", "transition_matrix",
              "each_parameter_kernel", "system_constants"}),
    (bayes, {"grid_update", "grid_updates", "predicted_values"}),
    (reduction, {"check_tv", "check_w1"}),
], ids=["models", "bayes", "reduction"])
def test_no_system_function_takes_a_grid(module, some):
    # the fixed estimate and check grids (801, 161 and 201 nodes) are built inside their functions
    functions = _system_functions(module)
    assert some <= set(functions)
    assert [name for name, types in functions.items() if DomainSpec in types] == []


def test_transition_kernel_takes_no_argument():
    assert list(inspect.signature(SystemSpec.transition_kernel).parameters) == ["self"]
