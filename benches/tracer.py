"""Spans around calls into the library's public functions, recorded from outside.

Each traced function is replaced by a wrapper at every module attribute in
``bslcert`` that binds it, so calls through ``from .models import
kernel_matvec`` in another module are seen as well as calls through the
defining module.  Spans stay in memory; ``totals`` reduces them when the
run ends.  The tracer assumes one thread, as the benchmark runs the
library with ``threads=1``.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter


def _kernel_entries(args, result):
    # kernel_matvec / kernel_rmatvec(kernel, xs_next, xs_prev, vec, *extra)
    return len(args[1]) * len(args[2])


def _guaranteed(args, result):
    return int(result.guaranteed)


def _bytes_written(args, result):
    paths = [result] if isinstance(result, str) else result
    return sum(os.path.getsize(p) for p in paths)


# "module.function" -> computed work count of one call, or None
TRACED = {
    "models.kernel_matvec": _kernel_entries,
    "models.kernel_rmatvec": _kernel_entries,
    "models.system_constants": None,
    "models.lik_values": None,
    "models.lik_values_ps": None,
    "models.se_g_values": None,
    "models.ps_g_values": None,
    "domains.discretize": None,
    "domains.discretize_product": None,
    "metrics.tv": None,
    "metrics.hellinger": None,
    "metrics.w1": None,
    "metrics.tv_joint": None,
    "bayes.grid_update": None,
    "bayes.particle_step": None,
    "bayes.gaussian_projection_step": None,
    "bayes.conjugate_update_ip": None,
    "bayes.predicted_values": None,
    "bounds.pointwise_K": None,
    "bounds.recursion_set1": None,
    "bounds.recursion_set2": None,
    "reduction.check_tv": _guaranteed,
    "reduction.check_hellinger": _guaranteed,
    "reduction.check_w1": _guaranteed,
    "onlinevi.elbo_mc": None,
    "onlinevi.vi_bound_type1": None,
    "harness.run_config": None,
    "harness.emit": _bytes_written,
    "harness.write_meta": _bytes_written,
}

_NAME, _START, _END, _PARENT, _RAISED, _WORK = range(6)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` puts the originals back."""

    def __init__(self, names=tuple(TRACED)):
        self.names = tuple(names)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "bslcert" or n.startswith("bslcert."))]
        for name in self.names:
            module, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"bslcert.{module}"], attr)
            wrapper = self._wrap(name, original, TRACED[name])
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def bindings(self) -> list[str]:
        """Every "module.attribute" the installed wrappers replaced."""
        return sorted(f"{mod.__name__}.{key}" for mod, key, _ in self._restore)

    def _wrap(self, name, fn, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, True, 0]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[_RAISED] = False
                return result
            finally:
                span[_END] = perf_counter()
                stack.pop()
                if not span[_RAISED] and measure is not None:
                    span[_WORK] = measure(args, result)

        return traced

    def totals(self) -> dict:
        """Per function: calls, raised, self time (span minus child spans), work."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_s[span[_PARENT]] += span[_END] - span[_START]
        out: dict = {}
        for span, inner in zip(self.spans, child_s):
            t = out.setdefault(span[_NAME], {"calls": 0, "raised": 0, "self_s": 0.0, "work": 0})
            t["calls"] += 1
            t["raised"] += int(span[_RAISED])
            t["self_s"] += span[_END] - span[_START] - inner
            t["work"] += span[_WORK]
        return out
