"""The kernel pool: streamed kernel blocks and per-parameter kernels run on
worker threads with the bits of the serial loop, traced entry points stay on
the calling thread, failures propagate, and single-item work stays inline."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from bslcert import harness, models
from bslcert.bayes import grid_updates, particle_step
from bslcert.domains import DomainSpec, Gaussian1D, ParticleSet, discretize_product
from bslcert.errors import NonFinite
from bslcert.harness import ExperimentConfig
from bslcert.models import (_KERNEL_BLOCK, LikelihoodModel, SystemSpec, TransitionModel,
                            kernel_matvec, kernel_rmatvec)

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benches"))
from tracer import TRACED  # noqa: E402

WORKER_COUNTS = (1, 3)


def _particle_system(n):
    """The particle filter's SE system on an n-node grid, and a resampled 2000-particle prior."""
    s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.3], DomainSpec(-25.0, 25.0, n),
                   transition=TransitionModel.linear_gaussian(0.9, 1.0))
    rng = np.random.default_rng(5)
    start = ParticleSet(2.0 * rng.standard_normal(2000), np.full(2000, 1.0 / 2000))
    return s, particle_step(s, 1, start, 2000, 11)


def _streamed_products(s, prior):
    """The products a particle prior streams, as bayes.predicted_values does."""
    xs, density = s.domain.nodes, s.transition_density()
    return (kernel_matvec(density, xs, prior.points, prior.weights).tobytes(),
            kernel_rmatvec(density, prior.points, xs, prior.weights).tobytes())


def _ps_updates():
    s = harness.ps_toy_system(2, np.random.default_rng(3))
    xd, wd = s.domain, s.w_domain
    priors = [discretize_product(Gaussian1D(0.0, 1.0), Gaussian1D(0.6, 0.01), xd, wd),
              discretize_product(Gaussian1D(0.5, 1.5), Gaussian1D(0.7, 0.005), xd, wd)]
    return [(u.posterior.values.tobytes(), u.evidence.hex()) for u in grid_updates(s, 1, priors)]


def _in_thread(fn, timeout=120.0):
    """Run fn on a new thread; fail rather than hang if it does not finish in time."""
    result = {}
    t = threading.Thread(target=lambda: result.setdefault("value", fn()))
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "pool work did not finish in time"
    return result["value"]


class TestWorkerCountKeepsBits:
    # 2049 = 8 * 256 + 1: the last row block is one row, whose product goes through dot
    @pytest.mark.parametrize("n", [2001, 2049])
    def test_streamed_products(self, n, monkeypatch):
        s, prior = _particle_system(n)
        reference = _streamed_products(s, prior)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(models, "_WORKERS", workers)
            assert _streamed_products(s, prior) == reference

    def test_streamed_products_equal_the_serial_block_loop(self):
        s, prior = _particle_system(2049)
        xs, density = s.domain.nodes, s.transition_density()
        rows = np.empty(xs.shape[0])
        cols = np.empty(xs.shape[0])
        for start in range(0, xs.shape[0], _KERNEL_BLOCK):
            b = slice(start, start + _KERNEL_BLOCK)
            rows[b] = np.asarray(density(xs[b, None], prior.points[None, :])) @ prior.weights
            cols[b] = prior.weights @ np.asarray(density(prior.points[:, None], xs[None, b]))
        assert _streamed_products(s, prior) == (rows.tobytes(), cols.tobytes())

    def test_parameter_state_updates(self, monkeypatch):
        reference = _ps_updates()
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(models, "_WORKERS", workers)
            assert _ps_updates() == reference

    def test_stress_with_more_workers_than_cores(self, monkeypatch):
        s, prior = _particle_system(2049)
        monkeypatch.setattr(models, "_WORKERS", 1)
        serial = _streamed_products(s, prior), _ps_updates()
        monkeypatch.setattr(models, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # a block or column that no worker wrote would keep np.empty's garbage
            for _ in range(3):
                assert _in_thread(lambda: (_streamed_products(s, prior), _ps_updates())) == serial
        finally:
            sys.setswitchinterval(interval)


def _wrap_traced(monkeypatch, record):
    """Replace every binding of each benches/tracer.TRACED name in bslcert with a
    wrapper that records the calling thread."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "bslcert" or n.startswith("bslcert."))]
    for name in TRACED:
        module, attr = name.rsplit(".", 1)
        original = getattr(sys.modules[f"bslcert.{module}"], attr)

        def wrapper(*args, __fn=original, __name=name, **kwargs):
            record.append((__name, threading.get_ident()))
            return __fn(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)


class TestTracedNamesStayOnTheCaller:
    def test_particle_and_vi_runs(self, monkeypatch):
        monkeypatch.setattr(models, "_WORKERS", 3)
        calls, pdf_threads = [], set()
        gauss_pdf = models.gauss_pdf

        def recording_pdf(*args, **kwargs):
            pdf_threads.add(threading.get_ident())
            return gauss_pdf(*args, **kwargs)

        monkeypatch.setattr(models, "gauss_pdf", recording_pdf)
        _wrap_traced(monkeypatch, calls)
        harness.run_config(ExperimentConfig("bound_validate", filter_kind="particle", steps=3, seed=0))
        harness.run_config(ExperimentConfig("vi_demo", steps=2, seed=0))
        main = threading.get_ident()
        names = {name for name, _ in calls}
        assert {"models.kernel_matvec", "bayes.grid_update", "bayes.predicted_values"} <= names
        assert sorted({name for name, ident in calls if ident != main}) == []
        assert pdf_threads - {main}  # the kernels did run on workers


def _failing_system(bad_blocks):
    """SE system on 2001 nodes whose density raises on the given row blocks,
    after the given delays."""
    d = DomainSpec(-25.0, 25.0, 2001)
    base = TransitionModel.linear_gaussian(0.9, 1.0)
    firsts = {d.nodes[b * _KERNEL_BLOCK]: failure for b, failure in bad_blocks.items()}

    def density(x_next, x_prev):
        failure = firsts.get(float(np.ravel(x_next)[0]))
        if failure is not None:
            delay, exc = failure
            threading.Event().wait(delay)
            raise exc
        return base.kernel(x_next, x_prev)

    return SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.0], d,
                      transition=TransitionModel.custom(density)), d


class TestFailures:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_first_failing_block_raises(self, workers, monkeypatch):
        monkeypatch.setattr(models, "_WORKERS", workers)
        # the third block fails last, so only item order makes its exception the one raised
        s, d = _failing_system({2: (0.3, NonFinite("third block")), 5: (0.0, ValueError("sixth block"))})
        xs = d.nodes
        with pytest.raises(NonFinite, match="third block"):
            kernel_matvec(s.transition_density(), xs, xs, np.ones(xs.shape[0]))

    def test_nested_calls_run_inline(self, monkeypatch):
        monkeypatch.setattr(models, "_WORKERS", 2)
        threads = {}

        def outer(i):
            models._run_each(lambda j: threads.setdefault((i, j), threading.get_ident()), range(3))
            threads[i] = threading.get_ident()

        _in_thread(lambda: models._run_each(outer, range(4)), timeout=30.0)
        for i in range(4):
            assert {threads[i, j] for j in range(3)} == {threads[i]}


class TestSingleItemsStayInline:
    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(workers):
            raise AssertionError("the pool was used")

        monkeypatch.setattr(models, "_WORKERS", 2)
        monkeypatch.setattr(models, "_executor", refuse)

    def test_one_item(self, no_pool):
        seen = []
        models._run_each(seen.append, [7])
        assert seen == [7]
        with pytest.raises(AssertionError, match="the pool was used"):
            models._run_each(seen.append, [8, 9])

    def test_no_reuse_experiments(self, no_pool):
        record = harness.reduction_fuzz("w1-dyn", 10, 0)
        assert record.trials == 10
        assert harness.reproduce(3, 20, 0, trials=1).rows



@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    monkeypatch.setattr(models, "_WORKERS", 2)
    barrier = threading.Barrier(2)
    models._run_each(lambda i: barrier.wait(30.0), range(2))  # both pool threads exist
    threading.Event().wait(0.2)  # and are idle
    pid = os.fork()
    if pid == 0:  # the child has none of the parent's pool threads
        seen = []
        models._run_each(seen.append, range(4))
        os._exit(0 if sorted(seen) == [0, 1, 2, 3] else 1)
    deadline = 30.0
    while deadline > 0:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        threading.Event().wait(0.05)
        deadline -= 0.05
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's pool work did not finish in time")
    assert os.waitstatus_to_exitcode(status) == 0


def test_import_starts_no_thread_and_loads_no_executor():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    check = ("import sys, threading, bslcert.cli; "
             "assert threading.active_count() == 1; "
             "assert 'concurrent.futures' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
