"""The kernel pool: streamed kernel blocks and per-parameter kernels run on
worker threads with the bits of the serial loop, traced entry points stay on
the calling thread, failures propagate, and single-item work stays inline."""

import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from bslcert import harness, models
from bslcert.bayes import grid_updates, particle_step
from bslcert.domains import DomainSpec, Gaussian1D, ParticleSet, discretize, discretize_product
from bslcert.errors import NonFinite
from bslcert.harness import ExperimentConfig
from bslcert.models import (_KERNEL_BLOCK, LikelihoodModel, SystemSpec, TransitionModel,
                            kernel_matvec, kernel_rmatvec)

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benches"))
from helpers import run_python  # noqa: E402
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
    """Both products of the per-parameter kernel pass: two paired PS updates, and PS g."""
    s = harness.ps_toy_system(2, np.random.default_rng(3))
    xd, wd = s.domain, s.w_domain
    priors = [discretize_product(Gaussian1D(0.0, 1.0), Gaussian1D(0.6, 0.01), xd, wd),
              discretize_product(Gaussian1D(0.5, 1.5), Gaussian1D(0.7, 0.005), xd, wd)]
    updates = [(u.posterior.values.tobytes(), u.evidence.hex()) for u in grid_updates(s, 1, priors)]
    return updates, models.ps_g_values(s, 2).tobytes()


def _in_thread(fn, timeout=120.0):
    """Run fn on a new thread; fail rather than hang if it does not finish in time."""
    result = {}
    t = threading.Thread(target=lambda: result.setdefault("value", fn()))
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "pool work did not finish in time"
    return result["value"]


class TestWorkerCountKeepsBits:
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
        rows = _block_loop_matvec(density, xs, prior.points, prior.weights)
        cols = np.empty(xs.shape[0])
        for b in models._blocks(xs.shape[0]):
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


def _block_loop_matvec(density, xs, points, vec):
    """kernel_matvec's streamed product without deduplication: each row block
    evaluated at every point of ``points``, then one gemv."""
    out = np.empty(xs.shape[0])
    for b in models._blocks(xs.shape[0]):
        out[b] = np.asarray(density(xs[b, None], points[None, :]), dtype=float) @ vec
    return out


def _signed_zero_density(x_next, x_prev):
    """A transition density that doubles its value where x_prev is -0.0."""
    doubled = np.where(np.signbit(x_prev), 2.0, 1.0)
    return models.gauss_pdf(x_next, 0.9 * np.asarray(x_prev), 1.0) * doubled


def _clouds():
    """name -> (density, points): a resampled cloud, an all-distinct one, one point
    2000 times, and a cloud holding 0.0 and -0.0 under a density that tells them apart."""
    s, resampled = _particle_system(2001)
    rng = np.random.default_rng(7)
    zeros = rng.choice(np.array([0.0, -0.0, 0.25, -1.5]), 2000)
    density = s.transition_density()
    return {"resampled": (density, resampled.points),
            "distinct": (density, 2.0 * rng.standard_normal(2000)),
            "one point": (density, np.full(2000, 0.37)),
            "signed zeros": (_signed_zero_density, zeros)}


class TestDistinctColumns:
    """A streamed kernel_matvec evaluates the density once per distinct column point."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cloud", ["resampled", "distinct", "one point", "signed zeros"])
    def test_bits_equal_the_block_loop_without_deduplication(self, cloud, workers, monkeypatch):
        monkeypatch.setattr(models, "_WORKERS", workers)
        density, points = _clouds()[cloud]
        xs = DomainSpec(-25.0, 25.0, 2001).nodes
        vec = np.random.default_rng(1).dirichlet(np.ones(points.shape[0]))
        got = kernel_matvec(density, xs, points, vec)
        assert got.tobytes() == _block_loop_matvec(density, xs, points, vec).tobytes()

    def test_the_two_zeros_stay_separate_columns(self):
        density, points = _clouds()["signed zeros"]
        distinct, inverse = models._distinct_points(points)
        assert distinct.shape == (4,)
        assert np.array_equal(np.signbit(distinct[inverse]), np.signbit(points))
        xs = DomainSpec(-25.0, 25.0, 2001).nodes
        vec = np.full(2000, 1.0 / 2000)
        unsigned = _block_loop_matvec(density, xs, points + 0.0, vec)  # -0.0 + 0.0 is 0.0
        assert kernel_matvec(density, xs, points, vec).tobytes() != unsigned.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cloud", ["resampled", "distinct", "one point", "signed zeros"])
    def test_each_distinct_point_is_evaluated_once_per_row_block(self, cloud, workers, monkeypatch):
        monkeypatch.setattr(models, "_WORKERS", workers)
        base, points = _clouds()[cloud]
        columns = []

        def counting(x_next, x_prev):
            columns.append(tuple(np.ravel(x_prev).view(np.int64)))
            return base(x_next, x_prev)

        xs = DomainSpec(-25.0, 25.0, 2001).nodes
        kernel_matvec(counting, xs, points, np.full(points.shape[0], 1.0 / points.shape[0]))
        distinct = len(set(points.view(np.int64).tolist()))
        assert len(columns) == len(models._blocks(xs.shape[0]))
        assert all(len(c) == len(set(c)) == distinct for c in columns)
        if cloud == "resampled":
            assert distinct < 1200  # resampling repeats about half of the particles


def _readme_kernel(n, cached):
    """The README's SE system's kernel on an n-node grid, its cached matrix or its density."""
    d = DomainSpec(-25.0, 25.0, n)
    s = SystemSpec("se", LikelihoodModel.linear_gaussian(1.0, 1.0), [0.0], d,
                   transition=TransitionModel.linear_gaussian(0.9, 1.0))
    kernel = s.transition_kernel() if cached else s.transition_density()
    assert callable(kernel) != cached
    return kernel, d


def _readme_products(n, cached, vec=None):
    """kernel_matvec and kernel_rmatvec bytes on the README's SE system with an n-node grid,
    through the cached matrix or the streamed density, of ``vec`` or the discretized
    N(0, 4) prior's trapezoid-weighted values."""
    kernel, d = _readme_kernel(n, cached)
    if vec is None:
        vec = d.trapezoid_weights * discretize(Gaussian1D(0.0, 4.0), d).values
    return tuple(product(kernel, d.nodes, d.nodes, vec).tobytes()
                 for product in (kernel_matvec, kernel_rmatvec))


BLAS_GRIDS = (201, 257, 258, 513, 1025, 2001, 2049, 8001)


def print_blas_digests():
    """Print, for each of BLAS_GRIDS and the README SE system's kept and streamed
    kernel, the sha256 of kernel_matvec, kernel_rmatvec and a stacked kernel_rmatvec.
    An 8001-node matrix is too large to keep, so that grid only streams."""
    for n in BLAS_GRIDS:
        for cached in (False,) if n == 8001 else (True, False):
            kernel, d = _readme_kernel(n, cached)
            xs = d.nodes
            prior = d.trapezoid_weights * discretize(Gaussian1D(0.0, 4.0), d).values
            stack = np.vstack([prior, np.random.default_rng(n).standard_normal((2, n))])
            products = (kernel_matvec(kernel, xs, xs, prior), kernel_rmatvec(kernel, xs, xs, prior),
                        kernel_rmatvec(kernel, xs, xs, stack))
            print(n, cached, *(hashlib.sha256(p.tobytes()).hexdigest() for p in products))


@pytest.fixture(scope="module")
def blas_thread_digests():
    """The lines of print_blas_digests, from one process per BLAS thread count."""
    code = "import test_kernel_pool as t; t.print_blas_digests()"
    return {threads: run_python(["-c", code], blas_threads=threads).splitlines()
            for threads in (1, 2, 4)}


class TestBlockRule:
    def test_blocks_cover_the_range_in_order(self):
        for n in [*range(1, 601), 2001, 8001]:
            blocks = [range(n)[b] for b in models._blocks(n)]
            assert [i for b in blocks for i in b] == list(range(n))
            assert all(b.start % _KERNEL_BLOCK == 0 for b in blocks)

    @pytest.mark.parametrize("n", [201, 257, 258, 513, 1025, 2001, 2049])
    def test_cached_and_streamed_products_are_equal(self, n):
        for vec in (None, np.random.default_rng(n).standard_normal(n)):
            assert _readme_products(n, True, vec) == _readme_products(n, False, vec)

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "streamed"])
    @pytest.mark.parametrize("n", [201, 258, 801, 2001])
    def test_stacked_rmatvec_rows_equal_single_products(self, n, cached):
        kernel, d = _readme_kernel(n, cached)
        xs = d.nodes
        stack = np.vstack([d.trapezoid_weights * discretize(Gaussian1D(0.0, 4.0), d).values,
                           np.random.default_rng(n).standard_normal((9, n))])
        rows = kernel_rmatvec(kernel, xs, xs, stack)
        assert rows.shape == stack.shape
        for vec, row in zip(stack, rows):
            # a fresh copy: the single product must not lean on the stack's memory
            assert row.tobytes() == kernel_rmatvec(kernel, xs, xs, vec.copy()).tobytes()

    def test_products_do_not_depend_on_the_blas_thread_count(self, blas_thread_digests):
        one_thread = blas_thread_digests[1]
        assert len(one_thread) == 2 * len(BLAS_GRIDS) - 1
        assert blas_thread_digests[2] == one_thread
        assert blas_thread_digests[4] == one_thread

    def test_streamed_8001_node_products_keep_their_bits(self, blas_thread_digests):
        # 8001 = 125 * 64 + 1: the last block has one row (one column)
        for lines in blas_thread_digests.values():
            assert lines[-1].split()[:4] == [
                "8001", "False", "b051d59d11af5f549d2714220e1202d31dc0245647dbd4c0d4c20e2aba870a30",
                "3aa821a628d30bc21e98f473116483797bb426b21aca1d5b4586e5c08ead0d75"]


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
        models.system_constants(harness.ps_toy_system(2, np.random.default_rng(0)), 1, "tv")
        main = threading.get_ident()
        names = {name for name, _ in calls}
        assert {"models.kernel_matvec", "bayes.grid_update", "bayes.predicted_values",
                "models.ps_g_values", "models.lik_values_ps"} <= names
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
        record = harness.run_config(ExperimentConfig("reduction_fuzz", theorem="w1-dyn", trials=10,
                                                     seed=0))
        assert record.trials == 10
        assert harness.run_config(ExperimentConfig("reproduce_case3", steps=20, seed=0, trials=1)).rows



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
