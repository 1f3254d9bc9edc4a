"""Suite-wide setup: BLAS pinned to one thread, a guard that fails any test
leaving a child process or an extra thread running, the needs_worker mark of
the tests that fork a worker process, and the one-task ELBO and the serial
training worker that tests call training's chunk functions through."""

import multiprocessing
import os
import threading

import pytest

# neurphy.cli pins BLAS to one thread, unless the variables are set, before
# the package loads numpy. One BLAS thread, as the benchmark runs, keeps the
# process single-threaded, so training and evaluation may fork their worker.
import neurphy.cli  # noqa: F401  (first: numpy loads after the pin)
import numpy as np
from neurphy import training

needs_worker = pytest.mark.skipif(
    not training._worker_allowed(),
    reason="worker processes run on Linux, with two CPUs, from a one-thread process")


def one_task_elbo(model, task, ctx, targets, cfg, rng):
    """training.elbo_loss of one task at weight 1, its noise drawn from rng
    with draw_noise: (total Tensor for backward, LossBreakdown)."""
    targets = np.asarray(targets)
    noise = training.draw_noise(rng, targets.size, cfg.D, model.cfg.dim_z)
    total, (breakdown,) = training.elbo_loss(model, [task], [ctx], [targets], [noise], cfg, 1.0)
    return total, breakdown


def serial_worker(model, cfg):
    """A _Worker for backward_batch that computes every chunk in this process."""
    return training._Worker("test worker", training.chunk_gradient(model, cfg), fork=False)


def _threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: the threads Python knows of
        return threading.active_count()


@pytest.fixture(autouse=True)
def leaves_no_process_or_thread():
    threads = _threads()
    yield
    children = multiprocessing.active_children()
    for child in children:  # so the next test starts clean
        child.terminate()
        child.join()
    assert not children, f"left child processes running: {children}"
    assert _threads() <= threads, f"left {_threads() - threads} more threads running"
