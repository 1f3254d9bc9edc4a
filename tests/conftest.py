"""Suite-wide setup: BLAS pinned to one thread, a guard that fails any test
leaving a child process or an extra thread running, and the needs_worker mark
of the tests that fork a worker process."""

import multiprocessing
import os
import threading

import pytest

# neurphy.cli pins BLAS to one thread, unless the variables are set, before
# the package loads numpy. One BLAS thread, as the benchmark runs, keeps the
# process single-threaded, so training and evaluation may fork their worker.
import neurphy.cli  # noqa: F401  (first: numpy loads after the pin)
from neurphy import training

needs_worker = pytest.mark.skipif(
    not training._worker_allowed(),
    reason="worker processes run on Linux, with two CPUs, from a one-thread process")


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
