"""Suite-wide setup: BLAS pinned to one thread, a guard that fails any test
leaving a child process or an extra thread running, and the needs_worker mark
of the tests that fork a worker process."""

import multiprocessing
import os
import threading

import pytest

# Set before numpy is first imported. One BLAS thread, as the benchmark runs,
# keeps the process single-threaded, so training may fork its chunk worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from neurphy import training  # noqa: E402  (numpy loads after the pin)

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
