import dataclasses
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurphy
from conftest import needs_worker
from neurphy import autodiff as ad
from neurphy import training
from neurphy.autodiff import NonFiniteError
from neurphy.cli import EXIT_IO, EXIT_NUMERIC, main
from neurphy.model import ModelConfig, NeurPhyModel
from neurphy.nn import Adam
from neurphy.physics import (DegenerateSplitError, PendulumGridConfig, PendulumParams,
                             generate_task_grid, pendulum_trajectory, select_contexts)
from neurphy.training import (CheckpointError, CorruptCheckpointError, FormatVersionMismatchError,
                              LossBreakdown, TrainConfig, backward_batch, checkpoint_load,
                              checkpoint_save, draw_noise, elbo_loss, eligible_frames,
                              keep_freed_heap, split_frames, train, write_metrics_csv)


def tiny_model_config():
    return ModelConfig(obs_dim=2, dim_z=2, dim_r=2,
                       context_widths=[16, 16], recognition_widths=[16, 8],
                       transition_widths=[16, 16], decoder_widths=[16, 16])


def tiny_train_config(**kw):
    kw.setdefault("model", tiny_model_config())
    kw.setdefault("D", 2)
    kw.setdefault("epochs", 3)
    kw.setdefault("batch_tasks", 2)
    kw.setdefault("n_c", 4)
    return TrainConfig(**kw)


def test_split_frames_eligibility_window():
    targets, heldout = split_frames(101, 5, 0.9, seed=0)
    assert targets.min() >= 6 and heldout.min() >= 6
    assert len(targets) == 85 and len(heldout) == 10
    assert set(targets).isdisjoint(heldout)
    assert set(targets) | set(heldout) == set(range(6, 101))


def test_split_frames_high_fraction_bounded():
    targets, heldout = split_frames(10, 2, 0.99, seed=1)
    assert len(targets) + len(heldout) == 7
    assert len(targets) >= 1


def test_split_frames_deterministic():
    a = split_frames(50, 3, 0.8, seed=7)
    b = split_frames(50, 3, 0.8, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_frames_degenerate():
    with pytest.raises(DegenerateSplitError):
        split_frames(3, 5, 0.9, seed=0)


@pytest.fixture
def setup():
    cfg = tiny_train_config()
    task = pendulum_trajectory(PendulumParams(), 30)
    ctx = select_contexts(task, cfg.n_c, "train_random", seed=0)
    targets, _ = split_frames(task.length, cfg.D, 0.9, seed=0)
    model = NeurPhyModel(cfg.model, np.random.default_rng(0))
    return cfg, task, ctx, targets, model


def test_elbo_kls_nonnegative_untrained(setup):
    cfg, task, ctx, targets, model = setup
    _, br = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(1))
    assert all(k >= 0.0 for k in br.kl)
    assert len(br.kl) == cfg.D


def test_elbo_beta_zero_total_is_recon(setup):
    _, task, ctx, targets, model = setup
    cfg = tiny_train_config(beta=[0.0, 0.0])
    _, br = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(2))
    assert br.total == br.recon


def test_elbo_total_identity(setup):
    cfg, task, ctx, targets, model = setup
    _, br = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(3))
    expect = br.recon + sum(b * k for b, k in zip(cfg.beta, br.kl)) / cfg.D
    assert abs(br.total - expect) < 1e-9 * max(1.0, abs(expect))


def test_elbo_d1_single_term(setup):
    _, task, ctx, targets, model = setup
    cfg = tiny_train_config(D=1)
    _, br = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(4))
    assert len(br.kl) == 1


def test_elbo_replay_reproduces_breakdown(setup):
    cfg, task, ctx, targets, model = setup
    _, a = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(5))
    _, b = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(5))
    assert a.recon == b.recon and a.kl == b.kl and a.total == b.total


def test_elbo_gradients_take_the_frame_pairs_as_constants(setup, monkeypatch):
    """recognize and encode_context hand linear their frame pairs as arrays,
    which get no gradient; wrapped in Tensors, the same parameter gradients
    come out bit for bit, from a graph with two more leaves."""
    cfg, task, ctx, targets, model = setup

    def gradients():
        for _, p in model.parameters():
            p.grad = None
        total, _ = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(6))
        nodes = len(ad._toposort(total))
        ad.backward(total)
        return nodes, [p.grad for _, p in model.parameters()]

    nodes, got = gradients()
    linear = ad.linear
    monkeypatch.setattr(ad, "linear", lambda x, *rest: linear(ad.as_tensor(x), *rest))
    wrapped_nodes, want = gradients()
    assert wrapped_nodes == nodes + 2
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_d5_step_frees_its_graph_behind_the_sweep():
    # One two-task D=5 chunk of the desk grid (2 x 1,275 transition rows).
    # Holding the graph through the whole sweep, the step peaked at 12.2 MB;
    # freeing it behind the sweep, at 9.6 MB.
    tasks, _ = generate_task_grid(PendulumGridConfig(l_count=2, m_count=2))
    cfg = TrainConfig(D=5, batch_tasks=2)
    model = NeurPhyModel(cfg.model, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    backward_batch(model, tasks[:2], cfg, rng)  # first-call allocations
    for _, p in model.parameters():
        p.grad = None
    tracemalloc.start()
    try:
        backward_batch(model, tasks[2:], cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6


@pytest.mark.parametrize("D", [0, 1, 5])
def test_draw_noise_blocks_follow_per_d_loop(D):
    """Block 1 + d(d-1)/2 + k is chain d's k-th draw of the per-d loop (k = 0
    its recognized draw), block 0 q_now's, and the generator ends where that
    loop leaves it."""
    n, dim_z = 7, 3
    got_rng, want_rng = np.random.default_rng(13), np.random.default_rng(13)
    noise = draw_noise(got_rng, n, D, dim_z)
    assert noise.shape == (1 + D * (D + 1) // 2, n, dim_z)
    assert np.array_equal(noise[0], want_rng.standard_normal((n, dim_z)))
    for d in range(1, D + 1):
        for k in range(d):
            assert np.array_equal(noise[1 + d * (d - 1) // 2 + k],
                                  want_rng.standard_normal((n, dim_z))), (d, k)
    assert got_rng.integers(2 ** 31) == want_rng.integers(2 ** 31)


def _tasks(n=4, T=30):
    return [pendulum_trajectory(PendulumParams(l=1.0 + 0.3 * i), T, task_id=i)
            for i in range(n)]


def test_train_zero_epochs_returns_initial():
    cfg = tiny_train_config(epochs=0)
    model, history = train(_tasks(), cfg)
    ref = NeurPhyModel(cfg.model, np.random.default_rng(cfg.seed))
    for (_, a), (_, b) in zip(model.parameters(), ref.parameters()):
        assert np.array_equal(a.value, b.value)
    assert history == []


def test_train_loss_decreases_on_tiny_run():
    cfg = tiny_train_config(epochs=50, batch_tasks=4)
    _, history = train(_tasks(), cfg)
    assert history[-1].total < history[0].total


def test_train_same_seed_identical_history():
    cfg = tiny_train_config(epochs=3)
    _, h1 = train(_tasks(), cfg)
    _, h2 = train(_tasks(), cfg)
    assert [b.total for b in h1] == [b.total for b in h2]
    assert [b.kl for b in h1] == [b.kl for b in h2]


def test_keep_freed_heap_is_safe_twice(monkeypatch):
    keep_freed_heap()
    keep_freed_heap()
    cfg = tiny_train_config(epochs=2)
    _, h1 = train(_tasks(), cfg)
    _, h2 = train(_tasks(), cfg)
    assert [b.total for b in h1] == [b.total for b in h2]

    calls = []
    monkeypatch.setattr(training, "_libc_mallopt", lambda: lambda *args: calls.append(args))
    keep_freed_heap()
    keep_freed_heap()
    assert calls == 2 * [(training.M_TRIM_THRESHOLD, 64 << 20),
                         (training.M_MMAP_THRESHOLD, 32 << 20)]


def test_keep_freed_heap_without_mallopt(monkeypatch):
    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert training._libc_mallopt() is None
    keep_freed_heap()
    _, history = train(_tasks(), tiny_train_config(epochs=1))
    assert len(history) == 1


FAULTS_SCRIPT = """
import resource
from neurphy.physics import PendulumGridConfig, generate_task_grid
from neurphy.training import TrainConfig, train
tasks, _ = generate_task_grid(PendulumGridConfig(l_count=1, m_count=2, T=101))
train(tasks, TrainConfig(D=5, batch_tasks=2, epochs=1))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(tasks, TrainConfig(D=5, batch_tasks=2, epochs=5))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(training._libc_mallopt() is None, reason="the C library has no mallopt")
def test_repeated_train_does_not_fault_its_heap_back_in():
    # a fresh interpreter, so no earlier test has set the allocator policy;
    # without it these 5 steps fault ~7,500 times
    src = os.path.dirname(os.path.dirname(neurphy.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout.strip()) < 1000


@pytest.mark.parametrize("k", [0, 2])
def test_interrupted_train_keeps_completed_epochs(tmp_path, monkeypatch, k):
    cfg = tiny_train_config(epochs=4, batch_tasks=4)  # one batch per epoch
    full, cut = tmp_path / "full", tmp_path / "cut"
    full.mkdir()
    cut.mkdir()
    train(_tasks(), cfg, full)
    real, started = training.backward_batch, []

    def interrupt_epoch_k_plus_1(*args):
        if len(started) == k:
            raise KeyboardInterrupt
        started.append(1)
        return real(*args)

    monkeypatch.setattr(training, "backward_batch", interrupt_epoch_k_plus_1)
    with pytest.raises(KeyboardInterrupt):
        train(_tasks(), cfg, cut)
    lines = (cut / training.METRICS_FILE).read_text().splitlines()
    assert len(lines) == 1 + k
    assert lines == (full / training.METRICS_FILE).read_text().splitlines()[:1 + k]
    assert not (cut / training.CHECKPOINT_FILE).exists()


@pytest.mark.parametrize("epochs, every, writes", [(3, 1, 3), (3, 0, 1), (4, 3, 2), (0, 1, 1)])
def test_train_writes_each_epochs_checkpoint_once(tmp_path, monkeypatch, epochs, every, writes):
    cfg = tiny_train_config(epochs=epochs, batch_tasks=4, checkpoint_every=every)
    plain, spied = tmp_path / "plain", tmp_path / "spied"
    plain.mkdir()
    spied.mkdir()
    train(_tasks(), cfg, plain)
    real, saved = training.checkpoint_save, []

    def spy(*args):
        saved.append(1)
        return real(*args)

    monkeypatch.setattr(training, "checkpoint_save", spy)
    train(_tasks(), cfg, spied)
    assert len(saved) == writes
    ckpt = training.CHECKPOINT_FILE
    assert (spied / ckpt).read_bytes() == (plain / ckpt).read_bytes()


@pytest.fixture
def worker_submits(monkeypatch):
    """One task per chunk, and the number of chunks each submit handed the
    training worker; each submit also sends the worker a SIGINT, which it
    ignores."""
    monkeypatch.setattr(training, "CHUNK_ROWS", 1)
    submits, submit = [], training._Worker._submit

    def spy(self, jobs):
        submit(self, jobs)
        if self.name == "training worker":
            submits.append(len(jobs))
            os.kill(self._proc.pid, signal.SIGINT)

    monkeypatch.setattr(training._Worker, "_submit", spy)
    return submits


def serial_only(monkeypatch):
    monkeypatch.setattr(training, "_worker_allowed", lambda: False)


def inject(monkeypatch, fail):
    """chunk_elbo, raising fail(tasks) where that is an exception."""
    real = training.chunk_elbo

    def chunk_elbo(model, tasks, *rest):
        exc = fail(tasks)
        if exc is not None:
            raise exc
        return real(model, tasks, *rest)

    monkeypatch.setattr(training, "chunk_elbo", chunk_elbo)


@needs_worker
@pytest.mark.parametrize("D", [0, 1, 3])
def test_worker_trains_the_serial_bytes(tmp_path, monkeypatch, worker_submits, D):
    # 7 tasks at B=5: chunks 1-3 of 5 and 1 of 2 here, the rest in the worker;
    # at D=0 no gradient reaches the context encoder or the transition
    cfg = tiny_train_config(D=D, epochs=3, batch_tasks=5, checkpoint_every=2)
    forks, fork = [], training._Worker._fork
    monkeypatch.setattr(training._Worker, "_fork",
                        lambda self, jobs: forks.append(self.name) or fork(self, jobs))
    runs = []
    for name in ("worker", "serial"):
        if name == "serial":
            serial_only(monkeypatch)
        (tmp_path / name).mkdir()
        _, history = train(_tasks(7), cfg, tmp_path / name)
        runs.append([history] + [(tmp_path / name / f).read_bytes()
                                 for f in (training.CHECKPOINT_FILE, training.METRICS_FILE)])
    assert worker_submits == [2, 1] * 3
    assert forks == ["training worker"]  # one child for the 3 epochs
    assert runs[0] == runs[1]


@needs_worker
def test_worker_error_exits_as_the_serial_run(tmp_path, monkeypatch, worker_submits, capfd):
    data = tmp_path / "pend.jsonl"
    assert main(["generate", "--system", "pendulum", "--out", str(data),
                 "--l", "1:3:3", "--m", "1:4:3", "--T", "20"]) == 0
    argv = ["train", "--data", str(data), "--D", "1", "--epochs", "3", "--batch-tasks", "8",
            "--n-c", "4", "--dim-z", "2", "--dim-r", "2"]  # one batch of 8 chunks per epoch
    order = []
    with monkeypatch.context() as m:
        inject(m, lambda tasks: order.append(tasks[0].task_id))
        serial_only(m)
        assert main(argv + ["--out", str(tmp_path / "probe")]) == 0
    victim = order[15]  # the last chunk of epoch 1: a worker's chunk
    run = {}  # this run's marker files: the worker reads them too

    def fail(tasks):
        if tasks[0].task_id == victim:
            if run["seen"].exists():  # its second chunk: epoch 1
                run["raised"].write_text(str(os.getpid()))
                return NonFiniteError("non-finite output of network decoder")
            run["seen"].touch()

    inject(monkeypatch, fail)
    results = []
    for name in ("worker", "serial"):
        run.update(seen=tmp_path / f"seen-{name}", raised=tmp_path / f"raised-{name}")
        if name == "serial":
            serial_only(monkeypatch)
        capfd.readouterr()
        assert main(argv + ["--out", str(tmp_path / name)]) == EXIT_NUMERIC
        results.append((capfd.readouterr(), (tmp_path / name / "metrics.csv").read_text()))
        assert (int(run["raised"].read_text()) == os.getpid()) == (name == "serial")
    assert results[0] == results[1]
    assert "numerical error: non-finite output of network decoder" in results[0][0].err
    assert "Traceback" not in results[0][0].err
    assert len(results[0][1].splitlines()) == 2  # the header and epoch 0


@needs_worker
@pytest.mark.parametrize("dies", ["while computing", "before a submit"])
def test_dead_worker_exits_3(tmp_path, monkeypatch, capfd, dies):
    # one task per chunk: epoch k's 8 tasks hand the worker 4 chunks in the
    # (k+1)th submit; the worker is killed in epoch 1's
    monkeypatch.setattr(training, "CHUNK_ROWS", 1)
    submits, submit = [], training._Worker._submit

    def spy(self, jobs):
        if self.name != "training worker":
            return submit(self, jobs)
        submits.append(len(jobs))
        if len(submits) == 2 and dies == "before a submit":
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join()
        submit(self, jobs)
        if len(submits) == 2 and dies == "while computing":
            os.kill(self._proc.pid, signal.SIGKILL)

    monkeypatch.setattr(training._Worker, "_submit", spy)
    data, run = tmp_path / "pend.jsonl", tmp_path / "run"
    assert main(["generate", "--system", "pendulum", "--out", str(data),
                 "--l", "1:3:3", "--m", "1:4:3", "--T", "20"]) == 0
    capfd.readouterr()
    assert main(["train", "--data", str(data), "--out", str(run), "--D", "1", "--epochs", "3",
                 "--batch-tasks", "8", "--n-c", "4", "--dim-z", "2", "--dim-r", "2"]) == EXIT_IO
    assert capfd.readouterr().err == "io error: the training worker process exited with code -9\n"
    assert submits == [4, 4]
    assert len((run / training.METRICS_FILE).read_text().splitlines()) == 2  # header, epoch 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("host, allowed", [
    ("two CPUs, one thread", True), ("one CPU", False), ("not Linux", False),
    ("no /proc", False)])
def test_worker_allowed_only_where_it_can_fork_safely(monkeypatch, host, allowed):
    monkeypatch.setattr(sys, "platform", "darwin" if host == "not Linux" else "linux")
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0} if host == "one CPU" else {0, 1}, raising=False)

    def listdir(path):
        if host == "no /proc":
            raise FileNotFoundError(path)
        return ["1"]

    monkeypatch.setattr(os, "listdir", listdir)
    assert training._worker_allowed() == allowed


@needs_worker
def test_one_worker_serves_several_maps(monkeypatch, capfd):
    forks, fork = [], training._Worker._fork
    monkeypatch.setattr(training._Worker, "_fork",
                        lambda self, jobs: forks.append(list(jobs)) or fork(self, jobs))
    parent, here = os.getpid(), []

    def fn(job):
        if job < 0:
            raise ValueError(f"job {job}")
        if os.getpid() == parent:
            here.append(job)
        return job * job

    with training._Worker("test worker", fn) as worker:
        for jobs in ([1, 2, 3, 4, 5], [6, 7], [8, 9, 10, 11]):
            assert list(worker.map(jobs)) == [job * job for job in jobs]
        assert forks == [[4, 5]]  # the first map's later half; the rest went by pipe
        assert here == [1, 2, 3, 6, 8, 9]
        results = []
        with pytest.raises(ValueError, match="^job -3$"):
            for result in worker.map([12, 13, -3, -4]):  # the child's half raises
                results.append(result)
        assert results == [144, 169]
    assert forks == [[4, 5]]
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("D", [0, 2])
def test_backward_batch_sets_grad(D):
    # at D=0 no gradient reaches the context encoder or the transition
    cfg = tiny_train_config(D=D, batch_tasks=4)
    model = NeurPhyModel(cfg.model, np.random.default_rng(0))
    backward_batch(model, _tasks(), cfg, np.random.default_rng(1))
    want = [p.grad for _, p in model.parameters()]
    assert any(g is None for g in want) == (D == 0)
    for _, p in model.parameters():
        p.grad = np.full_like(p.value, 7.0)
    backward_batch(model, _tasks(), cfg, np.random.default_rng(1))
    for (_, p), g in zip(model.parameters(), want, strict=True):
        assert (p.grad is None and g is None) or np.array_equal(p.grad, g)


def test_backward_batch_draws_as_the_training_stage(monkeypatch):
    monkeypatch.setitem(training.STAGES, "training",
                        training.Stage(False, "metatest_prefix", 3, "heldout"))
    seen, chunk_elbo = [], training.chunk_elbo

    def spy(model, tasks, ctxs, targets, *rest):
        seen.extend(zip(tasks, ctxs, targets))
        return chunk_elbo(model, tasks, ctxs, targets, *rest)

    monkeypatch.setattr(training, "chunk_elbo", spy)
    cfg = tiny_train_config()
    model = NeurPhyModel(cfg.model, np.random.default_rng(0))
    batch = _tasks(T=40)
    backward_batch(model, batch, cfg, np.random.default_rng(1))
    assert [task.task_id for task, _, _ in seen] == [task.task_id for task in batch]
    rng = np.random.default_rng(1)  # the seeds backward_batch drew, drawn again
    for task, ctx, frames in seen:
        rng.integers(2 ** 31)  # the context seed
        heldout = split_frames(task.length, cfg.D, cfg.target_fraction,
                               int(rng.integers(2 ** 31)))[1]
        draw_noise(rng, frames.size, cfg.D, cfg.model.dim_z)
        assert ctx.n_c == 3 and ctx.indices.max() <= 19
        assert np.array_equal(frames, heldout)


def test_adam_step_releases_the_gradients_it_applied():
    cfg = tiny_train_config(D=2, batch_tasks=4)
    model = NeurPhyModel(cfg.model, np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=cfg.lr)
    backward_batch(model, _tasks(), cfg, np.random.default_rng(1))
    assert all(p.grad is not None for _, p in model.parameters())
    opt.step()
    assert all(p.grad is None for _, p in model.parameters())


@needs_worker
@pytest.mark.parametrize("end", ["returns", "raises", "interrupted"])
def test_worker_is_stopped_however_train_ends(monkeypatch, worker_submits, capfd, end):
    parent, calls = os.getpid(), []

    def fail(tasks):
        calls.append(1)
        if end == "raises" and os.getpid() != parent:
            return NonFiniteError("non-finite output of network decoder")
        if end == "interrupted" and os.getpid() == parent and len(calls) == 5:  # epoch 2
            return KeyboardInterrupt()

    inject(monkeypatch, fail)
    expected = {"returns": None, "raises": NonFiniteError, "interrupted": KeyboardInterrupt}
    cfg = tiny_train_config(epochs=3, batch_tasks=4)
    if expected[end] is None:
        train(_tasks(), cfg)
    else:
        with pytest.raises(expected[end]):
            train(_tasks(), cfg)
    assert worker_submits
    assert multiprocessing.active_children() == []
    assert "Traceback" not in capfd.readouterr().err


def test_eligible_frames_and_target_count():
    assert np.array_equal(eligible_frames(101, 5), np.arange(6, 101))
    assert split_frames(101, 5, 0.9, 0)[0].size == 85
    assert eligible_frames(5, 5).size == 0


def test_metrics_csv_schema(tmp_path):
    history = [LossBreakdown(recon=1.0, kl=[0.1, 0.2], total=1.15),
               LossBreakdown(recon=0.9, kl=[0.1, 0.1], total=1.0)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(history, 2, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,recon,kl1,kl2,total"
    assert len(lines) == 3 and lines[1].startswith("0,1.0,")


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_train_config()
    model = NeurPhyModel(cfg.model, np.random.default_rng(9))
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    checkpoint_save(model, cfg, p1)
    loaded, cfg2 = checkpoint_load(p1)
    for (na, a), (nb, b) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        assert np.array_equal(a.value, b.value)
    assert cfg2 == cfg
    checkpoint_save(loaded, cfg2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncated_is_corrupt(tmp_path):
    cfg = tiny_train_config()
    model = NeurPhyModel(cfg.model, np.random.default_rng(10))
    path = tmp_path / "m.ckpt"
    checkpoint_save(model, cfg, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CorruptCheckpointError):
        checkpoint_load(path)


def test_checkpoint_version_mismatch(tmp_path):
    import struct
    import zlib
    cfg = tiny_train_config()
    model = NeurPhyModel(cfg.model, np.random.default_rng(11))
    path = tmp_path / "m.ckpt"
    checkpoint_save(model, cfg, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatVersionMismatchError):
        checkpoint_load(path)


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    """A checkpoint's body without its CRC, and a path to write edits of it to."""
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    cfg = tiny_train_config()
    checkpoint_save(NeurPhyModel(cfg.model, np.random.default_rng(12)), cfg, path)
    return path.read_bytes()[:-4], path


def load_with_crc(path, body):
    """checkpoint_load of body written to path with a valid CRC."""
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    return checkpoint_load(path)


def with_config(cfg_bytes):
    def edit(body):
        (n,) = struct.unpack_from("<I", body, 8)
        return body[:8] + struct.pack("<I", len(cfg_bytes)) + cfg_bytes + body[12 + n:]
    return edit


def with_n_params(body):
    (n,) = struct.unpack_from("<I", body, 8)
    return body[:12 + n] + struct.pack("<I", 999) + body[16 + n:]


def with_first_shape_swapped(body):
    (n,) = struct.unpack_from("<I", body, 8)
    (name_len,) = struct.unpack_from("<I", body, 16 + n)
    pos = 16 + n + 4 + name_len + 4  # past the name and the rank, 2
    rows, cols = struct.unpack_from("<2I", body, pos)
    assert rows != cols
    return body[:pos] + struct.pack("<2I", cols, rows) + body[pos + 8:]


MALFORMED = {
    "n_params": with_n_params,
    "unknown config key": with_config(json.dumps(
        {**dataclasses.asdict(tiny_train_config()), "bogus": 1}).encode()),
    "config cut mid-UTF-8": with_config('{"D": "\u00e9"}'.encode()[:-3]),
    "invalid config JSON": with_config(b"{not json"),
    "swapped parameter shape": with_first_shape_swapped,
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_checkpoint_malformed_body_is_corrupt(ckpt, edit):
    body, path = ckpt
    with pytest.raises(CorruptCheckpointError):
        load_with_crc(path, edit(bytearray(body)))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_checkpoint_truncated_body_raises_checkpoint_error(ckpt, data):
    body, path = ckpt
    cut = data.draw(st.integers(0, len(body) - 1))
    with pytest.raises(CheckpointError):
        load_with_crc(path, body[:cut])


def test_checkpoint_load_evaluates_identically(tmp_path):
    cfg = tiny_train_config()
    task = pendulum_trajectory(PendulumParams(), 30)
    ctx = select_contexts(task, cfg.n_c, "train_random", seed=0)
    targets, _ = split_frames(task.length, cfg.D, 0.9, seed=0)
    model, _ = train([task], tiny_train_config(epochs=2, batch_tasks=1))
    _, before = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(6))
    path = tmp_path / "m.ckpt"
    checkpoint_save(model, cfg, path)
    loaded, _ = checkpoint_load(path)
    _, after = elbo_loss(loaded, task, ctx, targets, cfg, np.random.default_rng(6))
    assert before.total == after.total


def test_reconstruction_only_overfit_quickly():
    # small version of the reconstruction sanity run: a short task, beta = 0
    cfg = tiny_train_config(D=1, beta=[0.0], epochs=200, batch_tasks=1, n_c=2)
    task = pendulum_trajectory(PendulumParams(), 6)
    model, history = train([task], cfg)
    targets, _ = split_frames(task.length, cfg.D, 0.9, seed=0)
    pairs = np.concatenate([task.observations[targets - 1],
                            task.observations[targets]], axis=1)
    pred = model.decode(model.recognize(pairs).mean).value
    mse = float(np.mean((pred - task.observations[targets]) ** 2))
    assert mse < 1e-2
    assert history[-1].recon < history[0].recon
