import dataclasses
import json
import os
import struct
import subprocess
import sys
import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neurphy
from neurphy import training
from neurphy.model import ModelConfig, NeurPhyModel
from neurphy.physics import (DegenerateSplitError, PendulumParams,
                             pendulum_trajectory, select_contexts)
from neurphy.training import (CheckpointError, CorruptCheckpointError, FormatVersionMismatchError,
                              LossBreakdown, TrainConfig, checkpoint_load,
                              checkpoint_save, draw_noise, elbo_loss, eligible_frames,
                              keep_freed_heap, split_frames, target_count, train,
                              write_metrics_csv)


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


def test_eligible_frames_and_target_count():
    assert np.array_equal(eligible_frames(101, 5), np.arange(6, 101))
    assert target_count(101, 5, 0.9) == 85
    assert eligible_frames(5, 5).size == 0 and target_count(5, 5, 0.9) == 1


def test_metrics_csv_schema(tmp_path):
    history = [LossBreakdown(recon=1.0, kl=[0.1, 0.2], total=1.15),
               LossBreakdown(recon=0.9, kl=[0.1, 0.1], total=1.0)]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(history, 2, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,recon,kl1,kl2,total"
    assert len(lines) == 3 and lines[1].startswith("0,1,")


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
