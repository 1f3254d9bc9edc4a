"""The batched overshoot schedule of elbo_loss, the chunked minibatch step of
training, and the task-batched evaluation readouts, against the
per-overshoot and per-task loops they replace, kept here as references."""

import numpy as np
import pytest

from conftest import one_task_elbo, serial_worker
from neurphy import autodiff as ad
from neurphy import evaluation, training
from neurphy.artifacts import write_csv
from neurphy.evaluation import EvalStage, export_manifold, global_r2_table, kl_report, rollout_mse
from neurphy.model import ModelConfig, NeurPhyModel
from neurphy.nn import gaussian_obs_nll, kl_diag_gauss, reparameterize
from neurphy.physics import PendulumGridConfig, generate_task_grid, select_contexts
from neurphy.training import STAGES, TrainConfig, backward_batch, split_frames

RTOL = 1e-12


def loop_elbo_loss(model, task, ctx, targets, cfg, rng):
    """Reference: one recognize per overshoot d and d transitions per chain."""
    targets = np.asarray(targets)
    obs = task.observations
    r_c = ad.take_rows(model.encode_context(ctx), np.zeros(targets.size, dtype=int))

    q_now = model.recognize(np.concatenate([obs[targets - 1], obs[targets]], axis=1))
    z_now = reparameterize(q_now, rng.standard_normal(q_now.mean.value.shape))
    recon = ad.tmean(gaussian_obs_nll(obs[targets], model.decode(z_now), cfg.sigma_obs))

    kl_terms = []
    for d in range(1, cfg.D + 1):
        q_back = model.recognize(
            np.concatenate([obs[targets - d - 1], obs[targets - d]], axis=1))
        z = reparameterize(q_back, rng.standard_normal(q_back.mean.value.shape))
        for _ in range(d - 1):
            dist = model.transition(z, r_c)
            z = reparameterize(dist, rng.standard_normal(dist.mean.value.shape))
        prior = model.transition(z, r_c)
        kl_terms.append(ad.tmean(kl_diag_gauss(q_now, prior)))

    total = recon
    for d, kl_d in enumerate(kl_terms):
        total = ad.add(total, ad.scale(kl_d, cfg.beta[d] / cfg.D))
    return total, float(recon.value), [float(k.value) for k in kl_terms]


def loop_backward_batch(model, batch, cfg, rng):
    """Reference: the per-task training loop, one one-task ELBO and one
    backward per task."""
    breakdowns = []
    for task in batch:
        ctx_seed = int(rng.integers(2 ** 31))
        frame_seed = int(rng.integers(2 ** 31))
        ctx = select_contexts(task, cfg.n_c, "train_random", ctx_seed)
        targets, _ = split_frames(task.length, cfg.D, cfg.target_fraction, frame_seed)
        total, br = one_task_elbo(model, task, ctx, targets, cfg, rng)
        ad.backward(ad.scale(total, 1.0 / len(batch)))
        breakdowns.append(br)
    return breakdowns


def stage_draw(task, stage, cfg, seed):
    """The task's (context set, frames) in the stage, as eval draws them."""
    return STAGES[stage].draw(task, cfg, seed + task.task_id, seed + task.task_id)


def loop_rollout_mse(model, tasks, stage, cfg, seed=0):
    """Reference: re-recognize and re-roll the mean for every distance d."""
    D = cfg.D
    sq_sums = np.zeros(D + 1)
    counts = np.zeros(D + 1)
    for task in tasks:
        ctx, frames = stage_draw(task, stage, cfg, seed)
        if frames.size == 0:
            continue
        r_c = ad.take_rows(model.encode_context(ctx), np.zeros(frames.size, dtype=int))
        obs = task.observations
        for d in range(D + 1):
            pairs = np.concatenate([obs[frames - d - 1], obs[frames - d]], axis=1)
            z = model.recognize(pairs).mean
            for _ in range(d):
                z = model.transition(z, r_c).mean
            pred = model.decode(z).value
            sq_sums[d] += float(np.sum((pred - obs[frames]) ** 2))
            counts[d] += pred.size
    return list(sq_sums / counts)


def loop_kl_report(model, tasks, stage, cfg, seed=0):
    """Reference: one one-task ELBO per task, each drawing from its own
    generator."""
    kls = []
    for task in tasks:
        ctx, frames = stage_draw(task, stage, cfg, seed)
        if frames.size == 0:
            continue
        _, br = one_task_elbo(model, task, ctx, frames, cfg,
                              np.random.default_rng([seed, task.task_id]))
        kls.append(br.kl)
    return list(np.mean(np.asarray(kls), axis=0))


def loop_r2_features(model, tasks, cfg, seed, stage):
    """Reference: one encode_context call per task."""
    return np.concatenate([model.encode_context(stage_draw(task, stage, cfg, seed)[0]).value
                           for task in tasks])


def loop_export_manifold(model, tasks, global_path, state_path, cfg, seed, stage):
    """Reference: one encode_context and one recognize call per task."""
    keys = list(tasks[0].globals.keys())
    r_cs, zs = [], []
    for task in tasks:
        r_cs.append(model.encode_context(stage_draw(task, stage, cfg, seed)[0]).value[0])
        obs = task.observations
        zs.append(model.recognize(np.concatenate([obs[:-1], obs[1:]], axis=1)).mean.value)
    write_csv(global_path, [f"r_c_{i}" for i in range(model.cfg.dim_r)] + keys,
              ([*r_c, *(task.globals[k] for k in keys)] for r_c, task in zip(r_cs, tasks)))
    write_csv(state_path, ["task_id"] + [f"z_{i}" for i in range(model.cfg.dim_z)]
              + [f"state_{i}" for i in range(tasks[0].states.shape[1])],
              ([task.task_id, *z[t - 1], *task.states[t]]
               for task, z in zip(tasks, zs) for t in range(1, task.length)))


def csv_numbers(path):
    with open(path) as f:
        header, *rows = f.read().split()
    return header, np.array([[float(v) for v in row.split(",")] for row in rows])


def close(a, b):
    """Equal to within RTOL of the larger magnitude of the two arrays."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.max(np.abs(a - b), initial=0.0) <= RTOL * max(np.max(np.abs(a), initial=0.0),
                                                             np.max(np.abs(b), initial=0.0))


@pytest.fixture(scope="module")
def tasks():
    grid, _ = generate_task_grid(PendulumGridConfig(l_count=3, m_count=3, T=41))
    return grid


def grads(model):
    """Each parameter's gradient; None for one that no graph reached (the
    transition network's and the context encoder's at D=0)."""
    return {name: None if p.grad is None else p.grad.copy() for name, p in model.parameters()}


def same_grads(got, want):
    assert got.keys() == want.keys()
    for name in want:
        if want[name] is None:
            assert got[name] is None, name
        else:
            assert got[name] is not None and close(got[name], want[name]), name


@pytest.mark.parametrize("D", [0, 1, 2, 5])
def test_elbo_loss_matches_loop(tasks, D):
    cfg = TrainConfig(D=D, beta=[0.5 + 0.25 * d for d in range(D)],
                      model=ModelConfig(dim_z=3, dim_r=3))
    model = NeurPhyModel(cfg.model, np.random.default_rng(D))
    task = tasks[4]
    ctx = select_contexts(task, cfg.n_c, "train_random", 7)
    targets, _ = split_frames(task.length, D, cfg.target_fraction, 11)

    total, recon, kls = loop_elbo_loss(model, task, ctx, targets, cfg,
                                       np.random.default_rng(3))
    ad.backward(total)
    want = grads(model)
    for _, p in model.parameters():
        p.grad = None
    total_b, br = one_task_elbo(model, task, ctx, targets, cfg, np.random.default_rng(3))
    ad.backward(total_b)
    got = grads(model)

    assert close(br.recon, recon)
    assert len(br.kl) == D
    for k_got, k_want in zip(br.kl, kls):
        assert close(k_got, k_want)
    assert close(br.total, float(total.value))
    assert close(total_b.value, total.value)
    same_grads(got, want)


@pytest.mark.parametrize("cap", [None, 1])  # None: the default CHUNK_ROWS
@pytest.mark.parametrize("D", [0, 1, 3])
def test_backward_batch_matches_task_loop(tasks, D, cap, monkeypatch):
    cfg = TrainConfig(D=D, beta=[0.5 + 0.25 * d for d in range(D)], n_c=5,
                      target_fraction=0.8, model=ModelConfig(dim_z=3, dim_r=3))
    model = NeurPhyModel(cfg.model, np.random.default_rng(D))
    batch = [tasks[i] for i in (4, 0, 7, 2, 8, 5)]

    want_rng = np.random.default_rng(9)
    want_br = loop_backward_batch(model, batch, cfg, want_rng)
    want = grads(model)
    for _, p in model.parameters():
        p.grad = None
    if cap is not None:
        monkeypatch.setattr(training, "CHUNK_ROWS", cap)
    backwards = []
    backward = ad.backward
    monkeypatch.setattr(ad, "backward", lambda root: backwards.append(backward(root)))
    got_rng = np.random.default_rng(9)
    got_br = backward_batch(model, batch, cfg, got_rng, serial_worker(model, cfg))
    got = grads(model)

    # the default cap takes the whole batch as one graph, a cap of 1 one task each
    assert len(backwards) == (1 if cap is None else len(batch))
    assert got_rng.integers(2 ** 31) == want_rng.integers(2 ** 31)  # same draws
    assert len(got_br) == len(want_br)
    for g, w in zip(got_br, want_br):
        assert len(g.kl) == D
        assert close(g.recon, w.recon) and close(g.kl, w.kl) and close(g.total, w.total)
    same_grads(got, want)


@pytest.mark.parametrize("stage", sorted(STAGES))
@pytest.mark.parametrize("D", [0, 1, 3])
def test_rollout_mse_matches_loop(tasks, stage, D):
    model, n_c = stage_model(stage)
    cfg = TrainConfig(D=D, n_c=n_c, target_fraction=0.8, model=model.cfg)
    table = rollout_mse(model, EvalStage.draw(model, tasks, stage, cfg, 4))
    want = loop_rollout_mse(model, tasks, stage, cfg, seed=4)
    assert len(table.mse) == D + 1
    assert close(table.mse, want)


def untrimmed_rollout_mse(model, s):
    """Reference: each task's start frames recognized once and every one
    rolled all D steps."""
    D = s.cfg.D
    sq_sums, count = np.zeros(D + 1), 0
    for task, frames, r_c in zip(s.tasks, s.frames, s.r_c):
        obs = task.observations
        starts = np.unique(frames[None, :] - np.arange(D + 1)[:, None])
        z = model.recognize(np.concatenate([obs[starts - 1], obs[starts]], axis=1)).mean
        latents = [z.value]
        for _ in range(D):
            z = model.transition(z, ad.Tensor(np.tile(r_c, (starts.size, 1)))).mean
            latents.append(z.value)
        for d, latent in enumerate(latents):
            pred = model.decode(ad.Tensor(latent[np.searchsorted(starts, frames - d)])).value
            sq_sums[d] += np.sum((pred - obs[frames]) ** 2)
        count += obs[frames].size
    return sq_sums / count


def test_rollout_mse_rolls_each_start_only_as_far_as_scored(tasks, monkeypatch):
    model, n_c = stage_model("test")
    cfg = TrainConfig(D=3, n_c=n_c, target_fraction=0.8, model=model.cfg)
    s = EvalStage.draw(model, tasks, "test", cfg, 4)
    want = untrimmed_rollout_mse(model, s)
    # a start's depth is the largest distance d at which start + d is scored
    needed = untrimmed = 0
    for frames in s.frames:
        scored = set(frames.tolist())
        starts = {t - d for t in scored for d in range(cfg.D + 1)}
        needed += sum(max(d for d in range(cfg.D + 1) if start + d in scored)
                      for start in starts)
        untrimmed += cfg.D * len(starts)
    rows = []
    transition = model.transition
    monkeypatch.setattr(model, "transition",
                        lambda z, r_c: rows.append(z.value.shape[0]) or transition(z, r_c))
    got = rollout_mse(model, s).mse
    assert sum(rows) == needed < untrimmed
    assert close(got, want)


def stage_model(stage):
    model = NeurPhyModel(ModelConfig(dim_z=3, dim_r=3), np.random.default_rng(2))
    return model, 2 if stage == "metatest2" else 5


@pytest.mark.parametrize("stage", sorted(STAGES))
@pytest.mark.parametrize("D", [0, 1, 3])
def test_kl_report_matches_loop(tasks, stage, D):
    model, n_c = stage_model(stage)
    cfg = TrainConfig(D=D, n_c=n_c, target_fraction=0.8, model=model.cfg)
    got = kl_report(model, EvalStage.draw(model, tasks, stage, cfg, 4))
    want = loop_kl_report(model, tasks, stage, cfg, seed=4)
    assert len(got) == D
    assert close(got, want)


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_kl_report_is_the_mean_of_its_one_task_stages(tasks, stage):
    model, n_c = stage_model(stage)
    cfg = TrainConfig(D=3, n_c=n_c, target_fraction=0.8, model=model.cfg)
    s = EvalStage.draw(model, tasks, stage, cfg, 4)
    # a task's KL does not depend on the tasks drawn before it
    one_task = [kl_report(model, EvalStage(s.name, s.cfg, s.seed, [task], [frames],
                                           s.r_c[i:i + 1]))
                for i, (task, frames) in enumerate(zip(s.tasks, s.frames)) if frames.size]
    assert len(one_task) > 1
    np.testing.assert_allclose(kl_report(model, s), np.mean(one_task, axis=0), rtol=1e-9)


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_global_r2_features_match_loop(tasks, stage, monkeypatch):
    model, n_c = stage_model(stage)
    seen = []

    def spy(features, target, degree, name=""):
        seen.append(np.array(features))
        return fit_poly_r2(features, target, degree, name)

    fit_poly_r2 = evaluation.fit_poly_r2
    monkeypatch.setattr(evaluation, "fit_poly_r2", spy)
    cfg = TrainConfig(n_c=n_c, model=model.cfg)
    assert global_r2_table(EvalStage.draw(model, tasks, stage, cfg, 4))
    want = loop_r2_features(model, tasks, cfg, 4, stage)
    assert seen and all(close(features, want) for features in seen)


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_export_manifold_matches_loop(tasks, stage, tmp_path):
    model, n_c = stage_model(stage)
    got = [tmp_path / "g.csv", tmp_path / "s.csv"]
    want = [tmp_path / "g_loop.csv", tmp_path / "s_loop.csv"]
    cfg = TrainConfig(n_c=n_c, model=model.cfg)
    export_manifold(model, EvalStage.draw(model, tasks, stage, cfg, 4), *got)
    loop_export_manifold(model, tasks, *want, cfg=cfg, seed=4, stage=stage)
    for g, w in zip(got, want):
        (g_header, g_rows), (w_header, w_rows) = csv_numbers(g), csv_numbers(w)
        assert g_header == w_header and g_rows.shape == w_rows.shape
        assert close(g_rows, w_rows)


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_chunk_boundaries_do_not_change_readouts(tasks, stage, tmp_path, monkeypatch):
    model, n_c = stage_model(stage)
    cfg = TrainConfig(D=3, n_c=n_c, target_fraction=0.8, model=model.cfg)

    def readouts(tag):
        paths = [tmp_path / f"g{tag}.csv", tmp_path / f"s{tag}.csv"]
        s = EvalStage.draw(model, tasks, stage, cfg, 4)  # under the cap of the call
        export_manifold(model, s, *paths)
        return (rollout_mse(model, s).mse, kl_report(model, s),
                [r.r2 for r in global_r2_table(s)], *(csv_numbers(p)[1] for p in paths))

    encoded = []  # tasks per context-encoder call, one call per chunk
    encode = model.encode_context
    monkeypatch.setattr(model, "encode_context",
                        lambda batch: encoded.append(len(batch.sizes)) or encode(batch))
    default = readouts("default")
    calls = len(encoded)
    monkeypatch.setattr(training, "CHUNK_ROWS", 1)  # one task per chunk
    for got, want in zip(readouts("one"), default):
        assert close(got, want)
    assert max(encoded[calls:]) == 1 and len(encoded) - calls > calls
