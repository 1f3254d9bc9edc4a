"""The batched overshoot schedule of elbo_loss and the shared mean chains of
rollout_mse against the per-overshoot loops they replace, kept here as
references."""

import numpy as np
import pytest

from neurphy import autodiff as ad
from neurphy.evaluation import STAGES, context_for_stage, rollout_mse, stage_frames
from neurphy.model import ModelConfig, NeurPhyModel
from neurphy.nn import gaussian_obs_nll, kl_diag_gauss, reparameterize
from neurphy.physics import PendulumGridConfig, generate_task_grid, select_contexts
from neurphy.training import TrainConfig, elbo_loss, split_frames

RTOL = 1e-12


def loop_elbo_loss(model, task, ctx, targets, cfg, rng):
    """Reference: one recognize per overshoot d and d transitions per chain."""
    targets = np.asarray(targets)
    obs = task.observations
    r_c = model.encode_context(ctx)

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


def loop_rollout_mse(model, tasks, stage, D, n_c=20, fraction=0.9, seed=0):
    """Reference: re-recognize and re-roll the mean for every distance d."""
    sq_sums = np.zeros(D + 1)
    counts = np.zeros(D + 1)
    for task in tasks:
        frames = stage_frames(task, stage, D, fraction, seed)
        if frames.size == 0:
            continue
        ctx = context_for_stage(task, stage, n_c, seed)
        r_c = model.encode_context(ctx)
        obs = task.observations
        for d in range(D + 1):
            pairs = np.concatenate([obs[frames - d - 1], obs[frames - d]], axis=1)
            z = model.recognize(pairs).mean
            if d >= 1:
                _, z = model.rollout(z, r_c, d, mode="mean")
            pred = model.decode(z).value
            sq_sums[d] += float(np.sum((pred - obs[frames]) ** 2))
            counts[d] += pred.size
    return list(sq_sums / counts)


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
    return {name: p.grad.copy() for name, p in model.parameters()}


@pytest.mark.parametrize("D", [1, 2, 5])
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
    total_b, br = elbo_loss(model, task, ctx, targets, cfg, np.random.default_rng(3))
    ad.backward(total_b)
    got = grads(model)

    assert close(br.recon, recon)
    assert len(br.kl) == D
    for k_got, k_want in zip(br.kl, kls):
        assert close(k_got, k_want)
    assert close(br.total, float(total.value))
    assert close(total_b.value, total.value)
    assert want.keys() == got.keys()
    for name in want:
        assert close(got[name], want[name]), name


@pytest.mark.parametrize("stage", sorted(STAGES))
@pytest.mark.parametrize("D", [0, 3])
def test_rollout_mse_matches_loop(tasks, stage, D):
    model = NeurPhyModel(ModelConfig(dim_z=3, dim_r=3), np.random.default_rng(2))
    n_c = 2 if stage == "metatest2" else 5
    table = rollout_mse(model, tasks, stage, D, n_c=n_c, fraction=0.8, seed=4)
    want = loop_rollout_mse(model, tasks, stage, D, n_c=n_c, fraction=0.8, seed=4)
    assert len(table.mse) == D + 1
    assert close(table.mse, want)
