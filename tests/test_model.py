import numpy as np
import pytest

from neurphy import autodiff as ad
from neurphy.autodiff import Tensor, backward, grad_check
from neurphy.model import (ContextBatch, EmptyContextError, ModelConfig, NeurPhyModel,
                           OutOfRangeError)
from neurphy.physics import ContextSet, PendulumParams, pendulum_trajectory, select_contexts


def tiny_config():
    return ModelConfig(obs_dim=2, dim_z=2, dim_r=2,
                       context_widths=[8, 8], recognition_widths=[8, 8],
                       transition_widths=[8, 8], decoder_widths=[8, 8])


@pytest.fixture
def model():
    return NeurPhyModel(tiny_config(), np.random.default_rng(0))


def _ctx_from_pairs(pairs):
    pairs = np.asarray(pairs, dtype=np.float64)
    return ContextSet(pairs=pairs, indices=np.arange(len(pairs)))


def test_encode_context_single_pair(model):
    pair = np.array([[0.1, -0.2, 0.3, 0.4]])
    r1 = model.encode_context(_ctx_from_pairs(pair))
    code = model.context_encoder(Tensor(pair)).value
    assert np.array_equal(r1.value, code)


def test_encode_context_permutation_invariant_bit_exact(model):
    rng = np.random.default_rng(1)
    pairs = rng.normal(size=(20, 4))
    r1 = model.encode_context(_ctx_from_pairs(pairs))
    r2 = model.encode_context(_ctx_from_pairs(pairs[::-1]))
    r3 = model.encode_context(_ctx_from_pairs(pairs[rng.permutation(20)]))
    assert np.array_equal(r1.value, r2.value)
    assert np.array_equal(r1.value, r3.value)


def test_encode_context_duplicate_pair(model):
    pair = np.array([[0.5, 0.5, -0.1, 0.2]])
    r1 = model.encode_context(_ctx_from_pairs(pair))
    r2 = model.encode_context(_ctx_from_pairs(np.repeat(pair, 2, axis=0)))
    assert np.array_equal(r1.value, r2.value)


def test_encode_context_empty_raises(model):
    with pytest.raises(EmptyContextError):
        model.encode_context(_ctx_from_pairs(np.zeros((0, 4))))


def test_encode_context_batch_rows_match_single_sets(model):
    rng = np.random.default_rng(3)
    sets = [rng.normal(size=(n, 4)) for n in (5, 1, 7)]
    sets[2][3] = sets[2][0]  # a duplicated pair
    batch = model.encode_context(ContextBatch.of([_ctx_from_pairs(p) for p in sets]))
    assert batch.value.shape == (3, 2)
    for row, pairs in zip(batch.value, sets):
        single = model.encode_context(_ctx_from_pairs(pairs)).value
        assert np.max(np.abs(row - single)) <= 1e-15 * np.max(np.abs(single))
    shuffled = [sets[0][::-1], sets[1], np.concatenate([sets[2], sets[2]])]
    again = model.encode_context(ContextBatch.of([_ctx_from_pairs(p) for p in shuffled]))
    assert np.array_equal(batch.value, again.value)
    with pytest.raises(EmptyContextError):
        model.encode_context(ContextBatch.of([_ctx_from_pairs(sets[0]),
                                              _ctx_from_pairs(np.zeros((0, 4)))]))


def test_recognize_output_contract(model):
    g = model.recognize(np.random.default_rng(2).normal(size=(5, 4)))
    assert g.mean.value.shape == (5, 2)
    assert np.all(g.std.value >= 1e-3)


def test_recognize_default_dims_match_protocol():
    m = NeurPhyModel(ModelConfig(), np.random.default_rng(3))
    g = m.recognize(np.zeros((1, 4)))
    assert g.dim == 3
    assert m.decode(g.mean).value.shape == (1, 2)


def test_recognize_depends_only_on_its_two_frames(model):
    task = pendulum_trajectory(PendulumParams(), 20)
    t = 10
    pair = np.concatenate([task.observations[t - 1], task.observations[t]])[None, :]
    g1 = model.recognize(pair).mean.value
    # perturbing any other frame leaves the recognition output untouched
    task.observations[3] += 100.0
    task.observations[17] -= 5.0
    pair2 = np.concatenate([task.observations[t - 1], task.observations[t]])[None, :]
    g2 = model.recognize(pair2).mean.value
    assert np.array_equal(g1, g2)


def test_recognize_gradcheck(model):
    def f(t):
        g = model.recognition_head(model.recognition_mlp(t))
        return ad.tsum(ad.square(g.mean)) + ad.tsum(ad.square(g.std))

    x = np.random.default_rng(4).normal(size=(2, 4))
    assert grad_check(f, x, eps=1e-5) < 1e-4


def test_transition_deterministic_and_floored(model):
    z = Tensor(np.random.default_rng(5).normal(size=(3, 2)))
    r = Tensor(np.tile([0.1, -0.4], (3, 1)))
    g1 = model.transition(z, r)
    g2 = model.transition(z, r)
    assert np.array_equal(g1.mean.value, g2.mean.value)
    assert np.all(g1.std.value >= 1e-3)


def test_transition_gradcheck_wrt_z(model):
    r = Tensor(np.tile([0.1, -0.4], (2, 1)))

    def f(t):
        g = model.transition(t, r)
        return ad.tsum(ad.square(g.mean)) + ad.tsum(ad.square(g.std))

    z = np.random.default_rng(6).normal(size=(2, 2))
    assert grad_check(f, z, eps=1e-5) < 1e-4


def test_decode_pure_and_gradcheck(model):
    z = np.random.default_rng(7).normal(size=(4, 2))
    assert np.array_equal(model.decode(Tensor(z)).value, model.decode(Tensor(z)).value)

    def f(t):
        return ad.tsum(ad.square(model.decode(t)))

    assert grad_check(f, z, eps=1e-5) < 1e-4


def test_rollout_single_step_equals_transition(model):
    z = Tensor(np.random.default_rng(8).normal(size=(2, 2)))
    r = Tensor(np.tile([0.3, 0.2], (2, 1)))
    dists, z_next = model.rollout(z, r, 1, mode="mean")
    direct = model.transition(z, r)
    assert len(dists) == 1
    assert np.array_equal(dists[0].mean.value, direct.mean.value)
    assert np.array_equal(z_next.value, direct.mean.value)


def test_rollout_mean_deterministic(model):
    z = Tensor(np.random.default_rng(9).normal(size=(2, 2)))
    r = Tensor(np.tile([0.3, 0.2], (2, 1)))
    d1, _ = model.rollout(z, r, 4, mode="mean")
    d2, _ = model.rollout(z, r, 4, mode="mean")
    for a, b in zip(d1, d2):
        assert np.array_equal(a.mean.value, b.mean.value)


def test_rollout_sample_reproducible_with_seed(model):
    z = Tensor(np.random.default_rng(10).normal(size=(2, 2)))
    r = Tensor(np.tile([0.3, 0.2], (2, 1)))
    d1, _ = model.rollout(z, r, 3, mode="sample", rng=np.random.default_rng(42))
    d2, _ = model.rollout(z, r, 3, mode="sample", rng=np.random.default_rng(42))
    for a, b in zip(d1, d2):
        assert np.array_equal(a.mean.value, b.mean.value)


def test_predict_observations_lengths(model):
    task = pendulum_trajectory(PendulumParams(), 60)
    ctx = select_contexts(task, 5, "train_random", seed=0)
    assert model.predict_observations(task, ctx, 5, 0).shape == (1, 2)
    assert model.predict_observations(task, ctx, 5, 50).shape == (51, 2)
    with pytest.raises(OutOfRangeError):
        model.predict_observations(task, ctx, 0, 5)
    with pytest.raises(OutOfRangeError):
        model.predict_observations(task, ctx, 30, 50)
    with pytest.raises(OutOfRangeError):
        model.predict_observations(task, ctx, 10, -5)


def test_predict_observations_matches_per_latent_decode(model):
    task = pendulum_trajectory(PendulumParams(), 60)
    ctx = select_contexts(task, 5, "train_random", seed=0)
    pred = model.predict_observations(task, ctx, 5, 50)
    pair = np.concatenate([task.observations[4], task.observations[5]])[None, :]
    z = model.recognize(pair).mean
    dists, _ = model.rollout(z, model.encode_context(ctx), 50, mode="mean")
    want = np.stack([model.decode(t).value[0] for t in [z] + [d.mean for d in dists]])
    assert np.max(np.abs(pred - want)) <= 1e-12 * np.max(np.abs(want))


def test_full_loss_gradcheck_end_to_end():
    """Flatten all parameters of a tiny model into one vector and finite-diff
    the complete overshooting loss."""
    from neurphy.training import TrainConfig, elbo_loss, split_frames
    from neurphy.physics import select_contexts

    cfg = TrainConfig(D=2, model=tiny_config())
    task = pendulum_trajectory(PendulumParams(), 8)
    ctx = select_contexts(task, 3, "train_random", seed=1)
    targets, _ = split_frames(task.length, cfg.D, 0.6, seed=2)
    model = NeurPhyModel(cfg.model, np.random.default_rng(11))
    params = model.parameters()
    sizes = [p.value.size for _, p in params]
    shapes = [p.value.shape for _, p in params]
    x0 = np.concatenate([p.value.ravel() for _, p in params])

    def loss_at(vec):
        lo = 0
        for (_, p), size, shape in zip(params, sizes, shapes):
            p.value = vec[lo:lo + size].reshape(shape)
            lo += size
        total, _ = elbo_loss(model, task, ctx, targets, cfg,
                             np.random.default_rng(99))
        return total

    for _, p in params:
        p.grad = None
    backward(loss_at(x0))
    analytic = np.concatenate([p.grad.ravel() for _, p in params])

    rng = np.random.default_rng(12)
    idx = rng.choice(x0.size, size=40, replace=False)
    eps = 1e-5
    for i in idx:
        xp, xm = x0.copy(), x0.copy()
        xp[i] += eps
        xm[i] -= eps
        fp = float(loss_at(xp).value)
        fm = float(loss_at(xm).value)
        num = (fp - fm) / (2 * eps)
        denom = max(abs(num), abs(analytic[i]), 1e-8)
        assert abs(num - analytic[i]) / denom < 1e-3, f"param index {i}"
    loss_at(x0)  # restore
