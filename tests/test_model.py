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
    assert g.mean.value.shape[-1] == 3
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
        return ad.add(ad.tsum(ad.square(g.mean)), ad.tsum(ad.square(g.std)))

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
        return ad.add(ad.tsum(ad.square(g.mean)), ad.tsum(ad.square(g.std)))

    z = np.random.default_rng(6).normal(size=(2, 2))
    assert grad_check(f, z, eps=1e-5) < 1e-4


def test_decode_pure_and_gradcheck(model):
    z = np.random.default_rng(7).normal(size=(4, 2))
    assert np.array_equal(model.decode(Tensor(z)).value, model.decode(Tensor(z)).value)

    def f(t):
        return ad.tsum(ad.square(model.decode(t)))

    assert grad_check(f, z, eps=1e-5) < 1e-4


def test_rollout_single_step_equals_transition(model):
    pairs = np.random.default_rng(8).normal(size=(2, 4))
    r = np.tile([0.3, 0.2], (2, 1))
    latents = model.mean_chains(pairs, r, [1, 1])
    z = model.recognize(pairs).mean
    assert len(latents) == 2
    assert np.array_equal(latents[0], z.value)
    assert np.array_equal(latents[1], model.transition(z, Tensor(r)).mean.value)


def test_rollout_mean_deterministic(model):
    pairs = np.random.default_rng(9).normal(size=(2, 4))
    r = np.tile([0.3, 0.2], (2, 1))
    l1 = model.mean_chains(pairs, r, [4, 4])
    l2 = model.mean_chains(pairs, r, [4, 4])
    assert len(l1) == len(l2) == 5
    for a, b in zip(l1, l2):
        assert np.array_equal(a, b)


def test_mean_chains_matches_per_chain_loop(model):
    """Each row is its own chain, as a one-row loop rolls it; equal up to the
    rounding that BLAS varies with the row count of a matmul."""
    rng = np.random.default_rng(10)
    depth = [3, 3, 1, 0]
    pairs, r = rng.normal(size=(4, 4)), rng.normal(size=(4, 2))
    latents = model.mean_chains(pairs, r, depth)
    assert [latent.shape[0] for latent in latents] == [4, 3, 2, 2]
    for i, d in enumerate(depth):
        z = model.recognize(pairs[i:i + 1]).mean
        assert np.allclose(latents[0][i], z.value[0], rtol=1e-12, atol=0)
        for k in range(1, d + 1):
            z = model.transition(z, Tensor(r[i:i + 1])).mean
            assert np.allclose(latents[k][i], z.value[0], rtol=1e-12, atol=0), (i, k)


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
    zs = [model.recognize(pair).mean]
    r_c = model.encode_context(ctx)
    for _ in range(50):
        zs.append(model.transition(zs[-1], r_c).mean)
    want = np.stack([model.decode(z).value[0] for z in zs])
    assert np.max(np.abs(pred - want)) <= 1e-12 * np.max(np.abs(want))


def test_full_loss_gradcheck_end_to_end():
    """Flatten all parameters of a tiny model into one vector and finite-diff
    the complete overshooting loss."""
    from conftest import one_task_elbo
    from neurphy.training import TrainConfig, split_frames
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
        total, _ = one_task_elbo(model, task, ctx, targets, cfg,
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
