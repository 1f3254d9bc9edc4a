import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_task_elbo
from neurphy import autodiff as ad
from neurphy.autodiff import NonFiniteError, Tensor, backward, grad_check
from neurphy.model import ModelConfig, NeurPhyModel
from neurphy.nn import (STD_FLOOR, Adam, DenseLayer, DiagGaussian, GaussianHead,
                        MLP, gaussian_obs_nll, kl_diag_gauss, reparameterize,
                        uniform_init)
from neurphy.physics import PendulumParams, pendulum_trajectory, select_contexts
from neurphy.training import TrainConfig, split_frames


def _rng(seed=0):
    return np.random.default_rng(seed)


# The Gaussian ops composed from autodiff primitives, as references for the
# fused one-node ops of nn.


def _reparameterize_ref(g, noise):
    return ad.add(g.mean, ad.mul(g.std, Tensor(noise)))


def _kl_diag_gauss_ref(q, p):
    var_ratio = ad.div(
        ad.add(ad.square(q.std), ad.square(ad.sub(q.mean, p.mean))),
        ad.scale(ad.square(p.std), 2.0),
    )
    per_dim = ad.add(ad.sub(ad.log(p.std), ad.log(q.std)), ad.add(var_ratio, -0.5))
    return ad.tsum(per_dim, axis=-1)


def _gaussian_obs_nll_ref(x, mean, sigma_obs):
    dims = x.shape[-1]
    sq = ad.tsum(ad.square(ad.sub(mean, Tensor(x))), axis=-1)
    const = dims * (np.log(sigma_obs) + 0.5 * np.log(2.0 * np.pi))
    return ad.add(ad.scale(sq, 1.0 / (2.0 * sigma_obs ** 2)), const)


def _gaussian_head_ref(head, features):
    h = head.inner(features)
    std = ad.add(ad.softplus(ad.slice_last(h, head.dim_z, 2 * head.dim_z)), STD_FLOOR)
    return DiagGaussian(ad.slice_last(h, 0, head.dim_z), std)


def _flat(g):
    return ad.concat([g.mean, g.std])


_NOISE = _rng(20).normal(size=(4, 3))
_OBS = _rng(21).normal(size=(4, 2))
_HEAD = GaussianHead(5, 3, _rng(22), "t")
_MEANS = _rng(23).normal(size=(2, 4, 3))
_STDS = _rng(24).uniform(0.05, 2.0, size=(2, 4, 3))

# fused op -> (fused(*tensors), reference(*tensors), input arrays)
FUSED = {
    "reparameterize": (
        lambda m, s: reparameterize(DiagGaussian(m, s), _NOISE),
        lambda m, s: _reparameterize_ref(DiagGaussian(m, s), _NOISE),
        [_MEANS[0], _STDS[0]]),
    "kl_diag_gauss": (
        lambda qm, qs, pm, ps: kl_diag_gauss(DiagGaussian(qm, qs), DiagGaussian(pm, ps)),
        lambda qm, qs, pm, ps: _kl_diag_gauss_ref(DiagGaussian(qm, qs),
                                                  DiagGaussian(pm, ps)),
        [_MEANS[0], _STDS[0], _MEANS[1], _STDS[1]]),
    "gaussian_obs_nll": (
        lambda m: gaussian_obs_nll(_OBS, m, 0.3),
        lambda m: _gaussian_obs_nll_ref(_OBS, m, 0.3),
        [_MEANS[0][:, :2]]),
    "gaussian_head": (
        lambda f: _flat(_HEAD(f)),
        lambda f: _flat(_gaussian_head_ref(_HEAD, f)),
        [_rng(25).normal(size=(4, 5))]),
}


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_matches_composition(name):
    fused, reference, inputs = FUSED[name]
    weights = Tensor(_rng(26).normal(size=reference(*map(Tensor, inputs)).shape))

    def loss(out):
        return ad.tsum(ad.mul(out, weights))

    for i, x in enumerate(inputs):
        def f(t, i=i):
            return loss(fused(*[t if j == i else Tensor(a) for j, a in enumerate(inputs)]))
        assert grad_check(f, x) < 1e-4

    fused_in, ref_in = [Tensor(a) for a in inputs], [Tensor(a) for a in inputs]
    out_f, out_r = fused(*fused_in), reference(*ref_in)
    assert np.array_equal(out_f.value, out_r.value)
    backward(loss(out_f))
    backward(loss(out_r))
    for f, r in zip(fused_in, ref_in):
        assert np.max(np.abs(f.grad - r.grad)) <= 1e-12 * np.max(np.abs(r.grad))


@pytest.mark.parametrize("D,most", [(5, 160), (1, 85)])
def test_elbo_graph_node_count(D, most):
    cfg = TrainConfig(D=D)
    model = NeurPhyModel(ModelConfig(), _rng(27))
    task = pendulum_trajectory(PendulumParams(), 30)
    ctx = select_contexts(task, cfg.n_c, "train_random", 1)
    targets = split_frames(task.length, D, cfg.target_fraction, 2)[0]
    total, _ = one_task_elbo(model, task, ctx, targets, cfg, _rng(28))
    assert len(ad._toposort(total)) <= most


def test_mlp_hidden_overflow_raises_at_output():
    mlp = MLP(2, [3], 2, _rng(29), "net")
    mlp.layers[0].w.value = np.full((2, 3), 1e300)
    x = Tensor(np.full((4, 2), 1e10))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(mlp.layers[0](x).value))  # the layer does not check
        with pytest.raises(NonFiniteError, match="^non-finite output of network net$"):
            mlp(x)


def test_mlp_zero_weights_zero_output():
    mlp = MLP(3, [4], 2, _rng(), "t")
    for _, p in mlp.parameters():
        p.value = np.zeros_like(p.value)
    out = mlp(Tensor(np.ones((5, 3))))
    assert np.array_equal(out.value, np.zeros((5, 2)))


def test_dense_layer_rejects_an_activation_the_model_does_not_use():
    with pytest.raises(ValueError, match="^unknown activation 'tanh'$"):
        DenseLayer(3, 3, "tanh", _rng(), "t")


def test_identity_layer_passthrough():
    layer = DenseLayer(3, 3, "identity", _rng(), "t")
    layer.w.value = np.eye(3)
    layer.b.value = np.zeros(3)
    x = _rng(1).normal(size=(4, 3))
    assert np.array_equal(layer(Tensor(x)).value, x)


def test_mlp_gradcheck():
    mlp = MLP(3, [8], 1, _rng(2), "t")

    def f(t):
        return ad.tsum(mlp(t))

    x = _rng(3).normal(size=(2, 3))
    assert grad_check(f, x, eps=1e-5) < 1e-4


def test_gaussian_head_softplus_floor():
    head = GaussianHead(4, 3, _rng(4), "t")
    head.inner.w.value = np.zeros_like(head.inner.w.value)
    head.inner.b.value = np.zeros_like(head.inner.b.value)
    g = head(Tensor(np.ones((2, 4))))
    assert g.mean.value.shape[-1] == 3
    assert np.allclose(g.std.value, np.log(2.0) + STD_FLOOR, atol=1e-12)
    assert np.array_equal(g.mean.value, np.zeros((2, 3)))


def test_gaussian_head_std_positive():
    head = GaussianHead(4, 3, _rng(5), "t")
    for seed in range(10):
        g = head(Tensor(_rng(seed).normal(size=(6, 4)) * 10.0))
        assert np.all(g.std.value >= STD_FLOOR)


def test_reparameterize_zero_noise_gives_mean():
    g = DiagGaussian(Tensor([1.0, -2.0]), Tensor([0.5, 0.5]))
    s = reparameterize(g, np.zeros(2))
    assert np.array_equal(s.value, [1.0, -2.0])


def test_reparameterize_floor_std_unit_noise():
    g = DiagGaussian(Tensor([1.0]), Tensor([STD_FLOOR]))
    s = reparameterize(g, np.ones(1))
    assert abs(float(s.value[0]) - (1.0 + STD_FLOOR)) < 1e-15


def test_reparameterize_grad_wrt_mean_is_identity():
    noise = _rng(6).normal(size=3)

    def f(t):
        g = DiagGaussian(t, Tensor([0.7, 0.7, 0.7]))
        return ad.tsum(reparameterize(g, noise))

    x = _rng(7).normal(size=3)
    leaf = Tensor(x)
    backward(f(leaf))
    assert np.array_equal(leaf.grad, np.ones(3))


def test_reparameterize_grad_matches_finite_differences():
    noise = _rng(8).normal(size=4)

    def f(t):
        g = DiagGaussian(ad.slice_last(t, 0, 4), ad.softplus(ad.slice_last(t, 4, 8)))
        return ad.tsum(ad.square(reparameterize(g, noise)))

    assert grad_check(f, _rng(9).normal(size=8), eps=1e-5) < 1e-4


def test_kl_same_distribution_zero():
    g = DiagGaussian(Tensor([0.3, -1.0]), Tensor([0.5, 2.0]))
    assert abs(float(kl_diag_gauss(g, g).value)) < 1e-12


def test_kl_unit_shift_closed_form():
    q = DiagGaussian(Tensor([1.0]), Tensor([1.0]))
    p = DiagGaussian(Tensor([0.0]), Tensor([1.0]))
    assert abs(float(kl_diag_gauss(q, p).value) - 0.5) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    q = DiagGaussian(Tensor(rng.normal(size=3)), Tensor(rng.uniform(1e-3, 5.0, 3)))
    p = DiagGaussian(Tensor(rng.normal(size=3)), Tensor(rng.uniform(1e-3, 5.0, 3)))
    assert float(kl_diag_gauss(q, p).value) >= 0.0


def test_kl_gradcheck():
    def f(t):
        q = DiagGaussian(ad.slice_last(t, 0, 2),
                         ad.add(ad.softplus(ad.slice_last(t, 2, 4)), STD_FLOOR))
        p = DiagGaussian(Tensor([0.1, -0.2]), Tensor([1.5, 0.4]))
        return ad.tsum(kl_diag_gauss(q, p))

    assert grad_check(f, _rng(10).normal(size=4), eps=1e-5) < 1e-4


def test_obs_nll_zero_residual():
    x = np.array([[1.0, 2.0]])
    nll = gaussian_obs_nll(x, Tensor(x), 0.1)
    expect = 2.0 * (np.log(0.1) + 0.5 * np.log(2 * np.pi))
    assert abs(float(nll.value[0]) - expect) < 1e-12


def test_obs_nll_unit_sigma_residual_two():
    nll = gaussian_obs_nll(np.array([[0.0]]), Tensor([[2.0]]), 1.0)
    assert abs(float(nll.value[0]) - (2.0 + 0.5 * np.log(2 * np.pi))) < 1e-12


def test_obs_nll_difference_is_scaled_squared_error():
    rng = _rng(11)
    x = rng.normal(size=(4, 2))
    m1, m2 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    sigma = 0.1
    d_nll = (ad.tsum(gaussian_obs_nll(x, Tensor(m1), sigma)).value
             - ad.tsum(gaussian_obs_nll(x, Tensor(m2), sigma)).value)
    d_sq = (np.sum((x - m1) ** 2) - np.sum((x - m2) ** 2)) / (2 * sigma ** 2)
    assert abs(float(d_nll) - d_sq) < 1e-9


def test_adam_first_step_magnitude():
    for g in (0.3, -40.0, 0.05):
        p = Tensor(np.array([0.0]))
        opt = Adam([("p", p)], lr=0.001)
        p.grad = np.array([g])
        opt.step()
        assert abs(abs(float(p.value[0])) - 0.001) < 1e-6 * 0.001


def test_adam_zero_grad_no_update():
    p = Tensor(np.array([1.0, 2.0]))
    opt = Adam([("p", p)])
    for _ in range(5):
        p.grad = np.zeros(2)
        opt.step()
    assert np.array_equal(p.value, [1.0, 2.0])


def test_adam_nonfinite_grad_aborts():
    p = Tensor(np.array([0.0]))
    opt = Adam([("p", p)])
    p.grad = np.array([np.nan])
    with pytest.raises(NonFiniteError):
        opt.step()


def test_adam_matches_out_of_place_reference():
    rng = _rng(15)
    shapes = [(5, 3), (3,)]
    params = [(f"p{i}", Tensor(rng.normal(size=shape))) for i, shape in enumerate(shapes)]
    ref = [p.value.copy() for _, p in params]
    m, v = [np.zeros(shape) for shape in shapes], [np.zeros(shape) for shape in shapes]
    opt = Adam(params, lr=0.01)
    b1, b2, lr, eps = Adam.BETA1, Adam.BETA2, 0.01, Adam.EPSILON
    for t in range(1, 8):
        for i, (_, p) in enumerate(params):
            g = rng.normal(size=shapes[i])
            p.grad = g
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat, v_hat = m[i] / (1.0 - b1 ** t), v[i] / (1.0 - b2 ** t)
            ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
        for (_, p), r in zip(params, ref):
            assert np.array_equal(p.value, r)


def test_adam_deterministic():
    def run():
        rng = _rng(12)
        p = Tensor(rng.normal(size=4))
        opt = Adam([("p", p)])
        for _ in range(20):
            p.grad = p.value * 2.0
            opt.step()
        return p.value.copy()

    assert np.array_equal(run(), run())


def test_uniform_init_bounds_and_determinism():
    vals = uniform_init(_rng(13), (100, 50), 50)
    bound = 1.0 / np.sqrt(50)
    assert np.all(np.abs(vals) <= bound)
    assert np.array_equal(vals, uniform_init(_rng(13), (100, 50), 50))


def test_uniform_init_mean_near_zero():
    vals = uniform_init(_rng(14), (10_000,), 9)
    bound = 1.0 / 3.0
    # standard error of the mean of U(-b, b) over n draws is b/sqrt(3n)
    assert abs(vals.mean()) < 3.0 * bound / np.sqrt(3 * 10_000)
