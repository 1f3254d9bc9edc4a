import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from neurphy import autodiff as ad
from neurphy.autodiff import (AutodiffError, NonFiniteError, NonScalarRootError,
                              ShapeMismatchError, Tensor, backward, grad_check)
from neurphy.nn import _ACTIVATIONS, DiagGaussian, kl_diag_gauss, reparameterize


def test_relu_forward():
    out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.value, [0.0, 0.0, 2.0])


def test_softplus_zero_is_ln2():
    out = ad.softplus(Tensor(0.0))
    assert abs(float(out.value) - np.log(2.0)) < 1e-12


def test_matmul_identity():
    a = np.arange(6.0).reshape(2, 3)
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.value, a)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeMismatchError):
        ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


NONFINITE = {
    "log": lambda: ad.log(Tensor([0.0])),
    "exp": lambda: ad.exp(Tensor([1000.0])),
    "div": lambda: ad.div(Tensor([1.0]), Tensor([0.0])),
}


@pytest.mark.parametrize("name", sorted(NONFINITE))
def test_nonfinite_raises(name):
    # The message is what the CLI prints on exit 4; no numpy warning comes first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=f"^non-finite values in {name}$"):
            NONFINITE[name]()


def test_backward_sum_of_squares():
    x = Tensor([3.0])
    backward(ad.tsum(ad.square(x)))
    assert np.allclose(x.grad, [6.0])


def test_backward_sigmoid_at_zero():
    x = Tensor(0.0)
    backward(ad.sigmoid(x))
    assert abs(float(x.grad) - 0.25) < 1e-12


def test_backward_constant_root_zero_grads():
    x = Tensor([1.0, 2.0])
    y = ad.tsum(ad.mul(x, Tensor([0.0, 0.0])))
    backward(y)
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_backward_nonscalar_root():
    with pytest.raises(NonScalarRootError):
        backward(Tensor([1.0, 2.0]))


def test_backward_accumulates_into_leaves():
    x = Tensor([1.0, 2.0])
    backward(ad.tsum(x))
    backward(ad.tsum(x))
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_backward_frees_the_graph_it_swept():
    x, c = Tensor([1.0, 2.0]), Tensor([3.0, -1.0])
    h = ad.mul(ad.tanh(x), c)
    root = ad.tsum(ad.square(h))
    interior = ad._toposort(root)[2:]  # the leaves x and c come first
    parents, value = [node.parents for node in interior], root.value
    backward(root)
    assert all(node.value is None for node in interior[:-1])
    assert all(node._vjp is None for node in interior)
    assert [node.parents for node in interior] == parents
    assert root.value is value
    grads = x.grad.copy(), c.grad.copy()
    assert np.array_equal(x.value, [1.0, 2.0]) and np.array_equal(c.value, [3.0, -1.0])
    with pytest.raises(AutodiffError, match="one backward per graph"):
        backward(root)
    with pytest.raises(AutodiffError, match="one backward per graph"):
        backward(ad.add(root, ad.tsum(x)))  # a new root over the spent graph
    assert np.array_equal(x.grad, grads[0]) and np.array_equal(c.grad, grads[1])


def test_a_freed_node_says_so():
    x = Tensor([1.0, 2.0])
    h = ad.tanh(x)
    backward(ad.tsum(h))
    assert repr(h) == "Tensor(tanh, freed by backward)"
    g = DiagGaussian(h, x)
    for op in (lambda: h.shape, lambda: ad.add(h, x), lambda: ad.tsum(h),
               lambda: ad.concat([x, h]), lambda: kl_diag_gauss(g, g),
               lambda: reparameterize(g, np.zeros(2))):
        with pytest.raises(AutodiffError, match="tanh node was freed"):
            op()


def test_gradcheck_quadratic_near_exact():
    err = grad_check(lambda t: ad.tsum(ad.square(t)),
                     np.array([1.0, -2.0, 0.5]), eps=1e-5)
    assert err < 1e-8


def test_gradcheck_constant_function():
    err = grad_check(lambda t: Tensor(3.0), np.array([1.0, 2.0]))
    assert err == 0.0


PRIMITIVES = {
    "relu": lambda t: ad.tsum(ad.relu(t)),
    "sigmoid": lambda t: ad.tsum(ad.sigmoid(t)),
    "tanh": lambda t: ad.tsum(ad.tanh(t)),
    "exp": lambda t: ad.tsum(ad.exp(t)),
    "log": lambda t: ad.tsum(ad.log(ad.add(ad.square(t), 0.5))),
    "softplus": lambda t: ad.tsum(ad.softplus(t)),
    "sin": lambda t: ad.tsum(ad.sin(t)),
    "square": lambda t: ad.tsum(ad.square(t)),
    "mul": lambda t: ad.tsum(ad.mul(t, t)),
    "div": lambda t: ad.tsum(ad.div(t, ad.add(ad.square(t), 1.0))),
    "scale": lambda t: ad.tsum(ad.scale(t, -2.5)),
    "mean": lambda t: ad.tmean(t),
    "sum_axis": lambda t: ad.tsum(ad.square(ad.tsum(t, axis=-1))),
    "concat": lambda t: ad.tsum(ad.square(ad.concat([t, ad.scale(t, 2.0)]))),
    "slice": lambda t: ad.tsum(ad.square(ad.slice_last(t, 1, 3))),
    "take_rows": lambda t: ad.tsum(ad.square(ad.take_rows(t, [1, 0, 1, 1]))),
    "segment_sum": lambda t: ad.tsum(ad.square(ad.segment_sum(
        ad.take_rows(t, [0, 1, 1, 0, 1]), [2, 3]))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradcheck(name):
    f = PRIMITIVES[name]
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=(2, 4))
        # keep relu inputs away from the kink
        if name == "relu":
            x = np.where(np.abs(x) < 1e-3, 0.1, x)
        assert grad_check(f, x, eps=1e-5) < 1e-4, f"{name} seed {seed}"


def test_matmul_and_broadcast_add_gradcheck():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=3)

    def f(t):
        return ad.tsum(ad.square(ad.add(ad.matmul(t, Tensor(w)), Tensor(b))))

    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=(5, 4))
        assert grad_check(f, x, eps=1e-5) < 1e-4


def test_matmul_grad_wrt_weights():
    x = np.random.default_rng(2).normal(size=(5, 4))

    def f(t):
        return ad.tsum(ad.square(ad.matmul(Tensor(x), t)))

    assert grad_check(f, np.random.default_rng(3).normal(size=(4, 3))) < 1e-4


@pytest.mark.parametrize("start,stop", [(0, 2), (1, 4), (3, 5), (0, 5), (4, 5)])
def test_slice_rows_gradcheck(start, stop):
    def f(t):
        return ad.tsum(ad.square(ad.slice_rows(ad.scale(t, 1.5), start, stop)))

    x = np.random.default_rng(start).normal(size=(5, 3))
    assert ad.slice_rows(Tensor(x), start, stop).shape == (stop - start, 3)
    assert grad_check(f, x) < 1e-4


@pytest.mark.parametrize("activation", sorted(_ACTIVATIONS))
def test_linear_gradcheck_and_matches_composition(activation):
    rng = np.random.default_rng(len(activation))
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    weights = Tensor(rng.normal(size=(5, 3)))  # makes the upstream gradient non-uniform

    def loss(out):
        return ad.tsum(ad.mul(out, weights))

    assert grad_check(lambda t: loss(ad.linear(t, Tensor(w), Tensor(b), activation)), x) < 1e-4
    assert grad_check(lambda t: loss(ad.linear(Tensor(x), t, Tensor(b), activation)), w) < 1e-4
    assert grad_check(lambda t: loss(ad.linear(Tensor(x), Tensor(w), t, activation)), b) < 1e-4

    fused = [Tensor(x), Tensor(w), Tensor(b)]
    composed = [Tensor(x), Tensor(w), Tensor(b)]
    out_f = ad.linear(*fused, activation)
    out_c = _ACTIVATIONS[activation](ad.add(ad.matmul(composed[0], composed[1]), composed[2]))
    assert np.max(np.abs(out_f.value - out_c.value)) <= 1e-15
    backward(loss(out_f))
    backward(loss(out_c))
    for f, c in zip(fused, composed):
        assert np.max(np.abs(f.grad - c.grad)) <= 1e-15


def test_linear_takes_an_array_input_as_a_constant():
    rng = np.random.default_rng(7)
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    weights = Tensor(rng.normal(size=(5, 3)))
    as_array = [Tensor(w), Tensor(b)]
    as_leaf = [Tensor(x), Tensor(w), Tensor(b)]
    out = ad.linear(x, *as_array, "relu")
    assert out.parents == tuple(as_array)
    backward(ad.tsum(ad.mul(out, weights)))
    backward(ad.tsum(ad.mul(ad.linear(*as_leaf, "relu"), weights)))
    for a, t in zip(as_array, as_leaf[1:]):
        assert np.array_equal(a.grad, t.grad)


def test_linear_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)),
                  "identity")
    with pytest.raises(ShapeMismatchError):
        ad.linear(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)),
                  "identity")


def test_linear_rejects_unfused_activation():
    # square's rule reads the pre-activation, which linear does not keep; no
    # layer of the model uses sigmoid or tanh
    for activation in ("square", "softmax", "sigmoid", "tanh"):
        with pytest.raises(ValueError, match="cannot fuse"):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(2)),
                      activation)


def test_segment_sum_sums_as_tsum_does():
    a = np.random.default_rng(3).normal(size=(12, 3)) * 1e3
    out = ad.segment_sum(Tensor(a), [5, 1, 6]).value
    for row, (lo, hi) in zip(out, [(0, 5), (5, 6), (6, 12)]):
        assert np.array_equal(row, ad.tsum(Tensor(a[lo:hi]), axis=0).value)
    for sizes in ([5, 6], [12, 0], [13]):
        with pytest.raises(ShapeMismatchError):
            ad.segment_sum(Tensor(a), sizes)


def test_no_grad_records_nothing():
    x = Tensor(np.array([[0.5, -1.0]]))
    with ad.no_grad():
        y = ad.tsum(ad.tanh(ad.mul(x, x)))
    assert y.parents == () and y._vjp is None
    backward(y)
    assert x.grad is None
    z = ad.tsum(ad.tanh(ad.mul(x, x)))  # recording again
    assert z.parents and z.value == y.value


def test_no_grad_nests_and_restores_on_error():
    x = Tensor([1.0])
    with ad.no_grad():
        with ad.no_grad():
            assert ad.square(x).parents == ()
        assert ad.square(x).parents == ()
    assert ad.square(x).parents == (x,)
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert ad.square(x).parents == (x,)

    @ad.no_grad()
    def decorated():
        return ad.square(x)

    assert decorated().parents == ()
    assert ad.square(x).parents == (x,)


def test_no_grad_keeps_finiteness_check():
    with ad.no_grad():
        with pytest.raises(NonFiniteError, match="^non-finite values in log$"):
            ad.log(Tensor([0.0]))
    assert ad.square(Tensor([1.0])).parents


def test_no_grad_leaves_parameter_grads_none():
    from neurphy.model import ModelConfig, NeurPhyModel
    from neurphy.physics import PendulumParams, pendulum_trajectory, select_contexts
    from neurphy.training import TrainConfig, elbo_loss

    cfg = TrainConfig(D=2, model=ModelConfig(dim_z=2, dim_r=2, context_widths=[8],
                                             recognition_widths=[8, 8],
                                             transition_widths=[8, 8],
                                             decoder_widths=[8]))
    model = NeurPhyModel(cfg.model, np.random.default_rng(0))
    task = pendulum_trajectory(PendulumParams(), 12)
    ctx = select_contexts(task, 3, "train_random", seed=1)
    with ad.no_grad():
        total, _ = elbo_loss(model, task, ctx, np.arange(3, 12), cfg,
                             np.random.default_rng(2))
    backward(total)
    assert all(p.grad is None for _, p in model.parameters())


def test_tile_rows_grad():
    def f(t):
        return ad.tsum(ad.square(ad.tile_rows(t, 4)))

    assert grad_check(f, np.array([1.0, -2.0, 0.3])) < 1e-4


def test_backward_linearity():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(3, 2))

    def f(t):
        return ad.tsum(ad.square(t))

    def g(t):
        return ad.tsum(ad.sin(t))

    a, b = 1.7, -0.3
    xa = Tensor(x0)
    backward(ad.add(ad.scale(f(xa), a), ad.scale(g(xa), b)))
    xf, xg = Tensor(x0), Tensor(x0)
    backward(f(xf))
    backward(g(xg))
    assert np.max(np.abs(xa.grad - (a * xf.grad + b * xg.grad))) < 1e-10


def test_forward_and_backward_deterministic():
    x0 = np.random.default_rng(11).normal(size=(4, 3))

    def run():
        x = Tensor(x0)
        y = ad.tsum(ad.square(ad.tanh(ad.matmul(x, Tensor(x0.T @ x0)))))
        backward(y)
        return y.value.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_two_layer_mlp_gradcheck():
    rng = np.random.default_rng(5)
    w1, b1 = rng.normal(size=(3, 8)), rng.normal(size=8)
    w2, b2 = rng.normal(size=(8, 1)), rng.normal(size=1)

    def f(t):
        h = ad.tanh(ad.add(ad.matmul(t, Tensor(w1)), Tensor(b1)))
        return ad.tsum(ad.add(ad.matmul(h, Tensor(w2)), Tensor(b2)))

    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=(2, 3))
        assert grad_check(f, x, eps=1e-5) < 1e-4


def test_tracer_patches_every_name(tmp_path):
    # perfbench's --trace 1 looks up by name every function it patches, in
    # autodiff, nn, model, physics, training, evaluation and cli, so one
    # renamed or deleted would crash traced runs; its counters read the
    # arguments they see, so a tiny traced chain runs each of them. A fresh
    # interpreter keeps the patches out of the other tests.
    root = Path(__file__).resolve().parents[1]
    code = """
from neurphy import cli  # first: numpy loads after its BLAS pin
from neurphy import autodiff as ad
import tracer
t = tracer.Tracer(); tracer.install(t); ad.add(1.0, 2.0)
assert t.counts['autodiff.add.calls'] == 1, t.counts
ops = [["generate", "--system", "pendulum", "--out", "pend.jsonl", "--l", "1:3:3",
        "--m", "1:4:3", "--T", "30"],
       ["train", "--data", "pend.jsonl", "--out", "run", "--D", "2", "--epochs", "1",
        "--n-c", "4", "--dim-z", "2", "--dim-r", "2"],
       ["eval", "--run", "run", "--stage", "metatest2", "--manifold-out", "run/mani"],
       ["rollout", "--run", "run", "--task", "0", "--start", "3", "--horizon", "5",
        "--out", "roll.csv"],
       ["plot", "--in", "roll.csv", "--out", "roll.svg"]]
main = t.wrap("cli", cli.main)
assert [main(argv) for argv in ops] == [0] * len(ops)
for key in ("model.context.rows", "autodiff.backward.calls", "training.checkpoint_save.calls",
            "evaluation.export_manifold.calls", "svg.calls"):
    assert t.counts[key] > 0, (key, t.counts)
# train's pre-flight draw, 8 meta-train tasks x 1 epoch, 1 metatest2 task, 1 rollout:
# a draw that leaves the patched lookup sites goes uncounted
assert t.counts["physics.select_contexts.calls"] == 11, t.counts
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
