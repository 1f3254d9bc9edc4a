"""Dense layers, MLPs, diagonal-Gaussian heads and utilities, and Adam."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

STD_FLOOR = 1e-3

# The model's two activations, the ones DenseLayer accepts, each with the
# standalone primitive it names; ad.linear applies it fused with the affine map.
_ACTIVATIONS = {
    "relu": ad.relu,
    "identity": lambda t: t,
}


def uniform_init(rng, shape, fan_in):
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class DenseLayer:
    def __init__(self, in_dim, out_dim, activation, rng, name):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.name = name
        self.activation = activation
        self.w = Tensor(uniform_init(rng, (in_dim, out_dim), in_dim))
        self.b = Tensor(np.zeros(out_dim))

    def __call__(self, x):
        return ad.linear(x, self.w, self.b, self.activation)

    def parameters(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]


class MLP:
    """Relu hidden layers, then a dense output layer with out_activation.

    The layers do not check their outputs; the network checks its own output
    for NaN/Inf once, so an overflow in a hidden layer that reaches it raises
    there."""

    def __init__(self, in_dim, hidden, out_dim, rng, name, out_activation="identity"):
        self.name = name
        self.layers = []
        prev = in_dim
        for i, width in enumerate(hidden):
            self.layers.append(DenseLayer(prev, width, "relu", rng, f"{name}.{i}"))
            prev = width
        self.layers.append(DenseLayer(prev, out_dim, out_activation, rng,
                                      f"{name}.{len(hidden)}"))

    def __call__(self, x):
        for layer in self.layers:
            x = layer(x)
        if not np.isfinite(x.value).all():
            raise ad.NonFiniteError(f"non-finite output of network {self.name}")
        return x

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]


@dataclass
class DiagGaussian:
    """Diagonal Gaussian over the last axis; mean and std are graph tensors."""

    mean: Tensor
    std: Tensor


class GaussianHead:
    """Linear layer producing 2*dim_z units: first half mean, second half raw std.

    std = softplus(raw) + STD_FLOOR, so it stays strictly positive. The raw-std
    bias starts at -3 (std ~ 0.05): Adam moves biases by roughly lr per step,
    so starting from softplus(0) ~ 0.69 the std could not shrink to a useful
    scale within a short run.
    """

    RAW_STD_BIAS_INIT = -3.0

    def __init__(self, in_dim, dim_z, rng, name):
        self.dim_z = dim_z
        self.inner = DenseLayer(in_dim, 2 * dim_z, "identity", rng, name)
        self.inner.b.value[dim_z:] = self.RAW_STD_BIAS_INIT

    def __call__(self, features):
        h = self.inner(features)
        return DiagGaussian(ad.slice_last(h, 0, self.dim_z), self._std(h))

    def _std(self, h):
        """softplus(h[..., dim_z:]) + STD_FLOOR as one graph node."""
        softplus, rule = ad._ELEMENTWISE["softplus"]
        raw = h.value[..., self.dim_z:]

        def vjp(g):
            full = np.zeros_like(h.value)
            full[..., self.dim_z:] = rule(g, raw, None)
            return (full,)

        return Tensor(softplus(raw) + STD_FLOOR, (h,), vjp, _where="gaussian_std")

    def parameters(self):
        return self.inner.parameters()


# The Gaussian ops below are one graph node each, with an analytic vjp; their
# forwards do the arithmetic of the composed primitives, in the same order.


def reparameterize(g, noise):
    """mean + std * noise, differentiable in mean and std; noise is a constant."""
    noise = np.asarray(noise, dtype=np.float64)
    mean, std = ad.as_tensor(g.mean), ad.as_tensor(g.std)

    def vjp(grad):
        return (ad._unbroadcast(grad, mean.shape),
                ad._unbroadcast(grad * noise, std.shape))

    return Tensor(mean.value + std.value * noise, (mean, std), vjp,
                  _where="reparameterize")


def kl_diag_gauss(q, p):
    """KL(q || p) between diagonal Gaussians, summed over the last axis."""
    qm, qs, pm, ps = (ad.as_tensor(t).value for t in (q.mean, q.std, p.mean, p.std))
    diff = qm - pm
    p_var = ps * ps
    with np.errstate(divide="ignore", invalid="ignore"):
        var_ratio = (qs * qs + diff * diff) / (p_var * 2.0)
        per_dim = (np.log(ps) - np.log(qs)) + (var_ratio + -0.5)

    def vjp(g):
        g = g[..., None]
        g_mean = g * diff / p_var
        return (ad._unbroadcast(g_mean, qm.shape),
                ad._unbroadcast(g * (qs / p_var - 1.0 / qs), qs.shape),
                ad._unbroadcast(-g_mean, pm.shape),
                ad._unbroadcast(g * (1.0 - 2.0 * var_ratio) / ps, ps.shape))

    return Tensor(per_dim.sum(axis=-1), (q.mean, q.std, p.mean, p.std), vjp,
                  _where="kl_diag_gauss")


def gaussian_obs_nll(x, mean, sigma_obs):
    """Negative log-likelihood of x under N(mean, sigma_obs^2 I), summed over dims."""
    x = np.asarray(x, dtype=np.float64)
    mean = ad.as_tensor(mean)
    diff = mean.value - x
    c = float(1.0 / (2.0 * sigma_obs ** 2))
    const = x.shape[-1] * (np.log(sigma_obs) + 0.5 * np.log(2.0 * np.pi))

    def vjp(g):
        return (ad._unbroadcast((g * c)[..., None] * 2.0 * diff, mean.shape),)

    return Tensor((diff * diff).sum(axis=-1) * c + const, (mean,), vjp,
                  _where="gaussian_obs_nll")


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8

    def __init__(self, params, lr=0.001):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.value) for name, p in self.params}
        self.v = {name: np.zeros_like(p.value) for name, p in self.params}

    def step(self):
        """One update of every parameter with a gradient. The moments are
        updated in place, in the operation order of
        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        p = p - lr (m / c1) / (sqrt(v / c2) + eps),  ck = 1 - bk^t.
        Each .grad is set to None once applied, so it is not held through the
        next minibatch's draws; read gradient norms before the step."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise ad.NonFiniteError(f"non-finite gradient for parameter {name}")
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            gg = (1.0 - b2) * g
            gg *= g
            v += gg
            denom = np.divide(v, c2, out=gg)
            np.sqrt(denom, out=denom)
            denom += self.EPSILON
            update = m / c1
            update *= self.lr
            update /= denom
            p.value, p.grad = p.value - update, None
