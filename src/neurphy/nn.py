"""Dense layers, MLPs, diagonal-Gaussian heads and utilities, and Adam."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

STD_FLOOR = 1e-3

# The activations DenseLayer accepts, each with the standalone primitive it
# names; ad.linear applies the same function fused with the affine map.
_ACTIVATIONS = {
    "relu": ad.relu,
    "sigmoid": ad.sigmoid,
    "tanh": ad.tanh,
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
    """Hidden layers with a shared activation, then a linear output layer."""

    def __init__(self, in_dim, hidden, out_dim, rng, name, activation="relu",
                 out_activation="identity"):
        self.layers = []
        prev = in_dim
        for i, width in enumerate(hidden):
            self.layers.append(DenseLayer(prev, width, activation, rng, f"{name}.{i}"))
            prev = width
        self.layers.append(DenseLayer(prev, out_dim, out_activation, rng,
                                      f"{name}.{len(hidden)}"))

    def __call__(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]


@dataclass
class DiagGaussian:
    """Diagonal Gaussian over the last axis; mean and std are graph tensors."""

    mean: Tensor
    std: Tensor

    @property
    def dim(self):
        return self.mean.value.shape[-1]


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
        mean = ad.slice_last(h, 0, self.dim_z)
        std = ad.add(ad.softplus(ad.slice_last(h, self.dim_z, 2 * self.dim_z)), STD_FLOOR)
        return DiagGaussian(mean, std)

    def parameters(self):
        return self.inner.parameters()


def reparameterize(g, noise):
    """mean + std * noise, differentiable in mean and std; noise is a constant."""
    return ad.add(g.mean, ad.mul(g.std, Tensor(noise)))


def kl_diag_gauss(q, p):
    """KL(q || p) between diagonal Gaussians, summed over the last axis."""
    var_ratio = ad.div(
        ad.add(ad.square(q.std), ad.square(ad.sub(q.mean, p.mean))),
        ad.scale(ad.square(p.std), 2.0),
    )
    per_dim = ad.add(ad.sub(ad.log(p.std), ad.log(q.std)), ad.add(var_ratio, -0.5))
    return ad.tsum(per_dim, axis=-1)


def gaussian_obs_nll(x, mean, sigma_obs):
    """Negative log-likelihood of x under N(mean, sigma_obs^2 I), summed over dims."""
    x = np.asarray(x, dtype=np.float64)
    dims = x.shape[-1]
    sq = ad.tsum(ad.square(ad.sub(mean, Tensor(x))), axis=-1)
    const = dims * (np.log(sigma_obs) + 0.5 * np.log(2.0 * np.pi))
    return ad.add(ad.scale(sq, 1.0 / (2.0 * sigma_obs ** 2)), const)


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

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise ad.NonFiniteError(f"non-finite gradient for parameter {name}")
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / (1.0 - b1 ** self.t)
            v_hat = self.v[name] / (1.0 - b2 ** self.t)
            p.value = p.value - self.lr * m_hat / (np.sqrt(v_hat) + self.EPSILON)
