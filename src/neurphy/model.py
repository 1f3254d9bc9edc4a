"""The latent state-space architecture.

Four networks: a context encoder whose per-pair codes are mean-aggregated into
a per-task global representation r_c, a two-frame recognition network giving
the approximate posterior q(z_t | x_{t-1:t}), a transition network giving
p(z_t | z_{t-1}, r_c), and an observation decoder.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import MLP, GaussianHead
from .physics import frame_pairs


class EmptyContextError(Exception):
    pass


class OutOfRangeError(Exception):
    pass


@dataclass
class ModelConfig:
    obs_dim: int = 2
    dim_z: int = 3
    dim_r: int = 3
    context_widths: list = field(default_factory=lambda: [128, 128, 64, 16])
    recognition_widths: list = field(default_factory=lambda: [32, 16])
    transition_widths: list = field(default_factory=lambda: [128, 128, 64, 16])
    decoder_widths: list = field(default_factory=lambda: [16, 64, 128, 128])

    def __post_init__(self):
        if self.dim_z < 1 or self.dim_r < 1:
            raise ValueError(f"dim_z and dim_r must be at least 1, got {self.dim_z} "
                             f"and {self.dim_r}")


@dataclass(frozen=True)
class ContextBatch:
    """The context sets of several tasks: their pairs stacked in task order,
    sizes[i] of them task i's."""

    pairs: np.ndarray
    sizes: tuple

    @classmethod
    def of(cls, ctxs):
        return cls(np.concatenate([ctx.pairs for ctx in ctxs]),
                   tuple(ctx.n_c for ctx in ctxs))


class NeurPhyModel:
    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.context_encoder = MLP(2 * cfg.obs_dim, cfg.context_widths, cfg.dim_r,
                                   rng, "context")
        self.recognition_mlp = MLP(2 * cfg.obs_dim, cfg.recognition_widths[:-1],
                                   cfg.recognition_widths[-1], rng, "recognition",
                                   out_activation="relu")
        self.recognition_head = GaussianHead(cfg.recognition_widths[-1], cfg.dim_z,
                                             rng, "recognition.head")
        self.transition_mlp = MLP(cfg.dim_z + cfg.dim_r, cfg.transition_widths[:-1],
                                  cfg.transition_widths[-1], rng, "transition",
                                  out_activation="relu")
        self.transition_head = GaussianHead(cfg.transition_widths[-1], cfg.dim_z,
                                            rng, "transition.head")
        self.decoder = MLP(cfg.dim_z, cfg.decoder_widths, cfg.obs_dim, rng, "decoder")

    def parameters(self):
        return (self.context_encoder.parameters()
                + self.recognition_mlp.parameters()
                + self.recognition_head.parameters()
                + self.transition_mlp.parameters()
                + self.transition_head.parameters()
                + self.decoder.parameters())

    def encode_context(self, ctx):
        """Mean-aggregate per-pair encodings into r_c, one row per set of a
        ContextBatch; a single ContextSet is a one-set batch.

        Each set's mean is taken over its sorted unique pairs weighted by their
        multiplicities, so its r_c is bit-identical under permutation of the
        set and under duplicating the whole set (batched matmul rounding would
        otherwise differ with the row count). A batch makes one encoder call
        over the unique pairs of all its sets.
        """
        if not isinstance(ctx, ContextBatch):
            ctx = ContextBatch.of([ctx])
        pairs = np.asarray(ctx.pairs, dtype=np.float64)
        sizes = np.asarray(ctx.sizes)
        if pairs.ndim != 2 or np.any(sizes < 1):
            raise EmptyContextError("context set must contain at least one pair")
        # each set's unique pairs in the order np.unique(axis=0) gives them
        owner = np.repeat(np.arange(sizes.size), sizes)
        order = np.lexsort((*pairs.T[::-1], owner))
        pairs, owner = pairs[order], owner[order]
        first = np.ones(pairs.shape[0], dtype=bool)
        first[1:] = np.any(pairs[1:] != pairs[:-1], axis=1) | (owner[1:] != owner[:-1])
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, pairs.shape[0]))
        owner = owner[starts]
        codes = self.context_encoder(Tensor(pairs[starts]))
        weighted = ad.mul(codes, Tensor((counts / sizes[owner])[:, None]))
        return ad.segment_sum(weighted, np.bincount(owner, minlength=sizes.size))

    def recognize(self, x_pairs):
        """q(z_t | x_{t-1:t}) for a batch of stacked consecutive frames."""
        x_pairs = np.asarray(x_pairs, dtype=np.float64)
        if x_pairs.shape[-1] != 2 * self.cfg.obs_dim:
            raise ad.ShapeMismatchError(f"recognize expects width {2 * self.cfg.obs_dim}")
        return self.recognition_head(self.recognition_mlp(Tensor(x_pairs)))

    def transition(self, z, r_c):
        """p(z_t | z_{t-1}, r_c); z is (B, dim_z) and r_c (B, dim_r), one row
        per row of z."""
        return self.transition_head(self.transition_mlp(ad.concat([z, r_c])))

    def decode(self, z):
        """Observation mean; identity output since coordinates are unbounded."""
        return self.decoder(z)

    @ad.no_grad()
    def mean_chains(self, pairs, r_c, depth):
        """Recognize row i of the frame pairs and roll its latent mean depth[i]
        transitions under r_c[i]. Rows come deepest first, so the chains still
        rolling at step k are a prefix. Returns each step's means: element 0
        has every row, element k those of the chains of depth k or more."""
        depth = np.asarray(depth)
        latents = [self.recognize(pairs).mean.value]
        for k in range(1, depth.max() + 1):
            rolled = np.count_nonzero(depth >= k)
            latents.append(self.transition(Tensor(latents[-1][:rolled]),
                                           Tensor(r_c[:rolled])).mean.value)
        return latents

    @ad.no_grad()
    def predict_observations(self, task, ctx, start_t, horizon):
        """Deterministic readout: recognize at start_t, roll the mean forward,
        decode every latent mean in one call. Returns (horizon+1, obs_dim)
        predictions for frames start_t .. start_t+horizon."""
        if horizon < 0 or start_t < 1 or start_t + horizon > task.length - 1:
            raise OutOfRangeError(f"window [{start_t}, {start_t + horizon}] "
                                  f"outside task of length {task.length}")
        latents = self.mean_chains(frame_pairs(task.observations, [start_t]),
                                   self.encode_context(ctx).value, [horizon])
        return self.decode(Tensor(np.concatenate(latents))).value
