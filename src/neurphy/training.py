"""Overshooting ELBO assembly, the optimization loop, and checkpoint/metrics IO."""

import dataclasses
import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .artifacts import write_atomic, write_csv
from .autodiff import NonFiniteError
from .model import ModelConfig, NeurPhyModel
from .nn import Adam, DiagGaussian, gaussian_obs_nll, kl_diag_gauss, reparameterize
from .physics import DegenerateSplitError, select_contexts

CHECKPOINT_MAGIC = b"NPHY"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    pass


class CorruptCheckpointError(CheckpointError):
    pass


class FormatVersionMismatchError(CheckpointError):
    pass


class TrainDiverged(Exception):
    """Non-finite value hit mid-training; .history holds completed epochs."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


@dataclass
class TrainConfig:
    D: int = 5
    beta: list = None  # per-overshoot weights, default all 1
    batch_tasks: int = 8
    epochs: int = 300
    lr: float = 0.001
    n_c: int = 20
    target_fraction: float = 0.9
    sigma_obs: float = 0.1
    seed: int = 0
    checkpoint_every: int = 100
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.beta is None:
            self.beta = [1.0] * self.D
        if len(self.beta) != self.D:
            raise ValueError(f"need {self.D} beta weights, got {len(self.beta)}")
        if self.batch_tasks < 1:
            raise ValueError(f"batch_tasks must be at least 1, got {self.batch_tasks}")
        if not (self.sigma_obs > 0 and self.lr > 0):
            raise ValueError(f"sigma_obs and lr must be positive, got "
                             f"{self.sigma_obs} and {self.lr}")
        if not 0.0 < self.target_fraction < 1.0:
            raise ValueError(f"target_fraction must be in (0, 1), got {self.target_fraction}")


# Paper-scale protocol, for reference against the desk-scale defaults above:
# 651 pendulum tasks, batch size 50, 1000 epochs.
PAPER_SCALE = {"tasks": 651, "batch_tasks": 50, "epochs": 1000}


@dataclass
class LossBreakdown:
    recon: float
    kl: list  # length D, unweighted
    total: float


def split_frames(T, D, fraction, seed):
    """Seeded split of eligible frames into (targets, heldout).

    A frame t is eligible only if t >= D+1, so the recognition pair
    (x_{t-d-1}, x_{t-d}) exists for every overshoot d <= D.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    eligible = np.arange(D + 1, T)
    if eligible.size == 0:
        raise DegenerateSplitError(f"no eligible frames for T={T}, D={D}")
    order = np.random.default_rng(seed).permutation(eligible.size)
    n_target = max(1, int(fraction * eligible.size))
    targets = np.sort(eligible[order[:n_target]])
    heldout = np.sort(eligible[order[n_target:]])
    return targets, heldout


def _rows(g, start, stop):
    return DiagGaussian(ad.slice_rows(g.mean, start, stop), ad.slice_rows(g.std, start, stop))


def _draw_noise(rng, sizes, D, dim_z):
    """The reparameterization noise of the overshoot schedule.

    Each task's draws come in the order and shapes of the per-d loop: q_now's,
    then per d the recognized draw and its d-1 step draws; task i draws
    sizes[i] rows, after task i-1. Returns the noise of the recognize rows,
    and per step k < D the noise of the chains d = D..k+1 that it carries.
    """
    starts, steps = [], []
    for n in sizes:
        shape = (n, dim_z)
        start, step = [rng.standard_normal(shape)], {}
        for d in range(1, D + 1):
            start.append(rng.standard_normal(shape))
            for k in range(1, d):
                step[d, k] = rng.standard_normal(shape)
        starts.append(start)
        steps.append(step)
    recognized = np.concatenate([start[d] for d in (0, *range(D, 0, -1)) for start in starts])
    carried = [np.concatenate([step[d, k] for d in range(D, k, -1) for step in steps])
               for k in range(1, D)]
    return recognized, carried


def overshoot(model, obs, targets, r_c, cfg, rng, sizes=None):
    """The triangular overshoot schedule over the target frames of one or more
    tasks (single-sample Monte Carlo throughout).

    For each overshoot d, z is recognized d steps back, carried forward by d-1
    sampled transitions, and one more transition gives the prior that the
    current posterior is matched against.

    obs stacks the tasks' observations, and targets indexes its rows task by
    task, sizes[i] of them task i's. r_c has one row per task; with sizes
    None, all targets are one task's and r_c is that task's 1-D r_c.

    One recognize call covers the N targets' pairs for d = 0, D, D-1, ..., 1,
    one contiguous block of N rows each. At transition step k = 1..D the rows
    of every d >= k advance together: the last block (d = k) is that step's
    prior and the rest are carried forward. The noise is drawn task by task in
    the order and shapes of the per-d loop, so this equals that loop up to
    rounding.

    Returns (z_now, kl_rows): the posterior sample at the targets, and per d
    the unweighted KL of every target row.
    """
    n, D = targets.size, cfg.D
    recognized_noise, carried_noise = _draw_noise(rng, sizes or [n], D, model.cfg.dim_z)
    owner = None if sizes is None else np.repeat(np.arange(len(sizes)), sizes)

    back = np.concatenate([targets[None, :], targets - np.arange(D, 0, -1)[:, None]]).ravel()
    q_all = model.recognize(np.concatenate([obs[back - 1], obs[back]], axis=1))
    z_all = reparameterize(q_all, recognized_noise)
    q_now = _rows(q_all, 0, n)

    kl_rows = []
    z = ad.slice_rows(z_all, n, (D + 1) * n)  # chains d = D..1
    for k in range(1, D + 1):
        # one task's r_c serves every row; a chunk's is repeated per chain block
        rows = r_c if owner is None else ad.take_rows(r_c, np.tile(owner, D - k + 1))
        dist = model.transition(z, rows)
        carried = (D - k) * n  # rows of chains d = D..k+1
        kl_rows.append(kl_diag_gauss(q_now, _rows(dist, carried, carried + n)))
        if k < D:
            z = reparameterize(_rows(dist, 0, carried), carried_noise[k - 1])
    return ad.slice_rows(z_all, 0, n), kl_rows


def elbo_loss(model, task, ctx, targets, cfg, rng):
    """Reconstruction NLL plus per-overshoot latent KL terms, averaged over
    targets: the overshoot schedule on one task, as one graph.

    Returns (total Tensor for backward, LossBreakdown with unweighted KLs).
    """
    targets = np.asarray(targets)
    obs = task.observations
    r_c = model.encode_context(ctx)
    z_now, kl_rows = overshoot(model, obs, targets, r_c, cfg, rng)
    recon = ad.tmean(gaussian_obs_nll(obs[targets], model.decode(z_now), cfg.sigma_obs))
    kl_terms = [ad.tmean(kl) for kl in kl_rows]

    total = recon
    for d, kl_d in enumerate(kl_terms):
        total = ad.add(total, ad.scale(kl_d, cfg.beta[d] / cfg.D))

    breakdown = LossBreakdown(recon=float(recon.value),
                              kl=[float(k.value) for k in kl_terms],
                              total=float(total.value))
    return total, breakdown


def train(tasks, cfg, model=None, checkpoint_path=None, on_epoch=None):
    """Run the optimization loop; returns (model, per-epoch LossBreakdown history).

    Contexts and target frames are freshly drawn each epoch. All randomness
    comes from cfg.seed, so identical config gives identical history.
    """
    if not tasks:
        raise ValueError("need at least one task")
    rng = np.random.default_rng(cfg.seed)
    if model is None:
        model = NeurPhyModel(cfg.model, rng)
    opt = Adam(model.parameters(), lr=cfg.lr)
    history = []
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(tasks))
            breakdowns = []
            for lo in range(0, len(tasks), cfg.batch_tasks):
                batch = order[lo:lo + cfg.batch_tasks]
                opt.zero_grad()
                for i in batch:
                    task = tasks[i]
                    ctx_seed = int(rng.integers(2 ** 31))
                    frame_seed = int(rng.integers(2 ** 31))
                    ctx = select_contexts(task, cfg.n_c, "train_random", ctx_seed)
                    targets, _ = split_frames(task.length, cfg.D,
                                              cfg.target_fraction, frame_seed)
                    total, br = elbo_loss(model, task, ctx, targets, cfg, rng)
                    ad.backward(ad.scale(total, 1.0 / len(batch)))
                    breakdowns.append(br)
                opt.step()
            history.append(LossBreakdown(
                recon=float(np.mean([b.recon for b in breakdowns])),
                kl=[float(np.mean([b.kl[d] for b in breakdowns]))
                    for d in range(cfg.D)],
                total=float(np.mean([b.total for b in breakdowns])),
            ))
            if on_epoch is not None:
                on_epoch(epoch, history[-1])
            if checkpoint_path and cfg.checkpoint_every > 0 \
                    and (epoch + 1) % cfg.checkpoint_every == 0:
                checkpoint_save(model, cfg, checkpoint_path)
    except NonFiniteError as exc:
        raise TrainDiverged(str(exc), history) from exc
    if checkpoint_path:
        checkpoint_save(model, cfg, checkpoint_path)
    return model, history


def write_metrics_csv(history, D, path):
    header = ["epoch", "recon"] + [f"kl{d}" for d in range(1, D + 1)] + ["total"]
    rows = [[epoch, br.recon, *br.kl, br.total] for epoch, br in enumerate(history)]
    write_csv(path, header, rows)


def _config_to_json(cfg):
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True)


def _config_from_json(text):
    d = json.loads(text)
    model = ModelConfig(**d.pop("model"))
    return TrainConfig(model=model, **d)


def checkpoint_save(model, cfg, path):
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<I", CHECKPOINT_VERSION)
    cfg_bytes = _config_to_json(cfg).encode()
    body += struct.pack("<I", len(cfg_bytes))
    body += cfg_bytes
    params = model.parameters()
    body += struct.pack("<I", len(params))
    for name, p in params:
        name_bytes = name.encode()
        body += struct.pack("<I", len(name_bytes))
        body += name_bytes
        body += struct.pack("<I", p.value.ndim)
        for dim in p.value.shape:
            body += struct.pack("<I", dim)
        body += np.ascontiguousarray(p.value, dtype="<f8").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    write_atomic(path, bytes(body))


def checkpoint_load(path):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a checkpoint file")
    if zlib.crc32(raw[:-4]) != struct.unpack("<I", raw[-4:])[0]:
        raise CorruptCheckpointError(f"{path}: checksum mismatch")
    pos = 4
    (version,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    if version != CHECKPOINT_VERSION:
        raise FormatVersionMismatchError(f"{path}: version {version}")
    (cfg_len,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    cfg = _config_from_json(raw[pos:pos + cfg_len].decode())
    pos += cfg_len
    (n_params,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    values = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        name = raw[pos:pos + name_len].decode()
        pos += name_len
        (rank,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        shape = struct.unpack_from(f"<{rank}I", raw, pos)
        pos += 4 * rank
        count = int(np.prod(shape)) if rank else 1
        values[name] = np.frombuffer(raw, dtype="<f8", count=count,
                                     offset=pos).reshape(shape).copy()
        pos += 8 * count
    if pos != len(raw) - 4:
        raise CorruptCheckpointError(f"{path}: trailing or missing bytes")
    model = NeurPhyModel(cfg.model, np.random.default_rng(0))
    for name, p in model.parameters():
        if name not in values:
            raise CorruptCheckpointError(f"{path}: missing parameter {name}")
        p.value = values[name]
    return model, cfg
