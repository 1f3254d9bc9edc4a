"""Quantitative evaluation: polynomial R^2 fits of learned representations,
per-overshoot rollout MSE tables, KL reports, and manifold CSV exports.

Every readout reads one EvalStage, is forward-only (autodiff.no_grad) and runs
over the stage's tasks in chunks, capped by training.CHUNK_ROWS as training's
are: each network is called once per chunk (the transition once per step).
A stage's tasks, contexts and frames are those of its row of training.STAGES,
drawn in the calling process; its context encoding and its MSE and KL
readouts, at FORK_TASKS or more tasks, run half their chunks in a child
(training.fork_map); every output is the same.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .artifacts import write_csv
from .autodiff import Tensor
from .model import ContextBatch
from .physics import frame_pairs
from .training import (STAGES, TrainConfig, _chunks, _stack, draw_noise, fork_map, overshoot,
                       task_means)

# Stage size, in tasks, from which the context encoding and the MSE and KL
# readouts split their chunks with a forked child. A fork costs 15-25 ms, mostly
# the parent's copy-on-write faults on heap it shares with the child; it halves
# about 1.6 ms of serial work per task at D=1. Forking the 22-task desk stages
# made their eval slower (D=5: 0.26 -> 0.37 s), so the 25-task desk grid and the
# 66 meta-test tasks of the 651-task grid stay serial. Timed alone in a fresh
# process, the KL fork shows no gain, but in the benchmark chain (one process
# for all four stages) the 651-task eval was slower in 5 of 6 pairs with the KL
# readout serial (1.43 -> 1.50 s) and in 10 of 12 with the context encoding
# serial (1.09 -> 1.17 s), on a 2 vCPU shared VM.
FORK_TASKS = 128


class DegenerateTargetError(Exception):
    pass


class NoScoredFramesError(ValueError):
    """An evaluation stage whose tasks have no frame to score."""


class UnderdeterminedFitError(ValueError):
    """Fewer samples than the polynomial fit has coefficients, plus one."""


@dataclass
class R2Report:
    target: str
    degree: int
    r2: float


@dataclass
class MseTable:
    stage: str
    mse: list  # indexed by overshoot 0..D


def _poly_features(x, degree):
    """Column matrix [1, x_i, (x_i x_j for i<=j)] up to the given degree."""
    n, k = x.shape
    cols = [np.ones(n)]
    cols.extend(x[:, i] for i in range(k))
    if degree >= 2:
        for i in range(k):
            for j in range(i, k):
                cols.append(x[:, i] * x[:, j])
    return np.stack(cols, axis=1)


def fit_poly_r2(features, target, degree, name=""):
    """In-sample R^2 of an OLS polynomial fit with a tiny ridge.

    The ridge enters as extra rows under X, so lstsq never forms X^T X, whose
    condition number is the square of X's.
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    features = np.asarray(features, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTargetError(f"target {name!r} has zero variance")
    X = _poly_features(features, degree)
    k = X.shape[1]
    if X.shape[0] < k + 1:
        raise UnderdeterminedFitError(f"need at least {k + 1} samples, got {X.shape[0]}")
    beta = np.linalg.lstsq(np.vstack([X, 1e-4 * np.eye(k)]),
                           np.concatenate([target, np.zeros(k)]), rcond=None)[0]
    ss_res = float(np.sum((target - X @ beta) ** 2))
    return R2Report(target=name, degree=degree, r2=1.0 - ss_res / ss_tot)


@dataclass(frozen=True)
class EvalStage:
    """What every readout of a stage reads, drawn once by draw: the stage's
    tasks, each task's frames, and r_c, one row per task. draw draws each
    task through training.STAGES, both seeds keyed seed + task_id."""

    name: str
    cfg: TrainConfig  # the run's D, n_c and target_fraction
    seed: int
    tasks: list
    frames: list
    r_c: np.ndarray

    @classmethod
    @ad.no_grad()
    def draw(cls, model, tasks, stage, cfg, seed):
        ctxs, frames = zip(*(STAGES[stage].draw(task, cfg, seed + task.task_id,
                                                seed + task.task_id) for task in tasks))
        r_c = fork_map(lambda chunk: model.encode_context(ContextBatch.of(chunk)).value,
                       list(_chunks(ctxs, lambda ctx: ctx.n_c)), len(tasks) >= FORK_TASKS)
        return cls(stage, cfg, seed, tasks, list(frames), np.concatenate(r_c))


def _scored_chunks(s):
    """Chunks of (task, frames, r_c) of the stage's tasks that score frames."""
    scored = [item for item in zip(s.tasks, s.frames, s.r_c) if item[1].size]
    if not scored:
        raise NoScoredFramesError(f"stage {s.name!r} scores no frames in its {len(s.tasks)} "
                                  f"tasks at D={s.cfg.D}")
    return _chunks(scored, lambda item: (s.cfg.D + 1) * item[1].size)


@ad.no_grad()
def rollout_mse(model, s):
    """MSE of predicting x_t from the frame pair d steps back, for d = 0..D.

    d=0 is recognize-and-decode (reconstruction); d>=1 rolls the latent mean
    forward d steps before decoding. Mean rollouts are deterministic, so each
    start frame is one chain of model.mean_chains, rolled only as deep as the
    deepest distance its stack row is read at, and distance d of frame t is
    read at step d of row t-d's chain.
    """
    D = s.cfg.D

    def chunk_sq_sums(chunk):
        """The chunk's squared errors summed per distance, and how many
        entries each sum has."""
        tasks, frames, r_c = zip(*chunk)
        obs, scored = _stack(tasks, frames)
        depth = np.full(len(obs), -1)  # the deepest distance each row is read at
        for d in range(D + 1):
            depth[scored - d] = d
        # the starts deepest first, ascending rows within a depth
        order = np.argsort(-depth, kind="stable")[:np.count_nonzero(depth >= 0)]
        slot = np.empty_like(depth)  # each start's place in that order
        slot[order] = np.arange(order.size)
        row_r_c = np.repeat(np.stack(r_c), [task.length for task in tasks], axis=0)
        latents = model.mean_chains(frame_pairs(obs, order), row_r_c[order], depth[order])
        pred = model.decode(Tensor(np.concatenate([latent[slot[scored - d]]
                                                   for d, latent in enumerate(latents)])))
        err = pred.value.reshape(D + 1, len(scored), -1) - obs[scored]
        return np.sum(err ** 2, axis=(1, 2)), err[0].size

    sq_sums = np.zeros(D + 1)
    count = 0  # entries scored, the same at every distance
    for chunk_sums, chunk_count in fork_map(chunk_sq_sums, list(_scored_chunks(s)),
                                            len(s.tasks) >= FORK_TASKS):
        sq_sums += chunk_sums
        count += chunk_count
    return MseTable(stage=s.name, mse=list(sq_sums / count))


@ad.no_grad()
def kl_report(model, s):
    """Mean unweighted KL per overshoot distance: training's overshoot
    schedule over chunks of tasks, averaged over each task's rows, then over
    tasks. Each task's noise is one draw_noise from its own generator, keyed
    [seed, task_id] apart from the seed + task_id of its contexts and frames,
    so a task's KL does not depend on the tasks drawn before it."""
    def chunk_kls(chunk):
        """Each task's KL per distance, a row per task of the chunk."""
        tasks, frames, r_c = zip(*chunk)
        sizes = [f.size for f in frames]
        obs, targets = _stack(tasks, frames)
        noises = [draw_noise(np.random.default_rng([s.seed, task.task_id]), size, s.cfg.D,
                             model.cfg.dim_z) for task, size in zip(tasks, sizes)]
        _, kl_rows = overshoot(model, obs, targets, Tensor(np.stack(r_c)), s.cfg, noises, sizes)
        means = [task_means(kl.value, sizes) for kl in kl_rows]
        return [[float(m[i]) for m in means] for i in range(len(sizes))]

    kls = [row for rows in fork_map(chunk_kls, list(_scored_chunks(s)),
                                    len(s.tasks) >= FORK_TASKS)
           for row in rows]
    return list(np.mean(np.asarray(kls), axis=0))


@ad.no_grad()
def export_manifold(model, s, global_path, state_path):
    """Write one CSV row per task (r_c + true globals) and one per frame
    (recognized z mean + true state)."""
    global_keys = list(s.tasks[0].globals.keys())
    zs = []
    for chunk in _chunks(s.tasks, lambda task: task.length - 1):
        obs, frames = _stack(chunk, [np.arange(1, task.length) for task in chunk])
        z = model.recognize(frame_pairs(obs, frames)).mean.value
        zs.extend(np.split(z, np.cumsum([task.length - 1 for task in chunk])[:-1]))
    # rows of Python floats: str spells them faster than numpy's
    write_csv(global_path, [f"r_c_{i}" for i in range(model.cfg.dim_r)] + global_keys,
              ([*r_c, *(task.globals[k] for k in global_keys)]
               for r_c, task in zip(s.r_c.tolist(), s.tasks)))
    write_csv(state_path, ["task_id"] + [f"z_{i}" for i in range(model.cfg.dim_z)]
              + [f"state_{i}" for i in range(s.tasks[0].states.shape[1])],
              ([task.task_id, *z_t, *state]
               for task, z in zip(s.tasks, zs)
               for z_t, state in zip(z.tolist(), task.states[1:].tolist())))


def global_r2_table(s):
    """R^2 of r_c against every ground-truth global, degrees 1 and 2.

    Targets with zero variance and fits with too few tasks for their
    coefficients are left out.
    """
    reports = []
    for key in s.tasks[0].globals.keys():
        target = np.array([task.globals[key] for task in s.tasks])
        for degree in (1, 2):
            try:
                reports.append(fit_poly_r2(s.r_c, target, degree, name=key))
            except (DegenerateTargetError, UnderdeterminedFitError):
                pass
    return reports
