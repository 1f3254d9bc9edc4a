"""Quantitative evaluation: polynomial R^2 fits of learned representations,
per-overshoot rollout MSE tables, KL reports, and manifold CSV exports.

Every readout reads one EvalStage, is forward-only (autodiff.no_grad) and runs
over the stage's tasks in chunks, capped by training.CHUNK_ROWS as training's
are: each network is called once per chunk (the transition once per step).
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .artifacts import write_csv
from .autodiff import Tensor
from .model import ContextBatch
from .physics import frame_pairs, select_contexts, split_indices
from .training import (TrainConfig, _chunks, _stack, draw_noise, eligible_frames, overshoot,
                       split_frames, task_means)


class DegenerateTargetError(Exception):
    pass


class NoScoredFramesError(ValueError):
    """An evaluation stage whose tasks have no frame to score."""


class UnderdeterminedFitError(ValueError):
    """Fewer samples than the polynomial fit has coefficients, plus one."""


@dataclass(frozen=True)
class Stage:
    meta_test: bool  # score the held-out tasks of split_meta, else the meta-train ones
    ctx_mode: str  # select_contexts mode
    n_c: int | None  # context pairs; None means the run's own n_c
    frames: str  # "targets" or "heldout" of split_frames, or "all" eligible frames


# What each evaluation stage scores, for every metric and export of that stage.
STAGES = {
    "training": Stage(False, "train_random", None, "targets"),
    "test": Stage(False, "train_random", None, "heldout"),
    "metatest20": Stage(True, "metatest_prefix", 20, "all"),
    "metatest2": Stage(True, "metatest_prefix", 2, "all"),
}
META_TRAIN_RATIO = 0.9


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


def stage_tasks(tasks, stage, seed):
    """The side of the seeded meta split (split_meta's) that a stage scores.
    Only that side is indexed, so of a physics.TaskFile only the stage's
    records are decoded."""
    side = split_indices(len(tasks), META_TRAIN_RATIO, seed)[STAGES[stage].meta_test]
    return [tasks[i] for i in side]


def stage_n_c(stage, run_n_c):
    """Context pairs a stage draws, given the n_c the run was trained with."""
    n_c = STAGES[stage].n_c
    return run_n_c if n_c is None else n_c


def context_for_stage(task, stage, n_c, seed):
    return select_contexts(task, n_c, STAGES[stage].ctx_mode, seed + task.task_id)


def stage_frames(task, stage, D, fraction, seed):
    """Which frames are scored per stage: the seeded target/heldout split for
    training/test, every eligible frame for meta-test."""
    targets, heldout = split_frames(task.length, D, fraction, seed + task.task_id)
    return {"targets": targets, "heldout": heldout,
            "all": eligible_frames(task.length, D)}[STAGES[stage].frames]


@dataclass(frozen=True)
class EvalStage:
    """What every readout of a stage reads, drawn once by draw: the stage's
    tasks, each task's stage_frames, and r_c, one row per task."""

    name: str
    cfg: TrainConfig  # the run's D, n_c (through stage_n_c) and target_fraction
    seed: int
    tasks: list
    frames: list
    r_c: np.ndarray

    @classmethod
    @ad.no_grad()
    def draw(cls, model, tasks, stage, cfg, seed):
        n_c = stage_n_c(stage, cfg.n_c)
        ctxs = [context_for_stage(task, stage, n_c, seed) for task in tasks]
        return cls(stage, cfg, seed, tasks,
                   [stage_frames(task, stage, cfg.D, cfg.target_fraction, seed) for task in tasks],
                   np.concatenate([model.encode_context(ContextBatch.of(chunk)).value
                                   for chunk in _chunks(ctxs, lambda ctx: n_c)]))


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
    start frame t-d is one chain of model.mean_chains, rolled only as far as
    its furthest scored distance, and distance d of frame t is read at step d
    of t-d's chain.
    """
    D = s.cfg.D
    sq_sums = np.zeros(D + 1)
    count = 0  # entries scored, the same at every distance
    for chunk in _scored_chunks(s):
        tasks, frames, r_c = zip(*chunk)
        obs, scored = _stack(tasks, frames)
        n = scored.size
        task_of = np.repeat(np.arange(len(tasks)), [f.size for f in frames])
        # back[i, j]: the start of distance D-i of scored frame j, as a row of
        # obs. Taken in row order, each start first appears at its depth, the
        # largest distance it is read at, so that order is deepest first.
        back = (scored[None, :] - np.arange(D, -1, -1)[:, None]).ravel()
        _, first, inverse = np.unique(back, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)  # each start's place in that order
        rank[order] = np.arange(order.size)
        first = first[order]
        starts, depth = back[first], D - first // n
        latents = model.mean_chains(frame_pairs(obs, starts),
                                    np.stack(r_c)[task_of[first % n]], depth)
        read = rank[inverse].reshape(D + 1, n)[::-1]  # read[d, j]: distance d of frame j
        pred = model.decode(Tensor(np.concatenate([latent[r] for latent, r in zip(latents, read)])))
        err = pred.value.reshape(D + 1, n, -1) - obs[scored]
        sq_sums += np.sum(err ** 2, axis=(1, 2))
        count += err[0].size
    return MseTable(stage=s.name, mse=list(sq_sums / count))


@ad.no_grad()
def kl_report(model, s):
    """Mean unweighted KL per overshoot distance: training's overshoot
    schedule over chunks of tasks, with the noise elbo_loss would draw task
    by task, averaged over each task's own rows and then over tasks."""
    rng = np.random.default_rng(s.seed)
    kls = []
    for chunk in _scored_chunks(s):
        tasks, frames, r_c = zip(*chunk)
        sizes = [f.size for f in frames]
        obs, targets = _stack(tasks, frames)
        noises = [draw_noise(rng, size, s.cfg.D, model.cfg.dim_z) for size in sizes]
        _, kl_rows = overshoot(model, obs, targets, Tensor(np.stack(r_c)), s.cfg, noises, sizes)
        means = [task_means(kl.value, sizes) for kl in kl_rows]
        kls.extend([float(m[i]) for m in means] for i in range(len(sizes)))
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
    write_csv(global_path, [f"r_c_{i}" for i in range(model.cfg.dim_r)] + global_keys,
              ([*r_c, *(task.globals[k] for k in global_keys)]
               for r_c, task in zip(s.r_c, s.tasks)))
    write_csv(state_path, ["task_id"] + [f"z_{i}" for i in range(model.cfg.dim_z)]
              + [f"state_{i}" for i in range(s.tasks[0].states.shape[1])],
              ([task.task_id, *z[t - 1], *task.states[t]]
               for task, z in zip(s.tasks, zs) for t in range(1, task.length)))


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
