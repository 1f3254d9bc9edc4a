"""Quantitative evaluation: polynomial R^2 fits of learned representations,
per-overshoot rollout MSE tables, KL reports, and manifold CSV exports.

Every readout is forward-only (autodiff.no_grad) and runs over the stage's
tasks in chunks, capped by training.CHUNK_ROWS as training's are: each network
is called once per chunk (the transition once per step), not once per task.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .artifacts import write_csv
from .autodiff import Tensor
from .model import ContextBatch
from .physics import select_contexts, split_meta
from .training import _chunks, _stack, draw_noise, overshoot, split_frames, task_means


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
    """The side of the seeded meta split that a stage scores."""
    meta_train, meta_test = split_meta(tasks, META_TRAIN_RATIO, seed)
    return meta_test if STAGES[stage].meta_test else meta_train


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
            "all": np.arange(D + 1, task.length)}[STAGES[stage].frames]


def _scored(tasks, stage, D, fraction, seed):
    """(task, frames) for every task in which the stage scores frames."""
    if not tasks:
        raise ValueError("need at least one task")
    scored = [(task, frames) for task in tasks
              if (frames := stage_frames(task, stage, D, fraction, seed)).size]
    if not scored:
        raise NoScoredFramesError(f"stage {stage!r} scores no frames in its {len(tasks)} "
                                  f"tasks at D={D}")
    return scored


def _encode(model, tasks, stage, n_c, seed):
    """Each task's r_c, one row per task, from one context-encoder call."""
    return model.encode_context(ContextBatch.of(
        [context_for_stage(task, stage, n_c, seed) for task in tasks]))


@ad.no_grad()
def rollout_mse(model, tasks, stage, D, n_c=20, fraction=0.9, seed=0):
    """MSE of predicting x_t from the frame pair d steps back, for d = 0..D.

    d=0 is recognize-and-decode (reconstruction); d>=1 rolls the latent mean
    forward d steps before decoding. Mean rollouts are deterministic, so each
    start frame t-d is recognized and rolled D steps once, and distance d is
    read at step d of its chain.
    """
    sq_sums = np.zeros(D + 1)
    counts = np.zeros(D + 1)
    for chunk in _chunks(_scored(tasks, stage, D, fraction, seed),
                         lambda item: max(n_c, (D + 1) * item[1].size)):
        chunk_tasks = [task for task, _ in chunk]
        starts = [np.unique(frames[None, :] - np.arange(D + 1)[:, None]) for _, frames in chunk]
        obs, rows = _stack(chunk_tasks, starts)
        z = model.recognize(np.concatenate([obs[rows - 1], obs[rows]], axis=1)).mean
        latents = [z.value]
        if D >= 1:
            r_c = _encode(model, chunk_tasks, stage, n_c, seed)
            owner = np.repeat(np.arange(len(chunk)), [s.size for s in starts])
            dists, _ = model.rollout(z, ad.take_rows(r_c, owner), D, mode="mean")
            latents.extend(dist.mean.value for dist in dists)
        # decode only what is scored: distance d of frame t, at step d of t-d's chain
        first = np.cumsum([0] + [s.size for s in starts[:-1]])
        read = [np.concatenate([lo + np.searchsorted(s, frames - d)
                                for lo, s, (_, frames) in zip(first, starts, chunk)])
                for d in range(D + 1)]
        pred = model.decode(Tensor(np.concatenate([latent[r] for latent, r in zip(latents, read)])))
        pred = pred.value.reshape(D + 1, read[0].size, -1)
        lo = 0
        for task, frames in chunk:
            for d in range(D + 1):
                err = pred[d, lo:lo + frames.size] - task.observations[frames]
                sq_sums[d] += float(np.sum(err ** 2))
                counts[d] += err.size
            lo += frames.size
    return MseTable(stage=stage, mse=list(sq_sums / counts))


@ad.no_grad()
def kl_report(model, tasks, stage, cfg, seed=0):
    """Mean unweighted KL per overshoot distance: training's overshoot
    schedule over chunks of tasks, with the noise elbo_loss would draw task
    by task, averaged over each task's own rows and then over tasks."""
    scored = _scored(tasks, stage, cfg.D, cfg.target_fraction, seed)
    rng = np.random.default_rng(seed)
    n_c = stage_n_c(stage, cfg.n_c)
    kls = []
    for chunk in _chunks(scored, lambda item: max(n_c, (cfg.D + 1) * item[1].size)):
        chunk_tasks = [task for task, _ in chunk]
        sizes = [frames.size for _, frames in chunk]
        obs, targets = _stack(chunk_tasks, [frames for _, frames in chunk])
        r_c = _encode(model, chunk_tasks, stage, n_c, seed)
        noises = [draw_noise(rng, size, cfg.D, model.cfg.dim_z) for size in sizes]
        _, kl_rows = overshoot(model, obs, targets, r_c, cfg, noises, sizes)
        means = [task_means(kl.value, sizes) for kl in kl_rows]
        kls.extend([float(m[i]) for m in means] for i in range(len(sizes)))
    return list(np.mean(np.asarray(kls), axis=0))


@ad.no_grad()
def export_manifold(model, tasks, global_path, state_path, n_c=20, seed=0,
                    stage="training"):
    """Write one CSV row per task (r_c + true globals) and one per frame
    (recognized z mean + true state)."""
    global_keys = list(tasks[0].globals.keys())
    r_cs, zs = [], []
    for chunk in _chunks(tasks, lambda task: max(n_c, task.length - 1)):
        r_cs.extend(_encode(model, chunk, stage, n_c, seed).value)
        pairs = np.concatenate([np.concatenate([task.observations[:-1], task.observations[1:]],
                                               axis=1) for task in chunk])
        z = model.recognize(pairs).mean.value
        zs.extend(np.split(z, np.cumsum([task.length - 1 for task in chunk])[:-1]))
    write_csv(global_path, [f"r_c_{i}" for i in range(model.cfg.dim_r)] + global_keys,
              ([*r_c, *(task.globals[k] for k in global_keys)]
               for r_c, task in zip(r_cs, tasks)))
    write_csv(state_path, ["task_id"] + [f"z_{i}" for i in range(model.cfg.dim_z)]
              + [f"state_{i}" for i in range(tasks[0].states.shape[1])],
              ([task.task_id, *z[t - 1], *task.states[t]]
               for task, z in zip(tasks, zs) for t in range(1, task.length)))


@ad.no_grad()
def global_r2_table(model, tasks, n_c=20, seed=0, stage="training"):
    """R^2 of r_c against every ground-truth global, degrees 1 and 2.

    Targets with zero variance and fits with too few tasks for their
    coefficients are left out.
    """
    features = np.concatenate([_encode(model, chunk, stage, n_c, seed).value
                               for chunk in _chunks(tasks, lambda task: n_c)])
    reports = []
    for key in tasks[0].globals.keys():
        target = np.array([task.globals[key] for task in tasks])
        if float(np.var(target)) == 0.0:
            continue
        for degree in (1, 2):
            try:
                reports.append(fit_poly_r2(features, target, degree, name=key))
            except UnderdeterminedFitError:
                pass
    return reports
