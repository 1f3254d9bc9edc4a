"""Quantitative evaluation: polynomial R^2 fits of learned representations,
per-overshoot rollout MSE tables, KL reports, and manifold CSV exports."""

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .autodiff import Tensor
from .physics import select_contexts, split_meta
from .training import elbo_loss, split_frames


class DegenerateTargetError(Exception):
    pass


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


def rollout_mse(model, tasks, stage, D, n_c=20, fraction=0.9, seed=0):
    """MSE of predicting x_t from the frame pair d steps back, for d = 0..D.

    d=0 is recognize-and-decode (reconstruction); d>=1 rolls the latent mean
    forward d steps before decoding. Mean rollouts are deterministic, so each
    start frame t-d is recognized and rolled D steps once, and distance d is
    read at step d of its chain.
    """
    if not tasks:
        raise ValueError("need at least one task")
    sq_sums = np.zeros(D + 1)
    counts = np.zeros(D + 1)
    for task in tasks:
        frames = stage_frames(task, stage, D, fraction, seed)
        if frames.size == 0:
            continue
        ctx = context_for_stage(task, stage, n_c, seed)
        r_c = model.encode_context(ctx)
        obs = task.observations
        starts = np.unique(frames[None, :] - np.arange(D + 1)[:, None])
        z = model.recognize(np.concatenate([obs[starts - 1], obs[starts]], axis=1)).mean
        latents = [z.value]
        if D >= 1:
            dists, _ = model.rollout(z, r_c, D, mode="mean")
            latents.extend(dist.mean.value for dist in dists)
        pred = model.decode(Tensor(np.concatenate(latents))).value
        pred = pred.reshape(D + 1, starts.size, -1)
        for d in range(D + 1):
            err = pred[d, np.searchsorted(starts, frames - d)] - obs[frames]
            sq_sums[d] += float(np.sum(err ** 2))
            counts[d] += err.size
    return MseTable(stage=stage, mse=list(sq_sums / counts))


def kl_report(model, tasks, stage, cfg, seed=0):
    """Mean unweighted KL per overshoot distance, via the training loss machinery."""
    if not tasks:
        raise ValueError("need at least one task")
    rng = np.random.default_rng(seed)
    n_c = stage_n_c(stage, cfg.n_c)
    kls = []
    for task in tasks:
        frames = stage_frames(task, stage, cfg.D, cfg.target_fraction, seed)
        if frames.size == 0:
            continue
        ctx = context_for_stage(task, stage, n_c, seed)
        _, br = elbo_loss(model, task, ctx, frames, cfg, rng)
        kls.append(br.kl)
    return list(np.mean(np.asarray(kls), axis=0))


def export_manifold(model, tasks, global_path, state_path, n_c=20, seed=0,
                    stage="training"):
    """Write one CSV row per task (r_c + true globals) and one per frame
    (recognized z mean + true state)."""
    global_keys = list(tasks[0].globals.keys())
    r_cs, zs = [], []
    for task in tasks:
        ctx = context_for_stage(task, stage, n_c, seed)
        r_cs.append(model.encode_context(ctx).value)
        obs = task.observations
        pairs = np.concatenate([obs[:-1], obs[1:]], axis=1)
        zs.append(model.recognize(pairs).mean.value)
    write_csv(global_path, [f"r_c_{i}" for i in range(model.cfg.dim_r)] + global_keys,
              ([*r_c, *(task.globals[k] for k in global_keys)]
               for r_c, task in zip(r_cs, tasks)))
    write_csv(state_path, ["task_id"] + [f"z_{i}" for i in range(model.cfg.dim_z)]
              + [f"state_{i}" for i in range(tasks[0].states.shape[1])],
              ([task.task_id, *z[t - 1], *task.states[t]]
               for task, z in zip(tasks, zs) for t in range(1, task.length)))


def global_r2_table(model, tasks, n_c=20, seed=0, stage="training"):
    """R^2 of r_c against every ground-truth global, degrees 1 and 2.

    Targets with zero variance and fits with too few tasks for their
    coefficients are left out.
    """
    features = np.stack([
        model.encode_context(context_for_stage(task, stage, n_c, seed)).value
        for task in tasks])
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
