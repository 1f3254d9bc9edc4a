"""Overshooting ELBO assembly, the optimization loop, checkpoint/metrics IO, and
the stage table (STAGES) of what training and each evaluation stage draw."""

import ctypes
import dataclasses
import json
import math
import os
import signal
import struct
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .artifacts import write_atomic, write_csv
from .autodiff import NonFiniteError, Tensor
from .model import ContextBatch, ModelConfig, NeurPhyModel
from .nn import Adam, DiagGaussian, gaussian_obs_nll, kl_diag_gauss, reparameterize
from .physics import DegenerateSplitError, frame_pairs, select_contexts, split_indices

CHECKPOINT_MAGIC = b"NPHY"
CHECKPOINT_VERSION = 1
CHECKPOINT_FILE = "model.ckpt"  # the files train writes into a run directory
METRICS_FILE = "metrics.csv"

# Cap on a chunk's rows: the sum over its tasks of each task's largest network
# input, which bounds every network input of the chunk. It keeps the
# activations of one call to about a megabyte per hidden layer. Training and
# the evaluation readouts split their tasks into chunks by it.
CHUNK_ROWS = 1024

# glibc's mallopt parameter numbers
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


class CheckpointError(Exception):
    pass


class CorruptCheckpointError(CheckpointError):
    pass


class FormatVersionMismatchError(CheckpointError):
    pass


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
        if self.D < 0 or self.n_c < 1:
            raise ValueError(f"D must be at least 0 and n_c at least 1, got {self.D} "
                             f"and {self.n_c}")
        if self.beta is None:
            self.beta = [1.0] * self.D
        if len(self.beta) != self.D:
            raise ValueError(f"need {self.D} beta weights, got {len(self.beta)}")
        if self.batch_tasks < 1:
            raise ValueError(f"batch_tasks must be at least 1, got {self.batch_tasks}")
        if not (0 < self.sigma_obs < np.inf and 0 < self.lr < np.inf):
            raise ValueError(f"sigma_obs and lr must be positive and finite, got "
                             f"{self.sigma_obs} and {self.lr}")
        if not np.all(np.isfinite(self.beta)):
            raise ValueError(f"beta weights must be finite, got {self.beta}")
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


def eligible_frames(T, D):
    """The frames t >= D+1 of a length-T task: those whose recognition pair
    (x_{t-d-1}, x_{t-d}) exists for every overshoot d <= D."""
    return np.arange(D + 1, T)


def split_frames(T, D, fraction, seed):
    """Seeded split of the eligible frames into (targets, heldout)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    eligible = eligible_frames(T, D)
    if eligible.size == 0:
        raise DegenerateSplitError(f"no eligible frames for T={T}, D={D}")
    order = np.random.default_rng(seed).permutation(eligible.size)
    n_target = max(1, int(fraction * eligible.size))
    targets = np.sort(eligible[order[:n_target]])
    heldout = np.sort(eligible[order[n_target:]])
    return targets, heldout


@dataclass(frozen=True)
class Stage:
    meta_test: bool  # score the held-out side of split_indices, else the meta-train side
    ctx_mode: str  # select_contexts mode
    n_c: int | None  # context pairs; None means the run's own n_c
    frames: str  # "targets" or "heldout" of split_frames, or "all" eligible frames

    def draw(self, task, cfg, ctx_seed, frame_seed):
        """(context set, frames scored) of one task, for a run trained with
        cfg: its contexts drawn with ctx_seed, then every eligible frame, or a
        side of split_frames drawn with frame_seed."""
        ctx = select_contexts(task, cfg.n_c if self.n_c is None else self.n_c, self.ctx_mode,
                              ctx_seed)
        if self.frames == "all":
            return ctx, eligible_frames(task.length, cfg.D)
        targets, heldout = split_frames(task.length, cfg.D, cfg.target_fraction, frame_seed)
        return ctx, targets if self.frames == "targets" else heldout


# What training draws for each minibatch task, and what each evaluation stage
# scores, for every metric and export of that stage.
STAGES = {
    "training": Stage(False, "train_random", None, "targets"),
    "test": Stage(False, "train_random", None, "heldout"),
    "metatest20": Stage(True, "metatest_prefix", 20, "all"),
    "metatest2": Stage(True, "metatest_prefix", 2, "all"),
}
META_TRAIN_RATIO = 0.9


def stage_tasks(tasks, stage, seed):
    """The side of the seeded meta split (physics.split_indices) that a stage
    scores. Only that side is indexed, so of a physics.TaskFile only the
    stage's records are decoded, in the calling process."""
    side = split_indices(len(tasks), META_TRAIN_RATIO, seed)[STAGES[stage].meta_test]
    return [tasks[i] for i in side]


def _rows(g, start, stop):
    return DiagGaussian(ad.slice_rows(g.mean, start, stop), ad.slice_rows(g.std, start, stop))


def _chunks(items, rows):
    """Consecutive runs of items whose rows(item) add up to at most CHUNK_ROWS;
    an item over the cap is a run of its own."""
    chunk, total = [], 0
    for item in items:
        n = rows(item)
        if chunk and total + n > CHUNK_ROWS:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += n
    if chunk:
        yield chunk


def _stack(tasks, frames):
    """The tasks' observations stacked, and each task's frame indices, in
    order, as rows of the stack."""
    offsets = np.cumsum([0] + [task.length for task in tasks[:-1]])
    return (np.concatenate([task.observations for task in tasks]),
            np.concatenate([offset + f for offset, f in zip(offsets, frames)]))


def task_means(values, sizes):
    """Each task's mean over its own rows of values, as tmean takes it; task i
    owns the next sizes[i] rows."""
    bounds = np.cumsum([0, *sizes])
    return np.array([values[lo:hi].mean() for lo, hi in zip(bounds[:-1], bounds[1:])])


def _noise_block(d):
    """draw_noise's block of chain d's recognized draw."""
    return 1 + d * (d - 1) // 2


def draw_noise(rng, n, D, dim_z):
    """One task's reparameterization noise for n target frames: one (n, dim_z)
    block per draw of the per-d loop, in its order. Block 0 is q_now's, and
    chain d's recognized draw and its d-1 step draws are blocks
    _noise_block(d) + k, k = 0..d-1. One call gives the values, and leaves
    rng in the state, that those draws made one by one would."""
    return rng.standard_normal((_noise_block(D + 1), n, dim_z))


def overshoot(model, obs, targets, r_c, cfg, noises, sizes):
    """The triangular overshoot schedule over the target frames of one or more
    tasks (single-sample Monte Carlo throughout).

    For each overshoot d, z is recognized d steps back, carried forward by d-1
    sampled transitions, and one more transition gives the prior that the
    current posterior is matched against.

    obs stacks the tasks' observations, and targets indexes its rows task by
    task, sizes[i] of them task i's. r_c has one row per task, and noises
    holds each task's draw_noise.

    One recognize call covers the N targets' pairs for d = 0, D, D-1, ..., 1,
    one contiguous block of N rows each. At transition step k = 1..D the rows
    of every d >= k advance together: the last block (d = k) is that step's
    prior and the rest are carried forward. Each row takes the noise that the
    per-d loop over its own task would draw, so this equals that loop up to
    rounding.

    Returns (z_now, kl_rows): the posterior sample at the targets, and per d
    the unweighted KL of every target row.
    """
    n, D = targets.size, cfg.D
    noise = np.concatenate(noises, axis=1)  # each block's rows task by task
    owner = np.repeat(np.arange(len(sizes)), sizes)

    back = np.concatenate([targets[None, :], targets - np.arange(D, 0, -1)[:, None]]).ravel()
    q_all = model.recognize(frame_pairs(obs, back))
    z_all = reparameterize(q_all, noise[[0, *map(_noise_block, range(D, 0, -1))]]
                           .reshape((D + 1) * n, -1))
    q_now = _rows(q_all, 0, n)

    kl_rows = []
    z = ad.slice_rows(z_all, n, (D + 1) * n)  # chains d = D..1
    for k in range(1, D + 1):
        # each task's r_c, repeated for its rows of every chain block
        dist = model.transition(z, ad.take_rows(r_c, np.tile(owner, D - k + 1)))
        carried = (D - k) * n  # rows of chains d = D..k+1
        kl_rows.append(kl_diag_gauss(q_now, _rows(dist, carried, carried + n)))
        if k < D:
            z = reparameterize(_rows(dist, 0, carried),
                               noise[[_noise_block(d) + k for d in range(D, k, -1)]]
                               .reshape(carried, -1))
    return ad.slice_rows(z_all, 0, n), kl_rows


def elbo_loss(model, tasks, ctxs, targets, noises, cfg, weight):
    """The weighted sum of several tasks' overshooting ELBOs, as one graph.

    A task's ELBO is its reconstruction NLL plus its beta-weighted KL terms,
    each a mean over its own target frames; each row of task i enters the sum
    with weight / n_i. ctxs, targets and noises hold each task's context set,
    target frames and draw_noise.

    Returns (sum Tensor for backward, one LossBreakdown per task with
    unweighted KLs).
    """
    sizes = [frames.size for frames in targets]
    obs, rows = _stack(tasks, targets)
    r_c = model.encode_context(ContextBatch.of(ctxs))
    z_now, kl_rows = overshoot(model, obs, rows, r_c, cfg, noises, sizes)
    recon = gaussian_obs_nll(obs[rows], model.decode(z_now), cfg.sigma_obs)
    w = Tensor(np.repeat(weight / np.asarray(sizes, dtype=np.float64), sizes))
    total = ad.tsum(ad.mul(recon, w))
    for d, kl in enumerate(kl_rows):
        total = ad.add(total, ad.scale(ad.tsum(ad.mul(kl, w)), cfg.beta[d] / cfg.D))

    recons = task_means(recon.value, sizes)
    kls = [task_means(kl.value, sizes) for kl in kl_rows]
    totals = recons
    for d, kl in enumerate(kls):
        totals = totals + kl * (cfg.beta[d] / cfg.D)
    return total, [LossBreakdown(recon=float(recons[i]), kl=[float(kl[i]) for kl in kls],
                                 total=float(totals[i])) for i in range(len(tasks))]


def chunk_gradient(model, cfg):
    """The function that computes one backward_batch job, in this process or
    in the worker's: it loads the job's parameter values into model, clears
    .grad, runs elbo_loss, looked up at each call so a patch of it applies,
    and backward, and returns (the gradient of each parameter, None where the
    chunk's graph does not reach it; the chunk's LossBreakdowns)."""
    params = [p for _, p in model.parameters()]

    def gradient(job):
        values, weight, *chunk = job
        for p, value in zip(params, values):
            p.value, p.grad = value, None
        total, breakdowns = elbo_loss(model, *chunk, cfg, weight)
        ad.backward(total)
        return [p.grad for p in params], breakdowns

    return gradient


def backward_batch(model, batch, cfg, rng, worker):
    """Set the parameters' .grad to the gradient of the minibatch's mean ELBO,
    with one graph and one backward per chunk of its tasks; None for a
    parameter that no chunk's graph reaches.

    For each task in turn, rng draws the context seed, then the frame seed,
    with which STAGES["training"] draws the task's contexts and target frames,
    then the task's noise, as a per-task loop would. Only then are the tasks
    cut into chunks, by the rows of each task's largest network input, so
    every draw is made before any chunk runs.

    Each chunk is a job of chunk_gradient(model, cfg), run by worker's map: a
    _Worker, which may compute the later half in its child, or with fork off
    computes every job here. Each chunk's gradient is added into one sum per
    parameter, in chunk order and in place, wherever it ran, so .grad is the
    same either way. Returns each task's LossBreakdown.
    """
    drawn = []
    for task in batch:
        ctx_seed = int(rng.integers(2 ** 31))
        frame_seed = int(rng.integers(2 ** 31))
        ctx, targets = STAGES["training"].draw(task, cfg, ctx_seed, frame_seed)
        drawn.append((task, ctx, targets, draw_noise(rng, targets.size, cfg.D, model.cfg.dim_z)))
    params = [p for _, p in model.parameters()]
    # one list object in every job, so a pickle of the jobs holds the values once
    values, weight = [p.value for p in params], 1.0 / len(batch)
    jobs = [(values, weight, *zip(*chunk)) for chunk in _chunks(
        drawn, lambda item: max(item[1].n_c, (cfg.D + 1) * item[2].size))]
    sums, breakdowns = [None] * len(params), []
    for grads, chunk_breakdowns in worker.map(jobs):
        for i, g in enumerate(grads):
            if sums[i] is None:
                sums[i] = g  # an array of this chunk's own
            elif g is not None:
                sums[i] += g
        breakdowns.extend(chunk_breakdowns)
        del grads, g  # so that no chunk's gradient stays alive while the next one runs
    for p, total in zip(params, sums):
        p.grad = total
    return breakdowns


def _worker_allowed():
    """Whether this process may fork a _Worker's child: on Linux, with two or
    more CPUs to run on, from a process with one thread. fork copies only the
    calling thread, so a lock that another thread (a BLAS pool's, say) held
    would stay held in the child; with BLAS pinned to one thread the process
    has one."""
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc to count threads in
        return False


class _Worker:
    """map(jobs) yields fn(job) for each job, in order, each computed as it is
    asked for. Given fork, two or more jobs and _worker_allowed, one child
    process (called name) computes the later half of the jobs while this
    process computes the earlier half. The child is forked at the first such
    map and inherits fn, the allocator policy and that map's half; later maps
    send it their half through the pipe, and it sends back the results.

    An exception fn raises in the child is re-raised here once this process's
    half is done, so the first job in order that raises is the one whose
    exception is raised, as in a loop; a child that has exited raises a
    ChildProcessError naming its exit code. Any exception out of map, and the
    end of a with block, stop the child."""

    def __init__(self, name, fn, fork=True):
        self.name, self.fn, self.fork = name, fn, fork
        self._proc = self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def map(self, jobs):
        own = len(jobs)
        if self.fork and own > 1 and _worker_allowed():
            own = (own + 1) // 2
            self._submit(jobs[own:])
        try:
            for job in jobs[:own]:
                yield self.fn(job)
            for _ in jobs[own:]:
                yield self._receive()
        except BaseException:  # GeneratorExit too: the child's results would be left unread
            self.close()
            raise

    def _submit(self, jobs):
        """Hand the child jobs: it is forked with them the first time."""
        if self._proc is None:
            self._fork(jobs)
            return
        try:
            self._conn.send(jobs)
        except OSError:  # a broken pipe: the child is gone
            raise self._died() from None

    def _fork(self, jobs):
        import multiprocessing  # here: importing it costs every CLI call ~10 ms
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=self._child_loop, name=self.name, daemon=True,
                                 args=(child_end, jobs))
        # SIGINT stays blocked in the child until it ignores it: Ctrl-C is
        # the parent's to handle
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self._proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child_end.close()

    def _child_loop(self, conn, jobs):
        """The child's loop: answer a list of jobs, then wait for the next. It
        ends when the parent closes its end."""
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        self._conn.close()  # so the parent closing its end is EOF here
        try:
            while True:
                self._answer(conn, jobs)
                jobs = conn.recv()
        except (EOFError, OSError):
            pass  # the parent closed its end

    def _answer(self, conn, jobs):
        """fn of each job in turn, then one message per job, in order. An
        exception stops the jobs and is sent in place of the job that raised
        it. Nothing is sent before the last job is done: a message larger than
        the pipe holds, sent while the parent still computes, would stall this
        process. The results are freed as this returns, so they are not held
        while the child waits for the next list."""
        results = []
        try:
            for job in jobs:
                results.append(self.fn(job))
        except Exception as exc:
            results.append(exc)
        for result in results:
            conn.send(result)

    def _receive(self):
        """The child's next result; re-raises an exception it sent in its
        place, and raises a ChildProcessError if it has exited."""
        try:
            result = self._conn.recv()
        except (EOFError, OSError):  # OSError: it exited mid-message
            raise self._died() from None
        if isinstance(result, Exception):
            raise result
        return result

    def _died(self):
        self._proc.join()  # it closes its end only as it exits
        return ChildProcessError(f"the {self.name} process exited with code "
                                 f"{self._proc.exitcode}")

    def close(self):
        # terminated first: a child blocked sending a result that the pipe
        # cannot hold would never exit by itself, and closing the pipe under
        # it would end it with a BrokenPipeError traceback
        if self._proc is not None:
            self._proc.terminate()
            self._conn.close()
            self._proc.join()
            self._proc = None


def fork_map(fn, jobs, fork):
    """[fn(job) for job in jobs], the later half computed by a forked child
    (the evaluation worker) where _Worker would fork one; the child is
    stopped and joined before fork_map returns or raises."""
    with _Worker("evaluation worker", fn, fork) as worker:
        return list(worker.map(jobs))


def _libc_mallopt():
    """The C library's mallopt, or None where it has none (macOS, Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_freed_heap():
    """Keep the heap a training step frees inside the process, so the next
    step reuses it instead of faulting fresh pages in; a process-wide
    allocator policy. Without it glibc returns each backward's freed arrays to
    the kernel: about 1,300 minor page faults per D=5 step. Safe to call more
    than once; does nothing where the C library has no mallopt."""
    mallopt = _libc_mallopt()
    if mallopt is not None:
        # Setting either threshold turns glibc's dynamic thresholds off, so
        # both are set: the mmap threshold to the 32 MiB ceiling the dynamic
        # one climbs to, the trim threshold to twice that, as glibc pairs them.
        mallopt(M_TRIM_THRESHOLD, 64 << 20)
        mallopt(M_MMAP_THRESHOLD, 32 << 20)


def train(tasks, cfg, run_dir=None):
    """Run the optimization loop; returns (model, per-epoch LossBreakdown history).

    Contexts and target frames are freshly drawn each epoch. All randomness
    comes from cfg.seed, so identical config gives identical history.

    Given run_dir, it writes CHECKPOINT_FILE there every checkpoint_every
    epochs and at the end, each epoch's model at most once, and METRICS_FILE
    for the completed epochs however the loop ends, a NonFiniteError or
    KeyboardInterrupt included.

    Sets a process-wide allocator policy first (keep_freed_heap): freed heap
    stays in the process for the rest of its life.

    Its minibatches run through one _Worker (the training worker): where
    _worker_allowed, the first minibatch that spans two or more chunks forks
    its child, which computes the later half of each such minibatch's chunks
    and is stopped and joined before train returns or raises; the result is
    the same either way.
    """
    if not tasks:
        raise ValueError("need at least one task")
    keep_freed_heap()
    rng = np.random.default_rng(cfg.seed)
    model = NeurPhyModel(cfg.model, rng)
    opt = Adam(model.parameters(), lr=cfg.lr)
    history = []
    ckpt = os.path.join(run_dir, CHECKPOINT_FILE) if run_dir else None
    try:
        with _Worker("training worker", chunk_gradient(model, cfg)) as worker:
            for epoch in range(cfg.epochs):
                order = rng.permutation(len(tasks))
                breakdowns = []
                for lo in range(0, len(tasks), cfg.batch_tasks):
                    breakdowns.extend(backward_batch(
                        model, [tasks[i] for i in order[lo:lo + cfg.batch_tasks]], cfg, rng,
                        worker))
                    opt.step()
                history.append(LossBreakdown(
                    recon=float(np.mean([b.recon for b in breakdowns])),
                    kl=[float(np.mean([b.kl[d] for b in breakdowns]))
                        for d in range(cfg.D)],
                    total=float(np.mean([b.total for b in breakdowns])),
                ))
                if (ckpt and cfg.checkpoint_every > 0 and (epoch + 1) % cfg.checkpoint_every == 0
                        and epoch + 1 < cfg.epochs):  # the last epoch's is saved below
                    checkpoint_save(model, cfg, ckpt)
            if ckpt:
                checkpoint_save(model, cfg, ckpt)
    finally:
        if run_dir:
            write_metrics_csv(history, cfg.D, os.path.join(run_dir, METRICS_FILE))
    return model, history


def write_metrics_csv(history, D, path):
    header = ["epoch", "recon"] + [f"kl{d}" for d in range(1, D + 1)] + ["total"]
    rows = [[epoch, br.recon, *br.kl, br.total] for epoch, br in enumerate(history)]
    write_csv(path, header, rows)


def _u32(*values):
    """values as consecutive little-endian uint32s, as the checkpoint stores integers."""
    return struct.pack(f"<{len(values)}I", *values)


def checkpoint_save(model, cfg, path):
    cfg_bytes = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    params = model.parameters()
    body = bytearray(CHECKPOINT_MAGIC + _u32(CHECKPOINT_VERSION, len(cfg_bytes)) + cfg_bytes
                     + _u32(len(params)))
    for name, p in params:
        name_bytes = name.encode()
        body += _u32(len(name_bytes)) + name_bytes + _u32(p.value.ndim, *p.value.shape)
        body += np.ascontiguousarray(p.value, dtype="<f8").tobytes()
    body += _u32(zlib.crc32(bytes(body)))
    write_atomic(path, bytes(body))


def _read_body(raw):
    """(config, parameter arrays by name) from the bytes after the version;
    ValueError or TypeError if they are not what checkpoint_save writes."""
    pos = 8

    def take(n):
        nonlocal pos
        if pos + n > len(raw) - 4:
            raise ValueError("missing bytes")
        pos += n
        return raw[pos - n:pos]

    def u32s(n):
        return struct.unpack(f"<{n}I", take(4 * n))

    d = json.loads(take(u32s(1)[0]).decode())
    if not isinstance(d, dict) or not isinstance(d.get("model"), dict):
        raise ValueError("config is not an object with a model object")
    cfg = TrainConfig(model=ModelConfig(**d.pop("model")), **d)
    values = {}
    for _ in range(u32s(1)[0]):
        name = take(u32s(1)[0]).decode()
        shape = u32s(u32s(1)[0])
        values[name] = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
    if pos != len(raw) - 4:
        raise ValueError("trailing bytes")
    return cfg, values


def checkpoint_load(path):
    """(model, config) from a file checkpoint_save wrote. CheckpointError if
    it is not one; NonFiniteError, naming the parameter, for a NaN or Inf."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a checkpoint file")
    if zlib.crc32(raw[:-4]) != struct.unpack("<I", raw[-4:])[0]:
        raise CorruptCheckpointError(f"{path}: checksum mismatch")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatVersionMismatchError(f"{path}: version {version}")
    try:
        # a body that passed the checksum but was not written by checkpoint_save
        cfg, values = _read_body(raw)
        model = NeurPhyModel(cfg.model, np.random.default_rng(0))
    except (ValueError, TypeError) as exc:
        raise CorruptCheckpointError(f"{path}: malformed body: {exc}") from exc
    for name, p in model.parameters():
        if name not in values or values[name].shape != p.value.shape:
            raise CorruptCheckpointError(f"{path}: missing or misshapen parameter {name}")
        if not np.all(np.isfinite(values[name])):
            raise NonFiniteError(f"{path}: non-finite values in parameter {name}")
        p.value = values[name]
    return model, cfg
