"""Exact reference simulators and task-grid generators.

Damped pendulum integrated by explicit Euler; bound Kepler orbits advanced by
an Euler angle update with the radius read off the exact conic. These are the
ground-truth oracles for all learning and evaluation, so the update rules are
kept exactly as stated -- no higher-order integrator.
"""

import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_atomic


class PhysicsError(Exception):
    pass


class UnboundOrbitError(PhysicsError):
    """Initial condition yields eccentricity >= 1 (not a bound ellipse)."""


class DegenerateSplitError(PhysicsError):
    pass


class InfeasibleContextError(PhysicsError):
    pass


class CorruptDatasetError(PhysicsError):
    """A JSONL line that does not decode as a task."""


def _check_settings(system, values, positive=(), nonnegative=()):
    """ValueError naming the first of values (setting name -> number) that is
    not finite, or not above 0 if named in positive, or below 0 if named in
    nonnegative."""
    for name, value in values.items():
        if not math.isfinite(value) or (name in positive and value <= 0) \
                or (name in nonnegative and value < 0):
            sign = ("positive " if name in positive else
                    "non-negative " if name in nonnegative else "")
            raise ValueError(f"{system} {name} must be a {sign}finite number, got {value}")


@dataclass
class PendulumParams:
    l: float = 2.0
    m: float = 1.0
    g: float = 10.0
    mu: float = 0.5
    theta0: float = -math.pi
    omega0: float = 4.0
    dt: float = 0.1

    def __post_init__(self):
        _check_settings("pendulum", vars(self), positive=("l", "m", "g", "dt"),
                        nonnegative=("mu",))


@dataclass
class PendulumState:
    theta: float
    omega: float


@dataclass
class OrbitInit:
    r0: float
    v0r: float
    v0theta: float
    GM: float = 1.0
    theta0: float = 0.0

    def __post_init__(self):
        _check_settings("orbit", vars(self), positive=("r0", "v0theta", "GM"))
        if self.theta0 != 0.0:
            raise ValueError(f"orbit theta0 must be 0, got {self.theta0}")


@dataclass
class OrbitParams:
    r_n: float
    e: float
    theta_n: float
    h: float
    GM: float


@dataclass
class OrbitState:
    r: float
    theta: float


@dataclass
class Task:
    task_id: int
    system: str  # "pendulum" | "orbit"
    globals: dict
    states: np.ndarray  # (T, state_dim)
    observations: np.ndarray  # (T, 2)
    dt: float
    seed: int

    @property
    def length(self):
        return self.states.shape[0]


@dataclass
class ContextSet:
    pairs: np.ndarray  # (n_c, 2*obs_dim), row i = [x_{t_i}, x_{t_i+1}]
    indices: np.ndarray  # start indices t_i

    @property
    def n_c(self):
        return self.pairs.shape[0]


def pendulum_step(s, p):
    theta = s.theta + p.dt * s.omega
    omega = s.omega - p.dt * (p.mu / p.m * s.omega + p.g / p.l * math.sin(s.theta))
    return PendulumState(theta, omega)


def pendulum_endpoint(s, p):
    """Endpoint coordinates with the pivot at the origin, y pointing up."""
    return (p.l * math.sin(s.theta), -p.l * math.cos(s.theta))


def pendulum_trajectory(p, T, task_id=0, seed=0):
    if T < 2:
        raise ValueError("trajectory needs T >= 2")
    states = np.empty((T, 2))
    obs = np.empty((T, 2))
    s = PendulumState(p.theta0, p.omega0)
    for t in range(T):
        states[t] = (s.theta, s.omega)
        obs[t] = pendulum_endpoint(s, p)
        s = pendulum_step(s, p)
    return Task(task_id, "pendulum", {"l": p.l, "m": p.m}, states, obs, p.dt, seed)


def orbit_params_from_init(init):
    h = init.r0 * init.v0theta
    energy = 0.5 * (init.v0r ** 2 + init.v0theta ** 2) - init.GM / init.r0
    e_sq = 1.0 + 2.0 * h * h / (init.GM * init.GM) * energy
    if e_sq < -1e-12:
        raise ValueError(f"inconsistent orbit energy: e^2 = {e_sq}")
    e = math.sqrt(max(e_sq, 0.0))
    if e >= 1.0:
        raise UnboundOrbitError(f"eccentricity {e} >= 1 for init {init}")
    r_n = h * h / (init.GM * (1.0 + e))
    if e < 1e-9:
        theta_n = 0.0
    else:
        # e*cos(theta_n) from the conic at theta0=0; e*sin(theta_n) from the
        # radial velocity v_r = (GM/h) e sin(theta - theta_n). atan2 of the two
        # stays accurate at the apsides where a bare arccos loses ~sqrt(eps).
        e_cos_tn = r_n * (1.0 + e) / init.r0 - 1.0
        e_sin_tn = -init.v0r * h / init.GM
        theta_n = math.atan2(e_sin_tn, e_cos_tn)
        if theta_n <= -math.pi:
            theta_n = math.pi
    return OrbitParams(r_n=r_n, e=e, theta_n=theta_n, h=h, GM=init.GM)


def conic_radius(p, theta):
    return p.r_n * (1.0 + p.e) / (1.0 + p.e * math.cos(theta - p.theta_n))


def orbit_step(s, p, dt):
    theta = s.theta + dt * p.h / (s.r * s.r)
    return OrbitState(conic_radius(p, theta), theta)


def orbit_trajectory(init, T, dt, task_id=0, seed=0):
    _check_settings("orbit", {"dt": dt}, positive=("dt",))
    if T < 2:
        raise ValueError("trajectory needs T >= 2")
    p = orbit_params_from_init(init)
    states = np.empty((T, 2))
    obs = np.empty((T, 2))
    s = OrbitState(init.r0, 0.0)
    for t in range(T):
        states[t] = (s.r, s.theta)
        obs[t] = (s.r * math.cos(s.theta), s.r * math.sin(s.theta))
        s = orbit_step(s, p, dt)
    return Task(task_id, "orbit",
                {"r_n": p.r_n, "e": p.e, "theta_n": p.theta_n},
                states, obs, dt, seed)


@dataclass
class PendulumGridConfig:
    l_range: tuple = (1.0, 3.0)
    l_count: int = 5
    m_range: tuple = (1.0, 4.0)
    m_count: int = 5
    g: float = 10.0
    mu: float = 0.5
    theta0: float = -math.pi
    omega0: float = 4.0
    dt: float = 0.1
    T: int = 101
    seed: int = 0


@dataclass
class OrbitGridConfig:
    r0_range: tuple = (1.5, 2.0)
    r0_count: int = 3
    v0r_range: tuple = (0.0, 0.2)
    v0r_count: int = 3
    v0t_range: tuple = (0.7, 0.8)
    v0t_count: int = 3
    GM: float = 1.0
    dt: float = 0.1
    T: int = 101
    seed: int = 0


def _axis(cfg, system, name):
    """The grid's axis name: <name>_count points spaced evenly over <name>_range."""
    (lo, hi), count = getattr(cfg, f"{name}_range"), getattr(cfg, f"{name}_count")
    if count < 1:
        raise ValueError("grid axis needs at least one point")
    for end in (lo, hi):
        _check_settings(system, {name: end})
    return np.linspace(lo, hi, count)


def generate_task_grid(cfg):
    """Cartesian-product grid of global parameters, one task per point.

    Returns (tasks, skipped) where skipped counts orbit points dropped for
    being unbound (e >= 1). Task ids are assigned in row-major grid order.
    Every point's parameters are checked before any trajectory is built.
    """
    if isinstance(cfg, PendulumGridConfig):
        params = [PendulumParams(l=float(l), m=float(m), g=cfg.g, mu=cfg.mu,
                                 theta0=cfg.theta0, omega0=cfg.omega0, dt=cfg.dt)
                  for l in _axis(cfg, "pendulum", "l") for m in _axis(cfg, "pendulum", "m")]
        return [pendulum_trajectory(p, cfg.T, task_id=i, seed=cfg.seed)
                for i, p in enumerate(params)], 0
    if isinstance(cfg, OrbitGridConfig):
        inits = [OrbitInit(r0=float(r0), v0r=float(v0r), v0theta=float(v0t), GM=cfg.GM)
                 for r0 in _axis(cfg, "orbit", "r0")
                 for v0r in _axis(cfg, "orbit", "v0r")
                 for v0t in _axis(cfg, "orbit", "v0t")]
        tasks = []
        for init in inits:
            try:
                tasks.append(orbit_trajectory(init, cfg.T, cfg.dt, task_id=len(tasks),
                                              seed=cfg.seed))
            except UnboundOrbitError:
                pass
        return tasks, len(inits) - len(tasks)
    raise TypeError(f"unknown grid config {type(cfg)}")


def split_indices(n, ratio, seed):
    """Seeded shuffle of range(n) split into (meta_train, meta_test) index
    arrays; disjoint, covering."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(ratio * n)
    if n_train == 0 or n_train == n:
        raise DegenerateSplitError(f"split {ratio} leaves an empty side for {n} tasks")
    return order[:n_train], order[n_train:]


def split_meta(tasks, ratio, seed):
    """Seeded shuffle then split into (meta_train, meta_test); disjoint, covering."""
    train, test = split_indices(len(tasks), ratio, seed)
    return [tasks[i] for i in train], [tasks[i] for i in test]


def frame_pairs(observations, frames):
    """Each frame t's recognition input: the row [x_{t-1}, x_t] of observations."""
    frames = np.asarray(frames)
    return np.concatenate([observations[frames - 1], observations[frames]], axis=1)


def select_contexts(task, n_c, mode, seed):
    """Draw n_c consecutive-frame pairs.

    train_random draws start indices from the whole sequence; metatest_prefix
    only from the first 21 frames (start index <= 19) so no future leaks in.
    """
    if mode == "train_random":
        limit = task.length - 1
    elif mode == "metatest_prefix":
        limit = min(20, task.length - 1)
    else:
        raise ValueError(f"unknown context mode {mode!r}")
    if n_c < 1 or n_c > limit:
        raise InfeasibleContextError(f"cannot draw {n_c} pairs from {limit} start indices")
    starts = np.sort(np.random.default_rng(seed).choice(limit, size=n_c, replace=False))
    return ContextSet(pairs=frame_pairs(task.observations, starts + 1), indices=starts)


def task_to_json(task):
    """One JSONL record; json spells each float as its shortest round-trip repr."""
    return json.dumps({"task_id": task.task_id, "system": task.system,
                       "globals": task.globals, "states": task.states.tolist(),
                       "observations": task.observations.tolist(), "dt": task.dt,
                       "seed": task.seed}, allow_nan=False)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x):
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def task_from_json(line):
    d = json.loads(line)
    if not (_is_int(d["task_id"]) and _is_int(d["seed"]) and isinstance(d["system"], str)
            and _is_real(d["dt"]) and isinstance(d["globals"], dict)
            and all(_is_real(v) for v in d["globals"].values())):
        raise ValueError("task_id and seed must be integers, system a string, and dt and "
                         "every globals value finite numbers")
    task = Task(task_id=d["task_id"], system=d["system"], globals=d["globals"],
                states=np.asarray(d["states"], dtype=np.float64),
                observations=np.asarray(d["observations"], dtype=np.float64),
                dt=d["dt"], seed=d["seed"])
    if not (task.states.ndim == task.observations.ndim == 2
            and task.length == task.observations.shape[0] >= 2):
        raise ValueError("states and observations must be 2-D with the same rows, at least 2")
    return task


def save_tasks_jsonl(tasks, path):
    write_atomic(path, "".join(task_to_json(task) + "\n" for task in tasks))


class TaskFile(Sequence):
    """A task JSONL file, read once: its sha256 and each record's line.

    A record is a line that is not blank (whitespace only); blank lines are
    skipped. Indexing decodes one record, so a reader decodes only the records
    it takes, and a record that does not decode raises CorruptDatasetError
    naming the file and its line.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as f:
            data = f.read()
        self._sha256 = hashlib.sha256(data).hexdigest()
        self._records = [(number, line) for number, line in enumerate(data.split(b"\n"), 1)
                         if line.strip()]

    def __len__(self):
        return len(self._records)

    def __getitem__(self, i):
        number, line = self._records[i]
        try:
            return task_from_json(line)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise CorruptDatasetError(f"{self.path}, line {number}: {exc!r}") from exc

    def sha256(self):
        return self._sha256


def load_tasks_jsonl(path):
    return list(TaskFile(path))
