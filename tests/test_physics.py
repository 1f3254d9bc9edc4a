import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neurphy import physics
from neurphy.physics import (ContextSet, CorruptDatasetError, InfeasibleContextError,
                             OrbitGridConfig,
                             OrbitInit, OrbitParams, OrbitState,
                             PendulumGridConfig, PendulumParams, PendulumState,
                             TaskFile, UnboundOrbitError, frame_pairs, generate_task_grid,
                             load_tasks_jsonl, orbit_params_from_init, orbit_step,
                             orbit_trajectory, pendulum_endpoint, pendulum_step,
                             pendulum_trajectory, save_tasks_jsonl,
                             select_contexts, split_meta, task_to_json)


def test_pendulum_step_fixed_point():
    s = pendulum_step(PendulumState(0.0, 0.0), PendulumParams())
    assert s.theta == 0.0 and s.omega == 0.0


def test_pendulum_step_hand_values():
    p = PendulumParams(l=2.0, m=1.0, g=10.0, mu=0.5, dt=0.1)
    s = pendulum_step(PendulumState(-math.pi, 4.0), p)
    assert abs(s.theta - (-math.pi + 0.4)) < 1e-9
    assert abs(s.omega - 3.8) < 1e-9


def test_pendulum_step_from_horizontal():
    p = PendulumParams(l=1.0, m=1.0, g=10.0, mu=0.5, dt=0.1)
    s = pendulum_step(PendulumState(math.pi / 2, 0.0), p)
    assert abs(s.theta - math.pi / 2) < 1e-12
    assert abs(s.omega - (-1.0)) < 1e-9


def test_pendulum_trajectory_rest_and_length():
    p = PendulumParams(theta0=0.0, omega0=0.0)
    task = pendulum_trajectory(p, 2)
    assert task.length == 2
    assert np.array_equal(task.states[0], task.states[1])


def test_pendulum_trajectory_matches_step():
    p = PendulumParams(l=2.0, m=1.0)
    task = pendulum_trajectory(p, 101)
    assert np.allclose(task.states[1], [-math.pi + 0.4, 3.8], atol=1e-9)
    assert task.length == 101
    assert task.globals == {"l": 2.0, "m": 1.0}


def test_pendulum_endpoint_convention():
    assert pendulum_endpoint(PendulumState(0.0, 0.0), PendulumParams(l=2.0)) == (0.0, -2.0)
    x, y = pendulum_endpoint(PendulumState(math.pi / 2, 0.0), PendulumParams(l=1.0))
    assert abs(x - 1.0) < 1e-12 and abs(y) < 1e-12
    x, y = pendulum_endpoint(PendulumState(math.pi, 0.0), PendulumParams(l=3.0))
    assert abs(x) < 1e-9 and abs(y - 3.0) < 1e-12


def test_orbit_params_circular():
    p = orbit_params_from_init(OrbitInit(r0=2.0, v0r=0.0, v0theta=1.0 / math.sqrt(2.0)))
    assert abs(p.h - math.sqrt(2.0)) < 1e-12
    assert abs(p.e) < 1e-9
    assert abs(p.r_n - 2.0) < 1e-9
    assert p.theta_n == 0.0


def test_orbit_params_aphelion_start():
    p = orbit_params_from_init(OrbitInit(r0=2.0, v0r=0.0, v0theta=0.7))
    assert abs(p.h - 1.4) < 1e-12
    assert abs(p.e - 0.02) < 1e-9
    assert abs(p.r_n - 1.96 / 1.02) < 1e-9
    assert abs(p.theta_n - math.pi) < 1e-9


def test_orbit_params_h_relation():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        init = OrbitInit(r0=rng.uniform(1.5, 2.0), v0r=rng.uniform(0, 0.2),
                         v0theta=rng.uniform(0.7, 0.8))
        p = orbit_params_from_init(init)
        assert abs(p.h ** 2 - p.GM * (1 + p.e) * p.r_n) < 1e-9 * p.h ** 2


def test_orbit_params_reconstructs_r0_and_vr_sign():
    for seed in range(50):
        rng = np.random.default_rng(seed + 100)
        init = OrbitInit(r0=rng.uniform(1.5, 2.0), v0r=rng.uniform(0, 0.2),
                         v0theta=rng.uniform(0.7, 0.8))
        p = orbit_params_from_init(init)
        r_at_start = physics.conic_radius(p, 0.0)
        assert abs(r_at_start - init.r0) < 1e-9 * init.r0
        if p.e > 1e-9:
            # radial velocity direction: v_r sign matches e*sin(theta0 - theta_n)
            assert math.sin(0.0 - p.theta_n) * init.v0r >= -1e-12


def test_orbit_params_unbound():
    with pytest.raises(UnboundOrbitError):
        orbit_params_from_init(OrbitInit(r0=2.0, v0r=0.0, v0theta=2.0))


def test_orbit_step_circular():
    p = OrbitParams(r_n=2.0, e=0.0, theta_n=0.0, h=math.sqrt(2.0), GM=1.0)
    s = orbit_step(OrbitState(2.0, 0.0), p, 0.1)
    assert abs(s.r - 2.0) < 1e-12
    assert abs(s.theta - 0.1 * math.sqrt(2.0) / 4.0) < 1e-12


def test_orbit_radius_at_aphelion():
    p = orbit_params_from_init(OrbitInit(r0=2.0, v0r=0.0, v0theta=0.7))
    r = physics.conic_radius(p, 0.0)
    assert abs(r - p.r_n * 1.02 / 0.98) < 1e-9


def test_orbit_trajectory_circular_constant_radius():
    task = orbit_trajectory(OrbitInit(r0=2.0, v0r=0.0, v0theta=1.0 / math.sqrt(2.0)),
                            3, 0.1)
    assert np.allclose(task.states[:, 0], 2.0, atol=1e-12)


def test_orbit_trajectory_invariants():
    task = orbit_trajectory(OrbitInit(r0=2.0, v0r=0.0, v0theta=0.7), 101, 0.1)
    r, theta = task.states[:, 0], task.states[:, 1]
    assert np.all(np.diff(theta) > 0)
    rn, e = task.globals["r_n"], task.globals["e"]
    assert np.all(r >= rn - 1e-9)
    assert np.all(r <= rn * (1 + e) / (1 - e) + 1e-9)
    # polar -> Cartesian identity
    assert np.max(np.abs(np.linalg.norm(task.observations, axis=1) - r)) < 1e-12
    # radius equals the conic at the current angle (by construction)
    p = orbit_params_from_init(OrbitInit(r0=2.0, v0r=0.0, v0theta=0.7))
    conic = np.array([physics.conic_radius(p, t) for t in theta])
    assert np.max(np.abs(conic - r) / r) < 1e-12


def test_pendulum_grid_cardinality():
    tasks, skipped = generate_task_grid(PendulumGridConfig(l_count=3, m_count=3, T=5))
    assert len(tasks) == 9 and skipped == 0
    assert [t.task_id for t in tasks] == list(range(9))


def test_paper_scale_pendulum_grid_is_651():
    tasks, _ = generate_task_grid(PendulumGridConfig(l_count=21, m_count=31, T=2))
    assert len(tasks) == 651


def test_orbit_grid_contains_circular_point():
    cfg = OrbitGridConfig(r0_range=(2.0, 2.0), r0_count=1,
                          v0r_range=(0.0, 0.0), v0r_count=1,
                          v0t_range=(1.0 / math.sqrt(2.0), 0.8), v0t_count=2, T=5)
    tasks, skipped = generate_task_grid(cfg)
    assert skipped == 0
    assert abs(tasks[0].globals["e"]) < 1e-9


def test_orbit_grid_skips_unbound():
    cfg = OrbitGridConfig(r0_range=(2.0, 2.0), r0_count=1,
                          v0r_range=(0.0, 0.0), v0r_count=1,
                          v0t_range=(0.7, 2.0), v0t_count=2, T=5)
    tasks, skipped = generate_task_grid(cfg)
    assert len(tasks) == 1 and skipped == 1


def test_grid_determinism():
    a, _ = generate_task_grid(PendulumGridConfig(l_count=2, m_count=2, T=10))
    b, _ = generate_task_grid(PendulumGridConfig(l_count=2, m_count=2, T=10))
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.observations, tb.observations)


def test_split_meta():
    tasks, _ = generate_task_grid(PendulumGridConfig(l_count=5, m_count=2, T=2))
    train, test = split_meta(tasks, 0.9, seed=3)
    assert len(train) == 9 and len(test) == 1
    train2, test2 = split_meta(tasks, 0.9, seed=3)
    assert [t.task_id for t in train] == [t.task_id for t in train2]
    ids = sorted(t.task_id for t in train + test)
    assert ids == list(range(10))


def test_split_meta_two_tasks():
    tasks, _ = generate_task_grid(PendulumGridConfig(l_count=2, m_count=1, T=2))
    train, test = split_meta(tasks, 0.5, seed=0)
    assert len(train) == 1 and len(test) == 1


def test_frame_pairs_rows():
    obs = np.arange(10.0).reshape(5, 2)
    assert np.array_equal(frame_pairs(obs, [1, 4]), [[0, 1, 2, 3], [6, 7, 8, 9]])
    assert frame_pairs(obs, np.arange(1, 5)).shape == (4, 4)


@pytest.mark.parametrize("make,message", [
    (lambda: PendulumParams(dt=float("nan")), "pendulum dt must be a positive finite number"),
    (lambda: PendulumParams(omega0=float("inf")), "pendulum omega0 must be a finite number"),
    (lambda: PendulumParams(mu=-0.1), "pendulum mu must be a non-negative finite number"),
    (lambda: OrbitInit(r0=2.0, v0r=float("nan"), v0theta=0.7), "orbit v0r must be a finite"),
    (lambda: OrbitInit(r0=2.0, v0r=0.0, v0theta=0.7, GM=0.0), "orbit GM must be a positive"),
    (lambda: orbit_trajectory(OrbitInit(r0=2.0, v0r=0.0, v0theta=0.7), 5, 0.0),
     "orbit dt must be a positive finite number"),
], ids=["pendulum-dt", "pendulum-omega0", "pendulum-mu", "orbit-v0r", "orbit-GM", "orbit-dt"])
def test_bad_physics_settings_are_named(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_select_contexts_prefix_window():
    task = pendulum_trajectory(PendulumParams(), 101)
    ctx = select_contexts(task, 20, "metatest_prefix", seed=4)
    assert ctx.n_c == 20
    assert np.all(ctx.indices <= 19)


def test_select_contexts_single_pair():
    task = pendulum_trajectory(PendulumParams(), 2)
    ctx = select_contexts(task, 1, "train_random", seed=0)
    assert np.array_equal(ctx.pairs[0],
                          np.concatenate([task.observations[0], task.observations[1]]))


def test_select_contexts_deterministic_and_infeasible():
    task = pendulum_trajectory(PendulumParams(), 101)
    a = select_contexts(task, 20, "train_random", seed=9)
    b = select_contexts(task, 20, "train_random", seed=9)
    assert np.array_equal(a.indices, b.indices)
    with pytest.raises(InfeasibleContextError):
        select_contexts(task, 21, "metatest_prefix", seed=0)


def test_jsonl_round_trip_bit_exact(tmp_path):
    tasks, _ = generate_task_grid(PendulumGridConfig(l_count=2, m_count=2, T=20))
    path = tmp_path / "tasks.jsonl"
    save_tasks_jsonl(tasks, path)
    loaded = load_tasks_jsonl(path)
    for a, b in zip(tasks, loaded):
        assert a.task_id == b.task_id and a.system == b.system
        assert a.globals == b.globals
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)
    # re-serialization is byte-identical
    path2 = tmp_path / "tasks2.jsonl"
    save_tasks_jsonl(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_jsonl_of_earlier_versions_loads_the_same_tasks(tmp_path):
    # earlier versions spelled every float format(v, ".17g"): 1.0 as 1, 0.1 as
    # 0.10000000000000001
    def old(v):
        return format(float(v), ".17g")

    def old_rows(a):
        return "[" + ", ".join("[" + ", ".join(map(old, row)) + "]" for row in a) + "]"

    tasks, _ = generate_task_grid(OrbitGridConfig(r0_count=1, v0r_count=1, v0t_count=1, T=6))
    tasks += generate_task_grid(PendulumGridConfig(l_count=2, m_count=1, T=6))[0]
    path = tmp_path / "old.jsonl"
    path.write_text("".join(
        f'{{"task_id": {t.task_id}, "system": "{t.system}", "globals": {{'
        + ", ".join(f'"{k}": {old(v)}' for k, v in t.globals.items())
        + f'}}, "states": {old_rows(t.states)}, "observations": {old_rows(t.observations)}, '
        f'"dt": {old(t.dt)}, "seed": {t.seed}}}\n' for t in tasks))
    assert '"l": 1, "m": 1}' in path.read_text()
    for a, b in zip(load_tasks_jsonl(path), tasks, strict=True):
        new = physics.task_from_json(task_to_json(b))
        assert (a.task_id, a.system, a.globals, a.dt, a.seed) == \
            (new.task_id, new.system, new.globals, new.dt, new.seed)
        assert np.array_equal(a.states, new.states)
        assert np.array_equal(a.observations, new.observations)


def test_save_refuses_a_non_finite_task_and_writes_nothing(tmp_path):
    tasks, _ = generate_task_grid(PendulumGridConfig(l_count=2, m_count=1, T=6))
    tasks[1].states[3, 0] = np.nan
    with pytest.raises(ValueError):
        save_tasks_jsonl(tasks, tmp_path / "tasks.jsonl")
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def jsonl(tmp_path_factory):
    """A saved 4-task JSONL's bytes and its parsed first record, and a path to
    write edits of it to."""
    tasks, _ = generate_task_grid(PendulumGridConfig(l_count=2, m_count=2, T=6))
    path = tmp_path_factory.mktemp("jsonl") / "tasks.jsonl"
    save_tasks_jsonl(tasks, path)
    return path.read_bytes(), json.loads(task_to_json(tasks[0])), path


def _edited(record, **changes):
    return json.dumps({k: v for k, v in {**record, **changes}.items() if v is not None})


@pytest.mark.parametrize("edit", [
    lambda r: "{}",
    lambda r: _edited(r, task_id=None),
    lambda r: _edited(r, states=r["states"][0]),
    lambda r: _edited(r, observations=r["observations"][:-1]),
    lambda r: _edited(r, states=r["states"][:1], observations=r["observations"][:1]),
    lambda r: _edited(r, states=[r["states"][0], r["states"][1][:1]]),
    lambda r: "[1, 2]",
    lambda r: "{not json",
    lambda r: _edited(r, states=[[10 ** 400, 0]] * len(r["states"])),
], ids=["empty", "missing key", "1-D states", "unequal rows", "one row", "ragged",
        "not an object", "not JSON", "no float64"])
def test_jsonl_corrupt_record_names_file_and_line(jsonl, edit):
    raw, record, path = jsonl
    path.write_bytes(raw + edit(record).encode() + b"\n")
    with pytest.raises(CorruptDatasetError, match=re.escape(f"{path}, line 5")):
        load_tasks_jsonl(path)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_jsonl_truncated_loads_whole_records_or_is_corrupt(jsonl, data):
    raw, _, path = jsonl
    cut = data.draw(st.integers(0, len(raw)))
    path.write_bytes(raw[:cut])
    try:
        loaded = load_tasks_jsonl(path)
    except CorruptDatasetError:
        return
    # every record whose closing brace the cut keeps, and no other
    assert [t.task_id for t in loaded] == list(range(raw[:cut + 1].count(b"\n")))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_jsonl_damaged_record_decodes_or_is_corrupt_at_its_line(jsonl, data):
    """A record with flipped bits or cut short, after some blank lines, still
    decodes or raises CorruptDatasetError naming its own line; nothing else."""
    raw, _, path = jsonl
    records = raw.split(b"\n")[:-1]
    k = data.draw(st.integers(0, len(records) - 1), label="record")
    line = bytearray(records[k])
    if data.draw(st.booleans(), label="cut"):
        del line[data.draw(st.integers(1, len(line) - 1)):]
    else:
        for _ in range(data.draw(st.integers(1, 4))):
            line[data.draw(st.integers(0, len(line) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    assume(b"\n" not in line)
    records[k] = bytes(line)
    blanks = data.draw(st.sampled_from([b"", b"\n", b" \t\n\n"]), label="blank lines")
    path.write_bytes(blanks + b"\n".join(records) + b"\n")
    number = blanks.count(b"\n") + k + 1
    try:
        loaded = load_tasks_jsonl(path)
    except CorruptDatasetError as exc:
        assert str(exc).startswith(f"{path}, line {number}: ")
        return
    assert len(loaded) == len(records)


def test_task_file_decodes_records_on_demand(jsonl, monkeypatch):
    raw, _, path = jsonl
    path.write_bytes(b"\n  \n" + raw.replace(b"\n", b"\n\n", 1))
    dataset = TaskFile(path)
    assert len(dataset) == 4
    decoded = []
    task_from_json = physics.task_from_json
    monkeypatch.setattr(physics, "task_from_json",
                        lambda line: decoded.append(line) or task_from_json(line))
    assert [dataset[i].task_id for i in (3, -4)] == [3, 0]
    assert len(decoded) == 2
    assert [t.task_id for t in dataset] == [0, 1, 2, 3]
    assert dataset.sha256() == hashlib.sha256(path.read_bytes()).hexdigest()
    with pytest.raises(IndexError):
        dataset[4]


@given(st.floats(0.5, 3.0), st.floats(-0.3, 0.3), st.floats(0.4, 0.9))
@settings(max_examples=60, deadline=None)
def test_orbit_conversion_self_consistency(r0, v0r, v0t):
    try:
        p = orbit_params_from_init(OrbitInit(r0=r0, v0r=v0r, v0theta=v0t))
    except UnboundOrbitError:
        return
    assert 0.0 <= p.e < 1.0
    assert p.r_n > 0.0
    assert abs(physics.conic_radius(p, 0.0) - r0) < 1e-9 * r0
