import hashlib
import json
import os
import shutil
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import needs_worker
from neurphy import evaluation, physics, training
from neurphy.autodiff import NonFiniteError
from neurphy.cli import EXIT_IO, EXIT_NUMERIC, EXIT_USAGE, main
from neurphy.evaluation import (DegenerateTargetError, EvalStage, MseTable, R2Report,
                                UnderdeterminedFitError, export_manifold,
                                fit_poly_r2, global_r2_table, kl_report,
                                rollout_mse)
from neurphy.model import ModelConfig, NeurPhyModel
from neurphy.physics import PendulumGridConfig, generate_task_grid, load_tasks_jsonl
from neurphy.training import STAGES, TrainConfig, stage_tasks


def small_model():
    cfg = ModelConfig(obs_dim=2, dim_z=2, dim_r=2,
                      context_widths=[8, 8], recognition_widths=[8, 8],
                      transition_widths=[8, 8], decoder_widths=[8, 8])
    return NeurPhyModel(cfg, np.random.default_rng(0))


def draw(model, tasks):
    """The training stage of tasks at n_c = 4 and seed 0."""
    return EvalStage.draw(model, tasks, "training", TrainConfig(n_c=4, model=model.cfg), 0)


@pytest.fixture(scope="module")
def tasks():
    ts, _ = generate_task_grid(PendulumGridConfig(l_count=3, m_count=3, T=30))
    return ts


def test_r2_exact_linear_target():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    y = 2.0 * x[:, 0] - 0.5 * x[:, 2] + 3.0
    assert abs(fit_poly_r2(x, y, 1).r2 - 1.0) < 1e-9


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_r2_exact_quadratic_target(offset):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 3)) + offset
    y = x[:, 0] * x[:, 1] - x[:, 2] ** 2 + 0.3 * x[:, 1] - 1.0
    assert abs(fit_poly_r2(x, y, 2).r2 - 1.0) < 1e-9


def test_r2_uncorrelated_noise_near_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1000, 3))
    y = rng.normal(size=1000)
    assert fit_poly_r2(x, y, 1).r2 < 0.1


def test_r2_degenerate_target():
    x = np.random.default_rng(4).normal(size=(20, 2))
    with pytest.raises(DegenerateTargetError):
        fit_poly_r2(x, np.full(20, 3.0), 1)


@given(st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_r2_quadratic_at_least_linear(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(50, 2))
    y = rng.normal(size=50) + x[:, 0]
    r1 = fit_poly_r2(x, y, 1).r2
    r2 = fit_poly_r2(x, y, 2).r2
    assert r2 >= r1 - 1e-6


def test_rollout_mse_shape_and_nonnegative(tasks):
    model = small_model()
    table = rollout_mse(model, EvalStage.draw(model, tasks, "training",
                                              TrainConfig(D=3, n_c=4), 0))
    assert len(table.mse) == 4
    assert all(v >= 0.0 for v in table.mse)
    assert table.stage == "training"


def test_rollout_mse_deterministic_and_readonly(tasks):
    model = small_model()
    before = [p.value.copy() for _, p in model.parameters()]
    cfg = TrainConfig(D=2, n_c=4)
    t1 = rollout_mse(model, EvalStage.draw(model, tasks, "metatest20", cfg, 5))
    t2 = rollout_mse(model, EvalStage.draw(model, tasks, "metatest20", cfg, 5))
    assert t1.mse == t2.mse
    for (_, p), b in zip(model.parameters(), before):
        assert np.array_equal(p.value, b)


def test_kl_report_nonnegative_and_deterministic(tasks):
    model = small_model()
    cfg = TrainConfig(D=2, n_c=4, model=model.cfg)
    k1 = kl_report(model, EvalStage.draw(model, tasks, "training", cfg, 3))
    k2 = kl_report(model, EvalStage.draw(model, tasks, "training", cfg, 3))
    assert len(k1) == 2
    assert all(v >= 0.0 for v in k1)
    assert k1 == k2


def test_export_manifold_schema(tasks, tmp_path):
    model = small_model()
    gp = tmp_path / "manifold_global.csv"
    sp = tmp_path / "manifold_states.csv"
    export_manifold(model, draw(model, tasks), gp, sp)
    g_lines = gp.read_text().strip().split("\n")
    assert g_lines[0] == "r_c_0,r_c_1,l,m"
    assert len(g_lines) == 1 + len(tasks)
    s_lines = sp.read_text().strip().split("\n")
    assert s_lines[0] == "task_id,z_0,z_1,state_0,state_1"
    assert len(s_lines) == 1 + sum(t.length - 1 for t in tasks)


def test_export_manifold_byte_identical(tasks, tmp_path):
    model = small_model()
    paths = [(tmp_path / f"g{i}.csv", tmp_path / f"s{i}.csv") for i in (0, 1)]
    for gp, sp in paths:
        export_manifold(model, draw(model, tasks), gp, sp)
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_global_r2_table_rows(tasks):
    model = small_model()
    reports = global_r2_table(draw(model, tasks))
    # one row per (global parameter, degree)
    assert [(r.target, r.degree) for r in reports] == \
        [("l", 1), ("l", 2), ("m", 1), ("m", 2)]
    assert all(r.r2 <= 1.0 for r in reports)


def test_r2_underdetermined_fit():
    x = np.random.default_rng(5).normal(size=(3, 3))
    with pytest.raises(UnderdeterminedFitError):
        fit_poly_r2(x, np.arange(3.0), 1)


def test_global_r2_table_skips_underdetermined_fits(tasks):
    model = small_model()  # dim_r = 2: degree 1 needs 4 tasks, degree 2 needs 7
    reports = global_r2_table(draw(model, tasks[:4]))
    assert [(r.target, r.degree) for r in reports] == [("l", 1), ("m", 1)]
    assert global_r2_table(draw(model, tasks[:3])) == []


def test_stage_table(tasks):
    cfg = TrainConfig(D=1, n_c=4)
    assert [STAGES[s].draw(tasks[0], cfg, 0, 0)[0].n_c
            for s in ("training", "test", "metatest20", "metatest2")] == [4, 4, 20, 2]
    train_ids = {t.task_id for t in stage_tasks(tasks, "training", 0)}
    assert train_ids == {t.task_id for t in stage_tasks(tasks, "test", 0)}
    test_ids = {t.task_id for t in stage_tasks(tasks, "metatest2", 0)}
    assert test_ids and not train_ids & test_ids
    assert len(train_ids | test_ids) == len(tasks)


@pytest.fixture(scope="module")
def grid_tree(request, tmp_path_factory):
    """A directory holding a 25-task dataset, whose meta split leaves 22
    meta-train and 3 meta-test tasks, and a run trained on it at D=1, or at
    the D a test passes in as this fixture's parameter."""
    D = getattr(request, "param", 1)
    tree = tmp_path_factory.mktemp(f"grid-d{D}")
    assert main(["generate", "--system", "pendulum", "--out", str(tree / "pend.jsonl"),
                 "--l", "1:3:5", "--m", "1:4:5", "--T", "24"]) == 0
    assert main(["train", "--data", str(tree / "pend.jsonl"), "--out", str(tree / "run"),
                 "--D", str(D), "--epochs", "1", "--batch-tasks", "11", "--n-c", "4",
                 "--dim-z", "2", "--dim-r", "2"]) == 0
    return tree


def eval_every_stage(run):
    """Each stage's eval, the manifold exported at metatest20; returns the
    bytes of every CSV eval wrote."""
    for stage in STAGES:
        argv = ["eval", "--run", str(run), "--stage", stage]
        if stage == "metatest20":
            argv += ["--manifold-out", str(run / "mani")]
        assert main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(run.glob("*.csv"))
            if p.name != training.METRICS_FILE}


@pytest.fixture
def forks(monkeypatch):
    """One task per chunk, and the name of each process forked; each is sent
    a SIGINT as it starts, which it ignores."""
    monkeypatch.setattr(training, "CHUNK_ROWS", 1)
    names, fork = [], training._Worker._fork

    def spy(self, jobs):
        fork(self, jobs)
        names.append(self.name)
        os.kill(self._proc.pid, signal.SIGINT)

    monkeypatch.setattr(training._Worker, "_fork", spy)
    return names


@needs_worker
@pytest.mark.parametrize("grid_tree", [1, 3], indirect=True, ids=["D=1", "D=3"])
def test_eval_fork_writes_the_serial_bytes(grid_tree, monkeypatch, forks):
    run = grid_tree / "run"
    default = eval_every_stage(run)
    assert forks == []  # no stage of the 25-task grid reaches FORK_TASKS
    monkeypatch.setattr(evaluation, "FORK_TASKS", 1)
    forked = eval_every_stage(run)
    # in each stage: the context encoding, and the MSE and KL readouts
    assert forks == ["evaluation worker"] * 12
    monkeypatch.setattr(training, "_worker_allowed", lambda: False)
    assert eval_every_stage(run) == forked == default
    assert len(forked) == 14  # mse, kl and r2 of each stage, and the manifold's two


@needs_worker
def test_eval_child_error_exits_as_the_serial_run(grid_tree, monkeypatch, forks, capfd,
                                                  tmp_path):
    run, parent, raised = grid_tree / "run", os.getpid(), tmp_path / "raised"
    monkeypatch.setattr(evaluation, "FORK_TASKS", 1)
    # the last chunk of the stage's MSE readout: the child's
    victim = stage_tasks(load_tasks_jsonl(grid_tree / "pend.jsonl"), "training", 0)[-1]
    stack = evaluation._stack

    def fail(tasks, frames):
        if tasks[0].task_id == victim.task_id:
            raised.write_text(str(os.getpid()))
            raise NonFiniteError("non-finite output of network decoder")
        return stack(tasks, frames)

    monkeypatch.setattr(evaluation, "_stack", fail)
    results = []
    for name in ("fork", "serial"):
        if name == "serial":
            monkeypatch.setattr(training, "_worker_allowed", lambda: False)
        capfd.readouterr()
        assert main(["eval", "--run", str(run), "--stage", "training"]) == EXIT_NUMERIC
        results.append(capfd.readouterr())
        assert (int(raised.read_text()) == parent) == (name == "serial")
    assert results[0] == results[1]
    assert results[0].err == "numerical error: non-finite output of network decoder\n"
    assert forks == ["evaluation worker"] * 2  # the context encoding and the MSE readout


@needs_worker
def test_eval_parent_names_the_record_that_does_not_decode(grid_tree, monkeypatch, forks,
                                                           capfd, tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(grid_tree, tree)
    data, manifest_path = tree / "pend.jsonl", tree / "run" / "manifest.json"
    side = physics.split_indices(25, training.META_TRAIN_RATIO, 0)[0]
    # the stage's last record, which the parent decodes last; the manifest
    # takes the corrupt file's digest, so the record is read
    lines = data.read_bytes().split(b"\n")
    lines[side[-1]] = lines[side[-1]][:100]
    data.write_bytes(b"\n".join(lines))
    manifest = json.loads(manifest_path.read_text())
    manifest["dataset_sha256"] = hashlib.sha256(data.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    monkeypatch.setattr(evaluation, "FORK_TASKS", 1)
    decoded, task_from_json = [], physics.task_from_json
    monkeypatch.setattr(physics, "task_from_json",
                        lambda line: decoded.append(line) or task_from_json(line))
    capfd.readouterr()
    assert main(["eval", "--run", str(tree / "run"), "--stage", "training"]) == EXIT_USAGE
    err = capfd.readouterr().err
    assert len(decoded) == len(side) == 22 and forks == []
    path = os.path.join(tree / "run", "..", "pend.jsonl")  # as the manifest places it
    assert err.startswith(f"error: {path}, line {side[-1] + 1}: JSONDecodeError")


@needs_worker
@pytest.mark.parametrize("readout", ["draw", "rollout_mse", "kl_report"])
def test_dead_eval_child_exits_3(grid_tree, monkeypatch, forks, capfd, readout):
    module, name, n = {"draw": (NeurPhyModel, "encode_context", 1),
                       "rollout_mse": (evaluation, "frame_pairs", 2),
                       "kl_report": (evaluation, "overshoot", 3)}[readout]
    real, parent = getattr(module, name), os.getpid()

    def killed_in_the_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(module, name, killed_in_the_child)
    monkeypatch.setattr(evaluation, "FORK_TASKS", 1)
    capfd.readouterr()
    assert main(["eval", "--run", str(grid_tree / "run"), "--stage", "training"]) == EXIT_IO
    assert capfd.readouterr() == ("", "io error: the evaluation worker process exited with "
                                      "code -9\n")
    assert forks == ["evaluation worker"] * n


@needs_worker
def test_eval_draws_every_context_before_it_forks(grid_tree, monkeypatch, forks, capfd):
    monkeypatch.setattr(evaluation, "FORK_TASKS", 1)
    # the stage's last task, whose chunk the child would encode
    victim = stage_tasks(load_tasks_jsonl(grid_tree / "pend.jsonl"), "training", 0)[-1]
    select_contexts = training.select_contexts

    def infeasible(task, *args):
        if task.task_id == victim.task_id:
            raise physics.InfeasibleContextError(f"task {task.task_id}: cannot draw")
        return select_contexts(task, *args)

    monkeypatch.setattr(training, "select_contexts", infeasible)
    capfd.readouterr()
    assert main(["eval", "--run", str(grid_tree / "run"), "--stage", "training"]) == EXIT_USAGE
    assert capfd.readouterr() == ("", f"error: task {victim.task_id}: cannot draw\n")
    assert forks == []


@needs_worker
def test_fork_map_stops_its_child_when_its_own_half_raises(capfd):
    def fn(job):
        if job == 0:
            raise NonFiniteError("the first job")
        return np.zeros(1 << 17)  # 1 MB, more than the pipe holds: the child blocks

    with pytest.raises(NonFiniteError, match="the first job"):
        training.fork_map(fn, [0, 1, 2, 3], True)
    assert "Traceback" not in capfd.readouterr().err
