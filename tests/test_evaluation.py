import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurphy.evaluation import (DegenerateTargetError, EvalStage, MseTable, R2Report,
                                UnderdeterminedFitError, export_manifold,
                                fit_poly_r2, global_r2_table, kl_report,
                                rollout_mse, stage_n_c, stage_tasks)
from neurphy.model import ModelConfig, NeurPhyModel
from neurphy.physics import PendulumGridConfig, generate_task_grid
from neurphy.training import TrainConfig


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
    assert [stage_n_c(s, 4) for s in ("training", "test", "metatest20", "metatest2")] \
        == [4, 4, 20, 2]
    train_ids = {t.task_id for t in stage_tasks(tasks, "training", 0)}
    assert train_ids == {t.task_id for t in stage_tasks(tasks, "test", 0)}
    test_ids = {t.task_id for t in stage_tasks(tasks, "metatest2", 0)}
    assert test_ids and not train_ids & test_ids
    assert len(train_ids | test_ids) == len(tasks)
