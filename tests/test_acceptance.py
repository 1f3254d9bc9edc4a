"""Acceptance suite: end-to-end checks of physics, autodiff, training quality,
representation identifiability, meta-learning, and reproducibility.

The desk-scale training fixtures (25-task pendulum grid and 27-task orbit
grid, 300 epochs each) dominate the runtime; expect roughly 15 minutes for
the full module. Run with `pytest tests/test_acceptance.py -v`.
"""

import math

import numpy as np
import pytest

from neurphy import autodiff as ad
from neurphy.autodiff import Tensor, grad_check
from neurphy.cli import main as cli_main
from neurphy.evaluation import EvalStage, global_r2_table, kl_report, rollout_mse
from neurphy.model import ModelConfig, NeurPhyModel
from neurphy.nn import DiagGaussian, kl_diag_gauss
from neurphy.physics import (OrbitGridConfig, OrbitInit, OrbitState,
                             PendulumGridConfig, PendulumParams, PendulumState,
                             generate_task_grid, load_tasks_jsonl,
                             orbit_params_from_init, orbit_step, pendulum_step,
                             pendulum_trajectory, save_tasks_jsonl, split_meta)
from neurphy.training import (TrainConfig, checkpoint_load, checkpoint_save,
                              split_frames, train)

DESK = dict(batch_tasks=2, epochs=300, seed=0)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def pendulum_split():
    tasks, _ = generate_task_grid(PendulumGridConfig())
    return split_meta(tasks, 0.9, seed=0)


@pytest.fixture(scope="session")
def pendulum_d5(pendulum_split):
    meta_train, _ = pendulum_split
    model, history = train(meta_train, TrainConfig(D=5, **DESK))
    return model, history


@pytest.fixture(scope="session")
def pendulum_d1(pendulum_split):
    meta_train, _ = pendulum_split
    model, history = train(meta_train, TrainConfig(D=1, **DESK))
    return model, history


@pytest.fixture(scope="session")
def orbit_split():
    tasks, _ = generate_task_grid(OrbitGridConfig())
    return split_meta(tasks, 0.9, seed=0)


@pytest.fixture(scope="session")
def orbit_d5(orbit_split):
    meta_train, _ = orbit_split
    model, history = train(meta_train, TrainConfig(D=5, **DESK))
    return model, history


# ------------------------------------------------ 1. physics oracle exactness

def test_physics_oracle_exactness():
    # one hand-derived Euler step from theta = -pi, omega = 4
    s = pendulum_step(PendulumState(theta=-math.pi, omega=4.0), PendulumParams())
    assert abs(s.theta - (-math.pi + 0.4)) < 1e-9 * math.pi
    assert abs(s.omega - 3.8) < 1e-9 * 3.8

    # circular orbit: r0 = 2, pure tangential speed sqrt(GM/r0) keeps r = 2
    v = math.sqrt(1.0 / 2.0)
    params = orbit_params_from_init(OrbitInit(r0=2.0, v0r=0.0, v0theta=v))
    assert abs(params.e) < 1e-9
    state = OrbitState(r=2.0, theta=0.0)
    for _ in range(50):
        state = orbit_step(state, params, dt=0.1)
        assert abs(state.r - 2.0) < 1e-9 * 2.0

    # aphelion start: r0 = 2, v0theta chosen for e = 0.02
    e = 0.02
    v0t = math.sqrt((1.0 - e) / 2.0)
    params = orbit_params_from_init(OrbitInit(r0=2.0, v0r=0.0, v0theta=v0t))
    assert abs(params.e - e) < 1e-9
    assert abs(params.r_n - 2.0 * (1.0 - e) / (1.0 + e)) < 1e-9 * 2.0
    assert abs(params.r_n - 1.9215686274509804) < 1e-7
    assert abs(params.theta_n - math.pi) < 1e-9 * math.pi


# ------------------------------------------------- 2. autodiff correctness

UNARY_OPS = [ad.relu, ad.sigmoid, ad.tanh, ad.exp, ad.softplus, ad.sin,
             ad.square, lambda t: ad.tsum(t), lambda t: ad.tmean(t)]
BINARY_OPS = [ad.add, ad.sub, ad.mul, ad.div]


def test_autodiff_primitives_and_networks():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=6)
        for op in UNARY_OPS:
            assert grad_check(lambda t: ad.tsum(op(t)), x, eps=1e-5) < 1e-4
        assert grad_check(lambda t: ad.tsum(ad.log(ad.exp(t))), x, eps=1e-5) < 1e-4
        y = Tensor(rng.normal(size=6))
        for op in BINARY_OPS:
            assert grad_check(lambda t: ad.tsum(op(t, y)), x, eps=1e-5) < 1e-4
        w = Tensor(rng.normal(size=(3, 4)))
        assert grad_check(lambda t: ad.tsum(ad.matmul(t, w)),
                          rng.normal(size=(2, 3)), eps=1e-5) < 1e-4

    # composed networks: full-width recognition/transition/decoder paths
    cfg = ModelConfig(dim_z=2, dim_r=2, context_widths=[16, 8],
                      recognition_widths=[16, 8], transition_widths=[16, 8],
                      decoder_widths=[8, 16])
    for seed in range(20):
        model = NeurPhyModel(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(1000 + seed)
        r_c = rng.normal(size=2)

        def through_model(t):
            q = model.recognition_head(model.recognition_mlp(t))
            z = q.mean
            p = model.transition(z, Tensor(np.tile(r_c, (3, 1))))
            out = model.decode(p.mean)
            return ad.tsum(ad.add(ad.tsum(out), ad.tsum(q.std)))

        assert grad_check(through_model, rng.normal(size=(3, 4)), eps=1e-5) < 1e-4


# ------------------------------------------------------ 3. distribution math

def test_distribution_math():
    g = DiagGaussian(Tensor([0.3, -1.2, 2.0]), Tensor([0.4, 1.0, 3.0]))
    assert abs(float(kl_diag_gauss(g, g).value)) < 1e-10

    q = DiagGaussian(Tensor([1.0]), Tensor([1.0]))
    p = DiagGaussian(Tensor([0.0]), Tensor([1.0]))
    assert abs(float(kl_diag_gauss(q, p).value) - 0.5) < 1e-10

    rng = np.random.default_rng(0)
    for _ in range(1000):
        q = DiagGaussian(Tensor(rng.normal(size=3)),
                         Tensor(rng.uniform(1e-3, 5.0, 3)))
        p = DiagGaussian(Tensor(rng.normal(size=3)),
                         Tensor(rng.uniform(1e-3, 5.0, 3)))
        assert float(kl_diag_gauss(q, p).value) >= 0.0


# --------------------------------------------------------- 4. overfit sanity

def test_overfit_single_task_reconstruction():
    cfg = TrainConfig(D=1, beta=[0.0], epochs=500, batch_tasks=1, n_c=20,
                      model=ModelConfig())
    task = pendulum_trajectory(PendulumParams(), 101)
    model, _ = train([task], cfg)
    targets, _ = split_frames(task.length, cfg.D, 0.9, seed=0)
    pairs = np.concatenate([task.observations[targets - 1],
                            task.observations[targets]], axis=1)
    pred = model.decode(model.recognize(pairs).mean).value
    mse = float(np.mean((pred - task.observations[targets]) ** 2))
    assert mse < 1e-3


# ------------------------------------------ 5. desk-scale pendulum benchmark

def test_desk_scale_pendulum_benchmark(pendulum_split, pendulum_d5):
    meta_train, meta_test = pendulum_split
    model, _ = pendulum_d5
    training = rollout_mse(model, EvalStage.draw(model, meta_train, "training",
                                                 TrainConfig(D=5, **DESK), 0))
    metatest = rollout_mse(model, EvalStage.draw(model, meta_test, "metatest20",
                                                 TrainConfig(D=5, **DESK), 0))

    assert training.mse[0] <= 0.01
    for d in range(5):
        assert training.mse[d + 1] >= 0.95 * training.mse[d]
    assert metatest.mse[5] <= 10.0 * training.mse[5]


# ------------------------------------------- 6. overshooting ablation direction

def test_overshooting_ablation_direction(pendulum_split, pendulum_d5, pendulum_d1):
    meta_train, _ = pendulum_split
    model5, _ = pendulum_d5
    model1, _ = pendulum_d1
    cfg = TrainConfig(D=5, **DESK)
    kl5 = kl_report(model5, EvalStage.draw(model5, meta_train, "training", cfg, 0))
    kl1 = kl_report(model1, EvalStage.draw(model1, meta_train, "training", cfg, 0))
    for d in range(1, 5):  # overshoot distances 2..5
        assert kl5[d] < kl1[d]
    mse5 = rollout_mse(model5, EvalStage.draw(model5, meta_train, "training", cfg, 0))
    mse1 = rollout_mse(model1, EvalStage.draw(model1, meta_train, "training", cfg, 0))
    assert mse1.mse[0] <= mse5.mse[0]


# ---------------------------------------------- 7. manifold identifiability

def _quad_r2(model, tasks, key):
    reports = global_r2_table(EvalStage.draw(model, tasks, "training", TrainConfig(**DESK), 0))
    return next(r.r2 for r in reports if r.target == key and r.degree == 2)


def test_manifold_identifiability_pendulum(pendulum_split, pendulum_d5):
    meta_train, _ = pendulum_split
    model, _ = pendulum_d5
    assert _quad_r2(model, meta_train, "l") >= 0.95
    assert _quad_r2(model, meta_train, "m") >= 0.7


def test_manifold_identifiability_orbit(orbit_split, orbit_d5):
    meta_train, _ = orbit_split
    model, _ = orbit_d5
    assert _quad_r2(model, meta_train, "r_n") >= 0.9
    assert _quad_r2(model, meta_train, "e") >= 0.7


# ------------------------------------------- 8. meta-learning with 2 contexts

def test_metatest_two_context_degradation(pendulum_split, pendulum_d5):
    _, meta_test = pendulum_split
    model, _ = pendulum_d5
    m20 = rollout_mse(model, EvalStage.draw(model, meta_test, "metatest20",
                                            TrainConfig(D=5, **DESK), 0))
    m2 = rollout_mse(model, EvalStage.draw(model, meta_test, "metatest2",
                                           TrainConfig(D=5, **DESK), 0))
    for d in range(6):
        assert m2.mse[d] <= 3.0 * m20.mse[d]


# --------------------------------------------------------- 9. determinism

def test_run_determinism(tmp_path):
    data = tmp_path / "tasks.jsonl"
    assert cli_main(["generate", "--system", "pendulum", "--out", str(data),
                     "--l", "1:3:2", "--m", "1:4:2", "--T", "25"]) == 0
    artifacts = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main(["train", "--data", str(data), "--out", str(out),
                         "--D", "2", "--epochs", "3", "--batch-tasks", "2",
                         "--n-c", "4", "--dim-z", "2", "--dim-r", "2"]) == 0
        svg = tmp_path / f"{name}.svg"
        assert cli_main(["plot", "--in", str(out / "metrics.csv"),
                         "--out", str(svg)]) == 0
        artifacts.append(((out / "metrics.csv").read_bytes(),
                          (out / "model.ckpt").read_bytes(),
                          svg.read_bytes()))
    assert artifacts[0] == artifacts[1]


# ---------------------------------------------------------- 10. round trips

def test_round_trips(tmp_path):
    tasks, _ = generate_task_grid(PendulumGridConfig(l_count=2, m_count=2, T=20))
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_tasks_jsonl(tasks, p1)
    save_tasks_jsonl(load_tasks_jsonl(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    cfg = TrainConfig(D=2, model=ModelConfig(dim_z=2, dim_r=2))
    model = NeurPhyModel(cfg.model, np.random.default_rng(3))
    c1 = tmp_path / "a.ckpt"
    c2 = tmp_path / "b.ckpt"
    checkpoint_save(model, cfg, c1)
    loaded, cfg2 = checkpoint_load(c1)
    checkpoint_save(loaded, cfg2, c2)
    assert c1.read_bytes() == c2.read_bytes()

    from neurphy.physics import ContextSet
    pairs = np.random.default_rng(4).normal(size=(8, 4))
    perm = np.random.default_rng(5).permutation(8)
    r_a = model.encode_context(ContextSet(pairs=pairs, indices=np.arange(8)))
    r_b = model.encode_context(ContextSet(pairs=pairs[perm], indices=perm))
    assert np.array_equal(r_a.value, r_b.value)
