import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import neurphy
from neurphy import cli, evaluation, physics, training
from neurphy.cli import EXIT_INTERRUPTED, EXIT_IO, EXIT_NUMERIC, EXIT_USAGE, main
from neurphy.physics import load_tasks_jsonl, task_from_json
from neurphy.training import STAGES, checkpoint_load, checkpoint_save, stage_tasks


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pend.jsonl"
    rc = run(["generate", "--system", "pendulum", "--out", str(path),
              "--l", "1:3:3", "--m", "1:4:3", "--T", "20"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def rundir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "r1"
    rc = run(["train", "--data", str(dataset), "--out", str(out),
              "--D", "2", "--epochs", "2", "--batch-tasks", "2",
              "--n-c", "4", "--dim-z", "2", "--dim-r", "2"])
    assert rc == 0
    return out


def test_generate_line_count(dataset):
    tasks = load_tasks_jsonl(dataset)
    assert len(tasks) == 9
    assert all(t.length == 20 for t in tasks)


def test_generate_byte_identical_rerun(dataset, tmp_path):
    other = tmp_path / "again.jsonl"
    rc = run(["generate", "--system", "pendulum", "--out", str(other),
              "--l", "1:3:3", "--m", "1:4:3", "--T", "20"])
    assert rc == 0
    assert other.read_bytes() == dataset.read_bytes()


def test_generate_orbit(tmp_path):
    path = tmp_path / "orbit.jsonl"
    rc = run(["generate", "--system", "orbit", "--out", str(path),
              "--r0", "1.5:2:2", "--v0r", "0:0.2:2", "--v0t", "0.7:0.8:2",
              "--T", "15"])
    assert rc == 0
    tasks = load_tasks_jsonl(path)
    assert 0 < len(tasks) <= 8
    assert set(tasks[0].globals) == {"r_n", "e", "theta_n"}


def test_generate_bad_axis_is_usage_error(tmp_path, capsys):
    rc = run(["generate", "--system", "pendulum",
              "--out", str(tmp_path / "x.jsonl"), "--l", "nope"])
    assert rc == EXIT_USAGE
    assert "axis" in capsys.readouterr().err


def test_generate_config_file(tmp_path):
    cfgfile = tmp_path / "grid.ini"
    cfgfile.write_text("[grid]\nl = 1:3:2\nm = 1:4:2\nT = 12\n")
    path = tmp_path / "cfg.jsonl"
    rc = run(["generate", "--system", "pendulum", "--config", str(cfgfile),
              "--out", str(path)])
    assert rc == 0
    tasks = load_tasks_jsonl(path)
    assert len(tasks) == 4 and tasks[0].length == 12


@pytest.mark.parametrize("system,extra,ini", [
    ("orbit", ["--l", "1:3:5"], ""),
    ("pendulum", ["--GM", "5"], ""),
    ("orbit", [], "[grid]\nm = 1:4:2\n"),
    ("pendulum", [], "[grid]\nr0 = 1:2:3\n"),
], ids=["orbit-flag", "pendulum-flag", "orbit-ini", "pendulum-ini"])
def test_generate_rejects_settings_the_system_lacks(tmp_path, capsys, system, extra, ini):
    cfgfile = tmp_path / "grid.ini"
    cfgfile.write_text(ini)
    path = tmp_path / "x.jsonl"
    rc = run(["generate", "--system", system, "--out", str(path), "--config", str(cfgfile)]
             + extra)
    assert rc == EXIT_USAGE
    assert not path.exists()
    name = extra[0][2:] if extra else ini.split()[1]
    assert f"{system} has no setting {name}" in capsys.readouterr().err


def test_generate_prints_skipped_count_only_for_orbit(tmp_path, capsys):
    assert run(["generate", "--system", "pendulum", "--out", str(tmp_path / "p.jsonl"),
                "--l", "1:3:2", "--m", "1:4:2", "--T", "12"]) == 0
    assert "unbound orbit points skipped" not in capsys.readouterr().out
    assert run(["generate", "--system", "orbit", "--out", str(tmp_path / "o.jsonl"),
                "--r0", "1.5:2:2", "--v0r", "0:0.2:2", "--v0t", "0.7:0.8:2",
                "--T", "12"]) == 0
    assert "unbound orbit points skipped" in capsys.readouterr().out


@pytest.mark.parametrize("text,message", [
    (None, "config file not found"),
    ("l = 1:3:2\n", "no section headers"),
    ("[grid]\nl = 1:3:2\nL = 1:3:3\n", "already exists"),
    ("[grid]\nl = 1:3:2\nwidth = 3\n", "unknown key width in [grid]"),
    ("[grid]\n; l\xe4nge\nl = 1:3:2\n".encode("latin-1"), "can't decode byte 0xe4"),
], ids=["directory", "no-section", "duplicate-key", "unknown-key", "not-utf8"])
def test_generate_rejects_bad_config(tmp_path, capsys, text, message):
    cfgfile = tmp_path / "bad.ini"
    if text is None:
        cfgfile.mkdir()
    elif isinstance(text, bytes):
        cfgfile.write_bytes(text)
    else:
        cfgfile.write_text(text)
    path = tmp_path / "x.jsonl"
    rc = run(["generate", "--system", "pendulum", "--config", str(cfgfile), "--out", str(path)])
    assert rc == EXIT_USAGE
    assert not path.exists()
    err = capsys.readouterr().err
    assert str(cfgfile) in err and message in err


@pytest.mark.parametrize("command,section,key,value", [
    ("train", "train", "epochs", "abc"),
    ("train", "train", "beta", "1,x"),
    ("generate", "grid", "T", "1e2"),
])
def test_bad_config_value_names_file_section_and_key(dataset, tmp_path, capsys, command,
                                                     section, key, value):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    argv = (["train", "--data", str(dataset)] if command == "train"
            else ["generate", "--system", "pendulum"])
    assert run(argv + ["--out", str(out), "--config", str(cfgfile)]) == EXIT_USAGE
    assert not out.exists()
    assert f"{cfgfile}: bad {key} in [{section}]" in capsys.readouterr().err


def test_bad_seed_override_names_the_variable(dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NEURPHY_SEED", "abc")
    out = tmp_path / "run"
    assert run(["train", "--data", str(dataset), "--out", str(out), "--D", "1",
                "--epochs", "1", "--n-c", "4"]) == EXIT_USAGE
    assert not out.exists()
    assert "NEURPHY_SEED must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv,setting", [
    (["train", "--seed", "-1"], "seed"),
    (["train"], "NEURPHY_SEED"),
    (["eval", "--stage", "training", "--eval-seed", "-1"], "--eval-seed"),
    # rollout seeds with eval_seed + task_id, which is 1 at task 3
    (["rollout", "--task", "0", "--eval-seed", "-2"], "--eval-seed"),
    (["rollout", "--task", "3", "--eval-seed", "-2"], "--eval-seed"),
], ids=["train --seed", "train NEURPHY_SEED", "eval", "rollout task 0", "rollout task 3"])
def test_negative_seed_is_usage_error(dataset, rundir, tmp_path, capsys, monkeypatch, argv,
                                      setting):
    out = str(tmp_path / "out")
    argv = argv + {"train": ["--data", str(dataset), "--out", out, "--D", "1", "--epochs", "1",
                             "--n-c", "4"],
                   "eval": ["--run", str(rundir), "--manifold-out", out],
                   "rollout": ["--run", str(rundir), "--start", "3", "--horizon", "5",
                               "--out", out]}[argv[0]]
    if setting == "NEURPHY_SEED":
        monkeypatch.setenv("NEURPHY_SEED", "-1")
    run_files = sorted(os.listdir(rundir))
    assert run(argv) == EXIT_USAGE
    assert f"{setting} must be a non-negative integer" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [] and sorted(os.listdir(rundir)) == run_files


@pytest.mark.parametrize("system,flag,value,setting", [
    ("pendulum", "--dt", "nan", "dt"),
    ("pendulum", "--dt", "inf", "dt"),
    ("pendulum", "--l", "nan:3:5", "l"),
    ("pendulum", "--m", "1:inf:3", "m"),
    ("orbit", "--dt", "nan", "dt"),
    ("orbit", "--dt", "inf", "dt"),
    ("orbit", "--dt", "0", "dt"),
    ("orbit", "--dt", "-0.1", "dt"),
    ("orbit", "--GM", "nan", "GM"),
    ("orbit", "--GM", "inf", "GM"),
    ("orbit", "--r0", "nan:2:3", "r0"),
])
def test_generate_rejects_non_finite_or_non_positive_settings(tmp_path, capsys, system, flag,
                                                              value, setting):
    path = tmp_path / "x.jsonl"
    assert run(["generate", "--system", system, "--out", str(path), "--T", "12",
                flag, value]) == EXIT_USAGE
    assert not path.exists()
    assert f"{system} {setting} must be a" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--system", "pendulum", "--l", "1:3:2", "--m", "1:2:1", "--dt", "1e200"],
     "pendulum trajectory at l=1.0, m=1.0 with dt=1e+200 is not finite at frame 2"),
    (["--system", "orbit", "--r0", "1.5:2:2", "--dt", "1e308"],
     "orbit trajectory at r0=1.5, v0r=0.0, v0theta=0.7 with dt=1e+308 is not finite "
     "at frame 3"),
])
def test_generate_names_the_point_whose_trajectory_overflows(tmp_path, capsys, argv, message):
    path = tmp_path / "x.jsonl"
    assert run(["generate", "--out", str(path), "--T", "5", *argv]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_rejects_unknown_config_key(dataset, tmp_path, capsys):
    cfgfile = tmp_path / "train.ini"
    cfgfile.write_text("[train]\nD = 1\nepoch = 5\n")
    out = tmp_path / "run"
    rc = run(["train", "--data", str(dataset), "--out", str(out), "--config", str(cfgfile)])
    assert rc == EXIT_USAGE
    assert not out.exists()
    assert "unknown key epoch in [train]" in capsys.readouterr().err


def test_examples_ini_loads(tmp_path):
    """The shipped INI serves both commands; training is cut to one epoch."""
    ini = os.path.join(os.path.dirname(__file__), os.pardir, "examples.ini")
    data, out = tmp_path / "pend.jsonl", tmp_path / "run"
    assert run(["generate", "--system", "pendulum", "--config", ini, "--out", str(data)]) == 0
    assert len(load_tasks_jsonl(data)) == 25
    assert run(["train", "--data", str(data), "--out", str(out), "--config", ini,
                "--epochs", "1"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["D"], config["batch_tasks"], config["model"]["dim_z"]) == (5, 2, 3)


def test_train_outputs(rundir):
    assert (rundir / "model.ckpt").exists()
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["config"]["D"] == 2
    assert len(manifest["dataset_sha256"]) == 64
    lines = (rundir / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,recon,kl1,kl2,total"
    assert len(lines) == 3


def test_train_missing_dataset(tmp_path, capsys):
    rc = run(["train", "--data", str(tmp_path / "none.jsonl"),
              "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE


def test_train_determinism(dataset, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = run(["train", "--data", str(dataset), "--out", str(out),
                  "--D", "1", "--epochs", "1", "--batch-tasks", "2",
                  "--n-c", "4", "--dim-z", "2", "--dim-r", "2"])
        assert rc == 0
        outs.append(out)
    # the run's size and the wall time are printed, and kept out of every artifact
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed[0].startswith("training on 8 meta-train tasks, B=2, 1 epochs ("), printed[0]
    assert re.search(r"trained in \S+ s \(\S+ tasks/s\)", printed[-1]), printed[-1]
    for artifact in ("model.ckpt", "metrics.csv", "manifest.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_eval_writes_tables(rundir):
    rc = run(["eval", "--run", str(rundir), "--stage", "training"])
    assert rc == 0
    mse = (rundir / "mse_training.csv").read_text().strip().split("\n")
    assert mse[0] == "stage,T+0,T+1,T+2"
    kl = (rundir / "kl_training.csv").read_text().strip().split("\n")
    assert kl[0] == "stage,kl1,kl2"
    r2 = (rundir / "r2_training.csv").read_text().strip().split("\n")
    assert r2[0] == "target,degree,r2"
    assert len(r2) == 5  # l and m, degrees 1 and 2


def test_eval_metatest_stage_and_manifold(rundir, tmp_path):
    prefix = str(tmp_path / "mani")
    rc = run(["eval", "--run", str(rundir), "--stage", "metatest2",
              "--manifold-out", prefix])
    assert rc == 0
    assert (rundir / "mse_metatest2.csv").exists()
    assert os.path.exists(prefix + "_global.csv")
    assert os.path.exists(prefix + "_states.csv")


def test_eval_missing_run(tmp_path, capsys):
    rc = run(["eval", "--run", str(tmp_path / "norun"), "--stage", "training"])
    assert rc == EXIT_USAGE


def test_rollout_csv(rundir, tmp_path):
    out = tmp_path / "roll.csv"
    rc = run(["rollout", "--run", str(rundir), "--task", "0",
              "--start", "3", "--horizon", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,true_x,true_y,pred_x,pred_y"
    assert len(lines) == 7
    assert lines[1].split(",")[0] == "3"


def test_rollout_out_of_range(rundir, tmp_path, capsys):
    rc = run(["rollout", "--run", str(rundir), "--task", "0",
              "--start", "3", "--horizon", "500",
              "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: window [3, 503] outside task of length 20\n"


def test_rollout_decodes_only_until_its_task(grid_run, tmp_path, monkeypatch, capsys):
    data, out = grid_run
    decoded = []
    monkeypatch.setattr(physics, "task_from_json",
                        lambda line: decoded.append(line) or task_from_json(line))
    for task_id, want in ((0, 1), (5, 6)):
        decoded.clear()
        assert run(["rollout", "--run", str(out), "--task", str(task_id), "--start", "3",
                    "--horizon", "5", "--out", str(tmp_path / "roll.csv")]) == 0
        assert len(decoded) == want
    decoded.clear()
    assert run(["rollout", "--run", str(out), "--task", "99", "--start", "3",
                "--horizon", "5", "--out", str(tmp_path / "none.csv")]) == EXIT_USAGE
    assert "task 99 not in dataset" in capsys.readouterr().err
    assert len(decoded) == 25
    assert not (tmp_path / "none.csv").exists()


@pytest.mark.parametrize("start,horizon", [("10", "-5"), ("3", "-1")])
def test_rollout_rejects_bad_window(rundir, tmp_path, start, horizon):
    out = tmp_path / "x.csv"
    rc = run(["rollout", "--run", str(rundir), "--task", "0", "--start", start,
              "--horizon", horizon, "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_eval_stage_without_frames_is_usage_error(tmp_path, capsys):
    # T=3 at D=1 leaves one eligible frame per task; the target split takes it
    data = tmp_path / "pend.jsonl"
    assert run(["generate", "--system", "pendulum", "--out", str(data),
                "--l", "1:3:3", "--m", "1:4:4", "--T", "3"]) == 0
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1",
                "--n-c", "2", "--epochs", "1"]) == 0
    capsys.readouterr()
    assert run(["eval", "--run", str(out), "--stage", "test"]) == EXIT_USAGE
    assert "stage 'test' scores no frames" in capsys.readouterr().err
    assert not any(out.glob("*_test.csv"))
    assert run(["eval", "--run", str(out), "--stage", "training"]) == 0


@pytest.mark.parametrize("short", [1, 3], ids=["one", "all"])
def test_eval_meta_test_task_too_short_for_D_scores_nothing(tmp_path, capsys, short):
    # a 25-task grid whose first `short` meta-test records are swapped for
    # their 5-frame versions, which have no frame t >= D+1 at D=5; train reads
    # only the meta-train side
    data, out = tmp_path / "pend.jsonl", tmp_path / "run"
    grid = ["generate", "--system", "pendulum", "--l", "1:3:5", "--m", "1:4:5"]
    assert run(grid + ["--out", str(data), "--T", "24"]) == 0
    assert run(grid + ["--out", str(tmp_path / "short.jsonl"), "--T", "5"]) == 0
    lines = data.read_bytes().split(b"\n")
    swapped = physics.split_indices(25, training.META_TRAIN_RATIO, 0)[1][:short]
    for i in swapped:
        lines[i] = (tmp_path / "short.jsonl").read_bytes().split(b"\n")[i]
    data.write_bytes(b"\n".join(lines))
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "5", "--epochs", "1",
                "--n-c", "4", "--dim-z", "2", "--dim-r", "2"]) == 0
    capsys.readouterr()
    argv = ["eval", "--run", str(out), "--stage", "metatest2"]
    if short == 3:
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: stage 'metatest2' scores no frames in its 3 "
                                           "tasks at D=5\n")
        assert not any(out.glob("*_metatest2.csv"))
        return
    assert run(argv) == 0
    # the stage's MSE is that of its other two tasks
    model, cfg = checkpoint_load(out / "model.ckpt")
    tasks = [t for t in stage_tasks(load_tasks_jsonl(data), "metatest2", 0) if t.length > 5]
    want = evaluation.rollout_mse(model, evaluation.EvalStage.draw(model, tasks, "metatest2",
                                                                   cfg, cli.EVAL_SEED))
    row = (out / "mse_metatest2.csv").read_text().splitlines()[1].split(",")
    assert len(tasks) == 2 and [float(v) for v in row[1:]] == pytest.approx(want.mse, rel=1e-9)


def infeasible_context_run(tmp_path, T, n_c):
    """A D=1 run on a 9-task grid of T frames, trained with n_c context pairs."""
    data, out = tmp_path / "pend.jsonl", tmp_path / "run"
    assert run(["generate", "--system", "pendulum", "--out", str(data),
                "--l", "1:3:3", "--m", "1:4:3", "--T", str(T)]) == 0
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1", "--epochs", "1",
                "--n-c", str(n_c), "--dim-z", "2", "--dim-r", "2", "--seed", "0"]) == 0
    return data, out


def test_eval_infeasible_context_names_the_task(tmp_path, capsys):
    # a 15-frame task has 14 start indices, fewer than metatest20's 20 pairs
    data, out = infeasible_context_run(tmp_path, 15, 4)
    first = stage_tasks(load_tasks_jsonl(data), "metatest20", 0)[0]
    capsys.readouterr()
    assert run(["eval", "--run", str(out), "--stage", "metatest20"]) == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: task {first.task_id}: cannot draw 20 pairs "
                                       "from 14 start indices\n")
    assert not any(out.glob("*_metatest20.csv"))


def test_rollout_infeasible_context_names_the_task(tmp_path, capsys):
    # rollout draws the run's 25 pairs from the first 21 frames' 20 start indices
    _, out = infeasible_context_run(tmp_path, 30, 25)
    roll = tmp_path / "roll.csv"
    capsys.readouterr()
    assert run(["rollout", "--run", str(out), "--task", "7", "--start", "5",
                "--horizon", "3", "--out", str(roll)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: task 7: cannot draw 25 pairs from 20 start indices\n"
    assert not roll.exists()


def test_plot_rollout_and_metrics_deterministic(rundir, tmp_path):
    roll = tmp_path / "roll.csv"
    assert run(["rollout", "--run", str(rundir), "--task", "0",
                "--start", "3", "--horizon", "5", "--out", str(roll)]) == 0
    svgs = []
    for name in ("p1.svg", "p2.svg"):
        out = tmp_path / name
        assert run(["plot", "--in", str(roll), "--out", str(out)]) == 0
        svgs.append(out.read_bytes())
    assert svgs[0] == svgs[1]
    assert svgs[0].startswith(b"<svg")

    m_out = tmp_path / "metrics.svg"
    assert run(["plot", "--in", str(rundir / "metrics.csv"),
                "--out", str(m_out)]) == 0
    assert m_out.read_bytes().startswith(b"<svg")


def test_plot_manifold_schema(rundir, tmp_path):
    prefix = str(tmp_path / "mani")
    assert run(["eval", "--run", str(rundir), "--stage", "training",
                "--manifold-out", prefix]) == 0
    out = tmp_path / "mani.svg"
    assert run(["plot", "--in", prefix + "_global.csv", "--out", str(out)]) == 0
    assert b"circle" in out.read_bytes()


def test_plot_unknown_schema(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc = run(["plot", "--in", str(bad), "--out", str(tmp_path / "o.svg")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("text", ["", "epoch,recon,kl1,total\n"], ids=["empty", "header only"])
def test_plot_without_data_rows(tmp_path, capsys, text):
    data = tmp_path / "metrics.csv"
    data.write_text(text)
    out = tmp_path / "o.svg"
    assert run(["plot", "--in", str(data), "--out", str(out)]) == EXIT_USAGE
    assert f"no data rows in {data}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw,line,want", [
    (b"epoch,recon,total\n0,1.0,2.0\n1,0.5\n", 3, "has 2 of the header's 3 columns"),
    (b"t,true_x,true_y,pred_x,pred_y\n3,0.1,0.2,0.3,0.4\n\n4,0.1,0.2\n", 4,
     "has 3 of the header's 5 columns"),
    (b"t,true_x,true_y,pred_x,pred_y\n0,0.1,0.2,0.3,0.4\n1,abc,2,3,4\n", 3,
     "has a cell that is not a number: could not convert string to float: 'abc'"),
    (b"epoch,recon,total\n0,1.0,2.0\n\n1,0.5,\xff\n", 4, "is not UTF-8 text"),
    (b"t,true_x,true_y,pred_x,pred_y\n0,0.1,0.2,0.3,0.4\n1,0.1,inf,0.3,0.4\n", 3,
     "has a cell that is not finite"),
    (b"t,true_x,true_y,pred_x,pred_y\n0,0.1,0.2,0.3,0.4\n1,nan,0.2,0.3,0.4\n", 3,
     "has a cell that is not finite"),
    (b"r_c_0,r_c_1,l,m\n0.1,0.2,1.0,2.0\n0.3,0.4,1.5,-inf\n", 3,
     "has a cell that is not finite"),
], ids=["metrics", "rollout", "not a number", "not UTF-8", "rollout inf", "rollout nan",
        "manifold inf"])
def test_plot_short_row(tmp_path, capsys, raw, line, want):
    data = tmp_path / "short.csv"
    data.write_bytes(raw)
    out = tmp_path / "o.svg"
    assert run(["plot", "--in", str(data), "--out", str(out)]) == EXIT_USAGE
    assert f"{data}: line {line} {want}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "r_c_0,r_c_1,r_c_2\n0.1,0.2,0.3\n0.4,0.5,0.6\n",
    "epoch\n0\n1\n",
], ids=["manifold without globals", "metrics without series"])
def test_plot_csv_without_a_series_to_draw(tmp_path, capsys, text):
    data = tmp_path / "in.csv"
    data.write_text(text)
    out = tmp_path / "o.svg"
    assert run(["plot", "--in", str(data), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: ") and err.count("\n") == 1
    assert not out.exists()


def test_seed_env_override(dataset, tmp_path, monkeypatch):
    out1 = tmp_path / "s1"
    monkeypatch.setenv("NEURPHY_SEED", "7")
    assert run(["train", "--data", str(dataset), "--out", str(out1),
                "--D", "1", "--epochs", "1", "--batch-tasks", "2",
                "--n-c", "4", "--dim-z", "2", "--dim-r", "2", "--seed", "0"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_generate_grid_gm_from_config(tmp_path):
    axes = ["--r0", "1.5:2:2", "--v0r", "0:0.2:2", "--v0t", "0.7:0.8:2", "--T", "15"]
    cfgfile = tmp_path / "grid.ini"
    cfgfile.write_text("[grid]\nGM = 1.2\n")
    paths = [tmp_path / f"{name}.jsonl" for name in ("ini", "flag", "default")]
    for path, extra in zip(paths, (["--config", str(cfgfile)], ["--GM", "1.2"], [])):
        assert run(["generate", "--system", "orbit", "--out", str(path)]
                   + axes + extra) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


@pytest.mark.parametrize("flag,value", [
    ("--batch-tasks", "-1"), ("--sigma-obs", "0"), ("--sigma-obs", "-0.1"),
    ("--lr", "0"), ("--epochs", "0"), ("--target-fraction", "1.5"),
    ("--target-fraction", "0"), ("--target-fraction", "1"), ("--lr", "inf"),
    ("--beta", "nan"), ("--n-c", "0"), ("--n-c", "999"), ("--D", "-1"), ("--D", "200"),
    ("--dim-z", "0"), ("--checkpoint-every", "-1")])
def test_train_rejects_bad_input(dataset, tmp_path, flag, value):
    out = tmp_path / "bad"
    rc = run(["train", "--data", str(dataset), "--out", str(out), "--D", "1",
              "--epochs", "1", "--n-c", "4", "--dim-z", "2", "--dim-r", "2",
              flag, value])
    assert rc == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("mix", ["orbit", "globals", "width"])
def test_train_rejects_mixed_systems(dataset, tmp_path, capsys, mix):
    data, out = tmp_path / "mixed.jsonl", tmp_path / "run"
    if mix == "orbit":
        orbit = tmp_path / "orbit.jsonl"
        assert run(["generate", "--system", "orbit", "--out", str(orbit), "--T", "20"]) == 0
        data.write_bytes(dataset.read_bytes() + orbit.read_bytes())
        record = 10
        want = ("is system 'orbit' with globals ['e', 'r_n', 'theta_n'], "
                "record 1 system 'pendulum'")
    else:
        lines = dataset.read_bytes().split(b"\n")
        task = json.loads(lines[4])
        if mix == "globals":
            del task["globals"]["m"]
            want = "is system 'pendulum' with globals ['l'], record 1 system 'pendulum'"
        else:
            task["observations"] = [row + [0.0] for row in task["observations"]]
            want = "has 3 observation columns, the model's obs_dim is 2"
        lines[4] = json.dumps(task).encode()
        data.write_bytes(b"\n".join(lines))
        record = 5
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1",
                "--epochs", "1", "--n-c", "4"]) == EXIT_USAGE
    assert f"{data}: record {record} {want}" in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_exits_numeric(dataset, tmp_path, capsys):
    out = tmp_path / "div"
    rc = run(["train", "--data", str(dataset), "--out", str(out), "--D", "1",
              "--epochs", "2", "--n-c", "4", "--dim-z", "2", "--dim-r", "2",
              "--sigma-obs", "1e-160"])
    assert rc == EXIT_NUMERIC
    assert "non-finite" in capsys.readouterr().err
    assert (out / "metrics.csv").read_text() == "epoch,recon,kl1,total\n"
    assert not (out / "manifest.json").exists()


def test_eval_metatest20_few_tasks_skips_r2_and_writes_manifold(tmp_path):
    # 25 tasks leave 3 meta-test tasks: too few for an R^2 fit on dim_r = 3
    data = tmp_path / "pend.jsonl"
    assert run(["generate", "--system", "pendulum", "--out", str(data),
                "--l", "1:3:5", "--m", "1:4:5", "--T", "24"]) == 0
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1",
                "--epochs", "1", "--batch-tasks", "11", "--dim-z", "2",
                "--dim-r", "3"]) == 0
    prefix = str(tmp_path / "mani")
    assert run(["eval", "--run", str(out), "--stage", "metatest20",
                "--manifold-out", prefix]) == 0
    assert (out / "r2_metatest20.csv").read_text() == "target,degree,r2\n"
    g_lines = (tmp_path / "mani_global.csv").read_text().strip().split("\n")
    assert g_lines[0] == "r_c_0,r_c_1,r_c_2,l,m" and len(g_lines) == 4
    assert os.path.exists(prefix + "_states.csv")
    assert run(["plot", "--in", prefix + "_global.csv",
                "--out", str(tmp_path / "mani.svg")]) == 0


def test_D0_runs_every_command(tmp_path):
    data, out = tmp_path / "pend.jsonl", tmp_path / "run"
    assert run(["generate", "--system", "pendulum", "--out", str(data),
                "--l", "1:3:3", "--m", "1:4:3", "--T", "30"]) == 0
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "0",
                "--epochs", "2"]) == 0
    for stage in STAGES:
        assert run(["eval", "--run", str(out), "--stage", stage]) == 0
        assert (out / f"kl_{stage}.csv").read_text() == f"stage\n{stage}\n"
        assert (out / f"mse_{stage}.csv").read_text().startswith("stage,T+0\n")
    assert (out / "metrics.csv").read_text().startswith("epoch,recon,total\n")
    assert run(["rollout", "--run", str(out), "--task", "0", "--start", "3",
                "--horizon", "5", "--out", str(tmp_path / "roll.csv")]) == 0
    assert run(["plot", "--in", str(out / "metrics.csv"),
                "--out", str(tmp_path / "metrics.svg")]) == 0


def test_plot_manifold_axis_labels_follow_header(tmp_path):
    # a dim_r = 1 run's manifold CSV: the y axis draws the first global
    data = tmp_path / "mani_global.csv"
    data.write_text("r_c_0,l,m\n0.1,1.0,2.0\n0.2,1.5,3.0\n0.4,2.0,1.0\n")
    out = tmp_path / "mani.svg"
    assert run(["plot", "--in", str(data), "--out", str(out)]) == 0
    svg = out.read_text()
    assert ">r_c_0</text>" in svg and ">l</text>" in svg and "color: l [" in svg
    assert "r_c_1" not in svg


@pytest.fixture
def small_tree(dataset, tmp_path):
    """A directory holding a dataset and a run trained on it."""
    tree = tmp_path / "tree"
    tree.mkdir()
    shutil.copy(dataset, tree / "pend.jsonl")
    assert run(["train", "--data", str(tree / "pend.jsonl"),
                "--out", str(tree / "run"), "--D", "1", "--epochs", "1",
                "--batch-tasks", "4", "--n-c", "4", "--dim-z", "2",
                "--dim-r", "2"]) == 0
    return tree


def test_run_dir_relocatable(small_tree, tmp_path):
    manifest = json.loads((small_tree / "run" / "manifest.json").read_text())
    assert manifest["dataset"] == os.path.join("..", "pend.jsonl")
    assert manifest["checkpoint"] == "model.ckpt"
    moved = tmp_path / "moved"
    shutil.move(small_tree, moved)
    run_dir = str(moved / "run")
    assert run(["eval", "--run", run_dir, "--stage", "training"]) == 0
    assert run(["rollout", "--run", run_dir, "--task", "0", "--start", "3",
                "--horizon", "5", "--out", str(tmp_path / "roll.csv")]) == 0


def test_ctrl_c_in_train_exits_130_with_one_line(dataset, tmp_path, monkeypatch, capfd):
    real, epochs = training.backward_batch, []

    def interrupt_second_epoch(*args):
        epochs.append(1)
        if len(epochs) == 2:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(training, "backward_batch", interrupt_second_epoch)
    out = tmp_path / "run"
    # 8 meta-train tasks, B=8: one minibatch per epoch
    assert run(["train", "--data", str(dataset), "--out", str(out), "--D", "1",
                "--epochs", "3", "--batch-tasks", "8", "--n-c", "4"]) == EXIT_INTERRUPTED
    assert capfd.readouterr().err == "interrupted\n"
    assert len((out / "metrics.csv").read_text().splitlines()) == 2  # header, epoch 0


def test_ctrl_c_in_eval_exits_130_and_writes_no_table(small_tree, monkeypatch, capfd):
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "kl_report", interrupt)
    run_dir = small_tree / "run"
    before = sorted(os.listdir(run_dir))
    capfd.readouterr()
    assert run(["eval", "--run", str(run_dir), "--stage", "training"]) == EXIT_INTERRUPTED
    assert capfd.readouterr().err == "interrupted\n"
    assert sorted(os.listdir(run_dir)) == before


def test_cli_import_leaves_multiprocessing_unloaded():
    # the training worker imports it only when it forks: it costs every CLI call ~10 ms
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(neurphy.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, neurphy.cli\nprint('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "False"


def test_eval_draws_each_stage_task_once(rundir, dataset, tmp_path, monkeypatch):
    draws = []
    select = training.select_contexts
    monkeypatch.setattr(training, "select_contexts",
                        lambda task, *rest: draws.append(task.task_id) or select(task, *rest))
    assert run(["eval", "--run", str(rundir), "--stage", "training",
                "--manifold-out", str(tmp_path / "mani")]) == 0
    cfg = json.loads((rundir / "manifest.json").read_text())["config"]
    stage_ids = [t.task_id for t in stage_tasks(load_tasks_jsonl(dataset), "training",
                                                cfg["seed"])]
    assert draws == stage_ids


def test_eval_changed_dataset_is_io_error(small_tree, tmp_path, capsys):
    # the same file name, regenerated on another grid after training
    assert run(["generate", "--system", "pendulum", "--out", str(small_tree / "pend.jsonl"),
                "--l", "1:2:3", "--m", "1:4:3", "--T", "20"]) == 0
    run_dir = small_tree / "run"
    before = sorted(os.listdir(run_dir))
    capsys.readouterr()
    assert run(["eval", "--run", str(run_dir), "--stage", "training"]) == EXIT_IO
    assert "sha256" in capsys.readouterr().err
    roll = tmp_path / "roll.csv"
    assert run(["rollout", "--run", str(run_dir), "--task", "0", "--start", "3",
                "--horizon", "5", "--out", str(roll)]) == EXIT_IO
    assert sorted(os.listdir(run_dir)) == before and not roll.exists()


def test_eval_corrupt_checkpoint_is_io_error(small_tree, capsys):
    ckpt = small_tree / "run" / "model.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    ckpt.write_bytes(bytes(raw))
    rc = run(["eval", "--run", str(small_tree / "run"), "--stage", "training"])
    assert rc == EXIT_IO
    assert "checksum" in capsys.readouterr().err


def test_nonfinite_checkpoint_is_numeric_error(small_tree, tmp_path, capsys):
    ckpt = small_tree / "run" / "model.ckpt"
    model, cfg = checkpoint_load(ckpt)
    name, param = model.parameters()[0]
    param.value[0, 0] = np.inf
    checkpoint_save(model, cfg, ckpt)
    run_dir = str(small_tree / "run")
    message = f"{ckpt}: non-finite values in parameter {name}"
    assert run(["eval", "--run", run_dir, "--stage", "training"]) == EXIT_NUMERIC
    assert message in capsys.readouterr().err
    assert run(["rollout", "--run", run_dir, "--task", "0", "--start", "3",
                "--horizon", "5", "--out", str(tmp_path / "roll.csv")]) == EXIT_NUMERIC
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda m: json.dumps({k: v for k, v in m.items() if k != "dataset"}).encode(),
    lambda m: b"[1, 2]",
    lambda m: json.dumps({**m, "checkpoint": 5}).encode(),
    lambda m: b"{not json",
    lambda m: b"\xff\xfe" + json.dumps(m).encode(),
], ids=["missing key", "not an object", "checkpoint not a string", "not JSON", "not UTF-8"])
def test_eval_manifest_missing_key_is_usage_error(small_tree, capsys, edit):
    path = small_tree / "run" / "manifest.json"
    path.write_bytes(edit(json.loads(path.read_text())))
    assert run(["eval", "--run", str(small_tree / "run"),
                "--stage", "training"]) == EXIT_USAGE
    assert str(path) in capsys.readouterr().err


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """A 25-task dataset, whose meta split leaves 3 meta-test tasks, and a run
    trained on it."""
    tree = tmp_path_factory.mktemp("grid")
    data, out = tree / "pend.jsonl", tree / "run"
    assert run(["generate", "--system", "pendulum", "--out", str(data),
                "--l", "1:3:5", "--m", "1:4:5", "--T", "24"]) == 0
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1",
                "--epochs", "1", "--batch-tasks", "11", "--n-c", "4", "--dim-z", "2",
                "--dim-r", "2"]) == 0
    return data, out


def test_csv_floats_are_spelled_as_in_the_task_file(grid_run, tmp_path):
    data, out = grid_run
    # every number of every record as the JSONL spells it
    records = {}
    for line in data.read_text().splitlines():
        record = json.loads(line, parse_float=str, parse_int=str)
        records[record["task_id"]] = record
    prefix = str(tmp_path / "mani")
    assert run(["eval", "--run", str(out), "--stage", "metatest20",
                "--manifold-out", prefix]) == 0
    roll = tmp_path / "roll.csv"
    assert run(["rollout", "--run", str(out), "--task", "0", "--start", "3",
                "--horizon", "5", "--out", str(roll)]) == 0

    states = [line.split(",") for line in
              (tmp_path / "mani_states.csv").read_text().split("\n")[1:-1]]
    ids = list(dict.fromkeys(row[0] for row in states))  # the stage's tasks, in row order
    g_lines = (tmp_path / "mani_global.csv").read_text().split("\n")
    assert g_lines[0].split(",")[-2:] == ["l", "m"] and len(g_lines) == len(ids) + 2
    for task_id, line in zip(ids, g_lines[1:-1], strict=True):
        assert line.split(",")[-2:] == [records[task_id]["globals"][k] for k in ("l", "m")]
    for task_id in ids:
        rows = [row[-2:] for row in states if row[0] == task_id]
        assert rows == records[task_id]["states"][1:]
    for line in roll.read_text().split("\n")[1:-1]:
        t, true_x, true_y = line.split(",")[:3]
        assert [true_x, true_y] == records["0"]["observations"][int(t)]


def test_plot_reads_the_old_17_digit_spelling(grid_run, tmp_path):
    data, out = grid_run
    prefix = str(tmp_path / "mani")
    assert run(["eval", "--run", str(out), "--stage", "training",
                "--manifold-out", prefix]) == 0
    roll = tmp_path / "roll.csv"
    assert run(["rollout", "--run", str(out), "--task", "0", "--start", "3",
                "--horizon", "5", "--out", str(roll)]) == 0
    for new in (roll, out / "metrics.csv", tmp_path / "mani_global.csv"):
        old = tmp_path / f"old_{new.name}"
        header, *rows = new.read_text().splitlines()
        old.write_text("\n".join([header] + [",".join(
            c if c.lstrip("-").isdigit() else format(float(c), ".17g")
            for c in row.split(",")) for row in rows]) + "\n")
        assert old.read_bytes() != new.read_bytes()
        svgs = []
        for path in (new, old):
            assert run(["plot", "--in", str(path), "--out", str(tmp_path / "p.svg")]) == 0
            svgs.append((tmp_path / "p.svg").read_bytes())
        assert svgs[0] == svgs[1]


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_eval_reads_once_and_decodes_only_its_stage(grid_run, stage, monkeypatch):
    data, out = grid_run
    tasks = load_tasks_jsonl(data)
    seed = json.loads((out / "manifest.json").read_text())["config"]["seed"]
    csvs = [out / f"{kind}_{stage}.csv" for kind in ("mse", "kl", "r2")]
    # what eval writes for an EvalStage drawn from every decoded task
    monkeypatch.setattr(cli, "stage_tasks", lambda dataset, *rest: stage_tasks(tasks, *rest))
    assert run(["eval", "--run", str(out), "--stage", stage]) == 0
    want = [p.read_bytes() for p in csvs]
    monkeypatch.undo()

    decoded, opened = [], []
    monkeypatch.setattr(physics, "task_from_json",
                        lambda line: decoded.append(line) or task_from_json(line))
    real_open = open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.exists(file) \
                and os.path.samefile(file, data):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert run(["eval", "--run", str(out), "--stage", stage]) == 0
    monkeypatch.undo()
    assert len(decoded) == len(stage_tasks(tasks, stage, seed))
    assert len(decoded) == (3 if STAGES[stage].meta_test else 22)
    assert len(opened) == 1
    assert [p.read_bytes() for p in csvs] == want


def test_train_records_the_digest_of_what_it_decoded(dataset, tmp_path, monkeypatch):
    data = tmp_path / "pend.jsonl"
    shutil.copy(dataset, data)
    decoded = data.read_bytes()
    train = cli.train

    def edit_then_train(*args, **kwargs):
        data.write_bytes(decoded + b"\n")  # the same records, other bytes
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", edit_then_train)
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1",
                "--epochs", "1", "--n-c", "4", "--dim-z", "2", "--dim-r", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset_sha256"] == hashlib.sha256(decoded).hexdigest()
    assert run(["eval", "--run", str(out), "--stage", "training"]) == EXIT_IO


def test_train_corrupt_line_is_usage_error(dataset, tmp_path, capsys):
    # record 1 is the one meta-test task at seed 0, which train does not
    # train on but decodes all the same
    assert stage_tasks(list(range(9)), "metatest2", 0) == [1]
    lines = dataset.read_bytes().split(b"\n")
    lines[1] = lines[1][:100]
    data = tmp_path / "pend.jsonl"
    data.write_bytes(b"\n".join(lines))
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1",
                "--epochs", "1", "--n-c", "4"]) == EXIT_USAGE
    assert f"{data}, line 2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("globals", [1.0, 2.0]),
    ("globals", {"l": "1.0"}),
    ("globals", {"l": True}),
    ("globals", {"l": float("nan")}),
    ("dt", "0.1"),
    ("dt", float("inf")),
    ("dt", None),
    ("task_id", 1.0),
    ("task_id", True),
    ("task_id", -1),
    ("seed", "0"),
    ("system", 1),
], ids=["globals list", "globals string value", "globals bool value", "globals nan",
        "dt string", "dt inf", "dt null", "task_id float", "task_id bool", "task_id negative",
        "seed string", "system number"])
def test_train_mistyped_record_is_usage_error(dataset, tmp_path, capsys, field, value):
    lines = dataset.read_bytes().split(b"\n")
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record).encode()
    data = tmp_path / "pend.jsonl"
    data.write_bytes(b"\n".join(lines))
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1",
                "--epochs", "1", "--n-c", "4"]) == EXIT_USAGE
    assert f"{data}, line 2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("observations", float("nan")),
    ("states", float("inf")),
], ids=["observation nan", "state inf"])
def test_train_non_finite_record_is_usage_error(dataset, tmp_path, capsys, field, value):
    lines = dataset.read_bytes().split(b"\n")
    record = json.loads(lines[1])
    record[field][1][0] = value
    lines[1] = json.dumps(record).encode()
    data = tmp_path / "pend.jsonl"
    data.write_bytes(b"\n".join(lines))
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--out", str(out), "--D", "1",
                "--epochs", "1", "--n-c", "4"]) == EXIT_USAGE
    assert f"{data}, line 2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("openblas", [None, "2"])
def test_cli_pins_blas_unless_the_user_set_it(openblas):
    # a fresh interpreter, so numpy is first loaded by importing the CLI
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    src = os.path.dirname(os.path.dirname(neurphy.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if openblas:
        env["OPENBLAS_NUM_THREADS"] = openblas
    code = ("import os, neurphy.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    value, threads = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                    text=True, check=True, timeout=120).stdout.split()
    assert value == (openblas or "1")
    if openblas is None:
        assert threads == "1"  # so train and eval may fork their worker
