"""Command-line pipeline: generate datasets, train, evaluate, roll out, plot.

Exit codes: 0 success, 2 usage/config error, 3 IO error, 4 numerical abort,
130 interrupted (Ctrl-C).
The NEURPHY_SEED environment variable overrides every configured seed.
"""

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
import time

# One BLAS thread unless the user set one. Set before the package first loads
# numpy, it keeps the process single-threaded, so train and eval may fork their
# worker process, which speeds B=50 minibatches more than a second BLAS thread does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import __version__
from .artifacts import write_atomic, write_csv
from .autodiff import NonFiniteError
from .evaluation import EvalStage, export_manifold, global_r2_table, kl_report, rollout_mse
from .model import ModelConfig
# load_tasks_jsonl is not called here; perfbench/tracer.py patches it by name
from .physics import (OrbitGridConfig, PendulumGridConfig, PhysicsError, TaskFile,
                      generate_task_grid, load_tasks_jsonl, save_tasks_jsonl,
                      select_contexts)
from .svg import line_chart, scatter_chart
from .training import (CHECKPOINT_FILE, METRICS_FILE, PAPER_SCALE, STAGES, CheckpointError,
                       TrainConfig, checkpoint_load, stage_tasks, train)

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_INTERRUPTED = 130  # what a shell reports for a SIGINT
EVAL_SEED = 12345  # eval's and rollout's default --eval-seed


class UsageError(Exception):
    pass


def _floats(text):
    return [float(b) for b in text.split(",")]


# Config fields that a flag (--name, dashes for underscores) or a key of the
# INI section sets, with the type of their value. A field set by neither keeps
# its config dataclass's default. A grid axis "lo:hi:count" sets the
# <axis>_range and <axis>_count fields.
GRID_FIELDS = {"l": str, "m": str, "r0": str, "v0r": str, "v0t": str,
               "GM": float, "T": int, "dt": float, "seed": int}
MODEL_FIELDS = {"dim_z": int, "dim_r": int}
TRAIN_FIELDS = {f.name: _floats if f.name == "beta" else f.type
                for f in dataclasses.fields(TrainConfig) if f.name != "model"}
HELP = {"l": "pendulum length axis lo:hi:count",
        "m": "pendulum mass axis lo:hi:count",
        "r0": "orbit initial radius axis lo:hi:count",
        "v0r": "orbit radial velocity axis lo:hi:count",
        "v0t": "orbit tangential velocity axis lo:hi:count",
        "beta": "comma-separated per-overshoot weights"}


def _parse_axis(text, name):
    try:
        lo, hi, n = text.split(":")
        return (float(lo), float(hi)), int(n)
    except ValueError as exc:
        raise UsageError(f"bad axis spec for {name}: {text!r} (want lo:hi:count)") from exc


def _seed_override(seed, setting):
    """NEURPHY_SEED if set, else the setting's seed; a negative one is a UsageError."""
    env = os.environ.get("NEURPHY_SEED")
    try:
        seed, setting = (int(env), "NEURPHY_SEED") if env else (seed, setting)
    except ValueError as exc:
        raise UsageError(f"NEURPHY_SEED must be an integer: {exc}") from exc
    if seed < 0:
        raise UsageError(f"{setting} must be a non-negative integer, got {seed}")
    return seed


def _read_config(path):
    cp = configparser.ConfigParser()
    if path:
        if not os.path.isfile(path):
            raise UsageError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as f:
                cp.read_file(f)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"bad config file {path}: {exc}") from exc
    return cp


def _settings(args, cp, section, fields):
    """Each field's flag if given, else its INI key if present; fields set by
    neither are left out. A key of the section that is no field's is a
    UsageError."""
    sec = cp[section] if cp.has_section(section) else {}
    unknown = sorted(set(sec) - {name.lower() for name in fields})
    if unknown:
        raise UsageError(f"{args.config}: unknown key {', '.join(unknown)} in [{section}]")
    out = {}
    for name, cast in fields.items():
        if getattr(args, name) is not None:
            out[name] = getattr(args, name)
        elif name in sec:
            try:
                out[name] = cast(sec[name])
            except ValueError as exc:
                raise UsageError(f"{args.config}: bad {name} in [{section}]: {exc}") from exc
    return out


def cmd_generate(args):
    cls = PendulumGridConfig if args.system == "pendulum" else OrbitGridConfig
    names = {f.name for f in dataclasses.fields(cls)}
    kw = _settings(args, _read_config(args.config), "grid", GRID_FIELDS)
    foreign = [k for k in kw if k not in names and f"{k}_range" not in names]
    if foreign:
        raise UsageError(f"{args.system} has no setting {', '.join(foreign)}")
    for axis in [k for k in kw if f"{k}_range" in names]:
        kw[f"{axis}_range"], kw[f"{axis}_count"] = _parse_axis(kw.pop(axis), axis)
    cfg = cls(**kw)
    cfg.seed = _seed_override(cfg.seed, "seed")
    tasks, skipped = generate_task_grid(cfg)
    save_tasks_jsonl(tasks, args.out)
    print(f"wrote {len(tasks)} tasks to {args.out}"
          + (f" ({skipped} unbound orbit points skipped)" if args.system == "orbit" else ""))
    return 0


def cmd_train(args):
    if not os.path.exists(args.data):
        raise UsageError(f"dataset not found: {args.data}")
    cp = _read_config(args.config)
    cfg = TrainConfig(model=ModelConfig(**_settings(args, cp, "model", MODEL_FIELDS)),
                      **_settings(args, cp, "train", TRAIN_FIELDS))
    cfg.seed = _seed_override(cfg.seed, "seed")
    if cfg.epochs < 1:
        raise UsageError(f"epochs must be at least 1, got {cfg.epochs}")
    if cfg.checkpoint_every < 0:
        raise UsageError(f"checkpoint_every must be at least 0, got {cfg.checkpoint_every}")
    # every record decoded and the digest taken of the same bytes, which are
    # not held through training
    dataset = TaskFile(args.data)
    tasks, digest = list(dataset), dataset.sha256()
    del dataset
    meta_train = stage_tasks(tasks, "training", cfg.seed)
    # eval reads every task's globals under the keys of the first
    first = (tasks[0].system, tasks[0].globals.keys())
    for n, task in enumerate(tasks, 1):
        if (task.system, task.globals.keys()) != first:
            raise UsageError(f"{args.data}: record {n} is system {task.system!r} with globals "
                             f"{sorted(task.globals)}, record 1 system {first[0]!r} with "
                             f"globals {sorted(first[1])}; a run trains on one system")
        if task.observations.shape[1] != cfg.model.obs_dim:
            raise UsageError(f"{args.data}: record {n} has {task.observations.shape[1]} "
                             f"observation columns, the model's obs_dim is {cfg.model.obs_dim}")
    # training's draws, tried on the shortest task before the run dir exists
    shortest = min(meta_train, key=lambda task: task.length)
    STAGES["training"].draw(shortest, cfg, cfg.seed, cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    print(f"training on {len(meta_train)} meta-train tasks, "
          f"B={cfg.batch_tasks}, {cfg.epochs} epochs "
          f"(paper scale: {PAPER_SCALE['tasks']} tasks, "
          f"B={PAPER_SCALE['batch_tasks']}, {PAPER_SCALE['epochs']} epochs)")
    started = time.perf_counter()
    _, history = train(meta_train, cfg, args.out)
    train_s = time.perf_counter() - started
    manifest = {
        "tool_version": __version__,
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        # paths relative to the run dir, so that a run moves with its dataset
        "dataset": os.path.relpath(args.data, args.out),
        "dataset_sha256": digest,
        "checkpoint": CHECKPOINT_FILE,
        "metrics_csv": METRICS_FILE,
    }
    write_atomic(os.path.join(args.out, "manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"final loss {history[-1].total:.6g} "
          f"(initial {history[0].total:.6g}); trained in {train_s:.3g} s "
          f"({len(meta_train) * cfg.epochs / train_s:.4g} tasks/s); run dir {args.out}")
    return 0


def _load_run(rundir):
    manifest_path = os.path.join(rundir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise UsageError(f"no manifest.json in {rundir}")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise UsageError(f"{manifest_path} is not a JSON manifest: {exc}") from exc
    keys = ("checkpoint", "dataset", "dataset_sha256")
    if not (isinstance(manifest, dict) and all(isinstance(manifest.get(k), str) for k in keys)):
        raise UsageError(f"{manifest_path} is not a JSON object with string entries "
                         f"{', '.join(keys)}")
    # joining keeps the absolute paths that older manifests hold
    ckpt = os.path.join(rundir, manifest["checkpoint"])
    data = os.path.join(rundir, manifest["dataset"])
    digest = manifest["dataset_sha256"]
    # train decoded every record of the file with this digest, so records are
    # decoded here only as they are read
    dataset = TaskFile(data)
    if dataset.sha256() != digest:
        raise OSError(f"{data} changed since training: its sha256 is not {manifest_path}'s")
    model, cfg = checkpoint_load(ckpt)
    return model, cfg, dataset


def _aligned(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows)


def cmd_eval(args):
    seed = _seed_override(args.eval_seed, "--eval-seed")
    model, cfg, dataset = _load_run(args.run)
    tasks = stage_tasks(dataset, args.stage, cfg.seed)
    del dataset  # the file's bytes are not held through the readouts
    s = EvalStage.draw(model, tasks, args.stage, cfg, seed)
    mse = rollout_mse(model, s)
    kls = kl_report(model, s)
    r2s = global_r2_table(s)

    tables = {
        "mse": (["stage"] + [f"T+{d}" for d in range(cfg.D + 1)], [[s.name, *mse.mse]]),
        "kl": (["stage"] + [f"kl{d}" for d in range(1, cfg.D + 1)], [[s.name, *kls]]),
        "r2": (["target", "degree", "r2"], [[r.target, r.degree, r.r2] for r in r2s]),
    }
    shown = []
    for kind, (header, rows) in tables.items():
        write_csv(os.path.join(args.run, f"{kind}_{s.name}.csv"), header, rows)
        title = [kind.upper()] + header[1:] if header[0] == "stage" else header
        shown.append(_aligned([title] + [[c if isinstance(c, str) else f"{c:.5g}"
                                          for c in row] for row in rows]))
    print("\n\n".join(shown))

    if args.manifold_out:
        export_manifold(model, s, args.manifold_out + "_global.csv",
                        args.manifold_out + "_states.csv")
        print(f"manifold CSVs written with prefix {args.manifold_out}")
    return 0


def cmd_rollout(args):
    seed = _seed_override(args.eval_seed, "--eval-seed")
    model, cfg, dataset = _load_run(args.run)
    # the first record with the id; generated datasets have unique ids
    task = next((t for t in dataset if t.task_id == args.task), None)
    if task is None:
        raise UsageError(f"task {args.task} not in dataset")
    # the run's n_c contexts from the sequence prefix, as the meta-test stages draw them
    ctx = select_contexts(task, cfg.n_c, "metatest_prefix", seed + task.task_id)
    pred = model.predict_observations(task, ctx, args.start, args.horizon)
    rows = [[args.start + i, *task.observations[args.start + i], *pred[i]]
            for i in range(args.horizon + 1)]
    write_csv(args.out, ["t", "true_x", "true_y", "pred_x", "pred_y"], rows)
    print(f"wrote {args.horizon + 1} rows to {args.out}")
    return 0


def _columns(path, header, rows):
    """The columns, as floats, of a CSV's data rows (line number, cells); a
    UsageError names the line of a row that is not header-wide or holds a cell
    that is not a finite number."""
    table = []
    for n, row in rows:
        if len(row) != len(header):
            raise UsageError(f"{path}: line {n} has {len(row)} of the header's "
                             f"{len(header)} columns")
        try:
            table.append([float(c) for c in row])
        except ValueError as exc:
            raise UsageError(f"{path}: line {n} has a cell that is not a number: "
                             f"{exc}") from exc
        if not all(map(math.isfinite, table[-1])):
            raise UsageError(f"{path}: line {n} has a cell that is not finite")
    return list(zip(*table))


def cmd_plot(args):
    if not os.path.exists(args.infile):
        raise UsageError(f"input not found: {args.infile}")
    with open(args.infile, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise UsageError(f"{args.infile}: line {line} is not UTF-8 text") from exc
    lines = [(n, line.split(",")) for n, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if len(lines) < 2:
        raise UsageError(f"no data rows in {args.infile}")
    header, rows = lines[0][1], lines[1:]
    cols = _columns(args.infile, header, rows)
    if header[:5] == ["t", "true_x", "true_y", "pred_x", "pred_y"]:
        svg = line_chart(cols[0], {"true_x": cols[1], "pred_x": cols[3]},
                         title="rollout", x_label="t", y_label="x")
    elif header[0] == "r_c_0" and len(header) > 2 and not header[-1].startswith("r_c_"):
        dim_r = sum(1 for h in header if h.startswith("r_c_"))
        svg = scatter_chart(cols[0], cols[1], cols[dim_r],
                            title="global representation manifold",
                            x_label=header[0], y_label=header[1],
                            color_label=header[dim_r])
    elif header[0] == "epoch" and len(header) > 1:
        svg = line_chart(cols[0], dict(zip(header[1:], cols[1:])),
                         title="training metrics", x_label="epoch", y_label="loss")
    else:
        raise UsageError(f"{args.infile}: unknown CSV schema {header}; plot reads a rollout "
                         "CSV, a manifold CSV with a colour column or a metrics CSV with a series")
    write_atomic(args.out, svg)
    print(f"wrote {args.out}")
    return 0


def _add_fields(parser, fields):
    for name, cast in fields.items():
        parser.add_argument("--" + name.replace("_", "-"), type=cast, dest=name,
                            help=HELP.get(name))


def build_parser():
    p = argparse.ArgumentParser(prog="neurphy", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a task-grid dataset (JSONL)")
    g.add_argument("--system", choices=["pendulum", "orbit"], required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--config")
    _add_fields(g, GRID_FIELDS)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train on a JSONL dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config")
    _add_fields(t, {**TRAIN_FIELDS, **MODEL_FIELDS})
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="R2 / MSE / KL tables for a run")
    e.add_argument("--run", required=True)
    e.add_argument("--stage", choices=list(STAGES), required=True)
    e.add_argument("--eval-seed", type=int, default=EVAL_SEED, dest="eval_seed")
    e.add_argument("--manifold-out", dest="manifold_out")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("rollout", help="multi-step prediction CSV for one task")
    r.add_argument("--run", required=True)
    r.add_argument("--task", type=int, required=True)
    r.add_argument("--start", type=int, required=True)
    r.add_argument("--horizon", type=int, default=50)
    r.add_argument("--out", required=True)
    r.add_argument("--eval-seed", type=int, default=EVAL_SEED, dest="eval_seed")
    r.set_defaults(func=cmd_rollout)

    pl = sub.add_parser("plot", help="render an eval/rollout CSV as SVG")
    pl.add_argument("--in", dest="infile", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, PhysicsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, CheckpointError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
