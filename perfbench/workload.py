"""One benchmark workload, run in this process.

The workload is the README's CLI chain, called through neurphy.cli.main and
repeated for a time budget, with every operation's outputs checked. run.py
starts this file in a fresh interpreter whose environment pins BLAS to one
thread, and reads the JSON object it prints as its last line.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

STAGES = ("training", "test", "metatest20", "metatest2")
RUN = "runs/pend"
# Artifacts that must be byte-identical across repeats of one seed.
DETERMINISTIC = ("pend.jsonl", f"{RUN}/metrics.csv", f"{RUN}/model.ckpt",
                 "roll.svg", "loss.svg", "manifold.svg")


@dataclass(frozen=True)
class Workload:
    l: str  # pendulum grid axes, lo:hi:count
    m: str
    D: int
    batch_tasks: int
    epochs: int  # a multiple of 3: the chain checkpoints every epochs/3

    @property
    def meta_train_tasks(self):
        n = int(self.l.split(":")[2]) * int(self.m.split(":")[2])
        return int(0.9 * n)  # the CLI's meta-train share of the grid


WORKLOADS = {
    # README/examples.ini desk grid (25 tasks, 22 meta-train) at D=5: the
    # overshoot ELBO and backward dominate.
    "pend-d5": Workload("1:3:5", "1:4:5", D=5, batch_tasks=2, epochs=6),
    # The same grid at D=1: one transition per task, small graphs, so per-op
    # fixed cost and Adam take the largest shares.
    "pend-d1": Workload("1:3:5", "1:4:5", D=1, batch_tasks=2, epochs=15),
    # Paper-scale grid (651 tasks, 585 meta-train) at D=1, B=50: forward-only
    # eval over many tasks and a 5.7 MB JSONL written once and read six times.
    "pend-wide": Workload("1:3:31", "1:4:21", D=1, batch_tasks=50, epochs=3),
}


def chain(w, seed, epochs):
    """The README pipeline as (argv, files it must leave) pairs, in order."""
    ops = [
        (["generate", "--system", "pendulum", "--out", "pend.jsonl",
          "--l", w.l, "--m", w.m, "--seed", str(seed)], ["pend.jsonl"]),
        (["train", "--data", "pend.jsonl", "--out", RUN, "--D", str(w.D),
          "--epochs", str(epochs), "--batch-tasks", str(w.batch_tasks),
          "--checkpoint-every", str(epochs // 3), "--seed", str(seed)],
         [f"{RUN}/model.ckpt", f"{RUN}/metrics.csv", f"{RUN}/manifest.json"]),
    ]
    for stage in STAGES:
        argv = ["eval", "--run", RUN, "--stage", stage]
        files = [f"{RUN}/{kind}_{stage}.csv" for kind in ("mse", "kl", "r2")]
        if stage == "metatest20":
            argv += ["--manifold-out", f"{RUN}/mani"]
            files += [f"{RUN}/mani_global.csv", f"{RUN}/mani_states.csv"]
        ops.append((argv, files))
    ops += [
        (["rollout", "--run", RUN, "--task", "0", "--start", "10",
          "--horizon", "50", "--out", "roll.csv"], ["roll.csv"]),
        (["plot", "--in", "roll.csv", "--out", "roll.svg"], ["roll.svg"]),
        (["plot", "--in", f"{RUN}/metrics.csv", "--out", "loss.svg"], ["loss.svg"]),
        (["plot", "--in", f"{RUN}/mani_global.csv", "--out", "manifold.svg"],
         ["manifold.svg"]),
    ]
    return ops


def op_name(argv):
    return f"eval:{argv[4]}" if argv[0] == "eval" else argv[0]


def call(main, argv):
    """Run one subcommand in this process; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is exit 1, as from the shell
            traceback.print_exc()
            rc = 1
    return rc, err.getvalue()


def _numbers(path, skip_cols):
    with open(path) as f:
        rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    return [[float(v) for v in row[skip_cols:]] for row in rows[1:]]


def check_outputs(argv, files):
    """Problems with what one operation that exited 0 left behind."""
    problems = [f"missing {f}" for f in files if not os.path.exists(f)]
    if problems:
        return problems
    try:
        if argv[0] == "train":
            rows = _numbers(files[1], 0)
            if not all(math.isfinite(v) for row in rows for v in row):
                problems.append("metrics.csv has non-finite values")
            elif not rows[-1][-1] < rows[0][-1]:
                problems.append("final total loss is not below epoch 0")
        elif argv[0] == "eval":
            for path in files[:2]:  # mse_*, kl_*
                if not all(math.isfinite(v) for row in _numbers(path, 1) for v in row):
                    problems.append(f"{path} has non-finite values")
    except (ValueError, IndexError) as exc:
        problems.append(f"malformed CSV: {exc}")
    return problems


def failed(op):
    return op["rc"] != 0 or bool(op["problems"])


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_chain(main, spec, reference=None):
    """Run the chain once in the current directory.

    Returns (op records, pipeline seconds, artifact digests). Artifacts whose
    digest differs from `reference` count against the operation that wrote them.
    """
    ops = []
    t_start = time.perf_counter()
    for argv, _ in spec:
        t0 = time.perf_counter()
        rc, err = call(main, argv)
        ops.append({"op": op_name(argv), "rc": rc, "s": time.perf_counter() - t0,
                    "error": err.strip().splitlines()[-1] if rc and err.strip() else ""})
    pipeline_s = time.perf_counter() - t_start
    digests = {}
    for op, (argv, files) in zip(ops, spec):
        op["problems"] = check_outputs(argv, files) if op["rc"] == 0 else []
        for path in files:
            if path in DETERMINISTIC and os.path.exists(path):
                digests[path] = _sha256(path)
                if reference and reference.get(path, digests[path]) != digests[path]:
                    op["problems"].append(f"{path} differs from an earlier repeat of this seed")
    return ops, pipeline_s, digests


def _source_digest(package_dir):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _load_record(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def _save_record(path, record):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, sort_keys=True)
    os.replace(tmp, path)


def _environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    try:
        threads = len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        threads = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": threads}


def measure(name, seed, seconds, trace, epochs, workdir, state_dir):
    """Repeat the chain until the next repeat would overrun `seconds`.

    Traced, the first repeat runs untraced (the tracing-overhead baseline) and
    at least one traced repeat follows. Artifact digests and counters are
    compared across the repeats and with those recorded by earlier runs of
    the same workload, seed and program source in `state_dir`.
    """
    import neurphy
    from neurphy import cli

    from tracer import Tracer, install

    w = WORKLOADS[name]
    spec = chain(w, seed, epochs)
    source = _source_digest(os.path.dirname(neurphy.__file__))
    record_path = os.path.join(state_dir, f"{name}-seed{seed}-e{epochs}-{source}.json")
    record = _load_record(record_path)
    reference = record.get("digests")
    tracer = Tracer()
    reps = []
    t_begin = time.perf_counter()
    while True:
        traced = trace and len(reps) >= 1
        if traced and len(reps) == 1:
            install(tracer)
        rep_dir = os.path.join(workdir, f"rep{len(reps)}")
        os.makedirs(rep_dir)
        os.chdir(rep_dir)
        tracer.reset()
        main = tracer.wrap("cli", cli.main) if traced else cli.main
        ops, pipeline_s, digests = run_chain(main, spec, reference)
        os.chdir(workdir)
        shutil.rmtree(rep_dir)
        reference = reference or digests
        rep = {"traced": traced, "ops": ops, "pipeline_s": pipeline_s}
        if traced:
            rep["timings"], rep["counts"] = tracer.layer_metrics()
            rep["inclusive"] = dict(tracer.total_s)
        reps.append(rep)
        if len(reps) == 1:
            # the high-water mark of the first repeat: later repeats can raise
            # it, and how many of them run depends on the machine's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        enough = not trace or traced
        if enough and time.perf_counter() - t_begin + pipeline_s > seconds:
            break

    med = statistics.median
    plain = [r for r in reps if not r["traced"]]
    ops = [op for r in reps for op in r["ops"]]
    problems = sorted({f"{op['op']}: {p}" for op in ops for p in op["problems"]
                       if op["rc"] == 0})
    env = _environment()
    nproc = len(os.sched_getaffinity(0))
    if env["threads"] is not None and env["threads"] > nproc:
        problems.append(f"{env['threads']} threads on {nproc} CPUs")
    result = {
        "attempted": len(ops),
        "failed": sum(failed(op) for op in ops),
        "failures": sorted({f"{op['op']}: exit {op['rc']} {op['error']}".strip()
                            for op in ops if op["rc"]}),
        "repeats": len(plain),
        "env": env,
        "end_to_end": {
            "pipeline_s": med(r["pipeline_s"] for r in plain),
            "train_tasks_per_s": med(
                epochs * w.meta_train_tasks
                / next(op["s"] for op in r["ops"] if op["op"] == "train")
                for r in plain),
            "eval_s": med(sum(op["s"] for op in r["ops"] if op["op"].startswith("eval"))
                          for r in plain),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        counts = traced_reps[0]["counts"]
        if any(r["counts"] != counts for r in traced_reps):
            problems.append("counters differ between traced repeats")
        earlier = record.setdefault("counts", counts)
        if earlier != counts:
            diff = sorted(k for k in counts if earlier.get(k) != counts[k])
            problems.append(f"counters differ from an earlier run: {diff}")
        traced_s = med(r["pipeline_s"] for r in traced_reps)
        result["traced_repeats"] = len(traced_reps)
        result["timings"] = {k: med(r["timings"][k] for r in traced_reps)
                             for k in traced_reps[0]["timings"]}
        result["timings"]["trace.pipeline_s"] = traced_s
        result["timings"]["trace.overhead_s"] = traced_s - plain[0]["pipeline_s"]
        result["counts"] = counts
        result["inclusive"] = {k: med(r["inclusive"].get(k, 0.0) for r in traced_reps)
                               for k in traced_reps[0]["inclusive"]}
    record.setdefault("digests", reference)
    _save_record(record_path, record)
    result["problems"] = problems
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--epochs", type=int, help="override the workload's epochs")
    p.add_argument("--workdir", required=True)
    p.add_argument("--state", required=True,
                   help="directory of digests and counters recorded by earlier runs")
    args = p.parse_args(argv)
    epochs = args.epochs or WORKLOADS[args.workload].epochs
    os.makedirs(args.workdir)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         epochs, os.path.abspath(args.workdir),
                         os.path.abspath(args.state))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
