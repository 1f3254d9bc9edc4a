"""neurphy benchmark: the README CLI chain on three pendulum workloads.

One workload, as the driver runs it, from the repository root:

    python3 perfbench/run.py --workload pend-d5 --seed 0 --seconds 20 --trace 0

prints the environment record, then any failed operations, and as its last
line one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, measured with
tracing off; with --trace 1 they are its per_layer list, from a traced run.

Every workload, traced and untraced, as readable tables:

    python3 perfbench/run.py --all [--seed 0] [--seconds 20]
    python3 perfbench/run.py --all --smoke      # 3 epochs, minimum repeats

Each workload runs in its own fresh interpreter (workload.py) with BLAS pinned
to one thread. The program is used from source (src/) in place.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 9
DEADLINE_S = 170  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
from workload import WORKLOADS  # noqa: E402


def pinned_env():
    env = dict(os.environ)
    env.pop("NEURPHY_SEED", None)  # it would override the workload's seed
    env.update({k: "1" for k in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(env, samples=SETUP_SAMPLES):
    """Median time from starting a fresh interpreter until `import neurphy.cli`
    returns. CLOCK_MONOTONIC is system-wide, so the two processes share it."""
    code = "import time, neurphy.cli; print(repr(time.monotonic()))"
    times = []
    for _ in range(samples):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def run_workload(name, seed, seconds, trace, epochs=None):
    """Measure one workload in a fresh process; returns the child's result
    with setup_s and the run's environment added."""
    started = time.monotonic()
    env = pinned_env()
    env_record = {"workload": name, "seed": seed, "trace": trace,
              "nproc": len(os.sched_getaffinity(0)),
              "loadavg": os.getloadavg(),
              "blas_thread_setting": {k: env[k] for k in BLAS_THREAD_VARS}}
    setup_s = setup_seconds(env) if not trace else None
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--workdir", workdir, "--state", os.path.join(WORK, "records")]
    if epochs:
        cmd += ["--epochs", str(epochs)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {name} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["env"] = {**env_record, **result["env"]}
    if setup_s is not None:
        result["end_to_end"]["setup_s"] = setup_s
    return result


def metric_values(result, trace):
    if trace:
        return {**result["timings"], **result["counts"]}
    values = dict(result["end_to_end"])
    values["ops_ok_ratio"] = (result["attempted"] - result["failed"]) / result["attempted"]
    return values


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def driver_main(args):
    spec = load_spec()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in result["failures"]:
        print("failed op " + line)
    for line in result["problems"]:
        print("wrong output " + line)
    values = metric_values(result, args.trace)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def _table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in rows)


def _num(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def all_main(args):
    spec = load_spec()
    epochs = 3 if args.smoke else None
    seconds = 1 if args.smoke else args.seconds
    plain, traced = {}, {}
    for name in WORKLOADS:
        plain[name] = run_workload(name, args.seed, seconds, False, epochs)
        traced[name] = run_workload(name, args.seed, seconds, True, epochs)
    names = list(WORKLOADS)
    env = plain[names[0]]["env"]
    print("environment: " + json.dumps({k: env[k] for k in (
        "python", "numpy", "blas", "nproc", "blas_thread_setting", "loadavg",
        "seed")}))
    print("\nend to end, tracing off (median of repeats; ratios with their base)")
    rows = [["workload"] + [f"{m['name']} [{m['unit']}]" for m in spec["end_to_end"]]
            + ["repeats", "correct"]]
    for name in names:
        r = plain[name]
        values = metric_values(r, False)
        cells = [_num(values[m["name"]]) for m in spec["end_to_end"]]
        i = [m["name"] for m in spec["end_to_end"]].index("ops_ok_ratio")
        cells[i] += f" ({r['attempted'] - r['failed']} of {r['attempted']} ops)"
        rows.append([name] + cells + [r["repeats"], not r["problems"]])
    print(_table(rows))
    for name in names:
        runs = (plain[name], traced[name])
        for line in sorted({line for r in runs for line in r["failures"]}):
            print(f"{name}: failed op {line}")
        for line in sorted({line for r in runs for line in r["problems"]}):
            print(f"{name}: wrong output {line}")

    print("\nper layer, traced run: self time (share of traced pipeline)")
    rows = [["metric"] + names]
    for m in spec["per_layer"]:
        if m["unit"] != "s":
            continue
        cells = []
        for name in names:
            t = traced[name]["timings"]
            v = t[m["name"]]
            share = "" if m["name"].startswith("trace.") else \
                f" ({100 * v / t['trace.pipeline_s']:.1f}%)"
            cells.append(_num(v) + share)
        rows.append([m["name"]] + cells)
    print(_table(rows))
    print("\nper layer, traced run: exact counters")
    rows = [["metric [unit]"] + names]
    for m in spec["per_layer"]:
        if m["unit"] != "s":
            rows.append([f"{m['name']} [{m['unit']}]"]
                        + [_num(traced[n]["counts"][m["name"]]) for n in names])
    print(_table(rows))
    print("\ninclusive time of key spans (share of traced pipeline)")
    rows = [["span"] + names]
    for span in ("training.train", "training.elbo", "autodiff.backward", "nn.adam",
                 "evaluation.rollout_mse", "evaluation.kl_report",
                 "physics.jsonl_write", "physics.jsonl_read", "model.context"):
        cells = []
        for name in names:
            t = traced[name]
            v = t["inclusive"].get(span, 0.0)
            cells.append(f"{_num(v)} ({100 * v / t['timings']['trace.pipeline_s']:.1f}%)")
        rows.append([span] + cells)
    print(_table(rows))
    ok = all(not r["problems"] for r in list(plain.values()) + list(traced.values()))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="every workload, as tables")
    p.add_argument("--smoke", action="store_true", help="with --all: a quick pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.all == bool(args.workload):
        p.error("give either --workload or --all")
    if not os.path.exists(os.path.join(SRC, "neurphy", "cli.py")):
        print(f"perfbench: no neurphy sources under {SRC}", file=sys.stderr)
        return 1
    return all_main(args) if args.all else driver_main(args)


if __name__ == "__main__":
    sys.exit(main())
