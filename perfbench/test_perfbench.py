"""Tests of the benchmark's own arithmetic: span self time and failure counting.

Run with: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os

import pytest

import workload
from tracer import COUNT_NAMES, COUNTS, TIMINGS, Tracer


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_is_span_minus_children():
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner holds leaf [2, 3]
    t = Tracer(FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    t.begin()           # outer at 0
    t.begin()           # inner at 1
    t.begin()           # leaf at 2
    t.end("leaf")       # 3
    t.end("inner")      # 4
    t.begin()           # inner at 5
    t.end("inner")      # 6
    t.end("outer")      # 10
    assert t.self_s == {"leaf": 1, "inner": 3 - 1 + 1, "outer": 10 - 4}
    assert t.total_s == {"leaf": 1, "inner": 4, "outer": 10}
    assert t.counts["inner.calls"] == 2 and t.counts["outer.calls"] == 1


def test_self_times_sum_to_the_root_span():
    t = Tracer(FakeClock(0.0, 0.5, 2.0, 2.25, 3.0, 4.5, 6.0, 7.5))
    t.begin()
    t.begin()
    t.end("a")
    t.begin()
    t.begin()
    t.end("b")
    t.end("a")
    t.end("root")
    assert sum(t.self_s.values()) == pytest.approx(t.total_s["root"])


def test_hidden_bookkeeping_leaves_the_parent_self_time():
    t = Tracer(FakeClock(0, 10))
    t.begin()
    t.hide(4)
    t.end("parent")
    assert t.self_s["parent"] == 6 and t.total_s["parent"] == 10


def test_wrap_closes_the_span_when_the_call_raises():
    t = Tracer(FakeClock(0, 1, 2, 5))

    def boom():
        raise ValueError("x")

    traced = t.wrap("child", boom)
    t.begin()
    with pytest.raises(ValueError):
        traced()
    t.end("parent")
    assert t.self_s == {"child": 1, "parent": 4}


def test_wrap_counts_outside_the_span():
    t = Tracer(FakeClock(0, 1, 2, 3))

    def count(counts, result, x):
        counts["items"] += result

    assert t.wrap("f", lambda x: x * 2, count)(21) == 42
    assert t.counts["items"] == 42 and t.self_s["f"] == 1


def test_reported_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    timings, counts = Tracer().layer_metrics()
    produced = set(timings) | set(counts) | {"trace.pipeline_s", "trace.overhead_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert len(counts) == len(COUNTS) and set(COUNT_NAMES) <= set(COUNTS)
    assert all(m["unit"] == "s" for m in spec["per_layer"] if m["name"] in TIMINGS)


def fake_cli(fail=(), nonfinite=False, salt=""):
    """A stand-in for neurphy.cli.main that writes each op's files."""
    spec = {tuple(argv): files for argv, files in
            workload.chain(workload.WORKLOADS["pend-d1"], 0, 3)}

    def main(argv):
        if workload.op_name(argv) in fail:
            return 2
        for path in spec[tuple(argv)]:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w") as f:
                if path.endswith("metrics.csv"):
                    last = "nan" if nonfinite else "1.5"
                    f.write(f"epoch,recon,kl1,total\n0,1,1,2.5\n1,1,1,{last}\n")
                elif path.endswith(".csv"):
                    f.write("stage,a,b\ntraining,0.5,0.25\n")
                else:
                    f.write("artifact" + salt)
        return 0
    return main


def test_nonzero_exits_are_failed_operations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = workload.chain(workload.WORKLOADS["pend-d1"], 0, 3)
    ops, _, _ = workload.run_chain(fake_cli(fail={"eval:metatest20"}), spec)
    assert len(ops) == 10
    assert [op["op"] for op in ops if workload.failed(op)] == ["eval:metatest20"]
    assert not any(op["problems"] for op in ops)


def test_failed_checks_are_failed_operations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = workload.chain(workload.WORKLOADS["pend-d1"], 0, 3)
    ops, _, _ = workload.run_chain(fake_cli(nonfinite=True), spec)
    bad = [op for op in ops if workload.failed(op)]
    assert [op["op"] for op in bad] == ["train"]
    assert bad[0]["rc"] == 0 and "non-finite" in bad[0]["problems"][0]


def test_artifacts_that_change_between_repeats_fail_their_writer(tmp_path, monkeypatch):
    spec = workload.chain(workload.WORKLOADS["pend-d1"], 0, 3)
    monkeypatch.chdir(tmp_path)
    os.makedirs("a")
    os.chdir("a")
    _, _, reference = workload.run_chain(fake_cli(), spec)
    os.chdir(tmp_path)
    os.makedirs("b")
    os.chdir("b")
    ops, _, _ = workload.run_chain(fake_cli(salt="!"), spec, reference)
    # generate wrote pend.jsonl, train model.ckpt, the three plots their SVGs
    assert [op["op"] for op in ops if workload.failed(op)] == [
        "generate", "train", "plot", "plot", "plot"]


def test_missing_outputs_fail_the_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert workload.check_outputs(["rollout"], ["roll.csv"]) == ["missing roll.csv"]


def test_ops_ok_ratio_counts_every_failed_operation():
    import run
    result = {"attempted": 20, "failed": 6, "end_to_end": {"pipeline_s": 1.0}}
    assert run.metric_values(result, trace=False)["ops_ok_ratio"] == pytest.approx(0.7)
