"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of each neurphy module from outside the
package and accumulates, per span name, the call count, the total time and the
self time: a span's duration minus the part of it that its child spans cover.
Spans are folded into these sums as they close instead of being kept one by
one, because one pipeline opens a few hundred thousand of them.
"""

import functools
import os
import time
from collections import Counter, defaultdict

# The autodiff primitives the pipeline reaches.
PRIMITIVES = ("add", "sub", "mul", "div", "scale", "matmul", "relu", "softplus",
              "square", "log", "tsum", "tmean", "concat", "slice_last", "tile_rows")

# NeurPhyModel method -> network name.
NETWORKS = {"encode_context": "context", "recognize": "recognition",
            "transition": "transition", "decode": "decoder"}

# Spans whose self time is reported, by metric name; a list sums several spans.
TIMINGS = {
    "cli.self_s": "cli",
    "physics.generate.s": "physics.generate",
    "physics.jsonl_write.s": "physics.jsonl_write",
    "physics.jsonl_read.s": "physics.jsonl_read",
    "physics.select_contexts.s": "physics.select_contexts",
    **{f"model.{n}.s": f"model.{n}" for n in NETWORKS.values()},
    "nn.adam.s": "nn.adam",
    **{f"autodiff.{p}.s": f"autodiff.{p}" for p in PRIMITIVES},
    "autodiff.backward.s": "autodiff.backward",
    "training.train.s": "training.train",
    "training.elbo.s": "training.elbo",
    "training.checkpoint_save.s": "training.checkpoint_save",
    "training.checkpoint_load.s": "training.checkpoint_load",
    "evaluation.rollout_mse.s": "evaluation.rollout_mse",
    "evaluation.kl_report.s": "evaluation.kl_report",
    # export_manifold never runs on the desk grids (the metatest20 eval exits
    # first), so on its own it would read exactly 0 s there.
    "evaluation.r2_manifold.s": ["evaluation.global_r2_table",
                                 "evaluation.export_manifold"],
    "svg.s": "svg",
}

# Counters that repeat exactly for a given workload, seed and program.
COUNTS = (
    ["physics.jsonl_read.calls", "physics.jsonl.bytes",
     "physics.select_contexts.calls"]
    + [f"model.{n}.{k}" for n in NETWORKS.values() for k in ("calls", "rows")]
    + ["nn.adam.calls", "nn.kl_diag_gauss.calls"]
    + [f"autodiff.{p}.calls" for p in PRIMITIVES]
    + ["autodiff.matmul.flops", "autodiff.out.elems", "autodiff.backward.calls",
       "autodiff.graph.nodes", "training.elbo.calls",
       "training.checkpoint_save.calls", "evaluation.export_manifold.calls",
       "svg.calls"]
)
# Counter -> reported metric name, where the two differ.
COUNT_NAMES = {"nn.adam.calls": "nn.adam.steps"}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._open = []  # per open span: [start, seconds covered by children]

    def reset(self):
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()

    def begin(self):
        self._open.append([self.clock(), 0.0])

    def end(self, name):
        start, covered = self._open.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.counts[name + ".calls"] += 1
        if self._open:
            self._open[-1][1] += duration

    def hide(self, seconds):
        """Keep the tracer's own bookkeeping out of the enclosing span."""
        if self._open:
            self._open[-1][1] += seconds

    def wrap(self, name, fn, count=None):
        """fn, with each call traced as a span `name`.

        count(counts, result, *args, **kwargs) runs after the span closes and
        its time is hidden from the enclosing span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(name)
            if count is not None:
                t0 = self.clock()
                count(self.counts, result, *args, **kwargs)
                self.hide(self.clock() - t0)
            return result
        return traced

    def layer_metrics(self):
        """(self-time metrics in s, exact counters) under their reported names."""
        timings = {}
        for metric, spans in TIMINGS.items():
            spans = [spans] if isinstance(spans, str) else spans
            timings[metric] = sum(self.self_s.get(s, 0.0) for s in spans)
        counts = {COUNT_NAMES.get(c, c): int(self.counts.get(c, 0)) for c in COUNTS}
        return timings, counts


def _graph_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def install(tracer):
    """Wrap neurphy's public functions with tracer spans, in this process.

    Each name is patched where it is looked up: cli, training and evaluation
    import functions by name, nn and model call autodiff through the module,
    and the model networks and Adam.step are patched on their classes.
    """
    from neurphy import autodiff, cli, evaluation, model, nn, physics, training

    def patch(modules, attr, span, count=None):
        wrapped = tracer.wrap(span, getattr(modules[0], attr), count)
        for module in modules:
            setattr(module, attr, wrapped)

    def out_elems(counts, out, *args, **kwargs):
        counts["autodiff.out.elems"] += out.value.size

    def matmul_count(counts, out, a, b):
        out_elems(counts, out)
        k = getattr(b, "value", b).shape[0]
        counts["autodiff.matmul.flops"] += 2 * out.value.size * k  # 2*m*k*n

    for prim in PRIMITIVES:
        patch([autodiff], prim, f"autodiff.{prim}",
              matmul_count if prim == "matmul" else out_elems)
    nn._ACTIVATIONS["relu"] = autodiff.relu  # the table holds the function itself

    def graph_nodes(counts, out, root):
        counts["autodiff.graph.nodes"] += _graph_nodes(root)

    patch([autodiff], "backward", "autodiff.backward", graph_nodes)

    for method, net in NETWORKS.items():
        def rows(counts, out, model_, x, *rest, _key=f"model.{net}.rows"):
            # x: a ContextSet, a stack of frame pairs, or a latent Tensor
            shape = x.pairs.shape if hasattr(x, "pairs") else x.shape
            counts[_key] += shape[0] if len(shape) == 2 else 1
        patch([model.NeurPhyModel], method, f"model.{net}", rows)

    def jsonl_read_bytes(counts, out, path):
        counts["physics.jsonl.bytes"] += os.path.getsize(path)

    def jsonl_write_bytes(counts, out, task):
        counts["physics.jsonl.bytes"] += len(out.encode()) + 1  # plus newline

    patch([cli], "generate_task_grid", "physics.generate")
    patch([physics], "task_to_json", "physics.jsonl_write", jsonl_write_bytes)
    patch([cli], "load_tasks_jsonl", "physics.jsonl_read", jsonl_read_bytes)
    patch([cli, training, evaluation], "select_contexts", "physics.select_contexts")

    patch([nn.Adam], "step", "nn.adam")
    patch([training], "kl_diag_gauss", "nn.kl_diag_gauss")

    patch([cli], "train", "training.train")
    patch([training, evaluation], "elbo_loss", "training.elbo")
    patch([training], "checkpoint_save", "training.checkpoint_save")
    patch([cli], "checkpoint_load", "training.checkpoint_load")

    for fn in ("rollout_mse", "kl_report", "global_r2_table", "export_manifold"):
        patch([cli], fn, f"evaluation.{fn}")

    patch([cli], "line_chart", "svg")
    patch([cli], "scatter_chart", "svg")
