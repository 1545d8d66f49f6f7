"""Spans around calls into musedec's modules, recorded from outside the package.

`instrument` replaces module attributes such as `diffcore.evaluate_with_gradient`
with timing wrappers and puts every original back on exit.  Nothing under
`src/` knows it is traced: a call is seen only where musedec looks the name up
as a module attribute at call time, so a name bound with `from x import y` is
wrapped in the namespace that calls it (`trainer.compute_stimulus_rsm`).

Spans live in memory as (name, start, end, parent, run, n) and are written
out once, after the run.  `n` is a size the wrapper attaches: graph nodes,
rows scored, bytes read or written, batches made, skipped Adam steps.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from musedec import cli, diffcore, metrics, model, msed, neurodata, objectives, trainer


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run: str
    n: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, owner, attr, name, size=None, before=None):
        """Replace `owner.attr` with a wrapper that records one span per call.

        `name` is a span name or a function of (args, kwargs).  `before(args,
        kwargs)` runs ahead of the call; `size(args, kwargs, result, before)`
        gives the span's `n` afterwards.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            span = Span(name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                        stack[-1] if stack else -1, self.run)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if size:
                span.n = size(args, kwargs, result, pre)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def write(self, path):
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                rec = asdict(s)
                rec["start"] -= t0
                rec["end"] -= t0
                fh.write(json.dumps(rec) + "\n")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(args, kwargs, result, pre):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _graph_nodes(args, kwargs, result, pre):
    return len(_arg(args, kwargs, 0, "graph").nodes)


def _node_count(args, kwargs):
    return len(_arg(args, kwargs, 0, "g").nodes)


def _nodes_added(args, kwargs, result, pre):
    return _node_count(args, kwargs) - pre


def _split_span(args, kwargs):
    return "trainer.val" if _arg(args, kwargs, 3, "split") == "val" else "trainer.evaluate_split"


@contextlib.contextmanager
def instrument(tracer: Tracer, run: str):
    """Wrap the layer boundaries for one traced repetition, then restore them."""
    tracer.run = run
    w = tracer.wrap
    try:
        w(cli, "load_experiment", "cli.load_experiment")
        for attr in ("load_manifest", "read_tensor", "read_ids"):
            w(msed, attr, "msed.read", size=_file_size)
        w(msed, "read_labels_csv", "msed.labels_parse", size=_file_size)
        w(msed, "write_tensor", "msed.write", size=_file_size)
        w(model, "init_params", "model.init_params")
        w(model, "build_forward_graph", "model.graph_build", size=lambda a, k, r, p: len(r.nodes))
        for attr in ("add_bce_loss", "add_rsa_loss", "add_orthogonality_loss", "add_mapping_loss", "add_total_loss"):
            w(objectives, attr, "objectives.loss_build", size=_nodes_added, before=_node_count)
        w(diffcore, "evaluate_with_gradient", "diffcore.fwd_bwd", size=_graph_nodes)
        w(diffcore, "evaluate", "diffcore.fwd", size=_graph_nodes)
        w(neurodata, "make_batches", "neurodata.make_batches", size=lambda a, k, r, p: len(r))
        w(trainer, "compute_stimulus_rsm", "stimfeat.rsm")
        w(trainer, "adam_step", "trainer.adam", size=lambda a, k, r, p: float(r[2]))
        w(trainer, "predict", "trainer.predict", size=lambda a, k, r, p: len(r[0]))
        w(trainer, "evaluate_split", _split_span)
        w(trainer, "save_checkpoint", "trainer.checkpoint")
        w(trainer, "train", "trainer.train")
        w(trainer, "compare", "trainer.compare")
        w(metrics, "evaluate_scores", "metrics.evaluate_scores")
        for attr in ("t_test", "holm_bonferroni"):
            w(metrics, attr, "metrics.significance")
        yield tracer
    finally:
        tracer.restore()


# each yields <name>_s (total time) and <name>_self_s (minus time in child spans)
TIMED_SPANS = (
    "cli.load_experiment",
    "msed.read",
    "msed.labels_parse",
    "msed.write",
    "model.graph_build",
    "diffcore.fwd_bwd",
    "diffcore.fwd",
    "trainer.train",
    "trainer.val",
    "trainer.predict",
    "trainer.adam",
    "trainer.checkpoint",
    "stimfeat.rsm",
    "neurodata.make_batches",
    "metrics.evaluate_scores",
    "metrics.significance",
)

# (metric, unit) for the non-time metrics, in report order
COUNTED = [
    ("model.graph_builds", "count"),
    ("model.graph_reuse_ratio", "ratio"),
    ("model.graph_nodes", "count"),
    ("objectives.loss_nodes", "count"),
    ("diffcore.fwd_bwd_calls", "count"),
    ("diffcore.fwd_bwd_ms_p50", "ms"),
    ("diffcore.nodes_per_s", "1/s"),
    ("diffcore.fwd_calls", "count"),
    ("trainer.predict_rows", "count"),
    ("trainer.adam_calls", "count"),
    ("trainer.adam_skipped", "count"),
    ("trainer.step_ms_p50", "ms"),
    ("trainer.step_ms_p99", "ms"),
    ("trainer.train_calls", "count"),
    ("trainer.cpu_per_wall", "ratio"),
    ("stimfeat.rsm_calls", "count"),
    ("neurodata.batches", "count"),
    ("msed.bytes_read", "bytes"),
    ("msed.bytes_written", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def metric_specs():
    """Every per-layer metric as (name, unit)."""
    timed = []
    for name in TIMED_SPANS:
        timed += [(f"{name}_s", "s"), (f"{name}_self_s", "s")]
    return timed + COUNTED


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], reps: int, overhead_s: float, cpu_per_wall: float) -> dict:
    """Per-layer values per traced repetition (one set-up plus one timed unit)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    total, own, size = defaultdict(float), defaultdict(float), defaultdict(float)
    count = Counter()
    fwd_bwd_ms, step_ms = [], []
    last_step = None
    for i, s in enumerate(spans):  # spans are in start order
        d = s.end - s.start
        total[s.name] += d
        own[s.name] += d - child[i]
        size[s.name] += s.n
        count[s.name] += 1
        if s.name == "neurodata.make_batches":  # a new epoch: no step gap across it
            last_step = None
        elif s.name == "diffcore.fwd_bwd":
            fwd_bwd_ms.append(d * 1e3)
            if last_step is not None:
                step_ms.append((s.start - last_step) * 1e3)
            last_step = s.start

    lookups = count["diffcore.fwd_bwd"] + count["diffcore.fwd"]
    builds = count["model.graph_build"]
    eval_s = total["diffcore.fwd_bwd"] + total["diffcore.fwd"]
    values = {
        "model.graph_builds": builds / reps,
        "model.graph_reuse_ratio": max(0, lookups - builds) / lookups if lookups else 0.0,
        "model.graph_nodes": size["model.graph_build"] / reps,
        "objectives.loss_nodes": size["objectives.loss_build"] / reps,
        "diffcore.fwd_bwd_calls": count["diffcore.fwd_bwd"] / reps,
        "diffcore.fwd_bwd_ms_p50": _pct(fwd_bwd_ms, 50),
        "diffcore.nodes_per_s": (size["diffcore.fwd_bwd"] + size["diffcore.fwd"]) / eval_s if eval_s else 0.0,
        "diffcore.fwd_calls": count["diffcore.fwd"] / reps,
        "trainer.predict_rows": size["trainer.predict"] / reps,
        "trainer.adam_calls": count["trainer.adam"] / reps,
        "trainer.adam_skipped": size["trainer.adam"] / reps,
        "trainer.step_ms_p50": _pct(step_ms, 50),
        "trainer.step_ms_p99": _pct(step_ms, 99),
        "trainer.train_calls": count["trainer.train"] / reps,
        "trainer.cpu_per_wall": cpu_per_wall,
        "stimfeat.rsm_calls": count["stimfeat.rsm"] / reps,
        "neurodata.batches": size["neurodata.make_batches"] / reps,
        "msed.bytes_read": (size["msed.read"] + size["msed.labels_parse"]) / reps,
        "msed.bytes_written": size["msed.write"] / reps,
        "trace.spans": len(spans) / reps,
        "trace.overhead_s": overhead_s,
    }
    for name in TIMED_SPANS:
        values[f"{name}_s"] = total[name] / reps
        values[f"{name}_self_s"] = own[name] / reps
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_specs()}
