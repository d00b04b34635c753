"""Per-layer spans for the traced run.

The layers are topclf's modules.  :func:`install` wraps the public
functions listed in ``LAYERS`` at every name their callers look them up by
(each module's globals and the two classes), so calls between modules are
caught.  Spans stay in memory and are written at the end as JSONL, one
``[id, name, start, end, parent id or -1, pid]`` array per line; a layer's self time is its span minus the
spans of its children in the same process.

Grid workers are forked from the traced process and inherit the wrappers.
The pool that ``experiment`` creates is replaced by one that runs each task
through :func:`_run_in_worker`, which sends the worker's spans back with
the result, so ``grid-manifest`` reports worker layers too.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

LAYERS = {
    "data": ("load_csv", "Dataset", "Dataset.subset", "minibatch_epoch", "split", "synth_example"),
    "surrogate": ("SurrogateLoss.value", "SurrogateLoss.deriv"),
    "threshold": ("scores", "threshold_scored", "top_k_mean", "exact_quantile", "surrogate_quantile"),
    "objective": ("evaluate", "objective"),
    "solver": ("train", "adam_step", "project_l2_ball"),
    "evaluation": ("build_report", "pr_curve", "ptau_curve", "counts", "criterion", "write_curve_csv"),
    "experiment": ("run_manifest", "grid_search", "zero_audit", "rank_table"),
    "cli": ("main",),
}
COUNTERS = ("data.subset.rows", "experiment.pool_starts", "experiment.ipc_bytes")
MODULES = ("data", "surrogate", "threshold", "objective", "solver", "evaluation", "experiment", "cli")


def span_names() -> list[str]:
    return [f"{layer}.{fn.split('.')[-1]}" for layer, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    units = {f"{s}.{what}": unit for s in span_names() for what, unit in (("ms", "ms"), ("calls", "count"))}
    units.update({"data.subset.rows": "count", "experiment.pool_starts": "count", "experiment.ipc_bytes": "B"})
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, pid)
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.pid)

        return traced

    def merge(self, spans, counts) -> None:
        """Append a worker's spans, re-basing their parent indexes."""
        base = len(self.spans)
        self.spans.extend((n, s, e, p + base if p >= 0 else -1, pid) for n, s, e, p, pid in spans)
        for key, value in counts.items():
            self.counts[key] += value

    def summary(self, units: int) -> dict[str, float]:
        """Self ms and calls per unit for every span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, s, e, p, _ in self.spans:
            if p >= 0:
                child[p] += e - s
        ms = dict.fromkeys(span_names(), 0.0)
        calls = dict.fromkeys(span_names(), 0)
        for i, (name, s, e, _, _) in enumerate(self.spans):
            ms[name] += (e - s) - child[i]
            calls[name] += 1
        out = {}
        for name in span_names():
            out[f"{name}.ms"] = ms[name] * 1e3 / units
            out[f"{name}.calls"] = calls[name] / units
        for key, value in self.counts.items():
            out[key] = value / units
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, s, e, p, pid) in enumerate(self.spans):
                fh.write(json.dumps([i, name, s, e, p, pid]) + "\n")


_ACTIVE: Tracer | None = None  # module-level so forked grid workers find it


def _run_in_worker(task):
    fn, args = task
    tracer = _ACTIVE if _ACTIVE is not None else install(Tracer())[0]
    tracer.reset()
    result = fn(*args)
    return result, tracer.spans, tracer.counts


class _TracedPool(ProcessPoolExecutor):
    """Counts pool starts and bytes pickled to workers; returns worker spans."""

    def __init__(self, *args, **kwargs):
        _ACTIVE.counts["experiment.pool_starts"] += 1
        super().__init__(*args, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        tasks = [(fn, args) for args in zip(*iterables)]
        _ACTIVE.counts["experiment.ipc_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
        for result, spans, counts in super().map(_run_in_worker, tasks, **kwargs):
            _ACTIVE.merge(spans, counts)
            yield result


def install(tracer: Tracer):
    """Wrap every listed function; returns (tracer, undo)."""
    global _ACTIVE
    import importlib

    mods = {name: importlib.import_module(f"topclf.{name}") for name in MODULES}
    everywhere = [importlib.import_module("topclf")] + list(mods.values())
    undo = []

    def setattr_undo(obj, attr, value):
        undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    for layer, fns in LAYERS.items():
        for fn_name in fns:
            span = f"{layer}.{fn_name.split('.')[-1]}"
            if fn_name == "Dataset":
                cls = mods[layer].Dataset
                setattr_undo(cls, "__init__", tracer.wrap(span, cls.__init__))
            elif "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(mods[layer], cls_name)
                wrapped = tracer.wrap(span, getattr(cls, meth))
                if fn_name == "Dataset.subset":
                    wrapped = _count_rows(tracer, wrapped)
                setattr_undo(cls, meth, wrapped)
            else:
                original = getattr(mods[layer], fn_name)
                wrapped = tracer.wrap(span, original)
                for mod in everywhere:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr_undo(mod, attr, wrapped)
    setattr_undo(mods["experiment"], "ProcessPoolExecutor", _TracedPool)
    previous, _ACTIVE = _ACTIVE, tracer

    def restore():
        global _ACTIVE
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)
        _ACTIVE = previous

    return tracer, restore


def _count_rows(tracer: Tracer, subset):
    @functools.wraps(subset)
    def counted(self, indices):
        tracer.counts["data.subset.rows"] += len(indices)
        return subset(self, indices)

    return counted
