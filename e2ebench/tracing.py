"""Span tracing from outside the program.

The benchmark never edits ``src/``.  Instead, :func:`install` replaces
each layer's public entry point *at the name its caller looks it up
under* (a class attribute, or a module global such as
``repro.core.rt_model.simulate_stap_queue``) with a wrapper that records
a span: name, start, end, parent and a few work counts taken from the
call's arguments or result.  :func:`uninstall` puts the originals back,
so untraced rounds run the program untouched.

Spans stay in memory and are written out as JSONL when the run ends.
A layer's self time is its span's duration minus the part its direct
child spans cover (calls are single-threaded, so children nest).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str, phase: str | None = None) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        if phase is not None:
            span["phase"] = phase
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span["id"]:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- counts taken from calls ---------------------------------------------------


def _testbed_counts(args, kwargs, result):
    runtime = args[0]
    n = kwargs.get("n_queries", args[1] if len(args) > 1 else 600)
    return {"queries": int(n) * len(runtime.config.services)}


def _queue_serial_counts(args, kwargs, result):
    return {"query_conditions": int(result.arrival_times.shape[0])}


def _queue_batch_counts(args, kwargs, result):
    c, n = result.start_times.shape
    return {"conditions": int(c), "query_conditions": int(c * n)}


#: (module, attribute path, span name, counts(args, kwargs, result)).
#: Each target is the name the caller resolves at call time: methods on
#: their class, and functions at the module global the caller imported.
TARGETS = (
    ("repro.testbed.runtime", "CollocationRuntime.run", "testbed.run",
     _testbed_counts),
    ("repro.counters.sampler", "CounterSampler.sample", "counters.sample",
     lambda a, k, r: {"ticks": int(r.shape[0])}),
    ("repro.counters.trace", "CacheUsageTrace.from_counters", "counters.trace",
     None),
    ("repro.core.profiler", "Profiler.profile", "profiler.profile",
     lambda a, k, r: {"rows": len(r), "conditions": len(a[1])}),
    ("repro.forest.deep_forest", "DeepForestRegressor.fit", "forest.fit", None),
    ("repro.forest.mgs", "MultiGrainScanner.fit", "forest.mgs_fit", None),
    ("repro.forest.cascade", "CascadeForest.fit", "forest.cascade_fit", None),
    ("repro.forest.tree", "RegressionTree.fit", "forest.tree_fit", None),
    ("repro.forest.tree", "RegressionTree.fit_binned", "forest.tree_fit", None),
    ("repro.forest.deep_forest", "DeepForestRegressor.predict",
     "forest.predict", lambda a, k, r: {"rows": int(r.shape[0])}),
    ("repro.forest.mgs", "MultiGrainScanner.transform", "forest.mgs_transform",
     None),
    ("repro.core.ea_model", "EAModel.predict", "ea_model.predict", None),
    ("repro.core.rt_model", "simulate_stap_queue", "queueing.serial",
     _queue_serial_counts),
    ("repro.core.rt_model", "simulate_stap_queue_batch", "queueing.batch",
     _queue_batch_counts),
    ("repro.core.rt_model", "ResponseTimeModel.simulate_many",
     "rt_model.simulate_many", None),
    ("repro.core.pipeline", "StacModel.predict_conditions",
     "pipeline.predict_conditions", lambda a, k, r: {"conditions": len(r)}),
    ("repro.core.policy_search", "explore_timeouts", "policy_search.explore",
     lambda a, k, r: {"combos": len(r[0])}),
    ("repro.manager.controller", "model_driven_policy", "manager.plan", None),
    ("repro.manager.online", "OnlineManager.run", "manager.run",
     lambda a, k, r: {"epochs": len(r)}),
    ("repro.baselines.policies", "RuntimeEvaluator.evaluate",
     "baselines.evaluate", None),
)


def _wrap(fn, tracer: Tracer, name: str, counts):
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo = []
    for module_name, path, span_name, counts in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(raw.__func__, tracer, span_name, counts))
        else:
            new = _wrap(raw, tracer, span_name, counts)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


# -- aggregation ---------------------------------------------------------------


def _dur(s) -> float:
    return s["end"] - s["start"]


def _child_time(spans: list[dict]) -> dict:
    """Seconds each span's direct children cover, by span id."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += _dur(s)
    return covered


def layer_table(spans: list[dict]) -> list[dict]:
    """Per (phase, span name): calls, total and self seconds."""
    by_id = {s["id"]: s for s in spans}
    child_time = _child_time(spans)

    def phase_of(s):
        while s.get("phase") is None and s["parent"] is not None:
            s = by_id[s["parent"]]
        return s.get("phase", "-")

    rows = {}
    for s in spans:
        if "phase" in s:
            continue
        key = (phase_of(s), s["name"])
        row = rows.setdefault(
            key, {"phase": key[0], "name": key[1], "calls": 0, "total_s": 0.0,
                  "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += _dur(s)
        row["self_s"] += _dur(s) - child_time[s["id"]]
    return sorted(rows.values(), key=lambda r: (r["phase"], -r["total_s"]))


def per_layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, summed over every traced span.

    A layer that did no work in this workload reads 0.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = _child_time(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(_dur(s) for s in named(name))

    def self_total(name):
        return sum(_dur(s) - child_time[s["id"]] for s in named(name))

    def count_sum(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    def under(s, ancestor):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == ancestor:
                return True
        return False

    # A hist-strategy RegressionTree.fit calls fit_binned: count the
    # outer call only.
    trees = [
        s for s in named("forest.tree_fit")
        if s["parent"] is None or by_id[s["parent"]]["name"] != "forest.tree_fit"
    ]
    queries = count_sum("testbed.run", "queries")
    qc = count_sum("queueing.serial", "query_conditions") + count_sum(
        "queueing.batch", "query_conditions"
    )
    kernel_s = total("queueing.serial") + total("queueing.batch")
    m = {
        "testbed.run_s": (total("testbed.run"), "s"),
        "testbed.runs": (len(named("testbed.run")), "count"),
        "testbed.queries": (queries, "count"),
        "testbed.us_per_query": (
            total("testbed.run") / queries * 1e6 if queries else 0.0, "us"
        ),
        "counters.sample_s": (total("counters.sample"), "s"),
        "counters.ticks": (count_sum("counters.sample", "ticks"), "count"),
        "counters.trace_s": (total("counters.trace"), "s"),
        "profiler.profile_s": (total("profiler.profile"), "s"),
        "profiler.rows": (count_sum("profiler.profile", "rows"), "count"),
        "profiler.self_s": (self_total("profiler.profile"), "s"),
        "forest.fit_s": (total("forest.fit"), "s"),
        "forest.mgs_fit_s": (total("forest.mgs_fit"), "s"),
        "forest.cascade_fit_s": (total("forest.cascade_fit"), "s"),
        "forest.trees_fitted": (len(trees), "count"),
        "forest.tree_fit_ms": (
            sum(_dur(s) for s in trees) / len(trees) * 1e3 if trees else 0.0,
            "ms",
        ),
        "forest.predict_s": (total("forest.predict"), "s"),
        "forest.predict_calls": (len(named("forest.predict")), "count"),
        "forest.predict_rows": (count_sum("forest.predict", "rows"), "count"),
        "forest.mgs_transform_s": (
            sum(_dur(s) for s in named("forest.mgs_transform")
                if under(s, "forest.predict")),
            "s",
        ),
        "queueing.serial_s": (total("queueing.serial"), "s"),
        "queueing.serial_calls": (len(named("queueing.serial")), "count"),
        "queueing.batch_s": (total("queueing.batch"), "s"),
        "queueing.batch_calls": (len(named("queueing.batch")), "count"),
        "queueing.batch_conditions": (
            count_sum("queueing.batch", "conditions"), "count"
        ),
        "queueing.query_conditions": (qc, "count"),
        "queueing.ns_per_query_condition": (
            kernel_s / qc * 1e9 if qc else 0.0, "ns"
        ),
        "rt_model.simulate_many_s": (total("rt_model.simulate_many"), "s"),
        "pipeline.predict_conditions_s": (
            total("pipeline.predict_conditions"), "s"
        ),
        "pipeline.conditions": (
            count_sum("pipeline.predict_conditions", "conditions"), "count"
        ),
        "pipeline.self_s": (self_total("pipeline.predict_conditions"), "s"),
        "policy_search.explore_s": (total("policy_search.explore"), "s"),
        "policy_search.combos": (
            count_sum("policy_search.explore", "combos"), "count"
        ),
        "manager.plan_s": (total("manager.plan"), "s"),
        "manager.plans": (len(named("manager.plan")), "count"),
        "manager.epochs": (count_sum("manager.run", "epochs"), "count"),
        "baselines.evaluate_s": (total("baselines.evaluate"), "s"),
    }
    return m


def round_coverage(spans: list[dict], round_span: dict) -> tuple[float, float]:
    """(round seconds, seconds its top-level layer spans leave uncovered)."""
    covered = sum(
        _dur(s) for s in spans if s["parent"] == round_span["id"]
    )
    length = _dur(round_span)
    return length, length - covered
