"""Per-layer timers installed from outside the program.

:data:`LAYERS` names the public entry point of every layer the traced
run times.  :func:`install` replaces each with a wrapper that records a
span on a :class:`SpanRecorder`; the program's source is never edited.

Spans are kept in memory as per-name totals.  A span's *self* time is
its duration minus the durations of the spans nested directly inside
it, so the self times of one call tree add up to the duration of its
root.  A call that re-enters the entry point it is already inside (a
subclass override calling ``super()``) is folded into the outer span.

Pool workers write their totals after every job (:func:`install` wraps
the worker body for that), replacing ``worker-<pid>.json`` in the spans
directory; the benchmark reads them between phases.  Nothing relies on
worker exit handlers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Callable

#: (metric layer name, module, class or None, attribute).  A layer may
#: list several targets (a base class and the subclass that overrides
#: it); they share one name.
LAYERS = (
    ("parse.load_kb", "repro.service.jobs", None, "load_kb"),
    ("parse.boolean_cq", "repro.service.jobs", None, "boolean_cq"),
    ("planner.decide", "repro.analysis.planner", "Planner", "decide"),
    ("plans.plan_for", "repro.query.plans", "QueryPlanCache", "plan_for"),
    ("plans.evaluate", "repro.query.plans", "CompiledQueryPlan", "evaluate"),
    ("snapshots.open", "repro.service.snapshots", "SnapshotStore", "__init__"),
    ("snapshots.load_entry", "repro.service.snapshots", "SnapshotStore", "load_entry"),
    (
        "snapshots.resolve_ancestor",
        "repro.service.snapshots",
        "SnapshotStore",
        "resolve_ancestor",
    ),
    ("snapshots.save", "repro.service.snapshots", "SnapshotStore", "save"),
    ("engine.run", "repro.chase.engine", "ChaseEngine", "run"),
    ("engine.resume", "repro.chase.engine", "ChaseEngine", "resume"),
    ("engine.restore_state", "repro.chase.engine", "ChaseEngine", "restore_state"),
    ("engine.export_state", "repro.chase.engine", "ChaseEngine", "export_state"),
    ("trigger_index.build", "repro.chase.trigger_index", "TriggerIndex", "__init__"),
    (
        "trigger_index.build",
        "repro.chase.compiled_index",
        "CompiledTriggerIndex",
        "__init__",
    ),
    (
        "trigger_index.apply_delta",
        "repro.chase.trigger_index",
        "TriggerIndex",
        "apply_delta",
    ),
    (
        "trigger_index.apply_delta",
        "repro.chase.compiled_index",
        "CompiledTriggerIndex",
        "apply_delta",
    ),
    (
        "trigger_index.unsatisfied",
        "repro.chase.trigger_index",
        "TriggerIndex",
        "unsatisfied_triggers",
    ),
    ("trigger_index.transport", "repro.chase.trigger_index", "TriggerIndex", "transport"),
    ("coremaint.retract", "repro.logic.coremaint", "CoreMaintainer", "retract"),
    ("cq.holds_in", "repro.query.cq", "ConjunctiveQuery", "holds_in"),
    ("modelfinder.find_countermodel", "repro.service.jobs", None, "find_countermodel"),
    ("jobs.execute_job", "repro.service.executor", None, "execute_job"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))

#: Environment variable naming the directory worker totals go to.
SPANS_DIR_ENV = "REPRO_E2E_SPANS_DIR"


class SpanRecorder:
    """Nested span timing with self time, as per-name totals.

    Not thread-safe: pool workers run one job at a time on one thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: open spans, innermost last: [name, start, time in children]
        self._stack: list = []
        #: name -> {"calls", "self_s", "total_s"}
        self.totals: dict = {}
        #: summed duration of spans opened with nothing open around them
        self.root_s = 0.0

    def call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        frame = [name, self.clock(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - frame[1]
            stack.pop()
            entry = self.totals.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            entry["calls"] += 1
            entry["self_s"] += duration - frame[2]
            entry["total_s"] += duration
            if stack:
                stack[-1][2] += duration
            else:
                self.root_s += duration

    def snapshot(self) -> dict:
        return {
            "spans": {name: dict(entry) for name, entry in self.totals.items()},
            "root_s": self.root_s,
        }


def _wrap(recorder: SpanRecorder, name: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def timed(*args, **kwargs):
        return recorder.call(name, original, *args, **kwargs)

    return timed


def install(recorder: SpanRecorder, spans_dir: str) -> None:
    """Wrap every :data:`LAYERS` entry point, and the pool-worker job
    body so that each finished job writes this process's totals."""
    for name, module_name, class_name, attr in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        # Only the attribute the owner defines itself: wrapping an
        # inherited one would time the base class's code twice.
        original = vars(owner)[attr]
        setattr(owner, attr, _wrap(recorder, name, original))

    executor = importlib.import_module("repro.service.executor")
    body = executor._run_job
    path = os.path.join(spans_dir, f"worker-{os.getpid()}.json")

    @functools.wraps(body)
    def run_job_and_flush(*args, **kwargs):
        try:
            return body(*args, **kwargs)
        finally:
            _write_atomically(path, recorder.snapshot())

    executor._run_job = run_job_and_flush


def _write_atomically(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def read_totals(spans_dir: str) -> dict:
    """Sum the totals every worker has written so far."""
    merged = {"spans": {}, "root_s": 0.0}
    for entry in sorted(os.listdir(spans_dir)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(spans_dir, entry)) as handle:
            data = json.load(handle)
        merged["root_s"] += data["root_s"]
        for name, span in data["spans"].items():
            into = merged["spans"].setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            for key in into:
                into[key] += span[key]
    return merged


def diff_totals(after: dict, before: dict) -> dict:
    """The totals accumulated between two :func:`read_totals` calls."""
    spans = {}
    for name, span in after["spans"].items():
        earlier = before["spans"].get(name, {})
        spans[name] = {key: value - earlier.get(key, 0) for key, value in span.items()}
    return {"spans": spans, "root_s": after["root_s"] - before["root_s"]}
