"""Tier-1 guard for the end-to-end benchmark's per-layer timers.

``benchmarks/e2e/tracing.py`` times a layer by replacing the entry point
its owner defines itself (``vars(owner)[attr]``), for every entry of its
``LAYERS`` table.  A target the owner only inherits — say, after a base
class is folded into its subclass — breaks just ``run.py --traced``,
which no other test runs.  The script is stdlib-only and not part of
the installed package, so it is loaded here by file path.
"""

import importlib
import importlib.util
import pathlib

import pytest

from repro.kbs.witnesses import transitive_closure_kb
from repro.logic.serialization import dump_kb
from repro.obs.metrics import MetricsRegistry
from repro.service.executor import JobExecutor
from repro.service.jobs import JobRequest

SCRIPT = pathlib.Path(__file__).parent.parent / "benchmarks" / "e2e" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_is_defined_by_its_owner(tracing):
    missing = []
    for name, module_name, class_name, attr in tracing.LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        if attr not in vars(owner):
            missing.append(f"{name}: {module_name}.{class_name}.{attr}")
    assert missing == []


def test_job_path_calls_the_timed_entry_points(tracing, tmp_path):
    """The timers see a job only if the job path reaches each layer
    through the attribute ``install`` replaced: a job that called
    ``serialization.load_kb`` directly would report zero parse calls."""
    saved = []
    for _, module_name, class_name, attr in tracing.LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        saved.append((owner, attr, vars(owner)[attr]))
    executor_module = importlib.import_module("repro.service.executor")
    saved.append((executor_module, "_run_job", executor_module._run_job))

    kb_text = dump_kb(transitive_closure_kb(3))
    requests = [
        JobRequest(op="chase", kb_text=kb_text),
        JobRequest(op="entail", kb_text=kb_text, query="e(v0, v3)"),
        JobRequest(
            op="entail",
            kb_text=kb_text,
            query="nosuch(X, Y)",
            max_steps=1,
            model_budget=4,
        ),
        JobRequest(op="batch_entail", kb_text=kb_text, queries=["e(v0, v3)", "e(v3, v0)"]),
    ]
    recorder = tracing.SpanRecorder()
    try:
        tracing.install(recorder, str(tmp_path))
        with JobExecutor(0, registry=MetricsRegistry()) as executor:
            results = [executor.submit(request).result(timeout=60) for request in requests]
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    assert [result.ok for result in results] == [True] * 4
    assert results[2].method == "finite-countermodel"
    calls = {name: entry["calls"] for name, entry in recorder.totals.items()}
    assert calls["jobs.execute_job"] == 4
    assert calls["parse.load_kb"] == 4
    assert calls["parse.boolean_cq"] == 4
    assert calls["modelfinder.find_countermodel"] == 1
