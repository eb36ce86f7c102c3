"""Tests for the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import report
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _stream(spec, seed: int):
    return itertools.chain.from_iterable(spec.rounds(seed))


def _stream_bytes(seed: int, count: int = 120) -> bytes:
    lines = []
    for name, spec in workloads.WORKLOADS.items():
        for request in itertools.islice(_stream(spec, seed), count):
            lines.append(json.dumps([name, request.shape, request.body], sort_keys=True))
    return "\n".join(lines).encode()


def test_same_seed_gives_identical_stream_and_other_seeds_differ():
    assert _stream_bytes(7) == _stream_bytes(7)
    assert _stream_bytes(7) != _stream_bytes(8)
    for name, spec in workloads.WORKLOADS.items():
        first = [r.body for r in itertools.islice(_stream(spec, 1), 40)]
        other = [r.body for r in itertools.islice(_stream(spec, 2), 40)]
        assert first != other, name


def test_every_round_sends_the_same_shapes_whatever_the_seed():
    for name, spec in workloads.WORKLOADS.items():
        reference = None
        for seed in (1, 2, 3):
            for batch in itertools.islice(spec.rounds(seed), 3):
                shapes = sorted(request.shape for request in batch)
                reference = reference or shapes
                assert shapes == reference, name
        assert set(reference) == set(spec.shapes()), name


def test_nearest_rank_percentiles():
    sample = [35, 20, 50, 15, 40]
    assert report.nearest_rank(sample, 5) == 15
    assert report.nearest_rank(sample, 30) == 20
    assert report.nearest_rank(sample, 40) == 20
    assert report.nearest_rank(sample, 50) == 35
    assert report.nearest_rank(sample, 100) == 50
    hundred = list(range(1, 101))
    assert report.nearest_rank(hundred, 95) == 95
    assert report.beyond(100, 95) == 5
    assert report.beyond(500, 95) == 25
    with pytest.raises(ValueError):
        report.nearest_rank([], 50)


def test_self_time_subtracts_direct_children_only():
    now = [0.0]

    def clock():
        return now[0]

    recorder = tracing.SpanRecorder(clock)

    def advance(seconds, then=None):
        def body():
            now[0] += seconds
            if then is not None:
                then()
            now[0] += seconds

        return body

    # outer: 1 + [middle: 2 + [inner: 3 + 3] + 2] + 1  -> 12 s in total
    inner = lambda: recorder.call("inner", advance(3.0))  # noqa: E731
    middle = lambda: recorder.call("middle", advance(2.0, inner))  # noqa: E731
    recorder.call("outer", advance(1.0, middle))
    # a re-entrant call folds into the span it is already inside
    recorder.call("outer", lambda: recorder.call("outer", advance(0.5)))

    totals = recorder.totals
    assert totals["inner"] == {"calls": 1, "self_s": 6.0, "total_s": 6.0}
    assert totals["middle"] == {"calls": 1, "self_s": 4.0, "total_s": 10.0}
    assert totals["outer"] == {"calls": 2, "self_s": 3.0, "total_s": 13.0}
    assert recorder.root_s == 13.0
    assert sum(entry["self_s"] for entry in totals.values()) == recorder.root_s

    before = {"spans": {"inner": dict(totals["inner"])}, "root_s": 5.0}
    delta = tracing.diff_totals(recorder.snapshot(), before)
    assert delta["spans"]["inner"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    assert delta["root_s"] == 8.0


def test_expected_answers_cover_every_request_shape():
    data = json.loads((HERE / "expected.json").read_text())
    answers = data["answers"]
    shapes = set(workloads.all_shapes())
    assert set(answers) == shapes
    for seed in (1, 2, 3):
        for spec in workloads.WORKLOADS.values():
            for request in itertools.islice(_stream(spec, seed), 200):
                assert request.shape in answers
            assert all(request.shape in answers for request in spec.warmup())
    for shape in shapes:
        constructed = workloads.constructed_answer(shape)
        if constructed is None:
            assert shape in data["reference"]
        else:
            assert answers[shape] == constructed
    for shape, answer in answers.items():
        if answer.keys() == {"entailed"}:
            assert answer["entailed"] in (True, False), shape
        else:
            assert answer.keys() == {"atoms", "total_applications"}, shape


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        report.PER_LAYER
    )


def test_quick_live_smoke_finishes_within_a_minute():
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "5"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS) * run.QUICK_REQUESTS
    for name in workloads.WORKLOADS:
        for metric, unit, _, _ in report.END_TO_END:
            assert result["metrics"][f"{name}:{metric}"]["unit"] == unit
            assert result["metrics"][f"{name}:{metric}"]["value"] > 0
    assert elapsed < 60, f"quick smoke took {elapsed:.1f} s"
