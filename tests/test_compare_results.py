"""Tier-1 tests for the perf-regression gate script.

``benchmarks/compare_results.py`` is stdlib-only and not part of the
installed package, so it is loaded here by file path.  The cases pin the
three distinct gate verdicts: clean pass, timing regression, and —
added with the incremental core maintainer — *semantic drift*, where a
current row matches a baseline row on everything except the behaviour
counts (applications/retractions/atoms_out) and must fail with its own
error message rather than an opaque "row missing".

The floor mode added with the compiled kernel (``--min-speedup``, plus
``--baseline-name``/``--ignore-fields``/``--only-rows``) is pinned in
:class:`TestFloorMode`: both verdict directions, drift detection inside
floor mode, and the cross-engine table pairing the compiled CI gate
relies on.
"""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "compare_results.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("compare_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(rows):
    return {
        "name": "perf_demo",
        "headers": ["workload", "steps", "applications", "retractions", "seconds"],
        "rows": rows,
        "schema": 1,
    }


ROW = {
    "workload": "elevator",
    "steps": 35,
    "applications": 35,
    "retractions": 0,
    "seconds": 4.0,
}


def _write_pair(tmp_path, baseline_rows, current_rows):
    baselines = tmp_path / "baselines"
    results = tmp_path / "results"
    baselines.mkdir()
    results.mkdir()
    (baselines / "perf_demo.json").write_text(json.dumps(_table(baseline_rows)))
    (results / "perf_demo.json").write_text(json.dumps(_table(current_rows)))
    return ["--baselines", str(baselines), "--results", str(results)]


def _run(gate, argv, capsys):
    code = gate.main(argv)
    captured = capsys.readouterr()
    return code, captured.out + captured.err


class TestGateVerdicts:
    def test_clean_pass(self, gate, tmp_path, capsys):
        argv = _write_pair(tmp_path, [ROW], [{**ROW, "seconds": 0.2}])
        code, output = _run(gate, argv, capsys)
        assert code == 0
        assert "perf gate clean" in output

    def test_slowdown_fails_with_ratio(self, gate, tmp_path, capsys):
        argv = _write_pair(tmp_path, [ROW], [{**ROW, "seconds": 9.0}])
        code, output = _run(gate, argv, capsys)
        assert code == 1
        assert "2.25x" in output
        assert "SEMANTIC DRIFT" not in output

    def test_count_drift_fails_with_distinct_message(self, gate, tmp_path, capsys):
        """Same workload, same timing, different application/retraction
        counts: the gate must call out behaviour change, not slowdown."""
        drifted = {**ROW, "applications": 36, "retractions": 1}
        argv = _write_pair(tmp_path, [ROW], [drifted])
        code, output = _run(gate, argv, capsys)
        assert code == 1
        assert "SEMANTIC DRIFT" in output
        assert "applications 35 -> 36" in output
        assert "retractions 0 -> 1" in output
        assert "row missing" not in output

    def test_genuinely_missing_row_is_not_drift(self, gate, tmp_path, capsys):
        other = {**ROW, "workload": "staircase"}
        argv = _write_pair(tmp_path, [ROW], [other])
        code, output = _run(gate, argv, capsys)
        assert code == 1
        assert "row missing from current results" in output
        assert "SEMANTIC DRIFT" not in output


class TestFloorMode:
    """``--min-speedup`` (ISSUE 7): the compiled CI gate's inverse
    check — fail rows that are not *fast enough*, not rows that got
    slower."""

    def test_meeting_the_floor_passes(self, gate, tmp_path, capsys):
        argv = _write_pair(tmp_path, [ROW], [{**ROW, "seconds": 0.5}])
        code, output = _run(gate, argv + ["--min-speedup", "5"], capsys)
        assert code == 0
        assert "8.00x speedup" in output
        assert "perf gate clean" in output

    def test_missing_the_floor_fails(self, gate, tmp_path, capsys):
        argv = _write_pair(tmp_path, [ROW], [{**ROW, "seconds": 2.0}])
        code, output = _run(gate, argv + ["--min-speedup", "5"], capsys)
        assert code == 1
        assert "2.00x speedup" in output
        assert "floor 5x" in output
        assert "outside the configured speedup bounds" in output

    def test_floor_mode_still_reports_semantic_drift(self, gate, tmp_path, capsys):
        """A blazing-fast row that computes something else is drift,
        not a pass — the count fields stay in row identity."""
        drifted = {**ROW, "applications": 36, "seconds": 0.1}
        argv = _write_pair(tmp_path, [ROW], [drifted])
        code, output = _run(gate, argv + ["--min-speedup", "2"], capsys)
        assert code == 1
        assert "SEMANTIC DRIFT" in output

    def test_baseline_name_compares_cross_table(self, gate, tmp_path, capsys):
        """--baseline-name diffs one results table against a different
        reference table (the same-machine compiled-vs-naive gate);
        --ignore-fields drops the engine column that would otherwise
        keep the rows from matching."""
        baselines = tmp_path / "tables"
        baselines.mkdir()
        naive = _table([{**ROW, "engine": "naive"}])
        compiled = _table([{**ROW, "seconds": 1.0, "engine": "compiled"}])
        (baselines / "perf_demo_naive.json").write_text(json.dumps(naive))
        (baselines / "perf_demo_compiled.json").write_text(json.dumps(compiled))
        code, output = _run(
            gate,
            [
                "perf_demo_compiled",
                "--baselines", str(baselines),
                "--results", str(baselines),
                "--baseline-name", "perf_demo_naive",
                "--min-speedup", "1.5",
                "--ignore-fields", "engine",
            ],
            capsys,
        )
        assert code == 0
        assert "4.00x speedup" in output

    def test_engine_field_mismatch_without_ignore(self, gate, tmp_path, capsys):
        """Without --ignore-fields the engine column keeps cross-engine
        rows apart — by design, so a stale comparison fails loudly."""
        baselines = tmp_path / "tables"
        baselines.mkdir()
        naive = _table([{**ROW, "engine": "naive"}])
        compiled = _table([{**ROW, "seconds": 1.0, "engine": "compiled"}])
        (baselines / "perf_demo_naive.json").write_text(json.dumps(naive))
        (baselines / "perf_demo_compiled.json").write_text(json.dumps(compiled))
        code, output = _run(
            gate,
            [
                "perf_demo_compiled",
                "--baselines", str(baselines),
                "--results", str(baselines),
                "--baseline-name", "perf_demo_naive",
                "--min-speedup", "1.5",
            ],
            capsys,
        )
        assert code == 1
        assert "row missing" in output

    def test_baseline_name_requires_single_table(self, gate, tmp_path, capsys):
        argv = _write_pair(tmp_path, [ROW], [ROW])
        code, output = _run(
            gate,
            argv + ["--baseline-name", "other", "perf_demo", "perf_demo"],
            capsys,
        )
        assert code == 1
        assert "exactly one table name" in output

    def test_only_rows_filters_the_gate(self, gate, tmp_path, capsys):
        """--only-rows gates just the rows whose label matches; the
        too-slow staircase row here is simply not gated."""
        fast = {**ROW, "seconds": 4.0}
        slow = {**ROW, "workload": "staircase", "seconds": 4.0}
        argv = _write_pair(
            tmp_path,
            [fast, slow],
            [{**fast, "seconds": 1.0}, {**slow, "seconds": 3.9}],
        )
        code, output = _run(
            gate,
            argv + ["--min-speedup", "2", "--only-rows", "elevator"],
            capsys,
        )
        assert code == 0
        assert "staircase" not in output
        assert "4.00x speedup" in output

    def test_only_rows_substring_matching_no_row_fails(
        self, gate, tmp_path, capsys
    ):
        """A misspelt --only-rows substring gates nothing, so it must
        fail the table by name instead of passing — even when another
        substring matches and clears the floor."""
        argv = _write_pair(tmp_path, [ROW], [{**ROW, "seconds": 1.0}])
        code, output = _run(
            gate,
            argv
            + ["--min-speedup", "2", "--only-rows", "elevator,staircase-core"],
            capsys,
        )
        assert code == 1
        assert "4.00x speedup" in output
        assert "'staircase-core' matches no row of perf_demo" in output
        assert "perf gate clean" not in output


class TestCeilingMode:
    """``--max-ratio`` (ISSUE 8): the snapshot CI gate's cost ceiling —
    fail rows whose current/baseline ratio exceeds Y, so an incremental
    resume must stay cheaper than a fraction of the cold chase even on
    rows with no headroom for a speedup floor."""

    def test_under_the_ceiling_passes(self, gate, tmp_path, capsys):
        argv = _write_pair(tmp_path, [ROW], [{**ROW, "seconds": 2.0}])
        code, output = _run(gate, argv + ["--max-ratio", "0.8"], capsys)
        assert code == 0
        assert "2.00x speedup" in output
        assert "perf gate clean" in output

    def test_over_the_ceiling_fails(self, gate, tmp_path, capsys):
        argv = _write_pair(tmp_path, [ROW], [{**ROW, "seconds": 3.6}])
        code, output = _run(gate, argv + ["--max-ratio", "0.8"], capsys)
        assert code == 1
        assert "ratio 0.90, ceiling 0.8" in output
        assert "outside the configured speedup bounds" in output

    def test_floor_and_ceiling_compose(self, gate, tmp_path, capsys):
        """A row must clear the floor *and* stay under the ceiling: here
        the speedup (1.33x) satisfies the 1.2x floor but the 0.75 ratio
        breaks the 0.6 ceiling, so the composed gate fails."""
        argv = _write_pair(tmp_path, [ROW], [{**ROW, "seconds": 3.0}])
        code, output = _run(
            gate,
            argv + ["--min-speedup", "1.2", "--max-ratio", "0.6"],
            capsys,
        )
        assert code == 1
        assert "floor 1.2x, ceiling 0.6" in output

    def test_ceiling_mode_still_reports_semantic_drift(self, gate, tmp_path, capsys):
        """A dirt-cheap row that resumed into different work is drift,
        not a pass — count fields stay in row identity in every mode."""
        drifted = {**ROW, "applications": 36, "seconds": 0.1}
        argv = _write_pair(tmp_path, [ROW], [drifted])
        code, output = _run(gate, argv + ["--max-ratio", "0.8"], capsys)
        assert code == 1
        assert "SEMANTIC DRIFT" in output


class TestDriftDetector:
    def test_find_count_drift_reports_moved_fields(self, gate):
        base = (("workload", "elevator"), ("steps", 35), ("applications", 35))
        cur = (("workload", "elevator"), ("steps", 35), ("applications", 36))
        drift = gate.find_count_drift(base, [cur])
        assert drift == {"applications": (35, 36)}

    def test_find_count_drift_ignores_other_workloads(self, gate):
        base = (("workload", "elevator"), ("applications", 35))
        cur = (("workload", "staircase"), ("applications", 36))
        assert gate.find_count_drift(base, [cur]) is None
