"""Tests for the command-line interface (repro.cli)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.kbs.generators import grid_instance
from repro.kbs.witnesses import manager_kb, transitive_closure_kb
from repro.logic.serialization import dump_instance, save_kb
from repro.obs import get_observer
from repro.obs.tracer import read_trace


@pytest.fixture()
def kb_file(tmp_path):
    path = tmp_path / "tc.repro"
    save_kb(transitive_closure_kb(3), path)
    return str(path)


@pytest.fixture()
def manager_file(tmp_path):
    path = tmp_path / "mgr.repro"
    save_kb(manager_kb(), path)
    return str(path)


class TestChaseCommand:
    def test_terminating_run(self, kb_file, capsys):
        code = main(["chase", kb_file, "--variant", "core", "--steps", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "terminated" in out
        assert "e(v0, v3)" in out

    def test_quiet_mode(self, kb_file, capsys):
        main(["chase", kb_file, "--quiet"])
        out = capsys.readouterr().out
        assert "e(v0, v3)" not in out
        assert out.startswith("#")

    def test_budget_exhaustion_reported(self, manager_file, capsys):
        main(["chase", manager_file, "--steps", "5"])
        assert "budget-exhausted" in capsys.readouterr().out

    def test_variant_validated(self, kb_file):
        with pytest.raises(SystemExit):
            main(["chase", kb_file, "--variant", "turbo"])

    def test_summary_reports_retractions(self, kb_file, capsys):
        main(["chase", kb_file, "--variant", "core", "--quiet"])
        out = capsys.readouterr().out
        assert "retractions" in out
        assert "atoms retracted" in out

    def test_json_summary(self, kb_file, capsys):
        code = main(["chase", kb_file, "--variant", "core", "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["variant"] == "core"
        assert summary["terminated"] is True
        assert summary["applications"] >= 1
        assert summary["retractions"] >= 0
        assert summary["atoms_retracted"] >= 0
        assert "e(v0, v3)" in summary["instance"]

    def test_json_quiet_omits_instance(self, kb_file, capsys):
        main(["chase", kb_file, "--json", "--quiet"])
        summary = json.loads(capsys.readouterr().out)
        assert "instance" not in summary

    def test_trace_writes_jsonl(self, kb_file, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        code = main(
            [
                "chase",
                kb_file,
                "--variant",
                "core",
                "--quiet",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        events = read_trace(str(trace_path))
        kinds = {event["kind"] for event in events}
        assert "chase_step_finished" in kinds
        assert "core_retraction" in kinds
        # the observer must not leak past the command
        assert get_observer() is None

    def test_metrics_table_printed(self, kb_file, capsys):
        main(["chase", kb_file, "--variant", "core", "--quiet", "--metrics"])
        out = capsys.readouterr().out
        assert "# metrics" in out
        assert "chase.steps" in out
        assert "hom.searches" in out


class TestEntailCommand:
    def test_entailed_returns_zero(self, manager_file, capsys):
        code = main(["entail", manager_file, "mgr(ann, X)"])
        assert code == 0
        assert "ENTAILED" in capsys.readouterr().out

    def test_not_entailed_returns_one(self, manager_file, capsys):
        code = main(["entail", manager_file, "mgr(X, ann)"])
        assert code == 1
        assert "NOT ENTAILED" in capsys.readouterr().out

    def test_undecided_returns_two(self, tmp_path, capsys):
        # force undecidedness with starvation budgets on a KB whose
        # countermodels are out of reach for a 1-element domain
        from repro.kbs.staircase import staircase_kb

        path = tmp_path / "kh.repro"
        save_kb(staircase_kb(), path)
        code = main(
            [
                "entail",
                str(path),
                "f(X), c(X)",
                "--chase-budget",
                "1",
                "--model-budget",
                "1",
            ]
        )
        assert code == 2
        assert "UNDECIDED" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_reports_verdict_and_strategy(self, kb_file, capsys):
        code = main(["analyze", kb_file])
        out = capsys.readouterr().out
        assert code == 0
        for needle in (
            "weakly acyclic",
            "linear termination",
            "strategy: terminating-fast",
            "reason:",
        ):
            assert needle in out

    def test_bts_ruleset_routes_rewrite_first(self, manager_file, capsys):
        code = main(["analyze", manager_file])
        out = capsys.readouterr().out
        assert code == 0
        # Linear+guarded non-terminating ruleset: rewriting first, the
        # bts-core rung as the fallback, and the rewritability row set.
        assert "strategy: rewrite-first" in out
        assert "falling back to bts-core" in out
        assert "rewritable: yes" in out
        assert "diverges" in out

    def test_closed_stdout_exits_without_traceback(self, kb_file):
        # `repro analyze KB --json | head`: the reader is gone before
        # the report is written.
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "analyze", kb_file, "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert "Traceback" not in stderr.decode()
        assert "BrokenPipeError" not in stderr.decode()

    def test_json_shape(self, kb_file, capsys):
        code = main(["analyze", kb_file, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"]["weakly_acyclic"] is True
        assert report["terminating"] is True
        assert report["strategy"]["name"] == "terminating-fast"
        assert report["strategy"]["model_budget"] == 0


class TestTreewidthCommand:
    def test_grid_width(self, tmp_path, capsys):
        path = tmp_path / "grid.atoms"
        path.write_text(dump_instance(grid_instance(3)))
        code = main(["treewidth", str(path)])
        assert code == 0
        assert "treewidth: 3" in capsys.readouterr().out


class TestEntailClassifyJson:
    def test_entail_json_verdict(self, manager_file, capsys):
        code = main(["entail", manager_file, "mgr(ann, X)", "--json"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict["entailed"] is True
        assert verdict["method"]

    def test_entail_json_exit_codes(self, manager_file, capsys):
        code = main(["entail", manager_file, "mgr(X, ann)", "--json"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 1
        assert verdict["entailed"] is False

    def test_serve_planner_flags_parse(self):
        parser = build_parser()
        assert parser.parse_args(["serve"]).no_planner is False
        assert parser.parse_args(["serve", "--no-planner"]).no_planner is True


class TestStatsCommand:
    @pytest.fixture()
    def trace_file(self, kb_file, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(
            ["chase", kb_file, "--variant", "core", "--quiet", "--trace", str(path)]
        )
        capsys.readouterr()  # drop the chase output
        return str(path)

    def test_tables_rendered(self, trace_file, capsys):
        code = main(["stats", trace_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "Trace events" in out
        assert "Totals" in out
        assert "core_retraction" in out

    def test_json_summary(self, trace_file, capsys):
        code = main(["stats", trace_file, "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["core"]["calls"] == summary["chase"]["steps"] + 1
        assert summary["chase"]["series"], "per-step series must be present"

    def test_event_missing_a_field_is_skipped_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "short.jsonl"
        full = {
            "seq": 1, "t": 0, "kind": "chase_step_finished", "step": 2,
            "rule": "R", "atoms_before": 3, "atoms_applied": 4,
            "atoms_after": 4, "retracted": 0,
        }
        path.write_text(
            '{"seq":0,"t":0,"kind":"chase_step_finished","step":1,"rule":"R"}\n'
            + json.dumps(full) + "\n"
        )
        code = main(["stats", str(path), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# stats: skipped 1 malformed line(s)")
        summary = json.loads(out.split("\n", 1)[1])
        assert [row["step"] for row in summary["chase"]["series"]] == [2]

    def test_core_maintenance_aggregated(self, trace_file, capsys):
        """``repro stats`` folds the maintainer's per-call telemetry into
        candidates-tried, pairs-checked and per-step aggregates."""
        code = main(["stats", trace_file, "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        maint = summary["core_maintenance"]
        assert maint["calls"] == summary["core"]["calls"]
        assert maint["calls"] > 0
        assert maint["incremental"] >= 1
        assert maint["candidates_tried"] >= 0
        assert maint["pairs_checked"] >= 0
        assert maint["candidates_per_step"] >= 0
        assert "skip_hits" not in maint

        code = main(["stats", trace_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "core maintenance" in out
        assert "candidates tried" in out
        assert "pairs checked" in out
        assert "skip hits" not in out

    def test_core_maintenance_event_of_the_old_shape_replays(
        self, tmp_path, capsys
    ):
        """A trace written before the maintainer lost its certificates
        carries ``skip_hits``, ``seeded_searches`` and
        ``cert_invalidated``; the extra fields are ignored, the rest
        replays."""
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({
            "seq": 0, "t": 0, "kind": "core_maintenance",
            "mode": "incremental", "atoms_before": 5, "atoms_after": 4,
            "folds": 1, "candidates_tried": 3, "skip_hits": 2,
            "seeded_searches": 3, "pairs_checked": 1, "cert_invalidated": 1,
            "clean_broken": True, "seconds": 0.001,
        }) + "\n")
        code = main(["stats", str(path), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "malformed" not in out
        maint = json.loads(out)["core_maintenance"]
        assert maint["calls"] == 1
        assert maint["incremental"] == 1
        assert maint["candidates_tried"] == 3
        assert maint["pairs_checked"] == 1
        assert maint["clean_broken"] == 1

    def test_no_core_maint_trace_has_no_maintenance_events(
        self, kb_file, tmp_path, capsys
    ):
        """With ``--no-index`` the run falls back to from-scratch
        retraction: no maintenance events, zero aggregates."""
        path = tmp_path / "naive.jsonl"
        main(
            [
                "chase",
                kb_file,
                "--variant",
                "core",
                "--quiet",
                "--no-index",
                "--trace",
                str(path),
            ]
        )
        capsys.readouterr()
        kinds = {event["kind"] for event in read_trace(str(path))}
        assert "core_retraction" in kinds
        assert "core_maintenance" not in kinds
        code = main(["stats", str(path), "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["core_maintenance"]["calls"] == 0


class TestTraceCommand:
    @pytest.fixture()
    def trace_dir(self, tmp_path):
        """Two single-trace span trees written the way the serving tier
        writes them: one JSONL sink per writer under one directory."""
        from repro.obs import JsonlTracer, TracingObserver, span

        directory = tmp_path / "trace"
        directory.mkdir()
        with open(directory / "server.jsonl", "w") as sink:
            observer = TracingObserver(JsonlTracer(sink))
            with span("service_request", observer=observer, op="entail") as a:
                with span("service_job", observer=observer):
                    pass
            with span("service_request", observer=observer, op="chase") as b:
                pass
        return directory, a.trace_id, b.trace_id

    def test_lists_traces_without_an_id(self, trace_dir, capsys):
        directory, first, second = trace_dir
        code = main(["trace", "--dir", str(directory)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace_id" in out
        assert first in out and second in out

    def test_renders_one_trace_as_a_tree(self, trace_dir, capsys):
        directory, first, _ = trace_dir
        code = main(["trace", first, "--dir", str(directory)])
        out = capsys.readouterr().out
        assert code == 0
        assert "service_request" in out and "service_job" in out
        assert f"trace {first}" in out

    def test_json_format_round_trips(self, trace_dir, capsys):
        directory, first, second = trace_dir
        code = main(
            ["trace", first, "--dir", str(directory), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["trace_id"] == first and payload["spans"] == 2

        code = main(
            ["trace", "--all", "--dir", str(directory), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [tree["trace_id"] for tree in payload] == [first, second]

    def test_unknown_id_exits_2_and_lists_available(self, trace_dir, capsys):
        directory, first, _ = trace_dir
        code = main(["trace", "f" * 16, "--dir", str(directory)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown trace id" in captured.err
        assert first in captured.err  # the available ids are suggested

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        code = main(["trace", "--dir", str(tmp_path / "nope")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_lines_warn_but_do_not_fail(self, trace_dir, capsys):
        directory, first, _ = trace_dir
        (directory / "torn.jsonl").write_text('{"kind": "span_open"\n')
        code = main(["trace", first, "--dir", str(directory)])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipped 1 malformed line" in captured.err
        assert "service_job" in captured.out


class TestTopCommand:
    STATS = {
        "requests": 5,
        "coalesced": 1,
        "jobs": 4,
        "warm_hits": 2,
        "errors": 0,
        "retries": 1,
        "pool_rebuilds": 1,
        "snapshots_evicted": 0,
        "pending": 0,
        "inflight": 0,
        "warm_hit_ratio": 0.5,
        "latency": {
            "entail": {
                "ok": {
                    "count": 4,
                    "mean": 0.25,
                    "p50": 0.2,
                    "p95": 0.4,
                    "p99": 0.4,
                },
                "warm": {
                    "count": 2,
                    "mean": 0.1,
                    "p50": 0.1,
                    "p95": 0.1,
                    "p99": 0.1,
                },
            }
        },
        "latency_window": {"capacity": 512, "samples": 4},
    }

    def test_render_top_shows_counters_and_latency(self):
        from repro.cli import _render_top

        body = _render_top(self.STATS)
        for counter in ("requests", "retries", "pool_rebuilds"):
            assert counter in body
        assert "last 4/512 jobs" in body
        assert "entail" in body and "p95" in body
        # one row per populated class, in class order
        ok_index = body.index("ok")
        warm_index = body.index("warm", ok_index)
        assert ok_index < warm_index

    def test_render_top_tolerates_a_bare_payload(self):
        from repro.cli import _render_top

        body = _render_top({"requests": 0, "ok": True})
        assert "requests" in body
        assert "p95" not in body  # no latency table without samples

    def test_top_against_a_dead_port_exits_1(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(["top", "--port", str(port), "--once"])
        assert code == 1
        assert "cannot poll" in capsys.readouterr().err


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_builds(self):
        parser = build_parser()
        assert "chase" in parser.format_help()
        assert "trace" in parser.format_help()
        assert "top" in parser.format_help()
