"""Command-line interface: ``python -m repro <command> ...``.

Eight subcommands cover the everyday workflows on serialized knowledge
bases (see :mod:`repro.logic.serialization` for the file format):

``chase``
    Run a chase variant with a step budget; print the final instance
    and a summary line.  ``--trace FILE`` records the run as JSONL
    telemetry (:mod:`repro.obs`), ``--metrics`` prints the metrics
    registry afterwards, ``--json`` emits a machine-readable summary.
``entail``
    Decide a Boolean CQ with the Theorem-1 race, after the backward
    UCQ-rewriting fast path on linear/guarded rulesets (``--no-rewrite``
    skips it).
``analyze``
    The full ruleset analyzer: every syntactic criterion, the
    linear-fragment termination decision, and the execution strategy
    the planner derives from the verdict (``--json`` for the machine
    shape).  It reads the rules alone; ``chase --variant core`` shows
    whether one instance's core chase terminates.
``treewidth``
    Treewidth of an instance file (exact, with bounds fallback).
``stats``
    Replay a ``--trace`` JSONL file into summary tables (per-step
    retraction series, search effort, service latencies, totals).
    Degrades gracefully: empty or truncated files get a clear message
    and a zero exit, and a whole-file metrics snapshot (as written by
    ``serve --metrics-file``) renders as a metrics table.
``serve``
    Run the long-lived query service (:mod:`repro.service`): JSONL
    requests over TCP, a process-pool of chase workers, and a
    chase-snapshot store for warm starts.  ``--trace-dir DIR`` turns on
    request tracing: the server writes ``DIR/server.jsonl``, each pool
    worker ``DIR/worker-<pid>.jsonl``.
``trace``
    Merge a ``--trace-dir`` run and reconstruct one request's causal
    timeline (``repro trace <trace_id> --dir DIR``), list the traces in
    a run, or dump every reconstructed trace (``--all --format=json``).
``top``
    Poll a running server's ``stats`` op and render a refreshing
    dashboard: request/job counters, supervision counters, and rolling
    p50/p95/p99 latency per op, split warm/cold/failed.

``chase`` and ``entail`` accept ``--timeout SECONDS``: a cooperative
deadline (the same machinery the service applies per job) that stops
the run between rule applications and reports the partial outcome.

Examples::

    python -m repro chase kb.repro --variant core --steps 50
    python -m repro chase kb.repro --variant core --trace run.jsonl
    python -m repro stats run.jsonl
    python -m repro entail kb.repro "mgr(ann, X)" --json
    python -m repro entail kb.repro "e(X, X)" --timeout 2.5
    python -m repro analyze kb.repro --json
    python -m repro treewidth instance.atoms
    python -m repro serve --port 7430 --workers 4 --snapshot-dir snaps/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .chase.engine import ChaseVariant, run_chase
from .logic.serialization import load_instance, load_kb_file
from .obs import (
    JsonlTracer,
    MetricsObserver,
    MetricsRegistry,
    TracingObserver,
    observing,
    read_trace_lenient,
)
from .obs.stats import drop_malformed, render_summary, summarize_trace
from .query import boolean_cq, decide_entailment
from .service.deadline import Deadline
from .treewidth import SearchBudgetExceeded, treewidth, treewidth_bounds
from .util.reporting import Table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Existential rules, chase variants, and treewidth "
        "(PODS 2023 reproduction).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    chase = commands.add_parser("chase", help="run a chase on a KB file")
    chase.add_argument("kb", help="knowledge base file (sectioned format)")
    chase.add_argument(
        "--variant",
        choices=ChaseVariant.ALL,
        default=ChaseVariant.RESTRICTED,
    )
    chase.add_argument("--steps", type=int, default=100)
    chase.add_argument(
        "--quiet", action="store_true", help="summary only, no instance dump"
    )
    chase.add_argument(
        "--trace",
        metavar="FILE",
        help="write JSONL telemetry of the run to FILE (replay with "
        "'repro stats FILE')",
    )
    chase.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry after the run",
    )
    chase.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON summary instead of text",
    )
    chase.add_argument(
        "--no-index",
        action="store_true",
        help="run the naive engine instead of the compiled kernel: no "
        "compiled join plans, no incremental trigger index, no "
        "incremental core maintenance (the reference path differential "
        "tests compare against)",
    )
    chase.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="cooperative deadline: stop between rule applications once "
        "SECONDS have elapsed and report the partial run",
    )

    entail = commands.add_parser("entail", help="decide a Boolean CQ")
    entail.add_argument("kb", help="knowledge base file")
    entail.add_argument("query", help='query text, e.g. "e(X, Y), e(Y, X)"')
    entail.add_argument("--chase-budget", type=int, default=100)
    entail.add_argument("--model-budget", type=int, default=6)
    entail.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="cooperative deadline on the race; an expiry reports "
        "UNDECIDED with the incomplete flag set",
    )
    entail.add_argument(
        "--no-rewrite",
        dest="rewrite",
        action="store_false",
        help="skip the backward UCQ-rewriting fast path (tried first on "
        "linear/guarded rulesets) and run the pure Theorem-1 race",
    )
    entail.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON verdict instead of text",
    )

    analyze = commands.add_parser(
        "analyze",
        help="ruleset analysis: classes, the linear termination decision, "
        "and the planner's strategy (the facts are not read)",
    )
    analyze.add_argument("kb", help="knowledge base file")
    analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the verdict and strategy as JSON instead of text",
    )

    width = commands.add_parser("treewidth", help="treewidth of an instance")
    width.add_argument("instance", help="instance file (one atom per line)")

    stats = commands.add_parser(
        "stats", help="summarize a JSONL trace written by 'chase --trace'"
    )
    stats.add_argument("trace", help="JSONL trace file")
    stats.add_argument(
        "--stride",
        type=int,
        default=5,
        help="report every N-th chase step in the series table (default 5)",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the full summary (including the per-step series) as JSON",
    )

    serve = commands.add_parser(
        "serve", help="run the JSONL-over-TCP query service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port; 0 (default) picks an ephemeral port, printed on "
        "the 'listening on' line",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="chase worker processes; 0 runs jobs in-process (default 2)",
    )
    serve.add_argument(
        "--snapshot-dir",
        metavar="DIR",
        help="chase-snapshot store root for warm starts (default: a "
        "temporary directory discarded on exit)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="default per-job deadline for requests without their own",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget per job for transient executor failures "
        "(broken pool / dead worker; default 2)",
    )
    serve.add_argument(
        "--max-snapshots",
        type=int,
        metavar="N",
        help="bound the snapshot store to N entries (access-counter "
        "LRU eviction; default unbounded)",
    )
    serve.add_argument(
        "--max-snapshot-mb",
        type=float,
        metavar="MB",
        help="bound the snapshot store to MB megabytes (access-counter "
        "LRU eviction; default unbounded)",
    )
    serve.add_argument(
        "--no-planner",
        action="store_true",
        help="disable planner routing: jobs run under their requests' "
        "own chase configuration instead of the analyzer-derived "
        "strategy (routing is on by default; per-request 'planner' / "
        "'strategy' fields still override either way)",
    )
    serve.add_argument(
        "--fault-dir",
        metavar="DIR",
        help="arm fault injection from the fuse files in DIR "
        "(chaos testing; see repro.service.faults)",
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        help="write JSONL service telemetry to FILE (replay with "
        "'repro stats FILE')",
    )
    serve.add_argument(
        "--metrics-file",
        metavar="FILE",
        help="write the final metrics snapshot to FILE as JSON on exit "
        "('repro stats FILE' renders it)",
    )
    serve.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="request-tracing run directory: the server traces into "
        "DIR/server.jsonl and each pool worker into "
        "DIR/worker-<pid>.jsonl (reconstruct with 'repro trace --dir "
        "DIR'); takes precedence over --trace",
    )

    trace = commands.add_parser(
        "trace",
        help="reconstruct request timelines from a serve --trace-dir run",
    )
    trace.add_argument(
        "trace_id",
        nargs="?",
        help="the trace to reconstruct; omit to list the traces in the "
        "run (or use --all)",
    )
    trace.add_argument(
        "--dir",
        default=".",
        metavar="DIR",
        help="the run directory (every *.jsonl inside is merged on "
        "wall-clock order) or a single trace file (default: .)",
    )
    trace.add_argument(
        "--all",
        action="store_true",
        help="reconstruct every trace in the run",
    )
    trace.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text renders indented span trees; json dumps the "
        "reconstructed trees as JSON (default text)",
    )

    top = commands.add_parser(
        "top", help="live dashboard over a running server's stats op"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument(
        "--port",
        type=int,
        required=True,
        help="the server's TCP port (printed on its 'listening on' line)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default 2.0)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes; 0 (default) runs until Ctrl-C",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print a single snapshot without clearing the screen",
    )

    return parser


def _cmd_chase(args: argparse.Namespace) -> int:
    kb = load_kb_file(args.kb)
    registry = MetricsRegistry() if args.metrics else None
    sink = open(args.trace, "w") if args.trace else None
    if sink is not None:
        observer = TracingObserver(JsonlTracer(sink), registry=registry)
    elif registry is not None:
        observer = MetricsObserver(registry)
    else:
        observer = None
    deadline = Deadline(args.timeout) if args.timeout is not None else None
    try:
        with observing(observer):
            result = run_chase(
                kb,
                variant=args.variant,
                max_steps=args.steps,
                use_index=not args.no_index,
                should_stop=deadline,
            )
    finally:
        if sink is not None:
            sink.close()

    summary = {
        "variant": args.variant,
        "terminated": result.terminated,
        "stopped": result.stopped,
        "applications": result.applications,
        "atoms": len(result.final_instance),
        "nulls": len(result.final_instance.variables()),
        "retractions": result.retractions,
        "atoms_retracted": result.atoms_retracted,
    }
    if args.json:
        if not args.quiet:
            summary["instance"] = [
                str(at) for at in result.final_instance.sorted_atoms()
            ]
        if registry is not None:
            summary["metrics"] = registry.snapshot()
        print(json.dumps(summary, indent=2))
        return 0

    if not args.quiet:
        for at in result.final_instance.sorted_atoms():
            print(at)
    if result.terminated:
        status = "terminated"
    elif result.stopped:
        status = "stopped (deadline)"
    else:
        status = "budget-exhausted"
    print(
        f"# {args.variant} chase {status}: {result.applications} applications, "
        f"{summary['atoms']} atoms, {summary['nulls']} nulls, "
        f"{result.retractions} retractions, "
        f"{result.atoms_retracted} atoms retracted"
    )
    if registry is not None:
        print(_metrics_table(registry).render(), end="")
    return 0


def _metrics_table(registry: MetricsRegistry) -> Table:
    return _metrics_snapshot_table(registry.snapshot())


def _metrics_snapshot_table(snapshot: dict) -> Table:
    table = Table(["metric", "kind", "value"], title="# metrics")
    for name in sorted(snapshot):
        snap = snapshot[name]
        if snap["kind"] in ("counter", "gauge"):
            value = snap["value"]
        else:  # timer / histogram
            value = f"n={snap['count']} mean={snap['mean']:.6g}"
        table.add_row(name, snap["kind"], value)
    return table


def _cmd_entail(args: argparse.Namespace) -> int:
    from .query.rewriting import decide_by_rewriting

    kb = load_kb_file(args.kb)
    deadline = Deadline(args.timeout) if args.timeout is not None else None
    verdict = None
    if args.rewrite:
        # Auto-attempts on rewritable rulesets; returns None (and the
        # race below answers) when the fragment check fails or the
        # budgeted saturation is inconclusive.
        verdict = decide_by_rewriting(kb, boolean_cq(args.query))
    if verdict is None:
        verdict = decide_entailment(
            kb,
            boolean_cq(args.query),
            chase_budget=args.chase_budget,
            model_domain_budget=args.model_budget,
            should_stop=deadline,
        )
    if args.json:
        print(
            json.dumps(
                {
                    "query": args.query,
                    "entailed": verdict.entailed,
                    "method": verdict.method,
                    "incomplete": verdict.incomplete,
                },
                indent=2,
            )
        )
        return 2 if verdict.entailed is None else (0 if verdict.entailed else 1)
    if verdict.entailed is None:
        if verdict.incomplete:
            print(f"UNDECIDED, deadline expired ({verdict.method})")
        else:
            print(f"UNDECIDED within budgets ({verdict.method})")
        return 2
    print(f"{'ENTAILED' if verdict.entailed else 'NOT ENTAILED'} ({verdict.method})")
    return 0 if verdict.entailed else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.planner import Planner, plan

    kb = load_kb_file(args.kb)
    verdict = Planner().compute(kb.rules)
    strategy = plan(verdict)
    if args.json:
        print(
            json.dumps(
                {
                    "rules": len(kb.rules),
                    "facts": len(kb.facts),
                    "verdict": verdict.to_obj(),
                    "terminating": verdict.terminating,
                    "bts_class": verdict.bts_class,
                    "decidable": verdict.decidable,
                    "rewritable": verdict.rewritable,
                    "strategy": strategy.to_obj(),
                },
                indent=2,
            )
        )
        return 0
    print(f"rules: {len(kb.rules)}, facts: {len(kb.facts)}")
    print(f"weakly acyclic:    {verdict.weakly_acyclic}")
    print(f"guarded:           {verdict.guarded}")
    print(f"frontier-guarded:  {verdict.frontier_guarded}")
    print(f"sticky:            {verdict.sticky}")
    print(f"rule-acyclic:      {verdict.rule_acyclic}")
    print(f"linear:            {verdict.linear}")
    if verdict.linear_terminating is None:
        linear_line = "undecided (not linear, or shape budget exhausted)"
    elif verdict.linear_terminating:
        linear_line = "terminates (all variants, all instances)"
    else:
        linear_line = "diverges (oblivious chase, critical instance)"
    print(f"linear termination: {linear_line}")
    print(f"terminating (all variants): {verdict.terminating}")
    print(f"bts class: {verdict.bts_class}")
    print(f"decidable CQ entailment certified: {verdict.decidable}")
    if verdict.rewritable:
        fragment = "linear" if verdict.linear else "guarded"
        rewritable_line = f"yes ({fragment} fragment, UCQ rewriting applies)"
    else:
        rewritable_line = "no"
    print(f"rewritable: {rewritable_line}")
    print(
        f"strategy: {strategy.name} (variant={strategy.variant}, "
        f"core_every={strategy.core_every}, max_steps={strategy.max_steps}, "
        f"model_budget={strategy.model_budget}, "
        f"ancestor_resume={strategy.ancestor_resume})"
    )
    print(f"  reason: {strategy.reason}")
    return 0


def _cmd_treewidth(args: argparse.Namespace) -> int:
    with open(args.instance) as handle:
        atoms = load_instance(handle.read())
    try:
        print(f"treewidth: {treewidth(atoms)}")
    except SearchBudgetExceeded as exc:
        low, high = treewidth_bounds(atoms)
        if exc.lower is not None:
            low = max(low, exc.lower)
        print(f"treewidth: in [{low}, {high}] (exact search exceeded budget)")
    return 0


def _metrics_snapshot_payload(text: str) -> Optional[dict]:
    """Detect a whole-file metrics snapshot (``serve --metrics-file``
    output): a single JSON object mapping names to instrument dicts."""
    if not text.startswith("{"):
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict) or not payload:
        return None
    if all(
        isinstance(value, dict) and "kind" in value
        for value in payload.values()
    ):
        return payload
    return None


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        with open(args.trace) as handle:
            text = handle.read()
    except OSError as exc:
        print(
            f"stats: cannot read {args.trace}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    stripped = text.strip()
    if not stripped:
        print(f"stats: {args.trace} is empty - no events to summarize")
        return 0
    snapshot = _metrics_snapshot_payload(stripped)
    if snapshot is not None:
        if args.json:
            print(json.dumps(snapshot, indent=2))
        else:
            print(_metrics_snapshot_table(snapshot).render(), end="")
        return 0
    events, skipped = read_trace_lenient(stripped.splitlines())
    events, malformed = drop_malformed(events)
    skipped += malformed
    if skipped:
        print(
            f"# stats: skipped {skipped} malformed line(s) "
            "(torn, or missing a required field)"
        )
    if not events:
        print(f"stats: no readable events in {args.trace}")
        return 0
    summary = summarize_trace(events)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(render_summary(summary, step_stride=max(args.stride, 1)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.spans import (
        build_trace,
        read_trace_dir,
        render_trace,
        trace_ids,
        trace_to_obj,
    )

    if not os.path.exists(args.dir):
        print(f"trace: cannot read {args.dir}: no such path", file=sys.stderr)
        return 2
    try:
        events, skipped = read_trace_dir(args.dir)
    except OSError as exc:
        print(
            f"trace: cannot read {args.dir}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    if skipped:
        print(
            f"# trace: skipped {skipped} malformed line(s) "
            "(truncated or torn trace)",
            file=sys.stderr,
        )
    ids = trace_ids(events)
    if not ids:
        print(f"trace: no trace events under {args.dir}")
        return 0
    if args.all:
        selected = list(ids)
    elif args.trace_id is None:
        table = Table(
            ["trace_id", "events"], title=f"# traces in {args.dir}"
        )
        for trace_id, count in ids.items():
            table.add_row(trace_id, count)
        print(table.render(), end="")
        return 0
    elif args.trace_id in ids:
        selected = [args.trace_id]
    else:
        print(f"trace: unknown trace id {args.trace_id!r}", file=sys.stderr)
        print(
            "available: " + " ".join(ids),
            file=sys.stderr,
        )
        return 2
    trees = [build_trace(events, trace_id) for trace_id in selected]
    if args.format == "json":
        payload = [trace_to_obj(tree) for tree in trees]
        print(json.dumps(payload[0] if not args.all else payload, indent=2))
        return 0
    for index, tree in enumerate(trees):
        if index:
            print()
        print(render_trace(tree))
    return 0


def _poll_stats(host: str, port: int, timeout: float = 10.0) -> dict:
    """One ``stats`` request over a fresh connection (the server speaks
    newline-delimited JSON, so a single line each way suffices)."""
    import socket

    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(b'{"op": "stats"}\n')
        with conn.makefile("r", encoding="utf-8") as reader:
            line = reader.readline()
    if not line:
        raise ValueError("server closed the connection without a reply")
    payload = json.loads(line)
    if not isinstance(payload, dict) or not payload.get("ok"):
        raise ValueError(f"bad stats reply: {line.strip()[:200]}")
    return payload


#: Counters the top dashboard surfaces, in display order.
_TOP_COUNTERS = (
    "requests",
    "coalesced",
    "jobs",
    "warm_hits",
    "errors",
    "retries",
    "pool_rebuilds",
    "snapshots_evicted",
    "pending",
    "inflight",
)


def _render_top(stats: dict) -> str:
    """The dashboard body for one stats payload (shared by --once and
    the refreshing loop, and unit-testable without a socket)."""
    counters = Table(["counter", "value"], title="# service")
    for key in _TOP_COUNTERS:
        if key in stats:
            counters.add_row(key, stats[key])
    ratio = stats.get("warm_hit_ratio")
    counters.add_row(
        "warm_hit_ratio",
        f"{ratio:.3f}" if isinstance(ratio, (int, float)) else "-",
    )
    window = stats.get("latency_window") or {}
    latency = stats.get("latency") or {}
    title = (
        f"# latency (last {window.get('samples', 0)}"
        f"/{window.get('capacity', '?')} jobs, seconds)"
    )
    table = Table(
        ["op", "class", "count", "mean", "p50", "p95", "p99"], title=title
    )
    for op in sorted(latency):
        for klass in ("ok", "warm", "cold", "failed"):
            block = latency[op].get(klass)
            if not block:
                continue
            table.add_row(
                op,
                klass,
                block["count"],
                f"{block['mean']:.6g}",
                f"{block['p50']:.6g}",
                f"{block['p95']:.6g}",
                f"{block['p99']:.6g}",
            )
    parts = [counters.render().rstrip("\n")]
    if latency:
        parts.append(table.render().rstrip("\n"))
    return "\n".join(parts)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    iteration = 0
    try:
        while True:
            iteration += 1
            try:
                stats = _poll_stats(args.host, args.port)
            except (OSError, ValueError) as exc:
                print(
                    f"top: cannot poll {args.host}:{args.port}: {exc}",
                    file=sys.stderr,
                )
                return 1
            body = _render_top(stats)
            if args.once:
                print(body)
                return 0
            # Clear + home, then redraw: a dependency-free refresh.
            sys.stdout.write("\x1b[2J\x1b[H" + body + "\n")
            sys.stdout.flush()
            if args.iterations and iteration >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import tempfile

    from .service.executor import JobExecutor, RetryPolicy
    from .service.faults import FaultPlan
    from .service.server import serve as _serve

    registry = MetricsRegistry()
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        sink = open(os.path.join(args.trace_dir, "server.jsonl"), "w")
    elif args.trace:
        sink = open(args.trace, "w")
    else:
        sink = None
    if sink is not None:
        observer = TracingObserver(JsonlTracer(sink), registry=registry)
    else:
        observer = MetricsObserver(registry)
    scratch = None
    snapshot_dir = args.snapshot_dir
    if snapshot_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-snapshots-")
        snapshot_dir = scratch.name
    fault_plan = FaultPlan(args.fault_dir) if args.fault_dir else None
    max_snapshot_bytes = (
        int(args.max_snapshot_mb * 1024 * 1024)
        if args.max_snapshot_mb is not None
        else None
    )
    executor = JobExecutor(
        workers=args.workers,
        snapshot_dir=snapshot_dir,
        registry=registry,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        fault_dir=args.fault_dir,
        max_snapshot_entries=args.max_snapshots,
        max_snapshot_bytes=max_snapshot_bytes,
        trace_dir=args.trace_dir,
    )
    try:
        with observing(observer):
            try:
                asyncio.run(
                    _serve(
                        host=args.host,
                        port=args.port,
                        default_timeout=args.timeout,
                        executor=executor,
                        fault_plan=fault_plan,
                        planner=not args.no_planner,
                    )
                )
            except KeyboardInterrupt:
                pass
    finally:
        executor.shutdown()
        if sink is not None:
            sink.close()
        if args.metrics_file:
            with open(args.metrics_file, "w") as handle:
                json.dump(registry.snapshot(), handle, indent=2)
        if scratch is not None:
            scratch.cleanup()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "chase": _cmd_chase,
        "entail": _cmd_entail,
        "analyze": _cmd_analyze,
        "treewidth": _cmd_treewidth,
        "stats": _cmd_stats,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "top": _cmd_top,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``repro ... | head``): point
        # stdout at devnull so the interpreter's final flush cannot
        # raise again, and exit quietly (the recipe in the ``signal``
        # module's documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
