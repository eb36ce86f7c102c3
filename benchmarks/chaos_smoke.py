"""Fault-injection smoke test for ``repro serve`` (the CI ``chaos-smoke`` job).

Boots the server as a real subprocess with a fault directory attached,
then walks it through a seeded chaos script:

* **baseline** — the four distinct queries run clean and their answers
  are recorded;
* **worker-kill** — a ``worker.kill_mid_job`` fuse is armed and the
  queries are replayed concurrently; whichever spawn worker picks the
  fuse up dies (``os._exit``), breaking the process pool.  Every
  request must still get exactly one correct response (pool rebuilt,
  jobs retried warm from the baseline snapshots);
* **slow** — a seeded subset of a request stream rides out injected
  worker stalls with no supervisor involvement;
* **corrupt** — a ``snapshot.corrupt_after_save`` fuse mangles the
  snapshot a job just saved; the replayed query must re-answer
  correctly from a cold start (the corrupt file is a miss, not a crash);
* **drop** — a ``server.drop_connection`` fuse aborts one connection
  mid-response; the harness observes the EOF and verifies the next
  connection is served normally.

Afterwards the server's stats op must show the recovery actually
happened (``service.pool_rebuilds`` ≥ 1, ``service.retries`` ≥ 1, zero
errors) and the ``shutdown`` op must stop it cleanly (exit code 0).

The run is traced end to end (``--trace-dir``): after shutdown the
per-process span files are merged into
``results/chaos_smoke_trace.jsonl`` (a CI artifact) and the harness
proves the tracing tentpole on it — the killed-and-retried request
reconstructs as **one** causal timeline (server request span, both
worker attempts, the pool rebuild, no orphaned spans), and the live
``stats`` op's rolling p50/p95/p99 equal the offline span-derived
percentiles over the same jobs.  The span-derived latency summary is
archived in ``results/chaos_smoke.json`` for the CI SLO gate
(``benchmarks/check_slo.py``).

The fault schedule derives from ``--seed`` (committed in CI), so a
failing run replays bit-for-bit.  Archives ``results/chaos_smoke.json``
in the same schema as the bench tables.

Run from the repository root::

    python benchmarks/chaos_smoke.py --seed 7464
"""

import argparse
import asyncio
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).parent
REPO_ROOT = HERE.parent
RESULTS_FILE = HERE / "results" / "chaos_smoke.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.faults import FaultPlan, schedule_fires  # noqa: E402

#: Matches benchmarks/conftest.py — the artifact checks key off it.
RESULTS_SCHEMA = 1

#: Distinct queries (no in-flight coalescing) over the staircase KB.
QUERIES = [
    "v(X, Y)",
    "v(X, Y), v(Y, Z)",
    "f(X), v(X, Y)",
    "h(X, X)",
]


def staircase_text():
    from repro import staircase_kb
    from repro.logic.serialization import dump_kb

    return dump_kb(staircase_kb())


def start_server(snapshot_dir, fault_dir, trace_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--max-retries",
            "3",
            "--snapshot-dir",
            str(snapshot_dir),
            "--fault-dir",
            str(fault_dir),
            "--trace-dir",
            str(trace_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 60
    banner = ""
    while time.monotonic() < deadline:
        banner = process.stdout.readline()
        if "listening on" in banner:
            port = int(banner.rsplit(":", 1)[1])
            return process, port
        if process.poll() is not None:
            break
    process.kill()
    raise SystemExit(f"server did not come up (last output: {banner!r})")


def entail_line(request_id, query, kb_text):
    return {
        "op": "entail",
        "kb_text": kb_text,
        "query": query,
        "max_steps": 60,
        "id": request_id,
    }


async def send_on_connection(port, lines):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for line in lines:
            writer.write((json.dumps(line) + "\n").encode())
        await writer.drain()
        return [
            json.loads(await asyncio.wait_for(reader.readline(), timeout=300))
            for _ in lines
        ]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def spread(port, lines):
    """One connection per line, all concurrent — multiple in-flight jobs."""
    batches = await asyncio.gather(
        *(send_on_connection(port, [line]) for line in lines)
    )
    return [batch[0] for batch in batches]


def check_phase(phase, lines, responses, baseline):
    expected = {line["id"] for line in lines}
    got = {response.get("id") for response in responses}
    assert got == expected, f"{phase}: id mismatch {expected ^ got}"
    bad = [r for r in responses if not r.get("ok")]
    assert not bad, f"{phase}: {len(bad)} failed responses: {bad[:2]}"
    if baseline:
        for line, response in zip(lines, responses):
            want = baseline[line["query"]]
            assert response.get("entailed") == want, (
                f"{phase}: answer drift for {line['query']!r}: "
                f"{response.get('entailed')} != baseline {want}"
            )


async def drop_phase(port):
    """Arm-side handled by the caller; observe the abort, then recover."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b'{"op": "ping", "id": "drop"}\n')
    await writer.drain()
    try:
        line = await asyncio.wait_for(reader.readline(), timeout=60)
    except (ConnectionError, OSError):
        line = b""
    writer.close()
    assert line == b"", f"drop: expected an aborted connection, got {line!r}"
    retry = (await send_on_connection(port, [{"op": "ping", "id": "drop2"}]))[0]
    assert retry.get("ok"), f"drop: recovery ping failed: {retry}"


async def fetch_stats(port):
    return (await send_on_connection(port, [{"op": "stats", "id": "stats"}]))[0]


async def request_shutdown(port):
    response = (
        await send_on_connection(port, [{"op": "shutdown", "id": "bye"}])
    )[0]
    assert response.get("ok"), f"shutdown refused: {response}"


def _span_names(tree):
    """Every span name in *tree*, roots-first (duplicates kept)."""
    names = []
    stack = list(tree.roots)
    while stack:
        node = stack.pop()
        names.append(node.name)
        stack.extend(node.children)
    return names


def _summaries_close(live, offline, tolerance=1e-6):
    """Structural equality of two latency summaries, numbers within
    *tolerance* (both derive from the same result.seconds floats, so
    only JSON round-tripping separates them)."""
    if isinstance(live, dict) and isinstance(offline, dict):
        return set(live) == set(offline) and all(
            _summaries_close(live[key], offline[key], tolerance)
            for key in live
        )
    if isinstance(live, (int, float)) and isinstance(offline, (int, float)):
        return abs(live - offline) <= tolerance
    return live == offline


def verify_traces(trace_dir, stats):
    """Merge the run's span files, archive them, and prove the tracing
    claims: every event matches its event-table entry, the
    killed-and-retried request is one causal timeline, live stats
    percentiles equal offline span-derived ones, and the service totals
    ``repro stats`` replays from the trace equal the live metrics."""
    from repro.obs import schema_errors
    from repro.obs.spans import (
        build_trace,
        latency_summary,
        read_trace_dir,
        trace_ids,
    )
    from repro.obs.stats import ROWS, summarize_trace

    events, skipped = read_trace_dir(trace_dir)
    assert events, f"no trace events under {trace_dir}"
    assert not skipped, f"{skipped} torn trace line(s) after clean shutdown"
    RESULTS_FILE.parent.mkdir(exist_ok=True)
    merged = RESULTS_FILE.parent / "chaos_smoke_trace.jsonl"
    with open(merged, "w") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
    print(f"wrote {merged} ({len(events)} events from the run)")

    # The server and every worker (killed, retried, rebuilt) wrote these:
    # each must have a known kind and its kind's required fields.
    problems = [error for event in events for error in schema_errors(event)]
    assert not problems, (
        f"{len(problems)} event-table violation(s), e.g. {problems[:5]}"
    )
    print(f"all {len(events)} trace events match the event table")

    # The killed-and-retried request must reconstruct as ONE causal
    # timeline: request + job spans from the server, both worker
    # attempts, the pool rebuild — and no trace may have orphans.
    retried = None
    for trace_id in trace_ids(events):
        tree = build_trace(events, trace_id)
        assert not tree.orphans, (
            f"trace {trace_id}: {len(tree.orphans)} orphaned span(s)"
        )
        names = _span_names(tree)
        if names.count("job_attempt") >= 2 and "pool_rebuild" in names:
            retried = retried or tree
    assert retried is not None, (
        "no trace reconstructs a killed-and-retried request "
        "(>= 2 attempts + a pool rebuild)"
    )
    names = _span_names(retried)
    for needed in ("service_request", "service_job", "retry_backoff"):
        assert needed in names, f"retried trace is missing a {needed} span"
    assert not retried.unclosed, (
        f"retried trace left spans unclosed: "
        f"{[node.span_id for node in retried.unclosed]}"
    )
    print(
        f"killed-and-retried request reconstructed as trace "
        f"{retried.trace_id}: {retried.spans} spans, one timeline"
    )

    # Live (rolling window) vs offline (span replay) percentiles: both
    # summarize the same service_job completions, so they must agree.
    job_events = [e for e in events if e.get("kind") == "service_job"]
    offline = latency_summary(
        (e["op"], e["warm"], e["ok"], e["seconds"]) for e in job_events
    )
    live = stats.get("latency")
    assert _summaries_close(live, offline), (
        "live stats latency diverges from span-derived latency:\n"
        f"live={json.dumps(live, indent=2)}\n"
        f"offline={json.dumps(offline, indent=2)}"
    )
    print("live stats percentiles == offline span-derived percentiles")

    # The service totals a service.* metric feeds count server-side
    # events only (service_request, service_job), so the killed worker's
    # lost metrics snapshot cannot skew them: replayed from the merged
    # trace they must equal the server's final stats-op metrics.
    metrics = stats.get("metrics", {})

    def live(name):
        return metrics.get(name, {}).get("value", 0)

    expected = {
        row.key: live(row.source)
        for row in ROWS
        if row.section == "service"
        and isinstance(row.source, str)
        and row.source.startswith("service.")
    }
    expected["ok"] = live("service.jobs") - live("service.job_errors")
    service = summarize_trace(events)["service"]
    replayed = {key: service[key] for key in expected}
    assert replayed == expected, (
        "repro stats service totals diverge from the live metrics:\n"
        f"replayed={replayed}\nlive={expected}"
    )
    print(f"replayed service totals == live stats metrics ({', '.join(expected)})")
    return offline


def save_results(rows, extra, latency=None):
    RESULTS_FILE.parent.mkdir(exist_ok=True)
    payload = {
        "schema": RESULTS_SCHEMA,
        "name": "chaos_smoke",
        "title": "chaos smoke: fault injection against a live repro serve",
        "headers": list(rows[0]),
        "rows": rows,
        "extra": extra,
        # Span-derived per-op latency quantiles (the SLO gate's input).
        "latency": latency or {},
    }
    RESULTS_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_FILE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed",
        type=int,
        default=7464,
        help="fault-schedule seed (committed in CI; default 7464)",
    )
    args = parser.parse_args()

    kb_text = staircase_text()
    rows = []
    baseline = {}

    def run_phase(phase, lines, check_baseline=True):
        started = time.perf_counter()
        responses = asyncio.run(spread(port, lines))
        seconds = time.perf_counter() - started
        check_phase(phase, lines, responses, baseline if check_baseline else None)
        rows.append(
            {
                "phase": phase,
                "requests": len(responses),
                "warm": sum(1 for r in responses if r.get("warm")),
                "seconds": round(seconds, 4),
            }
        )
        print(
            f"phase {phase}: {len(responses)} ok, "
            f"{rows[-1]['warm']} warm, {seconds:.3f}s"
        )
        return responses

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        scratch = pathlib.Path(scratch)
        plan = FaultPlan(scratch / "faults")
        trace_dir = scratch / "trace"
        process, port = start_server(scratch / "snaps", plan.root, trace_dir)
        try:
            # baseline: clean answers, snapshots saved
            lines = [
                entail_line(f"base{i}", q, kb_text)
                for i, q in enumerate(QUERIES)
            ]
            for line, response in zip(lines, run_phase("baseline", lines, False)):
                baseline[line["query"]] = response.get("entailed")

            # worker-kill: break the pool under concurrent load
            plan.arm("worker.kill_mid_job")
            lines = [
                entail_line(f"kill{i}", q, kb_text)
                for i, q in enumerate(QUERIES)
            ]
            responses = run_phase("worker-kill", lines)
            assert plan.fired("worker.kill_mid_job") == 1, "kill fuse never fired"
            assert any(r.get("warm") for r in responses), (
                "worker-kill: no retried job warm-started from the baseline "
                "snapshot"
            )

            # slow: a seeded subset of a request stream stalls in the worker
            stream = 8
            stalls = schedule_fires(args.seed, stream, rate=0.25)
            if stalls:
                plan.arm(
                    "worker.slow_job",
                    times=len(stalls),
                    payload={"seconds": 0.1},
                )
            lines = [
                entail_line(f"slow{i}", QUERIES[i % len(QUERIES)], kb_text)
                for i in range(stream)
            ]
            run_phase("slow", lines)
            assert plan.armed("worker.slow_job") == 0, "slow fuses left armed"

            # corrupt: mangle the snapshot a job just saved, then re-ask
            plan.arm("snapshot.corrupt_after_save", payload={"mode": "garbage"})
            lines = [entail_line("corrupt0", QUERIES[0], kb_text)]
            run_phase("corrupt-save", lines)
            assert plan.fired("snapshot.corrupt_after_save") == 1
            lines = [entail_line("corrupt1", QUERIES[0], kb_text)]
            run_phase("corrupt-reask", lines)

            # drop: abort one connection mid-response, then recover
            plan.arm("server.drop_connection")
            started = time.perf_counter()
            asyncio.run(drop_phase(port))
            rows.append(
                {
                    "phase": "drop",
                    "requests": 2,
                    "warm": 0,
                    "seconds": round(time.perf_counter() - started, 4),
                }
            )
            print("phase drop: connection aborted once, recovery ping ok")

            stats = asyncio.run(fetch_stats(port))
            metrics = stats.get("metrics", {})
            rebuilds = metrics.get("service.pool_rebuilds", {}).get("value", 0)
            retries = metrics.get("service.retries", {}).get("value", 0)
            print(
                f"server stats: {stats['requests']} requests, "
                f"{stats['jobs']} jobs, {rebuilds} pool rebuilds, "
                f"{retries} retries, {stats['errors']} errors"
            )
            assert rebuilds >= 1, "pool was never rebuilt"
            assert retries >= 1, "no job was ever retried"
            assert stats["errors"] == 0, "server reported job errors"
            assert stats["pending"] == 0, "jobs left pending"

            asyncio.run(request_shutdown(port))
            code = process.wait(timeout=30)
            assert code == 0, f"server exited with {code}"
            # Only after a clean exit: every sink is flushed and closed,
            # so the merged trace is complete.
            latency = verify_traces(trace_dir, stats)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    save_results(
        rows,
        f"seed {args.seed}; {rebuilds} pool rebuilds, {retries} retries, "
        "0 errors; worker-kill, slow, corrupt-snapshot and "
        "dropped-connection faults all recovered; killed-and-retried "
        "request reconstructed as one trace.",
        latency=latency,
    )
    print("chaos smoke OK")


if __name__ == "__main__":
    main()
