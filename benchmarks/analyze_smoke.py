"""End-to-end smoke test for planner routing (the CI ``analyzer-gate`` job).

Boots ``repro serve`` as a real subprocess — the planner is on by
default in the CLI — and replays the committed request script
(``analyze_smoke_requests.jsonl``: a mixed fleet of rulesets, ~a dozen
distinct queries each) sequentially over one connection, asserting:

* every request gets an ``ok`` response with its id echoed;
* every response carries the ``strategy`` the row's
  ``expected_strategy`` field pins down — the analyzer's routing is a
  committed contract, not an implementation detail (the extra field is
  ignored by the server's request parser and read only by this
  harness);
* the server-side verdict-cache hit ratio
  (``cache_hits / (cache_hits + verdicts)`` from the stats planner
  section) meets the floor (``--min-cache-ratio``, default 0.9): the
  fleet re-uses each ruleset, so all but the first job per ruleset
  must be served a cached verdict — the sequential replay keeps one
  pool worker busy, and its verdict cache serves every repeat;
* the ``shutdown`` op stops the server cleanly (exit code 0).

Archives ``results/analyze_smoke.json`` in the bench-table schema.

Run from the repository root::

    python benchmarks/analyze_smoke.py
"""

import argparse
import asyncio
import json
import pathlib
import tempfile
import time

from service_smoke import (
    fetch_stats,
    request_shutdown,
    send_on_connection,
    start_server,
)

HERE = pathlib.Path(__file__).parent
REQUESTS_FILE = HERE / "analyze_smoke_requests.jsonl"
RESULTS_FILE = HERE / "results" / "analyze_smoke.json"

#: Matches benchmarks/conftest.py — the artifact checks key off it.
RESULTS_SCHEMA = 1


def load_requests():
    lines = []
    for raw in REQUESTS_FILE.read_text().splitlines():
        raw = raw.strip()
        if raw:
            lines.append(json.loads(raw))
    if not lines:
        raise SystemExit(f"{REQUESTS_FILE}: no request lines")
    return lines


async def replay_sequential(port, requests):
    """One connection, one request in flight at a time — so one pool
    worker runs every job (the pool starts another only when none is
    idle), and its verdict cache holds each verdict before the next job
    looks."""
    responses = []
    for line in requests:
        response = (await send_on_connection(port, [line], "route"))[0]
        responses.append(response)
    return responses


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-cache-ratio",
        type=float,
        default=0.9,
        help="minimum acceptable verdict-cache hit ratio (default 0.9)",
    )
    args = parser.parse_args()

    requests = load_requests()
    tally = {}
    with tempfile.TemporaryDirectory(prefix="repro-analyze-snap-") as scratch:
        process, port = start_server(scratch)
        try:
            started = time.perf_counter()
            responses = asyncio.run(replay_sequential(port, requests))
            seconds = time.perf_counter() - started
            for line, response in zip(requests, responses):
                assert response.get("id") == f"route:{line['id']}", (
                    f"{line['id']}: id mismatch in {response}"
                )
                assert response.get("ok"), f"{line['id']}: failed: {response}"
                expected = line["expected_strategy"]
                routed = response.get("strategy")
                assert routed == expected, (
                    f"{line['id']}: routed to {routed!r}, expected {expected!r}"
                )
                workload = line["id"].rsplit("-", 1)[0]
                entry = tally.setdefault(
                    workload, {"workload": workload, "strategy": routed, "requests": 0}
                )
                entry["requests"] += 1
            print(f"replayed {len(responses)} routed requests in {seconds:.3f}s")

            stats = asyncio.run(fetch_stats(port))
            planner = stats.get("planner", {})
            assert planner.get("enabled"), "serve did not enable the planner"
            verdicts = planner.get("verdicts", 0)
            cache_hits = planner.get("cache_hits", 0)
            decisions = verdicts + cache_hits
            assert decisions == len(requests), (
                f"{decisions} planner decisions for {len(requests)} requests"
            )
            ratio = cache_hits / decisions
            print(
                f"planner stats: {decisions} decisions, {verdicts} computed, "
                f"{cache_hits} cached (ratio {ratio:.3f}), "
                f"strategies {planner.get('strategies')}"
            )
            assert stats["errors"] == 0, "server reported job errors"
            assert ratio >= args.min_cache_ratio, (
                f"verdict-cache hit ratio {ratio:.3f} "
                f"below floor {args.min_cache_ratio}"
            )

            asyncio.run(request_shutdown(port))
            code = process.wait(timeout=30)
            assert code == 0, f"server exited with {code}"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    rows = sorted(tally.values(), key=lambda row: row["workload"])
    RESULTS_FILE.parent.mkdir(exist_ok=True)
    RESULTS_FILE.write_text(
        json.dumps(
            {
                "schema": RESULTS_SCHEMA,
                "name": "analyze_smoke",
                "title": "analyzer smoke: planner routing over a live server",
                "headers": list(rows[0]),
                "rows": rows,
                "extra": (
                    f"{len(requests)} requests, {verdicts} verdicts computed, "
                    f"cache-hit ratio {ratio:.3f} "
                    f"(floor {args.min_cache_ratio}); total {seconds:.3f}s."
                ),
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {RESULTS_FILE}")
    print("analyze smoke OK")


if __name__ == "__main__":
    main()
