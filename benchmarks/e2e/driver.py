"""One repetition of one workload against a live ``repro serve``.

The loop is closed: one connection with one request in flight, like
the CLI drivers and CI smokes that wait for every reply.  Each
repetition launches a fresh server (one spawn worker) on a fresh
snapshot directory, answers the workload's warm-up set, then replays
whole rounds of the seeded request stream and stops at the round
boundary nearest to its time budget.  Latency is timed at the client,
from writing a request line to reading its reply.

The server runs in its own session and its whole process group is
killed when the repetition ends, so no pool worker outlives it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import tracing
from workloads import WORKLOADS, Request

#: With one request in flight the client, the server and the worker take
#: turns, so a run keeps one core of a 2-core machine busy and measures
#: the program rather than the scheduler; a second worker would sit idle.
WORKERS = 1
#: A request unanswered this long counts as failed.
CLIENT_TIMEOUT_S = 30.0
#: Replies carry whole chase instances; the default 64 KiB line limit
#: is too small for some.
READ_LIMIT = 1 << 24
#: Marks every process a benchmark server starts, so leftovers from an
#: earlier run can be found (the value is the checkout root).
MARKER_ENV = "REPRO_E2E_ROOT"
BANNER_TIMEOUT_S = 60.0


@dataclass
class RepResult:
    """What one repetition measured."""

    setup_s: float
    calib_ms: float
    wall_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: executor round trip (reply "seconds") summed over replies
    roundtrip_s: float = 0.0
    applications: int = 0
    #: end-of-window minus end-of-warm-up readings
    stats_delta: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    server_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    store_bytes: int = 0

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


# ---------------------------------------------------------------------------
# /proc
# ---------------------------------------------------------------------------


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as handle:
            return handle.read().decode(errors="replace")
    except OSError:
        return None


def _stat_fields(pid: int) -> Optional[list]:
    text = _read(f"/proc/{pid}/stat")
    if text is None:
        return None
    # The command name may contain spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2 :].split()


def cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime and stime are fields 14 and 15 of stat(5), 12 and 13 here.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    text = _read(f"/proc/{pid}/status") or ""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _pids() -> list:
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def pool_workers(server_pid: int) -> list:
    """The server's spawn pool workers (not its resource tracker)."""
    workers = []
    for pid in _pids():
        fields = _stat_fields(pid)
        if fields is None or int(fields[1]) != server_pid or not _alive(pid):
            continue
        if "spawn_main" in (_read(f"/proc/{pid}/cmdline") or ""):
            workers.append(pid)
    return sorted(workers)


def marked_processes(root: str) -> list:
    """Live processes started by a benchmark server of this checkout."""
    tag = f"{MARKER_ENV}={root}\0".encode()
    found = []
    for pid in _pids():
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as handle:
                environ = handle.read() + b"\0"
        except OSError:
            continue
        if tag in environ and _alive(pid):
            cmdline = (_read(f"/proc/{pid}/cmdline") or "").replace("\0", " ")
            found.append((pid, cmdline.strip()))
    return found


def _tree_size(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# server lifecycle
# ---------------------------------------------------------------------------


class Server:
    """A ``repro serve --workers 1`` subprocess in its own session."""

    def __init__(self, root: Path, workdir: Path, traced: bool):
        self.root = root
        self.workdir = workdir
        self.traced = traced
        self.snapshot_dir = workdir / "snapshots"
        self.spans_dir = workdir / "spans"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> int:
        for path in (self.snapshot_dir, self.spans_dir, self.workdir / "tmp"):
            path.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.workdir / "tmp")
        env[MARKER_ENV] = str(self.root)
        # Fixed string hashing: set iteration orders, and with them the
        # order in which the chase and the model finder try candidates,
        # repeat from one server to the next.
        env["PYTHONHASHSEED"] = "0"
        env[tracing.SPANS_DIR_ENV] = str(self.spans_dir)
        if self.traced:
            entry = [str(Path(__file__).with_name("traced_serve.py"))]
        else:
            entry = ["-m", "repro"]
        command = [
            sys.executable,
            *entry,
            "serve",
            "--port",
            "0",
            "--workers",
            str(WORKERS),
            "--snapshot-dir",
            str(self.snapshot_dir),
        ]
        # Output goes to a file: a pipe nobody drains after the banner
        # could fill up and block the server or its workers.
        log_path = self.workdir / "server.log"
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                command,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        output = ""
        while time.monotonic() < deadline:
            output = log_path.read_text(errors="replace")
            banner = re.search(r"listening on \S+:(\d+)\n", output)
            if banner:
                self.port = int(banner.group(1))
                return self.port
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start; its output: {output[-2000:]!r}")

    def stop(self) -> None:
        """Ask for a clean shutdown, then kill whatever is left of the
        process group and wait until every member is gone."""
        process = self.process
        if process is None:
            return
        try:
            if process.poll() is None and self.port:
                try:
                    asyncio.run(_one_shot(self.port, {"op": "shutdown"}))
                    process.wait(timeout=15)
                except (OSError, asyncio.TimeoutError, subprocess.TimeoutExpired):
                    pass
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            deadline = time.monotonic() + 30
            while marked_processes(str(self.root)):
                if time.monotonic() > deadline:
                    raise RuntimeError("benchmark server processes outlived the kill")
                time.sleep(0.05)


async def _one_shot(port: int, request: dict) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=READ_LIMIT)
    try:
        writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), CLIENT_TIMEOUT_S))
    finally:
        writer.close()
        await writer.wait_closed()


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def check_reply(reply: dict, expected: Optional[dict]) -> Optional[str]:
    """None when *reply* is a correct answer, else why it is not."""
    if not reply.get("ok"):
        return f"error reply: {reply.get('error')}"
    if expected is None:
        return "no expected answer for this shape"
    for key, want in expected.items():
        if reply.get(key) != want:
            return f"{key} = {reply.get(key)!r}, expected {want!r}"
    return None


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes: a drift canary,
    reported next to the results and never used to scale them."""
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i % 7
    return (time.perf_counter() - started) * 1000.0


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class _Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=READ_LIMIT
        )
        return cls(reader, writer)

    async def ask(self, line: bytes) -> tuple:
        """Send one request line; return (reply or None, seconds)."""
        started = time.perf_counter()
        self.writer.write(line)
        await self.writer.drain()
        try:
            raw = await asyncio.wait_for(self.reader.readline(), CLIENT_TIMEOUT_S)
        except asyncio.TimeoutError:
            return None, time.perf_counter() - started
        return json.loads(raw), time.perf_counter() - started

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


def _line(request: Request, request_id: str) -> bytes:
    return (json.dumps({**request.body, "id": request_id}) + "\n").encode()


async def _warm_up(conn: _Connection, warmup: list, expected: dict) -> None:
    for n, request in enumerate(warmup):
        reply, _ = await conn.ask(_line(request, f"warm{n}"))
        problem = (
            "timed out" if reply is None
            else check_reply(reply, expected.get(request.shape))
        )
        if problem is not None:
            raise RuntimeError(f"warm-up {request.shape}: {problem}")


async def _send(
    conn: _Connection, request: Request, n: int, expected: dict, rep: RepResult
) -> bool:
    """Send one measured request and record it; False once the
    connection is out of step with its replies."""
    reply, seconds = await conn.ask(_line(request, str(n)))
    rep.attempted += 1
    rep.latencies_s.append(seconds)
    problem = (
        f"no reply within {CLIENT_TIMEOUT_S:.0f} s" if reply is None
        else check_reply(reply, expected.get(request.shape))
    )
    if problem is not None:
        rep.failed += 1
        rep.failures.append(f"{request.shape}: {problem}")
        return reply is not None
    rep.applications += reply.get("applications", 0)
    rep.roundtrip_s += reply.get("seconds", 0.0)
    return True


def _whole_rounds(
    rounds: Iterator[list], seconds: float, started: float, first_done: Callable[[], None]
) -> Iterator[list]:
    """*rounds* up to the boundary nearest to *seconds* after *started*,
    judged by the mean round so far; always at least one round.  Calls
    *first_done* once the first round has been answered."""
    for done, batch in enumerate(rounds):
        if done == 1:
            first_done()
        elapsed = time.perf_counter() - started
        if done and elapsed + elapsed / done / 2 >= seconds:
            return
        yield batch


async def _measure(
    conn: _Connection,
    rounds: Iterator[list],
    expected: dict,
    seconds: Optional[float],
    requests: Optional[int],
    rep: RepResult,
    pids: list,
) -> None:
    """Send whole rounds for about *seconds*, or just the first
    *requests* requests when that is given instead.  Memory is read
    after the first round: a fixed amount of work, so a program that
    gets through more rounds does not read as a bigger one."""

    def read_memory() -> None:
        rep.peak_rss_mb = max(peak_rss_mb(pid) for pid in pids)

    started = time.perf_counter()
    if requests is None:
        batches = _whole_rounds(rounds, seconds, started, read_memory)
    else:
        batches = [itertools.islice(itertools.chain.from_iterable(rounds), requests)]
    try:
        # Batches are drawn lazily, so each boundary is judged when the
        # round before it has been answered.
        for n, request in enumerate(itertools.chain.from_iterable(batches)):
            if not await _send(conn, request, n, expected, rep):
                return
    finally:
        rep.wall_s = time.perf_counter() - started
        if not rep.peak_rss_mb:
            read_memory()


def _stats_counters(stats: dict) -> dict:
    metrics = stats.get("metrics", {})

    def counter(name: str) -> float:
        return metrics.get(name, {}).get("value", 0)

    return {
        "jobs": stats["jobs"],
        "warm_hits": stats["warm_hits"],
        "ancestor_hits": stats["ancestor_hits"],
        "planner_verdicts": counter("planner.verdicts"),
        "planner_cache_hits": counter("planner.cache_hits"),
        "plan_lookups": counter("query.plan_lookups"),
        "plan_cache_hits": counter("query.plan_cache_hits"),
    }


def run_rep(
    root: Path,
    workdir: Path,
    workload: str,
    seed: int,
    expected: dict,
    seconds: Optional[float] = None,
    requests: Optional[int] = None,
    traced: bool = False,
) -> RepResult:
    """One repetition: fresh server, warm-up, then the measured window
    of *seconds* (or *requests* in total)."""
    spec = WORKLOADS[workload]
    rep = RepResult(setup_s=0.0, calib_ms=calibrate())
    server = Server(root, workdir, traced)
    try:
        started = time.perf_counter()
        port = server.start()
        rep.setup_s = asyncio.run(
            _setup_and_measure(server, port, spec, seed, expected, seconds, requests, rep)
        ) - started
    finally:
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return rep


async def _setup_and_measure(
    server: Server,
    port: int,
    spec,
    seed: int,
    expected: dict,
    seconds: Optional[float],
    requests: Optional[int],
    rep: RepResult,
) -> float:
    """Returns the perf_counter reading at which set-up finished."""
    conn = await _Connection.open(port)
    try:
        await _warm_up(conn, spec.warmup(), expected)
        workers = pool_workers(server.process.pid)
        if len(workers) != WORKERS:
            raise RuntimeError(f"expected {WORKERS} pool workers, found {len(workers)}")
        ready = time.perf_counter()

        before = await _probe(conn, server, workers)
        await _measure(
            conn, spec.rounds(seed), expected, seconds, requests, rep,
            [server.process.pid, *workers],
        )
        after = await _probe(conn, server, workers)

        rep.stats_delta = {k: after["stats"][k] - before["stats"][k] for k in after["stats"]}
        rep.server_cpu_s = after["server_cpu"] - before["server_cpu"]
        rep.worker_cpu_s = after["worker_cpu"] - before["worker_cpu"]
        rep.store_bytes = after["store_bytes"] - before["store_bytes"]
        if server.traced:
            rep.spans = tracing.diff_totals(after["spans"], before["spans"])
        return ready
    finally:
        await conn.close()


async def _probe(conn: _Connection, server: Server, workers: list) -> dict:
    stats, _ = await conn.ask(b'{"op": "stats", "id": "stats"}\n')
    if stats is None or not stats.get("ok"):
        raise RuntimeError(f"stats op failed: {stats!r}")
    return {
        "stats": _stats_counters(stats),
        "server_cpu": cpu_seconds(server.process.pid),
        "worker_cpu": sum(cpu_seconds(pid) for pid in workers),
        "store_bytes": _tree_size(server.snapshot_dir),
        "spans": tracing.read_totals(str(server.spans_dir)) if server.traced else {},
    }
