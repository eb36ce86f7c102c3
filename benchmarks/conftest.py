"""Shared fixtures and reporting helpers for the benchmark harness.

Every experiment bench (``bench_fig*`` / ``bench_prop*`` / ``bench_thm*``)
regenerates one figure or proposition of the paper: it measures the
relevant computation with pytest-benchmark, prints the series/verdicts
the paper reports, asserts the expected *shape*, and archives the table
under ``benchmarks/results/`` (the source of EXPERIMENTS.md numbers).

Run with::

    pytest benchmarks/ --benchmark-only            # timings + assertions
    pytest benchmarks/ --benchmark-only -s         # + live tables

Every figure's series is archived twice: human-readable
(``results/<name>.txt``) and machine-readable (``results/<name>.json``,
one record per table row with raw numbers) — the JSON twins are the
BENCH trajectory future perf PRs diff against.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import tempfile
from contextlib import contextmanager, nullcontext

import pytest

from repro import core_chase, restricted_chase
from repro.kbs.elevator import elevator_kb
from repro.kbs.staircase import staircase_kb
from repro.logic import indexing
from repro.util import Table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Version of the results-JSON layout (bump when the shape changes).
RESULTS_SCHEMA = 1

#: The engine paths a bench can measure: ``compiled`` is the interned
#: join-plan kernel (the default), ``naive`` the from-scratch reference
#: (everything inside ``indexing.no_index()``).
ENGINES = ("naive", "compiled")


def current_engine() -> str:
    """The engine path this bench process measures.

    ``REPRO_ENGINE=naive|compiled`` selects explicitly (and
    suffixes the archived results files — see :func:`save_table` — so
    per-engine tables don't overwrite each other); the legacy
    ``REPRO_NAIVE=1`` is kept as an alias for ``naive``; default is the
    full engine, i.e. ``compiled``.
    """
    explicit = os.environ.get("REPRO_ENGINE")
    if explicit:
        if explicit not in ENGINES:
            raise SystemExit(
                f"REPRO_ENGINE={explicit!r}: expected one of {ENGINES}"
            )
        return explicit
    if os.environ.get("REPRO_NAIVE") == "1":
        return "naive"
    return "compiled"


def engine_scope(engine: str | None = None):
    """A context manager scoping the indexing switch to *engine*
    (default: :func:`current_engine`) for the duration of a bench."""
    engine = engine or current_engine()
    if engine == "naive":
        return indexing.no_index()
    return nullcontext()


@contextmanager
def quiesced_gc():
    """Disable the cyclic GC for the duration of a timed section (the
    ``timeit`` convention).  The perf tables compare engine paths that
    allocate at different rates; inside a large pytest process a GC pass
    costs proportional to the whole heap, so leaving collection enabled
    taxes the allocation-heavier engine with noise unrelated to its own
    work.  Collection runs once on exit to pay the debt outside the
    measurement."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write *text* to *path* atomically: a reader (the perf gate, a CI
    artifact upload, a concurrent bench session) never observes a
    truncated file — it sees the old content or the new, nothing in
    between.  The temp file lives in the target directory so
    ``os.replace`` stays a same-filesystem rename."""
    handle = tempfile.NamedTemporaryFile(
        "w",
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        # mkstemp-style temp files are 0600; give results the normal mode
        os.chmod(handle.name, 0o666 & ~_current_umask())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def save_table(name: str, table: Table, extra: str = "") -> None:
    """Print a table and archive it (.txt + .json) under
    benchmarks/results/ (atomically; see :func:`_atomic_write_text`).

    Every row of the JSON twin records the engine path it was measured
    on (``"engine": "naive" | "compiled"``) so a results
    table is self-describing — the perf gate matches rows on it, and a
    stale cross-engine comparison fails loudly instead of silently
    passing.  When ``REPRO_ENGINE`` selects an engine explicitly the
    archived files gain a ``_<engine>`` suffix (``perf_chase_compiled``)
    so one machine can produce all per-engine tables side by side.
    """
    engine = current_engine()
    if os.environ.get("REPRO_ENGINE"):
        name = f"{name}_{engine}"
    RESULTS_DIR.mkdir(exist_ok=True)
    rendered = table.render() + (extra + "\n" if extra else "")
    print("\n" + rendered)
    _atomic_write_text(RESULTS_DIR / f"{name}.txt", rendered)
    payload = table.to_json_payload(name=name, extra=extra)
    payload["schema"] = RESULTS_SCHEMA
    if "engine" not in payload["headers"]:
        payload["headers"].append("engine")
    for row in payload["rows"]:
        row.setdefault("engine", engine)
    _atomic_write_text(
        RESULTS_DIR / f"{name}.json", json.dumps(payload, indent=2) + "\n"
    )


@pytest.fixture(scope="session")
def staircase_core_run():
    """A 45-application core chase of K_h (shared by E3/E7/E8)."""
    return core_chase(staircase_kb(), max_steps=45)


@pytest.fixture(scope="session")
def staircase_restricted_run():
    """A 45-application restricted chase of K_h (E2)."""
    return restricted_chase(staircase_kb(), max_steps=45)


@pytest.fixture(scope="session")
def elevator_core_run():
    """A 35-application core chase of K_v (E6)."""
    return core_chase(elevator_kb(), max_steps=35)


@pytest.fixture(scope="session")
def elevator_restricted_run():
    """A 30-application restricted chase of K_v (E5)."""
    return restricted_chase(elevator_kb(), max_steps=30)
