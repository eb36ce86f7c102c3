"""Deterministic, seedable fault injection for the serving stack.

Worker loss is an *expected* event for this paper's workloads — the
core chase of the inflating elevator runs unboundedly and jobs die on
memory or timeout as a matter of course — so the fault-tolerance layer
(supervised executor, guaranteed-response server, snapshot hygiene)
needs a way to rehearse failures on demand.  This module provides it
without any test-only hooks in the production paths.

Fuses
-----
A fault is armed by writing a **fuse**: a tiny JSON file under a shared
*fault directory*, named ``<point>~<seq>.fault``.  Any process holding
the directory (the server, a pool worker, even one that was spawned
after arming) can :meth:`~FaultPlan.consume` a fuse for a given point;
the claim is an atomic :func:`os.rename`, so exactly one consumer fires
per fuse no matter how many workers race for it.  A consumed fuse is
renamed to ``.fired``, never deleted, so harnesses can count what
actually went off.

This file-based design is what makes injection work across the
``spawn`` process boundary: the executor only forwards the directory
path, and each worker discovers its armed faults on the next job.

Fault points
------------
=============================  ============================================
``worker.kill_mid_job``        the worker process dies mid-job
                               (``os._exit``; in the in-process
                               ``workers=0`` mode an :class:`OSError`
                               escapes the job body instead, exercising
                               the same executor-level failure path)
``worker.slow_job``            the worker sleeps ``payload["seconds"]``
                               before executing the job
``snapshot.corrupt_after_save``  the snapshot the job just saved is
                               overwritten with garbage (or truncated /
                               adversarially mangled, per
                               ``payload["mode"]``)
``server.drop_connection``     the server aborts the client connection
                               instead of writing the response
=============================  ============================================

Determinism
-----------
Arming is explicit and counted — ``plan.arm(point, times=2)`` fires
exactly twice — and :func:`schedule_fires` derives reproducible fire
indices from a seed for rate-style chaos runs, so a failing chaos run
can be replayed bit-for-bit from ``(seed, request script)``.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time
from typing import Optional, Union

__all__ = [
    "FAULT_POINTS",
    "FaultPlan",
    "corrupt_latest_snapshot",
    "fire_worker_faults",
    "schedule_fires",
]

PathLike = Union[str, "pathlib.Path"]

#: Every supported fault point (see the module docstring).
FAULT_POINTS = (
    "worker.kill_mid_job",
    "worker.slow_job",
    "snapshot.corrupt_after_save",
    "server.drop_connection",
)

_ARMED_SUFFIX = ".fault"
_FIRED_SUFFIX = ".fired"


class FaultPlan:
    """A directory of one-shot fault fuses shared across processes.

    The plan object itself is stateless — every query goes to the
    filesystem — so the same directory can be driven concurrently by a
    harness process, the server, and any number of pool workers.
    """

    def __init__(self, root: PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- arming --------------------------------------------------------

    def arm(
        self, point: str, times: int = 1, payload: Optional[dict] = None
    ) -> list[pathlib.Path]:
        """Write *times* fuses for *point*; each fires exactly once.

        *payload* rides along as the fuse's JSON body and is returned by
        the :meth:`consume` that claims it (e.g. ``{"seconds": 0.2}``
        for ``worker.slow_job``)."""
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        if times < 1:
            raise ValueError("times must be >= 1")
        body = json.dumps(payload or {})
        existing = [
            self._seq_of(path) for path in self.root.glob(f"{point}~*")
        ]
        start = max(existing, default=-1) + 1
        fuses = []
        for offset in range(times):
            path = self.root / f"{point}~{start + offset:06d}{_ARMED_SUFFIX}"
            path.write_text(body)
            fuses.append(path)
        return fuses

    # -- consuming -----------------------------------------------------

    def consume(self, point: str) -> Optional[dict]:
        """Atomically claim one armed fuse for *point*.

        Returns the fuse's payload dict, or None when nothing is armed.
        Exactly one racing consumer wins each fuse (rename is atomic);
        losers simply move on to the next fuse or return None."""
        for path in sorted(self.root.glob(f"{point}~*{_ARMED_SUFFIX}")):
            claimed = path.with_suffix(_FIRED_SUFFIX)
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # already claimed, or torn write
            try:
                os.rename(path, claimed)
            except OSError:
                continue  # another consumer won this fuse
            return payload if isinstance(payload, dict) else {}
        return None

    # -- introspection -------------------------------------------------

    def armed(self, point: str) -> int:
        """Fuses for *point* not yet consumed."""
        return len(list(self.root.glob(f"{point}~*{_ARMED_SUFFIX}")))

    def fired(self, point: str) -> int:
        """Fuses for *point* already consumed."""
        return len(list(self.root.glob(f"{point}~*{_FIRED_SUFFIX}")))

    @staticmethod
    def _seq_of(path: pathlib.Path) -> int:
        try:
            return int(path.name.rsplit("~", 1)[1].split(".", 1)[0])
        except (IndexError, ValueError):
            return -1


# ---------------------------------------------------------------------------
# injection helpers (called from the instrumented paths)
# ---------------------------------------------------------------------------


def fire_worker_faults(plan: Optional[FaultPlan], in_process: bool) -> None:
    """Fire any armed worker-side faults; called at the top of a job.

    ``worker.slow_job`` sleeps, then ``worker.kill_mid_job`` kills: in a
    real pool worker via ``os._exit`` (the pool observes a dead worker
    and breaks), in the in-process mode via an :class:`OSError` raised
    *outside* :func:`~repro.service.jobs.execute_job`'s catch — either
    way the failure surfaces at the executor level, not as a job-level
    ``ok=False`` result, which is exactly the path the supervisor owns.
    """
    if plan is None:
        return
    payload = plan.consume("worker.slow_job")
    if payload is not None:
        time.sleep(float(payload.get("seconds", 0.05)))
    payload = plan.consume("worker.kill_mid_job")
    if payload is not None:
        if in_process:
            raise OSError("fault injected: simulated worker death")
        os._exit(int(payload.get("exit_code", 13)))


def fire_snapshot_corruption(
    plan: Optional[FaultPlan], snapshot_root: Optional[PathLike]
) -> None:
    """Fire an armed ``snapshot.corrupt_after_save``; called after a job.

    Corrupts the most recently written snapshot in *snapshot_root* (the
    one the job just saved) in the mode the fuse's payload names."""
    if plan is None or snapshot_root is None:
        return
    payload = plan.consume("snapshot.corrupt_after_save")
    if payload is not None:
        corrupt_latest_snapshot(snapshot_root, mode=payload.get("mode", "garbage"))


def corrupt_latest_snapshot(root: PathLike, mode: str = "garbage") -> Optional[pathlib.Path]:
    """Mangle the newest snapshot record under *root*; returns its path.

    The store keeps its content-addressed records under
    ``root/objects/``; the newest mtime wins (the record the job just
    saved).

    Modes: ``garbage`` (non-JSON bytes), ``truncate`` (torn tail) and
    ``adversarial`` (valid JSON envelope whose state decodes into
    nonsense — the case that must be *classified* corrupt rather than
    crash the worker)."""
    root = pathlib.Path(root)
    candidates = list((root / "objects").glob("*.json"))
    candidates.sort(key=lambda path: path.stat().st_mtime)
    if not candidates:
        return None
    target = candidates[-1]
    if mode == "garbage":
        target.write_text("\x00not json at all\x00")
    elif mode == "truncate":
        text = target.read_text()
        target.write_text(text[: max(1, len(text) // 2)])
    elif mode == "adversarial":
        # A well-formed envelope that passes the schema check but whose
        # state is structurally hostile to the deserializer.
        try:
            payload = json.loads(target.read_text())
        except ValueError:
            payload = {}
        hostile = {
            "variant": {"nested": ["garbage"]},
            "core_every": None,
            "instance": [[["deep", ["er"]], {"kind": 99}]],
            "active": "not-a-list",
            "applied_keys": [0.5],
        }
        payload["state"] = hostile
        target.write_text(json.dumps(payload))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return target


def schedule_fires(seed: int, population: int, rate: float) -> list[int]:
    """Reproducible fire indices: which of *population* slots fault.

    A chaos harness arms one fuse per returned index; the same
    ``(seed, population, rate)`` always yields the same schedule, so a
    failing run replays exactly."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    rng = random.Random(seed)
    return [index for index in range(population) if rng.random() < rate]
