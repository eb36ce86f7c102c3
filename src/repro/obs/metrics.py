"""A dependency-free metrics registry.

Four instrument kinds cover everything the chase telemetry needs:

========== =====================================================
counter    monotone count (events, retractions, backtracks)
gauge      last-written value (current atom count, budget left)
timer      count + total/min/max of durations, in seconds
histogram  count/total/min/max plus geometric bucket counts
========== =====================================================

Instruments are handed out by a :class:`MetricsRegistry`, created on
first use.  There is no process-global registry: whoever wants metrics
makes one and hands it to a :class:`~repro.obs.MetricsObserver` (the
CLI ``--metrics`` flag, each service job, the
:class:`~repro.service.executor.JobExecutor`); code with no registry
records nothing.

Metric names are dotted paths (``chase.steps``, ``hom.backtracks``);
:meth:`MetricsRegistry.snapshot` returns plain dicts ready for
``json.dumps`` or a :class:`repro.util.reporting.Table`.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, snap: dict) -> None:
        """Fold another counter's snapshot into this one (sum)."""
        self.value += snap["value"]

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, snap: dict) -> None:
        """Fold another gauge's snapshot into this one (last write wins)."""
        self.value = snap["value"]

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Timer:
    """Accumulated durations in seconds.

    Use either :meth:`record` with a measured duration or the instance as
    a context manager::

        with registry.timer("core.retraction"):
            core_retraction(atoms)
    """

    __slots__ = ("name", "count", "total", "min", "max", "_started")

    kind = "timer"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self._started: Optional[float] = None

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._started is not None:
            self.record(time.perf_counter() - self._started)
            self._started = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, snap: dict) -> None:
        """Fold another timer's snapshot into this one (count/total sum,
        min/max widened).  Empty snapshots merge as no-ops."""
        if not snap["count"]:
            return
        self.count += snap["count"]
        self.total += snap["total"]
        if snap["min"] < self.min:
            self.min = snap["min"]
        if snap["max"] > self.max:
            self.max = snap["max"]

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return f"Timer({self.name}: {self.count} x, {self.total:.6f}s)"


#: Default histogram bucket upper bounds: 1-2-5 decades, wide enough for
#: both "atoms retracted per step" and "backtracks per search".
DEFAULT_BOUNDS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 10000)


class Histogram:
    """Count/total/min/max plus cumulative-style bucket counts.

    ``buckets[i]`` counts observations ``<= bounds[i]``; one overflow
    bucket counts the rest.  Bounds are fixed at creation.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS):
        self.name = name
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile from the bucket counts.

        Reports the upper bound of the bucket holding the nearest-rank
        observation — the resolution the bounds give us, which is the
        point: bucket counts *merge across processes*, so the parent can
        report true cross-worker percentiles instead of means.  The
        overflow bucket reports the observed max.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index, bucket in enumerate(self.buckets[:-1]):
            cumulative += bucket
            if cumulative >= rank:
                return float(self.bounds[index])
        return float(self.max)

    def merge(self, snap: dict) -> None:
        """Fold another histogram's snapshot into this one (bucketwise
        sum).  The bucket bounds must agree; empty snapshots merge as
        no-ops."""
        if not snap["count"]:
            return
        if tuple(snap["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge snapshot with "
                f"bounds {snap['bounds']} into bounds {list(self.bounds)}"
            )
        self.count += snap["count"]
        self.total += snap["total"]
        if snap["min"] < self.min:
            self.min = snap["min"]
        if snap["max"] > self.max:
            self.max = snap["max"]
        for index, bucket in enumerate(snap["buckets"]):
            self.buckets[index] += bucket

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0,
            "max": self.max if self.count else 0,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}: {self.count} x, mean={self.mean:.3f})"


class MetricsRegistry:
    """A named collection of instruments."""

    def __init__(self):
        self._instruments: dict[str, object] = {}

    # -- instrument accessors (create-on-first-use) --------------------

    def _get(self, name: str, factory, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name, *args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {factory.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS
    ) -> Histogram:
        return self._get(name, Histogram, bounds)

    # -- lifecycle -----------------------------------------------------

    def reset(self) -> None:
        """Drop all instruments (names and values)."""
        self._instruments.clear()

    # -- cross-process aggregation -------------------------------------

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` produced elsewhere into this registry.

        This is the parent half of the fork/spawn-safe worker protocol
        (:mod:`repro.service.executor`): each job records into a *fresh*
        registry (never a handle onto the parent's — under ``spawn``
        that handle would not exist, under ``fork`` it would be a dead
        copy the parent never sees) and ships ``registry.snapshot()``
        back with the job result; the parent merges it here.  Counters
        and timers/histograms accumulate, gauges take the incoming
        value, unknown kinds are skipped.
        """
        for name, payload in snapshot.items():
            kind = payload.get("kind")
            if kind == "counter":
                self.counter(name).merge(payload)
            elif kind == "gauge":
                self.gauge(name).merge(payload)
            elif kind == "timer":
                self.timer(name).merge(payload)
            elif kind == "histogram":
                self.histogram(name, tuple(payload["bounds"])).merge(payload)
            # unknown kinds carry no data worth keeping

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> dict[str, dict]:
        """All instruments as plain nested dicts, sorted by name."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

