"""Perf-regression gate: diff benchmark result tables against baselines.

Compares the machine-readable tables archived by the perf benches
(``benchmarks/results/<name>.json``) against committed reference tables
(``benchmarks/baselines/<name>.json``) and **fails** — exit code 1 —
when any row's metric regressed beyond the threshold (default: 2x
slower).  Rows are matched on their non-float fields (workload,
variant, step budget, iteration count, ...), so a behavioural drift
that changes an application count also fails the gate, loudly — and
when the only difference from the baseline row is in the count fields
(``applications``, ``retractions``, ``atoms_out``), the failure is
reported as **semantic drift** rather than a missing row: the engine
changed *what it computes*, not how fast.

Usage (local or CI — stdlib only, no package install needed)::

    python benchmarks/compare_results.py                  # all baselines
    python benchmarks/compare_results.py perf_chase       # one table
    python benchmarks/compare_results.py --threshold 1.5  # stricter

Beyond the regression check, the gate has a **floor mode**
(``--min-speedup X``): instead of failing rows that got slower, it
fails rows that are not at least ``X`` times *faster* than the
baseline; and a **ceiling mode** (``--max-ratio Y``) that fails rows
whose ``current/baseline`` ratio exceeds ``Y`` — a cost ceiling for
same-machine comparisons where the new path must never cost more than
a fraction of the reference (``--max-ratio 0.8``: at most 80% of the
baseline's time).  The two compose: with both set, a row passes only
if it clears the floor *and* stays under the ceiling; either replaces
the default ``--threshold`` regression check.  The compiled CI gate
uses the floor to hold the compiled kernel to a same-machine speedup
over the naive engine::

    python benchmarks/compare_results.py perf_chase_compiled \
        --baselines benchmarks/results --baseline-name perf_chase_naive \
        --min-speedup 11.3 --ignore-fields engine \
        --only-rows 'staircase core'

``--baseline-name`` compares one results table against a differently
named reference table (above: two tables freshly measured in the same
job, one per engine); ``--ignore-fields`` drops the listed row fields
from row identity — here ``engine``, which otherwise (by design) keeps
cross-engine rows from ever matching; ``--only-rows`` restricts the
gate to rows whose label contains one of the given substrings (the
headline deep-search workloads — the tiny rows sit at the timer noise
floor and the restricted rows mostly time instance copying, neither of
which a speedup floor should gate).  A substring that matches no row
of the table fails the table, so a misspelt row name cannot turn a gate
into a no-op.  Every integer count field still participates in
identity, so the floor mode *also* enforces semantic agreement: a
compiled row whose application count drifted from the naive row fails
as semantic drift, not as a timing miss.

Regenerating a table after an intentional change::

    PYTHONPATH=src REPRO_NAIVE=1 python -m pytest \
        "benchmarks/bench_perf_chase.py::bench_perf_chase_table" -q
    cp benchmarks/results/perf_chase.json benchmarks/baselines/

(The committed ``perf_chase``/``perf_cores``/``perf_homomorphism``
baselines are naive-path timings — ``REPRO_NAIVE=1`` — so the default
gate also documents the full engine's speedup: the printed ratios are
the fraction of the naive time each row now takes.  The committed
``*_compiled`` baselines are per-engine tables produced with
``REPRO_ENGINE=compiled``.)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
DEFAULT_BASELINES = HERE / "baselines"
DEFAULT_RESULTS = HERE / "results"

#: Row-identity fields that record the run's *behaviour* (what the
#: engine computed) rather than which workload was measured.  A current
#: row that matches a baseline row everywhere except here is the same
#: measurement of a semantically different run.
COUNT_FIELDS = frozenset({"applications", "retractions", "atoms_out"})


def load_table(path: pathlib.Path) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    for field in ("headers", "rows"):
        if field not in payload:
            raise SystemExit(f"{path}: not a results table (missing {field!r})")
    return payload


def row_key(row: dict, metric: str, ignore: frozenset = frozenset()) -> tuple:
    """The identity of a row: every non-float field except the metric
    and the explicitly *ignore*-d fields.  Floats are measurements;
    everything else (names, variants, step budgets, iteration counts,
    the engine path) pins down *what* was measured."""
    return tuple(
        (field, value)
        for field, value in row.items()
        if field != metric and field not in ignore and not isinstance(value, float)
    )


def _without_counts(key: tuple) -> tuple:
    return tuple((field, value) for field, value in key if field not in COUNT_FIELDS)


def find_count_drift(key: tuple, current_keys) -> dict | None:
    """If some current row matches *key* on every identity field except
    the count fields, return ``{field: (baseline, current)}`` for the
    fields that moved — the signature of semantic drift."""
    loose = _without_counts(key)
    base_fields = dict(key)
    for candidate in current_keys:
        if candidate == key or _without_counts(candidate) != loose:
            continue
        cand_fields = dict(candidate)
        if set(cand_fields) != set(base_fields):
            continue
        return {
            field: (base_fields[field], cand_fields[field])
            for field in sorted(COUNT_FIELDS & set(base_fields))
            if base_fields[field] != cand_fields[field]
        }
    return None


def compare_table(
    name: str,
    baseline: dict,
    current: dict,
    metric: str,
    threshold: float,
    min_speedup: float | None = None,
    max_ratio: float | None = None,
    ignore: frozenset = frozenset(),
):
    """Yield (key, base_value, cur_value, ratio, ok, drift) per baseline
    row; a row missing from the current table yields cur_value=None,
    ok=False, and — when a current row differs only in count fields —
    drift maps each moved count field to its (baseline, current) pair.

    ``ratio`` is always current/baseline.  In the default regression
    mode a row is ok iff ``ratio <= threshold``.  With *min_speedup*
    and/or *max_ratio* set the threshold check is replaced: the row is
    ok iff ``baseline/current >= min_speedup`` (when set — the current
    run at least that many times faster) and ``ratio <= max_ratio``
    (when set — the current run costs at most that fraction of the
    baseline)."""
    current_rows = {row_key(row, metric, ignore): row for row in current["rows"]}
    for base_row in baseline["rows"]:
        key = row_key(base_row, metric, ignore)
        base_value = base_row.get(metric)
        if not isinstance(base_value, (int, float)):
            raise SystemExit(f"{name}: baseline row {key} has no numeric {metric!r}")
        cur_row = current_rows.get(key)
        if cur_row is None:
            drift = find_count_drift(key, current_rows)
            yield key, base_value, None, None, False, drift
            continue
        cur_value = cur_row.get(metric)
        if not isinstance(cur_value, (int, float)):
            yield key, base_value, None, None, False, None
            continue
        ratio = cur_value / max(base_value, 1e-9)
        if min_speedup is not None or max_ratio is not None:
            ok = True
            if min_speedup is not None:
                ok = ok and base_value / max(cur_value, 1e-9) >= min_speedup
            if max_ratio is not None:
                ok = ok and ratio <= max_ratio
        else:
            ok = ratio <= threshold
        yield key, base_value, cur_value, ratio, ok, None


def describe(key: tuple) -> str:
    return " ".join(str(value) for _, value in key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when benchmark rows regressed beyond a threshold"
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="table names (default: every *.json in the baselines dir)",
    )
    parser.add_argument("--baselines", type=pathlib.Path, default=DEFAULT_BASELINES)
    parser.add_argument("--results", type=pathlib.Path, default=DEFAULT_RESULTS)
    parser.add_argument(
        "--metric", default="seconds", help="row field to compare (default: seconds)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="fail when current/baseline exceeds this (default: 2.0)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="floor mode: fail when baseline/current is below X — i.e. "
        "demand the current run be at least X times faster per row "
        "(replaces the --threshold regression check)",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=None,
        metavar="Y",
        help="ceiling mode: fail when current/baseline exceeds Y — a "
        "cost ceiling for same-machine comparisons (e.g. 0.8 demands "
        "the current run take at most 80%% of the baseline's time; "
        "composes with --min-speedup, replaces --threshold)",
    )
    parser.add_argument(
        "--baseline-name",
        default=None,
        metavar="NAME",
        help="compare against <baselines>/NAME.json instead of the "
        "table's own name (requires exactly one table name; pair with "
        "--baselines pointing at a results dir for same-machine "
        "cross-engine comparisons)",
    )
    parser.add_argument(
        "--ignore-fields",
        default="",
        metavar="F1,F2",
        help="comma-separated row fields to drop from row identity on "
        "both sides (e.g. 'engine' when comparing across engine paths)",
    )
    parser.add_argument(
        "--only-rows",
        default="",
        metavar="S1,S2",
        help="comma-separated substrings; only baseline rows whose "
        "label contains one of them are gated (e.g. 'staircase core,"
        "elevator core' to hold the speedup floor on the headline "
        "workloads without gating noise-floor rows)",
    )
    args = parser.parse_args(argv)
    ignore = frozenset(
        field.strip() for field in args.ignore_fields.split(",") if field.strip()
    )
    only_rows = tuple(
        part.strip() for part in args.only_rows.split(",") if part.strip()
    )

    names = args.names or sorted(
        path.stem for path in args.baselines.glob("*.json")
    )
    if not names:
        print(f"no baselines found under {args.baselines}", file=sys.stderr)
        return 1
    if args.baseline_name is not None and len(names) != 1:
        print(
            "--baseline-name requires exactly one table name",
            file=sys.stderr,
        )
        return 1

    failures = 0
    for name in names:
        baseline_path = args.baselines / f"{args.baseline_name or name}.json"
        results_path = args.results / f"{name}.json"
        if not baseline_path.exists():
            print(f"FAIL {name}: no baseline {baseline_path}", file=sys.stderr)
            failures += 1
            continue
        if not results_path.exists():
            print(
                f"FAIL {name}: no results {results_path} (run the bench first)",
                file=sys.stderr,
            )
            failures += 1
            continue
        baseline = load_table(baseline_path)
        current = load_table(results_path)
        if args.min_speedup is not None or args.max_ratio is not None:
            parts = []
            if args.min_speedup is not None:
                parts.append(f"min speedup: {args.min_speedup:g}x")
            if args.max_ratio is not None:
                parts.append(f"max ratio: {args.max_ratio:g}")
            mode = f"{', '.join(parts)} vs {args.baseline_name or name}"
        else:
            mode = f"threshold: {args.threshold:g}x"
        print(f"== {name} (metric: {args.metric}, {mode}) ==")
        unmatched = set(only_rows)
        for key, base_value, cur_value, ratio, ok, drift in compare_table(
            name,
            baseline,
            current,
            args.metric,
            args.threshold,
            min_speedup=args.min_speedup,
            max_ratio=args.max_ratio,
            ignore=ignore,
        ):
            label = describe(key)
            if only_rows:
                matching = {part for part in only_rows if part in label}
                if not matching:
                    continue
                unmatched -= matching
            if cur_value is None:
                if drift:
                    moved = ", ".join(
                        f"{field} {before} -> {after}"
                        for field, (before, after) in drift.items()
                    )
                    print(
                        f"  FAIL {label}: SEMANTIC DRIFT ({moved}) — the "
                        "engine changed what it computes, not how fast; "
                        "fix the behaviour or re-baseline deliberately"
                    )
                else:
                    print(f"  FAIL {label}: row missing from current results")
                failures += 1
            elif not ok:
                if args.min_speedup is not None or args.max_ratio is not None:
                    speedup = base_value / max(cur_value, 1e-9)
                    bounds = []
                    if args.min_speedup is not None:
                        bounds.append(f"floor {args.min_speedup:g}x")
                    if args.max_ratio is not None:
                        bounds.append(f"ceiling {args.max_ratio:g}")
                    print(
                        f"  FAIL {label}: {base_value:g} -> {cur_value:g} "
                        f"({speedup:.2f}x speedup, ratio {ratio:.2f}, "
                        f"{', '.join(bounds)})"
                    )
                else:
                    print(
                        f"  FAIL {label}: {base_value:g} -> {cur_value:g} "
                        f"({ratio:.2f}x, over {args.threshold}x)"
                    )
                failures += 1
            else:
                if args.min_speedup is not None or args.max_ratio is not None:
                    speedup = base_value / max(cur_value, 1e-9)
                    print(
                        f"  ok   {label}: {base_value:g} -> {cur_value:g} "
                        f"({speedup:.2f}x speedup)"
                    )
                else:
                    print(
                        f"  ok   {label}: {base_value:g} -> {cur_value:g} ({ratio:.2f}x)"
                    )
        for part in sorted(unmatched):
            print(f"  FAIL --only-rows {part!r} matches no row of {name}")
            failures += 1
    if failures:
        if args.min_speedup is not None or args.max_ratio is not None:
            print(
                f"{failures} row(s) outside the configured speedup bounds",
                file=sys.stderr,
            )
        else:
            print(
                f"{failures} regression(s) beyond {args.threshold:g}x",
                file=sys.stderr,
            )
        return 1
    print("perf gate clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
