"""End-to-end benchmark of ``repro serve``: four closed-loop workloads.

Run from the repository root (no install needed; the benchmark puts
``src`` on the server's path itself)::

    python3 benchmarks/e2e/run.py --seed 1                 # all workloads
    python3 benchmarks/e2e/run.py --workload deep-cold --seed 3 --seconds 24
    python3 benchmarks/e2e/run.py --traced                 # per-layer metrics
    python3 benchmarks/e2e/run.py --repeat-check           # run twice, compare
    python3 benchmarks/e2e/run.py --quick                  # 1 rep x 20 requests
    python3 benchmarks/e2e/run.py --regen-expected         # rewrite expected.json

Each workload gets about ``--seconds`` of measured time, split over
three repetitions that are interleaved round-robin across workloads;
each repetition launches a fresh ``repro serve --workers 1`` and times
whole rounds of the request stream.  With ``--trace 1`` (or
``--traced``) the time goes to one untraced and one traced repetition
instead, and the per-layer metrics are reported.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every answer is
checked against ``expected.json``; any failure makes the exit code 1.
See README.md for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

import driver
import report
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
EXPECTED_FILE = HERE / "expected.json"
REPS = 3
QUICK_REQUESTS = 20
#: Largest attribution gap tolerated in a traced run, as a share of the
#: mean client latency.
ATTRIBUTION_TOLERANCE = 0.02


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro serve (see README.md)."
    )
    parser.add_argument(
        "--workload",
        choices=sorted(workloads.WORKLOADS),
        help="run one workload (default: all four, interleaved)",
    )
    parser.add_argument("--seed", type=int, default=1, help="request-stream seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=24.0,
        help="measured seconds per workload, split over its repetitions",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: report per-layer metrics from a traced repetition",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1, help="same as --trace 1"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"one repetition of {QUICK_REQUESTS} requests per workload (smoke)",
    )
    parser.add_argument(
        "--repeat-check",
        action="store_true",
        help="run everything twice; fail if any metric moves by more than its bound",
    )
    parser.add_argument(
        "--regen-expected",
        action="store_true",
        help="recompute expected.json with the naive reference engine",
    )
    args = parser.parse_args(argv)
    if args.repeat_check and args.trace:
        parser.error("--repeat-check compares end-to-end metrics; drop --trace")
    return args


def run_benchmark(names: list, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Run the repetitions; returns {workload: [RepResult, ...]}."""
    expected = json.loads(EXPECTED_FILE.read_text())["answers"]
    passes = [False, True] if trace else [False] * (1 if quick else REPS)
    requests = QUICK_REQUESTS if quick else None
    workroot = ROOT / ".bench_work" / f"e2e-{os.getpid()}"
    reps: dict = {name: [] for name in names}
    try:
        for index, traced in enumerate(passes):
            for name in names:
                # Each repetition aims at its share of --seconds counted
                # over the workload's repetitions so far, so the whole
                # rounds still add up to about --seconds.
                measured = sum(rep.wall_s for rep in reps[name])
                target = None if quick else seconds * (index + 1) / len(passes) - measured
                rep = driver.run_rep(
                    ROOT,
                    workroot / f"{name}-{index}",
                    name,
                    seed,
                    expected,
                    seconds=target,
                    requests=requests,
                    traced=traced,
                )
                reps[name].append(rep)
                print(
                    f"rep {index + 1}/{len(passes)} {name}{' traced' if traced else ''}: "
                    f"setup {rep.setup_s:.2f} s, {rep.attempted} requests in "
                    f"{rep.wall_s:.2f} s, {rep.failed} failed, "
                    f"env.calib_ms {rep.calib_ms:.1f}",
                    flush=True,
                )
                for failure in rep.failures[:5]:
                    print(f"  FAILED {failure}", flush=True)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    return reps


def summarize(reps: dict, trace: bool) -> tuple:
    """(metrics per workload, attribution problems) for printing."""
    metrics = {}
    problems = []
    for name, runs in reps.items():
        if not trace:
            metrics[name] = report.end_to_end(runs)
            continue
        untraced, traced = runs
        layers = report.per_layer(untraced, traced)
        attributed, latency = report.attribution(layers, traced)
        gap = abs(attributed - latency) / latency
        print(
            f"{name}: layers + ipc + outside = {attributed:.3f} ms/req, "
            f"mean latency {latency:.3f} ms/req ({gap:.2%} apart)"
        )
        if gap > ATTRIBUTION_TOLERANCE:
            problems.append(f"{name}: attribution gap {gap:.2%}")
        # Both remainders are differences of totals read around the same
        # window; a negative one means the windows do not line up.
        for remainder in ("executor.ipc_ms_per_req", "server.outside_executor_ms_per_req"):
            if layers[remainder]["value"] < 0:
                problems.append(f"{name}: negative {remainder}")
        metrics[name] = layers
    return metrics, problems


def print_table(metrics: dict, reps: dict, trace: bool) -> None:
    for name, values in metrics.items():
        print(f"\n{name}")
        for metric, entry in values.items():
            print(f"  {metric:48s} {entry['value']:14.4f} {entry['unit']}")
        if not trace:
            count = sum(len(rep.latencies_s) for rep in reps[name])
            print(
                f"  ({count} latency samples pooled, "
                f"{report.beyond(count, 90)} beyond p90)"
            )


def result_line(metrics: dict, reps: dict, trace: bool, ok: bool) -> dict:
    names = [m[0] for m in (report.PER_LAYER if trace else report.END_TO_END)]
    flat = {}
    for workload, values in metrics.items():
        for name in names:
            key = name if len(metrics) == 1 else f"{workload}:{name}"
            flat[key] = values[name]
    all_reps = [rep for runs in reps.values() for rep in runs]
    failed = sum(rep.failed for rep in all_reps)
    return {
        "correct": ok and failed == 0,
        "attempted": sum(rep.attempted for rep in all_reps),
        "failed": failed,
        "metrics": flat,
    }


def repeat_check(first: dict, second: dict) -> bool:
    """Print each metric x workload's relative change against its bound."""
    within_all = True
    print(f"\n{'workload':14s} {'metric':16s} {'first':>12s} {'second':>12s} {'change':>8s} bound")
    for workload in first:
        for name, _, _, bound in report.END_TO_END + (report.FAIL_RATIO,):
            a = first[workload][name]["value"]
            b = second[workload][name]["value"]
            change = report.relative_change(a, b)
            within = change <= bound
            within_all &= within
            print(
                f"{workload:14s} {name:16s} {a:12.4f} {b:12.4f} {change:8.2%} "
                f"{bound:.0%}{'' if within else '  EXCEEDED'}"
            )
    return within_all


def regen_expected() -> int:
    """Recompute expected.json: answers known by construction are
    written as such, the rest come from the naive reference engine."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.service.jobs import JobRequest, execute_job

    answers = {}
    reference = []
    for shape in workloads.all_shapes():
        answer = workloads.constructed_answer(shape)
        if answer is None:
            body = workloads.reference_request(shape)
            result = execute_job(JobRequest.from_obj({**body, "use_index": False}))
            if body["op"] == "chase":
                answer = {
                    "atoms": result.atoms,
                    "total_applications": result.total_applications,
                }
            else:
                answer = {"entailed": result.entailed}
            if not result.ok or answer.get("entailed", False) is None:
                print(f"{shape}: reference run undecided ({result.error})", file=sys.stderr)
                return 1
            reference.append(shape)
            print(f"{shape}: {answer}", flush=True)
        answers[shape] = answer
    payload = {
        "about": "Expected answers per request shape. Shapes listed under "
        "'reference' were answered by the naive engine (use_index=false, "
        "same budgets, planner as served); the rest are known by "
        "construction of their KBs. Regenerate with run.py --regen-expected.",
        "reference": reference,
        "answers": answers,
    }
    EXPECTED_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(answers)} answers to {EXPECTED_FILE}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.regen_expected:
        return regen_expected()
    leftovers = driver.marked_processes(str(ROOT))
    if leftovers:
        print("refusing to start: processes from an earlier benchmark run are alive:",
              file=sys.stderr)
        for pid, cmdline in leftovers:
            print(f"  {pid} {cmdline}", file=sys.stderr)
        return 3

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    mode = "traced" if args.trace else f"{1 if args.quick else REPS} reps"
    print(
        f"# repro serve e2e: seed {args.seed}, {mode}, "
        f"{'%d requests' % QUICK_REQUESTS if args.quick else '%.1f s' % args.seconds} "
        f"per workload, 1 connection, {driver.WORKERS} pool worker",
        flush=True,
    )
    # A terminated benchmark still unwinds, so its server group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    reps = run_benchmark(names, args.seed, args.seconds, trace, args.quick)
    metrics, problems = summarize(reps, trace)
    if args.repeat_check:
        second = run_benchmark(names, args.seed, args.seconds, trace, args.quick)
        again, _ = summarize(second, trace)
        stable = repeat_check(metrics, again)
        both = {name: reps[name] + second[name] for name in names}
        line = result_line(again, both, trace, stable)
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    print_table(metrics, reps, trace)
    for problem in problems:
        print(f"ATTRIBUTION {problem}")
    line = result_line(metrics, reps, trace, not problems)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
