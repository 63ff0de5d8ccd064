"""Campaign benchmark: end-to-end throughput plus a traced per-layer table.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-inprocess --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

One run starts a probe process (bytecode warm-up, import check), then one
fresh process per timed repetition of the workload's fixed corpus, then
-- with ``--trace 1`` -- one traced repetition, and finally the untimed
clean-engine campaign seeded with ``--seed``.  Every repetition's findings
must hash to the digest recorded in ``golden.json``; the clean-engine
campaign must report nothing.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  ``--record`` re-records ``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import percentile  # noqa: E402
from workloads import (  # noqa: E402
    CLEAN_SECONDS,
    CORPUS_SEED,
    REFERENCE_SAMPLE_S,
    REPETITION_SECONDS,
    WORKLOADS,
)

GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: scratch space for store files and span dumps, inside the checkout.
WORKDIR = os.path.join(ROOT, ".perfbench")
#: a run must finish within this many seconds of starting.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "rounds_per_s": "1/s",
    "queries_per_s": "1/s",
    "round_s.p50": "s",
    "round_s.p90": "s",
    "bugs_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    """A worker process failed or printed no report."""


def run_worker(workload: str, mode: str, seed: int, deadline: float, tag: str,
               rounds: int | None = None, duration: float | None = None) -> dict:
    """Start one fresh worker process and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise WorkerError(f"{mode} worker skipped: run budget exhausted")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--workdir", WORKDIR, "--tag", tag,
    ]
    if rounds is not None:
        command += ["--rounds", str(rounds)]
    if duration is not None:
        command += ["--duration", str(duration)]
    command += ["--t0", repr(time.monotonic())]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerError(f"{mode} worker timed out after {remaining:.0f}s") from error
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = completed.stderr.strip().splitlines()[-5:]
        raise WorkerError(f"{mode} worker exited {completed.returncode}: " + " | ".join(tail))
    return json.loads(lines[-1])


def load_golden() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(reports: list[dict]) -> dict:
    """Medians over repetitions of the speed-normalised times.

    Round percentiles are taken over the per-round medians.
    """
    per_round = [
        statistics.median(times) for times in zip(*(r["round_norm_s"] for r in reports))
    ]
    return {
        "rounds_per_s": statistics.median(r["rounds"] / sum(r["round_norm_s"]) for r in reports),
        "queries_per_s": statistics.median(
            r["queries"] / sum(r["round_norm_s"]) for r in reports
        ),
        "round_s.p50": statistics.median(per_round),
        "round_s.p90": percentile(per_round, 0.9),
        "bugs_per_cpu_s": statistics.median(r["unique_bugs"] / r["cpu_norm_s"] for r in reports),
        "setup_s": statistics.median(r["setup_norm_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def machine_speed(reports: list[dict]) -> tuple[float, float]:
    """(unscaled rounds/s, reference sample time / median sample time)."""
    raw = statistics.median(r["rounds"] / sum(r["round_s"]) for r in reports)
    samples = [sample for r in reports for sample in r["speed_samples"]]
    return raw, REFERENCE_SAMPLE_S / statistics.median(samples)


def check_report(report: dict, golden: dict) -> list[str]:
    """Why a timed or traced repetition is wrong (empty when it is right)."""
    problems = []
    if report["rounds"] != golden["rounds"]:
        problems.append(f"ran {report['rounds']} rounds, corpus has {golden['rounds']}")
    if report["digest"] != golden["digest"]:
        problems.append("finding digest differs from golden.json")
    if report["unattributed_bugs"]:
        problems.append(f"bugs outside the injected profile: {report['unattributed_bugs']}")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Run one workload; print its table; return (result line, exit code)."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    spec = WORKLOADS[workload]
    golden = load_golden().get(workload)
    if not golden or (golden["corpus_seed"], golden["rounds"]) != (CORPUS_SEED, spec["rounds"]):
        print(f"{workload}: no golden digest for this corpus; run with --record", file=sys.stderr)
        return {}, 2
    os.makedirs(WORKDIR, exist_ok=True)
    tag = f"{workload}-seed{seed}"

    # Warm-up and import check: a broken tree fails here, with no result.
    try:
        run_worker(workload, "probe", CORPUS_SEED, deadline, f"{tag}-probe")
    except WorkerError as error:
        print(f"{workload}: probe failed: {error}", file=sys.stderr)
        return {}, 2

    repetitions = max(1, round(seconds / REPETITION_SECONDS))
    attempted = failed = 0
    problems: list[str] = []
    timed: list[dict] = []
    for index in range(repetitions):
        attempted += golden["queries"]
        try:
            report = run_worker(
                workload, "timed", CORPUS_SEED, deadline, f"{tag}-rep{index}",
                rounds=spec["rounds"],
            )
        except WorkerError as error:
            problems.append(str(error))
            failed += golden["queries"]
            continue
        wrong = check_report(report, golden)
        problems += wrong
        failed += golden["queries"] if wrong else report["errors_ignored"]
        timed.append(report)

    traced = None
    if trace:
        attempted += golden["queries"]
        try:
            traced = run_worker(
                workload, "traced", CORPUS_SEED, deadline, f"{tag}-traced",
                rounds=spec["rounds"],
            )
        except WorkerError as error:
            problems.append(str(error))
            failed += golden["queries"]
        else:
            wrong = check_report(traced, golden)
            problems += [f"traced: {problem}" for problem in wrong]
            failed += golden["queries"] if wrong else traced["errors_ignored"]

    try:
        clean = run_worker(
            workload, "clean", seed, deadline, f"{tag}-clean", duration=CLEAN_SECONDS
        )
    except WorkerError as error:
        problems.append(f"clean engine: {error}")
    else:
        attempted += clean["queries"]
        reported = clean["discrepancies"] + clean["oracle_findings"] + clean["crashes"]
        if reported:
            problems.append(f"clean engine reported {reported} findings (seed {seed})")
            failed += clean["queries"]
        else:
            failed += clean["errors_ignored"]

    if not timed or (trace and traced is None):
        for problem in problems:
            print(f"{workload}: {problem}", file=sys.stderr)
        return {}, 1

    values = end_to_end(timed)
    print(f"== {workload}: {len(timed)} timed repetitions x {spec['rounds']} rounds "
          f"(corpus seed {CORPUS_SEED}), clean-engine seed {seed}, "
          f"{time.monotonic() - started:.1f}s")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {values[name]:>12.6g} {unit}")
    raw_rounds_per_s, speed = machine_speed(timed)
    print(f"  unscaled rounds_per_s {raw_rounds_per_s:.6g}; machine ran at {speed:.3f}x "
          "the reference speed (median speed sample)")
    print(f"  {'failed_ratio':<16} {failed / attempted:>12.6g} ({failed}/{attempted} queries)")
    print(f"  round percentiles over {spec['rounds']} per-round medians")
    if trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead"] = {
            "value": values["rounds_per_s"] * sum(traced["round_norm_s"]) / traced["rounds"],
            "unit": "ratio",
        }
        print(f"  per-layer (traced repetition; spans in {traced['trace_file']})")
        for name in sorted(metrics):
            print(f"    {name:<26} {metrics[name]['value']:>12.6g} {metrics[name]['unit']}")
        total = metrics["trace.self_s"]["value"]
        if total:
            share = metrics["relate.cold_s"]["value"] / total
            print(f"  relate.cold_s is {share:.1%} of {total:.3f}s self time")
        if traced["missing"]:
            print(f"  not wrapped (absent in this program): {', '.join(traced['missing'])}")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for problem in problems:
        print(f"  FAILED: {problem}")
    for name in os.listdir(WORKDIR):
        if name.startswith(tag) and ".sqlite" in name:
            os.remove(os.path.join(WORKDIR, name))
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return line, 0


def record() -> int:
    """Re-record golden.json: two fresh processes per workload must agree."""
    golden = {}
    deadline = time.monotonic() + 3600
    os.makedirs(WORKDIR, exist_ok=True)
    for workload, spec in WORKLOADS.items():
        reports = [
            run_worker(workload, "timed", CORPUS_SEED, deadline, f"record-{workload}-{index}",
                       rounds=spec["rounds"])
            for index in range(2)
        ]
        if reports[0]["digest"] != reports[1]["digest"]:
            print(f"{workload}: findings differ between two processes", file=sys.stderr)
            return 1
        golden[workload] = {
            "corpus_seed": CORPUS_SEED,
            "rounds": spec["rounds"],
            "queries": reports[0]["queries"],
            "unique_bugs": reports[0]["unique_bugs"],
            "digest": reports[0]["digest"],
        }
        print(f"{workload}: {json.dumps(golden[workload])}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record golden.json")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        line, code = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if code:
            status = code
            continue
        print(json.dumps(line))
    return status


if __name__ == "__main__":
    sys.exit(main())
