"""Per-scenario throughput and bug yield of the metamorphic scenario suite.

The scenario registry opened a new axis (query-shape diversity); this
benchmark records what each scenario *costs* and what it *pays*: rounds and
queries per second of wall-clock, discrepancies observed, and the unique
ground-truth bugs only that scenario detected within the budget.  Future
PRs tuning the registry (budget weighting, new scenarios, engine
optimisations) can diff these rows to see which scenarios pay for their
runtime.

Each scenario runs the *same* campaign — same dialect, seed, geometry and
round budget — restricted to that single scenario, plus one "all" row for
the default multi-scenario round.  Process-level caches are cleared between
configurations so a scenario cannot ride on relate/canonical work a
previous configuration paid for.

The two join-heavy scenarios (the slowest rows of the table) additionally
run with ``fast_path=False`` — the scalar reference path: row-at-a-time
execution, the same exact kernels without float prescreens, and
CREATE/INSERT SQL replay.  The report
shows the speedup and the benchmark asserts the optimised path's contract:
at least 8x rounds/s on ``topological-join`` and ``join-chain`` with a bug
yield and discrepancy stream identical to the reference.  The 8x gate
replaces the separate 2x fast-path, 4x batch-core and 0.9x reuse gates of
the three former speed switches; it is their product, so it is no looser.
The measured rows are also written to ``BENCH_scenario_throughput.json``
(reference = "before", optimised = "after").

Since the backend protocol landed, the full-registry campaign additionally
runs once per execution backend (``CampaignConfig.backend``), and the JSON
report carries a ``per_backend`` section recording rounds/s per adapter —
the throughput axis future engine adapters (DuckDB-spatial, PostGIS over
the wire) will join.  The benchmark asserts the adapters' semantic
contract: same campaign, same observable discrepancy stream, whatever
engine plans the queries (ground-truth attribution may differ — fault
hooks fire in the planner's evaluation order).
"""

from __future__ import annotations

import json
import os

from repro.core.campaign import CampaignConfig, TestingCampaign
from repro.scenarios import scenario_names

from benchmarks.conftest import RESULTS_DIRECTORY, clear_process_caches, write_report

ROUNDS = 3
BASE = dict(dialect="postgis", seed=2025, geometry_count=6, queries_per_round=14)

#: join-heavy scenarios measured on both paths (the optimised path's
#: declared ≥8x targets).
FAST_PATH_TARGETS = ("topological-join", "join-chain")

#: required rounds/s ratio of the optimised path over the reference.
MIN_SPEEDUP = 8

#: execution backends the full-registry campaign is measured on — the new
#: axis of the backend protocol: the same rounds, planned by a different
#: engine.  ``inprocess`` equals the "all" row; ``sqlite`` is the adapter.
BACKENDS = ("inprocess", "sqlite")


def _run_one(
    scenarios: tuple[str, ...] | None,
    fast_path: bool = True,
    backend: str = "inprocess",
) -> dict:
    clear_process_caches()
    config = CampaignConfig(**BASE, scenarios=scenarios, fast_path=fast_path, backend=backend)
    result = TestingCampaign(config).run(rounds=ROUNDS)
    return {
        "result": result,
        "rounds_per_second": result.rounds / result.total_seconds if result.total_seconds else 0.0,
        "queries_per_second": result.queries_run / result.total_seconds if result.total_seconds else 0.0,
    }


def _run_all() -> dict[str, dict]:
    outcomes = {name: _run_one((name,)) for name in scenario_names()}
    outcomes["all"] = _run_one(None)
    for name in FAST_PATH_TARGETS:
        outcomes[f"{name} [no fast path]"] = _run_one((name,), fast_path=False)
    for backend in BACKENDS[1:]:
        outcomes[f"all [backend={backend}]"] = _run_one(None, backend=backend)
    return outcomes


def _write_json(outcomes: dict[str, dict]) -> None:
    """Persist the before/after comparison next to the text report and at
    the repository root (``BENCH_scenario_throughput.json``)."""

    def row(outcome: dict) -> dict:
        result = outcome["result"]
        return {
            "wall_seconds": round(result.total_seconds, 3),
            "rounds_per_second": round(outcome["rounds_per_second"], 3),
            "queries_per_second": round(outcome["queries_per_second"], 3),
            "discrepancies": len(result.discrepancies),
            "unique_bugs": sorted(result.unique_bug_ids),
        }

    payload = {
        "config": {**BASE, "rounds": ROUNDS},
        "fast_path_off_before": {
            name: row(outcomes[f"{name} [no fast path]"]) for name in FAST_PATH_TARGETS
        },
        "fast_path_on_after": {name: row(outcomes[name]) for name in FAST_PATH_TARGETS},
        "all_scenarios_fast_path_on": {
            name: row(outcome)
            for name, outcome in outcomes.items()
            if "[no fast path]" not in name and "[backend=" not in name
        },
        # per-backend rounds/s of the full-registry campaign: the backend
        # protocol's throughput axis ("inprocess" is the "all" row rerun
        # under its canonical name so the rows diff cleanly over time).
        "per_backend": {
            "inprocess": row(outcomes["all"]),
            **{
                backend: row(outcomes[f"all [backend={backend}]"])
                for backend in BACKENDS[1:]
            },
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(os.path.join(RESULTS_DIRECTORY, "scenario_throughput.json"), "w") as handle:
        handle.write(text)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_scenario_throughput.json"), "w") as handle:
        handle.write(text)


def test_scenario_throughput(benchmark):
    outcomes = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    lines = [
        f"Per-scenario throughput and bug yield ({ROUNDS} rounds, seed {BASE['seed']}, "
        f"{BASE['dialect']}, {BASE['queries_per_round']} queries/round)"
    ]
    lines.append(
        f"{'scenario':>32} {'wall (s)':>9} {'rounds/s':>9} {'queries/s':>10} "
        f"{'disc.':>6} {'unique bugs':>12}"
    )
    for name, outcome in outcomes.items():
        result = outcome["result"]
        lines.append(
            f"{name:>32} {result.total_seconds:>9.3f} "
            f"{outcome['rounds_per_second']:>9.2f} {outcome['queries_per_second']:>10.2f} "
            f"{len(result.discrepancies):>6} {result.unique_bug_count:>12}"
        )
    for name in FAST_PATH_TARGETS:
        fast = outcomes[name]["rounds_per_second"]
        slow = outcomes[f"{name} [no fast path]"]["rounds_per_second"]
        speedup = fast / slow if slow else float("inf")
        lines.append(f"fast-path speedup on {name}: {speedup:.2f}x")

    for backend in BACKENDS[1:]:
        backend_row = outcomes[f"all [backend={backend}]"]
        lines.append(
            f"backend {backend}: {backend_row['rounds_per_second']:.2f} rounds/s "
            f"(inprocess: {outcomes['all']['rounds_per_second']:.2f})"
        )

    exclusive: dict[str, set] = {
        name: set(outcome["result"].unique_bug_ids)
        for name, outcome in outcomes.items()
        if name != "all" and "[no fast path]" not in name and "[backend=" not in name
    }
    for name, bugs in sorted(exclusive.items()):
        others = set().union(*(b for n, b in exclusive.items() if n != name))
        only_here = bugs - others
        if only_here:
            lines.append(f"only {name} found: {', '.join(sorted(only_here))}")
    write_report("scenario_throughput", lines)
    _write_json(outcomes)

    # Contracts: every scenario completes its rounds, and the suite as a
    # whole must not detect fewer unique bugs than the reference scenario
    # alone (diversity must never cost coverage at equal budget).
    for name, outcome in outcomes.items():
        assert outcome["result"].rounds == ROUNDS, name
    assert (
        outcomes["all"]["result"].unique_bug_count + 2
        >= outcomes["topological-join"]["result"].unique_bug_count
    )
    # Fast-path contract: >= 8x rounds/s on the join-heavy scenarios with a
    # bug yield identical to the reference path (same unique-bug sets, same
    # discrepancy stream).
    for name in FAST_PATH_TARGETS:
        fast = outcomes[name]
        slow = outcomes[f"{name} [no fast path]"]
        assert fast["rounds_per_second"] >= MIN_SPEEDUP * slow["rounds_per_second"], name
        assert set(fast["result"].unique_bug_ids) == set(slow["result"].unique_bug_ids), name
        assert [d.describe() for d in fast["result"].discrepancies] == [
            d.describe() for d in slow["result"].discrepancies
        ], name
    # Backend contract: the adapter swaps the planner, not the semantics —
    # the same campaign finds the same *observable* discrepancy stream on
    # every backend.  (Ground-truth attribution is deliberately not
    # asserted: fault hooks fire in the planner's evaluation order, so a
    # multi-bug query can record different triggered ids per backend.)
    for backend in BACKENDS[1:]:
        adapted = outcomes[f"all [backend={backend}]"]["result"]
        assert [d.describe() for d in adapted.discrepancies] == [
            d.describe() for d in outcomes["all"]["result"].discrepancies
        ], backend
