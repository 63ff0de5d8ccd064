"""Differential self-check: the optimised path changes nothing but speed.

``CampaignConfig.fast_path`` is the one speed switch.  On, a campaign runs
the optimised path: prepared-predicate caching, auto-built STR prefilters,
the numpy geometry prescreens with batch SELECT pipelines, and direct
bulk-load of parsed geometry into in-process sessions.  Off, it runs the
scalar reference: row-at-a-time execution, unscreened scalar locators and
CREATE/INSERT SQL replay.  Both share one exact integer arithmetic
(predicates, and relate's face labels from noding provenance).  The
optimised path is only admissible if both are observably identical, so
these tests run full-registry campaigns (all seven scenarios plus the
single-database oracle families) over several seeds on both backends in
both modes and compare everything the campaign reports: findings
finding-for-finding, per-scenario and per-oracle query counts,
deduplication signatures (ground-truth and signature-fallback), and
crashes.

The engagement guards below keep the equivalence from passing vacuously:
each optimisation must show traffic on the optimised side and none on the
reference side.  Campaigns are deterministic, so every configuration runs
once per module and all assertions share the results.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.campaign import CampaignConfig, CampaignResult, TestingCampaign
from repro.core.canonical import clear_canonical_cache
from repro.core.dedup import Deduplicator, signature_identity
from repro.engine.database import SpatialDatabase
from repro.geometry.cache import clear_geometry_cache
from repro.geometry.columnar import clear_kernel_stats, kernel_stats
from repro.scenarios import scenario_names
from repro.topology.relate import clear_relate_cache

SEEDS = (7, 2025, 4711)
BACKENDS = ("inprocess", "sqlite")
ROUNDS = 2
#: join-heavy scenarios of the clean-engine prefilter check
JOIN_SCENARIOS = ("topological-join", "join-chain", "distance-join")


@dataclass
class Run:
    """One campaign plus the engagement counters observed while it ran."""

    result: CampaignResult
    kernels: dict[str, int]
    #: calls of ``SpatialDatabase.load_geometry_tables`` (bulk-loads)
    bulk_loads: int


def _campaign(
    fast_path: bool,
    seed: int,
    backend: str = "inprocess",
    scenarios: tuple[str, ...] | None = None,
    clean: bool = False,
    rounds: int = ROUNDS,
) -> Run:
    # Both modes must start cold: the relate/canonical/interner caches are
    # process-global, and a warm cache would let the second run coast on the
    # first run's work (hiding, not testing, the optimised path).
    clear_relate_cache()
    clear_canonical_cache()
    clear_geometry_cache()
    clear_kernel_stats()
    config = CampaignConfig(
        dialect="postgis",
        backend=backend,
        emulate_release_under_test=not clean,
        seed=seed,
        geometry_count=6,
        queries_per_round=14,
        scenarios=scenarios,
        fast_path=fast_path,
    )
    bulk_loads = []
    load = SpatialDatabase.load_geometry_tables

    def counting_load(database, *args, **kwargs):
        bulk_loads.append(1)
        return load(database, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SpatialDatabase, "load_geometry_tables", counting_load)
        result = TestingCampaign(config).run(rounds=rounds)
    return Run(result, dict(kernel_stats()), len(bulk_loads))


@pytest.fixture(scope="module")
def runs():
    """``runs(fast_path, seed, ...)``: each configuration runs once per module."""
    cache: dict[tuple, Run] = {}

    def run(
        fast_path: bool,
        seed: int,
        backend: str = "inprocess",
        scenarios: tuple[str, ...] | None = None,
        clean: bool = False,
        rounds: int = ROUNDS,
    ) -> Run:
        key = (fast_path, seed, backend, scenarios, clean, rounds)
        if key not in cache:
            cache[key] = _campaign(*key)
        return cache[key]

    yield run
    cache.clear()


def _signatures(result: CampaignResult) -> list[str]:
    deduplicator = Deduplicator()
    for discrepancy in result.discrepancies:
        deduplicator.observe_discrepancy(discrepancy, 0.0)
    return list(deduplicator.result.unique_signatures)


def _assert_same_findings(optimised: CampaignResult, reference: CampaignResult) -> None:
    assert len(optimised.discrepancies) == len(reference.discrepancies)
    for ours, theirs in zip(optimised.discrepancies, reference.discrepancies):
        assert ours.describe() == theirs.describe()
        assert ours.result_original == theirs.result_original
        assert ours.result_followup == theirs.result_followup
        assert ours.result_expected == theirs.result_expected
        assert ours.scenario == theirs.scenario
        assert sorted(ours.triggered_bug_ids) == sorted(theirs.triggered_bug_ids)
    assert [f.describe() for f in optimised.oracle_findings] == [
        f.describe() for f in reference.oracle_findings
    ]
    assert [(c.statement, c.bug_id) for c in optimised.crashes] == [
        (c.statement, c.bug_id) for c in reference.crashes
    ]
    assert optimised.unique_bug_ids == reference.unique_bug_ids


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestOptimisedMatchesReference:
    """Full-registry campaigns, optimised vs. reference, per seed and backend."""

    def test_findings_match_finding_for_finding(self, runs, seed, backend):
        _assert_same_findings(
            runs(True, seed, backend=backend).result, runs(False, seed, backend=backend).result
        )

    def test_query_counts_and_errors_match(self, runs, seed, backend):
        optimised = runs(True, seed, backend=backend).result
        reference = runs(False, seed, backend=backend).result
        assert optimised.queries_run == reference.queries_run
        assert optimised.queries_by_scenario == reference.queries_by_scenario
        assert optimised.queries_by_oracle == reference.queries_by_oracle
        assert optimised.errors_ignored == reference.errors_ignored
        assert optimised.rounds == reference.rounds == ROUNDS
        # The campaigns genuinely exercise all seven registered scenarios.
        assert set(optimised.queries_by_scenario) == set(scenario_names())
        assert len(scenario_names()) == 7

    def test_dedup_identities_match(self, runs, seed, backend):
        optimised = runs(True, seed, backend=backend).result
        reference = runs(False, seed, backend=backend).result
        # Signature identities (the no-ground-truth fallback) ...
        assert _signatures(optimised) == _signatures(reference)
        # ... per discrepancy, not just the deduplicated sets.
        assert [signature_identity(d) for d in optimised.discrepancies] == [
            signature_identity(d) for d in reference.discrepancies
        ]


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_reference_join_scenario_equivalence(runs, seed):
    """The join-heavy reference scenario alone (the fast path's hot target)."""
    scenarios = ("topological-join",)
    optimised = runs(True, seed, scenarios=scenarios).result
    reference = runs(False, seed, scenarios=scenarios).result
    _assert_same_findings(optimised, reference)
    assert optimised.queries_by_scenario == reference.queries_by_scenario


def test_prepared_cache_engaged(runs):
    """The join-heavy scenario re-evaluates the same geometry pairs across
    its query budget, so the broad prepared cache must see hits; with the
    fast path off only the seed's ST_Contains routing may touch it."""
    scenarios = ("topological-join",)
    optimised = runs(True, SEEDS[1], scenarios=scenarios).result
    reference = runs(False, SEEDS[1], scenarios=scenarios).result
    assert optimised.cache_stats.get("prepared_hits", 0) > 0
    assert optimised.cache_stats.get("relate_misses", 0) > 0
    assert reference.cache_stats.get("prepared_hits", 0) <= optimised.cache_stats["prepared_hits"]


def test_batch_kernels_engaged(runs):
    """Batch relate-kernel traffic on the optimised run, none on the
    reference.  (The envelope prescreen stays *off* in a release emulation —
    every topological predicate is influenced by an active bug, so the
    observability gate disables candidate skipping; the clean-campaign test
    below covers the prescreen kernels.)"""
    optimised = runs(True, SEEDS[1]).kernels
    reference = runs(False, SEEDS[1]).kernels
    assert optimised.get("ring_batches", 0) > 0
    assert optimised.get("noding_prescreens", 0) > 0
    assert reference.get("ring_batches", 0) == 0
    assert reference.get("noding_prescreens", 0) == 0


def test_join_scenarios_use_the_batch_prefilter(runs):
    """On a clean engine (no influencing faults, so the observability gate
    is open) the join-heavy scenarios route candidate generation through
    the columnar envelope kernels — and stay result-identical to the
    reference."""
    # One round per scenario: the campaign rotates the budget remainder
    # across rounds, so three rounds exercise all three join shapes.
    options = dict(scenarios=JOIN_SCENARIOS, clean=True, rounds=len(JOIN_SCENARIOS))
    optimised = runs(True, SEEDS[0], **options)
    reference = runs(False, SEEDS[0], **options)
    assert optimised.result.queries_run == reference.result.queries_run > 0
    assert [d.describe() for d in optimised.result.discrepancies] == [
        d.describe() for d in reference.result.discrepancies
    ]
    for counter in ("envelope_blocks", "envelope_queries", "distance_queries"):
        assert optimised.kernels.get(counter, 0) > 0, counter
    assert reference.kernels.get("envelope_queries", 0) == 0
    assert reference.kernels.get("distance_queries", 0) == 0


def test_bulk_load_on_inprocess_replay_elsewhere(runs):
    """The optimised in-process campaign bulk-loads its databases; the
    reference replays SQL, and so does the sqlite adapter, which exposes no
    bulk-load surface (the duck-typing contract of
    :class:`repro.backends.base.BackendSession`)."""
    assert runs(True, SEEDS[0]).bulk_loads > 0
    assert runs(False, SEEDS[0]).bulk_loads == 0
    assert runs(True, SEEDS[0], backend="sqlite").bulk_loads == 0


def test_phase_timing_is_reported(runs):
    """The round's wall clock splits into materialise + execute phases."""
    result = runs(True, SEEDS[0]).result
    assert result.materialise_seconds > 0.0
    assert result.execute_seconds > 0.0
    # The split cannot exceed the campaign's total wall clock.
    assert result.materialise_seconds + result.execute_seconds <= result.total_seconds
