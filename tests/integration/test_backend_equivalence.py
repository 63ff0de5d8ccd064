"""Differential self-checks for the backend protocol.

Three contracts, in the style of the fast-path equivalence suite:

1. **The protocol layer is inert.**  The default campaign
   (``backend="inprocess"``) must be finding-for-finding identical to the
   pre-refactor execution path — reconstructed here as the factory-driven
   round loop the campaign used before the protocol existed — over several
   fixed seeds.
2. **The SQLite adapter is faithful.**  The same campaign driven entirely
   by the ``sqlite`` backend (generation, materialisation, scenario
   queries all planned by SQLite) must find the same injected bugs: the
   spatial semantics live in the shared registry, the planner underneath
   must not matter.
3. **The cross-backend differential mode is sound and sharp.**  Against a
   fault-free primary engine it reports nothing (the normalization rules
   absorb every representational difference), and against the buggy
   release emulation it detects seeded divergences carrying ground-truth
   bug ids — end to end, including through the shard merge.
"""

from __future__ import annotations

import pytest

from repro.backends import create_backend
from repro.core.campaign import CampaignConfig, CampaignResult, TestingCampaign, round_rng
from repro.core.canonical import clear_canonical_cache
from repro.core.dedup import Deduplicator
from repro.core.generator import GeneratorConfig, GeometryAwareGenerator
from repro.core.oracle import AEIOracle, CrashReport
from repro.core.parallel import run_campaign
from repro.engine.database import connect
from repro.engine.dialects import default_fault_profile
from repro.errors import EngineCrash
from repro.geometry.cache import clear_geometry_cache
from repro.topology.relate import clear_relate_cache

SEEDS = (7, 2025, 4711)
ROUNDS = 2
# the legacy loop reconstructed below predates the single-database oracle
# families, so this suite pins the AEI pass alone; the oracle families have
# their own soundness/yield/merge suites (test_oracle_soundness.py,
# test_oracle_yield.py).
BASE = dict(dialect="postgis", geometry_count=6, queries_per_round=14, oracles=("aei",))


def _clear_process_caches() -> None:
    clear_relate_cache()
    clear_canonical_cache()
    clear_geometry_cache()


def _run_campaign(seed: int, **overrides) -> CampaignResult:
    _clear_process_caches()
    config = CampaignConfig(**BASE, seed=seed, **overrides)
    return TestingCampaign(config).run(rounds=ROUNDS)


def _run_legacy(seed: int):
    """The pre-protocol round loop: direct connect() factories throughout.

    This reconstructs what ``TestingCampaign._run_round`` did before the
    backend seam existed, using only surfaces that predate it, and returns
    the raw findings in observation order.
    """
    _clear_process_caches()
    bug_ids = tuple(default_fault_profile("postgis"))
    discrepancies, crashes = [], []
    deduplicator = Deduplicator()
    queries_by_scenario: dict[str, int] = {}
    for round_index in range(ROUNDS):
        rng = round_rng(seed, round_index)
        factory = lambda: connect("postgis", bug_ids=bug_ids, fast_path=True)
        generator = GeometryAwareGenerator(
            factory(),
            GeneratorConfig(geometry_count=BASE["geometry_count"], table_count=2),
            rng=rng,
        )
        oracle = AEIOracle(factory, rng=rng)
        try:
            spec = generator.generate()
        except EngineCrash as crash:
            report = CrashReport(
                statement="<derivative strategy>", message=str(crash), bug_id=crash.bug_id
            )
            crashes.append(report)
            deduplicator.observe_crash(report, 0.0)
            continue
        outcome = oracle.check(spec, query_count=BASE["queries_per_round"])
        for name, count in outcome.queries_by_scenario.items():
            queries_by_scenario[name] = queries_by_scenario.get(name, 0) + count
        for discrepancy in outcome.discrepancies:
            discrepancies.append(discrepancy)
            deduplicator.observe_discrepancy(discrepancy, 0.0)
        for crash in outcome.crashes:
            crashes.append(crash)
            deduplicator.observe_crash(crash, 0.0)
    return discrepancies, crashes, queries_by_scenario, list(deduplicator.result.unique_bug_ids)


@pytest.mark.parametrize("seed", SEEDS)
class TestInProcessBackendIsInert:
    """Acceptance: --backend inprocess equals the pre-refactor campaign."""

    def test_findings_match_finding_for_finding(self, seed):
        campaign = _run_campaign(seed)
        discrepancies, crashes, _, _ = _run_legacy(seed)
        assert len(campaign.discrepancies) == len(discrepancies)
        for ours, reference in zip(campaign.discrepancies, discrepancies):
            assert ours.describe() == reference.describe()
            assert ours.result_original == reference.result_original
            assert ours.result_followup == reference.result_followup
            assert ours.result_expected == reference.result_expected
            assert ours.scenario == reference.scenario
            assert tuple(sorted(ours.triggered_bug_ids)) == tuple(
                sorted(reference.triggered_bug_ids)
            )
        assert [(c.statement, c.bug_id) for c in campaign.crashes] == [
            (c.statement, c.bug_id) for c in crashes
        ]

    def test_query_counts_and_unique_bugs_match(self, seed):
        campaign = _run_campaign(seed)
        _, _, queries_by_scenario, unique_bug_ids = _run_legacy(seed)
        assert campaign.queries_by_scenario == queries_by_scenario
        assert campaign.unique_bug_ids == unique_bug_ids
        assert campaign.divergences == []  # no reference backend configured


@pytest.mark.parametrize("seed", SEEDS)
def test_sqlite_backend_finds_the_same_bugs(seed):
    """The adapter swaps the planner, not the semantics: same campaign,
    same observable findings, whichever backend executes it.

    Ground-truth *attribution* is asserted only on these pinned seeds —
    fault hooks fire in the planner's evaluation order, so a query whose
    condition touches several buggy predicates (e.g. seed 99's join-chain)
    can legitimately record different triggered ids per backend while the
    discrepancy itself is identical.
    """
    reference = _run_campaign(seed)
    adapted = _run_campaign(seed, backend="sqlite")
    assert adapted.rounds == reference.rounds
    assert adapted.queries_by_scenario == reference.queries_by_scenario
    assert adapted.unique_bug_ids == reference.unique_bug_ids
    assert [d.describe() for d in adapted.discrepancies] == [
        d.describe() for d in reference.discrepancies
    ]
    assert [(c.statement, c.bug_id) for c in adapted.crashes] == [
        (c.statement, c.bug_id) for c in reference.crashes
    ]


class TestCrossBackendDifferential:
    def test_clean_engine_produces_no_divergences(self):
        # Soundness: with no injected faults the two planners must agree on
        # every scenario query, post-normalization.
        for seed in SEEDS[:2]:
            result = _run_campaign(
                seed, compare_backend="sqlite", emulate_release_under_test=False
            )
            assert result.divergence_queries > 0
            assert result.divergences == []

    def test_smoke_campaign_detects_a_seeded_divergence(self):
        # Acceptance: a cross-backend campaign on the SQLite adapter
        # completes the smoke suite end to end with at least one seeded
        # divergence detected by the differential mode.
        result = _run_campaign(2025, compare_backend="sqlite")
        assert result.rounds == ROUNDS
        assert result.divergence_queries > 0
        assert len(result.divergences) >= 1
        profile = set(default_fault_profile("postgis"))
        attributed = [d for d in result.divergences if d.triggered_bug_ids]
        assert attributed, "divergences should carry ground-truth bug ids"
        for divergence in attributed:
            assert set(divergence.triggered_bug_ids) <= profile
        assert result.unique_divergence_signatures
        # divergence-discovered bugs join the campaign's unique-bug set
        assert set(attributed[0].triggered_bug_ids) <= set(result.unique_bug_ids)

    def test_divergences_do_not_perturb_the_aei_stream(self):
        # The comparator consumes no randomness: the AEI findings of a
        # cross-backend campaign equal the plain campaign's exactly.
        plain = _run_campaign(2025)
        compared = _run_campaign(2025, compare_backend="sqlite")
        assert [d.describe() for d in compared.discrepancies] == [
            d.describe() for d in plain.discrepancies
        ]
        assert compared.queries_by_scenario == plain.queries_by_scenario

    def test_sharded_campaign_merges_divergences(self):
        _clear_process_caches()
        config = CampaignConfig(**BASE, seed=2025, compare_backend="sqlite", shards=2)
        sharded = run_campaign(config, rounds=ROUNDS)
        serial = _run_campaign(2025, compare_backend="sqlite")
        assert sorted(d.describe() for d in sharded.divergences) == sorted(
            d.describe() for d in serial.divergences
        )
        assert sharded.divergence_queries == serial.divergence_queries


def test_reference_backend_runs_the_fixed_engine():
    """The campaign's reference side must carry no fault profile."""
    campaign = TestingCampaign(
        CampaignConfig(**BASE, seed=1, compare_backend="sqlite")
    )
    assert campaign.reference_backend is not None
    assert campaign.reference_backend.bug_ids == ()
    assert campaign.backend.capabilities().backend == "inprocess"


def test_create_backend_round_trips_campaign_options():
    backend = create_backend(
        "inprocess", dialect="mysql", bug_ids=("mysql-crosses-large-coordinates",), fast_path=False
    )
    session = backend.open_session()
    assert session.dialect.name == "mysql"
    assert session.fast_path is False
