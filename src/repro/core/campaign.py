"""The testing-campaign driver (the automated version of Section 5.1).

A campaign repeatedly (1) generates a database with the geometry-aware
generator, (2) builds its affine-equivalent follow-ups (one per
transformation-family group of the active scenarios), (3) validates every
metamorphic scenario of the registry (``repro.scenarios``) over the pairs,
and (4) records, reduces and deduplicates every discrepancy and crash.  It also keeps the timing split (time inside the
SDBMS vs. total Spatter time) that Figure 7 reports and exposes
unique-bugs-over-time data for Figure 8(a).

Rounds are independently seeded: round *i* of a campaign with seed *S* draws
every random decision from ``random.Random(f"{S}|{i}")``.  That makes the
round stream *partitionable* — a shard ``k`` of ``n`` replays exactly the
global rounds ``k, k+n, k+2n, ...`` — which is what lets the parallel
orchestrator (:mod:`repro.core.parallel`) split one campaign across a
process pool and merge the shard results back into the same unique-bug set
a serial run of the same seed and total round count would have produced.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.backends import Backend, BackendDivergence, create_backend
from repro.core.dedup import DeduplicationResult, Deduplicator
from repro.core.generator import GeneratorConfig, GeometryAwareGenerator
from repro.core.oracle import AEIOracle, CrashReport, Discrepancy, allocate_query_budget
from repro.core.scheduler import (
    BANDIT_SCHEDULER,
    BanditScheduler,
    STATIC_SCHEDULER,
    merge_scheduler_stats,
    oracle_arm,
    resolve_scheduler_name,
    scenario_arm,
)
from repro.core.trace import CampaignTrace
from repro.engine.database import SpatialDatabase, connect
from repro.engine.dialects import default_fault_profile
from repro.oracles import AEI_ORACLE, OracleFinding, get_oracle, resolve_oracle_names
from repro.scenarios import resolve_scenarios


def round_rng(seed: int, round_index: int) -> random.Random:
    """The RNG for one campaign round.

    Seeding with the ``"seed|round"`` string (hashed through
    :meth:`random.Random.seed`'s deterministic byte path) makes every round
    reproducible in isolation, independent of process, shard assignment, or
    how much entropy earlier rounds consumed.
    """
    return random.Random(f"{seed}|{round_index}")


@dataclass
class CampaignConfig:
    """Everything a campaign needs to know."""

    #: Emulated system under test (one of ``repro.engine.dialects``).
    dialect: str = "postgis"
    #: Execution backend the campaign drives (a ``repro.backends`` registry
    #: name).  Backends are created from this *name* plus the other config
    #: fields, never stored here, which keeps the config picklable across
    #: the parallel orchestrator's process boundary.
    backend: str = "inprocess"
    #: When set, enables the cross-backend differential mode: every scenario
    #: query is replayed on a fixed-profile (fault-free) session of this
    #: backend and result divergences are reported as findings alongside the
    #: affine-equivalence violations.
    compare_backend: str | None = None
    #: Explicit injected-bug profile; ``None`` selects the dialect's default
    #: release emulation.
    bug_ids: tuple[str, ...] | None = None
    #: When ``True`` the engine runs with the dialect's reported bugs
    #: injected (the "release under test"); ``False`` tests the fixed engine.
    emulate_release_under_test: bool = True
    #: Geometries per generated database (the paper's *N*).
    geometry_count: int = 10
    #: Tables the geometries are spread over (the paper's *m*).
    table_count: int = 2
    #: Scenario queries instantiated per generation round, split across the
    #: active scenarios (see ``repro.core.oracle.allocate_query_budget``).
    queries_per_round: int = 20
    #: Metamorphic scenarios to validate each round (registry names from
    #: ``repro.scenarios``).  ``None`` runs every scenario applicable to the
    #: dialect — the campaign default; capability gating still applies to an
    #: explicit selection.
    scenarios: tuple[str, ...] | None = None
    #: Oracle families to run each round (registry names from
    #: ``repro.oracles`` plus the built-in ``"aei"`` scenario oracle).
    #: ``None`` runs every family — the campaign default; an explicit
    #: selection without ``"aei"`` skips the affine-equivalence pass and
    #: runs only the selected single-database oracles.
    oracles: tuple[str, ...] | None = None
    #: ``True`` enables the derivative strategy (Algorithm 1); ``False`` is
    #: the random-shape-only RSG baseline.
    use_derivative_strategy: bool = True
    #: The one speed switch.  ``True`` (the default) runs the optimised
    #: path: prepared caching of the full indexable-predicate family,
    #: auto-built STR index prefilters on oracle-materialised databases, the
    #: numpy float prescreens (:mod:`repro.geometry.columnar`) with batch
    #: SELECT pipelines (:mod:`repro.engine.vectorized`), and direct
    #: bulk-load of parsed geometry into sessions that support it.
    #: ``False`` (the CLI's ``--no-fast-path``) runs the scalar reference:
    #: row-at-a-time execution, no float prescreens and CREATE/INSERT SQL
    #: replay.  The switch never chooses arithmetic: both modes decide
    #: every predicate and label every face with the same exact code.  The
    #: optimised-vs-reference equivalence suite holds the two modes
    #: finding-for-finding identical.  (The always-pure layers — interned
    #: parsing, per-instance wkt/envelope memos, the relate WKT memo, and the
    #: seed's ST_Contains prepared routing — run in both modes.)
    fast_path: bool = True
    #: Round-budget allocation policy.  ``"static"`` (the default) keeps the
    #: historical even :func:`~repro.core.oracle.allocate_query_budget`
    #: split with its rotating remainder — byte-for-byte the pre-scheduler
    #: behaviour.  ``"bandit"`` replaces it with the feedback-guided
    #: allocator (:mod:`repro.core.scheduler`): a seeded Thompson bandit
    #: over per-arm dedup-signature novelty, one arm per active scenario
    #: and oracle family.
    scheduler: str = STATIC_SCHEDULER
    #: When set, the campaign appends a structured JSONL event trace to
    #: this path: round boundaries, scheduler allocation decisions with
    #: their posterior inputs, findings (with novelty), and deadline
    #: events.  ``None`` (the default) traces nothing.  Schema:
    #: ``docs/SCHEDULER.md``.
    trace_file: str | None = None
    #: Master seed; combined with the global round index via
    #: :func:`round_rng`, so ``seed`` + total rounds fully determine a run.
    seed: int = 0
    #: Worker processes the parallel orchestrator may use.  ``1`` keeps the
    #: campaign single-process (the classic serial driver).
    workers: int = 1
    #: Number of deterministic round streams the campaign is split into.
    #: ``None`` means "one shard per worker".  The shard count — not the
    #: worker count — is what the result depends on, and any shard count
    #: yields the same merged unique-bug set as a serial run of the same
    #: seed and total rounds.
    shards: int | None = None

    @property
    def shard_count(self) -> int:
        """The effective number of shards (``shards`` or one per worker)."""
        if self.shards is not None:
            return max(1, self.shards)
        return max(1, self.workers)

    def resolved_bug_ids(self) -> tuple[str, ...]:
        """The injected-bug profile this configuration runs with.

        The single resolution rule shared by the campaign driver and the
        CLI's ``--reduce`` re-validation: an explicit profile wins, the
        release emulation selects the dialect's default faults, and a
        clean run injects nothing.
        """
        if self.bug_ids is not None:
            return tuple(self.bug_ids)
        if self.emulate_release_under_test:
            return tuple(default_fault_profile(self.dialect))
        return ()


@dataclass
class CampaignResult:
    """Everything a campaign (or one shard of one) produced."""

    #: The configuration the campaign ran with.
    config: CampaignConfig
    #: Generation/validation rounds completed.
    rounds: int = 0
    #: Scenario queries executed by the oracle.
    queries_run: int = 0
    #: Queries executed per scenario name (summed across shards on merge),
    #: the denominator of per-scenario bug-yield reporting.
    queries_by_scenario: dict[str, int] = field(default_factory=dict)
    #: Fast-path cache counters (prepared/relate/interner hits and misses),
    #: summed over connections and rounds — and over shards on merge.
    cache_stats: dict[str, int] = field(default_factory=dict)
    #: Semantic errors (invalid geometries, unsupported arguments) that were
    #: ignored rather than reported.
    errors_ignored: int = 0
    #: Every logic-bug candidate (AEI count mismatch) observed, pre-dedup.
    discrepancies: list[Discrepancy] = field(default_factory=list)
    #: Every single-database oracle-family finding (set-theoretic relation
    #: violations, PQS pivot omissions) observed, pre-dedup.
    oracle_findings: list[OracleFinding] = field(default_factory=list)
    #: Queries executed per oracle-family name (summed across shards on
    #: merge); the AEI oracle's queries stay in ``queries_by_scenario``.
    queries_by_oracle: dict[str, int] = field(default_factory=dict)
    #: Per-arm scheduler statistics (arm id → pulls / queries /
    #: novel-signatures / posterior), populated when the feedback-guided
    #: scheduler ran; counters merge across shards by summation exactly
    #: like ``queries_by_scenario`` (the posterior summary is re-derived
    #: from the merged counters).  Empty for ``scheduler="static"``.
    scheduler_stats: dict[str, dict] = field(default_factory=dict)
    #: Every crash-bug candidate observed, pre-dedup.
    crashes: list[CrashReport] = field(default_factory=list)
    #: Every cross-backend divergence observed (the differential finding
    #: class; empty unless ``config.compare_backend`` is set).
    divergences: list[BackendDivergence] = field(default_factory=list)
    #: Scenario queries replayed on the reference backend.
    divergence_queries: int = 0
    #: Reference-side errors the differential mode ignored — the
    #: inapplicability blind spot of Section 5.3.  A comparison where this
    #: rivals ``divergence_queries`` is vacuous, not clean.
    reference_errors_ignored: int = 0
    #: Deduplicated ground-truth bug ids, in order of first detection.
    unique_bug_ids: list[str] = field(default_factory=list)
    #: ``(elapsed seconds, cumulative unique bugs)`` pairs for Figure 8(a),
    #: on the campaign's shared wall clock.
    unique_bug_timeline: list[tuple[float, int]] = field(default_factory=list)
    #: First-detection instant of each unique bug id, in seconds on the
    #: campaign's shared wall clock (what ``merge`` rebases and unions).
    first_detection_seconds: dict[str, float] = field(default_factory=dict)
    #: Total wall-clock Spatter time.  For a merged parallel result this is
    #: the wall-clock of the whole parallel run, not the sum of the shards.
    total_seconds: float = 0.0
    #: Time spent executing statements inside the SDBMS (summed over shards
    #: for merged results, i.e. aggregate engine time, not wall clock).
    sdbms_seconds: float = 0.0
    #: Wall time spent materialising databases (originals plus follow-ups),
    #: summed over shards like ``sdbms_seconds``.
    materialise_seconds: float = 0.0
    #: Wall time of the oracle passes minus materialisation — the
    #: query-execution share of the materialise/execute phase split.
    execute_seconds: float = 0.0
    #: Which shard produced this result (0 for serial runs).
    shard_index: int = 0
    #: How many shards the producing campaign was split into.
    shard_count: int = 1
    #: Seconds between the orchestrator's campaign start and this shard's
    #: start; ``merge`` folds the offset into the timeline rebase.
    start_offset_seconds: float = 0.0

    @property
    def unique_bug_count(self) -> int:
        """Number of deduplicated ground-truth bugs found."""
        return len(self.unique_bug_ids)

    @property
    def unique_divergence_signatures(self) -> list[str]:
        """Deduplicated cross-backend divergence identities, in first-seen
        order (ground-truth bug ids when the primary backend recorded
        triggers, scenario+label signatures otherwise)."""
        signatures: list[str] = []
        for divergence in self.divergences:
            signature = divergence.signature()
            if signature not in signatures:
                signatures.append(signature)
        return signatures

    def summary(self) -> str:
        """A one-line human-readable digest of the run."""
        sharding = ""
        if self.shard_count > 1:
            sharding = f" [{self.shard_count} shards]"
        scenarios = ""
        if self.queries_by_scenario:
            scenarios = f" across {len(self.queries_by_scenario)} scenario(s)"
        divergences = ""
        if self.config.compare_backend is not None:
            divergences = (
                f", {len(self.divergences)} divergences "
                f"(vs {self.config.compare_backend})"
            )
        findings = ""
        if self.queries_by_oracle or self.oracle_findings:
            findings = f", {len(self.oracle_findings)} oracle findings"
        return (
            f"{self.config.dialect}: {self.rounds} rounds, {self.queries_run} queries"
            f"{scenarios}, "
            f"{len(self.discrepancies)} discrepancies, {len(self.crashes)} crashes"
            f"{findings}{divergences}, "
            f"{self.unique_bug_count} unique bugs, "
            f"{self.sdbms_seconds:.3f}s in SDBMS / {self.total_seconds:.3f}s total"
            f"{sharding}"
        )

    # ---------------------------------------------------------------- merging
    def rebased(self) -> "CampaignResult":
        """This result with ``start_offset_seconds`` folded into the clock.

        Shards measure elapsed time from their own start; rebasing shifts
        the first-detection instants and the timeline onto the orchestrator's
        shared wall clock so that merged timelines are comparable.
        """
        if self.start_offset_seconds == 0.0:
            return self
        offset = self.start_offset_seconds
        detections = {
            bug_id: seconds + offset for bug_id, seconds in self.first_detection_seconds.items()
        }
        return replace(
            self,
            first_detection_seconds=detections,
            unique_bug_timeline=[(seconds + offset, count) for seconds, count in self.unique_bug_timeline],
            total_seconds=self.total_seconds + offset,
            start_offset_seconds=0.0,
        )

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Combine two shard results into one campaign-level result.

        Counts are summed, raw findings concatenated, and the unique-bug
        sets unioned through :meth:`DeduplicationResult.combine` (earliest
        rebased detection wins), so the merged unique-bugs-over-time series
        lives on one shared wall clock.  ``total_seconds`` becomes the later
        of the two rebased end times (wall clock), while ``sdbms_seconds``
        stays a sum (aggregate engine time across processes).
        """
        left, right = self.rebased(), other.rebased()
        caches = Counter(left.cache_stats)
        caches.update(right.cache_stats)
        combined = DeduplicationResult(
            unique_bug_ids=list(left.unique_bug_ids),
            first_detection_seconds=dict(left.first_detection_seconds),
        ).combine(
            DeduplicationResult(
                unique_bug_ids=list(right.unique_bug_ids),
                first_detection_seconds=dict(right.first_detection_seconds),
            )
        )
        timeline = sorted(combined.first_detection_seconds.values())
        by_scenario = dict(left.queries_by_scenario)
        for scenario, count in right.queries_by_scenario.items():
            by_scenario[scenario] = by_scenario.get(scenario, 0) + count
        by_oracle = dict(left.queries_by_oracle)
        for oracle, count in right.queries_by_oracle.items():
            by_oracle[oracle] = by_oracle.get(oracle, 0) + count
        scheduler = merge_scheduler_stats(left.scheduler_stats, right.scheduler_stats)
        return CampaignResult(
            config=left.config,
            rounds=left.rounds + right.rounds,
            queries_run=left.queries_run + right.queries_run,
            queries_by_scenario=by_scenario,
            cache_stats=dict(caches),
            errors_ignored=left.errors_ignored + right.errors_ignored,
            discrepancies=left.discrepancies + right.discrepancies,
            oracle_findings=left.oracle_findings + right.oracle_findings,
            queries_by_oracle=by_oracle,
            scheduler_stats=scheduler,
            crashes=left.crashes + right.crashes,
            divergences=left.divergences + right.divergences,
            divergence_queries=left.divergence_queries + right.divergence_queries,
            reference_errors_ignored=(
                left.reference_errors_ignored + right.reference_errors_ignored
            ),
            unique_bug_ids=list(combined.unique_bug_ids),
            unique_bug_timeline=[(seconds, index + 1) for index, seconds in enumerate(timeline)],
            first_detection_seconds=dict(combined.first_detection_seconds),
            total_seconds=max(left.total_seconds, right.total_seconds),
            sdbms_seconds=left.sdbms_seconds + right.sdbms_seconds,
            materialise_seconds=left.materialise_seconds + right.materialise_seconds,
            execute_seconds=left.execute_seconds + right.execute_seconds,
            shard_index=0,
            shard_count=max(left.shard_count, right.shard_count),
            start_offset_seconds=0.0,
        )

    @classmethod
    def combine(cls, results: "list[CampaignResult]") -> "CampaignResult":
        """Merge any number of shard results (see :meth:`merge`)."""
        if not results:
            raise ValueError("cannot combine zero campaign results")
        merged = results[0].rebased()
        for result in results[1:]:
            merged = merged.merge(result)
        return merged


class TestingCampaign:
    """Runs Spatter against one emulated system.

    ``shard_index``/``shard_count`` select which slice of the global round
    stream this instance replays: shard *k* of *n* runs global rounds
    ``k, k+n, k+2n, ...``.  The default ``(0, 1)`` is the classic serial
    campaign that runs every round.
    """

    #: not a pytest test class, despite the name
    __test__ = False

    def __init__(
        self,
        config: CampaignConfig | None = None,
        shard_index: int = 0,
        shard_count: int = 1,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        if not 0 <= shard_index < shard_count:
            raise ValueError("shard_index must be in [0, shard_count)")
        self.config = config or CampaignConfig()
        self.shard_index = shard_index
        self.shard_count = shard_count
        #: the validated oracle-family selection; resolving here makes an
        #: unknown ``--oracles`` name fail at construction, not mid-campaign.
        self.active_oracles = resolve_oracle_names(self.config.oracles)
        self.deduplicator = Deduplicator()
        #: rounds completed over the instance's lifetime; makes repeated
        #: ``run()`` calls continue the round stream instead of replaying it.
        self.rounds_completed = 0
        #: the execution backend, rebuilt from the (picklable) config in
        #: whichever process this campaign instance lives.
        self.backend: Backend = create_backend(
            self.config.backend,
            dialect=self.config.dialect,
            bug_ids=self._bug_ids(),
            fast_path=self.config.fast_path,
        )
        if self._bug_ids() and not self.backend.capabilities().supports_fault_injection:
            # A release emulation needs the fault layer; running it on a
            # backend that cannot inject the bugs would silently campaign
            # against the fixed engine and read like a clean release.
            raise ValueError(
                f"backend {self.config.backend!r} does not support fault "
                "injection; run it with emulate_release_under_test=False "
                "(--clean) or an empty bug profile"
            )
        #: the validated budget-allocation policy; resolving here makes an
        #: unknown ``--scheduler`` name fail at construction.
        self.scheduler_name = resolve_scheduler_name(self.config.scheduler)
        #: names of the metamorphic scenarios the AEI pass can run (arm
        #: universe of the bandit; empty when the AEI family is deselected).
        self._scenario_arm_names: tuple[str, ...] = ()
        #: names of the applicable single-database oracle families.
        self._oracle_arm_names: tuple[str, ...] = ()
        #: the feedback-guided allocator (``None`` under the static split).
        #: Seeded per (campaign seed, shard split): a fixed ``(seed,
        #: shards)`` configuration replays the identical allocation and
        #: finding stream whatever the worker count — each shard's bandit
        #: learns from its own round stream and the per-arm statistics
        #: merge by summation (see docs/SCHEDULER.md).
        self.scheduler: BanditScheduler | None = None
        capabilities = self.backend.capabilities()
        if AEI_ORACLE in self.active_oracles:
            self._scenario_arm_names = tuple(
                scenario.name
                for scenario in resolve_scenarios(self.config.scenarios, capabilities)
            )
        self._oracle_arm_names = tuple(
            name
            for name in self.active_oracles
            if name != AEI_ORACLE and get_oracle(name).is_applicable(capabilities)
        )
        if self.scheduler_name == BANDIT_SCHEDULER:
            arms = tuple(
                [scenario_arm(name) for name in self._scenario_arm_names]
                + [oracle_arm(name) for name in self._oracle_arm_names]
            )
            self.scheduler = BanditScheduler(
                arms=arms,
                seed=f"{self.config.seed}|{shard_index}|{shard_count}",
            )
        #: post-round checkpoint hook: called as ``round_hook(campaign,
        #: result)`` after every completed round.  The store-backed runner
        #: (:mod:`repro.store.runner`) uses it to persist the shard's
        #: resume cursor and new findings atomically per round; ``None``
        #: (the default) keeps the classic driver hook-free.  Assigned
        #: post-construction because hooks are process-local closures —
        #: they never ride the picklable config.
        self.round_hook = None
        #: optional per-event trace sink (forwarded to
        #: :class:`~repro.core.trace.CampaignTrace`); the store ingests the
        #: event stream through this without a trace file being configured.
        self.trace_sink = None
        #: the cross-backend reference, always running the *fixed* engine
        #: (no injected faults) so divergences witness seeded bugs.
        self.reference_backend: Backend | None = None
        if self.config.compare_backend is not None:
            self.reference_backend = create_backend(
                self.config.compare_backend,
                dialect=self.config.dialect,
                bug_ids=(),
                fast_path=self.config.fast_path,
            )

    # ------------------------------------------------------------- plumbing
    def _bug_ids(self) -> tuple[str, ...]:
        return self.config.resolved_bug_ids()

    def new_connection(self):
        """A fresh session on the configured execution backend.

        For the default ``inprocess`` backend this is exactly the
        :func:`repro.engine.database.connect` call the pre-protocol campaign
        made (the backend-equivalence suite pins that down); other backends
        return their own session type satisfying the same protocol.
        """
        return self.backend.open_session()

    # ------------------------------------------------------------------ run
    def run(
        self,
        rounds: int | None = None,
        duration_seconds: float | None = None,
    ) -> CampaignResult:
        """Run for a number of rounds or for a wall-clock budget.

        ``rounds`` counts the rounds *this* call executes; a shard asked
        for ``rounds=r`` replays the ``r`` next global round indices of its
        slice of the stream.  Calling ``run`` again on the same instance
        continues the stream where the previous call stopped.
        """
        if rounds is None and duration_seconds is None:
            rounds = 5
        result = CampaignResult(
            config=self.config,
            shard_index=self.shard_index,
            shard_count=self.shard_count,
        )
        started = time.perf_counter()
        # The wall-clock budget as an absolute instant, so passes deep in a
        # round can check it without re-deriving elapsed time; ``None`` for
        # round-budgeted runs.
        deadline = None if duration_seconds is None else started + duration_seconds
        # A direct serial campaign owns its trace file and truncates it; a
        # shard of a parallel run appends to the file the orchestrator
        # truncated (events interleave, each stamped with its shard index).
        trace = CampaignTrace(
            self.config.trace_file,
            shard_index=self.shard_index,
            truncate=self.shard_count == 1 and self.rounds_completed == 0,
            sink=self.trace_sink,
        )

        # The geometry kernels live below the per-connection layers, so their
        # half of the fast path is a process-global switch; scope it to this
        # run so --no-fast-path campaigns run the reference code end to end.
        from repro.geometry.columnar import set_fast_kernels

        previous_kernels = set_fast_kernels(self.config.fast_path)
        try:
            while True:
                elapsed = time.perf_counter() - started
                if deadline is not None and time.perf_counter() >= deadline:
                    trace.emit("deadline", elapsed=elapsed, phase="rounds")
                    break
                if rounds is not None and result.rounds >= rounds:
                    break
                self._run_round(result, started, trace, deadline)
                if self.round_hook is not None:
                    # after the round is fully folded into the result, so a
                    # checkpoint taken here is a consistent resume point.
                    self.round_hook(self, result)
        finally:
            set_fast_kernels(previous_kernels)
            trace.close()

        result.total_seconds = time.perf_counter() - started
        result.unique_bug_ids = list(self.deduplicator.result.unique_bug_ids)
        result.unique_bug_timeline = self.deduplicator.unique_bugs_over_time()
        result.first_detection_seconds = dict(self.deduplicator.result.first_detection_seconds)
        if self.scheduler is not None:
            result.scheduler_stats = self.scheduler.stats_dict()
        return result

    def _round_budget(self) -> int:
        """The bandit's per-round query pool.

        One ``queries_per_round`` pool per active arm class (AEI scenarios,
        extra oracle families) — exactly what the static split spends on
        the same configuration, so static-vs-bandit comparisons at a fixed
        round count hold the total query budget fixed.
        """
        budget = 0
        if self._scenario_arm_names:
            budget += self.config.queries_per_round
        if self._oracle_arm_names:
            budget += self.config.queries_per_round
        return budget

    def _record_finding(
        self,
        trace: CampaignTrace,
        novelty: dict[str, int],
        arm: str,
        kind: str,
        signatures_before: int,
        new_ids: "list[str]",
        elapsed: float,
        signature_fn,
    ) -> None:
        """Post-observation bookkeeping shared by every finding class.

        Credits the arm with one unit of novelty when the deduplicator's
        signature space grew, and emits a ``finding`` trace event (the
        signature string is only rendered when tracing is on — it re-parses
        geometry and is not free).
        """
        novel = self.deduplicator.signature_count > signatures_before
        if novel:
            novelty[arm] = novelty.get(arm, 0) + 1
        if trace.enabled:
            trace.emit(
                "finding",
                elapsed=elapsed,
                kind=kind,
                arm=arm,
                novel=novel,
                signature=signature_fn(),
                bug_ids=list(new_ids),
            )

    def _run_round(
        self,
        result: CampaignResult,
        started: float,
        trace: CampaignTrace,
        deadline: float | None = None,
    ) -> None:
        # Global index of the round in the campaign-wide stream; every
        # random decision of the round derives from it, so a shard replays
        # exactly what the serial campaign would have run at that index.
        global_round = self.shard_index + self.rounds_completed * self.shard_count
        rng = round_rng(self.config.seed, global_round)
        result.rounds += 1
        self.rounds_completed += 1
        queries_at_start = result.queries_run
        trace.emit(
            "round_start", elapsed=time.perf_counter() - started, round=global_round
        )
        generation_connection = self.new_connection()
        generator = GeometryAwareGenerator(
            generation_connection,
            GeneratorConfig(
                geometry_count=self.config.geometry_count,
                table_count=self.config.table_count,
                use_derivative_strategy=self.config.use_derivative_strategy,
            ),
            rng=rng,
        )
        sdbms_connections: list[SpatialDatabase] = [generation_connection]

        def tracked_factory() -> SpatialDatabase:
            connection = self.new_connection()
            sdbms_connections.append(connection)
            return connection

        oracle = AEIOracle(
            tracked_factory,
            rng=rng,
            capabilities=self.backend.capabilities(),
            reference_backend=self.reference_backend,
        )
        global_caches_before = self._global_cache_stats()
        materialise_at_start = result.materialise_seconds
        execute_at_start = result.execute_seconds
        allocation: dict[str, int] | None = None
        if self.scheduler is not None:
            allocation = self.scheduler.allocate(self._round_budget())
            trace.emit(
                "allocation",
                elapsed=time.perf_counter() - started,
                round=global_round,
                scheduler=self.scheduler_name,
                budgets=allocation,
                posterior=self.scheduler.posterior_inputs(),
            )
        try:
            try:
                spec = generator.generate()
            except Exception as crash:  # EngineCrash during derivation
                from repro.errors import EngineCrash

                if isinstance(crash, EngineCrash):
                    report = CrashReport(
                        statement="<derivative strategy>", message=str(crash), bug_id=crash.bug_id
                    )
                    result.crashes.append(report)
                    elapsed = time.perf_counter() - started
                    new_ids = self.deduplicator.observe_crash(report, elapsed)
                    trace.emit(
                        "finding",
                        elapsed=elapsed,
                        kind="crash",
                        arm=None,
                        novel=bool(new_ids),
                        bug_ids=list(new_ids),
                    )
                    return
                raise

            if AEI_ORACLE in self.active_oracles:
                self._run_aei_pass(result, spec, oracle, allocation, started, trace)
            self._run_extra_oracles(
                result, spec, tracked_factory, rng, started, allocation, trace, deadline
            )
        finally:
            result.sdbms_seconds += sum(c.stats.seconds_in_engine for c in sdbms_connections)
            self._collect_cache_stats(result, sdbms_connections, global_caches_before)
            trace.emit(
                "round_end",
                elapsed=time.perf_counter() - started,
                round=global_round,
                queries=result.queries_run - queries_at_start,
                time_materialise=result.materialise_seconds - materialise_at_start,
                time_execute=result.execute_seconds - execute_at_start,
            )

    def _run_aei_pass(
        self,
        result: CampaignResult,
        spec,
        oracle: AEIOracle,
        allocation: "dict[str, int] | None",
        started: float,
        trace: CampaignTrace,
    ) -> None:
        """Run the round's AEI scenario pass and fold in its outcome.

        With a bandit ``allocation``, each scenario runs exactly its
        allocated budget (the oracle's internal rotating split is bypassed)
        and the scheduler is fed every scenario arm's queries-spent and
        marginal signature novelty; without one, this is the historical
        static pass byte for byte.
        """
        from repro.core.dedup import signature_identity

        scenario_budgets: dict[str, int] | None = None
        aei_budget = self.config.queries_per_round
        if allocation is not None:
            scenario_budgets = {
                name: allocation.get(scenario_arm(name), 0)
                for name in self._scenario_arm_names
            }
            aei_budget = sum(scenario_budgets.values())
            if aei_budget <= 0:
                return
        pass_started = time.perf_counter()
        outcome = oracle.check(
            spec,
            query_count=aei_budget,
            scenarios=self.config.scenarios,
            budgets=scenario_budgets,
        )
        pass_wall = time.perf_counter() - pass_started
        result.materialise_seconds += outcome.materialise_seconds
        result.execute_seconds += max(0.0, pass_wall - outcome.materialise_seconds)
        elapsed = time.perf_counter() - started
        result.queries_run += outcome.queries_run
        for scenario, count in outcome.queries_by_scenario.items():
            result.queries_by_scenario[scenario] = (
                result.queries_by_scenario.get(scenario, 0) + count
            )
        result.errors_ignored += outcome.errors_ignored
        novelty: dict[str, int] = {}
        for discrepancy in outcome.discrepancies:
            result.discrepancies.append(discrepancy)
            signatures_before = self.deduplicator.signature_count
            new_ids = self.deduplicator.observe_discrepancy(discrepancy, elapsed)
            self._record_finding(
                trace,
                novelty,
                scenario_arm(discrepancy.scenario),
                "discrepancy",
                signatures_before,
                new_ids,
                elapsed,
                lambda d=discrepancy: signature_identity(d),
            )
        for crash in outcome.crashes:
            result.crashes.append(crash)
            new_ids = self.deduplicator.observe_crash(crash, elapsed)
            trace.emit(
                "finding",
                elapsed=elapsed,
                kind="crash",
                arm=None,
                novel=bool(new_ids),
                bug_ids=list(new_ids),
            )
        result.divergence_queries += outcome.divergence_queries
        result.reference_errors_ignored += outcome.reference_errors_ignored
        for divergence in outcome.divergences:
            result.divergences.append(divergence)
            signatures_before = self.deduplicator.signature_count
            new_ids = self.deduplicator.observe_divergence(divergence, elapsed)
            self._record_finding(
                trace,
                novelty,
                scenario_arm(divergence.scenario),
                "divergence",
                signatures_before,
                new_ids,
                elapsed,
                divergence.signature,
            )
        # the reference backend is an SDBMS too: its engine time joins the
        # Figure 7 split rather than silently inflating the tester's share.
        result.sdbms_seconds += outcome.reference_seconds
        if self.scheduler is not None and scenario_budgets is not None:
            for name in self._scenario_arm_names:
                if scenario_budgets.get(name, 0) <= 0:
                    continue
                arm = scenario_arm(name)
                self.scheduler.observe(
                    arm, outcome.queries_by_scenario.get(name, 0), novelty.get(arm, 0)
                )

    def _run_extra_oracles(
        self,
        result: CampaignResult,
        spec,
        session_factory,
        rng: random.Random,
        started: float,
        allocation: "dict[str, int] | None" = None,
        trace: CampaignTrace | None = None,
        deadline: float | None = None,
    ) -> None:
        """Run the round's single-database oracle families (``repro.oracles``).

        Each active family gets a slice of the round's query budget (the
        budget counts *checks* — one set-theoretic battery or one pivot
        query — with the rotating remainder the AEI oracle also uses), runs
        on its own tracked session, and folds its findings into the same
        deduplicated identity spaces as AEI discrepancies.  Drawing from the
        round RNG *after* the AEI pass keeps the serial and sharded replays
        of a round identical for a fixed configuration.

        With a bandit ``allocation``, each family instead runs exactly its
        allocated budget (no rotation offset is drawn) and feeds the
        scheduler its queries-spent and marginal signature novelty.  A
        wall-clock ``deadline`` is re-checked before every family pass —
        between the AEI pass and the first family, and between families —
        so one slow pass bounds the overshoot instead of the whole round.
        """
        trace = trace or CampaignTrace(None)
        extra = [get_oracle(name) for name in self.active_oracles if name != AEI_ORACLE]
        capabilities = self.backend.capabilities()
        extra = [oracle for oracle in extra if oracle.is_applicable(capabilities)]
        if not extra or not spec.table_names():
            return
        if allocation is None:
            offset = rng.randrange(len(extra)) if len(extra) > 1 else 0
            budgets = allocate_query_budget(
                self.config.queries_per_round, len(extra), offset=offset
            )
        else:
            budgets = [allocation.get(oracle_arm(oracle.name), 0) for oracle in extra]
        for oracle, budget in zip(extra, budgets):
            if budget <= 0:
                continue
            if deadline is not None and time.perf_counter() >= deadline:
                # One slow pass must not drag the whole round past the
                # wall-clock budget: stop before the next family starts.
                trace.emit(
                    "deadline",
                    elapsed=time.perf_counter() - started,
                    phase=f"oracle:{oracle.name}",
                )
                break
            pass_started = time.perf_counter()
            outcome = oracle.check(spec, session_factory, capabilities, rng, budget)
            pass_wall = time.perf_counter() - pass_started
            result.materialise_seconds += outcome.materialise_seconds
            result.execute_seconds += max(0.0, pass_wall - outcome.materialise_seconds)
            elapsed = time.perf_counter() - started
            result.queries_run += outcome.queries_run
            result.queries_by_oracle[oracle.name] = (
                result.queries_by_oracle.get(oracle.name, 0) + outcome.queries_run
            )
            result.errors_ignored += outcome.errors_ignored
            novelty: dict[str, int] = {}
            arm = oracle_arm(oracle.name)
            for finding in outcome.findings:
                result.oracle_findings.append(finding)
                signatures_before = self.deduplicator.signature_count
                new_ids = self.deduplicator.observe_finding(finding, elapsed)
                self._record_finding(
                    trace,
                    novelty,
                    arm,
                    "oracle-finding",
                    signatures_before,
                    new_ids,
                    elapsed,
                    finding.signature,
                )
            for crash in outcome.crashes:
                result.crashes.append(crash)
                new_ids = self.deduplicator.observe_crash(crash, elapsed)
                trace.emit(
                    "finding",
                    elapsed=elapsed,
                    kind="crash",
                    arm=arm,
                    novel=bool(new_ids),
                    bug_ids=list(new_ids),
                )
            if self.scheduler is not None:
                self.scheduler.observe(arm, outcome.queries_run, novelty.get(arm, 0))

    def _global_cache_stats(self) -> dict[str, int]:
        """Snapshot of the process-level cache counters.

        Relate memo and WKT interner (both process-global) — what the round
        folds in as a before/after delta.
        """
        from repro.geometry.cache import geometry_cache_stats
        from repro.topology.relate import relate_cache_stats

        relate_stats = relate_cache_stats()
        interner = geometry_cache_stats()
        return {
            "relate_hits": relate_stats["hits"],
            "relate_misses": relate_stats["misses"],
            "interner_hits": interner["hits"],
            "interner_misses": interner["misses"],
            "interner_evictions": interner["evictions"],
        }

    def _collect_cache_stats(
        self,
        result: CampaignResult,
        connections: "list[SpatialDatabase]",
        global_before: dict[str, int],
    ) -> None:
        """Fold one round's cache counters into the campaign result.

        Prepared-cache counters are connection-scoped and summed directly;
        the relate and interner counters are process-global, so the round
        contributes its before/after delta (which also keeps shard results
        additive under the parallel merge).
        """
        totals = Counter(result.cache_stats)
        for connection in connections:
            totals.update(connection.cache_stats())
        global_after = self._global_cache_stats()
        totals.update(
            {key: value - global_before.get(key, 0) for key, value in global_after.items()}
        )
        result.cache_stats = dict(totals)
