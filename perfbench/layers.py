"""Benchmark-owned spans around the program's layer boundaries.

The program is measured from outside: :func:`install` replaces each
layer's public callables with wrappers that record a span (name, round,
start, end, parent, self time).  Self time is the span's duration minus the
time its child spans cover, so the layer table adds up to the campaign's
wall time less whatever no wrapped layer claims (``trace.other_s``).

Functions are replaced in *every* ``repro`` module that holds them, since
callers import them by name (``repro.engine.registry.relate``,
``repro.core.oracle.canonicalize``, ``repro.engine.database.parse_script``
...).  Modules are reached through ``sys.modules``: ``repro.topology``
re-exports ``relate``, so the attribute path ``repro.topology.relate``
names the function, not the module.  A target that no longer exists is
skipped and listed in :attr:`Tracer.missing`, so the trace keeps working
after the program is refactored.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

#: layer group -> wrapped callables, as (module, qualified name).  Scenario
#: methods are added per registered scenario class by :func:`install`.
LAYERS = {
    "campaign": [("repro.core.campaign", "TestingCampaign.run")],
    "relate.memo": [("repro.topology.relate", "relate")],
    "relate.cold": [("repro.topology.relate", "relate_descriptors")],
    "canonical": [("repro.core.canonical", "canonicalize")],
    "materialise": [
        ("repro.core.oracle", "AEIOracle.materialise"),
        ("repro.core.oracle", "AEIOracle.derive_followup"),
        ("repro.core.oracle", "AEIOracle.build_followup_spec"),
    ],
    "engine": [
        ("repro.engine.database", "SpatialDatabase.execute"),
        ("repro.engine.database", "SpatialDatabase.execute_parsed"),
        ("repro.engine.database", "SpatialDatabase.load_geometry_tables"),
        ("repro.backends.sqlite", "SQLiteSession.execute"),
    ],
    "parse": [("repro.engine.parser", "parse_script")],
    "plan": [("repro.engine.plancache", "PlanCache.prepare")],
    "batch": [("repro.engine.vectorized", "BatchSelectPlan.execute")],
    "arm.aei": [("repro.core.oracle", "AEIOracle.check")],
    "arm.set-theoretic": [("repro.oracles.set_theoretic", "SetTheoreticJoinOracle.check")],
    "arm.pqs": [("repro.oracles.pqs", "PivotedQueryOracle.check")],
    "dedup": [
        ("repro.core.dedup", "Deduplicator.observe_discrepancy"),
        ("repro.core.dedup", "Deduplicator.observe_finding"),
        ("repro.core.dedup", "Deduplicator.observe_divergence"),
        ("repro.core.dedup", "Deduplicator.observe_crash"),
    ],
    "scheduler": [
        ("repro.core.scheduler", "BanditScheduler.allocate"),
        ("repro.core.scheduler", "BanditScheduler.observe"),
    ],
    "store": [
        ("repro.store.runner", "ShardRecorder.on_round"),
        ("repro.store.findings", "FindingsStore.record_finding"),
        ("repro.store.findings", "FindingsStore.record_trace_events"),
        ("repro.store.findings", "FindingsStore.save_checkpoint"),
        ("repro.store.findings", "FindingsStore.save_arm_stats"),
    ],
    "generator": [("repro.core.generator", "GeometryAwareGenerator.generate")],
}

#: scenario methods wrapped on every registered scenario class.
SCENARIO_METHODS = {
    "build_queries": "scenario.build",
    "expected_followup": "compare",
    "results_match": "compare",
}

#: layers whose wrapped calls count executed statements, not calls.
STATEMENT_LAYERS = ("engine",)

#: span groups of the benchmark's own work (speed samples); their time is
#: left out of every layer's inclusive time.
BENCHMARK_GROUPS = ("speed",)


class Tracer:
    """A span stack plus the in-memory span list it fills."""

    def __init__(self):
        #: span id -> (name, round, start, end, parent id, self seconds,
        #: seconds of nested benchmark spans)
        self.spans: list = []
        #: span name -> layer group
        self.groups: dict[str, str] = {}
        #: span name -> statements executed (engine layer only)
        self.statements: dict[str, int] = {}
        #: summed sizes of the checkpoint blobs the store wrote
        self.checkpoint_bytes = 0
        #: round of the spans now being recorded (a span's request id)
        self.round = 0
        #: wrap targets that do not exist in this version of the program
        self.missing: list[str] = []
        self._stack: list[list] = []

    def wrap(self, name: str, group: str, fn):
        """``fn`` recording one span per call under ``name``."""
        self.groups[name] = group
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_statements = group in STATEMENT_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span_id = len(spans)
            spans.append(None)
            # [id, time in child spans, time in nested benchmark spans]
            frame = [span_id, 0.0, 0.0]
            stack.append(frame)
            before = args[0].stats.statements if count_statements else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                excluded = duration if group in BENCHMARK_GROUPS else frame[2]
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2] += excluded
                spans[span_id] = (
                    name, self.round, start, end, parent, duration - frame[1], excluded
                )
                if count_statements:
                    self.statements[name] = (
                        self.statements.get(name, 0) + args[0].stats.statements - before
                    )

        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line (gzip), unscaled."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(
                ["name", "round", "start", "end", "parent", "self_s", "benchmark_s"]
            ) + "\n")
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")


def _target(module_name: str, qualname: str):
    """``(owner, attribute, value)`` of a wrap target, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(attribute)
    else:
        value = getattr(owner, attribute, None)
    if value is None:
        return None
    return owner, attribute, value


def _replace_function(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _patch(tracer: Tracer, group: str, module_name: str, qualname: str) -> None:
    found = _target(module_name, qualname)
    if found is None:
        tracer.missing.append(f"{module_name}:{qualname}")
        return
    owner, attribute, value = found
    if isinstance(owner, type):
        name = f"{owner.__name__}.{attribute}"
        if isinstance(value, staticmethod):
            setattr(owner, attribute, staticmethod(tracer.wrap(name, group, value.__func__)))
        else:
            setattr(owner, attribute, tracer.wrap(name, group, value))
    else:
        _replace_function(value, tracer.wrap(attribute, group, value))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the program.

    A module imported later picks up the wrapped function from the module
    that defines it, so only modules already loaded need rebinding.
    """
    for group, targets in LAYERS.items():
        for module_name, qualname in targets:
            _patch(tracer, group, module_name, qualname)

    from repro.scenarios import all_scenarios

    patched: set[tuple[type, str]] = set()
    for scenario in all_scenarios():
        for cls in type(scenario).__mro__:
            for method, group in SCENARIO_METHODS.items():
                if method in cls.__dict__ and (cls, method) not in patched:
                    patched.add((cls, method))
                    _patch(tracer, group, cls.__module__, f"{cls.__qualname__}.{method}")

    checkpoint = _target("repro.store.checkpoint", "CheckpointState.to_blob")
    if checkpoint is None:
        tracer.missing.append("repro.store.checkpoint:CheckpointState.to_blob")
    else:
        owner, attribute, to_blob = checkpoint

        @functools.wraps(to_blob)
        def counted(self):
            blob = to_blob(self)
            tracer.checkpoint_bytes += len(blob)
            return blob

        setattr(owner, attribute, counted)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def summarize(
    tracer: Tracer, factors: list[float], cache_stats: dict, queries_by_arm: dict,
    store_db_bytes: int,
) -> dict:
    """The per-layer metrics of one traced campaign.

    Times are scaled by their round's speed factor, like the end-to-end
    times; spans after the last round take the last round's factor.
    """
    # (name, scaled inclusive, scaled self, raw inclusive, raw self); inclusive
    # times leave out nested speed samples
    spans = []
    for name, round_index, start, end, _, self_time, excluded in tracer.spans:
        factor = factors[min(round_index, len(factors) - 1)] if factors else 1.0
        inclusive = end - start - excluded
        spans.append((name, inclusive * factor, self_time * factor, inclusive, self_time))
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, _, self_time, _, _ in spans:
        if tracer.groups[name] in BENCHMARK_GROUPS:
            continue
        self_s[name] = self_s.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1

    def group_self(group: str) -> float:
        return sum(seconds for name, seconds in self_s.items() if tracer.groups[name] == group)

    def group_calls(group: str) -> int:
        return sum(count for name, count in calls.items() if tracer.groups[name] == group)

    def group_inclusive(group: str) -> float:
        return sum(span[1] for span in spans if tracer.groups[span[0]] == group)

    # coverage is a ratio of unscaled times
    campaign_raw = sum(span[3] for span in spans if tracer.groups[span[0]] == "campaign")
    campaign_self_raw = sum(span[4] for span in spans if tracer.groups[span[0]] == "campaign")
    flushes = [span[1] * 1000.0 for span in spans if span[0] == "ShardRecorder.on_round"]
    relate_calls = group_calls("relate.memo")
    cold_calls = group_calls("relate.cold")
    metrics = {
        "relate.calls": (relate_calls, "count"),
        "relate.cold_calls": (cold_calls, "count"),
        "relate.cold_s": (group_self("relate.cold"), "s"),
        "relate.memo_s": (group_self("relate.memo"), "s"),
        "relate.hit_ratio": (_ratio(relate_calls - cold_calls, cold_calls), "ratio"),
        "canonical.self_s": (group_self("canonical"), "s"),
        "canonical.calls": (calls.get("canonicalize", 0), "count"),
        "materialise.self_s": (group_self("materialise"), "s"),
        "materialise.calls": (calls.get("AEIOracle.materialise", 0), "count"),
        "reuse.derived_databases": (cache_stats.get("reuse_derived_databases", 0), "count"),
        "reuse.fallback_databases": (cache_stats.get("reuse_fallback_databases", 0), "count"),
        "engine.self_s": (group_self("engine"), "s"),
        "engine.statements": (sum(tracer.statements.values()), "count"),
        "parse.self_s": (group_self("parse"), "s"),
        "parse.calls": (group_calls("parse"), "count"),
        "plan.self_s": (group_self("plan"), "s"),
        "plan.hit_ratio": (
            _ratio(cache_stats.get("plan_hits", 0), cache_stats.get("plan_misses", 0)),
            "ratio",
        ),
        "batch.self_s": (group_self("batch"), "s"),
        "batch.calls": (group_calls("batch"), "count"),
        "prepared.hit_ratio": (
            _ratio(cache_stats.get("prepared_hits", 0), cache_stats.get("prepared_misses", 0)),
            "ratio",
        ),
        "scenario.build_s": (group_self("scenario.build"), "s"),
        "compare.self_s": (group_self("compare"), "s"),
        "dedup.self_s": (group_self("dedup"), "s"),
        "dedup.calls": (group_calls("dedup"), "count"),
        "scheduler.self_s": (group_self("scheduler"), "s"),
        "store.flush_s": (group_self("store"), "s"),
        "store.flush_ms.p90": (percentile(flushes, 0.9), "ms"),
        "store.checkpoint_bytes": (tracer.checkpoint_bytes, "bytes"),
        "store.db_bytes": (store_db_bytes, "bytes"),
        "interner.hit_ratio": (
            _ratio(cache_stats.get("interner_hits", 0), cache_stats.get("interner_misses", 0)),
            "ratio",
        ),
        "interner.evictions": (cache_stats.get("interner_evictions", 0), "count"),
        "generator.self_s": (group_self("generator"), "s"),
        "generator.calls": (group_calls("generator"), "count"),
        "trace.other_s": (group_self("campaign"), "s"),
        "trace.self_s": (sum(self_s.values()), "s"),
        "trace.coverage": (
            1.0 - campaign_self_raw / campaign_raw if campaign_raw > 0 else 0.0, "ratio"
        ),
        "trace.spans": (sum(calls.values()), "count"),
    }
    for arm in ("aei", "set-theoretic", "pqs"):
        metrics[f"arm.{arm}.s"] = (group_inclusive(f"arm.{arm}"), "s")
        metrics[f"arm.{arm}.queries"] = (queries_by_arm.get(arm, 0), "count")
    return metrics
