"""One benchmark process: set up, run one campaign, print one JSON line.

Run by ``perfbench/run.py`` in a fresh interpreter per repetition, so no
memo, interner or plan cache carries over between repetitions and every
repetition pays its own set-up.  Modes:

* ``probe``  -- set up and run zero rounds (warms bytecode caches, checks
  the source tree imports);
* ``timed``  -- run the workload's fixed corpus untraced;
* ``traced`` -- the same, with the layer spans of :mod:`layers` installed;
* ``clean``  -- run the workload's configuration against the fixed engine
  (no injected bugs) for a wall-clock budget; it must report nothing.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` counts interpreter
start, imports, backend and campaign construction and, for the store
workload, store creation -- everything before the first round.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import REFERENCE_SAMPLE_S, WORKLOADS, campaign_kwargs  # noqa: E402


def finding_digest(result) -> str:
    """SHA-256 over a campaign's findings, in the order they were observed."""
    findings = {
        "unique_bug_ids": sorted(result.unique_bug_ids),
        "discrepancies": [discrepancy.describe() for discrepancy in result.discrepancies],
        "oracle_findings": [finding.signature() for finding in result.oracle_findings],
        "crashes": [
            [crash.bug_id, crash.statement, crash.message] for crash in result.crashes
        ],
    }
    text = json.dumps(findings, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def speed_loop():
    """A fixed slice of pure-Python work: exact fractions, dicts, sets, a sort.

    Its work resembles the campaign's, but it shares none of the program's
    code, so a change to the program cannot change how long it takes.
    """
    total = Fraction(0)
    table = {}
    seen = set()
    for index in range(1, 400):
        total += Fraction(index % 97, index % 89 + 1)
        table[index % 211] = (total.numerator % 7, index)
        seen.add(index * 7919 % 1009)
    return sorted(table.items(), key=lambda item: item[1])


def speed_sample() -> float:
    """Seconds one ``speed_loop`` takes now (median of three)."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        speed_loop()
        times.append(time.perf_counter() - started)
    return sorted(times)[1]


#: oracle passes, as (module, class); their ``check`` and every registered
#: scenario's ``build_queries`` are segment boundaries inside a round.
PASS_CLASSES = (
    ("repro.core.oracle", "AEIOracle"),
    ("repro.oracles.set_theoretic", "SetTheoreticJoinOracle"),
    ("repro.oracles.pqs", "PivotedQueryOracle"),
)

#: a boundary takes a speed sample only this long after the last one.
SAMPLE_GAP_S = 0.025


class Clock:
    """Round times, CPU time and machine speed of the campaign, from outside.

    Wraps ``TestingCampaign.run`` and chains a hook after whatever
    ``round_hook`` the caller installed (the store recorder on the store
    workload), so a round's time includes its store flush.  Round ends,
    oracle passes and scenario query builds cut the campaign into
    segments.  At a boundary at least ``SAMPLE_GAP_S`` after the last speed
    sample, a new sample is taken; its own time is in no segment.  Each
    segment is scaled by reference sample time / the mean of the last
    sample before it and the first sample after it.
    """

    def __init__(self, t0: float, tracer=None):
        self.t0 = t0
        self.tracer = tracer
        self.setup_s = None
        #: (taken at, seconds) of every speed sample
        self.samples: list[tuple[float, float]] = []
        #: (round, start, wall seconds, CPU seconds) of every segment
        self.segments: list[tuple[int, float, float, float]] = []
        self._round = 0
        self._last = None
        self._sample = speed_sample
        if tracer is not None:
            self._sample = tracer.wrap("speed_sample", "speed", speed_sample)

    def mark(self, round_over: bool = False) -> None:
        """Close the running segment; sample the speed if one is due."""
        wall, cpu = time.perf_counter(), time.process_time()
        if self._last is not None:
            start, start_cpu = self._last
            self.segments.append((self._round, start, wall - start, cpu - start_cpu))
        if round_over:
            self._round += 1
            if self.tracer is not None:
                self.tracer.round += 1
        if not self.samples or wall - self.samples[-1][0] >= SAMPLE_GAP_S:
            self.samples.append((wall, self._sample()))
        self._last = (time.perf_counter(), time.process_time())

    def install(self) -> None:
        from repro.core.campaign import TestingCampaign
        from repro.scenarios import all_scenarios

        clock = self
        run = TestingCampaign.run

        def timed_run(campaign, *args, **kwargs):
            inner = campaign.round_hook

            def hook(live, result):
                if inner is not None:
                    inner(live, result)
                clock.mark(round_over=True)

            campaign.round_hook = hook
            if clock.setup_s is None:
                clock.setup_s = time.monotonic() - clock.t0
            clock.mark()
            try:
                return run(campaign, *args, **kwargs)
            finally:
                campaign.round_hook = inner

        TestingCampaign.run = timed_run
        boundaries = {
            (getattr(importlib.import_module(module_name), class_name, None), "check")
            for module_name, class_name in PASS_CLASSES
        }
        boundaries.update(
            (owner, "build_queries")
            for scenario in all_scenarios()
            for owner in type(scenario).__mro__
        )
        for owner, name in boundaries:
            method = getattr(owner, "__dict__", {}).get(name)
            if method is not None:
                setattr(owner, name, self._marked(method))

    def _marked(self, method):
        def marked(*args, **kwargs):
            self.mark()
            return method(*args, **kwargs)

        return marked

    def rounds(self) -> tuple[list[float], list[float], float]:
        """Per-round wall seconds, the same scaled, and scaled CPU seconds."""
        wall = [0.0] * self._round
        scaled = [0.0] * self._round
        cpu = 0.0
        times = [taken for taken, _ in self.samples]
        for index, start, seconds, cpu_seconds in self.segments:
            if index >= self._round:
                continue
            after = bisect.bisect_left(times, start + seconds)
            before = max(0, bisect.bisect_right(times, start) - 1)
            around = [self.samples[before][1]]
            if after < len(times):
                around.append(self.samples[after][1])
            factor = REFERENCE_SAMPLE_S * len(around) / sum(around)
            wall[index] += seconds
            scaled[index] += seconds * factor
            cpu += cpu_seconds * factor
        return wall, scaled, cpu


def run_campaign(workload: str, seed: int, rounds: int | None, duration: float | None,
                 clean: bool, store_path: str):
    """Run one campaign of ``workload``; returns its ``CampaignResult``."""
    from repro.core.campaign import CampaignConfig, TestingCampaign

    config = CampaignConfig(**campaign_kwargs(workload, seed, clean=clean))
    if WORKLOADS[workload]["store"]:
        from repro.store.runner import run_store_campaign

        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(store_path + suffix):
                os.remove(store_path + suffix)
        _, result = run_store_campaign(
            store_path, config, rounds=rounds, duration_seconds=duration
        )
        return result
    return TestingCampaign(config).run(rounds=rounds, duration_seconds=duration)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("probe", "timed", "traced", "clean"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tag", default="run")
    args = parser.parse_args(argv)
    # A speed sample before the imports scales set-up together with the
    # sample taken as the first round starts; its own time is left out.
    sampled = time.perf_counter()
    start_sample = speed_sample()
    t0 = args.t0 + time.perf_counter() - sampled

    tracer = None
    if args.mode == "traced":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    clock = Clock(t0, tracer)
    clock.install()

    store_path = os.path.join(args.workdir, f"{args.tag}.sqlite")
    rounds = 0 if args.mode == "probe" else args.rounds
    result = run_campaign(
        args.workload, args.seed, rounds, args.duration, args.mode == "clean", store_path
    )
    store_db_bytes = sum(
        os.path.getsize(store_path + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(store_path + suffix)
    )

    if clock.setup_s is None:
        # zero rounds through the store runner never start a campaign loop
        clock.setup_s = time.monotonic() - t0
        clock.mark()
    bug_profile = set(result.config.resolved_bug_ids())
    round_wall, round_scaled, cpu_scaled = clock.rounds()
    report = {
        "setup_s": clock.setup_s,
        "setup_norm_s": (
            clock.setup_s * REFERENCE_SAMPLE_S * 2.0 / (start_sample + clock.samples[0][1])
        ),
        "round_s": round_wall,
        "round_norm_s": round_scaled,
        "cpu_norm_s": cpu_scaled,
        "speed_samples": [seconds for _, seconds in clock.samples],
        "rounds": result.rounds,
        "queries": result.queries_run,
        "errors_ignored": result.errors_ignored,
        "discrepancies": len(result.discrepancies),
        "oracle_findings": len(result.oracle_findings),
        "crashes": len(result.crashes),
        "unique_bugs": len(result.unique_bug_ids),
        "unattributed_bugs": sorted(set(result.unique_bug_ids) - bug_profile),
        "digest": finding_digest(result),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import layers

        queries_by_arm = {"aei": sum(result.queries_by_scenario.values())}
        queries_by_arm.update(result.queries_by_oracle)
        factors = [scaled / wall for wall, scaled in zip(round_wall, round_scaled)]
        metrics = layers.summarize(
            tracer, factors, result.cache_stats, queries_by_arm, store_db_bytes
        )
        report["layers"] = {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        }
        report["missing"] = tracer.missing
        trace_path = os.path.join(args.workdir, f"{args.tag}.spans.jsonl.gz")
        tracer.write(trace_path)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
