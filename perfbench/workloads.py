"""Workload definitions shared by the runner and its worker processes.

Plain data only: the runner imports this module without importing the
program under test.  Every workload is one serial campaign (``workers=1``)
against the ``postgis`` release emulation with N=6 geometries over m=2
tables and 14 queries per round.

The timed corpus of a workload is fixed: the first ``rounds`` rounds of a
campaign seeded with ``CORPUS_SEED``.  Campaign rounds differ in cost by
two orders of magnitude (a few exact-arithmetic ``relate`` calls on
derived geometries can take seconds), so two seeds of equal length
differ by +-40% in cost; a fixed corpus keeps the figures about the
program, not about the draw.  ``--seed`` seeds the clean-engine soundness
campaign that every run also executes, so each run still covers new
inputs.
"""

from __future__ import annotations

#: campaign seed of every timed corpus (the reference seed of the repo's
#: documentation and re-anchor measurements).
CORPUS_SEED = 2025

#: the campaign shape every workload shares.
BASE_CONFIG = {
    "dialect": "postgis",
    "geometry_count": 6,
    "table_count": 2,
    "queries_per_round": 14,
    "workers": 1,
}

#: the timed work of one repetition takes about this long on a 2-CPU box;
#: ``--seconds`` buys one repetition per ``REPETITION_SECONDS``.
REPETITION_SECONDS = 5.0

#: how long one speed sample (``worker.speed_sample``) takes on the reference
#: machine; every reported time is scaled to that machine speed.
REFERENCE_SAMPLE_S = 0.0015

#: wall-clock budget of the untimed clean-engine campaign.
CLEAN_SECONDS = 3.0

WORKLOADS = {
    "campaign-inprocess": {
        "why": (
            "full registry (7 AEI scenarios, set-theoretic, pqs) in process, "
            "static scheduler: the headline campaign, dominated by cold relate"
        ),
        "config": {"backend": "inprocess"},
        "store": False,
        "rounds": 16,
    },
    "campaign-sqlite-store": {
        "why": (
            "same registry on the sqlite backend with the bandit scheduler and a "
            "findings store flushed every round: no plan cache or derived reuse"
        ),
        "config": {"backend": "sqlite", "scheduler": "bandit"},
        "store": True,
        "rounds": 16,
    },
    "aei-metric-knn": {
        "why": (
            "AEI only with knn, metric-area and metric-length: no relate calls, "
            "so canonicalization, executor and reuse dominate"
        ),
        "config": {
            "backend": "inprocess",
            "oracles": ["aei"],
            "scenarios": ["knn", "metric-area", "metric-length"],
        },
        "store": False,
        "rounds": 150,
    },
}


def campaign_kwargs(workload: str, seed: int, clean: bool = False) -> dict:
    """``CampaignConfig`` keyword arguments of one workload."""
    kwargs = dict(BASE_CONFIG)
    for key, value in WORKLOADS[workload]["config"].items():
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    kwargs["seed"] = seed
    kwargs["emulate_release_under_test"] = not clean
    return kwargs
