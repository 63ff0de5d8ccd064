"""Bounded LRU regression for the WKT/WKB interner.

The interner once grew without bound for the life of the process;
``spatter serve`` can run campaigns for days, so the tables are now capped
LRUs.  These tests pin the bound (a long synthetic load never exceeds the
cap), the recency discipline (the least recently *used* entry goes first,
not the least recently inserted) and the eviction counters in
``geometry_cache_stats()``.
"""

from __future__ import annotations

import pytest

from repro.geometry.cache import (
    clear_geometry_cache,
    geometry_cache_stats,
    load_hex_wkb_interned,
    load_wkt_interned,
    set_geometry_cache_limit,
)
from repro.geometry.wkb import dump_hex_wkb
from repro.geometry.wkt import load_wkt as parse_wkt_raw


@pytest.fixture()
def tiny_cache():
    """A cold interner capped at 4 entries; everything restored afterwards."""
    clear_geometry_cache()
    previous = set_geometry_cache_limit(4)
    yield
    set_geometry_cache_limit(previous)
    clear_geometry_cache()


def _point(index: int) -> str:
    return f"POINT({index} {index})"


def test_long_load_stays_under_the_cap(tiny_cache):
    for index in range(100):
        load_wkt_interned(_point(index))
    stats = geometry_cache_stats()
    assert stats["wkt_entries"] == 4
    assert stats["misses"] == 100
    assert stats["evictions"] == 96


def test_eviction_is_least_recently_used_not_least_recently_inserted(tiny_cache):
    first = load_wkt_interned(_point(0))
    for index in range(1, 4):
        load_wkt_interned(_point(index))
    # Touch the oldest entry, then overflow: the hit refreshes its recency,
    # so the *second* oldest is the one evicted.
    assert load_wkt_interned(_point(0)) is first
    load_wkt_interned(_point(4))
    assert load_wkt_interned(_point(0)) is first  # still interned: a hit
    stats = geometry_cache_stats()
    assert stats["evictions"] == 1
    before = geometry_cache_stats()["misses"]
    load_wkt_interned(_point(1))  # the evicted one re-parses: a miss
    assert geometry_cache_stats()["misses"] == before + 1


def test_shrinking_the_limit_evicts_immediately(tiny_cache):
    for index in range(4):
        load_wkt_interned(_point(index))
    assert set_geometry_cache_limit(2) == 4
    stats = geometry_cache_stats()
    assert stats["wkt_entries"] == 2
    assert stats["evictions"] == 2
    # The survivors are the two most recent entries.
    assert geometry_cache_stats()["hits"] == 0
    load_wkt_interned(_point(3))
    assert geometry_cache_stats()["hits"] == 1


def test_wkb_table_is_bounded_too(tiny_cache):
    texts = [dump_hex_wkb(parse_wkt_raw(_point(index))) for index in range(6)]
    for text in texts:
        load_hex_wkb_interned(text)
    stats = geometry_cache_stats()
    assert stats["wkb_entries"] == 4
    assert stats["evictions"] == 2
    assert load_hex_wkb_interned(texts[-1]) is load_hex_wkb_interned(texts[-1])
