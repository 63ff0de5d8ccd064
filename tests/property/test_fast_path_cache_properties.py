"""Randomized equivalence of cached and direct predicate evaluation.

Seeded stdlib-``random`` sweeps (no hypothesis dependency, deterministic by
construction) over every geometry type — GEOMETRYCOLLECTION and EMPTY
variants included — asserting that

* ``topology.relate`` returns the same matrix through the identity/WKT memo
  as a direct ``relate_descriptors`` computation;
* every prepared-cache-routed predicate equals its direct
  ``topology.predicates`` counterpart, hit or miss, under both collection
  strategies;
* the noder agrees with its direct ``Fraction`` construction (kept here
  as an oracle), and the integer-grid side-offset witnesses stay inside
  the exact clearance the ``Fraction`` oracle computes, on ≥1000 seeded
  arrangements, with and without the fast path.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.engine.database import connect
from repro.engine.prepared import PreparedGeometryCache
from repro.geometry import load_wkt
from repro.geometry.model import (
    Coordinate,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry.primitives import CLOCKWISE, COUNTERCLOCKWISE
from repro.topology import predicates
from repro.topology.labels import LAST_ONE_WINS_STRATEGY, TopologyDescriptor
from repro.topology.relate import (
    RelateOptions,
    clear_relate_cache,
    relate,
    relate_descriptors,
)
from tests.property import test_exact_predicates as exact

CASES = 200
ORACLE_CASES = 1000

#: direct implementations of every prepared-cache-routed predicate.
_DIRECT = {
    "st_intersects": predicates.intersects,
    "st_equals": predicates.equals,
    "st_touches": predicates.touches,
    "st_within": predicates.within,
    "st_contains": predicates.contains,
    "st_covers": predicates.covers,
    "st_coveredby": predicates.covered_by,
    "st_overlaps": predicates.overlaps,
    "st_crosses": predicates.crosses,
}


def _coordinate(rng: random.Random):
    return (
        Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))),
        Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))),
    )


def _point(rng, allow_empty=True):
    if allow_empty and rng.random() < 0.15:
        return Point.empty()
    return Point(_coordinate(rng))


def _linestring(rng, allow_empty=True):
    if allow_empty and rng.random() < 0.1:
        return LineString.empty()
    count = rng.randint(2, 4)
    points = [_coordinate(rng) for _ in range(count)]
    while points[0] == points[1]:
        points[1] = _coordinate(rng)
    return LineString(points)


def _polygon(rng, allow_empty=True):
    if allow_empty and rng.random() < 0.1:
        return Polygon.empty()
    x, y = rng.randint(-8, 8), rng.randint(-8, 8)
    width = rng.randint(1, 5)
    height = rng.randint(1, 5)
    return Polygon([(x, y), (x + width, y), (x + width, y + height), (x, y + height)])


def _geometry(rng, depth=0):
    choice = rng.randrange(7 if depth == 0 else 3)
    if choice == 0:
        return _point(rng)
    if choice == 1:
        return _linestring(rng)
    if choice == 2:
        return _polygon(rng)
    if choice == 3:
        return MultiPoint([_point(rng) for _ in range(rng.randint(0, 3))])
    if choice == 4:
        return MultiLineString([_linestring(rng) for _ in range(rng.randint(0, 2))])
    if choice == 5:
        return MultiPolygon([_polygon(rng, allow_empty=False) for _ in range(rng.randint(0, 2))])
    return GeometryCollection([_geometry(rng, depth + 1) for _ in range(rng.randint(0, 3))])


def test_cached_relate_equals_direct_computation():
    rng = random.Random(20250728)
    clear_relate_cache()
    for case in range(CASES):
        a = _geometry(rng)
        b = _geometry(rng)
        strategy = (
            LAST_ONE_WINS_STRATEGY if case % 5 == 0 else RelateOptions().collection_strategy
        )
        options = RelateOptions(collection_strategy=strategy)
        direct = relate_descriptors(
            TopologyDescriptor(a, strategy), TopologyDescriptor(b, strategy)
        )
        via_cache_cold = relate(a, b, options)
        via_cache_warm = relate(a, b, options)  # identity-memo hit
        via_wkt_key = relate(load_wkt(a.wkt), load_wkt(b.wkt), options)
        assert str(direct) == str(via_cache_cold) == str(via_cache_warm) == str(via_wkt_key)


def test_prepared_cached_predicates_equal_direct_evaluation():
    rng = random.Random(424242)
    cache = PreparedGeometryCache(buggy_collection_repeat=False, capacity=64)
    for _ in range(CASES):
        a = _geometry(rng)
        b = _geometry(rng)
        name = rng.choice(sorted(_DIRECT))
        direct = _DIRECT[name]
        expected = bool(direct(a, b))
        cold = cache.evaluate(name, a, b, lambda: direct(a, b))
        warm = cache.evaluate(name, a, b, lambda: direct(a, b))
        assert cold == warm == expected, (name, a.wkt, b.wkt)
    assert cache.hits >= CASES  # every case re-probed once
    assert cache.evictions > 0  # the tiny capacity forced eviction traffic


def test_registry_fast_path_matches_direct_predicates():
    """End to end through the clean engine: SQL-level results with every
    cache warm equal the direct topology evaluation."""
    rng = random.Random(1797)
    database = connect("postgis", bug_ids=[], fast_path=True)
    for _ in range(60):
        a = _geometry(rng)
        b = _geometry(rng)
        name = rng.choice(sorted(_DIRECT))
        sql = (
            f"SELECT {name}('{a.wkt}'::geometry, '{b.wkt}'::geometry)"
        )
        expected = bool(_DIRECT[name](a, b))
        assert database.query_value(sql) == expected, sql
        assert database.query_value(sql) == expected, sql  # warm repeat


# ---------------------------------------------------------------------------
# Fraction oracles for the side-offset witnesses and the noder: the direct
# rational constructions the integer-grid code replaced.
# ---------------------------------------------------------------------------


def _squared_distance(p, q):
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def _segment_point_squared_distance(p, a, b):
    if a == b:
        return _squared_distance(p, a)
    t = ((b.x - a.x) * (p.x - a.x) + (b.y - a.y) * (p.y - a.y)) / _squared_distance(a, b)
    if t <= 0:
        return _squared_distance(p, a)
    if t >= 1:
        return _squared_distance(p, b)
    foot = Coordinate(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return _squared_distance(p, foot)


def _clearance_oracle(mid, segments, nodes):
    """Minimum positive squared distance from ``mid`` to every node and to
    every segment not passing through it (None when there is none)."""
    best = None
    for node in nodes:
        d_sq = _squared_distance(mid, node)
        if d_sq > 0 and (best is None or d_sq < best):
            best = d_sq
    for a, b in segments:
        if exact._point_on_segment(mid, a, b):
            continue
        d_sq = _segment_point_squared_distance(mid, a, b)
        if d_sq > 0 and (best is None or d_sq < best):
            best = d_sq
    return best


def _node_segments_oracle(segments, extra_points=()):
    """The pairwise noding loop: every pair, every extra point, split points
    sorted by their affine parameter along the segment."""
    segments = [s for s in segments if s[0] != s[1]]
    result = []
    for index, (a, b) in enumerate(segments):
        cut_points = {a, b}
        for other_index, (c, d) in enumerate(segments):
            if other_index != index:
                cut_points.update(exact._segment_intersection(a, b, c, d))
        for point in extra_points:
            if exact._point_on_segment(point, a, b):
                cut_points.add(point)

        def parameter(p, a=a, b=b):
            if b.x != a.x:
                return (p.x - a.x) / (b.x - a.x)
            return (p.y - a.y) / (b.y - a.y)

        ordered = sorted(cut_points, key=parameter)
        for start, end in zip(ordered, ordered[1:]):
            if start != end:
                result.append((start, end))
    return result


def _arrangement(pool):
    """A few segments (collinear overlaps, shared and on-segment endpoints,
    zero-length pieces, huge-denominator witnesses) plus extra points, some
    placed exactly at segment midpoints."""
    rng = pool.rng
    segments = []
    for _ in range(rng.randint(1, 2)):
        a1, a2, b1, b2 = pool.segment_pair()
        segments.extend([(a1, a2), (b1, b2)])
    extra = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            a, b = rng.choice(segments)
            extra.append(Coordinate((a.x + b.x) / 2, (a.y + b.y) / 2))
        else:
            extra.append(pool.point())
    return segments, extra


def assert_witness_properties(context, a, b, mid, clearance):
    """The properties relate relies on, checked in exact Fractions: the
    lattice bound never exceeds the true minimum positive clearance, both
    witnesses sit closer to the midpoint than half that clearance, and they
    lie strictly left and right of the directed segment."""
    left, right = context.side_offset_points(a, b)
    if clearance is not None:
        assert context.clearance_bound <= clearance, (a, b)
        assert 4 * _squared_distance(mid, left) < clearance, (a, b)
        assert 4 * _squared_distance(mid, right) < clearance, (a, b)
    assert exact._orientation(a, b, left) == COUNTERCLOCKWISE, (a, b)
    assert exact._orientation(a, b, right) == CLOCKWISE, (a, b)


def test_fast_clearance_kernel_matches_reference():
    """The noder on both paths equals the Fraction oracle above, and the
    integer-grid side-offset witnesses keep the clearance properties relate
    relies on against the exact clearance oracle."""
    from repro.geometry.columnar import set_fast_kernels
    from repro.topology import noding

    pool = exact._Pool(97)
    for _ in range(ORACLE_CASES):
        segments, extra = _arrangement(pool)

        expected = _node_segments_oracle(segments, extra)
        for fast in (False, True):
            previous = set_fast_kernels(fast)
            try:
                assert noding.node_segments(segments, extra) == expected, (fast, segments)
            finally:
                set_fast_kernels(previous)

        nodes = set(extra)
        for start, end in expected:
            nodes.add(start)
            nodes.add(end)
        # The noded arrangement with its nodes (what relate and overlay
        # query), and the raw segments with only the extra points as nodes:
        # there, clearances come from the segment terms, zero-length
        # segments and collinear pieces included.
        for arrangement, arrangement_nodes in ((expected, nodes), (segments, set(extra))):
            context = noding.OffsetContext(arrangement, arrangement_nodes)
            for a, b in arrangement:
                if a == b:
                    continue
                mid = Coordinate((a.x + b.x) / 2, (a.y + b.y) / 2)
                clearance = _clearance_oracle(mid, arrangement, arrangement_nodes)
                assert_witness_properties(context, a, b, mid, clearance)

        # relate's batch: one (midpoint, left, right) per distinct midpoint
        # of the noded arrangement, in first-seen order.
        context = noding.OffsetContext(expected, nodes)
        first_segment = {}
        for a, b in expected:
            first_segment.setdefault(Coordinate((a.x + b.x) / 2, (a.y + b.y) / 2), (a, b))
        assert context.face_witnesses(expected) == [
            (mid, *context.side_offset_points(a, b)) for mid, (a, b) in first_segment.items()
        ]


def test_interned_parser_returns_equal_shared_objects():
    from repro.geometry.wkt import load_wkt as raw_parse

    rng = random.Random(5151)
    for _ in range(CASES):
        geometry = _geometry(rng)
        text = geometry.wkt
        first = load_wkt(text)
        second = load_wkt(text)
        assert first is second  # interned
        # The interned result is indistinguishable from an un-interned parse
        # of the same text (WKT itself may round rationals to float repr,
        # which is the serializer's documented behaviour, not the cache's).
        reference = raw_parse(text)
        assert first is not reference
        assert first.wkt == reference.wkt
        assert first.envelope() == reference.envelope()
