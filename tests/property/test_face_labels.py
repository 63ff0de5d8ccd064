"""Face labels from noding provenance against located side-offset witnesses.

``relate`` and the areal overlay label every arrangement edge and the two
faces beside it with ``TopologyDescriptor.label_edges``: from the edge
midpoint's ring crossing parities and the input segments the edge was cut
from, without building a point inside either face.  The oracle here is the
sampling that rule replaced: side-offset witnesses
(:class:`tests.property.witnesses.OffsetContext`), each located with the
scalar ``TopologyDescriptor.locate``, and the DE-9IM matrix those
witnesses give.  Seeded stdlib-``random`` sweeps (deterministic by
construction) cover ≥1000 arrangement pairs on both kernel settings and all
three collection strategies, drawn on a small grid so that shared and
collinear-overlapping edges, axis-parallel edges, holes, multipolygons,
GEOMETRYCOLLECTIONs and rings that traverse an edge twice are common.
Unit cases pin each direction branch of the rule, and a kernel-statistics
test shows the fast path never exact-checks a midpoint against its own
edges.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.geometry import load_wkt
from repro.geometry.columnar import (
    clear_kernel_stats,
    kernel_stats,
    set_fast_kernels,
    vectorized_kernels_enabled,
)
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
from repro.topology.labels import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    VALID_STRATEGIES,
    TopologyDescriptor,
)
from repro.topology.noding import midpoint, node_segments_with_sources
from repro.topology.relate import IntersectionMatrix, relate, relate_descriptors
from tests.property.witnesses import OffsetContext

PAIRS = 1000


# ---------------------------------------------------------------------------
# Arrangement generators: a 0..6 grid with occasional halves and thirds.
# ---------------------------------------------------------------------------


def _ordinate(rng):
    if rng.random() < 0.8:
        return Fraction(rng.randint(0, 6))
    return Fraction(rng.randint(0, 18), rng.choice((2, 3)))


def _coordinate(rng):
    return Coordinate(_ordinate(rng), _ordinate(rng))


def _rectangle(rng):
    x, y = rng.randint(0, 4), rng.randint(0, 4)
    width, height = rng.randint(1, 6 - x), rng.randint(1, 6 - y)
    return [(x, y), (x + width, y), (x + width, y + height), (x, y + height)]


def _spiked(rng, ring):
    """``ring`` with a spike: one vertex visited twice, so the spike edge is
    traversed there and back (``k = 2``)."""
    position = rng.randrange(len(ring))
    tip = _coordinate(rng)
    while tip == ring[position]:
        tip = _coordinate(rng)
    return ring[: position + 1] + [tip, ring[position]] + ring[position + 1 :]


def _ring(rng):
    kind = rng.random()
    if kind < 0.4:
        ring = _rectangle(rng)
    else:
        ring = [_coordinate(rng) for _ in range(rng.randint(3, 5))]
        while len(set(ring)) < 3:
            ring.append(_coordinate(rng))
    if rng.random() < 0.15:
        ring = _spiked(rng, ring)
    return ring


def _polygon(rng):
    exterior = _ring(rng)
    holes = []
    if rng.random() < 0.3:
        # A hole strictly inside a rectangle shell, or anywhere: invalid
        # polygons are located by the same rules.
        if rng.random() < 0.5:
            exterior = [(0, 0), (6, 0), (6, 6), (0, 6)]
            x, y = rng.randint(1, 3), rng.randint(1, 3)
            holes.append([(x, y), (x + 2, y), (x + 2, y + 2), (x, y + 2)])
        else:
            holes.append(_ring(rng))
    return Polygon(exterior, holes)


def _linestring(rng):
    points = [_coordinate(rng) for _ in range(rng.randint(2, 4))]
    while points[1] == points[0]:
        points[1] = _coordinate(rng)
    return LineString(points)


def _geometry(rng, depth=0):
    choice = rng.randrange(7 if depth == 0 else 3)
    if choice == 0:
        return Point(_coordinate(rng))
    if choice == 1:
        return _linestring(rng)
    if choice == 2:
        return _polygon(rng)
    if choice == 3:
        return MultiPoint([Point(_coordinate(rng)) for _ in range(rng.randint(1, 3))])
    if choice == 4:
        return MultiLineString([_linestring(rng) for _ in range(rng.randint(1, 3))])
    if choice == 5:
        return MultiPolygon([_polygon(rng) for _ in range(rng.randint(1, 3))])
    return GeometryCollection([_geometry(rng, depth + 1) for _ in range(rng.randint(1, 3))])


def _pair(rng):
    """Mostly areal pairs; a third share one shell edge or more."""
    a = _geometry(rng) if rng.random() < 0.4 else _polygon(rng)
    kind = rng.random()
    if kind < 0.35 and isinstance(a, Polygon):
        # The same shell, or one walked the other way round: every edge
        # is shared, once per geometry.
        ring = a.exterior[:-1]
        b = Polygon(ring if rng.random() < 0.5 else ring[::-1])
    elif kind < 0.5:
        b = MultiPolygon([_polygon(rng), _polygon(rng)])
    else:
        b = _geometry(rng) if rng.random() < 0.4 else _polygon(rng)
    return (a, b) if rng.random() < 0.5 else (b, a)


# ---------------------------------------------------------------------------
# The oracle: witnesses beside each edge, located one by one.
# ---------------------------------------------------------------------------


def _arrangement_edges(descriptor_a, descriptor_b):
    """relate's arrangement: distinct edges (first-seen sub-segment per
    midpoint) with the union of their sources, split per descriptor, and
    the nodes."""
    segments_a = descriptor_a.segments()
    points = descriptor_a.isolated_points() + descriptor_b.isolated_points()
    noded = node_segments_with_sources(segments_a + descriptor_b.segments(), points)
    nodes = set(points)
    edges = {}
    for segment, source in noded:
        nodes.update(segment)
        edges.setdefault(midpoint(*segment), (segment, set()))[1].add(source)
    split = len(segments_a)
    midpoints = list(edges)
    segments = [segment for segment, _ in edges.values()]
    sources_a = [sorted(s for s in own if s < split) for _, own in edges.values()]
    sources_b = [sorted(s - split for s in own if s >= split) for _, own in edges.values()]
    return midpoints, segments, sources_a, sources_b, nodes


def _witness_labels(descriptor, midpoints, segments, context):
    labels = []
    for mid, (a, b) in zip(midpoints, segments):
        left, right = context.side_offset_points(a, b)
        labels.append(
            (descriptor.locate(mid), descriptor.locate(left), descriptor.locate(right))
        )
    return labels


def _witness_matrix(labels_a, labels_b, nodes, descriptor_a, descriptor_b):
    matrix = IntersectionMatrix()
    matrix.set(EXTERIOR, EXTERIOR, 2)
    for node in nodes:
        matrix.set(descriptor_a.locate(node), descriptor_b.locate(node), 0)
    for witness_a, witness_b in zip(labels_a, labels_b):
        for dimension, class_a, class_b in zip((1, 2, 2), witness_a, witness_b):
            matrix.set(class_a, class_b, dimension)
    return matrix


def _with_kernels(enabled, action):
    previous = set_fast_kernels(enabled)
    try:
        return action()
    finally:
        set_fast_kernels(previous)


def test_face_labels_match_located_side_offset_witnesses():
    rng = random.Random(20260419)
    shared_edges = doubled_edges = 0
    for case in range(PAIRS):
        a, b = _pair(rng)
        # The strategies differ only in how components combine: a pair of
        # single-component descriptors takes them in turn.
        collections = any(
            len(TopologyDescriptor(g).components) > 1 for g in (a, b)
        )
        strategies = VALID_STRATEGIES if collections else [VALID_STRATEGIES[case % 3]]
        for strategy in strategies:
            descriptor_a = TopologyDescriptor(a, strategy)
            descriptor_b = TopologyDescriptor(b, strategy)
            midpoints, segments, sources_a, sources_b, nodes = _arrangement_edges(
                descriptor_a, descriptor_b
            )
            context = OffsetContext(segments, nodes)
            expected_a = _witness_labels(descriptor_a, midpoints, segments, context)
            expected_b = _witness_labels(descriptor_b, midpoints, segments, context)
            expected_matrix = _witness_matrix(
                expected_a, expected_b, nodes, descriptor_a, descriptor_b
            )
            for fast in (True, False):
                labels_a = _with_kernels(
                    fast,
                    lambda: descriptor_a.label_edges(midpoints, segments, sources_a),
                )
                labels_b = _with_kernels(
                    fast,
                    lambda: descriptor_b.label_edges(midpoints, segments, sources_b),
                )
                assert labels_a == expected_a, (fast, strategy, a.wkt, b.wkt)
                assert labels_b == expected_b, (fast, strategy, a.wkt, b.wkt)
                matrix = _with_kernels(
                    fast, lambda: relate_descriptors(descriptor_a, descriptor_b)
                )
                assert matrix == expected_matrix, (fast, strategy, a.wkt, b.wkt)
        shared_edges += sum(1 for own_a, own_b in zip(sources_a, sources_b) if own_a and own_b)
        doubled_edges += sum(1 for own in sources_a + sources_b if len(own) >= 2)
    # The sweep exercised edges of both geometries and repeated edges.
    assert shared_edges > PAIRS
    assert doubled_edges > PAIRS // 10


# ---------------------------------------------------------------------------
# Unit cases: every direction branch, and an edge traversed twice.
# ---------------------------------------------------------------------------

SQUARE = "POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))"
DIAMOND = "POLYGON((2 0, 4 2, 2 4, 0 2, 2 0))"


def _labels_of_own_edge(wkt, a, b, sources):
    """Labels of sub-segment ``a``-``b`` of ``wkt``'s own edges."""
    descriptor = TopologyDescriptor(load_wkt(wkt))
    start, end = Coordinate(*a), Coordinate(*b)
    return descriptor.label_edges([midpoint(start, end)], [(start, end)], [sources])[0]


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize(
    "wkt, a, b, sources, expected",
    [
        # Horizontal: the upper face keeps the midpoint's parity.
        (SQUARE, (1, 0), (3, 0), [0], (BOUNDARY, INTERIOR, EXTERIOR)),
        (SQUARE, (3, 0), (1, 0), [0], (BOUNDARY, EXTERIOR, INTERIOR)),
        (SQUARE, (3, 4), (1, 4), [2], (BOUNDARY, INTERIOR, EXTERIOR)),
        (SQUARE, (1, 4), (3, 4), [2], (BOUNDARY, EXTERIOR, INTERIOR)),
        # Vertical: the face left of the upward direction is flipped.
        (SQUARE, (4, 1), (4, 3), [1], (BOUNDARY, INTERIOR, EXTERIOR)),
        (SQUARE, (4, 3), (4, 1), [1], (BOUNDARY, EXTERIOR, INTERIOR)),
        (SQUARE, (0, 3), (0, 1), [3], (BOUNDARY, INTERIOR, EXTERIOR)),
        (SQUARE, (0, 1), (0, 3), [3], (BOUNDARY, EXTERIOR, INTERIOR)),
        # Positive slope: the upper face is the left of the upward one.
        (DIAMOND, (2, 0), (4, 2), [0], (BOUNDARY, INTERIOR, EXTERIOR)),
        (DIAMOND, (4, 2), (2, 0), [0], (BOUNDARY, EXTERIOR, INTERIOR)),
        (DIAMOND, (0, 2), (2, 4), [2], (BOUNDARY, EXTERIOR, INTERIOR)),
        # Negative slope: the lower face is the left of the upward one.
        (DIAMOND, (4, 2), (2, 4), [1], (BOUNDARY, INTERIOR, EXTERIOR)),
        (DIAMOND, (2, 4), (4, 2), [1], (BOUNDARY, EXTERIOR, INTERIOR)),
        (DIAMOND, (0, 2), (2, 0), [3], (BOUNDARY, INTERIOR, EXTERIOR)),
        # Off the ring, no sources: both faces are the midpoint's side.
        (SQUARE, (1, 1), (3, 3), [], (INTERIOR, INTERIOR, INTERIOR)),
        (DIAMOND, (3, 3), (5, 5), [], (EXTERIOR, EXTERIOR, EXTERIOR)),
    ],
)
def test_direction_branches(wkt, a, b, sources, expected, fast):
    labels = _with_kernels(fast, lambda: _labels_of_own_edge(wkt, a, b, sources))
    assert labels == expected


#: rings walking one edge there and back: a spike out of or into a square.
SPIKES = {
    "outward vertical": ("POLYGON((0 0, 4 0, 4 4, 2 4, 2 6, 2 4, 0 4, 0 0))", EXTERIOR),
    "inward vertical": ("POLYGON((0 0, 4 0, 4 4, 2 4, 2 2, 2 4, 0 4, 0 0))", INTERIOR),
    "inward horizontal": ("POLYGON((0 0, 4 0, 4 2, 2 2, 4 2, 4 4, 0 4, 0 0))", INTERIOR),
    "outward diagonal": ("POLYGON((0 0, 4 0, 4 4, 6 6, 4 4, 0 4, 0 0))", EXTERIOR),
    "inward diagonal": ("POLYGON((0 0, 4 0, 2 2, 4 0, 4 4, 0 4, 0 0))", INTERIOR),
}


@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("name", sorted(SPIKES))
def test_edge_traversed_twice(name, fast):
    wkt, side = SPIKES[name]
    spiked = load_wkt(wkt)
    descriptor = TopologyDescriptor(spiked)
    segments = descriptor.segments()
    # The spike is the only segment whose reverse is also a ring segment.
    spike = [i for i, (a, b) in enumerate(segments) if (b, a) in segments]
    assert len(spike) == 2
    a, b = segments[spike[0]]
    for start, end in ((a, b), (b, a)):
        labels = _with_kernels(
            fast,
            lambda: descriptor.label_edges(
                [midpoint(start, end)], [(start, end)], [spike]
            ),
        )
        # k = 2: the midpoint is on the ring, and both faces are on the
        # same side of it.
        assert labels == [(BOUNDARY, side, side)]
    # End to end: the spike is boundary along its whole length.
    line = LineString([a, b])
    assert str(_with_kernels(fast, lambda: relate(line, spiked))) == "F1FF0F212"


# ---------------------------------------------------------------------------
# Engagement: midpoints are never exact-checked against their own edges.
# ---------------------------------------------------------------------------

#: two quadrilaterals in general position: no vertex or crossing of one
#: shares a y with a midpoint of the other's edges, so every exact check
#: the fast path could make on a midpoint is one against its own edges.
ENGAGEMENT_A = "POLYGON((0 0, 10 1, 9 11, -1 7, 0 0))"
ENGAGEMENT_B = "POLYGON((5 -3, 14 4, 6 13, 3 5, 5 -3))"


def test_fast_path_skips_midpoints_own_edges():
    if not _with_kernels(True, vectorized_kernels_enabled):
        pytest.skip("numpy is not installed: there is no float filter to engage")
    a, b = load_wkt(ENGAGEMENT_A), load_wkt(ENGAGEMENT_B)
    descriptor_a, descriptor_b = TopologyDescriptor(a), TopologyDescriptor(b)
    midpoints, segments, sources_a, sources_b, nodes = _arrangement_edges(
        descriptor_a, descriptor_b
    )

    clear_kernel_stats()
    _with_kernels(True, lambda: descriptor_a.label_edges(midpoints, segments, sources_a))
    _with_kernels(True, lambda: descriptor_b.label_edges(midpoints, segments, sources_b))
    stats = kernel_stats()
    assert stats["ring_points"] == 2 * len(midpoints)
    assert stats["ring_exact_crossing_checks"] == 0
    assert stats["ring_exact_boundary_checks"] == 0

    # relate locates each node and each midpoint once per ring: witness
    # sampling would locate three points per edge.
    clear_kernel_stats()
    matrix = _with_kernels(True, lambda: relate_descriptors(descriptor_a, descriptor_b))
    assert kernel_stats()["ring_points"] == 2 * (len(nodes) + len(midpoints))
    assert str(matrix) == "212101212"
