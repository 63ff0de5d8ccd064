"""Full noding of segment sets into arrangement edges.

The relate engine (:mod:`repro.topology.relate`) and the areal overlay
(:mod:`repro.overlay.regions`) work on the planar arrangement induced by
*all* segments of both geometries.  For that to be sound, every segment must
be split at every point where it meets any other segment (including
collinear overlaps) — after splitting, the classification of a point with
respect to either geometry is constant along the open interior of every
sub-segment and on the interior of every face.
:func:`node_segments_with_sources` also reports which input segment each
sub-segment was cut from, and :func:`arrangement_edges` groups the copies of
one edge (one per input segment containing it) under its endpoint pair: the
union of their sources is exactly the set of input segments containing the
edge, which is all
:meth:`~repro.topology.labels.TopologyDescriptor.label_edges` needs to
classify the faces on both sides of the edge without sampling them.

The implementation is an O(n²) pairwise noder.  The paper's generator
produces geometries with a handful of vertices, yet relate runs on every
cold geometry pair, so the fast path additionally prunes candidate segment
pairs with a certified float prescreen
(:func:`~repro.geometry.columnar.segment_pair_candidates`); it only skips
work and never changes a result.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry.columnar import segment_pair_candidates
from repro.geometry.model import Coordinate
from repro.geometry.primitives import (
    COLLINEAR,
    _line_intersection_point,
    orientation,
    point_on_segment,
    segment_intersection,
)

Segment = tuple[Coordinate, Coordinate]


def node_segments(
    segments: Sequence[Segment], extra_points: Iterable[Coordinate] = ()
) -> list[Segment]:
    """Split every segment at every intersection with any other segment.

    ``extra_points`` (isolated point primitives) are also used as split
    points when they lie on a segment.  Zero-length input segments are
    dropped; the output contains only non-degenerate sub-segments whose open
    interiors are pairwise disjoint.
    """
    return [segment for segment, _ in node_segments_with_sources(segments, extra_points)]


def node_segments_with_sources(
    segments: Sequence[Segment], extra_points: Iterable[Coordinate] = ()
) -> list[tuple[Segment, int]]:
    """:func:`node_segments`, each sub-segment paired with the position in
    ``segments`` of the input segment it was cut from.

    Every input segment is cut at every node on it, so a sub-segment lying
    on several inputs (shared or collinear-overlapping edges) is emitted
    once per input, each copy with its own source position.
    """
    sources = [index for index, (a, b) in enumerate(segments) if a != b]
    segments = [segments[index] for index in sources]
    extra = list(extra_points)
    # Float prescreen (vectorized kernels only): pairs that certainly have
    # no intersection point skip the exact test.  ``None`` means no
    # prescreen: every other segment is a partner, none certainly proper.
    candidates = segment_pair_candidates(segments)
    # Intersections are symmetric in the pair: each unordered pair computes
    # its exact cut points once and the partner reuses them.
    pair_cache: dict[tuple[int, int], tuple[Coordinate, ...]] = {}
    result: list[tuple[Segment, int]] = []
    for index, (a, b) in enumerate(segments):
        cut_points: set[Coordinate] = {a, b}
        partner_indices = (
            ((other, False) for other in range(len(segments)) if other != index)
            if candidates is None
            else candidates[index]
        )
        for other_index, certainly_proper in partner_indices:
            c, d = segments[other_index]
            pair_key = (
                (index, other_index) if index < other_index else (other_index, index)
            )
            if certainly_proper:
                cached = pair_cache.get(pair_key)
                if cached is None:
                    # The prescreen certified a single interior crossing;
                    # the exact orientation preamble of segment_intersection
                    # would only re-derive that before computing the point.
                    point = _line_intersection_point(a, b, c, d)
                    cached = () if point is None else (point,)
                    pair_cache[pair_key] = cached
                cut_points.update(cached)
                continue
            # Exact shared-endpoint shortcuts (ring adjacency dominates the
            # candidate pairs): segments with identical endpoint sets overlap
            # exactly along themselves, and two non-collinear segments with
            # one common endpoint meet only there — in both cases every cut
            # point is already an endpoint of this segment.
            a_shared = a == c or a == d
            b_shared = b == c or b == d
            if a_shared and b_shared:
                continue
            if a_shared or b_shared:
                shared, other_own = (a, b) if a_shared else (b, a)
                other_partner = d if shared == c else c
                if orientation(shared, other_own, other_partner) != COLLINEAR:
                    continue
            cached = pair_cache.get(pair_key)
            if cached is None:
                cached = tuple(segment_intersection(a, b, c, d))
                pair_cache[pair_key] = cached
            cut_points.update(cached)
        for point in extra:
            if point_on_segment(point, a, b):
                cut_points.add(point)
        ordered = _order_along_segment(a, b, cut_points)
        for start, end in zip(ordered, ordered[1:]):
            if start != end:
                result.append(((start, end), sources[index]))
    return result


def arrangement_edges(
    segments: Sequence[Segment], extra_points: Iterable[Coordinate] = ()
) -> list[tuple[Segment, list[int]]]:
    """The distinct edges of the noded arrangement of ``segments``, in
    first-seen order and orientation, each with the positions in
    ``segments`` of every input segment containing it.

    Distinct sub-segments have distinct endpoint pairs, so the copies of
    one edge — cut from different inputs, possibly walked the other way —
    meet under one key with no arithmetic.
    """
    edges: dict[Segment, list[int]] = {}
    for (start, end), source in node_segments_with_sources(segments, extra_points):
        sources = edges.get((start, end))
        if sources is None:
            sources = edges.get((end, start))
            if sources is None:
                sources = edges[(start, end)] = []
        sources.append(source)
    return list(edges.items())


def _order_along_segment(
    a: Coordinate, b: Coordinate, points: set[Coordinate]
) -> list[Coordinate]:
    """Order split points along the segment from ``a`` to ``b``.

    All points are collinear with the segment, so the affine parameter is a
    strictly monotone function of ``x`` (of ``y`` for vertical segments),
    and sorting by that ordinate gives the parameter order.
    """
    if b.x != a.x:
        return sorted(points, key=lambda p: p.x, reverse=b.x < a.x)
    return sorted(points, key=lambda p: p.y, reverse=b.y < a.y)


def midpoint(a: Coordinate, b: Coordinate) -> Coordinate:
    """Exact midpoint of a segment."""
    return Coordinate((a.x + b.x) / 2, (a.y + b.y) / 2)
