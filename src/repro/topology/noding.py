"""Full noding of segment sets and arrangement sampling support.

The relate engine (:mod:`repro.topology.relate`) computes DE-9IM entries by
sampling witness points of the planar arrangement induced by *all* segments
of both geometries.  For that to be sound, every segment must be split at
every point where it meets any other segment (including collinear overlaps)
— after splitting, the classification of a point with respect to either
geometry is constant along the open interior of every sub-segment and on the
interior of every face.

The implementation is an O(n²) pairwise noder.  Side-offset witnesses —
the points just either side of a sub-segment's midpoint that sample the
arrangement's faces — are built exactly on an integer grid
(:class:`OffsetContext`), whichever path runs; the grid itself bounds every
midpoint's clearance from below, so no per-midpoint distance search is
needed.  The paper's generator produces geometries with a handful of
vertices, yet relate runs on every cold geometry pair, so the fast path
additionally prunes candidate segment pairs with a certified float
prescreen (:func:`~repro.geometry.columnar.segment_pair_candidates`); it
only skips work and never changes a result.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    segments = [s for s in segments if s[0] != s[1]]
    extra = list(extra_points)
    # Float prescreen (vectorized kernels only): pairs that certainly have
    # no intersection point skip the exact test.  ``None`` means no
    # prescreen: every other segment is a partner, none certainly proper.
    candidates = segment_pair_candidates(segments)
    # Intersections are symmetric in the pair: each unordered pair computes
    # its exact cut points once and the partner reuses them.
    pair_cache: dict[tuple[int, int], tuple[Coordinate, ...]] = {}
    result: list[Segment] = []
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
                result.append((start, end))
    return result


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


class OffsetContext:
    """Integer-grid view of one arrangement for side-offset witnesses.

    The context rescales every coordinate once onto a common integer grid:
    the scale ``S`` is twice the lcm of all coordinate denominators, so
    every node and every sub-segment midpoint has integer grid coordinates.
    That lattice gives a lower bound on every midpoint's clearance (the
    minimum positive squared distance to a node or to a segment not passing
    through it) without searching for the minimum: a node other than the
    midpoint is at least one grid unit away, and a segment ``PQ`` not
    containing it is at least ``1/|PQ|`` grid units away (either their
    cross product is a nonzero integer or the nearest point is an
    endpoint).  Every clearance is therefore at least ``1 / (L * S²)``,
    with ``L`` the largest squared segment length on the grid, and a
    witness offset below half that distance lies strictly inside a face.
    Queries must come from the arrangement the context was built for; a
    coordinate off its grid raises ``ValueError``.
    """

    def __init__(self, segments: Sequence[Segment], nodes: Iterable[Coordinate]):
        denominators = set()
        for point in nodes:
            denominators.add(point.x.denominator)
            denominators.add(point.y.denominator)
        for start, end in segments:
            denominators.add(start.x.denominator)
            denominators.add(start.y.denominator)
            denominators.add(end.x.denominator)
            denominators.add(end.y.denominator)
        self.scale = 2 * (math.lcm(*denominators) if denominators else 1)
        max_len = 0
        for start, end in segments:
            sx, sy = self._scaled(start)
            ex, ey = self._scaled(end)
            max_len = max(max_len, (ex - sx) ** 2 + (ey - sy) ** 2)
        self._max_len = max_len

    @property
    def clearance_bound(self) -> Fraction:
        """Lower bound on every midpoint's positive squared clearance."""
        return Fraction(1, max(self._max_len, 1) * self.scale**2)

    def _scaled(self, point: Coordinate) -> tuple[int, int]:
        x, y = point.x, point.y
        if self.scale % x.denominator or self.scale % y.denominator:
            # A context answers queries about its own arrangement only.
            raise ValueError(f"{point!r} is not on this context's grid")
        return (
            x.numerator * (self.scale // x.denominator),
            y.numerator * (self.scale // y.denominator),
        )

    def side_offset_points(
        self, a: Coordinate, b: Coordinate
    ) -> tuple[Coordinate, Coordinate]:
        """Two face-witness points just either side of segment ``a``–``b``'s
        midpoint.

        Each returned point's squared distance to the midpoint is below a
        quarter of :attr:`clearance_bound`, so it lies strictly inside one
        of the two arrangement faces adjacent to the segment at its
        midpoint."""
        ax, ay = self._scaled(a)
        bx, by = self._scaled(b)
        return self._offsets(ax, ay, bx, by)

    def face_witnesses(
        self, segments: Iterable[Segment]
    ) -> list[tuple[Coordinate, Coordinate, Coordinate]]:
        """``(midpoint, left, right)`` for every distinct midpoint of
        ``segments``, in first-seen order (duplicate sub-segments of
        overlapping inputs share a midpoint and are witnessed once)."""
        scale = self.scale
        seen: set[tuple[int, int]] = set()
        witnesses = []
        for a, b in segments:
            ax, ay = self._scaled(a)
            bx, by = self._scaled(b)
            mid = ((ax + bx) // 2, (ay + by) // 2)
            if mid in seen:
                continue
            seen.add(mid)
            left, right = self._offsets(ax, ay, bx, by)
            witnesses.append(
                (Coordinate(Fraction(mid[0], scale), Fraction(mid[1], scale)), left, right)
            )
        return witnesses

    def _offsets(
        self, ax: int, ay: int, bx: int, by: int
    ) -> tuple[Coordinate, Coordinate]:
        # Both endpoints are even multiples of the base lcm (scale = 2*lcm),
        # so the midpoint is integral on the same grid.
        mx, my = (ax + bx) // 2, (ay + by) // 2
        wx, wy = bx - ax, by - ay
        len_int = wx * wx + wy * wy
        # The witnesses are mid ± epsilon * normal, with epsilon the smaller
        # of 1/2 and bound/2, where bound = clearance / (4 * |ab|²) keeps
        # epsilon² * |ab|² below clearance / 4.  With the lattice clearance
        # 1 / (max_len * scale²) and |ab|² = len_int / scale², the scale
        # cancels: bound = 1 / bound_den.
        bound_den = 4 * self._max_len * len_int
        # Only a zero-length query reaches the cap (its normal is zero, so
        # both witnesses collapse onto the midpoint).
        eps_den = 2 * bound_den if bound_den else 2
        # normal = (-(b.y - a.y), b.x - a.x) scales to (-wy, wx); offsets are
        # (mid ± normal / eps_den) / scale on one common integer denominator.
        den = eps_den * self.scale
        left = Coordinate(
            Fraction(mx * eps_den - wy, den),
            Fraction(my * eps_den + wx, den),
        )
        right = Coordinate(
            Fraction(mx * eps_den + wy, den),
            Fraction(my * eps_den - wx, den),
        )
        return left, right
