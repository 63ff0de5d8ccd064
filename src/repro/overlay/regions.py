"""Areal (2-dimensional) overlay: boundary extraction and ring assembly.

The areal part of an overlay result is a regularised region of the plane.
Its boundary consists of exactly those arrangement edges whose two adjacent
faces disagree about membership in the result region.  This module

1. nodes the polygon rings of both inputs,
2. classifies the two faces adjacent to every noded edge from the input
   rings containing it
   (:meth:`~repro.topology.labels.TopologyDescriptor.label_edges`, the
   labelling relate uses),
3. keeps the edges where membership flips, oriented so the result region
   lies on their left,
4. assembles the directed edges into rings by always taking the
   clockwise-most outgoing edge (a planar face traversal), and
5. groups counter-clockwise rings (shells) with the clockwise rings (holes)
   they contain.

All computations are exact; no floating-point tolerance is involved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Sequence

from repro.geometry.model import Coordinate, Geometry, MultiPolygon, Polygon, flatten
from repro.geometry.primitives import point_in_ring, ring_signed_area
from repro.topology.labels import EXTERIOR, TopologyDescriptor
from repro.topology.noding import arrangement_edges
from repro.topology.relate import label_arrangement

Segment = tuple[Coordinate, Coordinate]
DirectedEdge = tuple[Coordinate, Coordinate]
MembershipRule = Callable[[bool, bool], bool]


def areal_part(geometry: Geometry) -> MultiPolygon:
    """The polygonal elements of a geometry as a MULTIPOLYGON (maybe empty)."""
    polygons = [
        element
        for element in flatten(geometry)
        if isinstance(element, Polygon) and not element.is_empty
    ]
    return MultiPolygon(polygons)


def _undirected_key(segment: Segment) -> tuple:
    a, b = segment
    first = (a.x, a.y)
    second = (b.x, b.y)
    return (first, second) if first <= second else (second, first)


def areal_overlay(a: Geometry, b: Geometry, keep: MembershipRule) -> list[Polygon]:
    """Polygons forming the areal part of the overlay of ``a`` and ``b``.

    ``keep(in_a, in_b)`` decides whether a face whose closure membership in
    the two inputs is ``(in_a, in_b)`` belongs to the result region.
    """
    area_a = areal_part(a)
    area_b = areal_part(b)
    descriptor_a = TopologyDescriptor(area_a)
    descriptor_b = TopologyDescriptor(area_b)
    if descriptor_a.is_empty and descriptor_b.is_empty:
        return []

    segments_a = descriptor_a.segments()
    edges = arrangement_edges(segments_a + descriptor_b.segments())
    labels_a, labels_b = label_arrangement(
        descriptor_a, descriptor_b, edges, len(segments_a)
    )
    boundary_edges: list[DirectedEdge] = []
    for (segment, _), (_, left_a, right_a), (_, left_b, right_b) in zip(
        edges, labels_a, labels_b
    ):
        # A face is never on a ring: a class other than EXTERIOR is inside.
        left_in = keep(left_a != EXTERIOR, left_b != EXTERIOR)
        right_in = keep(right_a != EXTERIOR, right_b != EXTERIOR)
        if left_in == right_in:
            continue
        if left_in:
            boundary_edges.append(segment)
        else:
            boundary_edges.append((segment[1], segment[0]))

    if not boundary_edges:
        return []
    rings = assemble_rings(boundary_edges)
    return build_polygons(rings)


# ---------------------------------------------------------------------------
# Directed-edge ring assembly.
# ---------------------------------------------------------------------------
def _direction_comparator(reference: tuple[Fraction, Fraction]):
    """Compare direction vectors by counter-clockwise angle from ``reference``.

    The twin direction (parallel and equal to ``reference``) sorts first,
    vectors just counter-clockwise of it next, and the vector just clockwise
    of the reference sorts last — so ``max`` picks the clockwise-most turn.
    """
    rx, ry = reference

    def sector(vector: tuple[Fraction, Fraction]) -> int:
        vx, vy = vector
        cross = rx * vy - ry * vx
        dot = rx * vx + ry * vy
        if cross == 0:
            return 0 if dot > 0 else 2
        return 1 if cross > 0 else 3

    def compare(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> int:
        sector_u, sector_v = sector(u), sector(v)
        if sector_u != sector_v:
            return -1 if sector_u < sector_v else 1
        cross = u[0] * v[1] - u[1] * v[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return compare


def _next_edge(
    incoming: DirectedEdge, outgoing: Sequence[DirectedEdge]
) -> DirectedEdge | None:
    """The outgoing edge continuing the face to the left of ``incoming``.

    This is the clockwise-most outgoing edge measured from the reversed
    incoming direction, the standard planar face-traversal rule.
    """
    if not outgoing:
        return None
    origin = incoming[1]
    reverse_direction = (incoming[0].x - origin.x, incoming[0].y - origin.y)
    compare = _direction_comparator(reverse_direction)

    def direction(edge: DirectedEdge) -> tuple[Fraction, Fraction]:
        return (edge[1].x - origin.x, edge[1].y - origin.y)

    return max(outgoing, key=cmp_to_key(lambda e1, e2: compare(direction(e1), direction(e2))))


def assemble_rings(directed_edges: Sequence[DirectedEdge]) -> list[list[Coordinate]]:
    """Assemble directed boundary edges (region on the left) into closed rings."""
    outgoing: dict[Coordinate, list[DirectedEdge]] = {}
    for edge in directed_edges:
        outgoing.setdefault(edge[0], []).append(edge)

    unused = set(directed_edges)
    rings: list[list[Coordinate]] = []
    for start_edge in directed_edges:
        if start_edge not in unused:
            continue
        ring = [start_edge[0]]
        edge = start_edge
        while True:
            unused.discard(edge)
            ring.append(edge[1])
            candidates = [e for e in outgoing.get(edge[1], []) if e in unused or e == start_edge]
            nxt = _next_edge(edge, candidates)
            if nxt is None or nxt == start_edge:
                break
            edge = nxt
        if len(ring) >= 4 and ring[0] == ring[-1]:
            rings.append(ring)
    return rings


def representative_vertex_inside(ring: Sequence[Coordinate], shell: Sequence[Coordinate]) -> bool:
    """True if some vertex of ``ring`` lies strictly inside ``shell``.

    Falls back to boundary containment when every vertex lies on the shell
    (degenerate nesting), which still identifies the smallest enclosing
    shell correctly for hole assignment.
    """
    on_boundary = 0
    for vertex in ring:
        location = point_in_ring(vertex, shell)
        if location == "interior":
            return True
        if location == "boundary":
            on_boundary += 1
    return on_boundary == len(list(ring)) and on_boundary > 0


def build_polygons(rings: Sequence[list[Coordinate]]) -> list[Polygon]:
    """Group assembled rings into polygons: CCW rings are shells, CW are holes."""
    shells: list[list[Coordinate]] = []
    holes: list[list[Coordinate]] = []
    for ring in rings:
        signed = ring_signed_area(ring)
        if signed > 0:
            shells.append(ring)
        elif signed < 0:
            holes.append(ring)

    if not shells:
        return []

    assigned: dict[int, list[list[Coordinate]]] = {index: [] for index in range(len(shells))}
    for hole in holes:
        best_index: int | None = None
        best_area: Fraction | None = None
        for index, shell in enumerate(shells):
            if not representative_vertex_inside(hole, shell):
                continue
            shell_area = abs(ring_signed_area(shell))
            if best_area is None or shell_area < best_area:
                best_area = shell_area
                best_index = index
        if best_index is not None:
            assigned[best_index].append(hole)

    return [Polygon(shell, assigned[index]) for index, shell in enumerate(shells)]
