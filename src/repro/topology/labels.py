"""Labelled decomposition of geometries into topological components.

The DE-9IM (Definition 2.3 of the paper) partitions the plane, for each
geometry, into *interior*, *boundary* and *exterior* point sets.  This module
turns a :class:`~repro.geometry.model.Geometry` into a
:class:`TopologyDescriptor` — a list of components, each of which can locate
an arbitrary point into one of the three classes:

* point components (POINT / MULTIPOINT): the coordinates are interior, the
  boundary is empty;
* line components (LINESTRING / MULTILINESTRING): the curve is interior
  except for the *mod-2* boundary endpoints (endpoints that belong to an odd
  number of elements); closed curves have an empty boundary;
* area components (POLYGON / MULTIPOLYGON): the open area is interior, the
  rings are the boundary.

GEOMETRYCOLLECTION components are combined with a configurable strategy.  The
default, ``"union"``, gives interior priority (a point interior to any
element is interior to the collection), which is the behaviour the paper's
Listing 6 treats as expected.  The ``"last_one_wins"`` and
``"boundary_priority"`` strategies reproduce the buggy and the
developer-proposed alternatives discussed in the paper and are selected by
the fault-injection layer, never by default.

Besides locating points, a descriptor labels the edges of an arrangement
that contains its segments (:meth:`TopologyDescriptor.label_edges`): each
edge's midpoint and the two faces beside it are classified from the
midpoint's ring crossing parities and the list of this geometry's segments
the edge was cut from, so relate never builds or locates a point inside a
face.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.geometry.model import (
    Coordinate,
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry.columnar import (
    PointColumns,
    RingLocator,
    SegmentsLocator,
    vectorized_kernels_enabled,
)
from repro.geometry.primitives import crossing_parity, point_in_ring, point_on_segment

INTERIOR = "I"
BOUNDARY = "B"
EXTERIOR = "E"

#: Strategies for combining element classes inside a GEOMETRYCOLLECTION.
UNION_STRATEGY = "union"
LAST_ONE_WINS_STRATEGY = "last_one_wins"
BOUNDARY_PRIORITY_STRATEGY = "boundary_priority"

VALID_STRATEGIES = (
    UNION_STRATEGY,
    LAST_ONE_WINS_STRATEGY,
    BOUNDARY_PRIORITY_STRATEGY,
)

Segment = tuple[Coordinate, Coordinate]


class _Component:
    """A homogeneous topological component with its own point locator."""

    dimension: int = 0

    def locate(self, point: Coordinate) -> str:
        raise NotImplementedError

    def locate_many(
        self, points: Sequence[Coordinate], columns: PointColumns | None = None
    ) -> list[str]:
        """Batch :meth:`locate`; subclasses may vectorize (reusing the shared
        float ``columns`` of the batch), results must be point-for-point
        identical to the scalar locator."""
        return [self.locate(point) for point in points]

    def label_edges(
        self,
        midpoints: Sequence[Coordinate],
        segments: Sequence[Segment],
        sources: Sequence[Sequence[int]],
        columns: PointColumns | None,
    ) -> list[tuple[str, str, str]]:
        """Classes of arrangement edges and of the faces beside them.

        ``segments[i]`` is a sub-segment ``(a, b)`` of a fully noded
        arrangement that contains this component's segments and isolated
        points, ``midpoints[i]`` is its midpoint and ``sources[i]`` lists
        the positions in :meth:`segments` of this component's segments that
        contain it.  ``columns`` is the midpoints' float conversion when the
        vectorized kernels are on (``None`` otherwise).  Returns, per
        sub-segment, what :meth:`locate` answers for its midpoint, for the
        face left of ``a``→``b`` and for the face right of it.
        """
        raise NotImplementedError

    def segments(self) -> list[Segment]:
        """Line segments contributed to the noding step (may be empty)."""
        return []

    def isolated_points(self) -> list[Coordinate]:
        """0-dimensional coordinates contributed to the noding step."""
        return []

    @property
    def is_empty(self) -> bool:
        raise NotImplementedError


class PointsComponent(_Component):
    """POINT / MULTIPOINT component: coordinates are interior points."""

    dimension = 0

    def __init__(self, coordinates: Iterable[Coordinate]):
        self.coordinates = set(coordinates)

    @property
    def is_empty(self) -> bool:
        return not self.coordinates

    def locate(self, point: Coordinate) -> str:
        return INTERIOR if point in self.coordinates else EXTERIOR

    def label_edges(self, midpoints, segments, sources, columns):
        # The coordinates are arrangement nodes: no edge or face holds one.
        return [(EXTERIOR, EXTERIOR, EXTERIOR)] * len(midpoints)

    def isolated_points(self) -> list[Coordinate]:
        return list(self.coordinates)


class LinesComponent(_Component):
    """LINESTRING / MULTILINESTRING component with mod-2 boundary."""

    dimension = 1

    def __init__(self, elements: Sequence[LineString]):
        self.elements = [e for e in elements if not e.is_empty]
        self._segments: list[Segment] = []
        self._degenerate_points: list[Coordinate] = []
        for element in self.elements:
            has_real_segment = False
            for a, b in element.segments():
                if a == b:
                    continue
                self._segments.append((a, b))
                has_real_segment = True
            if not has_real_segment and element.points:
                # A line collapsed to a single location behaves like a point.
                self._degenerate_points.append(element.points[0])
        self.boundary_points = self._mod2_boundary(self.elements)
        self._segments_locator: SegmentsLocator | None = None

    @staticmethod
    def _mod2_boundary(elements: Sequence[LineString]) -> set[Coordinate]:
        counts: Counter[Coordinate] = Counter()
        for element in elements:
            if not element.points:
                continue
            if len(set(element.points)) < 2:
                continue
            counts[element.points[0]] += 1
            counts[element.points[-1]] += 1
        return {coord for coord, count in counts.items() if count % 2 == 1}

    @property
    def is_empty(self) -> bool:
        return not self._segments and not self._degenerate_points

    def locate(self, point: Coordinate) -> str:
        if point in self.boundary_points:
            return BOUNDARY
        if point in self._degenerate_points:
            return INTERIOR
        for a, b in self._segments:
            if point_on_segment(point, a, b):
                return INTERIOR
        return EXTERIOR

    def locate_many(
        self, points: Sequence[Coordinate], columns: PointColumns | None = None
    ) -> list[str]:
        if not vectorized_kernels_enabled() or not self._segments:
            return [self.locate(point) for point in points]
        if self._segments_locator is None:
            self._segments_locator = SegmentsLocator(self._segments)
        on_segment = self._segments_locator.contains_many(points, columns)
        results = []
        for point, hit in zip(points, on_segment):
            if point in self.boundary_points:
                results.append(BOUNDARY)
            elif point in self._degenerate_points:
                results.append(INTERIOR)
            elif hit:
                results.append(INTERIOR)
            else:
                results.append(EXTERIOR)
        return results

    def label_edges(self, midpoints, segments, sources, columns):
        # Boundary and degenerate points are arrangement nodes, so an open
        # edge is interior exactly when one of these segments contains it.
        return [
            (INTERIOR if own else EXTERIOR, EXTERIOR, EXTERIOR) for own in sources
        ]

    def segments(self) -> list[Segment]:
        return list(self._segments)

    def isolated_points(self) -> list[Coordinate]:
        return list(self._degenerate_points)


class AreasComponent(_Component):
    """POLYGON / MULTIPOLYGON component: open area interior, rings boundary."""

    dimension = 2

    def __init__(self, polygons: Sequence[Polygon]):
        self.polygons = [p for p in polygons if not p.is_empty]
        #: every ring (closed), numbered exterior first then holes, polygon
        #: by polygon; ``_polygon_rings`` holds each polygon's numbers.
        self._rings: list[list[Coordinate]] = []
        self._polygon_rings: list[tuple[int, list[int]]] = []
        self._ring_segments: list[Segment] = []
        #: (ring number, edge position in the ring) of each ring segment.
        self._segment_edges: list[tuple[int, int]] = []
        for polygon in self.polygons:
            numbers = []
            for ring in polygon.rings():
                number = len(self._rings)
                numbers.append(number)
                self._rings.append(ring)
                for position, (a, b) in enumerate(zip(ring, ring[1:])):
                    if a != b:
                        self._ring_segments.append((a, b))
                        self._segment_edges.append((number, position))
            self._polygon_rings.append((numbers[0], numbers[1:]))
        self._ring_locators: list[RingLocator] | None = None

    @property
    def is_empty(self) -> bool:
        return not self.polygons

    def locate(self, point: Coordinate) -> str:
        found_interior = False
        for polygon in self.polygons:
            location = self._locate_in_polygon(point, polygon)
            if location == BOUNDARY:
                return BOUNDARY
            if location == INTERIOR:
                found_interior = True
        return INTERIOR if found_interior else EXTERIOR

    @staticmethod
    def _locate_in_polygon(point: Coordinate, polygon: Polygon) -> str:
        exterior_location = point_in_ring(point, polygon.exterior)
        if exterior_location == "boundary":
            return BOUNDARY
        if exterior_location == "exterior":
            return EXTERIOR
        for hole in polygon.holes:
            hole_location = point_in_ring(point, hole)
            if hole_location == "boundary":
                return BOUNDARY
            if hole_location == "interior":
                return EXTERIOR
        return INTERIOR

    def _locators(self) -> list[RingLocator]:
        if self._ring_locators is None:
            self._ring_locators = [RingLocator(ring) for ring in self._rings]
        return self._ring_locators

    def locate_many(
        self, points: Sequence[Coordinate], columns: PointColumns | None = None
    ) -> list[str]:
        if not vectorized_kernels_enabled() or not self.polygons:
            return [self.locate(point) for point in points]
        locators = self._locators()
        if columns is None:
            columns = PointColumns(points)
        results = [EXTERIOR] * len(points)
        # A BOUNDARY from any polygon is final; an INTERIOR keeps the point
        # in play because a later polygon's boundary still takes priority
        # (matching the scalar locator's early return on BOUNDARY only).
        active = list(range(len(points)))
        for exterior, holes in self._polygon_rings:
            if not active:
                break
            active_columns = columns.subset(active)
            located = locators[exterior].locate_many(active_columns.points, active_columns)
            still_active: list[int] = []
            in_exterior_ring: list[int] = []
            for index, location in zip(active, located):
                if location == "boundary":
                    results[index] = BOUNDARY
                elif location == "interior":
                    in_exterior_ring.append(index)
                else:
                    still_active.append(index)
            for hole in holes:
                if not in_exterior_ring:
                    break
                hole_columns = columns.subset(in_exterior_ring)
                located = locators[hole].locate_many(hole_columns.points, hole_columns)
                remaining: list[int] = []
                for index, location in zip(in_exterior_ring, located):
                    if location == "boundary":
                        results[index] = BOUNDARY
                    elif location == "interior":
                        # Inside a hole: exterior of this polygon.
                        still_active.append(index)
                    else:
                        remaining.append(index)
                in_exterior_ring = remaining
            for index in in_exterior_ring:
                results[index] = INTERIOR
                still_active.append(index)
            active = [i for i in still_active if results[i] != BOUNDARY]
        return results

    def label_edges(self, midpoints, segments, sources, columns):
        """Edge and face classes from each midpoint's crossing parity.

        For a ring, let ``k`` be the number of its edges containing the
        sub-segment ``s`` (read off ``sources``, no geometry test) and ``p``
        the :func:`crossing_parity` of the midpoint ``m``.  The midpoint is
        on the ring exactly when ``k > 0``, and otherwise inside it exactly
        when ``p`` is 1.  Every edge not containing ``m`` counts the same at
        ``m`` as just above ``m`` (the half-open rule), and just left of
        ``m`` too when ``s`` is vertical; the ``k`` edges along ``s`` count
        only on its ``-x`` side.  So the face on the ``-x`` side of a
        non-horizontal ``s`` has parity ``p ^ (k & 1)``, the face above a
        horizontal ``s`` has ``p``, and crossing ``s`` flips parity ``k``
        times, which gives the opposite face.  The face left of ``a``→``b``
        is the ``-x`` one when ``s`` points up, and the lower one when a
        horizontal ``s`` points left; either way the left face is
        ``p ^ (k & 1)`` for those directions and ``p`` for the others.
        Polygons, holes and components then combine the ring bits exactly
        as :meth:`locate` combines ring locations; a face is never on a
        ring.
        """
        n = len(midpoints)
        own: list[dict[int, list[int]]] = [{} for _ in self._rings]
        for i, local in enumerate(sources):
            for source in local:
                ring, position = self._segment_edges[source]
                own[ring].setdefault(i, []).append(position)
        left_flips = [a.y < b.y or (a.y == b.y and b.x < a.x) for a, b in segments]

        on_boundary = [False] * n
        in_interior = [False] * n
        left_in = [False] * n
        right_in = [False] * n
        everything = list(range(n))
        for exterior, holes in self._polygon_rings:
            # [midpoint class so far, left face inside, right face inside],
            # in _locate_in_polygon's order over the rings.
            state = [
                [BOUNDARY if on else INTERIOR if parity else EXTERIOR, left, right]
                for on, parity, left, right in self._ring_bits(
                    exterior, everything, midpoints, columns, own, left_flips
                )
            ]
            for hole in holes:
                # Only what is still inside the exterior ring needs the hole.
                probe = [
                    i
                    for i, (mid, left, right) in enumerate(state)
                    if mid == INTERIOR or left or right
                ]
                if not probe:
                    break
                bits = self._ring_bits(hole, probe, midpoints, columns, own, left_flips)
                for i, (on, parity, left, right) in zip(probe, bits):
                    entry = state[i]
                    if entry[0] == INTERIOR and (on or parity):
                        entry[0] = BOUNDARY if on else EXTERIOR
                    entry[1] = entry[1] and not left
                    entry[2] = entry[2] and not right
            for i, (mid, left, right) in enumerate(state):
                if mid == BOUNDARY:
                    on_boundary[i] = True
                elif mid == INTERIOR:
                    in_interior[i] = True
                left_in[i] = left_in[i] or left
                right_in[i] = right_in[i] or right
        return [
            (
                BOUNDARY if on_boundary[i] else INTERIOR if in_interior[i] else EXTERIOR,
                INTERIOR if left_in[i] else EXTERIOR,
                INTERIOR if right_in[i] else EXTERIOR,
            )
            for i in everything
        ]

    def _ring_bits(self, ring, indices, midpoints, columns, own, left_flips):
        """``(on ring, midpoint parity, left face parity, right face
        parity)`` over one ring for the midpoints at ``indices``."""
        own_ring = own[ring]
        points = [midpoints[i] for i in indices]
        own_edges = [own_ring.get(i, ()) for i in indices]
        if not vectorized_kernels_enabled():
            closed = self._rings[ring]
            parities = [crossing_parity(point, closed) for point in points]
        else:
            if len(indices) != len(columns.points):
                columns = columns.subset(indices)
            parities = self._locators()[ring].crossing_parity_many(
                points, columns, own_edges
            )
        bits = []
        for i, parity, edges in zip(indices, parities, own_edges):
            odd = len(edges) & 1
            left = parity ^ odd if left_flips[i] else parity
            bits.append((bool(edges), parity, left, left ^ odd))
        return bits

    def segments(self) -> list[Segment]:
        return list(self._ring_segments)


class TopologyDescriptor:
    """A geometry decomposed into locatable components."""

    def __init__(self, geometry: Geometry, collection_strategy: str = UNION_STRATEGY):
        if collection_strategy not in VALID_STRATEGIES:
            raise ValueError(f"unknown collection strategy {collection_strategy!r}")
        self.geometry = geometry
        self.collection_strategy = collection_strategy
        self.components: list[_Component] = []
        self._decompose(geometry)
        self.components = [c for c in self.components if not c.is_empty]

    def _decompose(self, geometry: Geometry) -> None:
        if isinstance(geometry, Point):
            if not geometry.is_empty:
                self.components.append(PointsComponent([geometry.coordinate]))
        elif isinstance(geometry, MultiPoint):
            coords = [p.coordinate for p in geometry.geoms if not p.is_empty]
            if coords:
                self.components.append(PointsComponent(coords))
        elif isinstance(geometry, LineString):
            if not geometry.is_empty:
                self.components.append(LinesComponent([geometry]))
        elif isinstance(geometry, MultiLineString):
            elements = [line for line in geometry.geoms if not line.is_empty]
            if elements:
                self.components.append(LinesComponent(elements))
        elif isinstance(geometry, Polygon):
            if not geometry.is_empty:
                self.components.append(AreasComponent([geometry]))
        elif isinstance(geometry, MultiPolygon):
            polygons = [p for p in geometry.geoms if not p.is_empty]
            if polygons:
                self.components.append(AreasComponent(polygons))
        elif isinstance(geometry, GeometryCollection):
            for element in geometry.geoms:
                self._decompose(element)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot decompose geometry type {type(geometry).__name__}")

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def dimension(self) -> int:
        """Topological dimension of the non-empty content (0 when empty)."""
        if self.is_empty:
            return 0
        return max(component.dimension for component in self.components)

    def locate(self, point: Coordinate) -> str:
        """Locate a point into interior / boundary / exterior of the geometry."""
        classes = [component.locate(point) for component in self.components]
        return combine_classes(classes, self.collection_strategy)

    def locate_many(
        self,
        points: Sequence[Coordinate],
        columns: PointColumns | None = None,
    ) -> list[str]:
        """Batch :meth:`locate` over many points (identical classifications).

        Components dispatch to their float-filtered batch locators when the
        vectorized kernels are enabled; otherwise this is the scalar locator
        in a loop.  ``columns`` optionally supplies the batch's float
        conversion (see :class:`~repro.geometry.columnar.PointColumns`), so
        callers locating one batch in several geometries convert it once;
        it is consulted only on the vectorized path.
        """
        points = list(points)
        if not points:
            return []
        if not self.components:
            return [EXTERIOR] * len(points)
        if not vectorized_kernels_enabled():
            columns = None
        elif columns is None:
            columns = PointColumns(points)
        per_component = [
            component.locate_many(points, columns) for component in self.components
        ]
        return [
            combine_classes(
                [column[i] for column in per_component], self.collection_strategy
            )
            for i in range(len(points))
        ]

    def label_edges(
        self,
        midpoints: Sequence[Coordinate],
        segments: Sequence[Segment],
        sources: Sequence[Sequence[int]],
        columns: PointColumns | None = None,
    ) -> list[tuple[str, str, str]]:
        """``(midpoint, left face, right face)`` classes of arrangement edges.

        ``segments[i]`` is a sub-segment ``(a, b)`` of a fully noded
        arrangement containing this geometry's :meth:`segments` and
        :meth:`isolated_points`, ``midpoints[i]`` is its midpoint and
        ``sources[i]`` lists the positions in :meth:`segments` of the
        segments containing it.  The classes are those :meth:`locate`
        gives the midpoint and points of the faces left and right of
        ``a``→``b`` (see :meth:`AreasComponent.label_edges`), without
        building or locating any point beside the edge.  ``columns``
        optionally supplies the midpoints' float conversion, as for
        :meth:`locate_many`.
        """
        midpoints = list(midpoints)
        if not self.components:
            return [(EXTERIOR, EXTERIOR, EXTERIOR)] * len(midpoints)
        if not vectorized_kernels_enabled():
            columns = None
        elif columns is None:
            columns = PointColumns(midpoints)
        if len(self.components) == 1:
            # One component: combine_classes of a single class is the class.
            return self.components[0].label_edges(midpoints, segments, sources, columns)
        per_component = []
        start = 0
        for component in self.components:
            # This component owns positions start:end of segments().
            end = start + len(component.segments())
            local = [[s - start for s in own if start <= s < end] for own in sources]
            per_component.append(
                component.label_edges(midpoints, segments, local, columns)
            )
            start = end
        strategy = self.collection_strategy
        return [
            tuple(
                combine_classes([labels[i][position] for labels in per_component], strategy)
                for position in range(3)
            )
            for i in range(len(midpoints))
        ]

    def segments(self) -> list[Segment]:
        """All line segments (line elements and polygon rings) for noding."""
        result: list[Segment] = []
        for component in self.components:
            result.extend(component.segments())
        return result

    def isolated_points(self) -> list[Coordinate]:
        """All 0-dimensional coordinates for noding."""
        result: list[Coordinate] = []
        for component in self.components:
            result.extend(component.isolated_points())
        return result


def combine_classes(classes: Sequence[str], strategy: str) -> str:
    """Combine per-component classes of one point into a single class.

    ``"union"`` gives interior priority, ``"boundary_priority"`` gives
    boundary priority, and ``"last_one_wins"`` keeps the class of the last
    component that contains the point (the GEOS bug discussed around the
    paper's Listing 6).
    """
    containing = [cls for cls in classes if cls != EXTERIOR]
    if not containing:
        return EXTERIOR
    if strategy == UNION_STRATEGY:
        return INTERIOR if INTERIOR in containing else BOUNDARY
    if strategy == BOUNDARY_PRIORITY_STRATEGY:
        return BOUNDARY if BOUNDARY in containing else INTERIOR
    if strategy == LAST_ONE_WINS_STRATEGY:
        return containing[-1]
    raise ValueError(f"unknown collection strategy {strategy!r}")
