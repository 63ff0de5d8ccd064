"""Canonicalization (Section 4.3 of the paper).

Canonicalization converts a geometry's representation into an equivalent
canonical form without changing the point set it denotes.  The paper treats
it as the special case of AEI whose mapping matrix is the identity, and it
found several bugs on its own (Listings 5 and 6 were detected through
canonicalised follow-ups).

Two levels are applied:

* **element level** (MULTI and MIXED geometries only): EMPTY removal,
  homogenization (single-element MULTI collapses to its basic type, nested
  collections are flattened), duplicate-element removal, and reordering of
  the elements by dimension;
* **value level** (each basic element): consecutive duplicate coordinate
  removal and deterministic reordering (a LINESTRING is reversed when its
  endpoints compare descending; polygon rings are forced clockwise).

Canonicalization must preserve not only the denoted point set but every
DE-9IM relationship to other geometries.  The element-level rewrites are not
unconditionally safe, because regrouping elements changes how the relate
engine combines their interior/boundary classes:

* merging the LINESTRINGs of a GEOMETRYCOLLECTION into one MULTILINESTRING
  changes which endpoints the *mod-2* rule classifies as boundary (each
  collection element carries its own boundary, while a MULTILINESTRING
  pools endpoint parities), and removing a duplicated open line element
  flips the parity of both of its endpoints;
* merging overlapping POLYGONs into one MULTIPOLYGON trades the
  collection's union (interior-priority) semantics for the area component's
  boundary priority wherever one polygon's ring runs through another's
  interior.

The element-level result is therefore verified against the original by
sampling the arrangement of its segments the same way the relate engine
does (nodes and sub-segment midpoints), and when any classification would
change the geometry falls back to a structure-preserving canonical form
that only applies the value level to each element in place.
"""

from __future__ import annotations

from repro.geometry.model import (
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    _MultiGeometry,
)
from repro.geometry.primitives import ring_is_clockwise


#: memoised canonical forms keyed by WKT.  The oracle canonicalises every
#: geometry of every generated database, and the derivative strategy reuses
#: geometries across rounds, so repeats are common; the topology-preservation
#: check (which nodes the geometry's segments) makes each miss non-trivial.
_CANONICAL_CACHE: dict[str, Geometry] = {}
_CANONICAL_CACHE_LIMIT = 8192


def clear_canonical_cache() -> None:
    """Drop all memoised canonical forms (used by benchmarks and tests)."""
    _CANONICAL_CACHE.clear()


def canonicalize(geometry: Geometry) -> Geometry:
    """Return the canonical representation of a geometry."""
    if not isinstance(geometry, _MultiGeometry):
        return _canonicalize_basic(geometry)
    key = geometry.wkt
    cached = _CANONICAL_CACHE.get(key)
    if cached is not None:
        return cached
    candidate = _canonicalize_collection(geometry)
    if not _topology_preserved(geometry, candidate):
        candidate = _canonicalize_structure_preserving(geometry)
    if len(_CANONICAL_CACHE) >= _CANONICAL_CACHE_LIMIT:
        _CANONICAL_CACHE.clear()
    _CANONICAL_CACHE[key] = candidate
    return candidate


# --------------------------------------------------------------- element level
def _canonicalize_collection(geometry: _MultiGeometry) -> Geometry:
    # Step 1: flatten nested collections and drop EMPTY elements.
    elements = [element for element in _flatten_elements(geometry) if not element.is_empty]
    # Step 2: canonicalise each surviving element at the value level.
    elements = [_canonicalize_basic(element) for element in elements]
    # Step 3: remove duplicated elements (duplicates identified by shape).
    unique: list[Geometry] = []
    seen: set[str] = set()
    for element in elements:
        key = element.wkt
        if key in seen:
            continue
        seen.add(key)
        unique.append(element)
    # Step 4: reorder elements by dimension (then lexicographically for
    # determinism).
    unique.sort(key=lambda g: (g.dimension, g.wkt))

    if not unique:
        return GeometryCollection.empty()
    # Homogenization: a single element collapses to its basic type; a uniform
    # collection becomes the corresponding MULTI type.
    if len(unique) == 1:
        return unique[0]
    types = {type(element) for element in unique}
    if types == {Point}:
        return MultiPoint(unique)
    if types == {LineString}:
        return MultiLineString(unique)
    if types == {Polygon}:
        return MultiPolygon(unique)
    return GeometryCollection(unique)


def _flatten_elements(geometry: _MultiGeometry) -> list[Geometry]:
    elements: list[Geometry] = []
    for element in geometry.geoms:
        if isinstance(element, _MultiGeometry):
            elements.extend(_flatten_elements(element))
        else:
            elements.append(element)
    return elements


# ------------------------------------------------------- topology preservation
def _count_elements(geometry: Geometry, element_type: type) -> int:
    """Non-empty elements of one basic type, however deeply nested."""
    if isinstance(geometry, element_type):
        return 0 if geometry.is_empty else 1
    if isinstance(geometry, _MultiGeometry):
        return sum(_count_elements(element, element_type) for element in geometry.geoms)
    return 0


def _boundary_endpoints(descriptor) -> set:
    """Union of the mod-2 boundary points over all line components."""
    from repro.topology.labels import LinesComponent

    points = set()
    for component in descriptor.components:
        if isinstance(component, LinesComponent):
            points.update(component.boundary_points)
    return points


def _topology_preserved(original: Geometry, candidate: Geometry) -> bool:
    """True when the element-level rewrite keeps every DE-9IM relationship.

    Regrouping elements can only change point classifications *on* the
    geometry's own segments and isolated points (off-curve points are
    interior/exterior under every grouping), so the check samples the noded
    arrangement of both representations' segments — the nodes and edge
    midpoints the relate engine classifies — and compares the two point
    locators there.
    The mod-2 line boundary sets are compared as well, because relate reads
    them directly for boundary-dimension entries.
    """
    if (
        _count_elements(original, LineString) < 2
        and _count_elements(original, Polygon) < 2
    ):
        # A single line cannot change endpoint parity and a single polygon
        # cannot gain boundary priority over a sibling: nothing to verify.
        return True
    from repro.topology.labels import TopologyDescriptor
    from repro.topology.noding import midpoint, node_segments

    original_descriptor = TopologyDescriptor(original)
    candidate_descriptor = TopologyDescriptor(candidate)
    if _boundary_endpoints(original_descriptor) != _boundary_endpoints(candidate_descriptor):
        return False
    isolated = (
        original_descriptor.isolated_points() + candidate_descriptor.isolated_points()
    )
    noded = node_segments(
        original_descriptor.segments() + candidate_descriptor.segments(), isolated
    )
    probes = set(isolated)
    for start, end in noded:
        probes.add(start)
        probes.add(end)
        probes.add(midpoint(start, end))
    return all(
        original_descriptor.locate(point) == candidate_descriptor.locate(point)
        for point in probes
    )


def _canonicalize_structure_preserving(geometry: Geometry) -> Geometry:
    """Value-level canonicalization only, keeping the element structure.

    Used when the element-level rewrite would alter the geometry's topology;
    each element is canonicalised in place and the collection type, nesting
    and element order are all preserved.
    """
    if isinstance(geometry, _MultiGeometry):
        elements = [_canonicalize_structure_preserving(element) for element in geometry.geoms]
        return type(geometry)(elements)
    return _canonicalize_basic(geometry)


# ----------------------------------------------------------------- value level
def _canonicalize_basic(geometry: Geometry) -> Geometry:
    if isinstance(geometry, Point):
        return geometry
    if isinstance(geometry, LineString):
        return _canonicalize_linestring(geometry)
    if isinstance(geometry, Polygon):
        return _canonicalize_polygon(geometry)
    if isinstance(geometry, _MultiGeometry):  # nested call from collections
        return _canonicalize_collection(geometry)
    return geometry


def _remove_consecutive_duplicates(points: list) -> list:
    cleaned = []
    for point in points:
        if cleaned and cleaned[-1] == point:
            continue
        cleaned.append(point)
    return cleaned


def _canonicalize_linestring(line: LineString) -> LineString:
    if line.is_empty:
        return LineString.empty()
    points = _remove_consecutive_duplicates(list(line.points))
    if len(points) < 2:
        points = list(line.points)[:2]
    # Reorder by direction: compare endpoints on the x axis then the y axis
    # and reverse the linestring when they are descending.
    first, last = points[0], points[-1]
    if (last.x, last.y) < (first.x, first.y):
        points = list(reversed(points))
    return LineString(points)


def _canonicalize_polygon(polygon: Polygon) -> Polygon:
    if polygon.is_empty:
        return Polygon.empty()
    rings = []
    for ring in polygon.rings():
        cleaned = _remove_consecutive_duplicates(list(ring))
        if cleaned and cleaned[0] != cleaned[-1]:
            cleaned.append(cleaned[0])
        if len(set(cleaned)) < 3:
            # Degenerate ring: keep the original representation untouched so
            # canonicalization never turns a parsable geometry into an error.
            rings.append(list(ring))
            continue
        # Convert every loop to a clockwise orientation.
        interior = cleaned[:-1]
        if not ring_is_clockwise(cleaned):
            interior = list(reversed(interior))
        rings.append(interior + [interior[0]])
    return Polygon(rings[0], rings[1:])
