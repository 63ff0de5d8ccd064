"""Named topological relationships derived from the DE-9IM matrix.

The paper distinguishes *formal* topological relationships (the DE-9IM
matrix itself, Section 2.2) from *named* relationships (``ST_Intersects``,
``ST_Covers``, ...) which are defined as pattern matches over the matrix.
This module implements the OGC pattern definitions used by PostGIS, MySQL
and DuckDB Spatial.

Every predicate accepts an optional :class:`~repro.topology.relate.RelateOptions`
so the engine's fault-injection layer can swap in non-default collection
semantics without touching this module.
"""

from __future__ import annotations

from repro.geometry.model import Geometry
from repro.topology.relate import DEFAULT_OPTIONS, RelateOptions, relate

_COVERS_PATTERNS = ("T*****FF*", "*T****FF*", "***T**FF*", "****T*FF*")
_COVERED_BY_PATTERNS = ("T*F**F***", "*TF**F***", "**FT*F***", "**F*TF***")


def relate_pattern(
    a: Geometry, b: Geometry, pattern: str, options: RelateOptions = DEFAULT_OPTIONS
) -> bool:
    """True if the DE-9IM matrix of (a, b) matches the given pattern."""
    return relate(a, b, options).matches(pattern)


def _dimension(geometry: Geometry, options: RelateOptions) -> int:
    """Topological dimension of the non-empty content of a geometry."""
    from repro.topology.labels import TopologyDescriptor

    return TopologyDescriptor(geometry, options.collection_strategy).dimension


def intersects(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if the geometries share at least one point."""
    return not disjoint(a, b, options)


def disjoint(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if the geometries share no point at all."""
    return relate(a, b, options).matches("FF*FF****")


def equals(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if the geometries are topologically equal (same point set)."""
    if a.is_empty and b.is_empty:
        return True
    return relate(a, b, options).matches("T*F**FFF*")


def touches(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if the geometries intersect only at their boundaries."""
    matrix = relate(a, b, options)
    return (
        matrix.matches("FT*******")
        or matrix.matches("F**T*****")
        or matrix.matches("F***T****")
    )


def within(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if ``a`` lies in ``b`` and their interiors share a point."""
    return relate(a, b, options).matches("T*F**F***")


def contains(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if ``b`` lies in ``a`` and their interiors share a point."""
    return within(b, a, options)


def covers(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if no point of ``b`` lies in the exterior of ``a``."""
    if a.is_empty or b.is_empty:
        return False
    matrix = relate(a, b, options)
    return any(matrix.matches(pattern) for pattern in _COVERS_PATTERNS)


def covered_by(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if no point of ``a`` lies in the exterior of ``b``."""
    if a.is_empty or b.is_empty:
        return False
    matrix = relate(a, b, options)
    return any(matrix.matches(pattern) for pattern in _COVERED_BY_PATTERNS)


def crosses(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if the geometries cross: they share interior points, but the
    intersection has lower dimension than the higher-dimensional input and is
    not equal to either geometry."""
    dim_a = _dimension(a, options)
    dim_b = _dimension(b, options)
    matrix = relate(a, b, options)
    if dim_a < dim_b:
        return matrix.matches("T*T******")
    if dim_a > dim_b:
        return matrix.matches("T*****T**")
    if dim_a == 1 and dim_b == 1:
        return matrix.matches("0********")
    return False


def overlaps(a: Geometry, b: Geometry, options: RelateOptions = DEFAULT_OPTIONS) -> bool:
    """True if the geometries share interior points of their common
    dimension, but neither is contained in the other."""
    dim_a = _dimension(a, options)
    dim_b = _dimension(b, options)
    if dim_a != dim_b:
        return False
    matrix = relate(a, b, options)
    if dim_a == 1:
        return matrix.matches("1*T***T**")
    return matrix.matches("T*T***T**")
