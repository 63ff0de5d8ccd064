"""Geometry accessor functions (``ST_GeometryN``, ``ST_PointN``, ...).

These mirror the accessors the paper's derivative strategy relies on for its
multi-dimensional editing functions (Table 1): fetching the N-th element of a
MULTI or MIXED geometry, counting elements and points, and reading point
ordinates.  Indexing is 1-based, matching SQL conventions.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import GeometryTypeError
from repro.geometry.model import (
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    _MultiGeometry,
)


def num_geometries(geometry: Geometry) -> int:
    """Number of elements of a MULTI or MIXED geometry (1 for basic types).

    Empty geometries report zero, matching PostGIS ``ST_NumGeometries``.
    """
    if geometry.is_empty:
        return 0
    if isinstance(geometry, _MultiGeometry):
        return len(geometry.geoms)
    return 1


def geometry_n(geometry: Geometry, index: int) -> Geometry | None:
    """The ``index``-th (1-based) element of a MULTI or MIXED geometry.

    Basic geometries return themselves for index 1.  Out-of-range indexes
    return None (SQL NULL), matching PostGIS.
    """
    if isinstance(geometry, _MultiGeometry):
        if 1 <= index <= len(geometry.geoms):
            return geometry.geoms[index - 1]
        return None
    if index == 1 and not geometry.is_empty:
        return geometry
    return None


def num_points(geometry: Geometry) -> int | None:
    """Number of points of a LINESTRING (None for other types)."""
    if isinstance(geometry, LineString):
        return len(geometry.points)
    return None


def point_n(geometry: Geometry, index: int) -> Point | None:
    """The ``index``-th (1-based) point of a LINESTRING, or None."""
    if not isinstance(geometry, LineString):
        return None
    if 1 <= index <= len(geometry.points):
        return Point(geometry.points[index - 1])
    return None


def x_of(geometry: Geometry) -> Fraction | None:
    """X ordinate of a POINT (None for EMPTY or non-point geometries)."""
    if isinstance(geometry, Point) and not geometry.is_empty:
        return geometry.x
    return None


def y_of(geometry: Geometry) -> Fraction | None:
    """Y ordinate of a POINT (None for EMPTY or non-point geometries)."""
    if isinstance(geometry, Point) and not geometry.is_empty:
        return geometry.y
    return None


def exterior_ring(geometry: Geometry) -> Geometry | None:
    """The exterior ring of a POLYGON as a LINESTRING (PostGIS ``ST_ExteriorRing``).

    Non-polygon inputs yield None (SQL NULL); POLYGON EMPTY yields an empty
    LINESTRING.
    """
    from repro.geometry.model import Polygon

    if not isinstance(geometry, Polygon):
        return None
    if geometry.is_empty:
        return LineString.empty()
    return LineString(geometry.exterior)


def num_interior_rings(geometry: Geometry) -> int | None:
    """Number of holes of a POLYGON, or None for other types."""
    from repro.geometry.model import Polygon

    if not isinstance(geometry, Polygon):
        return None
    return len(geometry.holes)


def interior_ring_n(geometry: Geometry, index: int) -> Geometry | None:
    """The ``index``-th (1-based) hole of a POLYGON as a LINESTRING, or None."""
    from repro.geometry.model import Polygon

    if not isinstance(geometry, Polygon):
        return None
    if 1 <= index <= len(geometry.holes):
        return LineString(geometry.holes[index - 1])
    return None


def start_point(geometry: Geometry) -> Point | None:
    """First point of a LINESTRING, or None for other types and EMPTY."""
    if isinstance(geometry, LineString) and geometry.points:
        return Point(geometry.points[0])
    return None


def end_point(geometry: Geometry) -> Point | None:
    """Last point of a LINESTRING, or None for other types and EMPTY."""
    if isinstance(geometry, LineString) and geometry.points:
        return Point(geometry.points[-1])
    return None


def is_closed(geometry: Geometry) -> bool | None:
    """True if a (MULTI)LINESTRING starts and ends at the same point.

    EMPTY lines report False in PostGIS; non-linear inputs yield None.
    """
    if isinstance(geometry, LineString):
        return geometry.is_closed
    if isinstance(geometry, MultiLineString):
        return all(element.is_closed for element in geometry.geoms)
    return None


def is_ring(geometry: Geometry) -> bool | None:
    """True if a LINESTRING is closed and simple (no self-intersections)."""
    from repro.geometry.validity import is_simple_linestring

    if not isinstance(geometry, LineString):
        return None
    if geometry.is_empty or not geometry.is_closed:
        return False
    return is_simple_linestring(geometry)
