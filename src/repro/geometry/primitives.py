"""Exact low-level geometric predicates and constructions.

Everything in this module operates on :class:`~repro.geometry.model.Coordinate`
values whose ordinates are stored as :class:`fractions.Fraction`.  The hot
predicates decide signs in plain ``int`` arithmetic rather than through
``Fraction`` operators: :func:`orientation` (and everything built on it,
such as :func:`point_on_segment` and the ray-crossing step of
:func:`point_in_ring`) clears denominators by integer cross-multiplication
of each ordinate's ``as_integer_ratio()``, and the crossing point of
:func:`segment_intersection` is computed on the segments' common integer
grid.  Denominators are positive, so every sign is exactly the sign of the
rational expression and every constructed point is the same normalised
``Fraction`` — there is no epsilon anywhere.  The topology engine
(:mod:`repro.topology`) is built entirely on these primitives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from repro.geometry.model import Coordinate

#: Return values of :func:`orientation`.
CLOCKWISE = -1
COLLINEAR = 0
COUNTERCLOCKWISE = 1


def cross(o: Coordinate, a: Coordinate, b: Coordinate) -> Fraction:
    """Cross product of vectors ``o->a`` and ``o->b``."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def orientation(o: Coordinate, a: Coordinate, b: Coordinate) -> int:
    """Orientation of the ordered triple (o, a, b).

    Returns :data:`COUNTERCLOCKWISE`, :data:`CLOCKWISE`, or :data:`COLLINEAR`:
    the sign of :func:`cross`, decided on integers.
    """
    nox, dox = o.x.as_integer_ratio()
    noy, doy = o.y.as_integer_ratio()
    nax, dax = a.x.as_integer_ratio()
    nay, day = a.y.as_integer_ratio()
    nbx, dbx = b.x.as_integer_ratio()
    nby, dby = b.y.as_integer_ratio()
    if dox == dax == dbx == doy == day == dby == 1:
        value = (nax - nox) * (nby - noy) - (nay - noy) * (nbx - nox)
    else:
        # a.x - o.x = (nax*dox - nox*dax) / (dax*dox), and likewise for the
        # other three differences; multiplying the cross product by their
        # four positive denominators keeps its sign.
        ax_num, ax_den = nax * dox - nox * dax, dax * dox
        ay_num, ay_den = nay * doy - noy * day, day * doy
        bx_num, bx_den = nbx * dox - nox * dbx, dbx * dox
        by_num, by_den = nby * doy - noy * dby, dby * doy
        value = ax_num * by_num * ay_den * bx_den - ay_num * bx_num * ax_den * by_den
    if value > 0:
        return COUNTERCLOCKWISE
    if value < 0:
        return CLOCKWISE
    return COLLINEAR


def dot(o: Coordinate, a: Coordinate, b: Coordinate) -> Fraction:
    """Dot product of vectors ``o->a`` and ``o->b``."""
    return (a.x - o.x) * (b.x - o.x) + (a.y - o.y) * (b.y - o.y)


def squared_distance(a: Coordinate, b: Coordinate) -> Fraction:
    """Exact squared Euclidean distance between two coordinates."""
    return (a.x - b.x) ** 2 + (a.y - b.y) ** 2


def point_on_segment(p: Coordinate, a: Coordinate, b: Coordinate) -> bool:
    """True if point ``p`` lies on the closed segment ``a``–``b``.

    Degenerate segments (``a == b``) are handled: the test reduces to
    ``p == a``.
    """
    if a == b:
        return p == a
    if orientation(a, b, p) != COLLINEAR:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def segment_point_squared_distance(p: Coordinate, a: Coordinate, b: Coordinate) -> Fraction:
    """Exact squared distance from point ``p`` to the closed segment ``a``–``b``."""
    if a == b:
        return squared_distance(p, a)
    length_sq = squared_distance(a, b)
    t = dot(a, b, p) / length_sq
    if t <= 0:
        return squared_distance(p, a)
    if t >= 1:
        return squared_distance(p, b)
    projection = Coordinate(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return squared_distance(p, projection)


def segments_squared_distance(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> Fraction:
    """Exact squared distance between two closed segments."""
    if segments_intersect(a1, a2, b1, b2):
        return Fraction(0)
    candidates = (
        segment_point_squared_distance(a1, b1, b2),
        segment_point_squared_distance(a2, b1, b2),
        segment_point_squared_distance(b1, a1, a2),
        segment_point_squared_distance(b2, a1, a2),
    )
    return min(candidates)


def segments_intersect(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> bool:
    """True if the two closed segments share at least one point."""
    return bool(segment_intersection(a1, a2, b1, b2))


def segment_intersection(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> list[Coordinate]:
    """Intersection of two closed segments as a list of coordinates.

    * ``[]`` — the segments do not intersect.
    * ``[p]`` — the segments meet in a single point ``p``.
    * ``[p, q]`` — the segments overlap along the collinear segment ``p``–``q``
      (``p`` and ``q`` are the endpoints of the shared portion and are
      distinct).

    Degenerate (zero-length) segments are supported.
    """
    # Degenerate cases first.
    if a1 == a2 and b1 == b2:
        return [a1] if a1 == b1 else []
    if a1 == a2:
        return [a1] if point_on_segment(a1, b1, b2) else []
    if b1 == b2:
        return [b1] if point_on_segment(b1, a1, a2) else []

    d1 = orientation(b1, b2, a1)
    d2 = orientation(b1, b2, a2)
    d3 = orientation(a1, a2, b1)
    d4 = orientation(a1, a2, b2)

    if d1 == COLLINEAR and d2 == COLLINEAR and d3 == COLLINEAR and d4 == COLLINEAR:
        return _collinear_overlap(a1, a2, b1, b2)

    if d1 != d2 and d3 != d4:
        # Proper or touching crossing with a unique intersection point.
        point = _line_intersection_point(a1, a2, b1, b2)
        if point is not None:
            return [point]

    # Endpoint-touching cases (one endpoint lies on the other segment).
    touches = []
    for p in (a1, a2):
        if point_on_segment(p, b1, b2) and p not in touches:
            touches.append(p)
    for p in (b1, b2):
        if point_on_segment(p, a1, a2) and p not in touches:
            touches.append(p)
    if len(touches) >= 2:
        # Shared endpoints on collinear portions were handled above; two
        # distinct touch points can only happen when endpoints coincide.
        return touches[:2] if touches[0] != touches[1] else [touches[0]]
    return touches


def _line_intersection_point(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> Coordinate | None:
    """Unique intersection point of two segments known to cross, or None.

    The eight ordinates are rescaled onto their common denominator
    ``scale``, so with ``r = a2 - a1``, ``s = b2 - b1`` and ``q = b1 - a1``
    the line parameters ``t = (q × s) / (r × s)`` and ``u = (q × r) / (r × s)``
    are integer ratios: ``0 <= t, u <= 1`` is decided in integers, and the
    point ``a1 + t * r`` is built with one ``Fraction`` normalisation per
    ordinate.
    """
    a1x, a1x_den = a1.x.as_integer_ratio()
    a1y, a1y_den = a1.y.as_integer_ratio()
    a2x, a2x_den = a2.x.as_integer_ratio()
    a2y, a2y_den = a2.y.as_integer_ratio()
    b1x, b1x_den = b1.x.as_integer_ratio()
    b1y, b1y_den = b1.y.as_integer_ratio()
    b2x, b2x_den = b2.x.as_integer_ratio()
    b2y, b2y_den = b2.y.as_integer_ratio()
    scale = math.lcm(
        a1x_den, a1y_den, a2x_den, a2y_den, b1x_den, b1y_den, b2x_den, b2y_den
    )
    if scale != 1:
        a1x *= scale // a1x_den
        a1y *= scale // a1y_den
        a2x *= scale // a2x_den
        a2y *= scale // a2y_den
        b1x *= scale // b1x_den
        b1y *= scale // b1y_den
        b2x *= scale // b2x_den
        b2y *= scale // b2y_den
    r_x, r_y = a2x - a1x, a2y - a1y
    s_x, s_y = b2x - b1x, b2y - b1y
    q_x, q_y = b1x - a1x, b1y - a1y
    denominator = r_x * s_y - r_y * s_x
    if denominator == 0:
        return None
    t_num = q_x * s_y - q_y * s_x
    u_num = q_x * r_y - q_y * r_x
    if denominator < 0:
        denominator, t_num, u_num = -denominator, -t_num, -u_num
    if not (0 <= t_num <= denominator and 0 <= u_num <= denominator):
        return None
    # a1 + t * r = (a1 * denominator + t_num * r) / (denominator * scale).
    point_den = denominator * scale
    return Coordinate(
        Fraction(a1x * denominator + t_num * r_x, point_den),
        Fraction(a1y * denominator + t_num * r_y, point_den),
    )


def _collinear_overlap(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> list[Coordinate]:
    """Overlap of two collinear segments as 0, 1, or 2 coordinates."""
    def key(c: Coordinate) -> tuple[Fraction, Fraction]:
        return (c.x, c.y)

    a_lo, a_hi = sorted((a1, a2), key=key)
    b_lo, b_hi = sorted((b1, b2), key=key)
    lo = max(a_lo, b_lo, key=key)
    hi = min(a_hi, b_hi, key=key)
    if key(lo) > key(hi):
        return []
    if lo == hi:
        return [lo]
    return [lo, hi]


def ring_signed_area(ring: Sequence[Coordinate]) -> Fraction:
    """Signed area of a closed ring (shoelace formula).

    Positive for counter-clockwise rings, negative for clockwise rings.  The
    first and last coordinates may or may not coincide; both forms are
    handled.
    """
    if len(ring) < 3:
        return Fraction(0)
    points = list(ring)
    if points[0] == points[-1]:
        points = points[:-1]
    total = Fraction(0)
    for i, current in enumerate(points):
        nxt = points[(i + 1) % len(points)]
        total += current.x * nxt.y - nxt.x * current.y
    return total / 2


def ring_is_clockwise(ring: Sequence[Coordinate]) -> bool:
    """True if the ring winds clockwise (negative signed area)."""
    return ring_signed_area(ring) < 0


def point_in_ring(p: Coordinate, ring: Sequence[Coordinate]) -> str:
    """Locate a point relative to a simple closed ring.

    Returns ``"interior"``, ``"boundary"``, or ``"exterior"``.  Uses an exact
    crossing-number walk that treats vertices and horizontal edges carefully,
    so no perturbation is needed.
    """
    points = list(ring)
    if not points:
        return "exterior"
    if points[0] != points[-1]:
        points = points + [points[0]]

    # Boundary test first.
    for a, b in zip(points, points[1:]):
        if point_on_segment(p, a, b):
            return "boundary"

    return "interior" if crossing_parity(p, points) else "exterior"


def crossing_parity(p: Coordinate, ring: Sequence[Coordinate]) -> int:
    """Parity of the crossings of ``p``'s rightward ray with a closed ring.

    The crossing number with the standard half-open rule on the y interval
    (:func:`ray_crossing` per edge).  For a point off the ring it is 1
    exactly when the point is inside; an edge containing ``p`` never
    counts.
    """
    inside = 0
    for a, b in zip(ring, ring[1:]):
        if ray_crossing(p, a, b):
            inside ^= 1
    return inside


def ray_crossing(p: Coordinate, a: Coordinate, b: Coordinate) -> bool:
    """One edge's contribution to :func:`point_in_ring`'s crossing parity.

    True when edge ``a``–``b`` straddles the horizontal line through ``p``
    (half-open rule: exactly one endpoint lies strictly above it) and meets
    that line strictly right of ``p``.  The crossing abscissa is
    ``x = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x)``, and
    ``x - p.x = cross(a, b, p) / (b.y - a.y)``; the straddle makes the
    divisor nonzero, so ``x > p.x`` exactly when ``orientation(a, b, p)``
    is nonzero with the sign of ``b.y - a.y`` — no division needed.
    """
    upward = b.y > p.y
    if (a.y > p.y) == upward:
        return False
    # Under the straddle, b.y - a.y > 0 exactly when b lies above p.
    return orientation(a, b, p) == (COUNTERCLOCKWISE if upward else CLOCKWISE)


def convex_hull(points: Iterable[Coordinate]) -> list[Coordinate]:
    """Convex hull of a point set (Andrew's monotone chain), CCW order.

    Returns the hull vertices without repeating the first point at the end.
    Collinear input collapses to the two extreme points; a single distinct
    point collapses to one coordinate.
    """
    unique = sorted(set(points), key=lambda c: (c.x, c.y))
    if len(unique) <= 2:
        return unique

    def build(seq: list[Coordinate]) -> list[Coordinate]:
        hull: list[Coordinate] = []
        for point in seq:
            while (
                len(hull) >= 2
                and orientation(hull[-2], hull[-1], point) != COUNTERCLOCKWISE
            ):
                hull.pop()
            hull.append(point)
        return hull

    lower = build(unique)
    upper = build(list(reversed(unique)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # Fully collinear input.
        return [unique[0], unique[-1]]
    return hull


def centroid_of_points(points: Sequence[Coordinate]) -> Coordinate | None:
    """Arithmetic mean of a coordinate sequence (None for empty input)."""
    points = list(points)
    if not points:
        return None
    n = len(points)
    sx = sum((p.x for p in points), Fraction(0))
    sy = sum((p.y for p in points), Fraction(0))
    return Coordinate(sx / n, sy / n)
