"""Randomized equivalence of the integer predicates with their Fraction formulas.

The exact predicates of :mod:`repro.geometry.primitives` clear denominators
and decide signs on plain ``int`` values.  This module keeps the direct
``Fraction`` formulas as oracles and checks, over seeded stdlib-``random``
sweeps (no hypothesis dependency, deterministic by construction, ≥1000
cases per predicate), that the integer versions return identical results:

* ``orientation``, ``point_on_segment``, ``segment_intersection`` and
  ``_line_intersection_point`` — the constructed point compared by value
  *and* by ``numerator``/``denominator`` of each ordinate;
* ``point_in_ring`` and its per-edge ``ray_crossing`` step, which the batch
  ring locator shares;
* ``convex_hull``;
* ``Coordinate``'s cached hash equals ``hash((x, y))``, so sets of
  coordinates iterate in the same order as sets of ordinate pairs.

Inputs mix integral, small-rational, collinear, coincident and zero-length
cases with the huge-denominator side-offset witnesses of
:mod:`tests.property.witnesses`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.geometry.model import Coordinate
from repro.geometry.primitives import (
    COLLINEAR,
    CLOCKWISE,
    COUNTERCLOCKWISE,
    _line_intersection_point,
    convex_hull,
    orientation,
    point_in_ring,
    point_on_segment,
    ray_crossing,
    segment_intersection,
)
from repro.topology import noding
from tests.property.witnesses import OffsetContext

CASES = 1000


# ---------------------------------------------------------------------------
# Fraction oracles: the direct rational formulas the integer code replaced.
# ---------------------------------------------------------------------------


def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _orientation(o, a, b):
    value = _cross(o, a, b)
    if value > 0:
        return COUNTERCLOCKWISE
    if value < 0:
        return CLOCKWISE
    return COLLINEAR


def _point_on_segment(p, a, b):
    if a == b:
        return p == a
    if _orientation(a, b, p) != COLLINEAR:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _intersection_point(a1, a2, b1, b2):
    r_x, r_y = a2.x - a1.x, a2.y - a1.y
    s_x, s_y = b2.x - b1.x, b2.y - b1.y
    denominator = r_x * s_y - r_y * s_x
    if denominator == 0:
        return None
    t = ((b1.x - a1.x) * s_y - (b1.y - a1.y) * s_x) / denominator
    u = ((b1.x - a1.x) * r_y - (b1.y - a1.y) * r_x) / denominator
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return None
    return Coordinate(a1.x + t * r_x, a1.y + t * r_y)


def _collinear_overlap(a1, a2, b1, b2):
    def key(c):
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


def _segment_intersection(a1, a2, b1, b2):
    if a1 == a2 and b1 == b2:
        return [a1] if a1 == b1 else []
    if a1 == a2:
        return [a1] if _point_on_segment(a1, b1, b2) else []
    if b1 == b2:
        return [b1] if _point_on_segment(b1, a1, a2) else []
    d1 = _orientation(b1, b2, a1)
    d2 = _orientation(b1, b2, a2)
    d3 = _orientation(a1, a2, b1)
    d4 = _orientation(a1, a2, b2)
    if d1 == COLLINEAR and d2 == COLLINEAR and d3 == COLLINEAR and d4 == COLLINEAR:
        return _collinear_overlap(a1, a2, b1, b2)
    if d1 != d2 and d3 != d4:
        point = _intersection_point(a1, a2, b1, b2)
        if point is not None:
            return [point]
    touches = []
    for p in (a1, a2):
        if _point_on_segment(p, b1, b2) and p not in touches:
            touches.append(p)
    for p in (b1, b2):
        if _point_on_segment(p, a1, a2) and p not in touches:
            touches.append(p)
    if len(touches) >= 2:
        return touches[:2] if touches[0] != touches[1] else [touches[0]]
    return touches


def _crossing_step(p, a, b):
    if (a.y > p.y) != (b.y > p.y):
        t = (p.y - a.y) / (b.y - a.y)
        return a.x + t * (b.x - a.x) > p.x
    return False


def _point_in_ring(p, ring):
    points = list(ring)
    if not points:
        return "exterior"
    if points[0] != points[-1]:
        points = points + [points[0]]
    for a, b in zip(points, points[1:]):
        if _point_on_segment(p, a, b):
            return "boundary"
    inside = False
    for a, b in zip(points, points[1:]):
        if _crossing_step(p, a, b):
            inside = not inside
    return "interior" if inside else "exterior"


def _convex_hull(points):
    unique = sorted(set(points), key=lambda c: (c.x, c.y))
    if len(unique) <= 2:
        return unique

    def build(seq):
        hull = []
        for point in seq:
            while len(hull) >= 2 and _cross(hull[-2], hull[-1], point) <= 0:
                hull.pop()
            hull.append(point)
        return hull

    lower = build(unique)
    upper = build(list(reversed(unique)))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return [unique[0], unique[-1]]
    return hull


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _ordinate(rng: random.Random) -> Fraction:
    kind = rng.random()
    if kind < 0.4:
        return Fraction(rng.randint(-12, 12))
    if kind < 0.8:
        return Fraction(rng.randint(-36, 36), rng.choice((2, 3, 4, 6, 7)))
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))


def _coordinate(rng: random.Random) -> Coordinate:
    if rng.random() < 0.3:
        return Coordinate(rng.randint(-6, 6), rng.randint(-6, 6))
    return Coordinate(_ordinate(rng), _ordinate(rng))


def _along(rng: random.Random, a: Coordinate, b: Coordinate) -> Coordinate:
    """A point on the line through ``a`` and ``b`` (on or off the segment)."""
    t = Fraction(rng.randint(-4, 12), rng.choice((1, 2, 3, 4, 8)))
    return Coordinate(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))


def _witness_points(rng: random.Random) -> list[Coordinate]:
    """Side-offset witnesses of a small random arrangement: ordinates with
    huge denominators a hair off some segment."""
    count = rng.randint(3, 6)
    points = [
        Coordinate(
            Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
        )
        for _ in range(count)
    ]
    segments = [
        (points[i], points[(i + 1) % count])
        for i in range(count)
        if points[i] != points[(i + 1) % count]
    ]
    if not segments:
        return []
    noded = noding.node_segments(segments)
    nodes = {end for segment in noded for end in segment}
    context = OffsetContext(noded, nodes)
    witnesses = []
    for start, end in noded:
        witnesses.extend(context.side_offset_points(start, end))
    return witnesses + list(nodes)


class _Pool:
    """Coordinates drawn from every input family, mixed per case."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.witnesses: list[Coordinate] = []
        while len(self.witnesses) < 300:
            self.witnesses.extend(_witness_points(self.rng))

    def point(self) -> Coordinate:
        rng = self.rng
        if rng.random() < 0.25:
            return rng.choice(self.witnesses)
        return _coordinate(rng)

    def triple(self) -> tuple[Coordinate, Coordinate, Coordinate]:
        rng = self.rng
        a, b = self.point(), self.point()
        kind = rng.random()
        if kind < 0.3:
            c = _along(rng, a, b)
        elif kind < 0.4:
            # coincident: an equal copy or the very same object
            source = rng.choice((a, b))
            c = source if rng.random() < 0.5 else Coordinate(source.x, source.y)
        elif kind < 0.5:
            b = a  # zero-length
            c = self.point()
        else:
            c = self.point()
        ordered = [a, b, c]
        rng.shuffle(ordered)
        return ordered[0], ordered[1], ordered[2]

    def segment_pair(self):
        rng = self.rng
        a1, a2 = self.point(), self.point()
        kind = rng.random()
        if kind < 0.25:
            # collinear with a1-a2: overlaps, touches, disjoint pieces
            b1, b2 = _along(rng, a1, a2), _along(rng, a1, a2)
        elif kind < 0.4:
            # shares an endpoint
            b1, b2 = rng.choice((a1, a2)), self.point()
        elif kind < 0.5:
            # one endpoint on the other segment
            b1, b2 = _along(rng, a1, a2), self.point()
        elif kind < 0.6:
            a2 = a1 if rng.random() < 0.5 else a2  # zero-length
            b1 = self.point()
            b2 = b1 if rng.random() < 0.5 else self.point()
        else:
            b1, b2 = self.point(), self.point()
        if rng.random() < 0.5:
            a1, a2, b1, b2 = b1, b2, a1, a2
        return a1, a2, b1, b2

    def ring(self) -> list[Coordinate]:
        rng = self.rng
        if rng.random() < 0.5:
            x0, y0 = _ordinate(rng), _ordinate(rng)
            w = Fraction(rng.randint(1, 8), rng.choice((1, 2, 3)))
            h = Fraction(rng.randint(1, 8), rng.choice((1, 2, 3)))
            corners = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
            if rng.random() < 0.5:
                # a notch, giving horizontal edges at shared heights
                corners.insert(2, (x0 + w / 2, y0 + h / 2))
            ring = [Coordinate(x, y) for x, y in corners]
        else:
            ring = [self.point() for _ in range(rng.randint(3, 7))]
        if rng.random() < 0.5:
            ring = ring + [ring[0]]
        return ring

    def ring_probe(self, ring: list[Coordinate]) -> Coordinate:
        rng = self.rng
        kind = rng.random()
        if kind < 0.2:
            return rng.choice(ring)  # a vertex
        if kind < 0.45:
            a, b = rng.sample(ring, 2)
            return _along(rng, a, b)  # on an edge's (or chord's) line
        if kind < 0.6:
            # same height as a vertex: the half-open rule's degeneracies
            return Coordinate(_ordinate(rng), rng.choice(ring).y)
        return self.point()


def _same_point(actual, expected) -> bool:
    if actual is None or expected is None:
        return actual is expected
    return (
        actual == expected
        and actual.x.numerator == expected.x.numerator
        and actual.x.denominator == expected.x.denominator
        and actual.y.numerator == expected.y.numerator
        and actual.y.denominator == expected.y.denominator
    )


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_orientation_matches_fraction_cross_sign():
    pool = _Pool(1501)
    seen = set()
    for _ in range(CASES):
        o, a, b = pool.triple()
        expected = _orientation(o, a, b)
        assert orientation(o, a, b) == expected, (o, a, b)
        seen.add(expected)
    assert seen == {CLOCKWISE, COLLINEAR, COUNTERCLOCKWISE}


def test_point_on_segment_matches_fraction_formula():
    pool = _Pool(1502)
    hits = 0
    for _ in range(CASES):
        p, a, b = pool.triple()
        expected = _point_on_segment(p, a, b)
        assert point_on_segment(p, a, b) == expected, (p, a, b)
        hits += expected
    assert 0 < hits < CASES


def test_line_intersection_point_is_the_same_rational():
    pool = _Pool(1503)
    found = 0
    for _ in range(CASES):
        a1, a2, b1, b2 = pool.segment_pair()
        expected = _intersection_point(a1, a2, b1, b2)
        actual = _line_intersection_point(a1, a2, b1, b2)
        assert _same_point(actual, expected), (a1, a2, b1, b2, actual, expected)
        found += expected is not None
    assert found > CASES // 10


def test_segment_intersection_matches_fraction_formula():
    pool = _Pool(1504)
    shapes = set()
    for _ in range(CASES):
        a1, a2, b1, b2 = pool.segment_pair()
        expected = _segment_intersection(a1, a2, b1, b2)
        actual = segment_intersection(a1, a2, b1, b2)
        assert len(actual) == len(expected), (a1, a2, b1, b2, actual, expected)
        for got, want in zip(actual, expected):
            assert _same_point(got, want), (a1, a2, b1, b2, actual, expected)
        shapes.add(len(expected))
    assert shapes == {0, 1, 2}


def test_ray_crossing_matches_fraction_division():
    pool = _Pool(1505)
    crossings = 0
    for _ in range(CASES):
        p, a, b = pool.triple()
        if pool.rng.random() < 0.3:
            # put p at the height of an endpoint
            p = Coordinate(p.x, pool.rng.choice((a, b)).y)
        expected = _crossing_step(p, a, b)
        assert ray_crossing(p, a, b) == expected, (p, a, b)
        crossings += expected
    assert 0 < crossings < CASES


def test_point_in_ring_matches_fraction_formula():
    pool = _Pool(1506)
    locations = set()
    for _ in range(CASES):
        ring = pool.ring()
        p = pool.ring_probe(ring)
        expected = _point_in_ring(p, ring)
        assert point_in_ring(p, ring) == expected, (p, ring)
        locations.add(expected)
    assert locations == {"interior", "boundary", "exterior"}


def test_convex_hull_matches_fraction_formula():
    pool = _Pool(1507)
    for _ in range(CASES):
        points = [pool.point() for _ in range(pool.rng.randint(1, 6))]
        if pool.rng.random() < 0.3:
            points.extend(_along(pool.rng, points[0], pool.point()) for _ in range(3))
        assert convex_hull(points) == _convex_hull(points), points


def test_coordinate_hash_is_the_ordinate_pair_hash():
    pool = _Pool(1508)
    for _ in range(CASES):
        c = pool.point()
        assert hash(c) == hash((c.x, c.y))
        assert hash(c) == hash(c)  # cached value is stable
        copy = Coordinate(c.x, c.y)
        assert copy == c and hash(copy) == hash(c)


def test_coordinate_sets_iterate_like_ordinate_pair_sets():
    pool = _Pool(1509)
    for _ in range(CASES // 10):
        coords = [pool.point() for _ in range(pool.rng.randint(1, 40))]
        coords.extend(Coordinate(c.x, c.y) for c in coords[: len(coords) // 3])
        pool.rng.shuffle(coords)
        as_coordinates = [(c.x, c.y) for c in set(coords)]
        as_pairs = list({(c.x, c.y) for c in coords})
        assert as_coordinates == as_pairs
        as_dict = [(c.x, c.y) for c in dict.fromkeys(coords)]
        assert as_dict == list(dict.fromkeys((c.x, c.y) for c in coords))
