"""Side-offset face witnesses: the test oracle for relate's face labels.

``TopologyDescriptor.label_edges`` classifies the two faces beside every
arrangement edge without building a point inside either face.  The
witnesses here sample those faces directly, with exact rationals, so a
located witness is an independent answer to the same question; the
property suites also use them as hard inputs (ordinates with huge
denominators a hair off some segment).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from repro.geometry.model import Coordinate

Segment = tuple[Coordinate, Coordinate]


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
