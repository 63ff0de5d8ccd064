"""Affine transformation construction (Algorithm 2 of the paper).

A random *integer* mapping matrix is generated — an invertible 2×2 linear
part plus an integer translation — and applied to every geometry of the
generated database.  Using integers only sidesteps floating-point precision
issues in the transformation itself (Section 4.2), so any discrepancy the
oracle observes is attributable to the system under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from repro.geometry.model import Geometry
from repro.functions.affine_ops import apply_matrix


@dataclass(frozen=True)
class AffineTransformation:
    """A 2D affine transformation in homogeneous-matrix form (Equation 4)."""

    matrix: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]

    @classmethod
    def identity(cls) -> "AffineTransformation":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def from_parts(
        cls, a11: int, a12: int, a21: int, a22: int, b1: int, b2: int
    ) -> "AffineTransformation":
        return cls(((a11, a12, b1), (a21, a22, b2), (0, 0, 1)))

    @property
    def determinant(self) -> int:
        (a11, a12, _), (a21, a22, _), _ = self.matrix
        return a11 * a22 - a12 * a21

    @property
    def is_invertible(self) -> bool:
        return self.determinant != 0

    @property
    def is_identity(self) -> bool:
        return self.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    @property
    def is_similarity(self) -> bool:
        """True when the linear part is a uniform scaling of an orthogonal map.

        Similarities (rotations, reflections, uniform scalings, translations
        and their compositions) multiply every distance by the same factor,
        so they preserve *relative* distance order — the admissibility
        condition of the KNN and distance oracles (paper Section 7).
        Algebraically: the two columns of the linear part are orthogonal and
        of equal (non-zero) norm.
        """
        (a11, a12, _), (a21, a22, _), _ = self.matrix
        orthogonal = a11 * a12 + a21 * a22 == 0
        equal_norm = a11 * a11 + a21 * a21 == a12 * a12 + a22 * a22
        return orthogonal and equal_norm and self.determinant != 0

    @property
    def is_rigid(self) -> bool:
        """True for distance-preserving maps (similarity with unit scale)."""
        return self.is_similarity and abs(self.determinant) == 1

    @property
    def length_scale(self) -> float:
        """The factor every length is multiplied by (similarities only).

        For a similarity the linear part scales all distances uniformly by
        ``sqrt(|det|)``; for a general affine map lengths change
        anisotropically and no single factor exists, so callers must check
        :attr:`is_similarity` first.
        """
        return math.sqrt(abs(self.determinant))

    @property
    def area_scale(self) -> int:
        """The factor every area is multiplied by: ``|det|`` (any affine map)."""
        return abs(self.determinant)

    def apply(self, geometry: Geometry) -> Geometry:
        """Transform every coordinate of a geometry."""
        return apply_matrix(geometry, self.matrix)

    def inverse(self) -> "AffineTransformation":
        """The inverse transformation (exact, possibly with rational entries).

        Used by property-based tests to verify that affine equivalence is a
        symmetric relation; the inverse of an integer matrix is rational, so
        the result is returned as a plain callable-compatible transformation
        whose entries may be Fractions.
        """
        (a11, a12, b1), (a21, a22, b2), _ = self.matrix
        det = Fraction(self.determinant)
        if det == 0:
            raise ValueError("a singular transformation has no inverse")
        inv_a11 = Fraction(a22) / det
        inv_a12 = Fraction(-a12) / det
        inv_a21 = Fraction(-a21) / det
        inv_a22 = Fraction(a11) / det
        inv_b1 = -(inv_a11 * b1 + inv_a12 * b2)
        inv_b2 = -(inv_a21 * b1 + inv_a22 * b2)
        return AffineTransformation(
            (
                (inv_a11, inv_a12, inv_b1),
                (inv_a21, inv_a22, inv_b2),
                (0, 0, 1),
            )
        )

    def describe(self) -> str:
        """Human-readable description used in bug reports."""
        (a11, a12, b1), (a21, a22, b2), _ = self.matrix
        return f"x' = {a11}x + {a12}y + {b1}; y' = {a21}x + {a22}y + {b2}"


def random_affine_transformation(
    rng: random.Random,
    coefficient_range: tuple[int, int] = (-3, 3),
    translation_range: tuple[int, int] = (-10, 10),
) -> AffineTransformation:
    """A random invertible integer transformation (Algorithm 2, lines 7-11)."""
    low, high = coefficient_range
    while True:
        a11 = rng.randint(low, high)
        a12 = rng.randint(low, high)
        a21 = rng.randint(low, high)
        a22 = rng.randint(low, high)
        if a11 * a22 - a12 * a21 != 0:
            break
    b1 = rng.randint(*translation_range)
    b2 = rng.randint(*translation_range)
    return AffineTransformation.from_parts(a11, a12, a21, a22, b1, b2)


#: the four quarter-turn rotations (reflections avoided).
_QUARTER_TURNS = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0))


def _quarter_turn_transformation(rng: random.Random, scale_of) -> AffineTransformation:
    """Quarter-turn rotation × ``scale_of(rng)`` scaling + integer translation.

    ``scale_of`` is called *between* the rotation and translation draws so
    both public samplers keep their historical rng-draw order.
    """
    quarter = rng.choice(_QUARTER_TURNS)
    scale = scale_of(rng)
    a11, a12, a21, a22 = (value * scale for value in quarter)
    b1 = rng.randint(-10, 10)
    b2 = rng.randint(-10, 10)
    return AffineTransformation.from_parts(a11, a12, a21, a22, b1, b2)


def similarity_affine_transformation(rng: random.Random) -> AffineTransformation:
    """A random similarity: quarter-turn rotation, uniform integer scaling
    and integer translation (reflections avoided).

    This is the KNN-safe subset discussed in the paper's Section 7: rotate,
    translate and scale preserve relative distances, whereas shearing does
    not, so distance-ranking oracles must restrict themselves to this family.
    The integer scale factor also keeps scaled distance thresholds exact.
    """
    return _quarter_turn_transformation(rng, lambda r: r.randint(1, 4))


#: historical name: the original KNN module called the similarity family
#: "rigid" after the paper's informal rotate/translate/scale phrasing.
rigid_affine_transformation = similarity_affine_transformation


def rigid_motion_transformation(rng: random.Random) -> AffineTransformation:
    """A random rigid motion: quarter-turn rotation plus integer translation.

    Unlike :func:`similarity_affine_transformation` this preserves absolute
    distances (unit scale), so even distance *values* — not just their order
    — must survive the transformation unchanged.
    """
    return _quarter_turn_transformation(rng, lambda r: 1)
