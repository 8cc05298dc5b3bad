"""Seeded random generators for configurations, masses and tables.

Shared by the test suite and the command-line verification suites so that
a (seed, parameters) pair always reproduces the same samples.  Exact
samples use small-denominator rationals; numeric samples use floats.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .builders import GenericEntryTable
from .core import PointConfiguration, affine_rank, distances, is_singular


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 2))


def random_configuration(rng: random.Random, n: int, d: int) -> PointConfiguration:
    return PointConfiguration(
        [tuple(random_fraction(rng) for _ in range(d)) for _ in range(n)]
    )


def random_nonsingular_configuration(
    rng: random.Random, n: int, d: int | None = None
) -> PointConfiguration:
    """A configuration whose points span a full (n-1)-dimensional simplex."""
    if d is None:
        d = max(n - 1, 1)
    while True:
        cfg = random_configuration(rng, n, d)
        if not is_singular(cfg):
            return cfg


def random_singular_configuration(rng: random.Random, n: int) -> PointConfiguration:
    """Points confined to an affine subspace of dimension at most n-2."""
    if n < 2:
        raise ValueError("a single point is never singular")
    d = max(n - 2, 1)
    if n == 2:
        # Two coincident points are the only singular two-point shape.
        p = tuple(random_fraction(rng) for _ in range(d))
        return PointConfiguration([p, p])
    return random_configuration(rng, n, n - 2)


def random_full_rank_configuration(
    rng: random.Random, n: int, d: int
) -> PointConfiguration:
    """Exactly d-dimensional affine span (requires d <= n-1)."""
    if d > n - 1:
        raise ValueError("n points span at most dimension n-1")
    while True:
        cfg = random_configuration(rng, n, max(d, 1)) if d > 0 else (
            PointConfiguration([(0,)] * n)
        )
        if affine_rank(cfg) == d:
            return cfg


def random_float_configuration(rng: random.Random, n: int, d: int) -> PointConfiguration:
    return PointConfiguration(
        [tuple(rng.uniform(-3.0, 3.0) for _ in range(d)) for _ in range(n)]
    )


def random_positive_alpha(rng: random.Random, n: int) -> list[Fraction]:
    return [
        Fraction(rng.randint(1, 12), rng.randint(1, 2)) for _ in range(n)
    ]


def random_hyperplane_vector(rng: random.Random, n: int) -> list[Fraction]:
    """A nonzero rational vector with coordinates summing to zero."""
    while True:
        head = [random_fraction(rng) for _ in range(n - 1)]
        vec = head + [-sum(head)]
        if any(v != 0 for v in vec):
            return vec


def random_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [random_fraction(rng) for _ in range(n)]


def random_entry_table(rng: random.Random, n: int) -> GenericEntryTable:
    return GenericEntryTable([[random_fraction(rng) for _ in range(n)] for _ in range(n)])


def random_singular_entry_table(rng: random.Random, n: int) -> GenericEntryTable:
    """A symmetric zero-diagonal table whose bordered matrix is singular.

    Built from squared distances of points in dimension <= n-2, which is
    exactly the singular case for bordered squared-distance tables.
    """
    cfg = random_singular_configuration(rng, n)
    return GenericEntryTable.from_distance_vector(distances(cfg))
