"""Multi-particle lattice geometry: points, cubes, rectangles, boundaries.

The configuration space of an n-particle system on Z^d is Z^{nd}; a point
x = (x_1, ..., x_n) stores its n particle positions as one flat integer
tuple of length n*d.  Finite volumes are axis-aligned boxes: either a cube
(a sup-norm ball around a configuration) or a rectangle, the product of n
single-particle cubes with individual centers and radii.

Boundary sets use l1 (nearest-neighbor) distance, matching the hopping
structure of the lattice Laplacian.  For axis-aligned boxes the resulting
sets coincide with the sup-norm version, so the choice is observationally
neutral.

All values here are immutable and hashable; they can be shared freely
between parallel workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np


@dataclass(frozen=True)
class ConfigPoint:
    """A point of the n-particle configuration lattice Z^{nd}.

    coords holds n consecutive blocks of d coordinates, one block per
    particle.
    """

    coords: tuple[int, ...]
    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if len(self.coords) != self.n * self.d:
            raise ValueError(
                f"coords length {len(self.coords)} != n*d = {self.n * self.d}"
            )

    @classmethod
    def origin(cls, n: int, d: int) -> "ConfigPoint":
        return cls((0,) * (n * d), n, d)

    def particle(self, j: int) -> tuple[int, ...]:
        """Position of particle j (1-based) as a d-tuple."""
        if not 1 <= j <= self.n:
            raise ValueError(f"particle index {j} outside 1..{self.n}")
        return self.coords[(j - 1) * self.d : j * self.d]

    def particles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.particle(j) for j in range(1, self.n + 1))

    def translate(self, delta: tuple[int, ...]) -> "ConfigPoint":
        if len(delta) != len(self.coords):
            raise ValueError("translation vector has wrong length")
        return ConfigPoint(
            tuple(c + e for c, e in zip(self.coords, delta)), self.n, self.d
        )


def _check_same_space(x: ConfigPoint, y: ConfigPoint) -> None:
    if x.n != y.n or x.d != y.d:
        raise ValueError(
            f"points live in different spaces: (n={x.n}, d={x.d}) vs (n={y.n}, d={y.d})"
        )


def sup_norm(x: ConfigPoint, y: ConfigPoint) -> int:
    """Max-norm distance |x - y| over all n*d coordinates."""
    _check_same_space(x, y)
    return max(abs(a - b) for a, b in zip(x.coords, y.coords))


def l1_norm(x: ConfigPoint, y: ConfigPoint) -> int:
    """Summed coordinate distance |x - y|_1; hops of the Laplacian have l1 = 1."""
    _check_same_space(x, y)
    return sum(abs(a - b) for a, b in zip(x.coords, y.coords))


def coordinate_array(points: Sequence[ConfigPoint]) -> np.ndarray:
    """Flat coordinates of the points as an int64 array of shape (len, n*d)."""
    width = len(points[0].coords) if points else 0
    return np.array([x.coords for x in points], dtype=np.int64).reshape(len(points), width)


# ---------------------------------------------------------------------------
# Finite volumes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """Product of n single-particle cubes C_{L_i}(u_i) in Z^{nd}."""

    centers: tuple[tuple[int, ...], ...]
    radii: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.centers:
            raise ValueError("rectangle needs at least one particle")
        if len(self.centers) != len(self.radii):
            raise ValueError("one radius per particle center required")
        d = len(self.centers[0])
        if d < 1 or any(len(c) != d for c in self.centers):
            raise ValueError("all particle centers must share one dimension d >= 1")
        if any(L < 0 for L in self.radii):
            raise ValueError("radii must be >= 0")

    @property
    def n(self) -> int:
        return len(self.centers)

    @property
    def d(self) -> int:
        return len(self.centers[0])

    def coordinate_bounds(self) -> tuple[tuple[int, int], ...]:
        """Per-coordinate closed interval (lo, hi), in flat coordinate order."""
        bounds = []
        for center, L in zip(self.centers, self.radii):
            for c in center:
                bounds.append((c - L, c + L))
        return tuple(bounds)

    def cardinality(self) -> int:
        return math.prod((2 * L + 1) ** self.d for L in self.radii)

    def contains(self, x: ConfigPoint) -> bool:
        if x.n != self.n or x.d != self.d:
            return False
        return all(lo <= c <= hi for c, (lo, hi) in zip(x.coords, self.coordinate_bounds()))


@dataclass(frozen=True)
class Cube:
    """Sup-norm ball of radius L around a configuration; side 2L+1 per axis."""

    center: ConfigPoint
    radius: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("cube radius must be >= 0")

    @property
    def n(self) -> int:
        return self.center.n

    @property
    def d(self) -> int:
        return self.center.d

    def as_rectangle(self) -> Rectangle:
        return Rectangle(self.center.particles(), (self.radius,) * self.n)

    def cardinality(self) -> int:
        return (2 * self.radius + 1) ** (self.n * self.d)

    def contains(self, x: ConfigPoint) -> bool:
        if x.n != self.n or x.d != self.d:
            return False
        return sup_norm(x, self.center) <= self.radius


Region = Union[Cube, Rectangle]


def _as_rectangle(region: Region) -> Rectangle:
    return region.as_rectangle() if isinstance(region, Cube) else region


def iter_sites(region: Region) -> Iterator[ConfigPoint]:
    """Yield all sites in lexicographic order of the flat coordinate tuple."""
    rect = _as_rectangle(region)
    n, d = rect.n, rect.d
    ranges = [range(lo, hi + 1) for lo, hi in rect.coordinate_bounds()]
    for coords in itertools.product(*ranges):
        yield ConfigPoint(coords, n, d)


def sites(region: Region) -> list[ConfigPoint]:
    """All sites of the region, lexicographically ordered (fixes matrix indices)."""
    return list(iter_sites(region))


def internal_boundary(region: Region) -> set[ConfigPoint]:
    """Sites of the region at distance 1 from its complement.

    For a box these are exactly the sites where some coordinate attains an
    extreme value of its range.
    """
    rect = _as_rectangle(region)
    bounds = rect.coordinate_bounds()
    out = set()
    for x in iter_sites(rect):
        if any(c == lo or c == hi for c, (lo, hi) in zip(x.coords, bounds)):
            out.add(x)
    return out


def external_boundary(region: Region) -> set[ConfigPoint]:
    """Sites outside the region at distance 1 from it.

    A point at l1 distance 1 from a box oversteps exactly one coordinate
    range by exactly one, so the set is a union of 2*n*d axis slabs.
    """
    rect = _as_rectangle(region)
    n, d = rect.n, rect.d
    bounds = rect.coordinate_bounds()
    out = set()
    for k, (lo, hi) in enumerate(bounds):
        inner = [range(b_lo, b_hi + 1) for b_lo, b_hi in bounds]
        for outside in (lo - 1, hi + 1):
            slab = list(inner)
            slab[k] = range(outside, outside + 1)
            for coords in itertools.product(*slab):
                out.add(ConfigPoint(coords, n, d))
    return out


def single_particle_sites(region: Region) -> set[tuple[int, ...]]:
    """Union over particles of the d-dimensional boxes the region projects to.

    This is the set of lattice sites on which a disorder realization must
    supply potential values before the region's Hamiltonian can be built.
    """
    rect = _as_rectangle(region)
    out: set[tuple[int, ...]] = set()
    for center, L in zip(rect.centers, rect.radii):
        axis_ranges = [range(c - L, c + L + 1) for c in center]
        out.update(itertools.product(*axis_ranges))
    return out


# ---------------------------------------------------------------------------
# Separability
# ---------------------------------------------------------------------------


def _balls_disjoint(a: tuple[int, ...], b: tuple[int, ...], L: int) -> bool:
    # single-particle sup-balls C_L(a), C_L(b) intersect iff |a-b|_sup <= 2L
    return max(abs(p - q) for p, q in zip(a, b)) > 2 * L


def is_J_separable(
    x: ConfigPoint, y: ConfigPoint, L: int, J: Iterable[int]
) -> bool:
    """True iff the single-particle cubes of x indexed by J avoid both the
    remaining cubes of x and every cube of y.

    J contains 1-based particle indices; it may be the full set {1..n}, in
    which case only the cubes of y constrain the answer.
    """
    _check_same_space(x, y)
    index_set = frozenset(J)
    if not index_set:
        raise ValueError("J must be a nonempty subset of particle indices")
    if not index_set <= set(range(1, x.n + 1)):
        raise ValueError(f"J={sorted(index_set)} is not a subset of 1..{x.n}")
    xp, yp = x.particles(), y.particles()
    inside = [xp[j - 1] for j in sorted(index_set)]
    others = [xp[k - 1] for k in range(1, x.n + 1) if k not in index_set]
    for a in inside:
        for b in others:
            if not _balls_disjoint(a, b, L):
                return False
        for b in yp:
            if not _balls_disjoint(a, b, L):
                return False
    return True


def is_separable_pair(x: ConfigPoint, y: ConfigPoint, L: int, N: int) -> bool:
    """Pair-separability: |x-y| > 7NL and some index subset separates one
    configuration's cubes from the other's."""
    _check_same_space(x, y)
    if sup_norm(x, y) <= 7 * N * L:
        return False
    indices = list(range(1, x.n + 1))
    subsets = [
        set(combo)
        for size in range(1, x.n + 1)
        for combo in itertools.combinations(indices, size)
    ]
    return any(
        is_J_separable(x, y, L, J) or is_J_separable(y, x, L, J) for J in subsets
    )
