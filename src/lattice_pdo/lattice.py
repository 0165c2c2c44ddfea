"""Scaled integer lattices and finite truncation boxes.

All operators in this package live on the lattice of points ``hbar * z``
with ``z`` an integer vector.  Finite computations restrict to the cube
``|z_j| <= R`` and enumerate its points lexicographically (`box_shape`);
that ordering is part of the output contract (matrices are reproducible
entry for entry).
"""

from dataclasses import dataclass

import numpy as np

# membership tolerance on coordinate/hbar; box points come from float
# multiplication, not parsing
LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice hbar*Z^n: spacing ``hbar`` (positive and finite) and dimension ``dim``."""

    hbar: float
    dim: int

    def __post_init__(self):
        if not (0 < self.hbar < np.inf):
            raise ValueError(f"lattice spacing must be positive and finite, got {self.hbar}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"lattice dimension must be a positive integer, got {self.dim}")
        object.__setattr__(self, "hbar", float(self.hbar))
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True)
class BoxTruncation:
    """Cube of integer coordinates in [-radius, radius]^n."""

    radius: int

    def __post_init__(self):
        if int(self.radius) != self.radius or self.radius < 0:
            raise ValueError(f"box radius must be a non-negative integer, got {self.radius}")
        object.__setattr__(self, "radius", int(self.radius))

    def size(self, dim: int) -> int:
        return (2 * self.radius + 1) ** dim


def as_point(spec: LatticeSpec, value) -> np.ndarray:
    """Coerce a scalar/sequence to a float vector of length ``spec.dim``."""
    p = np.asarray(value, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.shape != (spec.dim,):
        raise ValueError(f"expected a point of dimension {spec.dim}, got shape {p.shape}")
    return p


def integer_coords(spec: LatticeSpec, point) -> np.ndarray:
    """Integer coordinates z = point/hbar, or raise if off the lattice."""
    p = as_point(spec, point)
    z = p / spec.hbar
    zi = np.rint(z)
    if np.any(np.abs(z - zi) > LATTICE_TOL):
        raise ValueError(f"point {p} is not on the lattice with spacing {spec.hbar}")
    return zi.astype(np.int64)


def box_shape(spec: LatticeSpec, box: BoxTruncation) -> tuple:
    """The box order: box point i is element i, in C order, of an array of this shape.

    The array is indexed by z + R, so the order is lexicographic in z.
    """
    return (2 * box.radius + 1,) * spec.dim


def enumerate_box_integers(spec: LatticeSpec, box: BoxTruncation) -> np.ndarray:
    """Integer coordinates z of the box points, shape (size, dim), in box order."""
    z = np.indices(box_shape(spec, box), dtype=np.int64).reshape(spec.dim, -1).T
    # contiguous: on a transposed view, row norms (symbols._norms) change bits in 4-d
    return np.ascontiguousarray(z - box.radius)


def enumerate_box(spec: LatticeSpec, box: BoxTruncation) -> np.ndarray:
    """All box points hbar * z, same ordering as enumerate_box_integers."""
    return spec.hbar * enumerate_box_integers(spec, box)


def index_of(spec: LatticeSpec, box: BoxTruncation, point) -> int:
    """Position of a lattice point in the box enumeration."""
    z = integer_coords(spec, point)
    r = box.radius
    if np.any(np.abs(z) > r):
        raise ValueError(f"point {point} lies outside the box of radius {r}")
    return int(np.ravel_multi_index(tuple(z + r), box_shape(spec, box)))


def point_of(spec: LatticeSpec, box: BoxTruncation, index: int) -> np.ndarray:
    """Inverse of index_of on [0, (2R+1)^n); ValueError outside it."""
    z = np.array(np.unravel_index(int(index), box_shape(spec, box))) - box.radius
    return spec.hbar * z.astype(float)
