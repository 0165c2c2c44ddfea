"""Scaled integer lattices and finite truncation boxes.

All operators in this package live on the lattice of points ``hbar * z``
with ``z`` an integer vector.  Finite computations restrict to the cube
``|z_j| <= R`` and enumerate its points lexicographically; that ordering is
part of the output contract (matrices are reproducible entry for entry).
"""

from dataclasses import dataclass

import numpy as np

# membership tolerance on coordinate/hbar; box points come from float
# multiplication, not parsing
LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice hbar*Z^n: spacing ``hbar`` and dimension ``dim``."""

    hbar: float
    dim: int

    def __post_init__(self):
        if not (self.hbar > 0):
            raise ValueError(f"lattice spacing must be positive, got {self.hbar}")
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


def enumerate_box_integers(spec: LatticeSpec, box: BoxTruncation) -> np.ndarray:
    """Integer coordinates z of the box points, shape (size, dim), lexicographic in z."""
    r = box.radius
    axes = [np.arange(-r, r + 1)] * spec.dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1).astype(np.int64)


def enumerate_box(spec: LatticeSpec, box: BoxTruncation) -> np.ndarray:
    """All box points hbar * z, same ordering as enumerate_box_integers."""
    return spec.hbar * enumerate_box_integers(spec, box)


def index_of(spec: LatticeSpec, box: BoxTruncation, point) -> int:
    """Position of a lattice point in the box enumeration."""
    z = integer_coords(spec, point)
    r = box.radius
    if np.any(np.abs(z) > r):
        raise ValueError(f"point {point} lies outside the box of radius {r}")
    side = 2 * r + 1
    idx = 0
    for c in z:
        idx = idx * side + (int(c) + r)
    return idx


def point_of(spec: LatticeSpec, box: BoxTruncation, index: int) -> np.ndarray:
    """Inverse of index_of on [0, (2R+1)^n)."""
    size = box.size(spec.dim)
    if not (0 <= index < size):
        raise ValueError(f"index {index} outside [0, {size})")
    r = box.radius
    side = 2 * r + 1
    coords = np.empty(spec.dim, dtype=np.int64)
    rem = int(index)
    for j in range(spec.dim - 1, -1, -1):
        coords[j] = rem % side - r
        rem //= side
    return spec.hbar * coords.astype(float)
