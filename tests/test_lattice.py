import math

import numpy as np
import pytest

from lattice_pdo.lattice import (BoxTruncation, LatticeSpec, enumerate_box,
                                 index_of, point_of)


def test_enumerate_1d_unit():
    pts = enumerate_box(LatticeSpec(1.0, 1), BoxTruncation(1))
    assert pts.shape == (3, 1)
    np.testing.assert_array_equal(pts.ravel(), [-1.0, 0.0, 1.0])


def test_enumerate_1d_scaled():
    pts = enumerate_box(LatticeSpec(0.5, 1), BoxTruncation(2))
    np.testing.assert_allclose(pts.ravel(), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_enumerate_2d_lexicographic():
    pts = enumerate_box(LatticeSpec(1.0, 2), BoxTruncation(1))
    assert pts.shape == (9, 2)
    np.testing.assert_array_equal(pts[0], [-1.0, -1.0])
    np.testing.assert_array_equal(pts[-1], [1.0, 1.0])


def test_index_of_examples():
    spec = LatticeSpec(1.0, 1)
    assert index_of(spec, BoxTruncation(1), 0.0) == 1
    spec2 = LatticeSpec(1.0, 2)
    assert index_of(spec2, BoxTruncation(1), (0.0, 0.0)) == 4


def test_index_of_out_of_box():
    with pytest.raises(ValueError):
        index_of(LatticeSpec(1.0, 1), BoxTruncation(1), 2.0)


def test_index_of_off_lattice():
    with pytest.raises(ValueError):
        index_of(LatticeSpec(1.0, 1), BoxTruncation(1), 0.5)


@pytest.mark.parametrize("hbar,dim,radius", [(1.0, 1, 3), (0.5, 1, 4), (1.0, 2, 2), (0.25, 3, 1)])
def test_roundtrip_bijection(hbar, dim, radius):
    spec = LatticeSpec(hbar, dim)
    box = BoxTruncation(radius)
    size = box.size(dim)
    assert size == (2 * radius + 1) ** dim
    pts = enumerate_box(spec, box)
    assert len(pts) == size
    for i in range(size):
        p = point_of(spec, box, i)
        np.testing.assert_allclose(p, pts[i])
        assert index_of(spec, box, p) == i


def test_point_of_out_of_range():
    for index in (-1, 9):
        with pytest.raises(ValueError, match="out of bounds"):
            point_of(LatticeSpec(1.0, 2), BoxTruncation(1), index)


def test_rounding_tolerance():
    spec = LatticeSpec(1.0, 1)
    box = BoxTruncation(2)
    # points produced by multiplication carry float noise below the tolerance
    assert index_of(spec, box, 1.0 + 5e-10) == 3


def test_invalid_specs():
    with pytest.raises(ValueError):
        LatticeSpec(0.0, 1)
    # inf, which a kernel.bin header can carry, is no lattice spacing either
    for hbar in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="lattice spacing must be positive"):
            LatticeSpec(hbar, 1)
    with pytest.raises(ValueError):
        LatticeSpec(1.0, 0)
    with pytest.raises(ValueError):
        BoxTruncation(-1)
