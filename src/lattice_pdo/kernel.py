"""Truncated operator matrices of lattice pseudo-differential operators.

The matrix entry at (row k, column m) is the Fourier coefficient of
sigma(k, .) at the difference m - k, so applying the matrix to a basis
vector e_i puts coefficient values down column i.  For the forward
difference operator this reproduces the textbook column: +1 at k = i - hbar
and -1 at k = i.

Every matrix is stored one way, decided in this module and nowhere else:
as its nonzero (row, col, value) triplets, sorted row-major.  A closed
form gives them from one table, at most 3^n a row (every built-in family
has torus-frequency support radius at most 1).  A square array (a user's
matrix, a series read or FFT quadrature, `read_binary` input) gives its
triplets through one reader, `np.nonzero`, so an entry equal to 0 (-0.0
too) is never stored.  Only eigensolves, `apply`, `write_binary` and
`symbol_from_matrix` read `entries`, the dense matrix, which is built on
first access (after checking that it fits in memory) and kept.  The
values alone decide the dtype (`stored_entries`): real values are stored
as float64 (so real symmetric operators get the real eigensolvers),
anything else as complex128.  Truncation is plain restriction to the box
(no boundary corrections).
"""

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import BoxTruncation, LatticeSpec, enumerate_box, enumerate_box_integers
from .symbols import Symbol, _finite_at
from .fourier import coefficients, grid_size
from . import _util
from ._util import check_dense_fits, check_fits

TRIPLET_BYTES = 32       # two int64 indices and a complex128 value
HERMITIAN_TOL = 1e-9     # largest asymmetry `hermitian_check` accepts


def stored_entries(a) -> np.ndarray:
    """The storage rule: real entries as float64, anything else as complex128."""
    a = np.asarray(a)
    return np.asarray(a, dtype=float if a.dtype.kind in "biuf" else complex)


def _nonzero(a):
    # the one reader of a square array: its nonzero (rows, cols, values), row-major
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


class KernelMatrix:
    """Truncated matrix of an operator over a box of lattice points.

    ``KernelMatrix(spec, box, a)`` stores the nonzeros of a square array
    (`TRIPLET_BYTES` each, checked to fit in physical memory first), and
    leaves the caller's array as it was.  The stored triplets are
    read-only, checked finite once (`NonFiniteError` names the row point of
    least norm that holds a non-finite entry) and never replaced, so
    `asymmetry` is computed once.
    """

    def __init__(self, spec: LatticeSpec, box: BoxTruncation, entries, provenance=None):
        a = stored_entries(entries)
        size = box.size(spec.dim)
        if a.shape != (size, size):
            raise ValueError(f"entries must be {size}x{size} for this box, got {a.shape}")
        nnz = np.count_nonzero(a)
        check_fits(nnz * TRIPLET_BYTES, f"{nnz} nonzeros of a {size}x{size} matrix")
        self._store(spec, box, provenance, _nonzero(a))

    @classmethod
    def _from_flat(cls, spec, box, flat, values, provenance):
        # values at the distinct positions row * size + col, in any order; zeros are dropped
        values = stored_entries(values)
        keep = np.flatnonzero(values)
        order = keep[np.argsort(flat[keep])]
        K = cls.__new__(cls)
        K._store(spec, box, provenance, (*np.divmod(flat[order], box.size(spec.dim)), values[order]))
        return K

    def _store(self, spec, box, provenance, triplets):
        if not np.all(np.isfinite(triplets[2])):  # NonFiniteError names the row point
            _finite_at(enumerate_box(spec, box)[triplets[0]], triplets[2], "kernel entry")
        for part in triplets:
            part.setflags(write=False)
        self.spec = spec
        self.box = box
        self.provenance = dict(provenance or {})
        self._triplets = triplets

    @property
    def size(self) -> int:
        return self.box.size(self.spec.dim)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense matrix, built on first access and kept."""
        return _dense(self.size, *self._triplets)

    @cached_property
    def asymmetry(self) -> float:
        """max |A(k,m) - conj(A(m,k))|."""
        return _asymmetry(self.size, *self._triplets)

    def points(self) -> np.ndarray:
        return enumerate_box(self.spec, self.box)


def _dense(size, rows, cols, values) -> np.ndarray:
    # the only place a kernel becomes a dense matrix
    check_dense_fits((size, size))
    a = np.zeros((size, size), dtype=values.dtype)
    a[rows, cols] = values
    a.setflags(write=False)
    return a


@dataclass
class DiagonalSplit:
    """Split K = diag + residue with the residue's diagonal identically zero."""

    diagonal: np.ndarray
    residue: KernelMatrix


def assemble(sym: Symbol, spec: LatticeSpec, box: BoxTruncation,
             threads: int = 1) -> KernelMatrix:
    """Truncated matrix A(k, m) = coefficient of sigma(k, .) at frequency m - k.

    A symbol with closed-form coefficients is read in one call: the table
    of all box rows at the offsets z = (m - k)/hbar with |z|_inf within its
    support radius and 2R, whose entries with a column in the box are kept
    as nonzero triplets (refused before anything is built if they could not
    fit in physical memory).  Any other symbol is read row by row by
    `fourier.coefficients` into a dense array, whose nonzeros are stored: a
    series (the symbol of a matrix) exactly, by frequency index, with the
    method "series"; a symbol given by its values by quadrature, each row
    on the grid its offsets need, with the method naming the grid of the
    widest rows, whose corner offsets reach 2R.  An array that would not
    fit in physical memory is refused before any row is read.  Either way
    `stored_entries` decides the dtype: float64 when every value is real,
    complex128 otherwise.  ``threads`` is unused (rows are read in turn);
    it is kept because perfbench/workloads.py passes it.
    """
    if spec.dim != sym.spec.dim or abs(spec.hbar - sym.spec.hbar) > 1e-12:
        raise ValueError("lattice spec does not match the symbol's lattice")
    size = box.size(spec.dim)
    r = box.radius

    if sym.closed_form_coeffs is not None:
        reach = BoxTruncation(min(sym.coeff_support_radius, 2 * r))
        bands = reach.size(spec.dim)
        check_fits(bands * size * TRIPLET_BYTES, f"{bands} bands of a {size}-point box")
        zs, offsets = enumerate_box_integers(spec, box), enumerate_box_integers(spec, reach)
        rows, cols = np.nonzero(np.logical_and.reduce(
            [np.abs(zj[:, None] + oj) <= r for zj, oj in zip(zs.T, offsets.T)]))
        # in box order, the column of row i at offset z is i + z . strides
        shifts = offsets @ (2 * r + 1) ** np.arange(spec.dim - 1, -1, -1)
        return KernelMatrix._from_flat(spec, box, rows * (size + 1) + shifts[cols],
                                       sym.closed_form_coeffs(zs, offsets)[rows, cols],
                                       {"symbol": sym.name, "method": "closed-form", "radius": r})

    check_dense_fits((size, size))
    zs = enumerate_box_integers(spec, box)
    entries = np.array([coefficients(sym, zs[i:i + 1], zs - zs[i])[0] for i in range(size)])
    method = "series" if sym.row_series is not None else f"quadrature(n={grid_size(2 * r)})"
    return KernelMatrix(spec, box, entries, provenance={
        "symbol": sym.name, "method": method, "radius": r})


def _triplets_of(K):
    # (size, rows, cols, values) of a KernelMatrix, or of a plain square array by `_nonzero`
    if isinstance(K, KernelMatrix):
        return K.size, *K._triplets
    a = entries_of(K)
    return len(a), *_nonzero(a)


def power_sums(K, p: float, axis: int) -> np.ndarray:
    """sum of |A(k, m)|^p over rows k (axis 0, per column) or columns m (axis 1, per row).

    p = inf gives the per-column or per-row maximum instead.  This is the
    one reader of the criterion sums, for a KernelMatrix (its triplets) or a
    plain square array (its nonzeros by `np.nonzero`).  Each column or row
    adds its terms in row-major order from 0.0.
    """
    size, rows, cols, values = _triplets_of(K)
    line, w = (cols if axis == 0 else rows), np.abs(values)
    if p == math.inf:
        out = np.zeros(size)
        np.maximum.at(out, line, w)
        return out
    # float64 even with no nonzeros, where bincount gives int64
    return np.bincount(line, weights=w ** p, minlength=size).astype(float, copy=False)


def apply(K: KernelMatrix, a) -> np.ndarray:
    """Matrix-vector product in box enumeration order."""
    v = np.asarray(a, dtype=complex)
    if v.shape != (K.size,):
        raise ValueError(f"sequence length {v.shape} does not match box size {K.size}")
    return K.entries @ v


def split_diagonal(K: KernelMatrix) -> DiagonalSplit:
    """Exact entrywise split into the diagonal and the zero-diagonal residue."""
    rows, cols, values = K._triplets
    on = rows == cols
    d = np.zeros(K.size, dtype=values.dtype)
    d[rows[on]] = values[on]
    residue = KernelMatrix._from_flat(K.spec, K.box, rows[~on] * K.size + cols[~on], values[~on],
                                      provenance=dict(K.provenance, part="off-diagonal"))
    return DiagonalSplit(d, residue)


def subtract_diagonal(K: KernelMatrix, d) -> KernelMatrix:
    """K - diag(d); a diagonal entry that becomes 0 is not stored."""
    split, size = split_diagonal(K), K.size
    rows, cols, values = split.residue._triplets
    return KernelMatrix._from_flat(
        K.spec, K.box, np.concatenate([rows * size + cols, np.arange(size) * (size + 1)]),
        np.concatenate([values, split.diagonal - d]), provenance=K.provenance)


def entries_of(K) -> np.ndarray:
    """The entries of a KernelMatrix, or a plain square array under `stored_entries`."""
    if isinstance(K, KernelMatrix):
        return K.entries
    a = stored_entries(K)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _lookup(size, rows, cols, values, at_rows, at_cols) -> np.ndarray:
    # the stored value at each position (at_rows, at_cols), or 0 where none is stored
    keys, want = rows * size + cols, at_rows * size + at_cols
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return np.where(keys[at] == want, values[at], 0)


def _asymmetry(size, rows, cols, values) -> float:
    # a pair with neither entry stored adds 0; a pair with one adds it at the stored one
    transposed = _lookup(size, rows, cols, values, cols, rows)
    return float(np.max(np.abs(values - np.conj(transposed)), initial=0.0))


def hermitian_check(K):
    """(is_hermitian, max |A(k,m) - conj(A(m,k))|) of a KernelMatrix or a square array.

    Hermitian means an asymmetry of at most HERMITIAN_TOL.
    """
    asym = K.asymmetry if isinstance(K, KernelMatrix) else _asymmetry(*_triplets_of(K))
    return asym <= HERMITIAN_TOL, asym


def hermitize(K: KernelMatrix) -> KernelMatrix:
    """(K + K^H) / 2, the Hermitian part, on the stored positions and their transposes."""
    size, (rows, cols, _) = K.size, K._triplets
    flat = np.union1d(rows * size + cols, cols * size + rows)
    r, c = np.divmod(flat, size)
    sym = 0.5 * (_lookup(size, *K._triplets, r, c) + np.conj(_lookup(size, *K._triplets, c, r)))
    return KernelMatrix._from_flat(K.spec, K.box, flat, sym,
                                   provenance=dict(K.provenance, hermitized=True))


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def write_csv(K: KernelMatrix, path) -> None:
    """The stored triplets as CSV rows (row, col, re, im), row-major."""
    rows, cols, values = K._triplets
    _util.write_csv(path, ["row", "col", "re", "im"], [rows, cols, values.real, values.imag])


_BIN_HEADER = struct.Struct("<qdq")  # dim, hbar, radius


def write_binary(K: KernelMatrix, path) -> None:
    """Compact binary: header (n int64, hbar float64, R int64), then row-major complex128."""
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(K.spec.dim, K.spec.hbar, K.box.radius))
        fh.write(np.ascontiguousarray(K.entries, dtype="<c16").tobytes())


def read_binary(path) -> KernelMatrix:
    """Read a matrix written by write_binary."""
    with open(path, "rb") as fh:
        dim, hbar, radius = _BIN_HEADER.unpack(fh.read(_BIN_HEADER.size))
        spec = LatticeSpec(hbar, int(dim))
        box = BoxTruncation(int(radius))
        size = box.size(spec.dim)
        data = np.frombuffer(fh.read(), dtype="<c16").reshape(size, size)
    return KernelMatrix(spec, box, data, provenance={"source": str(path)})
