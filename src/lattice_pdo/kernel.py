"""Truncated operator matrices of lattice pseudo-differential operators.

The matrix entry at (row k, column m) is the Fourier coefficient of
sigma(k, .) at the difference m - k, so applying the matrix to a basis
vector e_i puts coefficient values down column i.  For the forward
difference operator this reproduces the textbook column: +1 at k = i - hbar
and -1 at k = i.

How a matrix is stored is decided in this module and nowhere else.
`assemble` keeps a closed-form symbol's bands as their nonzero (row, col,
value) triplets, sorted row-major: every built-in family has torus-frequency
support radius at most 1, so a row holds at most 3^n of them.  Every other
matrix (a series read or FFT quadrature, a user array, `hermitize` and
`read_binary` output) is stored dense.  The criterion sums read either
storage through `power_sums`, as its nonzeros in row-major order, so both
storages give the same bits.  Eigensolves, `hermitize`, `split_diagonal`, `apply`,
`write_binary` and `symbol_from_matrix` read `entries`, the dense matrix,
which triplet storage builds on first access (after checking that it fits in
memory) and keeps.  The values alone decide the dtype (`stored_entries`),
whatever built them: real values are stored as float64 (so real symmetric
operators get the real eigensolvers), anything else as complex128.
Truncation is plain restriction to the box (no boundary corrections).
"""

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import BoxTruncation, LatticeSpec, box_shape, enumerate_box, enumerate_box_integers
from .symbols import Symbol
from .fourier import coefficients, grid_size
from . import _util
from ._util import check_dense_fits, check_fits, parallel_map

TRIPLET_BYTES = 32       # two int64 indices and a complex128 value
HERMITIAN_TOL = 1e-9     # largest asymmetry `hermitian_check` accepts


def stored_entries(a, copy=False) -> np.ndarray:
    """The storage rule: real entries as float64, anything else as complex128.

    A new row-major array when ``copy``; otherwise ``a`` itself if it
    already follows the rule.
    """
    a = np.asarray(a)
    dtype = float if a.dtype.kind in "biuf" else complex
    return np.array(a, dtype=dtype, order="C") if copy else np.asarray(a, dtype=dtype)


class KernelMatrix:
    """Truncated matrix of an operator over a box of lattice points.

    ``KernelMatrix(spec, box, entries)`` stores a copy of a square array
    dense, by the rule of `stored_entries`, so the caller's array is left
    as it was; the package's own dense builders hand over arrays they made
    for the kernel, without a copy.  `assemble` stores closed-form bands as
    triplets.  Either way the stored values are read-only, checked finite
    once and never replaced, so `asymmetry` is computed once.
    """

    def __init__(self, spec: LatticeSpec, box: BoxTruncation, entries, provenance=None):
        self._store(spec, box, provenance, stored_entries(entries, copy=True), None)

    @classmethod
    def _owning(cls, spec, box, entries, provenance):
        # a dense array made for this kernel alone: stored as it is
        K = cls.__new__(cls)
        K._store(spec, box, provenance, stored_entries(entries), None)
        return K

    @classmethod
    def _from_triplets(cls, spec, box, rows, cols, values, provenance):
        # nonzero values at (rows, cols), sorted row-major
        K = cls.__new__(cls)
        K._store(spec, box, provenance, values, (rows, cols, values))
        return K

    def _store(self, spec, box, provenance, values, triplets):
        if triplets is None:  # dense storage: the values are the matrix
            size = box.size(spec.dim)
            if values.shape != (size, size):
                raise ValueError(f"entries must be {size}x{size} for this box, got {values.shape}")
            self.__dict__["entries"] = values  # fills the cached property
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel entries must be finite")
        values.setflags(write=False)
        self.spec = spec
        self.box = box
        self.provenance = dict(provenance or {})
        self._triplets = triplets

    @property
    def size(self) -> int:
        return self.box.size(self.spec.dim)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense matrix; triplet storage builds it on first access and keeps it."""
        return _dense(self.size, *self._triplets)

    @cached_property
    def asymmetry(self) -> float:
        """max |A(k,m) - conj(A(m,k))|."""
        return _asymmetry(self.entries)

    def points(self) -> np.ndarray:
        return enumerate_box(self.spec, self.box)


def _dense(size, rows, cols, values) -> np.ndarray:
    # the only place a triplet kernel becomes a dense matrix
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

    A symbol with closed-form coefficients is built band by band: one
    call per offset z = (m - k)/hbar with |z|_inf within its support radius
    and 2R, kept as sorted nonzero triplets.  Bands whose triplets could
    not fit in physical memory are refused before the box coordinates or
    any band is built.  Any other symbol is read row by row by
    `fourier.coefficients` into a dense matrix: a series (the symbol of a
    matrix) exactly, by frequency index, with the method "series"; a symbol
    given by its values by quadrature, each row on the grid its offsets
    need, with the method naming the grid of the widest rows, whose corner
    offsets reach 2R.  A matrix that would not fit in physical memory is
    refused before any row is read.  Either way `stored_entries` decides
    the dtype: float64 when every value is real, complex128 otherwise.
    """
    if spec.dim != sym.spec.dim or abs(spec.hbar - sym.spec.hbar) > 1e-12:
        raise ValueError("lattice spec does not match the symbol's lattice")
    size = box.size(spec.dim)
    r = box.radius

    if sym.closed_form_coeffs is not None:
        reach = BoxTruncation(min(sym.coeff_support_radius, 2 * r))
        bands = reach.size(spec.dim)
        check_fits(bands * size * TRIPLET_BYTES, f"{bands} bands of a {size}-point box")
        zs, shape = enumerate_box_integers(spec, box), box_shape(spec, box)
        flat, values = [], []
        for off in enumerate_box_integers(spec, reach):
            rows = np.flatnonzero(np.all(np.abs(zs + off) <= r, axis=1))
            # in box order the band is one index shift: column = row + shift
            shift = np.ravel_multi_index(tuple(zs[rows[0]] + off + r), shape) - rows[0]
            band = np.asarray(sym.closed_form_coeffs(zs[rows], off))
            nonzero = np.flatnonzero(band)
            rows = rows[nonzero]
            flat.append(rows * size + rows + shift)  # row * size + col
            values.append(band[nonzero])
        flat = np.concatenate(flat)
        order = np.argsort(flat)
        rows, cols = np.divmod(flat[order], size)
        return KernelMatrix._from_triplets(
            spec, box, rows, cols, stored_entries(np.concatenate(values))[order],
            provenance={"symbol": sym.name, "method": "closed-form", "radius": r})

    check_dense_fits((size, size))
    zs = enumerate_box_integers(spec, box)

    def row(i):
        return coefficients(sym, zs[i:i + 1], zs - zs[i])[0]

    entries = np.array(parallel_map(row, list(range(size)), threads))
    method = "series" if sym.row_series is not None else f"quadrature(n={grid_size(2 * r)})"
    return KernelMatrix._owning(spec, box, entries, provenance={
        "symbol": sym.name, "method": method, "radius": r})


def power_sums(K, p: float, axis: int) -> np.ndarray:
    """sum of |A(k, m)|^p over rows k (axis 0, per column) or columns m (axis 1, per row).

    p = inf gives the per-column or per-row maximum instead.  This is the
    one reader of the criterion sums, for a KernelMatrix or a plain square
    array.  Either storage is read as its nonzeros in row-major order (the
    stored triplets, or `np.nonzero` of the dense matrix), and each column
    or row adds its terms in that order from 0.0, so both give the same bits.
    """
    if isinstance(K, KernelMatrix) and K._triplets is not None:
        size, (rows, cols, values) = K.size, K._triplets
    else:
        a = entries_of(K)
        size, (rows, cols) = len(a), np.nonzero(a)
        values = a[rows, cols]
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
    d = np.diag(K.entries).copy()
    res = np.array(K.entries)
    np.fill_diagonal(res, 0.0)
    residue = KernelMatrix._owning(K.spec, K.box, res,
                                   provenance=dict(K.provenance, part="off-diagonal"))
    return DiagonalSplit(d, residue)


def entries_of(K) -> np.ndarray:
    """The entries of a KernelMatrix, or a plain square array under `stored_entries`."""
    if isinstance(K, KernelMatrix):
        return K.entries
    a = stored_entries(K)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _asymmetry(a) -> float:
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def hermitian_check(K):
    """(is_hermitian, max |A(k,m) - conj(A(m,k))|) of a KernelMatrix or a square array.

    Hermitian means an asymmetry of at most HERMITIAN_TOL.
    """
    asym = K.asymmetry if isinstance(K, KernelMatrix) else _asymmetry(entries_of(K))
    return asym <= HERMITIAN_TOL, asym


def hermitize(K: KernelMatrix) -> KernelMatrix:
    """(K + K^H) / 2, the Hermitian part."""
    sym = 0.5 * (K.entries + K.entries.conj().T)
    return KernelMatrix._owning(K.spec, K.box, sym,
                                provenance=dict(K.provenance, hermitized=True))


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def write_csv(K: KernelMatrix, path) -> None:
    """Nonzero entries as CSV rows (row, col, re, im), row-major.

    Triplets are written as stored.  A dense matrix is gathered a few rows
    at a time, about CSV_CHUNK entries per block, so the export never holds
    every nonzero at once.
    """
    header = ["row", "col", "re", "im"]
    if K._triplets is not None:
        rows, cols, values = K._triplets
        _util.write_csv(path, header, [rows, cols, values.real, values.imag])
        return
    a = K.entries
    step = max(1, _util.CSV_CHUNK // K.size)

    def blocks():
        for first in range(0, K.size, step):
            rows, cols = np.nonzero(a[first:first + step])
            values = a[first + rows, cols]
            yield [first + rows, cols, values.real, values.imag]

    _util.write_csv_blocks(path, header, blocks())


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
    return KernelMatrix._owning(spec, box, data.astype(complex),
                                provenance={"source": str(path)})
