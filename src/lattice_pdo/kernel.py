"""Truncated operator matrices of lattice pseudo-differential operators.

The matrix entry at (row k, column m) is the Fourier coefficient of
sigma(k, .) at the difference m - k, so applying the matrix to a basis
vector e_i puts coefficient values down column i.  For the forward
difference operator this reproduces the textbook column: +1 at k = i - hbar
and -1 at k = i.

How a matrix is stored is decided in this module and nowhere else.
`assemble` keeps a closed-form symbol's bands as their nonzero
(row, col, value) triplets, sorted row-major: every built-in family has
torus-frequency support radius at most 1, so a row holds at most 3^n of
them.  Every other matrix (FFT quadrature, a user array, `hermitize` and
`read_binary` output) is stored dense.  The criterion sums read either
storage through `power_sums`, with the bits of the dense reduction.
Eigensolves, `hermitize`, `split_diagonal`, `apply`, `write_binary` and
`symbol_from_matrix` read `entries`, the dense matrix, which triplet
storage builds on first access (after checking that it fits in memory)
and keeps.  The values decide the dtype: real values are stored as
float64 (so real symmetric operators get the real eigensolvers), anything
else as complex128.  Truncation is plain restriction to the box (no
boundary corrections).
"""

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import BoxTruncation, LatticeSpec, enumerate_box, enumerate_box_integers
from .symbols import Symbol
from .fourier import DEFAULT_SAMPLES, check_no_fold, spectrum_of_row
from . import _util
from ._util import check_dense_fits, check_fits, parallel_map

TRIPLET_BYTES = 32       # two int64 indices and a complex128 value
PAIRWISE_BLOCK = 128     # numpy sums a row in blocks of at most this many elements


def stored_entries(a) -> np.ndarray:
    """The storage rule: real entries as float64, anything else as complex128."""
    a = np.asarray(a)
    return np.asarray(a, dtype=float if a.dtype.kind in "biuf" else complex)


class KernelMatrix:
    """Truncated matrix of an operator over a box of lattice points.

    ``KernelMatrix(spec, box, entries)`` stores a square array dense, by the
    rule of `stored_entries`; `assemble` stores closed-form bands as
    triplets.  Either way the stored values are read-only, checked finite
    once and never replaced, so `asymmetry` is computed once.
    """

    def __init__(self, spec: LatticeSpec, box: BoxTruncation, entries, provenance=None):
        e = stored_entries(entries)
        size = box.size(spec.dim)
        if e.shape != (size, size):
            raise ValueError(f"entries must be {size}x{size} for this box, got {e.shape}")
        self._store(spec, box, provenance, e, None)
        self.__dict__["entries"] = e  # fills the cached property: a dense kernel's storage

    @classmethod
    def _from_triplets(cls, spec, box, rows, cols, values, provenance):
        # nonzero values at (rows, cols), sorted row-major
        K = cls.__new__(cls)
        K._store(spec, box, provenance, values, (rows, cols, values))
        return K

    def _store(self, spec, box, provenance, values, triplets):
        if not np.all(np.isfinite(values.view(float))):
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
             n_samples: int = DEFAULT_SAMPLES, threads: int = 1) -> KernelMatrix:
    """Truncated matrix A(k, m) = coefficient of sigma(k, .) at frequency m - k.

    A symbol with closed-form coefficients is built band by band: one
    call per offset z = (m - k)/hbar with |z|_inf within its support radius
    (every offset that fits in the box when the radius is unknown), kept
    as sorted nonzero triplets, float64 when every band is real and
    complex128 otherwise.  Bands whose triplets could not fit in physical
    memory are refused before any is built.  Any other symbol goes through
    FFT quadrature row by row into a dense complex128 matrix, which refuses
    boxes whose 2R + 1 columns per axis would fold onto fewer than
    ``n_samples`` frequency bins, and boxes whose matrix would not fit in
    physical memory.
    """
    if spec.dim != sym.spec.dim or abs(spec.hbar - sym.spec.hbar) > 1e-12:
        raise ValueError("lattice spec does not match the symbol's lattice")
    size = box.size(spec.dim)
    r = box.radius

    if sym.closed_form_coeffs is not None:
        zs = enumerate_box_integers(spec, box)
        reach = 2 * r if sym.coeff_support_radius is None else min(sym.coeff_support_radius, 2 * r)
        offsets = enumerate_box_integers(spec, BoxTruncation(reach))
        check_fits(len(offsets) * size * TRIPLET_BYTES,
                   f"{len(offsets)} bands of a {size}-point box")
        strides = (2 * r + 1) ** np.arange(spec.dim - 1, -1, -1)
        flat, values = [], []
        for off in offsets:
            rows = np.flatnonzero(np.all(np.abs(zs + off) <= r, axis=1))
            band = np.asarray(sym.closed_form_coeffs(zs[rows], off))
            nonzero = np.flatnonzero(band)
            rows = rows[nonzero]
            flat.append(rows * size + rows + off @ strides)  # row * size + col
            values.append(band[nonzero])
        flat = np.concatenate(flat)
        order = np.argsort(flat)
        rows, cols = np.divmod(flat[order], size)
        return KernelMatrix._from_triplets(
            spec, box, rows, cols, stored_entries(np.concatenate(values))[order],
            provenance={"symbol": sym.name, "method": "closed-form", "radius": r})

    check_dense_fits((size, size))
    check_no_fold(r, n_samples)
    zs = enumerate_box_integers(spec, box)
    pts = spec.hbar * zs

    def row(i):
        spec_row = spectrum_of_row(sym, pts[i], n_samples)
        return spec_row[tuple(((zs - zs[i]) % n_samples).T)]

    entries = np.array(parallel_map(row, list(range(size)), threads), dtype=complex)
    return KernelMatrix(spec, box, entries, provenance={
        "symbol": sym.name, "method": f"quadrature(n={n_samples})", "radius": r})


def power_sums(K, p: float, axis: int) -> np.ndarray:
    """sum of |A(k, m)|^p over rows k (axis 0, per column) or columns m (axis 1, per row).

    p = inf gives the per-column or per-row maximum instead.  This is the
    one reader of the criterion sums, for a KernelMatrix or a plain square
    array.  Triplets give the bits of the dense reduction: a column adds
    its rows in order, as the dense axis-0 sum does, and a row adds its
    nonzeros in numpy's pairwise order (`_pairwise_row_sums`).
    """
    triplets = K._triplets if isinstance(K, KernelMatrix) else None
    if triplets is None:
        a = np.abs(entries_of(K))
        return np.max(a, axis=axis, initial=0.0) if p == math.inf else np.sum(a ** p, axis=axis)
    rows, cols, values = triplets
    a = np.abs(values)
    if p == math.inf:
        out = np.zeros(K.size)
        np.maximum.at(out, cols if axis == 0 else rows, a)
        return out
    if axis == 0:
        return _line_sums(cols, a ** p, K.size)
    return _pairwise_row_sums(rows, cols, a ** p, K.size)


def _line_sums(line, w, size) -> np.ndarray:
    # w added into out[line] in order, from 0.0; float64 even with no entries
    return np.bincount(line, weights=w, minlength=size).astype(float)


def _pairwise_row_sums(rows, cols, w, size) -> np.ndarray:
    """Row sums of non-negative triplet values w, with the bits of np.sum(axis=1).

    Transcribes numpy's pairwise_sum (numpy/_core/src/umath/loops_utils.h.src).
    A row of ``size`` elements is halved, cutting at a multiple of 8, into a
    binary tree of spans of at most PAIRWISE_BLOCK elements, numbered as a
    heap (root 1, children 2i and 2i+1).  A span adds its offsets j, j + 8,
    ... below its last multiple of 8 into accumulator r_j, combines
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then adds the other offsets one by
    one (a span of fewer than 8, all of them).  Sibling sums add up the tree.
    Zeros drop out of every sum exactly, so the tree over the nonzeros gives
    the dense bits.  A row of at most two nonzeros adds them in either order
    to the same bits.
    """
    if np.max(np.bincount(rows), initial=0) <= 2:
        return _line_sums(rows, w, size)
    spans, todo = [], [(0, size, 1)]  # (start, length, heap id), left to right
    while todo:
        start, n, node = todo.pop()
        if n <= PAIRWISE_BLOCK:
            spans.append((start, n, node))
        else:
            half = n // 2 - n // 2 % 8
            todo += [(start + half, n - half, 2 * node + 1), (start, half, 2 * node)]
    start, length, heap_id = np.array(spans).T
    span = np.searchsorted(start, cols, side="right") - 1
    off = cols - start[span]
    rest = off - (length - length % 8)[span]  # >= 0: added after the accumulators
    lane = np.where(rest < 0, off % 8, 8)
    # one partial sum per (row, span) holding nonzeros, in tree order: triplets are row-major
    first = np.r_[True, (rows[1:] != rows[:-1]) | (span[1:] != span[:-1])]
    group = np.cumsum(first) - 1
    row, node = rows[first], heap_id[span[first]]

    def r(j):
        return _line_sums(group[lane == j], w[lane == j], len(row))

    value = ((r(0) + r(1)) + (r(2) + r(3))) + ((r(4) + r(5)) + (r(6) + r(7)))
    for k in range(7):
        value[group[rest == k]] += w[rest == k]
    for depth in range(int(node.max()).bit_length() - 1, 0, -1):
        # the deepest sums move to their parent, where siblings add
        node[node >= 1 << depth] >>= 1
        pair = np.flatnonzero((row[1:] == row[:-1]) & (node[1:] == node[:-1]))
        value[pair] += value[pair + 1]
        keep = np.ones(len(value), dtype=bool)
        keep[pair + 1] = False
        row, node, value = row[keep], node[keep], value[keep]
    out = np.zeros(size)
    out[row] = value
    return out


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
    residue = KernelMatrix(K.spec, K.box, res,
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


def hermitian_check(K, tol: float = 1e-9):
    """(is_hermitian, max |A(k,m) - conj(A(m,k))|) of a KernelMatrix or a square array."""
    asym = K.asymmetry if isinstance(K, KernelMatrix) else _asymmetry(entries_of(K))
    return asym <= tol, asym


def hermitize(K: KernelMatrix) -> KernelMatrix:
    """(K + K^H) / 2, the Hermitian part."""
    sym = 0.5 * (K.entries + K.entries.conj().T)
    return KernelMatrix(K.spec, K.box, sym,
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
    return KernelMatrix(spec, box, data.astype(complex), provenance={"source": str(path)})
