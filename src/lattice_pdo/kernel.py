"""Truncated operator matrices of lattice pseudo-differential operators.

The matrix entry at (row k, column m) is the Fourier coefficient of
sigma(k, .) at the difference m - k, so applying the matrix to a basis
vector e_i puts coefficient values down column i.  For the forward
difference operator this reproduces the textbook column: +1 at k = i - hbar
and -1 at k = i.

Every matrix is stored one way, decided in this module and nowhere else: as
its nonzero (row, col, value) triplets, sorted row-major, by one construction.
A closed form gives them from one table, at most 3^n a row (every built-in
family has torus-frequency support radius at most 1).  A square array (a
user's matrix, a plain array given to a reader, or ~1 MiB of rows at a time
of a series read or of `read_binary`, or one row of FFT quadrature) gives
its triplets through one reader, `np.flatnonzero` block by block, so an
entry equal to 0 (-0.0 too) is never stored.  Every solve in `spectral`
reads `reflection_blocks`: matrices with no lattice, one per parity pattern
of the axis reflections that fix the triplets (K itself when none does),
each stored when asked for and yielded with the basis that maps its rows
back onto the box.  A matrix is dense only through `entries`, built on each
read and not kept.  The values alone decide the dtype (`stored_entries`):
real values are stored as float64 (so real symmetric operators get the real
eigensolvers), anything else as complex128.
Truncation is plain restriction to the box (no boundary corrections).
"""

import itertools
import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import (BoxTruncation, LatticeSpec, box_strides, enumerate_box,
                      enumerate_box_integers)
from .symbols import NonFiniteError, Symbol, _finite_at, _series_blocks, _series_gather
from .fourier import coefficients, grid_size
from . import _util
from ._util import check_dense_fits, check_fits, rows_per_block

TRIPLET_BYTES = 32       # two int64 indices and a complex128 value
HERMITIAN_TOL = 1e-9     # largest asymmetry `hermitian_check` accepts


def stored_entries(a) -> np.ndarray:
    """The storage rule: real entries as float64, anything else as complex128."""
    a = np.asarray(a)
    return np.asarray(a, dtype=float if a.dtype.kind in "biuf" else complex)


def _nonzeros(size, blocks):
    # the one square-array reader, by (first row, rows) blocks: nonzeros' flat positions, values
    parts, nnz = [], 0
    for first, a in blocks:
        nnz += np.count_nonzero(a)  # preflighted before the block's nonzeros are kept
        check_fits(nnz * TRIPLET_BYTES, f"{nnz} nonzeros of a {size}x{size} matrix")
        flat = np.flatnonzero(a)
        parts.append((flat + first * size, np.take(a, flat)))
        del a  # before the next block is read
    return [np.concatenate(part) for part in zip(*parts)]


class KernelMatrix:
    """Truncated matrix of an operator over a box of lattice points.

    ``KernelMatrix(spec, box, a)`` stores the nonzeros of a square array
    (`TRIPLET_BYTES` each, checked to fit in physical memory first), and
    leaves the caller's array as it was; spec None stores it with no lattice.
    The triplets, the only copy kept, are read-only and checked finite once
    (`NonFiniteError` names the row point of least norm holding a non-finite
    entry; with no lattice, the first (row, col)); `asymmetry` is computed once.
    """

    def __init__(self, spec: LatticeSpec, box: BoxTruncation, entries, provenance=None):
        a = stored_entries(entries)
        size = math.isqrt(a.size) if spec is None else box.size(spec.dim)
        if a.shape != (size, size):
            raise ValueError(f"entries must be a square {size}x{size} matrix, got {a.shape}")
        self._store(spec, box, size, *_nonzeros(size, [(0, a)]), provenance)

    @classmethod
    def _from_flat(cls, spec, box, size, flat, values, provenance):
        return cls.__new__(cls)._store(spec, box, size, flat, values, provenance)

    def _store(self, spec, box, size, flat, values, provenance):
        # the one construction, from values at positions row * size + col: the values at one
        # position are added by np.add.reduceat in the order given (a lone value keeps its
        # bits), a sum of 0 is not stored, and increasing positions are stored as they come
        values = stored_entries(values)
        if np.any(flat[1:] <= flat[:-1]):
            order = np.argsort(flat, kind="stable")
            first = np.flatnonzero(np.diff(flat[order], prepend=-1))
            flat, values = flat[order[first]], np.add.reduceat(values[order], first)
            del order, first  # before the triplets are built
        if not np.all(values):
            keep = np.flatnonzero(values)
            flat, values = flat[keep], values[keep]
        rows, cols = np.divmod(flat, size)
        finite = np.isfinite(values)
        if not finite.all():
            if spec is None:
                i = np.argmin(finite)
                raise NonFiniteError(f"matrix entry is not finite at (row, col) = "
                                     f"({rows[i]}, {cols[i]}): {values[i]}")
            _finite_at(enumerate_box(spec, box)[rows], values, "kernel entry")
        for part in (rows, cols, values):
            part.setflags(write=False)
        self.spec = spec
        self.box = box
        self.size = size
        self.provenance = dict(provenance or {})
        self._triplets = rows, cols, values
        return self

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, read-only, built on each read and not kept."""
        return _dense(self.size, *self._triplets)

    @cached_property
    def asymmetry(self) -> float:
        """max |A(k,m) - conj(A(m,k))|."""
        return _asymmetry(self.size, *self._triplets)

    def lattice(self):
        """(spec, box), or ValueError for a matrix stored with no lattice."""
        if self.spec is None:
            raise ValueError(f"the {self.size}x{self.size} matrix has no lattice")
        return self.spec, self.box

    def points(self) -> np.ndarray:
        return enumerate_box(*self.lattice())


def _dense(size, rows, cols, values) -> np.ndarray:
    # the only place a matrix becomes dense, read only through `entries`
    check_dense_fits((size, size))
    a = np.zeros((size, size), dtype=values.dtype)
    a[rows, cols] = values
    a.setflags(write=False)
    return a


def reflection_blocks(K: KernelMatrix):
    """K's blocks in the basis adapted to the axis reflections z_a -> -z_a that fix it.

    A generator of (block, (at, pos, coef)), each block a KernelMatrix with
    no lattice, stored by the one construction when it is asked for: a
    caller that lets go of one before the next holds one block at a time.

    An axis is folded when its reflection maps the stored triplets onto
    themselves, keys and values exactly.  The representatives are the box
    points with z_a >= 0 on every folded axis; |z| reflects z onto them and
    nz(z) counts its nonzero folded coordinates.  A parity pattern s (a set
    of odd folded axes) has one block, over the representatives with
    z_a > 0 on each odd axis, in box order.  Its row u is the unit vector
    2^(-nz(u)/2) sum over |z| = u of chi_s(z) e_z, chi_s(z) the product of
    sign(z_a) over the odd axes: the triplet (u, w, A) of a representative
    row u adds chi_s(w) sqrt2^(nz(u) - nz(w)) A to entry (u, |w|), and box
    point at[i] takes coef[i] = chi_s 2^(-nz/2) times block row pos[i].
    The rows are orthonormal, so the eigenvalues (or singular values) of K
    are those of its 2^f blocks together, f folded axes (at R = 0 all but
    one block are 0x0).  With no folded axis (or no lattice) the one block
    is K itself and the basis the identity; the rounding of the others is
    bounded in `spectral`.
    """
    rows, cols, values = K._triplets
    size, folded = K.size, []
    if K.spec is not None:
        n, r = K.spec.dim, K.box.radius
        # bytes at the peak of a block's build, as if every selection kept everything.  A
        # triplet: its key (from the fold test), the representatives' positions, u, w, v (at
        # most 16) and the weight (56); keep (8); the block's positions and values (24); in
        # `_store`, the order, the first of each run and the summed positions (24), the
        # sorted values and their sums (32); the caller's last block (32): 176.  A point: z,
        # |z| and two (size, n) temporaries (32 n); nz, 2^(-nz/2), chi_s and pos (32); the
        # bases of this block and of the caller's last (48).  `entries` checks each block.
        check_fits(176 * len(values) + (32 * n + 80) * size,
                   f"reflection blocks of {len(values)} triplets")
        side = 2 * r + 1
        strides = box_strides(K.spec, K.box)
        keys = rows * size + cols

        def fixes(a):
            # reflecting axis a takes a box index i to i - 2 strides[a] z_a(i)
            mirrored = [i - 2 * strides[a] * (i // strides[a] % side - r) for i in (rows, cols)]
            mirrored = mirrored[0] * size + mirrored[1]
            order = np.argsort(mirrored)
            return np.array_equal(mirrored[order], keys) and np.array_equal(values[order], values)

        folded = [a for a in range(n) if fixes(a)]
    if not folded:
        every = np.arange(size)
        yield K, (every, every, np.ones(size))
        return
    # the fold, written once per box point: z, |z| and nz(z)
    z = np.arange(size)[:, None] // strides % side - r
    z_abs = np.where(np.isin(np.arange(n), folded), np.abs(z), z)
    nz = np.count_nonzero(z[:, folded], axis=1)
    rep = np.flatnonzero(np.all(z[:, folded] >= 0, axis=1)[rows])
    u, w, v = rows[rep], cols[rep], values[rep]
    weight, unit = (np.ldexp(np.where(d % 2, np.sqrt(2.0), 1.0), d // 2)  # sqrt2^d, one rounding
                    for d in (nz[u] - nz[w], -nz))
    for odd in itertools.product((False, True), repeat=len(folded)):
        low = np.full(n, -r)
        low[folded] = odd
        shape = r + 1 - low
        chi = np.prod(np.sign(z[:, [a for a, o in zip(folded, odd) if o]]), axis=1)
        pos = (z_abs - low) @ np.r_[np.cumprod(shape[:0:-1])[::-1], 1]
        keep, at, m = np.flatnonzero(chi[u] * chi[w]), np.flatnonzero(chi), math.prod(shape)
        yield (KernelMatrix._from_flat(None, None, m, pos[u[keep]] * m + pos[w[keep]],
                                       _scaled(v[keep], chi[w[keep]] * weight[keep]), None),
               (at, pos[at], chi[at] * unit[at]))


def _scaled(values, factors) -> np.ndarray:
    # values * factors with a complex value's two parts scaled apart, so 1.0 keeps every bit
    if values.dtype.kind != "c":
        return values * factors
    return (values.view(float).reshape(-1, 2) * factors[:, None]).view(complex)[:, 0]


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
    fit in physical memory).  Any other symbol is refused first if its dense
    array would not fit, then read by blocks of rows whose nonzeros are
    stored as they come (`_nonzeros`), so no dense array is built: a series
    (the symbol of a matrix) exactly, one row_series call a block of ~1 MiB
    of tensors and of box rows, gathered as `series_coefficients` gathers,
    with the method "series"; a symbol given by its values by quadrature,
    row by row, each on the grid its offsets need (`fourier.coefficients`),
    with the method naming the grid of the widest rows, whose corner
    offsets reach 2R.  Either way `stored_entries` decides the dtype:
    float64 when every value is real, complex128 otherwise.  ``threads`` is
    unused; it is kept because perfbench/workloads.py passes it.
    """
    if spec != sym.spec:
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
        shifts = offsets @ box_strides(spec, box)
        return KernelMatrix._from_flat(spec, box, size, rows * (size + 1) + shifts[cols],
                                       sym.closed_form_coeffs(zs, offsets)[rows, cols],
                                       {"symbol": sym.name, "method": "closed-form", "radius": r})

    check_dense_fits((size, size))
    zs = enumerate_box_integers(spec, box)
    if sym.row_series is not None:
        # column m of row z is the coefficient at frequency m - z, read as m with z added to low
        blocks = ((i, _series_gather(coeffs, low + zs[i:i + len(coeffs)], zs))
                  for i, coeffs, low in _series_blocks(sym, zs, size))
        method = "series"
    else:
        blocks = ((i, coefficients(sym, zs[i:i + 1], zs - zs[i])) for i in range(size))
        method = f"quadrature(n={grid_size(2 * r)})"
    return KernelMatrix._from_flat(spec, box, size, *_nonzeros(size, blocks),
                                   {"symbol": sym.name, "method": method, "radius": r})


def as_kernel(K) -> KernelMatrix:
    """K itself, or a plain square array stored as ``KernelMatrix(None, None, K)``."""
    return K if isinstance(K, KernelMatrix) else KernelMatrix(None, None, K)


def power_sums(K, p: float, axis: int) -> np.ndarray:
    """sum of |A(k, m)|^p over rows k (axis 0, per column) or columns m (axis 1, per row).

    p = inf gives the per-column or per-row maximum instead.  This is the
    one reader of the criterion sums, of a KernelMatrix's triplets or a
    plain square array's (`as_kernel`).  Each column or row adds its terms
    in row-major order from 0.0.
    """
    K = as_kernel(K)
    size, (rows, cols, values) = K.size, K._triplets
    line, w = (cols if axis == 0 else rows), np.abs(values)
    if p == math.inf:
        out = np.zeros(size)
        np.maximum.at(out, line, w)
        return out
    # float64 even with no nonzeros, where bincount gives int64
    return np.bincount(line, weights=w ** p, minlength=size).astype(float, copy=False)


def apply(K: KernelMatrix, a) -> np.ndarray:
    """Matrix-vector product in box enumeration order, each row's terms added in column order."""
    v = np.asarray(a, dtype=complex)
    if v.shape != (K.size,):
        raise ValueError(f"sequence length {v.shape} does not match box size {K.size}")
    rows, cols, values = K._triplets
    out = np.zeros(K.size, dtype=complex)
    np.add.at(out, rows, values * v[cols])
    return out


def split_diagonal(K: KernelMatrix) -> DiagonalSplit:
    """Exact entrywise split into the diagonal and the zero-diagonal residue."""
    rows, cols, values = K._triplets
    on = rows == cols
    d = np.zeros(K.size, dtype=values.dtype)
    d[rows[on]] = values[on]
    residue = KernelMatrix._from_flat(K.spec, K.box, K.size, rows[~on] * K.size + cols[~on],
                                      values[~on], dict(K.provenance, part="off-diagonal"))
    return DiagonalSplit(d, residue)


def subtract_diagonal(K: KernelMatrix, d) -> KernelMatrix:
    """K - diag(d): K's triplets and -d on the diagonal, a diagonal entry of 0 not stored."""
    size, (rows, cols, values) = K.size, K._triplets
    return KernelMatrix._from_flat(
        K.spec, K.box, size, np.concatenate([rows * size + cols, np.arange(size) * (size + 1)]),
        np.concatenate([values, -np.asarray(d)]), provenance=K.provenance)


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
    """(asymmetry <= HERMITIAN_TOL, `asymmetry`) of a KernelMatrix or a square array."""
    asym = as_kernel(K).asymmetry
    return asym <= HERMITIAN_TOL, asym


def hermitize(K: KernelMatrix) -> KernelMatrix:
    """(K + K^H) / 2, the Hermitian part, on the stored positions and their transposes."""
    size, (rows, cols, _) = K.size, K._triplets
    flat = np.union1d(rows * size + cols, cols * size + rows)
    r, c = np.divmod(flat, size)
    sym = 0.5 * (_lookup(size, *K._triplets, r, c) + np.conj(_lookup(size, *K._triplets, c, r)))
    return KernelMatrix._from_flat(K.spec, K.box, size, flat, sym,
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
    (spec, box), size, (rows, cols, values) = K.lattice(), K.size, K._triplets
    check_dense_fits((size, size))
    # refused as `entries` is, but written from the triplets through ~1 MiB of zeroed rows
    buf = np.zeros((rows_per_block(size), size), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(spec.dim, spec.hbar, box.radius))
        for start in range(0, size, len(buf)):
            lo, hi = np.searchsorted(rows, [start, start + len(buf)])
            at = rows[lo:hi] - start, cols[lo:hi]
            buf[at] = values[lo:hi]
            fh.write(buf[:size - start])
            buf[at] = 0


def read_binary(path) -> KernelMatrix:
    """Read a write_binary file: header and length checked first, then ~1 MiB of rows a read."""
    with open(path, "rb") as fh:
        head, got = fh.read(_BIN_HEADER.size), os.fstat(fh.fileno()).st_size
        if len(head) != _BIN_HEADER.size:
            raise ValueError(f"{path} holds {got} bytes; the header takes {_BIN_HEADER.size}")
        dim, hbar, radius = _BIN_HEADER.unpack(head)
        spec, box = LatticeSpec(hbar, dim), BoxTruncation(radius)
        # a box of more points than the file has bytes is refused before its size is computed
        if dim * math.log(2 * radius + 1) > math.log(got):
            raise ValueError(f"{path} holds {got} bytes; a box of {2 * radius + 1}^{dim} "
                             f"points takes more")
        size = box.size(spec.dim)
        want = _BIN_HEADER.size + 16 * size * size
        if got != want:
            raise ValueError(f"{path} holds {got} bytes; a {size}x{size} matrix takes {want}")
        step = rows_per_block(size)
        flat, values = _nonzeros(size, ((i, np.frombuffer(fh.read(16 * size * step), "<c16"))
                                        for i in range(0, size, step)))
    # the box's integer coordinates, which `points` enumerates, must fit too
    check_fits(8 * dim * size, f"the integer coordinates of a {size}-point box in {dim}-d")
    return KernelMatrix._from_flat(spec, box, size, flat, values, {"source": str(path)})
