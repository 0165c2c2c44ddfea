"""Truncated operator matrices of lattice pseudo-differential operators.

The matrix entry at (row k, column m) is the Fourier coefficient of
sigma(k, .) at the difference m - k, so applying the matrix to a basis
vector e_i puts coefficient values down column i.  For the forward
difference operator this reproduces the textbook column: +1 at k = i - hbar
and -1 at k = i.

Storage is dense; desk-scale boxes keep full Hermitian eigensolves cheap
and banded structure is treated as an optimization, not a contract.  The
entries decide the dtype: real entries are stored as float64 (so real
symmetric operators get the real eigensolvers), anything else as
complex128.  `assemble` fills closed-form symbols band by band, in float64
when every band is real, and quadrature symbols in complex128.
Truncation is plain restriction to the box (no boundary corrections).
"""

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import (BoxTruncation, LatticeSpec, enumerate_box,
                      enumerate_box_integers)
from .symbols import Symbol
from .fourier import DEFAULT_SAMPLES, check_no_fold, spectrum_of_row
from . import _util
from ._util import check_dense_fits, parallel_map


def stored_entries(a) -> np.ndarray:
    """The storage rule: real entries as float64, anything else as complex128."""
    a = np.asarray(a)
    return np.asarray(a, dtype=float if a.dtype.kind in "biuf" else complex)


@dataclass(frozen=True)
class KernelMatrix:
    """Dense truncated matrix of an operator over a box of lattice points.

    Entries are stored read-only by the rule of `stored_entries` (float64
    when they are real, complex128 otherwise) and never replaced, so
    `asymmetry` is computed once.
    """

    spec: LatticeSpec
    box: BoxTruncation
    entries: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        e = stored_entries(self.entries)
        size = self.box.size(self.spec.dim)
        if e.shape != (size, size):
            raise ValueError(f"entries must be {size}x{size} for this box, got {e.shape}")
        if not np.all(np.isfinite(e.view(float))):
            raise ValueError("kernel entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def asymmetry(self) -> float:
        """max |A(k,m) - conj(A(m,k))|."""
        return _asymmetry(self.entries)

    def points(self) -> np.ndarray:
        return enumerate_box(self.spec, self.box)


@dataclass
class DiagonalSplit:
    """Split K = diag + residue with the residue's diagonal identically zero."""

    diagonal: np.ndarray
    residue: KernelMatrix


def assemble(sym: Symbol, spec: LatticeSpec, box: BoxTruncation,
             n_samples: int = DEFAULT_SAMPLES, threads: int = 1) -> KernelMatrix:
    """Truncated matrix A(k, m) = coefficient of sigma(k, .) at frequency m - k.

    A symbol with closed-form coefficients is filled band by band: one
    call per offset z = (m - k)/hbar with |z|_inf within its support radius
    (every offset that fits in the box when the radius is unknown), into a
    float64 matrix when every band is real and complex128 otherwise.  Any
    other symbol goes through FFT quadrature row by row (complex128), which
    refuses boxes whose 2R + 1 columns per axis would fold onto fewer than
    ``n_samples`` frequency bins.  A box whose complex128 matrix would not
    fit in physical memory is refused before anything is built.
    """
    if spec.dim != sym.spec.dim or abs(spec.hbar - sym.spec.hbar) > 1e-12:
        raise ValueError("lattice spec does not match the symbol's lattice")
    size = box.size(spec.dim)
    check_dense_fits((size, size))
    zs = enumerate_box_integers(spec, box)
    r = box.radius

    if sym.closed_form_coeffs is not None:
        reach = 2 * r if sym.coeff_support_radius is None else min(sym.coeff_support_radius, 2 * r)
        strides = (2 * r + 1) ** np.arange(spec.dim - 1, -1, -1)
        bands = []
        for off in enumerate_box_integers(spec, BoxTruncation(reach)):
            rows = np.flatnonzero(np.all(np.abs(zs + off) <= r, axis=1))
            bands.append((rows, rows + off @ strides, sym.closed_form_coeffs(zs[rows], off)))
        real = not any(np.iscomplexobj(band) for _, _, band in bands)
        entries = np.zeros((size, size), dtype=float if real else complex)
        for rows, cols, band in bands:
            entries[rows, cols] = band
        method = "closed-form"
    else:
        check_no_fold(r, n_samples)
        pts = spec.hbar * zs

        def row(i):
            spec_row = spectrum_of_row(sym, pts[i], n_samples)
            return spec_row[tuple(((zs - zs[i]) % n_samples).T)]

        entries = np.array(parallel_map(row, list(range(size)), threads), dtype=complex)
        method = f"quadrature(n={n_samples})"
    return KernelMatrix(spec, box, entries,
                        provenance={"symbol": sym.name, "method": method, "radius": r})


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
    """Nonzero entries as CSV rows (row, col, re, im), row-major."""
    rows, cols = np.nonzero(K.entries)
    values = K.entries[rows, cols]
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
    return KernelMatrix(spec, box, data.astype(complex), provenance={"source": str(path)})
