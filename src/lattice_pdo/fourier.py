"""Torus Fourier coefficients of symbols and empirical decay constants.

The coefficient of sigma(k, .) at a lattice frequency m is

    int_{T^n} sigma(k, theta) exp(-2 pi i m . theta / hbar) dtheta,

with m/hbar an integer vector.  `coefficients` is the one reader, with one
rule of three cases, checked in this order:

1. a closed form returns the table of all rows and offsets in one call;
2. otherwise a series (``row_series``, such as the symbol of a matrix) is
   read in blocks of rows of ~1 MiB of tensors, one call and one gather of
   every (row, offset) pair a block: each coefficient is found by its index
   in its row's consecutive frequencies, and is 0 outside them
   (`symbols.series_coefficients`);
3. only a symbol given by its values alone (``eval_fn``) goes to FFT
   quadrature: the tensor trapezoid rule on N uniform points per axis
   (`spectrum_of_row`), read at bin z mod N.

Cases 1 and 2 give each coefficient exactly as the symbol holds it, in the
values' own dtype (float64 for a real symbol); case 3 gives complex128.
`grid_size` is the one rule for N: the smallest power of two at least
max(64, 2 radius + 1), radius the largest |z|_inf the call asks for, so no
asked frequency folds onto another.  64, the bandwidth assumed for a
symbol given only by its values, makes quadrature exact for trigonometric
polynomials of per-axis degree up to max(31, radius).  The grid is
sampled SAMPLE_BLOCK points at a time into one array, transformed in place
and dropped after its row; a sample that is not finite is refused.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import BoxTruncation, enumerate_box_integers, integer_coords
from .symbols import NonFiniteError, Symbol, quadrature_only, series_coefficients
from . import _util
from ._util import check_dense_fits, check_fits

SAMPLE_BLOCK = 1 << 14   # grid points handed to eval_fn at a time: all of a 128^2 grid


def grid_size(radius: int) -> int:
    """Quadrature points per axis for frequencies up to |z|_inf <= radius (module docstring)."""
    return max(64, 1 << (2 * radius + 1).bit_length())


def spectrum_of_row(sym: Symbol, k, n: int) -> np.ndarray:
    """FFT of eval_fn(k, .) on the uniform n^dim grid, normalized to coefficients.

    eval_fn sees the grid SAMPLE_BLOCK points at a time, each block's theta
    built from its flat indices.  A sample that is not finite raises
    NonFiniteError naming the row k.
    """
    dim, size = sym.spec.dim, n ** sym.spec.dim
    values = np.empty((n,) * dim, dtype=complex)
    for start in range(0, size, SAMPLE_BLOCK):
        flat = np.arange(start, min(start + SAMPLE_BLOCK, size))
        theta = np.stack(np.unravel_index(flat, values.shape), axis=-1) / n
        values.reshape(-1)[flat] = sym.eval_fn(k, theta)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"symbol '{sym.name}' is not finite at k = {np.ravel(k).tolist()} "
                             f"on the {n}^{dim} quadrature grid")
    return np.divide(np.fft.fftn(values, out=values), size, out=values)


def coefficients(sym: Symbol, z_rows, z_offsets) -> np.ndarray:
    """Coefficient of sigma(hbar z_rows[i], .) at frequency z_offsets[j], shape (S, M).

    Rows (S, n) and offsets (M, n) are integer coordinates; the three cases
    are the module docstring's rule.  Quadrature reads one `spectrum_of_row`
    call per row on the `grid_size` of the widest offset, at bins z mod N.
    A grid that would not fit in physical memory is refused before it is
    built.
    """
    if sym.closed_form_coeffs is not None:
        return sym.closed_form_coeffs(z_rows, z_offsets)
    if sym.row_series is not None:
        return series_coefficients(sym, z_rows, z_offsets)
    dim = sym.spec.dim
    n = grid_size(int(np.max(np.abs(z_offsets), initial=0)))
    # the samples, transformed in place, and one block's theta and eval_fn work
    # (a series' phase tables and partial sums), budgeted at 64 values a point
    check_fits(16 * (n ** dim + 64 * SAMPLE_BLOCK), f"a quadrature grid of {n}^{dim} points")
    values = np.empty((len(z_rows), len(z_offsets)), dtype=complex)
    bins = tuple((z_offsets % n).T)
    for i, z in enumerate(z_rows):
        values[i] = spectrum_of_row(sym, sym.spec.hbar * z, n)[bins]
    return values


def toroidal_coefficient(sym: Symbol, k, m, force_quadrature: bool = False) -> complex:
    """Coefficient of sigma(k, .) at lattice frequency m; by quadrature if ``force_quadrature``."""
    zk, zm = integer_coords(sym.spec, k), integer_coords(sym.spec, m)
    if force_quadrature:
        sym = quadrature_only(sym)
    return complex(coefficients(sym, zk[None], zm[None])[0, 0])


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients over a k-box and a frequency ball, in box enumeration order."""

    k_points: np.ndarray     # (S, n)
    m_points: np.ndarray     # (M, n)
    values: np.ndarray       # (S, M), in the dtype `coefficients` returns


def coefficient_table(sym: Symbol, k_box: BoxTruncation, freq_radius: int) -> CoefficientTable:
    """All coefficients with k in the box and |m/hbar|_inf <= freq_radius.

    A table that would not fit in physical memory is refused before anything
    is built.
    """
    spec = sym.spec
    m_box = BoxTruncation(int(freq_radius))
    check_dense_fits((k_box.size(spec.dim), m_box.size(spec.dim)))
    k_ints = enumerate_box_integers(spec, k_box)
    m_ints = enumerate_box_integers(spec, m_box)
    return CoefficientTable(spec.hbar * k_ints, spec.hbar * m_ints,
                            coefficients(sym, k_ints, m_ints))


@dataclass(frozen=True)
class DecayReport:
    """Sampled supremum for the coefficient decay bound.

    ``constant`` is the max over the sampled (k, m) ranges of
    |coef(k, m)| * (1 + |m|/hbar)^(2 q_tilde) * (1 + |k|)^-(mu + 2 q_tilde delta);
    it scopes a claim to the sample, it is not a proof.  A coefficient that
    is 0 or subnormal adds nothing; a normal one whose ratio is not finite
    is refused (ValueError, naming its (k, m)).  It is the true supremum
    over every k only where that ratio does not depend on k, as for the
    built-in decaying family.  ``support_radius`` is the largest
    |m/hbar|_inf with a nonzero coefficient when that is strictly inside
    the sampled range (None when coefficients reach the boundary).
    """

    q_tilde: int
    constant: float
    k_radius: int
    m_radius: int
    mu: float
    delta: float
    hbar: float
    dim: int
    support_radius: Optional[int]


def estimate_decay_constant(sym: Symbol, q_tilde: int, k_radius: int,
                            m_radius: int) -> DecayReport:
    """Empirical constant for the coefficient decay inequality at order q_tilde (`DecayReport`)."""
    if q_tilde < 0:
        raise ValueError("q_tilde must be non-negative")
    spec = sym.spec
    mu, delta = sym.order.mu, sym.order.delta
    table = coefficient_table(sym, BoxTruncation(int(k_radius)), int(m_radius))
    k_norm = np.linalg.norm(table.k_points, axis=1)
    m_norm = np.linalg.norm(table.m_points, axis=1) / spec.hbar
    magnitude = np.abs(table.values)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by (k, m) below
        ratio = magnitude * np.outer((1.0 + k_norm) ** (-(mu + 2 * q_tilde * delta)),
                                     (1.0 + m_norm) ** (2 * q_tilde))
    ratio[magnitude < np.finfo(float).tiny] = 0.0
    constant = float(np.max(ratio))
    if not np.isfinite(constant):
        i, j = np.unravel_index(np.argmin(np.isfinite(ratio)), ratio.shape)
        raise ValueError(f"the weighted ratio at (k, m) = ({table.k_points[i].tolist()}, "
                         f"{table.m_points[j].tolist()}) is not finite: |coef| {magnitude[i, j]}")

    m_sup = np.max(np.abs(enumerate_box_integers(spec, BoxTruncation(int(m_radius)))), axis=1)
    nonzero = magnitude > 1e-13
    occupied = np.any(nonzero, axis=0)
    if not occupied.any():
        support = 0
    else:
        largest = int(np.max(m_sup[occupied]))
        support = largest if largest < m_radius else None
    return DecayReport(int(q_tilde), constant, int(k_radius), int(m_radius),
                       mu, delta, spec.hbar, spec.dim, support)


def table_to_csv(table: CoefficientTable, path) -> None:
    """Write a coefficient table as CSV: k_1..k_n, m_1..m_n, re, im, k-major.

    The points are broadcast against the (k, m) grid, never repeated in memory.
    """
    n = table.k_points.shape[1]
    _util.write_csv(path, [f"{c}_{j + 1}" for c in "km" for j in range(n)] + ["re", "im"],
                    [*table.k_points.T[:, :, None], *table.m_points.T[:, None, :],
                     table.values.real, table.values.imag])
