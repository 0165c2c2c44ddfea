"""Torus Fourier coefficients of symbols and empirical decay constants.

The coefficient of sigma(k, .) at a lattice frequency m is

    int_{T^n} sigma(k, theta) exp(-2 pi i m . theta / hbar) dtheta,

with m/hbar an integer vector.  `coefficients` is the one reader: a
symbol's closed form when it has one, else the tensor trapezoid rule on
``n_samples`` uniform points per axis (an FFT, `spectrum_of_row`), read at
bin z mod n_samples.  A frequency with 2 |z|_inf + 1 > n_samples is refused,
never folded, so quadrature is exact for trigonometric polynomials of
per-axis degree below ``n_samples / 2``.  The default of 64 samples covers
every built-in family (degree <= 1) and the symbol of a matrix on a box of
radius up to 15, whose rows reach frequency 2R.
"""

from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .lattice import BoxTruncation, enumerate_box_integers, integer_coords
from .symbols import Symbol, eval_symbol, values_only
from . import _util
from ._util import check_dense_fits

DEFAULT_SAMPLES = 64


@cache
def _theta_grid(dim: int, n_samples: int) -> np.ndarray:
    grid = np.stack(np.indices((n_samples,) * dim), axis=-1) / n_samples
    grid.setflags(write=False)  # shared by every row
    return grid


def spectrum_of_row(sym: Symbol, k, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """FFT of sigma(k, .) sampled on the uniform grid, normalized to coefficients."""
    grid = _theta_grid(sym.spec.dim, n_samples)
    samples = eval_symbol(sym, k, grid)
    return np.fft.fftn(samples) / n_samples ** sym.spec.dim


def coefficients(sym: Symbol, z_rows, z_offsets, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Coefficient of sigma(hbar z_rows[i], .) at frequency z_offsets[j], shape (S, M).

    Rows (S, n) and offsets (M, n) are integer coordinates.  A closed form is
    called once per offset; quadrature refuses the offsets if any would fold,
    then reads one `spectrum_of_row` call per row at bins z mod n_samples.
    """
    values = np.empty((len(z_rows), len(z_offsets)), dtype=complex)
    if sym.closed_form_coeffs is not None:
        for j, z in enumerate(z_offsets):
            values[:, j] = sym.closed_form_coeffs(z_rows, z)
        return values
    radius = int(np.max(np.abs(z_offsets), initial=0))
    if 2 * radius + 1 > n_samples:
        raise ValueError(f"frequency radius {radius} needs n_samples >= {2 * radius + 1}, "
                         f"got n_samples={n_samples}: FFT quadrature would fold frequencies")
    bins = tuple((z_offsets % n_samples).T)
    for i, z in enumerate(z_rows):
        values[i] = spectrum_of_row(sym, sym.spec.hbar * z, n_samples)[bins]
    return values


def toroidal_coefficient(sym: Symbol, k, m, n_samples: int = DEFAULT_SAMPLES,
                         force_quadrature: bool = False) -> complex:
    """Coefficient of sigma(k, .) at lattice frequency m; by quadrature if ``force_quadrature``."""
    zk, zm = integer_coords(sym.spec, k), integer_coords(sym.spec, m)
    if force_quadrature:
        sym = values_only(sym)
    return complex(coefficients(sym, zk[None], zm[None], n_samples)[0, 0])


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients over a k-box and a frequency ball, in box enumeration order."""

    k_points: np.ndarray     # (S, n)
    m_points: np.ndarray     # (M, n)
    values: np.ndarray       # (S, M) complex

    def nonzeros_per_row(self) -> np.ndarray:
        return np.sum(np.abs(self.values) > 0, axis=1)


def coefficient_table(sym: Symbol, k_box: BoxTruncation, freq_radius: int,
                      n_samples: int = DEFAULT_SAMPLES) -> CoefficientTable:
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
                            coefficients(sym, k_ints, m_ints, n_samples))


@dataclass(frozen=True)
class DecayReport:
    """Sampled supremum for the coefficient decay bound.

    ``constant`` is the max over the sampled (k, m) ranges of
    |coef(k, m)| * (1 + |m|/hbar)^(2 q_tilde) * (1 + |k|)^-(mu + 2 q_tilde delta);
    it scopes a claim to the sample, it is not a proof.  ``support_radius``
    is the largest |m/hbar|_inf with a nonzero coefficient when that is
    strictly inside the sampled range (None when coefficients reach the
    boundary).
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


def estimate_decay_constant(sym: Symbol, q_tilde: int, k_radius: int, m_radius: int,
                            n_samples: int = DEFAULT_SAMPLES) -> DecayReport:
    """Empirical constant for the coefficient decay inequality at order q_tilde."""
    if q_tilde < 0:
        raise ValueError("q_tilde must be non-negative")
    spec = sym.spec
    mu, delta = sym.order.mu, sym.order.delta
    table = coefficient_table(sym, BoxTruncation(int(k_radius)), int(m_radius),
                              n_samples=n_samples)
    k_norm = np.linalg.norm(table.k_points, axis=1)
    m_norm = np.linalg.norm(table.m_points, axis=1) / spec.hbar
    weight = np.outer((1.0 + k_norm) ** (-(mu + 2 * q_tilde * delta)),
                      (1.0 + m_norm) ** (2 * q_tilde))
    constant = float(np.max(np.abs(table.values) * weight))

    m_sup = np.max(np.abs(enumerate_box_integers(spec, BoxTruncation(int(m_radius)))), axis=1)
    nonzero = np.abs(table.values) > 1e-13
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
