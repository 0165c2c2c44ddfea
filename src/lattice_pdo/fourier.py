"""Torus Fourier coefficients of symbols and empirical decay constants.

The coefficient of sigma(k, .) at a lattice frequency m is

    int_{T^n} sigma(k, theta) exp(-2 pi i m . theta / hbar) dtheta,

with m/hbar an integer vector.  Quadrature is the tensor trapezoid rule on
``n_samples`` uniform points per axis (an FFT of the sampled grid), which
is exact for trigonometric polynomials of per-axis degree below
``n_samples / 2``.  The default of 64 samples covers every built-in family
(degree <= 1) with headroom for matrix-induced symbols of bandwidth up to 31;
a frequency span wider than ``n_samples`` is refused, never folded.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import BoxTruncation, as_point, enumerate_box_integers, integer_coords
from .symbols import Symbol
from . import _util
from ._util import check_dense_fits, parallel_map

DEFAULT_SAMPLES = 64

_GRID_CACHE: dict = {}


def _theta_grid(dim: int, n_samples: int) -> np.ndarray:
    key = (dim, n_samples)
    if key not in _GRID_CACHE:
        axes = [np.arange(n_samples) / n_samples] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        _GRID_CACHE[key] = np.stack(mesh, axis=-1)
    return _GRID_CACHE[key]


def check_no_fold(radius: int, n_samples: int) -> None:
    """Raise unless the 2 radius + 1 frequencies per axis get distinct FFT bins.

    Frequency z lands in bin z mod n_samples, so a wider span folds two
    frequencies onto one bin and quadrature returns their sum.
    """
    if 2 * radius + 1 > n_samples:
        raise ValueError(f"frequency radius {radius} needs n_samples >= {2 * radius + 1}, "
                         f"got n_samples={n_samples}: FFT quadrature would fold frequencies")


def spectrum_of_row(sym: Symbol, k, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """FFT of sigma(k, .) sampled on the uniform grid, normalized to coefficients.

    Entry [z mod N, ...] is the quadrature coefficient at integer frequency z.
    """
    kk = as_point(sym.spec, k)
    grid = _theta_grid(sym.spec.dim, n_samples)
    samples = np.asarray(sym.eval_fn(kk, grid), dtype=complex)
    return np.fft.fftn(samples) / n_samples ** sym.spec.dim


def toroidal_coefficient(sym: Symbol, k, m, n_samples: int = DEFAULT_SAMPLES,
                         force_quadrature: bool = False) -> complex:
    """Fourier coefficient of sigma(k, .) at lattice frequency m.

    Uses the symbol's closed form when available, otherwise grid quadrature.
    """
    zk, zm = integer_coords(sym.spec, k), integer_coords(sym.spec, m)
    if sym.closed_form_coeffs is not None and not force_quadrature:
        return complex(sym.closed_form_coeffs(zk[None], zm)[0])
    check_no_fold(int(np.max(np.abs(zm))), n_samples)
    spec_row = spectrum_of_row(sym, sym.spec.hbar * zk, n_samples)
    return complex(spec_row[tuple(zm % n_samples)])


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients over a k-box and a frequency ball, in box enumeration order."""

    k_points: np.ndarray     # (S, n)
    m_points: np.ndarray     # (M, n)
    values: np.ndarray       # (S, M) complex

    def nonzeros_per_row(self, tol: float = 0.0) -> np.ndarray:
        return np.sum(np.abs(self.values) > tol, axis=1)


def coefficient_table(sym: Symbol, k_box: BoxTruncation, freq_radius: int,
                      n_samples: int = DEFAULT_SAMPLES, threads: int = 1) -> CoefficientTable:
    """All coefficients with k in the box and |m/hbar|_inf <= freq_radius.

    A table that would not fit in physical memory is refused before anything
    is built.
    """
    spec = sym.spec
    m_box = BoxTruncation(int(freq_radius))
    check_dense_fits((k_box.size(spec.dim), m_box.size(spec.dim)))
    k_ints = enumerate_box_integers(spec, k_box)
    m_ints = enumerate_box_integers(spec, m_box)
    k_points = spec.hbar * k_ints
    values = np.empty((len(k_ints), len(m_ints)), dtype=complex)

    if sym.closed_form_coeffs is not None:
        for j, z in enumerate(m_ints):
            values[:, j] = sym.closed_form_coeffs(k_ints, z)
    else:
        check_no_fold(m_box.radius, n_samples)
        idx = tuple((m_ints % n_samples).T)

        def row(k):
            return spectrum_of_row(sym, k, n_samples)[idx]

        values[:] = parallel_map(row, list(k_points), threads)
    return CoefficientTable(k_points, spec.hbar * m_ints, values)


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
