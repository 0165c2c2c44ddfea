"""Discrete Schrodinger operators with confining polynomial potentials.

H = -hbar^-2 Delta + V on the scaled lattice, with Delta the plain hopping
stencil (neighbor sum minus 2n f).  The kinetic part is positive
semidefinite, so V >= 0 keeps the spectrum nonnegative; low eigenvalues of
the box truncation stabilize under box doubling because confining
potentials localize the eigenvectors.

The sorted values of the diagonal part (V(k) + 2n hbar^-2 + shift) are an
independent oracle: Hermitian perturbation bounds every eigenvalue of H
within the hopping norm of them.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import BoxTruncation, LatticeSpec, enumerate_box_integers
from .kernel import KernelMatrix, assemble
from .symbols import anharmonic_value, schrodinger_symbol

DEFAULT_MAX_DIM = 4000


@dataclass(frozen=True)
class PotentialSpec:
    """Confining potential: callable plus its polynomial order mu > 0.

    Construction probes sample points: values must be nonnegative, grow
    along every axis, and the large-radius doubling ratio must match the
    declared order (log2 ratio within 0.5 of mu).
    """

    fn: Callable
    mu: float
    dim: int = 1

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError(f"potential order must be positive, got {self.mu}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim}")
        self._validate()

    def _validate(self):
        probes = [np.zeros(self.dim)]
        for j in range(self.dim):
            for r in (1, 2, 4, 8, 16, 64, 128, 256):
                for sign in (1.0, -1.0):
                    p = np.zeros(self.dim)
                    p[j] = sign * r
                    probes.append(p)
        probes.append(np.full(self.dim, 3.0))
        for p in probes:
            v = float(self.fn(p))
            if v < 0:
                raise ValueError(f"potential is negative at {p}: {v}")
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = 1.0
            v128, v256 = float(self.fn(128 * e)), float(self.fn(256 * e))
            if not (v256 > v128 > 0):
                raise ValueError(
                    f"potential does not grow along axis {j}: V(128e)={v128}, V(256e)={v256}")
            ratio = math.log2(v256 / v128)
            if abs(ratio - self.mu) > 0.5:
                raise ValueError(
                    f"potential growth along axis {j} has doubling exponent {ratio:.3f}, "
                    f"inconsistent with declared order {self.mu}")

    def __call__(self, k):
        return float(self.fn(np.asarray(k, dtype=float)))

    @classmethod
    def anharmonic(cls, c: float, l: int, dim: int = 1) -> "PotentialSpec":
        """V(k) = c |k|^(2l), the anharmonic oscillator family."""
        if not (c > 0):
            raise ValueError(f"anharmonic coefficient must be positive, got {c}")
        return cls(anharmonic_value(c, l), 2.0 * l, dim)


def _hamiltonian_symbol(spec: LatticeSpec, V, lam: float):
    # the order is metadata for the criteria; a plain callable V carries none
    return schrodinger_symbol(V, lam, spec, potential_order=getattr(V, "mu", math.nan))


def build_hamiltonian(spec: LatticeSpec, V, box: BoxTruncation,
                      lam: float = 0.0) -> KernelMatrix:
    """Real symmetric truncation of -hbar^-2 Delta + V + lam on the box.

    The assembled Schrodinger symbol: diagonal 2n hbar^-2 + V(k) + lam,
    -hbar^-2 between nearest neighbors that both lie inside the box.
    Stored as float64, so eigensolves run in real arithmetic.
    """
    return assemble(_hamiltonian_symbol(spec, V, lam), spec, box)


def weyl_oracle(spec: LatticeSpec, V, box: BoxTruncation, j_max: int,
                lam: float = 0.0) -> np.ndarray:
    """The j_max smallest diagonal values V(k) + 2n hbar^-2 + lam over the box.

    This is the spectrum of the diagonal part (the offset-0 band of the
    Schrodinger symbol), computed without any matrix or eigensolver; it
    brackets the true eigenvalues within the hopping norm.
    """
    band = _hamiltonian_symbol(spec, V, lam).closed_form_coeffs
    diag = band(enumerate_box_integers(spec, box), np.zeros(spec.dim, dtype=np.int64))
    return np.sort(diag)[:j_max]


@dataclass
class ConvergedSpectrum:
    """Low eigenvalues from a box-doubling scan, with per-value flags."""

    eigenvalues: np.ndarray
    converged: np.ndarray
    radius_used: int
    radii_scanned: list

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


def _start_radius(spec: LatticeSpec) -> int:
    if spec.dim == 1:
        return max(1, round(25 / spec.hbar))
    # keep the starting box near the 1-d budget of 51 points
    side = max(3, int(51 ** (1.0 / spec.dim)))
    return max(1, (side - 1) // 2)


def spectrum_converged(spec: LatticeSpec, V: PotentialSpec, j_max: int, tol: float,
                       lam: float = 0.0, start_radius: Optional[int] = None,
                       max_dim: int = DEFAULT_MAX_DIM) -> ConvergedSpectrum:
    """First j_max eigenvalues, each flagged once box doubling stops moving it.

    Eigenvalue j counts as converged when successive radii give values
    within tol * (1 + |lambda_j|).  The scan stops early when everything
    requested has converged, or at the matrix-dimension budget (partial
    result, flags False).  start_radius must be at least 1: box doubling
    never leaves radius 0.
    """
    if not isinstance(V, PotentialSpec):
        raise TypeError("spectrum_converged requires a validated PotentialSpec")
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    R = start_radius if start_radius is not None else _start_radius(spec)
    if R < 1:
        raise ValueError(f"start_radius must be at least 1, got {R}")
    radii = []
    prev = None
    best_vals = np.full(j_max, np.nan)
    flags = np.zeros(j_max, dtype=bool)
    radius_used = R
    while BoxTruncation(R).size(spec.dim) <= max_dim:
        H = build_hamiltonian(spec, V, BoxTruncation(R), lam)
        vals = np.linalg.eigvalsh(H.entries)
        radii.append(R)
        m = min(j_max, len(vals))
        best_vals[:m] = vals[:m]
        best_vals[m:] = np.nan
        radius_used = R
        if prev is not None:
            mm = min(m, len(prev))
            diff = np.abs(vals[:mm] - prev[:mm])
            flags[:mm] = diff < tol * (1.0 + np.abs(vals[:mm]))
            flags[mm:] = False
        if m == j_max and flags.all():
            break
        prev = vals
        R *= 2
    return ConvergedSpectrum(best_vals, flags, radius_used, radii)


@dataclass
class GrowthFit:
    """Least-squares growth exponent of ordered eigenvalues.

    slope fits log lambda_j against log j over the window; for each sampled
    admissible nuclearity order r the flag says whether
    lambda_j >= C_r j^(1/r) holds across the window with C_r calibrated at
    the left endpoint (using j0 + 1 in the denominator: lattice parity makes
    eigenvalues come in near-degenerate +-k pairs, so the sequence is flat
    across one index step and the raw endpoint constant fails immediately).
    """

    j_range: tuple
    slope: float
    intercept: float
    r_bound_satisfied: dict
    mu: float


def fit_growth_exponent(eigs, j_range, mu: float) -> GrowthFit:
    """Fit the eigenvalue growth exponent over a 1-based index window.

    eigs is a ConvergedSpectrum, whose window must be converged, or an
    array of ascending eigenvalues.
    """
    if isinstance(eigs, ConvergedSpectrum):
        vals, flags = eigs.eigenvalues, eigs.converged
    else:
        vals, flags = np.asarray(eigs, dtype=float), None
    j_lo, j_hi = int(j_range[0]), int(j_range[1])
    if not (1 <= j_lo < j_hi <= len(vals)):
        raise ValueError(f"window {j_range} outside the computed spectrum of size {len(vals)}")
    if flags is not None and not np.all(flags[j_lo - 1:j_hi]):
        raise ValueError("window contains unconverged eigenvalues")
    window = vals[j_lo - 1:j_hi]
    if np.any(~np.isfinite(window)) or np.any(window <= 0):
        raise ValueError("window contains non-positive eigenvalues; growth fit undefined")
    js = np.arange(j_lo, j_hi + 1, dtype=float)
    slope, intercept = np.polyfit(np.log(js), np.log(window), 1)

    samples = [1.0, (1.0 + 1.0 / mu) / 2.0, 1.0 / mu + 0.05]
    r_flags = {}
    for r in samples:
        if not (1.0 / mu < r <= 1.0):
            continue
        c = window[0] / (js[0] + 1.0) ** (1.0 / r)
        r_flags[r] = bool(np.all(window >= c * js ** (1.0 / r) * (1 - 1e-12)))
    return GrowthFit((j_lo, j_hi), float(slope), float(intercept), r_flags, float(mu))
