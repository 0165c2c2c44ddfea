"""Discrete Schrodinger operators with confining polynomial potentials.

H = -hbar^-2 Delta + V on the scaled lattice, with Delta the plain hopping
stencil (neighbor sum minus 2n f).  The kinetic part is positive
semidefinite, so V >= 0 keeps the spectrum nonnegative.  Confining
potentials localize the low eigenvectors, so one box brackets them: the
Dirichlet box H_R (the plain truncation) and the Neumann box N_R (H_R
without the hops that leave the box) sandwich each low eigenvalue of H.
The scan certifies a value as soon as one radius closes its bracket to
the tolerance, solver error included.  `kernel` builds both boxes and
`spectral` solves them and bounds the solver's error.

The sorted values of the diagonal part (V(k) + 2n hbar^-2 + shift) are an
independent oracle: Hermitian perturbation bounds every eigenvalue of H
within the hopping norm of them.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import BoxTruncation, LatticeSpec, enumerate_box_integers
from .fourier import coefficients
from .kernel import KernelMatrix, assemble, subtract_diagonal
from .spectral import eigendecompose_hermitian
from .symbols import anharmonic_of_norms, anharmonic_values, schrodinger_symbol

DEFAULT_MAX_DIM = 4000


@dataclass(frozen=True)
class PotentialSpec:
    """Confining potential: callable plus its polynomial order mu > 0.

    Construction probes sample points: values must be finite and nonnegative
    (an OverflowError counts as infinite), grow along every axis, and the
    large-radius doubling ratio must match the declared order (log2 ratio
    within 0.5 of mu).  outside_min, when given, maps rho >= 0 to a lower
    bound of V(k) over |k|_inf >= rho; `spectrum_converged` needs it to
    certify eigenvalues.  array_fn, when given, maps points (S, n) to the
    S values of fn as one array, bit for bit; the Schrodinger symbol reads
    V through it (else fn is called point by point).
    """

    fn: Callable
    mu: float
    dim: int = 1
    outside_min: Optional[Callable] = None
    array_fn: Optional[Callable] = None

    def __post_init__(self):
        if not (self.mu > 0):
            raise ValueError(f"potential order must be positive, got {self.mu}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        self._validate()

    def _validate(self):
        # each probe point is built when it is evaluated, once: memory stays O(dim)
        self._probe(np.zeros(self.dim))
        growth = np.empty((self.dim, 2))  # V(128 e_j), V(256 e_j), checked after every probe
        for j in range(self.dim):
            on_axis = {}
            for r in (1, 2, 4, 8, 16, 64, 128, 256):
                for x in (r, -r):
                    p = np.zeros(self.dim)
                    p[j] = x
                    on_axis[x] = self._probe(p)
            growth[j] = on_axis[128], on_axis[256]
        self._probe(np.full(self.dim, 3.0))
        for j, (v128, v256) in enumerate(growth):
            if not (v256 > v128 > 0):
                raise ValueError(
                    f"potential does not grow along axis {j}: V(128e)={v128}, V(256e)={v256}")
            ratio = math.log2(v256 / v128)
            if abs(ratio - self.mu) > 0.5:
                raise ValueError(
                    f"potential growth along axis {j} has doubling exponent {ratio:.3f}, "
                    f"inconsistent with declared order {self.mu}")

    def _probe(self, k) -> float:
        # overflow refused alike, whether fn raises it or returns inf
        try:
            v = float(self.fn(k))
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise ValueError(f"potential is not finite at {k}: {v}")
        if v < 0:
            raise ValueError(f"potential is negative at {k}: {v}")
        return v

    def __call__(self, k):
        return float(self.fn(np.asarray(k, dtype=float)))

    @classmethod
    def anharmonic(cls, c: float, l: int, dim: int = 1) -> "PotentialSpec":
        """V(k) = c |k|^(2l), the anharmonic oscillator family.

        |k|_2 >= |k|_inf, so V >= c rho^(2l) where |k|_inf >= rho, with
        equality on an axis: the outside bound is exact.
        """
        if not (c > 0):
            raise ValueError(f"anharmonic coefficient must be positive, got {c}")
        value = anharmonic_of_norms(c, l)

        def at(r):
            return float(value([r])[0])

        return cls(lambda k: at(np.linalg.norm(k)), 2.0 * l, dim, outside_min=at,
                   array_fn=anharmonic_values(c, l))


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
    Schrodinger symbol), computed without any matrix or eigensolver; the
    exact eigenvalues of the box matrix lie within the hopping norm
    2n hbar^-2 of it.  The values are returned as computed, so they are a
    reference, not a rigorous bracket; no caller needs one, as each allows
    4n hbar^-2, twice the hopping norm.
    """
    diag = coefficients(_hamiltonian_symbol(spec, V, lam), enumerate_box_integers(spec, box),
                        np.zeros((1, spec.dim), dtype=np.int64))[:, 0]
    return np.sort(diag)[:j_max]


@dataclass
class ConvergedSpectrum:
    """Low eigenvalues of H from a box-doubling scan, with per-value certificates.

    converged[j] says that a Dirichlet-Neumann bracket at one radius pinned
    the true eigenvalue of the operator on the whole lattice within tol;
    eigenvalues[j] is then the Dirichlet value at that certifying radius,
    and otherwise the Dirichlet value at radius_used, the last radius
    solved (nan when that box has too few points).  stop is "all certified",
    "budget exhausted" (the next box is over max_dim) or "solver error bound
    above tol" (no larger box can certify the rest; this wins over the budget).
    """

    eigenvalues: np.ndarray
    converged: np.ndarray
    radii_scanned: list
    stop: str

    @property
    def radius_used(self) -> int:
        return self.radii_scanned[-1]

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))


def default_start_radius(spec: LatticeSpec) -> int:
    """The scan's first radius when none is given."""
    if spec.dim == 1:
        return max(1, round(25 / spec.hbar))
    # keep the starting box near the 1-d budget of 51 points
    side = max(3, int(51 ** (1.0 / spec.dim)))
    return max(1, (side - 1) // 2)


def scan_radii(spec: LatticeSpec, start_radius: int, max_dim: int) -> list:
    """The radii the box-doubling scan may solve: start_radius, then each double within max_dim."""
    radii = [start_radius]
    while BoxTruncation(2 * radii[-1]).size(spec.dim) <= max_dim:
        radii.append(2 * radii[-1])
    return radii


def neumann_truncation(H: KernelMatrix) -> KernelMatrix:
    """N_R: the box Hamiltonian H_R with every hop that leaves the box dropped.

    Each diagonal entry loses hbar^-2 per nearest neighbour outside the box,
    so the kinetic form of N_R is hbar^-2 times the sum of (x_a - x_b)^2 over
    the edges inside the box.  The missing neighbours come from the box
    coordinates, whatever the entries of H: one per coordinate equal to +R
    and one per coordinate equal to -R, so R = 0 counts both sides.
    """
    z, r = enumerate_box_integers(*H.lattice()), H.box.radius
    missing = np.sum(z == r, axis=1) + np.sum(z == -r, axis=1)
    return subtract_diagonal(H, missing / H.spec.hbar ** 2)


def spectrum_converged(spec: LatticeSpec, V: PotentialSpec, j_max: int, tol: float,
                       lam: float = 0.0, start_radius: Optional[int] = None,
                       max_dim: int = DEFAULT_MAX_DIM) -> ConvergedSpectrum:
    """First j_max eigenvalues of H = -hbar^-2 Delta + V + lam, each certified at one radius.

    At radius R the Dirichlet box H_R and the Neumann box N_R give
    lambda_j(N_R) <= lambda_j(H) <= lambda_j(H_R) whenever lambda_j(N_R)
    lies below V_out(R) + lam, where V_out(R) <= V on every lattice point
    outside the box (Dirichlet-Neumann bracketing, Reed & Simon IV,
    XIII.15).  With err the larger `SpectralResult.error_bound` of the two
    solves, lambda_j is certified when

        max(lambda_j(H_R) - lambda_j(N_R), 0) + 2 err <= tol * (1 + |lambda_j(H_R)|)
        lambda_j(N_R) + err < V_out(R) + lam,

    so a computed bracket never counts as narrower than the solver bound.
    Both boxes are solved by `eigendecompose_hermitian`, which refuses a
    box matrix that is not Hermitian, solves it in the blocks of its axis
    reflections and bounds each value's error by scale * eps * ||A||_inf.
    The radius doubles until all j_max values are certified,
    the next box exceeds max_dim points, or no uncertified value can be
    certified any more (`ConvergedSpectrum`).

    The last stop applies once every uncertified value with a finite
    Dirichlet value has 2 err > tol * (1 + max(|lambda_j(H_R)|, |lam + V_0|)),
    V_0 = V.outside_min(0) <= inf V.  No box R' > R can certify it: err never
    shrinks, as max(||H_R||_inf, ||N_R||_inf) <= ||H_R'||_inf and scale
    grows with R; and lambda_j(H_R') lies in [lam + inf V, lambda_j(H_R)] (Cauchy
    interlacing, nonnegative kinetic part), which bounds its tolerance.  A
    value the box is too small to hold (nan) keeps the scan going.

    start_radius must be at least 1, its box must fit in max_dim, and V
    must have the lattice's dimension and carry an outside bound.
    """
    if not isinstance(V, PotentialSpec):
        raise TypeError("spectrum_converged requires a validated PotentialSpec")
    if V.dim != spec.dim:
        raise ValueError(f"the potential of dimension {V.dim} is validated along its own "
                         f"axes only, not on a lattice of dimension {spec.dim}")
    if V.outside_min is None:
        raise ValueError("the scan needs a lower bound of V outside the box (outside_min)")
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    R = start_radius if start_radius is not None else default_start_radius(spec)
    if R < 1:
        raise ValueError(f"start_radius must be at least 1, got {R}")
    start_size = BoxTruncation(R).size(spec.dim)
    if start_size > max_dim:
        raise ValueError(f"max_dim {max_dim} is below the {start_size}-point box "
                         f"of the start radius {R}")
    floor = abs(lam + V.outside_min(0.0))  # |lam + V_0|, see the stop rule above
    radii = []
    values = np.full(j_max, np.nan)
    flags = np.zeros(j_max, dtype=bool)
    stop = "budget exhausted"
    for R in scan_radii(spec, R, max_dim):
        H = build_hamiltonian(spec, V, BoxTruncation(R), lam)
        h, n = eigendecompose_hermitian(H), eigendecompose_hermitian(neumann_truncation(H))
        err = max(h.error_bound, n.error_bound)
        dirichlet, neumann = np.full((2, j_max), np.nan)  # nan where the box is too small
        dirichlet[:H.size] = h.eigenvalues[:j_max]
        neumann[:H.size] = n.eigenvalues[:j_max]
        values = np.where(flags, values, dirichlet)
        flags |= ((np.maximum(dirichlet - neumann, 0.0) + 2 * err
                   <= tol * (1.0 + np.abs(dirichlet)))
                  & (neumann + err < V.outside_min(spec.hbar * (R + 1)) + lam))
        radii.append(R)
        if np.all(flags | (2 * err > tol * (1.0 + np.maximum(np.abs(dirichlet), floor)))):
            stop = "all certified" if np.all(flags) else "solver error bound above tol"
            break
    return ConvergedSpectrum(values, flags, radii, stop)


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


def fit_growth_exponent(eigs, j_range, mu: float, n: int = 1) -> GrowthFit:
    """Fit the eigenvalue growth exponent over a 1-based index window.

    eigs is a ConvergedSpectrum, whose window must be converged, or an
    array of ascending eigenvalues.  Orders r are sampled where H^-1, of order
    -mu on the n-d lattice, is r-nuclear: n/mu < r <= 1, none if n/mu >= 1.
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

    samples = [1.0, (1.0 + n / mu) / 2.0, n / mu + 0.05]
    r_flags = {}
    for r in samples:
        if not (n / mu < r <= 1.0):
            continue
        c = window[0] / (js[0] + 1.0) ** (1.0 / r)
        r_flags[r] = bool(np.all(window >= c * js ** (1.0 / r) * (1 - 1e-12)))
    return GrowthFit((j_lo, j_hi), float(slope), float(intercept), r_flags, float(mu))
