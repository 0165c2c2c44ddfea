"""Hermitian eigendecomposition and the diagonal eigenvalue approximation.

An almost-diagonal kernel splits as K = D + R with D the theta-average of
the symbol on the diagonal and R the off-diagonal residue.  Sorted
eigenvalues of K and of D differ by at most the spectral norm of R
(Hermitian perturbation), which is the rigorous backbone here; the
first-order per-point statement is checked empirically through a fitted
residual decay exponent.  Eigenvalue-to-lattice-point matching is by
sorted order: nearest-diagonal matching is ill-posed once neighboring
Gershgorin discs overlap, while sorted matching carries the perturbation
bound.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import KernelMatrix, entries_of, hermitian_check
from .symbols import SymbolOrder
from ._util import rounded_up

SANDWICH_SLACK = 1e-8   # rounding allowed at each link of the sandwich chain


@dataclass
class SpectralResult:
    """Sorted spectrum, with eigenvectors on request.

    Eigenvalues ascend; eigenvector column j pairs with eigenvalue j, with
    the phase fixed so each column's largest-magnitude component (the first
    one, on a tie) is real positive.  eigenvectors is None when vectors
    were not requested.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]


def eigendecompose_hermitian(K, want_vectors: bool = False) -> SpectralResult:
    """Full spectrum of a Hermitian kernel matrix (or plain square array).

    Real input is solved in real arithmetic, with real eigenvectors.
    """
    ok, asym = hermitian_check(K)
    if not ok:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    mat = entries_of(K)
    if want_vectors:
        vals, vecs = np.linalg.eigh(mat)
        if vecs.size:
            top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
            # libm's hypot, as abs() of a complex scalar: np.abs of a complex
            # array can round its last bit differently
            vecs /= top / np.hypot(top.real, top.imag)
        return SpectralResult(vals, vecs)
    return SpectralResult(np.linalg.eigvalsh(mat), None)


def residue_norm(K) -> float:
    """Upper bound on the spectral norm of the off-diagonal part.

    Exactly Hermitian residues go through their own eigenvalues (eigvalsh
    reads one triangle); any other through an SVD.  Error model, as for the
    eigenvalue clusters below: the computed values are exact for a matrix
    within size * eps * ||R|| of R, so the norm falls at most size * eps
    short, which `rounded_up` adds back.  Dropping the diagonal adds no
    asymmetry, so an exactly Hermitian KernelMatrix's residue is not checked.
    """
    res = np.array(entries_of(K))
    np.fill_diagonal(res, 0.0)
    if (isinstance(K, KernelMatrix) and K.asymmetry == 0) or hermitian_check(res)[1] == 0:
        norm = np.max(np.abs(np.linalg.eigvalsh(res)), initial=0.0)
    else:
        norm = np.linalg.norm(res, 2)
    return rounded_up(float(norm), len(res), 0.0)


@dataclass
class DiagApproxReport:
    """Per-point comparison of diagonal values against true eigenvalues.

    Arrays are aligned with the ascending eigenvalue order: record j holds
    the lattice point whose diagonal value is the j-th smallest, that
    diagonal value, the j-th eigenvalue, and their difference.  The decay
    exponent is fitted on log |residual| against log(1 + |k|) over the half
    of points with largest |k| (the statement being asymptotic), skipping
    exact zeros.  Points within the outermost 15 percent of the box radius
    are excluded from the fit: their residuals measure the Dirichlet
    truncation edge, not the operator, and flatten the slope by an order of
    magnitude at desk scale.  A window whose log(1 + |k|) takes fewer than
    two distinct values has no slope: fit_exponent is then None.
    low_overlap flags matched basis vectors whose projection onto the
    eigenspace of their eigenvalue's cluster has norm below 1/2, where
    first-order reasoning degrades.  A cluster is a run of
    sorted eigenvalues whose gaps are within eigh's backward error,
    size * eps * max |lambda|; taking the whole eigenspace makes the flag
    independent of the basis the solver picks inside a degenerate one.
    """

    points: np.ndarray
    diag_values: np.ndarray
    eigenvalues: np.ndarray
    residuals: np.ndarray
    fit_exponent: Optional[float]
    residue_spectral_norm: float
    applicable: bool
    low_overlap: np.ndarray
    max_abs_residual: float


def diagonal_approximation(K: KernelMatrix, order: SymbolOrder) -> DiagApproxReport:
    """Compare eigenvalues of K with its diagonal, matched in sorted order.

    The order hypothesis mu < -(n+2) delta gates the verdict only; residuals
    are computed either way (applicable=False withholds the claim).  A
    non-Hermitian K is refused by the eigendecomposition.
    """
    n = K.spec.dim
    applicable = order.mu < -(n + 2) * order.delta

    diag = np.real(np.diag(K.entries))
    pts = K.points()
    perm = np.argsort(diag, kind="stable")

    dec = eigendecompose_hermitian(K, want_vectors=True)
    lam = dec.eigenvalues
    residuals = lam - diag[perm]

    # clusters: runs of eigenvalues whose gaps are within gap_tol
    gap_tol = K.size * np.finfo(float).eps * np.max(np.abs(lam))
    cuts = np.flatnonzero(np.diff(lam) > gap_tol) + 1
    overlaps = np.abs(dec.eigenvectors[perm, np.arange(K.size)])
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, K.size]):
        if b - a > 1:
            overlaps[a:b] = np.linalg.norm(dec.eigenvectors[perm[a:b], a:b], axis=1)
    low_overlap = overlaps < 0.5

    rnorm = residue_norm(K)

    matched_pts = pts[perm]
    norms = np.linalg.norm(matched_pts, axis=1)
    sup = np.max(np.abs(matched_pts), axis=1) / K.spec.hbar
    outer_start = np.sort(norms)[K.size - K.size // 2] if K.size >= 2 else np.inf
    in_window = ((norms >= outer_start)
                 & (sup <= 0.85 * K.box.radius)
                 & (np.abs(residuals) > 0))
    fit = None
    x = np.log(1.0 + norms[in_window])
    if len(np.unique(x)) >= 2:
        y = np.log(np.abs(residuals[in_window]))
        fit = float(np.polyfit(x, y, 1)[0])

    return DiagApproxReport(matched_pts, diag[perm], lam, residuals, fit, rnorm,
                            applicable, low_overlap, float(np.max(np.abs(residuals))))


@dataclass
class SandwichReport:
    """Per-eigenpair chain lower <= ||D phi - lambda phi|| <= upper.

    lower is the distance from the eigenvalue to the nearest diagonal value,
    upper the smaller of the farthest diagonal distance and the residue
    norm; the middle term equals ||R phi|| for an exact eigenpair.
    """

    eigenvalues: np.ndarray
    lower: np.ndarray
    middle: np.ndarray
    upper: np.ndarray

    def chain_holds(self) -> bool:
        return bool(np.all(self.lower <= self.middle + SANDWICH_SLACK)
                    and np.all(self.middle <= self.upper + SANDWICH_SLACK))


def sandwich_check(K: KernelMatrix) -> SandwichReport:
    """Evaluate the diagonal-distance sandwich for every eigenpair of K.

    A non-Hermitian K is refused by the eigendecomposition.
    """
    dec = eigendecompose_hermitian(K, want_vectors=True)
    diag = np.real(np.diag(K.entries))
    rnorm = residue_norm(K)

    lam = dec.eigenvalues
    dist = np.abs(lam[:, None] - diag[None, :])
    lower = np.min(dist, axis=1)
    upper = np.minimum(np.max(dist, axis=1), rnorm)
    dv = diag[:, None] * dec.eigenvectors - dec.eigenvectors * lam[None, :]
    middle = np.linalg.norm(dv, axis=0)

    rep = SandwichReport(lam, lower, middle, upper)
    if not rep.chain_holds():
        raise ValueError("sandwich chain violated; kernel is not an exact Hermitian eigensystem")
    return rep
