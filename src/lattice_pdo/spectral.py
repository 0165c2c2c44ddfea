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

from .kernel import (KernelMatrix, as_kernel, hermitian_check, power_sums, reflection_blocks,
                     split_diagonal)
from .symbols import SymbolOrder
from . import _lapack
from ._util import check_dense_fits, rounded_up, rows_per_block

SANDWICH_SLACK = 1e-8   # rounding allowed at each link of the sandwich chain
EPS = np.finfo(float).eps


@dataclass
class SpectralResult:
    """Sorted spectrum, its error bound (`eigendecompose_hermitian`), eigenvectors on request.

    Eigenvalues ascend; eigenvector column j pairs with eigenvalue j.  Its
    phase makes its component of largest modulus as solved (the first, on a
    tie) real and positive; after the division that holds to within 4 eps.
    eigenvectors is None when vectors were not requested.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    error_bound: float


def eigendecompose_hermitian(K, want_vectors: bool = False) -> SpectralResult:
    """Full spectrum of a Hermitian kernel matrix (or plain square array).

    Solved in `kernel.reflection_blocks`, each block by `eigvalsh`, or by
    `eigh` with its vectors carried back onto the box; real input in real
    arithmetic, with real eigenvectors.  A real block with no triplet below
    its first subdiagonal (every block of a 1-d kernel) goes to LAPACK's
    dstevd as that band, read from its triplets (`_lapack`): dsyevd's own
    second stage with no reduction to do, the same bits, so the error model
    below is unchanged.  Any other block is solved dense, from `entries`.

    error_bound = scale * eps * ||K||_inf, with or without vectors, bounds
    each sorted value's distance from the exact one (Weyl).  A dense solve
    of an m-point block B is taken to be exact for a matrix within
    m eps ||B||_2 <= m eps ||K||_inf of B: scale = size for a plain array,
    one block formed exactly.  A block entry, a sum of at most 2^n weighted
    terms of K, real and imaginary parts apart, rounds by at most
    (2^n + 2) eps times the same sum over |K|, so the blocks are those of a
    matrix within (2^n + 2) eps ||K||_inf of K (|K| is symmetric).  A block
    has at most (R + 1)(2R + 1)^(n-1) points when an axis folds, and the
    whole box when none does, so a box has
    scale = max(size, (R + 1)(2R + 1)^(n-1) + 2^n + 2), growing with R:
    the box size except in 1-d with R <= 3 and in 2-d and 3-d with R = 1.
    """
    K = as_kernel(K)
    ok, asym = hermitian_check(K)
    if not ok:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {asym:.3e})")
    return _bounded(K, *_solve(K, want_vectors))


def _eigh(block: KernelMatrix, want_vectors: bool):
    # eigvalsh, or eigh with vectors: by dstevd of the band, with numpy's bits (`_lapack`),
    # for a real block with no triplet below its first subdiagonal; any other block dense
    rows, cols, values = block._triplets
    if values.dtype == float and not np.any(rows > cols + 1):
        d, e = np.zeros(block.size), np.zeros(max(block.size - 1, 0))
        d[rows[rows == cols]] = values[rows == cols]
        e[cols[rows > cols]] = values[rows > cols]
        solved = _lapack.tridiagonal_eigh(d, e, want_vectors)
        if solved is not None:
            return solved
    a = block.entries
    return np.linalg.eigh(a) if want_vectors else np.linalg.eigvalsh(a)


def _solve(K: KernelMatrix, want_vectors: bool):
    # the one solve path, block by block (`_eigh`); a stable sort of the values.  With
    # vectors, each block's are held until every value is known, then carried back into
    # their sorted columns of one box-sized array ~1 MiB of rows at a time, and the phase
    # rule reads it ~1 MiB of columns at a time
    if not want_vectors:
        vals = np.concatenate([_eigh(block, False) for block, _ in reflection_blocks(K)])
        return vals[np.argsort(vals, kind="stable")], None
    check_dense_fits((K.size, K.size))
    solved = [(*_eigh(block, True), basis) for block, basis in reflection_blocks(K)]
    order = np.argsort(vals := np.concatenate([w for w, _, _ in solved]), kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(K.size)
    vecs = np.zeros((K.size, K.size), dtype=K._triplets[2].dtype)
    done = 0
    while solved:
        w, v, (at, pos, coef) = solved.pop(0)
        cols = column[done:done + len(w)]
        for i in range(0, len(at), step := rows_per_block(len(w))):
            vecs[at[i:i + step, None], cols] = coef[i:i + step, None] * v[pos[i:i + step]]
        done += len(w)
        del v
    top_row = np.empty(K.size, dtype=np.intp)
    for c in range(0, K.size, step := rows_per_block(K.size)):
        top_row[c:c + step] = np.argmax(np.abs(vecs[:, c:c + step]), axis=0)
    top = vecs[top_row, np.arange(K.size)]
    # libm's hypot, as abs() of a complex scalar: np.abs of a complex
    # array can round its last bit differently
    vecs /= top / np.hypot(top.real, top.imag)
    return vals[order], vecs


def _bounded(K: KernelMatrix, vals, vecs) -> SpectralResult:
    # the one error bound: scale = size for a plain array, the block rule for a box
    scale = K.size
    if K.spec is not None:
        n, r = K.spec.dim, K.box.radius
        scale = max(K.size, (r + 1) * (2 * r + 1) ** (n - 1) + 2 ** n + 2)
    norm = np.max(power_sums(K, 1.0, 1), initial=0.0)
    return SpectralResult(vals, vecs, float(scale * EPS * norm))


def residue_norm(K) -> float:
    """Upper bound on the spectral norm of the off-diagonal part.

    An exactly Hermitian residue (`kernel.split_diagonal`'s) gives
    max |lambda| + error_bound (Weyl), rounded up once, its blocks solved
    as `eigendecompose_hermitian` solves them.  Any other gives the largest
    2-norm of its reflection blocks' `entries`, whose singular values are
    its own.  Each is taken to be exact for a matrix within size * eps ||B||_2
    of the block B solved, which `rounded_up` adds back.  A box's blocks
    are formed within (2^n + 2) eps || |R| ||_2 of R's (as in
    `eigendecompose_hermitian`); |R| need not be symmetric, so (2^n + 2) eps
    times the larger of ||R||_1 and ||R||_inf, which bounds
    sqrt(||R||_1 ||R||_inf) >= || |R| ||_2, is added first.
    """
    K = as_kernel(K)
    return _residue_norm(K, split_diagonal(K).residue)


def _residue_norm(K: KernelMatrix, res: KernelMatrix) -> float:
    if K.asymmetry == 0 or res.asymmetry == 0:  # dropping the diagonal adds no asymmetry
        dec = _bounded(res, *_solve(res, False))
        return rounded_up(float(np.max(np.abs(dec.eigenvalues), initial=0.0) + dec.error_bound),
                          1, 0.0)
    formed = 0.0 if res.spec is None else (2 ** res.spec.dim + 2) * EPS * max(
        np.max(power_sums(res, 1.0, axis), initial=0.0) for axis in (0, 1))
    norm = max(np.linalg.norm(block.entries, 2) for block, _ in reflection_blocks(res))
    return rounded_up(float(norm + formed), res.size, 0.0)


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
    n = K.lattice()[0].dim
    applicable = order.mu < -(n + 2) * order.delta

    split = split_diagonal(K)
    diag = np.real(split.diagonal)
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

    rnorm = _residue_norm(K, split.residue)

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
    split = split_diagonal(K)
    diag = np.real(split.diagonal)
    rnorm = _residue_norm(K, split.residue)

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
