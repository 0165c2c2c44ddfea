import json
import tracemalloc
import warnings
import weakref
from decimal import Decimal

import numpy as np
import pytest

from lattice_pdo import _lapack, kernel, spectral
from lattice_pdo.cli import main
from lattice_pdo.lattice import BoxTruncation, LatticeSpec, enumerate_box_integers, index_of
from lattice_pdo.kernel import KernelMatrix, assemble, hermitian_check, hermitize, split_diagonal
from lattice_pdo.schrodinger import (PotentialSpec, build_hamiltonian, neumann_truncation,
                                     spectrum_converged)
from lattice_pdo.spectral import (diagonal_approximation, eigendecompose_hermitian,
                                  residue_norm, sandwich_check)
from lattice_pdo.symbols import (NonFiniteError, constant_symbol, decaying_test_symbol,
                                 difference_symbol, schrodinger_symbol)

SPEC1 = LatticeSpec(1.0, 1)


def schrodinger_kernel(power, radius, hbar=1.0):
    spec = LatticeSpec(hbar, 1)
    sym = schrodinger_symbol(lambda k: float(np.linalg.norm(k)) ** power, 0.0, spec,
                             potential_order=power)
    return assemble(sym, spec, BoxTruncation(radius))


def laplacian_matrix(n_points, hbar=1.0):
    # Dirichlet truncation of -hbar^-2 Delta as a plain tridiagonal array
    h2 = hbar ** -2
    m = np.zeros((n_points, n_points), dtype=complex)
    np.fill_diagonal(m, 2 * h2)
    idx = np.arange(n_points - 1)
    m[idx, idx + 1] = -h2
    m[idx + 1, idx] = -h2
    return m


def test_eigendecompose_3x3_hand_values():
    K = schrodinger_kernel(2.0, 1)
    dec = eigendecompose_hermitian(K)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0, 4.0], atol=1e-12)


def test_eigendecompose_zero_matrix():
    K = KernelMatrix(SPEC1, BoxTruncation(1), np.zeros((3, 3), dtype=complex))
    dec = eigendecompose_hermitian(K)
    np.testing.assert_array_equal(dec.eigenvalues, np.zeros(3))


def test_eigendecompose_toeplitz_closed_form():
    n = 50
    dec = eigendecompose_hermitian(laplacian_matrix(n))
    j = np.arange(1, n + 1)
    expected = 2 - 2 * np.cos(j * np.pi / (n + 1))
    np.testing.assert_allclose(dec.eigenvalues, np.sort(expected), atol=1e-10)


def test_eigendecompose_rejects_non_hermitian():
    K = assemble(difference_symbol(), SPEC1, BoxTruncation(2))
    with pytest.raises(ValueError):
        eigendecompose_hermitian(K)


def test_non_hermitian_is_refused_before_the_dense_matrix(monkeypatch):
    # the refusal reads the stored triplets only; no dense matrix is built for it
    def no_dense(*args):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(kernel, "_dense", no_dense)
    with pytest.raises(ValueError, match="not Hermitian"):
        eigendecompose_hermitian(assemble(difference_symbol(), SPEC1, BoxTruncation(3)))


def test_eigenvector_contract():
    rng = np.random.default_rng(21)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    M = 0.5 * (M + M.conj().T)
    dec = eigendecompose_hermitian(M, want_vectors=True)
    V = dec.eigenvectors
    # orthonormality and per-pair residual
    assert np.max(np.abs(V.conj().T @ V - np.eye(12))) <= 1e-8
    assert np.max(np.abs(M @ V - V * dec.eigenvalues)) <= 1e-8 * np.max(np.abs(M))
    # phase fixing: the largest-magnitude component of each column is real positive
    for j in range(12):
        i = np.argmax(np.abs(V[:, j]))
        assert abs(V[i, j].imag) <= 1e-12 and V[i, j].real > 0
    # trace conservation
    assert np.sum(dec.eigenvalues) == pytest.approx(np.trace(M).real, rel=1e-8)


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigenvector_phase_matches_column_loop(dtype):
    rng = np.random.default_rng(8)
    for n in (1, 5, 64, 301):
        M = rng.normal(size=(n, n)).astype(dtype)
        if dtype is complex:
            M += 1j * rng.normal(size=(n, n))
        M = 0.5 * (M + M.conj().T)
        vals, vecs = np.linalg.eigh(M)
        for j in range(n):  # reference: fix each column's phase in turn
            col = vecs[:, j]
            i = int(np.argmax(np.abs(col)))
            vecs[:, j] = col / (col[i] / abs(col[i]))
        dec = eigendecompose_hermitian(M, want_vectors=True)
        assert np.array_equal(dec.eigenvalues, vals)
        assert np.array_equal(dec.eigenvectors, vecs)


def test_eigendecompose_deterministic():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(8, 8))
    M = 0.5 * (M + M.T) + 0j
    d1 = eigendecompose_hermitian(M, want_vectors=True)
    d2 = eigendecompose_hermitian(M.copy(), want_vectors=True)
    np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
    np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)


def test_residue_norm_diagonal():
    K = assemble(constant_symbol(2.0), SPEC1, BoxTruncation(2))
    assert residue_norm(K) == 0.0


def test_residue_norm_shift_matrix():
    # superdiagonal of ones: all singular values are 1
    n = 50
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n - 1), np.arange(1, n)] = 1.0
    assert residue_norm(m) == pytest.approx(1.0, abs=1e-9)


def test_residue_norm_hopping_toeplitz():
    K = schrodinger_kernel(2.0, 20)  # 41 lattice points
    expected = 2 * np.cos(np.pi / 42)
    assert residue_norm(K) == pytest.approx(expected, abs=1e-10)


def test_residue_norm_non_hermitian_vs_svd():
    # non-Hermitian residues go through the 2-norm; the full SVD is the oracle
    rng = np.random.default_rng(17)
    for _ in range(5):
        M = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        off = M - np.diag(np.diag(M))
        expected = np.linalg.svd(off, compute_uv=False)[0]
        assert residue_norm(M) == pytest.approx(expected, abs=1e-8)


def test_residue_norm_is_an_upper_bound():
    # a weighted cyclic shift has a zero diagonal and singular values |d_i|;
    # nearly equal top values stall an iterative estimate below the norm
    rng = np.random.default_rng(4)
    n = 8
    for gap in (1e-4, 1e-6, 1e-8, 1e-10):
        d = np.array([1.0, 1.0 - gap, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
        R = np.zeros((n, n), dtype=complex)
        R[(np.arange(n) + 1) % n, np.arange(n)] = d * np.exp(2j * np.pi * rng.random(n))
        assert residue_norm(R) >= np.linalg.norm(R, 2)


def test_residue_norm_bounds_a_residue_within_the_hermitian_tolerance():
    # strictly upper triangular, asymmetry 9e-10 <= HERMITIAN_TOL: eigvalsh would
    # read only the zero lower triangle and return 0, far below the true norm
    n = 25
    R = np.triu(np.full((n, n), 9e-10), 1)
    assert hermitian_check(R)[0]
    for K in (R, KernelMatrix(SPEC1, BoxTruncation(12), R)):
        assert residue_norm(K) >= np.linalg.norm(R, 2) > 1.4e-8


def integer_residue(seed, symmetric, n=24):
    # exact dyadic entries in [-1001/1024, 1001/1024], zero diagonal
    i = np.arange(1, n + 1)
    m = ((np.multiply.outer(i, i) * 7919 * (seed + 1)
          + np.add.outer(104729 * i, (104729 if symmetric else 31) * i)) % 2003 - 1001) / 1024.0
    np.fill_diagonal(m, 0.0)
    return m


# ||integer_residue(seed, ...)||_2 to 40 digits, from mpmath 1.3.0 at 60 digits:
# max |eigsy| for the symmetric ones, sqrt(max eigsy(M^T M)) for the others
# (eigsy and svd_r at 40 digits agree to 39)
SYMMETRIC_NORMS = [
    "4.193654588226951990712951636693985275088", "5.190473039527455914143258747202174036932",
    "4.44586265488889345385925785328308149587", "4.535076675840114213488995267382812497539",
    "4.757922136454133408823787634647856758577", "4.70897038266523152498673941074965100029",
    "4.844311416194078216100008580797946405325", "4.319227009434465061022804696158633369617",
    "4.176137565436131379756014143271512422214", "4.382144189663447764756859707810003874117",
    "5.098940069109521576293883796358048857904", "4.956215336026686253567456468176764957558",
]
GENERAL_NORMS = [
    "4.796216154351746406116048562884631256463", "4.751486603146671399705510524802662814417",
    "4.395658245793646988402400397833590187534", "4.550097435607967071328622090729769435027",
]


@pytest.mark.parametrize("symmetric, norms", [(True, SYMMETRIC_NORMS), (False, GENERAL_NORMS)])
def test_residue_norm_bounds_the_exact_norm(symmetric, norms):
    # with numpy 2.4 on OpenBLAS, the bare max |eigvalsh| fell below 7 of the 12 symmetric norms
    eps = np.finfo(float).eps
    for seed, exact in enumerate(norms):
        R = integer_residue(seed, symmetric)
        assert np.array_equal(R, R.T) == symmetric
        bound = residue_norm(R)
        assert Decimal(exact) <= Decimal(bound) <= Decimal(exact) * Decimal(1 + 4 * 24 * eps)


def test_real_input_stays_real():
    rng = np.random.default_rng(6)
    M = rng.normal(size=(12, 12))
    M = M + M.T
    dec = eigendecompose_hermitian(M, want_vectors=True)
    assert dec.eigenvectors.dtype == np.float64
    ref = np.linalg.eigvalsh(M.astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, ref, rtol=1e-12, atol=1e-12)
    off = M - np.diag(np.diag(M))
    assert residue_norm(M) == pytest.approx(np.linalg.norm(off, 2), rel=1e-12)


def test_weyl_perturbation_property():
    # sorted eigenvalues of K and of its diagonal differ by at most ||R||
    rng = np.random.default_rng(8)
    for _ in range(5):
        M = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        M = 0.5 * (M + M.conj().T)
        lam = np.linalg.eigvalsh(M)
        d = np.sort(np.real(np.diag(M)))
        assert np.max(np.abs(lam - d)) <= residue_norm(M) + 1e-8


def test_diag_approx_diagonal_kernel():
    sym = decaying_test_symbol(2.0, 1.0, 0.0)
    K = assemble(sym, SPEC1, BoxTruncation(5))
    rep = diagonal_approximation(K, sym.order)
    np.testing.assert_array_equal(rep.residuals, np.zeros(11))
    assert rep.residue_spectral_norm == 0.0


def test_diag_approx_decaying_60():
    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    K = hermitize(assemble(sym, SPEC1, BoxTruncation(60)))
    rep = diagonal_approximation(K, sym.order)
    assert rep.applicable
    # rigorous perturbation bound under sorted matching
    assert rep.max_abs_residual <= rep.residue_spectral_norm + 1e-8
    assert rep.fit_exponent <= -2.5


def test_diag_approx_schrodinger_quartic():
    sym_order = schrodinger_symbol(lambda k: float(np.linalg.norm(k)) ** 4, 0.0, SPEC1,
                                   potential_order=4.0).order
    K = schrodinger_kernel(4.0, 40)
    rep = diagonal_approximation(K, sym_order)
    assert not rep.applicable  # positive order: verdict withheld, residuals still there
    assert rep.max_abs_residual <= 4.0
    assert np.max(rep.diag_values) >= 40.0 ** 4


def test_low_overlap_independent_of_storage():
    # 2-d harmonic oscillator: degenerate eigenvalues, whose eigenvectors the
    # real and the complex solver pick differently
    spec = LatticeSpec(1.0, 2)
    sym = schrodinger_symbol(lambda k: float(k @ k), 0.0, spec, potential_order=2.0)
    K = assemble(sym, spec, BoxTruncation(5))
    Kc = KernelMatrix(spec, K.box, K.entries.astype(complex))
    assert K.entries.dtype == np.float64 and Kc.entries.dtype == np.complex128
    real = diagonal_approximation(K, sym.order).low_overlap
    cplx = diagonal_approximation(Kc, sym.order).low_overlap
    np.testing.assert_array_equal(real, cplx)


def test_diag_approx_requires_hermitian():
    K = assemble(decaying_test_symbol(3.0, 2.0, 1.0), SPEC1, BoxTruncation(10))
    with pytest.raises(ValueError):
        diagonal_approximation(K, decaying_test_symbol(3.0, 2.0, 1.0).order)


def test_sandwich_diagonal_kernel():
    K = assemble(decaying_test_symbol(2.0, 1.0, 0.0), SPEC1, BoxTruncation(4))
    rep = sandwich_check(K)
    np.testing.assert_allclose(rep.lower, 0.0, atol=1e-12)
    np.testing.assert_allclose(rep.middle, 0.0, atol=1e-12)


def test_sandwich_decaying_30():
    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    K = hermitize(assemble(sym, SPEC1, BoxTruncation(30)))
    rep = sandwich_check(K)
    assert len(rep.eigenvalues) == 61
    assert rep.chain_holds()
    # oracle for the middle term: ||(D - lambda) phi|| = ||R phi|| for eigenpairs
    dec = eigendecompose_hermitian(K, want_vectors=True)
    split = split_diagonal(K)
    r_phi = np.linalg.norm(split.residue.entries @ dec.eigenvectors, axis=0)
    np.testing.assert_allclose(rep.middle, r_phi, atol=1e-9)


def test_sandwich_schrodinger():
    K = schrodinger_kernel(2.0, 20)
    rep = sandwich_check(K)
    assert rep.chain_holds()
    assert np.max(rep.middle) <= 2 * np.cos(np.pi / 42) + 1e-10


def _sandwich_kernels():
    # (name, kernel) whose last ~1 MiB column slice would hold one column: 625 points
    spec = LatticeSpec(1.0, 1)
    yield "1d-R312", hermitize(assemble(decaying_test_symbol(3.0, 2.0, 1.0, spec), spec,
                                        BoxTruncation(312)))
    rng = np.random.default_rng(0)
    a = rng.normal(size=(625, 625)) + 1j * rng.normal(size=(625, 625))
    yield "random-complex", KernelMatrix(LatticeSpec(1.0, 2), BoxTruncation(12),
                                         (a + a.conj().T) / 2)


@pytest.mark.parametrize("name, K", list(_sandwich_kernels()))
def test_sandwich_keeps_the_bits_of_its_box_sized_formulas(name, K):
    # the eigenvalue-by-diagonal distances and the (D - lambda) phi columns, built whole
    rep = sandwich_check(K)
    dec = eigendecompose_hermitian(K, want_vectors=True)
    split = split_diagonal(K)
    diag, lam = np.real(split.diagonal), dec.eigenvalues
    dist = np.abs(lam[:, None] - diag[None, :])
    middle = np.linalg.norm(diag[:, None] * dec.eigenvectors - dec.eigenvectors * lam, axis=0)
    upper = np.minimum(np.max(dist, axis=1), residue_norm(K))
    for got, want in ((rep.lower, np.min(dist, axis=1)), (rep.middle, middle),
                      (rep.upper, upper)):
        assert got.tobytes() == want.tobytes()


def test_sandwich_holds_no_box_sized_array_beside_its_eigenvectors():
    # bound fixed before the first run: the 1-d R=500 kernel's sandwich check peaks below
    # 16 N^2 bytes, the dense preflight of its eigenvectors; the N x N distance table and
    # the (D - lambda) phi temporaries beside the eigenvectors took 32.2 MB
    spec = LatticeSpec(1.0, 1)
    K = hermitize(assemble(decaying_test_symbol(3.0, 2.0, 1.0, spec), spec, BoxTruncation(500)))
    sandwich_check(K)  # binds and probes the solver first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sandwich_check(K)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 16 * K.size ** 2, peak


def test_no_dense_copy_is_kept():
    # the dense matrix is built for each eigenvector solve and dropped after it
    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    K = hermitize(assemble(sym, SPEC1, BoxTruncation(10)))

    def dense_attributes():
        found = []
        for value in vars(K).values():
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray) and part.shape == (K.size, K.size):
                    found.append(part)
        return found

    eigendecompose_hermitian(K, want_vectors=True)
    assert dense_attributes() == []
    diagonal_approximation(K, sym.order)
    assert dense_attributes() == []
    a, b = K.entries, K.entries
    assert a is not b and not np.shares_memory(a, b)
    assert np.array_equal(a, b)
    assert not a.flags.writeable and not b.flags.writeable


@pytest.mark.parametrize("check", ["diag-approx", "sandwich"])
def test_one_split_per_check(monkeypatch, check):
    # the diagonal and the residue norm come from one split of K
    splits = []

    def counted(K):
        splits.append(K.size)
        return split_diagonal(K)

    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    K = hermitize(assemble(sym, SPEC1, BoxTruncation(10)))
    monkeypatch.setattr(spectral, "split_diagonal", counted)
    if check == "diag-approx":
        diagonal_approximation(K, sym.order)
    else:
        sandwich_check(K)
    assert splits == [21]


def test_sandwich_requires_vectors_path():
    # non-Hermitian input is rejected before any eigenvector work
    K = assemble(difference_symbol(), SPEC1, BoxTruncation(3))
    with pytest.raises(ValueError):
        sandwich_check(K)


# ---------------------------------------------------------------------------
# values-only solves in the blocks of the axis reflections
# ---------------------------------------------------------------------------

def _agrees_with_dense(K):
    # each eigenvalue within size * eps * ||K||_inf of the dense solve's
    dense = np.linalg.eigvalsh(K.entries)
    tol = K.size * np.finfo(float).eps * np.max(kernel.power_sums(K, 1.0, 1))
    folded = eigendecompose_hermitian(K).eigenvalues
    assert folded.shape == dense.shape
    assert np.max(np.abs(folded - dense)) <= tol


def complex_reflection_kernel(spec, box):
    # exp(-|z - w|^2) (1 + i (|z|^2 - |w|^2) / 10) + |z|^2 on the diagonal: Hermitian, and
    # fixed by every axis reflection bit for bit (integer coordinates, exact squares)
    z = enumerate_box_integers(spec, box).astype(float)
    sq = np.sum(z * z, axis=1)
    gap = np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2)
    a = np.exp(-gap) * (1 + 1j * np.subtract.outer(sq, sq) / 10) + np.diag(sq)
    return KernelMatrix(spec, box, a)


def _box_kernels():
    cases = {}
    for dim, radius, l in ((1, 40, 2), (2, 6, 1), (3, 3, 1)):
        spec = LatticeSpec(0.5, dim)
        H = build_hamiltonian(spec, PotentialSpec.anharmonic(1.0, l, dim), BoxTruncation(radius))
        cases[f"H-{dim}d"], cases[f"N-{dim}d"] = H, neumann_truncation(H)
    for dim, radius in ((1, 30), (2, 5)):
        spec = LatticeSpec(1.0, dim)
        cases[f"decaying-hermitized-{dim}d"] = hermitize(
            assemble(decaying_test_symbol(3.0, 2.0, 1.0, spec), spec, BoxTruncation(radius)))
    cases["complex-2d"] = complex_reflection_kernel(LatticeSpec(1.0, 2), BoxTruncation(4))
    return cases


BOX_KERNELS = _box_kernels()


@pytest.mark.parametrize("case", sorted(BOX_KERNELS))
def test_folded_values_agree_with_dense(case):
    K = BOX_KERNELS[case]
    blocks = [b for b, _ in kernel.reflection_blocks(K)]
    assert len(blocks) == 2 ** K.spec.dim  # every axis folds
    assert sum(b.size for b in blocks) == K.size
    _agrees_with_dense(K)


@pytest.mark.parametrize("case", sorted(BOX_KERNELS))
def test_block_eigenvectors_are_eigenpairs_of_the_box(case):
    # bounds fixed before the first run: X^H X - I within scale * eps and K X - X Lambda
    # within scale * eps ||K||_inf (error_bound) entrywise, and each column's largest
    # component real positive, its imaginary part within 4 eps of it.  "Largest" is up to
    # 4 eps: complex-2d has columns whose eight largest components tie to rounding, and
    # dividing out the phase can move their argmax from the one the rule chose
    K = BOX_KERNELS[case]
    dec = eigendecompose_hermitian(K, want_vectors=True)
    X, eps = dec.eigenvectors, np.finfo(float).eps
    assert X.dtype == K.entries.dtype
    assert np.array_equal(dec.eigenvalues, np.sort(dec.eigenvalues))
    scale = dec.error_bound / (eps * np.max(kernel.power_sums(K, 1.0, 1)))
    assert np.max(np.abs(X.conj().T @ X - np.eye(K.size))) <= scale * eps
    assert np.max(np.abs(K.entries @ X - X * dec.eigenvalues)) <= dec.error_bound
    near_top = np.abs(X) >= (1 - 4 * eps) * np.max(np.abs(X), axis=0)
    real_positive = (X.real > 0) & (np.abs(X.imag) <= 4 * eps * X.real)
    assert np.all(np.any(near_top & real_positive, axis=0))


def test_the_one_path_reads_no_dense_matrix_of_the_box(tmp_path, monkeypatch):
    # the unhermitized decaying(3, 2, 1) kernel folds and is not Hermitian: its residue's
    # norm is the larger 2-norm of two blocks, of 31 and 30 points
    spec = LatticeSpec(1.0, 1)
    K = assemble(decaying_test_symbol(3.0, 2.0, 1.0, spec), spec, BoxTruncation(30))
    assert split_diagonal(K).residue.asymmetry > 0
    assert sorted(b.size for b, _ in kernel.reflection_blocks(K)) == [30, 31]
    dense = np.linalg.norm(split_diagonal(K).residue.entries, 2)

    def no_entries(self):
        if self.spec is not None:
            raise AssertionError("the dense matrix of the box was read")
        return kernel._dense(self.size, *self._triplets)

    monkeypatch.setattr(KernelMatrix, "entries", property(no_entries))
    cfg = {"lattice": {"hbar": 1.0, "dim": 1}, "truncation": {"radius": 30}, "task": "diag-approx",
           "symbol": {"family": "decaying", "params": {"s": 3.0, "a": 2.0, "b": 1.0}},
           "params": {}, "output": {"directory": ".", "formats": ["csv", "json"]}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
    sandwich_check(hermitize(K))
    assert residue_norm(K) >= dense


@pytest.mark.parametrize("dtype", [float, complex])
def test_no_invariant_axis_keeps_every_bit(dtype):
    # a potential linear in k is fixed by no reflection: one block, the dense matrix
    spec, box = LatticeSpec(1.0, 2), BoxTruncation(4)
    z = enumerate_box_integers(spec, box)
    hop = np.diag(np.full(len(z) - 1, -1.0), 1)
    a = np.diag(z @ [1.0, 0.3]) + hop + hop.T
    if dtype is complex:
        a = a + 0.25j * (hop - hop.T)
    K = KernelMatrix(spec, box, a)
    blocks = [b for b, _ in kernel.reflection_blocks(K)]
    assert len(blocks) == 1 and blocks[0] is K and np.array_equal(blocks[0].entries, K.entries)
    assert blocks[0].entries.dtype == K.entries.dtype == dtype
    assert np.array_equal(eigendecompose_hermitian(K).eigenvalues, np.linalg.eigvalsh(K.entries))


def test_one_ulp_off_folds_the_other_axes_only():
    # bump V at (1, 2) and its axis-1 mirror (1, -2) by one ulp: axis 1 still folds, axis 0 not
    H = BOX_KERNELS["H-2d"]
    spec, box = H.spec, H.box
    a = np.array(H.entries)
    for point in ((0.5, 1.0), (0.5, -1.0)):
        i = index_of(spec, box, point)
        a[i, i] = np.nextafter(a[i, i], np.inf)
    K = KernelMatrix(spec, box, a)
    side, r = 2 * box.radius + 1, box.radius
    assert sorted(b.size for b, _ in kernel.reflection_blocks(K)) == [side * r, side * (r + 1)]
    _agrees_with_dense(K)


def test_two_d_scan_builds_no_matrix_of_the_whole_box(monkeypatch):
    built = []
    dense = kernel._dense

    def recorded(size, *triplets):
        built.append(size)
        return dense(size, *triplets)

    monkeypatch.setattr(kernel, "_dense", recorded)
    spec = LatticeSpec(1.0, 2)
    result = spectrum_converged(spec, PotentialSpec.anharmonic(1.0, 1, 2), 60, 1e-8,
                                start_radius=3, max_dim=625)
    # per radius, H then N: the blocks even-even, even-odd, odd-even and odd-odd
    assert result.radii_scanned == [3, 6, 12]
    assert built == [size for r in result.radii_scanned for _ in "HN"
                     for size in ((r + 1) ** 2, (r + 1) * r, r * (r + 1), r ** 2)]


# ---------------------------------------------------------------------------
# the error bound each solve returns
# ---------------------------------------------------------------------------

def _box_pair(dim, radius, lam):
    # H_R and N_R of the harmonic oscillator; a negative lam makes ||N_R||_inf the larger
    spec = LatticeSpec(1.0, dim)
    H = build_hamiltonian(spec, PotentialSpec.anharmonic(1.0, 1, dim), BoxTruncation(radius), lam)
    return H, neumann_truncation(H)


@pytest.mark.parametrize("lam", [0.0, -50.0])
@pytest.mark.parametrize("dim, radius", [(1, 1), (1, 2), (1, 3), (1, 25),
                                         (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_block_solve_error_bound_is_the_scan_formula(dim, radius, lam):
    # scale * eps * ||A||_inf bit for bit, with the scale of a block solve, for each box
    # matrix and for the larger of the two, which is the scan's err
    side = 2 * radius + 1
    scale = max(side ** dim, (radius + 1) * side ** (dim - 1) + 2 ** dim + 2)
    pair = _box_pair(dim, radius, lam)
    norms = [np.max(kernel.power_sums(K, 1.0, 1)) for K in pair]
    bounds = [eigendecompose_hermitian(K).error_bound for K in pair]
    assert bounds == [scale * np.finfo(float).eps * norm for norm in norms]
    assert max(bounds) == scale * np.finfo(float).eps * max(norms)


def test_vectors_and_values_share_one_error_bound():
    # a box has the block rule's scale, max(5, 3 + 2 + 2) = 7 at 1-d R=2, with or
    # without vectors; a plain array has scale = size, with or without vectors
    H, _ = _box_pair(1, 2, 0.0)
    norm = np.max(kernel.power_sums(H, 1.0, 1))
    block = 7 * np.finfo(float).eps * norm
    assert eigendecompose_hermitian(H, want_vectors=True).error_bound == block
    assert eigendecompose_hermitian(H).error_bound == block
    want = H.size * np.finfo(float).eps * np.max(kernel.power_sums(H, 1.0, 1))
    assert eigendecompose_hermitian(np.array(H.entries), want_vectors=True).error_bound == want
    assert eigendecompose_hermitian(np.array(H.entries)).error_bound == want


@pytest.mark.parametrize("dim, radii", [(1, [1, 2, 4, 8, 16, 32, 64]), (2, [1, 2, 4, 8]),
                                        (3, [1, 2, 4])])
def test_error_bound_never_falls_as_the_radius_doubles(dim, radii):
    # the premise of the scan's stop rule: no larger box has a smaller err
    for lam in (0.0, -50.0):
        bounds = [[eigendecompose_hermitian(K).error_bound for K in _box_pair(dim, r, lam)]
                  for r in radii]
        for small, large in zip(bounds, bounds[1:]):
            assert large[0] >= small[0] and large[1] >= small[1]


@pytest.mark.parametrize("case", sorted(BOX_KERNELS))
def test_residue_norm_adds_the_error_bound_of_its_solve(case):
    # Weyl: the norm of the residue is within error_bound of its largest computed |value|
    res = split_diagonal(BOX_KERNELS[case]).residue
    dec = eigendecompose_hermitian(res)
    assert dec.error_bound > 0
    assert residue_norm(BOX_KERNELS[case]) >= np.max(np.abs(dec.eigenvalues)) + dec.error_bound


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radius_zero_solves_in_every_parity_block(dim):
    # the one box point is fixed by every reflection: one 1x1 block and 2^n - 1 empty
    # ones give the diagonal entry, bounded as every folded solve is, with scale
    # (R + 1)(2R + 1)^(n - 1) + 2^n + 2 = 2^n + 3
    spec, box = LatticeSpec(0.5, dim), BoxTruncation(0)
    H = build_hamiltonian(spec, PotentialSpec.anharmonic(1.0, 1, dim), box, lam=0.25)
    for K in (H, neumann_truncation(H)):
        blocks = [b for b, _ in kernel.reflection_blocks(K)]
        assert sorted(b.entries.shape for b in blocks) == [(0, 0)] * (2 ** dim - 1) + [(1, 1)]
        dec = eigendecompose_hermitian(K)
        d = K.entries[0, 0]
        assert np.array_equal(dec.eigenvalues, [d])
        assert dec.error_bound == (2 ** dim + 3) * np.finfo(float).eps * abs(d)


def test_each_block_is_let_go_once_solved(monkeypatch):
    # at each block solve, the other blocks still alive: none without vectors; with them,
    # the blocks not yet solved (listed for the preflight) and none of those solved
    yielded, alive = [], []
    blocks, eigh = spectral.reflection_blocks, spectral._eigh

    def watched_blocks(K):
        for block, basis in blocks(K):
            yielded.append(weakref.ref(block))
            yield block, basis

    def watched_eigh(block, want_vectors):
        alive.append(sum(ref() is not None and ref() is not block for ref in yielded))
        return eigh(block, want_vectors)

    monkeypatch.setattr(spectral, "reflection_blocks", watched_blocks)
    monkeypatch.setattr(spectral, "_eigh", watched_eigh)
    spec = LatticeSpec(1.0, 2)
    H = build_hamiltonian(spec, PotentialSpec.anharmonic(1.0, 1, 2), BoxTruncation(6))
    for want_vectors, counts in ((False, [0, 0, 0, 0]), (True, [3, 2, 1, 0])):
        yielded.clear(), alive.clear()
        eigendecompose_hermitian(H, want_vectors)
        assert alive == counts


# ---------------------------------------------------------------------------
# real tridiagonal blocks by LAPACK's dstevd, bit for bit as numpy's dense solve
# ---------------------------------------------------------------------------

def _binding_expected():
    # numpy's wheels bundle scipy-openblas, which exports the ILP64 LAPACKE symbol
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name") == "scipy-openblas"


@pytest.fixture
def bound():
    if _lapack.dstevd() is None:
        assert not _binding_expected(), "numpy's scipy-openblas was not bound or failed its probe"
        pytest.skip("no dstevd binding for this numpy's BLAS")


def tridiagonal(n, scale=1.0, seed=0, zero_at=None):
    rng = np.random.default_rng(seed)
    a = np.diag(rng.normal(size=n) * scale)
    sub = rng.normal(size=max(n - 1, 0)) * scale
    if zero_at is not None:
        sub[zero_at] = 0.0
    i = np.arange(n - 1)
    a[i + 1, i] = a[i, i + 1] = sub
    return a


def band(block):
    return np.diagonal(block).copy(), np.diagonal(block, -1).copy()


def assert_numpys_bits(block):
    vals = _lapack.tridiagonal_eigh(*band(block), False)
    both = _lapack.tridiagonal_eigh(*band(block), True)
    assert vals is not None and both is not None
    for got, want in zip((vals, *both), (np.linalg.eigvalsh(block), *np.linalg.eigh(block))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e300, 1e-300])
@pytest.mark.parametrize("n", [0, 1, 2, 26, 501])
def test_tridiagonal_block_has_numpys_bits(bound, n, scale):
    # past 1e+-150 both drivers scale the band first; 26 points reach dstedc's divide and
    # conquer
    assert_numpys_bits(tridiagonal(n, scale, seed=n))


@pytest.mark.parametrize("n", [26, 501])
def test_diagonal_and_split_blocks_have_numpys_bits(bound, n):
    assert_numpys_bits(np.diag(np.random.default_rng(n).normal(size=n)))
    assert_numpys_bits(tridiagonal(n, seed=n, zero_at=n // 3))
    # numpy's eigh reads the lower triangle only, and so does the band
    a = tridiagonal(n, seed=n)
    a += np.triu(np.random.default_rng(n + 1).normal(size=(n, n)), 2) * 1e-12
    assert_numpys_bits(a)


def test_other_blocks_are_solved_dense(bound, monkeypatch):
    # one entry below the first subdiagonal, or a complex block: numpy's dense solve
    a = tridiagonal(30)
    a[20, 5] = a[5, 20] = 1e-3
    c = tridiagonal(30) + 0j
    counts = _counted_solves(monkeypatch)
    spectral._eigh(KernelMatrix(None, None, a), False)
    spectral._eigh(KernelMatrix(None, None, a), True)
    spectral._eigh(KernelMatrix(None, None, c), False)
    assert counts == [3, 0]
    assert np.array_equal(eigendecompose_hermitian(a).eigenvalues, np.linalg.eigvalsh(a))
    assert np.array_equal(eigendecompose_hermitian(c).eigenvalues, np.linalg.eigvalsh(c))


def _counted_solves(monkeypatch):
    # (blocks solved, blocks solved by dstevd)
    counts = [0, 0]
    eigh, call = spectral._eigh, _lapack._call

    def counted_eigh(block, want_vectors):
        counts[0] += 1
        return eigh(block, want_vectors)

    def counted_call(*args):
        counts[1] += 1
        return call(*args)

    monkeypatch.setattr(spectral, "_eigh", counted_eigh)
    monkeypatch.setattr(_lapack, "_call", counted_call)
    return counts


SCAN_1D = {f"growth-1d-l{l}": {
    "lattice": {"hbar": 1.0, "dim": 1}, "truncation": {"radius": 25}, "task": "fit-growth",
    "symbol": {"family": "schrodinger", "params": {"potential": {"c": 1.0, "l": l}, "lambda": 0.0}},
    "params": {"j_max": 300, "tol": 1e-8, "j_range": [100, 300], "max_dim": 1001},
    "output": {"directory": ".", "formats": ["csv", "json"]}} for l in (1, 2)}
DIAG_1D = {"lattice": {"hbar": 1.0, "dim": 1}, "truncation": {"radius": 500},
           "task": "diag-approx", "params": {},
           "symbol": {"family": "decaying", "params": {"s": 3.0, "a": 2.0, "b": 1.0}},
           "output": {"directory": ".", "formats": ["csv", "json"]}}
GROWTH_2D = {"lattice": {"hbar": 1.0, "dim": 2}, "truncation": {"radius": 3}, "task": "fit-growth",
             "symbol": {"family": "schrodinger",
                        "params": {"potential": {"c": 1.0, "l": 1}, "lambda": 0.0}},
             "params": {"j_max": 200, "tol": 1e-8, "j_range": [50, 200], "max_dim": 2401},
             "output": {"directory": ".", "formats": ["csv", "json"]}}


def _run(tmp_path, name, cfg):
    (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
    return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())
            if p.suffix in (".csv", ".json") and p.name != "manifest.json"}


@pytest.mark.parametrize("name, cfg, one_d", [
    ("diag-1d", DIAG_1D, True), *((n, c, True) for n, c in SCAN_1D.items()),
    ("growth-2d-l1", GROWTH_2D, False)])
def test_one_d_blocks_are_solved_by_dstevd(bound, tmp_path, monkeypatch, name, cfg, one_d):
    # every block of a 1-d kernel and of its residue is tridiagonal; no 2-d block is
    counts = _counted_solves(monkeypatch)
    _run(tmp_path, name, cfg)
    assert counts[0] > 0
    assert counts[1] == (counts[0] if one_d else 0), counts


def test_one_d_solves_build_no_dense_matrix(bound, tmp_path, monkeypatch):
    # every 1-d block goes to dstevd as its band, read from the block's triplets
    def no_dense(*args):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(kernel, "_dense", no_dense)
    spec = LatticeSpec(0.5, 1)
    H = build_hamiltonian(spec, PotentialSpec.anharmonic(1.0, 2, 1), BoxTruncation(40))
    assert len(eigendecompose_hermitian(H).eigenvalues) == 81
    assert eigendecompose_hermitian(H, want_vectors=True).eigenvectors.shape == (81, 81)
    _run(tmp_path, "diag-1d", DIAG_1D)


@pytest.mark.parametrize("name, cfg", [("diag-1d", DIAG_1D), *SCAN_1D.items()])
def test_without_the_binding_every_output_is_the_same(tmp_path, monkeypatch, name, cfg):
    # with the library taken to be missing every block is solved dense, to the same bytes
    for side in ("bound", "dense"):
        (tmp_path / side).mkdir()
    bound_outputs = _run(tmp_path / "bound", name, cfg)
    monkeypatch.setattr(_lapack, "dstevd", lambda: None)
    counts = _counted_solves(monkeypatch)
    assert _run(tmp_path / "dense", name, cfg) == bound_outputs
    assert counts[0] > 0 and counts[1] == 0


def test_vector_solve_holds_no_second_box_sized_array():
    # bound fixed before the first run: the 1-d R=500 decaying kernel's vector solve peaks
    # below its box-sized eigenvector array, its two blocks' vectors held until every
    # value is known, and 2 MiB for the ~1 MiB slices it places and phases the vectors in;
    # a sorted copy of the box-sized array, or its absolute values, would exceed that
    spec = LatticeSpec(1.0, 1)
    K = hermitize(assemble(decaying_test_symbol(3.0, 2.0, 1.0, spec), spec, BoxTruncation(500)))
    sizes = [b.size for b, _ in kernel.reflection_blocks(K)]
    assert sizes == [501, 500]
    eigendecompose_hermitian(K, want_vectors=True)  # binds and probes the solver first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec = eigendecompose_hermitian(K, want_vectors=True)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = 8 * (K.size ** 2 + sum(m * m for m in sizes))
    assert peak < held + 2 * 2 ** 20, (peak, held)
    assert dec.eigenvectors.shape == (K.size, K.size)


def test_overflowing_reflection_blocks_are_refused_naming_the_box_matrix():
    # the identity plus 1.5e308 on the four hops from the centre of a 2-d R=1 box: both axes
    # fold, and the blocks' sqrt2-weighted entries and their sums are past float64
    spec, box = LatticeSpec(1.0, 2), BoxTruncation(1)
    a = np.eye(9)
    centre = index_of(spec, box, np.zeros(2))
    for hop in ([1, 0], [-1, 0], [0, 1], [0, -1]):
        j = index_of(spec, box, np.array(hop, float))
        a[centre, j] = a[j, centre] = 1.5e308
    K = KernelMatrix(spec, box, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for want_vectors in (False, True):
            with pytest.raises(NonFiniteError, match=r"9x9 matrix.*largest \|entry\| 1\.5e\+308"):
                eigendecompose_hermitian(K, want_vectors)


def _overlaps_by_cluster(vecs, perm, cuts):
    # the per-cluster loop the flags were computed by
    size = len(perm)
    overlaps = np.abs(vecs[perm, np.arange(size)])
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, size]):
        if b - a > 1:
            overlaps[a:b] = np.linalg.norm(vecs[perm[a:b], a:b], axis=1)
    return overlaps


@pytest.mark.parametrize("dtype", [float, complex])
def test_cluster_overlaps_have_the_per_cluster_bits(dtype):
    # clusters of sizes 1, 2, 3 and 5 in a random order, over real and complex vectors
    rng = np.random.default_rng(3)
    sizes = rng.permutation([1] * 6 + [2] * 5 + [3] * 3 + [5] * 2)
    cuts = np.cumsum(sizes)[:-1]
    size = int(np.sum(sizes))
    vecs = rng.normal(size=(size, size)).astype(dtype)
    if dtype is complex:
        vecs += 1j * rng.normal(size=(size, size))
    perm = rng.permutation(size)
    want = _overlaps_by_cluster(vecs, perm, cuts)
    got = spectral._cluster_overlaps(vecs, perm, cuts)
    assert got.tobytes() == want.tobytes()


def test_low_overlap_flags_of_the_one_d_kernel_keep_their_bits():
    # the 1-d decaying(3, 2, 1) R=500 kernel: 513 clusters, 488 of them pairs
    spec = LatticeSpec(1.0, 1)
    sym = decaying_test_symbol(3.0, 2.0, 1.0, spec)
    K = hermitize(assemble(sym, spec, BoxTruncation(500)))
    dec = eigendecompose_hermitian(K, want_vectors=True)
    diag = np.real(split_diagonal(K).diagonal)
    perm = np.argsort(diag, kind="stable")
    lam = dec.eigenvalues
    cuts = np.flatnonzero(np.diff(lam) > K.size * np.finfo(float).eps * np.max(np.abs(lam))) + 1
    assert len(cuts) + 1 == 513
    want = _overlaps_by_cluster(dec.eigenvectors, perm, cuts) < 0.5
    np.testing.assert_array_equal(diagonal_approximation(K, sym.order).low_overlap, want)


def _overlap_kernels():
    # (name, kernel): three real, two complex
    yield "1d-R500", hermitize(assemble(decaying_test_symbol(3.0, 2.0, 1.0, SPEC1), SPEC1,
                                        BoxTruncation(500)))
    spec = LatticeSpec(0.5, 2)
    yield "2d-R12", hermitize(assemble(decaying_test_symbol(3.0, 2.0, 1.0, spec), spec,
                                       BoxTruncation(12)))
    spec, box = LatticeSpec(1.0, 2), BoxTruncation(5)
    H = build_hamiltonian(spec, PotentialSpec.anharmonic(1.0, 1, 2), box)
    yield "harmonic-real", H
    yield "harmonic-complex", KernelMatrix(spec, box, H.entries.astype(complex))
    rng, box = np.random.default_rng(5), BoxTruncation(4)
    a = rng.normal(size=(81, 81)) + 1j * rng.normal(size=(81, 81))
    yield "random-complex", KernelMatrix(spec, box, (a + a.conj().T) / 2)


@pytest.mark.parametrize("name, K", list(_overlap_kernels()))
def test_block_read_overlaps_match_the_box_eigenvectors(name, K):
    # tolerance fixed before the first run: real blocks give the carried-back entries' bits
    # (their phase is +-1), complex ones differ from them by the phase division alone
    dec = eigendecompose_hermitian(K, want_vectors=True)
    perm = np.argsort(np.real(split_diagonal(K).diagonal), kind="stable")
    lam = dec.eigenvalues
    cuts = np.flatnonzero(np.diff(lam) > K.size * np.finfo(float).eps * np.max(np.abs(lam))) + 1
    want = spectral._cluster_overlaps(dec.eigenvectors, perm, cuts)
    blocks = spectral._Blocks(K, True)
    assert np.array_equal(blocks.values, lam)
    got = spectral._cluster_overlaps(blocks, perm, cuts)
    if K._triplets[2].dtype == float:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps
    order_of = decaying_test_symbol(3.0, 2.0, 1.0, K.spec).order
    np.testing.assert_array_equal(diagonal_approximation(K, order_of).low_overlap, want < 0.5)


def test_diag_approx_peaks_within_its_preflight_and_below_a_box_sized_array(monkeypatch):
    # bound fixed before the first run: the 1-d R=500 kernel's diag-approx holds its two
    # blocks' vectors and one block's solve, under the preflight `_block_solve` makes and
    # under one box-sized float64 eigenvector array
    spec = LatticeSpec(1.0, 1)
    sym = decaying_test_symbol(3.0, 2.0, 1.0, spec)
    K = hermitize(assemble(sym, spec, BoxTruncation(500)))
    diagonal_approximation(K, sym.order)  # binds and probes the solver first
    needs, check_fits = [], spectral.check_fits
    monkeypatch.setattr(spectral, "check_fits",
                        lambda need, what: check_fits(need, what) or needs.append(need))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        diagonal_approximation(K, sym.order)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(needs) == 1
    assert peak < needs[0] < 8 * K.size ** 2, (peak, needs)


def test_an_overflowing_normwise_bound_is_refused_naming_the_matrix():
    # the 1-d R=1 matrix with diagonal (1, 1, 2) and 1e308 on both off-diagonals: no axis
    # folds, every entry is finite, but ||K||_inf is past float64, so the bound would be
    # inf.  A solve, with or without vectors, and the Hermitian residue norm refuse it; so
    # does the non-Hermitian residue norm (0.9e308 below the diagonal), at its rounding term
    K = KernelMatrix(SPEC1, BoxTruncation(1), [[1.0, 1e308, 0.0], [1e308, 1.0, 1e308],
                                               [0.0, 1e308, 2.0]])
    skew = KernelMatrix(SPEC1, BoxTruncation(1), [[1.0, 1e308, 0.0], [0.9e308, 1.0, 1e308],
                                                  [0.0, 0.9e308, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for want_vectors in (False, True):
            with pytest.raises(NonFiniteError, match=r"3x3 matrix.*largest \|entry\| 1e\+308"):
                eigendecompose_hermitian(K, want_vectors)
        for matrix in (K, skew):
            with pytest.raises(NonFiniteError, match=r"3x3 matrix.*largest \|entry\| 1e\+308"):
                residue_norm(matrix)
