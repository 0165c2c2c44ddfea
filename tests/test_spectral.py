from decimal import Decimal

import numpy as np
import pytest

from lattice_pdo import kernel
from lattice_pdo.lattice import BoxTruncation, LatticeSpec
from lattice_pdo.kernel import KernelMatrix, assemble, hermitian_check, hermitize, split_diagonal
from lattice_pdo.spectral import (diagonal_approximation, eigendecompose_hermitian,
                                  residue_norm, sandwich_check)
from lattice_pdo.symbols import (constant_symbol, decaying_test_symbol,
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


def test_sandwich_requires_vectors_path():
    # non-Hermitian input is rejected before any eigenvector work
    K = assemble(difference_symbol(), SPEC1, BoxTruncation(3))
    with pytest.raises(ValueError):
        sandwich_check(K)
