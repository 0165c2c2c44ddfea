import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_pdo.fourier import coefficient_table, toroidal_coefficient
from lattice_pdo.lattice import BoxTruncation, LatticeSpec, enumerate_box_integers, index_of
from lattice_pdo.kernel import (KernelMatrix, apply, assemble, hermitian_check,
                                hermitize, read_binary, split_diagonal,
                                write_binary, write_csv)
from lattice_pdo.criteria import mixed_lp_sum, nuclear_sum, schur_l1_lp, sup_entry
from lattice_pdo.spectral import eigendecompose_hermitian, residue_norm
from lattice_pdo.symbols import (constant_symbol, decaying_test_symbol,
                                 difference_symbol, multiplication_symbol,
                                 polynomial_potential, schrodinger_symbol,
                                 symbol_from_matrix)

SPEC1 = LatticeSpec(1.0, 1)


def schrodinger_k2(spec=SPEC1, lam=0.0):
    return schrodinger_symbol(lambda k: float(k @ k), lam, spec, potential_order=2.0)


def test_assemble_difference():
    K = assemble(difference_symbol(), SPEC1, BoxTruncation(1))
    expected = np.array([[-1, 1, 0], [0, -1, 1], [0, 0, -1]], dtype=complex)
    np.testing.assert_array_equal(K.entries, expected)


def test_assemble_identity():
    K = assemble(constant_symbol(1.0), SPEC1, BoxTruncation(2))
    np.testing.assert_array_equal(K.entries, np.eye(5))


def test_assemble_schrodinger_3x3():
    K = assemble(schrodinger_k2(), SPEC1, BoxTruncation(1))
    expected = np.array([[3, -1, 0], [-1, 2, -1], [0, -1, 3]], dtype=complex)
    np.testing.assert_array_equal(K.entries, expected)


def test_assemble_matches_basis_action():
    # oracle: apply the operator definition column by column
    K = assemble(difference_symbol(), SPEC1, BoxTruncation(2))
    box = BoxTruncation(2)
    for i in range(-1, 3):  # columns whose image stays in the box
        col = index_of(SPEC1, box, float(i))
        e = np.zeros(5)
        e[col] = 1.0
        out = apply(K, e)
        for krow in range(-2, 3):
            expected = 1.0 if krow == i - 1 else (-1.0 if krow == i else 0.0)
            assert out[index_of(SPEC1, box, float(krow))] == pytest.approx(expected)


def test_apply_examples():
    Kd = assemble(difference_symbol(), SPEC1, BoxTruncation(1))
    out = apply(Kd, np.array([0.0, 1.0, 0.0]))  # basis vector at k = 0
    np.testing.assert_allclose(out, [1.0, -1.0, 0.0])

    Ki = assemble(constant_symbol(1.0), SPEC1, BoxTruncation(1))
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(apply(Ki, v), v)

    Ks = assemble(schrodinger_k2(), SPEC1, BoxTruncation(1))
    np.testing.assert_allclose(apply(Ks, np.ones(3)), [2.0, 0.0, 2.0])


def test_apply_length_mismatch():
    K = assemble(difference_symbol(), SPEC1, BoxTruncation(1))
    with pytest.raises(ValueError):
        apply(K, np.ones(4))


def test_split_diagonal_examples():
    Ki = assemble(constant_symbol(1.0), SPEC1, BoxTruncation(1))
    split = split_diagonal(Ki)
    np.testing.assert_array_equal(split.diagonal, np.ones(3))
    assert np.all(split.residue.entries == 0)

    Ks = assemble(schrodinger_k2(), SPEC1, BoxTruncation(1))
    split = split_diagonal(Ks)
    np.testing.assert_array_equal(split.diagonal, [3, 2, 3])
    assert np.all(np.diag(split.residue.entries) == 0)

    Kd = assemble(difference_symbol(), SPEC1, BoxTruncation(1))
    split = split_diagonal(Kd)
    np.testing.assert_array_equal(split.diagonal, [-1, -1, -1])
    # exact reassembly, bitwise on the diagonal
    total = np.array(split.residue.entries)
    total[np.arange(3), np.arange(3)] = split.diagonal
    np.testing.assert_array_equal(total, Kd.entries)


def test_hermitian_check():
    ok, asym = hermitian_check(assemble(schrodinger_k2(), SPEC1, BoxTruncation(2)))
    assert ok and asym == 0.0

    ok, _ = hermitian_check(assemble(difference_symbol(), SPEC1, BoxTruncation(2)))
    assert not ok

    Kd = assemble(decaying_test_symbol(3.0, 2.0, 1.0), SPEC1, BoxTruncation(2))
    ok, _ = hermitian_check(Kd)
    assert not ok
    ok, asym = hermitian_check(hermitize(Kd))
    assert ok and asym == 0.0


@pytest.mark.parametrize("read", [
    hermitian_check, eigendecompose_hermitian, residue_norm, sup_entry,
    lambda a: schur_l1_lp(a, 2.0), lambda a: mixed_lp_sum(a, 2.0),
    lambda a: nuclear_sum(a, 1.0, 2.0),
], ids=["hermitian_check", "eigendecompose_hermitian", "residue_norm", "sup_entry",
        "schur_l1_lp", "mixed_lp_sum", "nuclear_sum"])
def test_plain_entries_must_be_square(read):
    # one reader serves the checks, the eigensolver and the criterion sums
    read(np.eye(3))
    read([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="square"):
        read(np.ones((2, 3)))


def test_roundtrip_random_kernels():
    rng = np.random.default_rng(3)
    box = BoxTruncation(2)
    for _ in range(20):
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        K = KernelMatrix(SPEC1, box, M)
        K2 = assemble(symbol_from_matrix(K), SPEC1, box)
        assert np.max(np.abs(K2.entries - K.entries)) <= 1e-10


def test_kernel_rejects_nonfinite():
    for dtype in (complex, float):
        for bad in (np.nan, np.inf):
            M = np.eye(3, dtype=dtype)
            M[0, 0] = bad
            with pytest.raises(ValueError):
                KernelMatrix(SPEC1, BoxTruncation(1), M)


def test_kernel_storage_follows_entries():
    box = BoxTruncation(1)
    for real in (np.eye(3), np.eye(3, dtype=int), np.eye(3, dtype=np.float32)):
        K = KernelMatrix(SPEC1, box, real)
        assert K.entries.dtype == np.float64
        assert not K.entries.flags.writeable
    K = KernelMatrix(SPEC1, box, np.eye(3, dtype=complex))
    assert K.entries.dtype == np.complex128
    assert not K.entries.flags.writeable
    # assemble stores float64 when every band is real, complex128 otherwise
    assert assemble(schrodinger_k2(), SPEC1, box).entries.dtype == np.float64
    assert assemble(constant_symbol(1.5 + 0.5j), SPEC1, box).entries.dtype == np.complex128


def test_kernel_rejects_wrong_shape():
    with pytest.raises(ValueError):
        KernelMatrix(SPEC1, BoxTruncation(1), np.eye(4, dtype=complex))


def test_csv_export_difference(tmp_path):
    K = assemble(difference_symbol(), SPEC1, BoxTruncation(1))
    path = tmp_path / "k.csv"
    write_csv(K, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + 5  # five nonzero entries in the 3x3 kernel
    values = sorted(float(line.split(",")[2]) for line in lines[1:])
    assert values == [-1.0, -1.0, -1.0, 1.0, 1.0]


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    K = KernelMatrix(LatticeSpec(0.5, 1), BoxTruncation(4), M)
    path = tmp_path / "k.bin"
    write_binary(K, path)
    K2 = read_binary(path)
    assert K2.spec == K.spec
    assert K2.box == K.box
    np.testing.assert_array_equal(K2.entries, K.entries)


def test_roundtrip_2d_quadrature_path():
    rng = np.random.default_rng(9)
    spec2 = LatticeSpec(1.0, 2)
    box = BoxTruncation(1)
    M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    K = KernelMatrix(spec2, box, M)
    K2 = assemble(symbol_from_matrix(K), spec2, box)
    assert np.max(np.abs(K2.entries - K.entries)) <= 1e-10


def test_assemble_2d_schrodinger_neighbors():
    spec = LatticeSpec(1.0, 2)
    sym = schrodinger_symbol(lambda k: float(k @ k), 0.0, spec, potential_order=2.0)
    K = assemble(sym, spec, BoxTruncation(1))
    box = BoxTruncation(1)
    c = index_of(spec, box, (0.0, 0.0))
    up = index_of(spec, box, (0.0, 1.0))
    right = index_of(spec, box, (1.0, 0.0))
    diag = index_of(spec, box, (1.0, 1.0))
    assert K.entries[c, c] == pytest.approx(4.0)       # 2n + V(0)
    assert K.entries[c, up] == pytest.approx(-1.0)
    assert K.entries[c, right] == pytest.approx(-1.0)
    assert K.entries[c, diag] == pytest.approx(0.0)    # no diagonal hopping


def builtin_families(spec):
    syms = [constant_symbol(1.5 + 0.5j, spec), multiplication_symbol(0.5, spec),
            multiplication_symbol(1.0, spec), polynomial_potential(1.0, 2, spec),
            decaying_test_symbol(3.0, 2.0, 1.0, spec),
            schrodinger_symbol(lambda k: float(k @ k), 0.5, spec, potential_order=2.0)]
    if spec.dim == 1:
        syms.append(difference_symbol(spec.hbar))
    return syms


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_assemble_table_and_pointwise_coefficients_agree_exactly(dim, hbar):
    # one closed form per family: the banded fill, the table and the single
    # coefficient must give the same bits
    spec = LatticeSpec(hbar, dim)
    box = BoxTruncation(2)
    zs = enumerate_box_integers(spec, box)
    m_box = BoxTruncation(2 * box.radius)
    for sym in builtin_families(spec):
        K = assemble(sym, spec, box)
        table = coefficient_table(sym, box, m_box.radius)
        for i, zk in enumerate(zs):
            for j, zm in enumerate(zs):
                col = index_of(spec, m_box, hbar * (zm - zk))
                single = toroidal_coefficient(sym, hbar * zk, hbar * (zm - zk))
                assert K.entries[i, j] == table.values[i, col] == single, (sym.name, i, j)


def test_quadrature_refuses_to_fold_columns():
    # 2R + 1 columns per row need 2R + 1 distinct FFT bins out of n_samples = 64
    rng = np.random.default_rng(11)
    for radius, folds in ((31, False), (32, True)):
        box = BoxTruncation(radius)
        M = rng.normal(size=(box.size(1),) * 2)
        K = KernelMatrix(SPEC1, box, M)
        if folds:
            with pytest.raises(ValueError, match="radius 32.*n_samples=64"):
                assemble(symbol_from_matrix(K), SPEC1, box)
        else:
            K2 = assemble(symbol_from_matrix(K), SPEC1, box)
            assert np.max(np.abs(K2.entries - K.entries)) <= 1e-10


def quadrature_only(sym):
    return dataclasses.replace(sym, closed_form_coeffs=None, coeff_support_radius=None)


@st.composite
def closed_form_symbols(draw):
    spec = LatticeSpec(draw(st.sampled_from([1.0, 0.5])), draw(st.integers(1, 2)))
    unit = st.floats(-2.0, 2.0, allow_nan=False)
    family = draw(st.sampled_from(["decaying", "multiplication", "schrodinger"]))
    if family == "decaying":
        return decaying_test_symbol(draw(st.floats(0.0, 4.0)), draw(unit), draw(unit), spec)
    if family == "multiplication":
        return multiplication_symbol(draw(st.floats(0.0, 2.0)), spec)
    c = draw(st.floats(0.1, 2.0))
    l = draw(st.integers(1, 2))
    return schrodinger_symbol(lambda k: c * float(np.linalg.norm(k)) ** (2 * l),
                              draw(unit), spec, potential_order=2.0 * l)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sym=closed_form_symbols(), radius=st.integers(0, 3))
def test_banded_matches_quadrature_assembly(sym, radius):
    box = BoxTruncation(radius)
    banded = assemble(sym, sym.spec, box).entries
    quad = assemble(quadrature_only(sym), sym.spec, box).entries
    assert np.max(np.abs(banded - quad)) <= 1e-12 * max(1.0, np.max(np.abs(banded)))
