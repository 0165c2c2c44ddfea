import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_pdo.fourier import coefficient_table, toroidal_coefficient
from lattice_pdo.lattice import BoxTruncation, LatticeSpec, enumerate_box_integers, index_of
from lattice_pdo import kernel
from lattice_pdo.kernel import (KernelMatrix, apply, assemble, hermitian_check,
                                hermitize, read_binary, split_diagonal,
                                write_binary, write_csv)
from lattice_pdo.criteria import mixed_lp_sum, nuclear_sum, schur_l1_lp, sup_entry
from lattice_pdo.spectral import eigendecompose_hermitian, residue_norm
from lattice_pdo.symbols import (Symbol, SymbolOrder, constant_symbol, decaying_test_symbol,
                                 difference_symbol, multiplication_symbol,
                                 polynomial_potential, schrodinger_symbol,
                                 symbol_from_matrix, values_only)

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


def test_kernel_from_transposed_complex_matrix():
    rng = np.random.default_rng(12)
    spec2, box = LatticeSpec(1.0, 2), BoxTruncation(3)
    M = rng.normal(size=(49, 49)) + 1j * rng.normal(size=(49, 49))
    K = KernelMatrix(spec2, box, M.T)
    np.testing.assert_array_equal(K.entries, M.T)
    assert K.entries.dtype == np.complex128


def test_kernel_leaves_the_callers_array_alone():
    for a in (np.eye(3), np.eye(3, dtype=complex)):
        K = KernelMatrix(SPEC1, BoxTruncation(1), a)
        assert a.flags.writeable
        a[0, 1] = 5.0
        assert K.entries[0, 1] == 0.0
        assert K.asymmetry == 0.0


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


FAMILIES = {
    "constant": lambda spec: constant_symbol(1.5 + 0.5j, spec),
    "multiplication-0.5": lambda spec: multiplication_symbol(0.5, spec),
    "multiplication-1": lambda spec: multiplication_symbol(1.0, spec),
    "anharmonic": lambda spec: polynomial_potential(1.0, 2, spec),
    "decaying": lambda spec: decaying_test_symbol(3.0, 2.0, 1.0, spec),
    "schrodinger": lambda spec: schrodinger_symbol(lambda k: float(k @ k), 0.5, spec,
                                                   potential_order=2.0),
    "difference": lambda spec: difference_symbol(spec.hbar),
}


def builtin_families(spec):
    return [make(spec) for name, make in FAMILIES.items()
            if name != "difference" or spec.dim == 1]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_assemble_table_and_pointwise_coefficients_agree_exactly(dim, hbar):
    # one closed form per family, and each family's quadrature: the assembly,
    # the table and the single coefficient must give the same bits
    spec = LatticeSpec(hbar, dim)
    box = BoxTruncation(2)
    zs = enumerate_box_integers(spec, box)
    m_box = BoxTruncation(2 * box.radius)
    families = builtin_families(spec)
    for sym in families + [values_only(sym) for sym in families]:
        K = assemble(sym, spec, box)
        table = coefficient_table(sym, box, m_box.radius)
        for i, zk in enumerate(zs):
            for j, zm in enumerate(zs):
                col = index_of(spec, m_box, hbar * (zm - zk))
                single = toroidal_coefficient(sym, hbar * zk, hbar * (zm - zk))
                assert K.entries[i, j] == table.values[i, col] == single, (sym.name, i, j)


def test_quadrature_refuses_to_fold_columns():
    # row offsets m - k reach 2R per axis, so 4R + 1 must not exceed n_samples = 64
    rng = np.random.default_rng(11)
    for radius, folds in ((15, False), (16, True)):
        box = BoxTruncation(radius)
        M = rng.normal(size=(box.size(1),) * 2)
        K = KernelMatrix(SPEC1, box, M)
        if folds:
            with pytest.raises(ValueError, match="radius 32.*n_samples=64"):
                assemble(symbol_from_matrix(K), SPEC1, box)
        else:
            K2 = assemble(symbol_from_matrix(K), SPEC1, box)
            assert np.max(np.abs(K2.entries - K.entries)) <= 1e-10
    # twice the samples reach twice the radius
    box = BoxTruncation(31)
    K = KernelMatrix(SPEC1, box, rng.normal(size=(box.size(1),) * 2))
    K2 = assemble(symbol_from_matrix(K), SPEC1, box, n_samples=128)
    assert np.max(np.abs(K2.entries - K.entries)) <= 1e-10


def test_quadrature_assembly_never_aliases_a_trigonometric_polynomial():
    # cos(4 pi theta) has degree 2: the operator is 1/2 on the offsets m - k = +-2
    # and 0 elsewhere.  Row -R reads offsets up to 2R, so at R = 31 the offset 62
    # shares bin -2 of 64 samples and would read 1/2 where the operator has 0.
    sym = Symbol(SPEC1, SymbolOrder(0.0), lambda k, theta: np.cos(4 * np.pi * theta[..., 0]),
                 name="cos(4 pi theta)")
    with pytest.raises(ValueError, match="radius 62 needs n_samples >= 125, got n_samples=64"):
        assemble(sym, SPEC1, BoxTruncation(31))
    for radius, n_samples in ((15, 64), (31, 128)):
        box = BoxTruncation(radius)
        zs = enumerate_box_integers(SPEC1, box)[:, 0]
        exact = 0.5 * (np.abs(zs[None, :] - zs[:, None]) == 2)
        K = assemble(sym, SPEC1, box, n_samples=n_samples)
        assert np.max(np.abs(K.entries - exact)) <= 1e-15


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
    quad = assemble(values_only(sym), sym.spec, box).entries
    assert np.max(np.abs(banded - quad)) <= 1e-12 * max(1.0, np.max(np.abs(banded)))


def test_quadrature_assembly_thread_invariance():
    # the thread-pool path of the quadrature assembly, which perfbench's quadrature workload runs
    sym = values_only(decaying_test_symbol(2.0, 1.0, 1.0, LatticeSpec(0.5, 2)))
    box = BoxTruncation(3)
    one = assemble(sym, sym.spec, box, threads=1).entries
    assert np.array_equal(one, assemble(sym, sym.spec, box, threads=4).entries)


def dense_twin(K):
    """The same matrix, stored dense."""
    return KernelMatrix(K.spec, K.box, np.array(K.entries))


CRITERION_SUMS = {
    "sup_entry": sup_entry,
    **{f"schur_l1_lp-{p}": (lambda K, p=p: schur_l1_lp(K, p)) for p in (1.0, 2.0, 3.0)},
    **{f"mixed_lp_sum-{p}": (lambda K, p=p: mixed_lp_sum(K, p)) for p in (1.5, 2.0, 3.0)},
    **{f"nuclear_sum-{r}-{p2}": (lambda K, r=r, p2=p2: nuclear_sum(K, r, p2))
       for r in (0.5, 1.0) for p2 in (1.0, 2.0, 3.0)},
}


@pytest.mark.parametrize("family, dim", [(family, dim) for family in [*FAMILIES, "zero"]
                                         for dim in (1, 2, 3)
                                         if family != "difference" or dim == 1])
@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_band_sums_equal_dense_sums(family, dim, hbar):
    # A dense row is summed pairwise.  2-d radii 2 and 6 give strides 5 and 13,
    # where that order adds the decaying band's two outer nonzeros first;
    # 1-d radius 70 and 3-d radii 3 and 4 give rows longer than one 128-element
    # block; radius 4 (729 points) is cut three levels deep.
    spec = LatticeSpec(hbar, dim)
    sym = constant_symbol(0.0, spec) if family == "zero" else FAMILIES[family](spec)
    for radius in {1: (70,), 2: (2, 6), 3: (3, 4)}[dim]:
        K = assemble(sym, spec, BoxTruncation(radius))
        D = dense_twin(K)
        for name, read in CRITERION_SUMS.items():
            assert read(K) == read(D), (name, radius)
        for p in (1.0, 1.5, 2.0, 3.0, np.inf):
            for axis in (0, 1):
                np.testing.assert_array_equal(kernel.power_sums(K, p, axis),
                                              kernel.power_sums(D, p, axis))


def test_pairwise_row_sums_match_numpy():
    # 10007 and 65537 are cut 7 and up to 10 levels deep.  Besides sparse rows: a
    # dense row, and a row whose nonzeros flank every multiple of 8, where spans are cut.
    rng = np.random.default_rng(1)
    for size in (1, 7, 8, 9, 127, 128, 129, 136, 300, 1031, 4001, 10007, 65537):
        a = np.zeros((min(size, 12), size))
        for row in a:
            k = int(rng.integers(0, min(size, 30) + 1))
            row[rng.choice(size, k, replace=False)] = (rng.random(k)
                                                       * 10.0 ** rng.integers(-8, 8, size=k))
        b = rng.random((2, size)) * 10.0 ** rng.integers(-8, 8, size=(2, size))
        b[1, (np.arange(size) + 1) % 8 > 1] = 0.0
        for m in (a, b[:size]):
            rows, cols = np.nonzero(m)
            sums = kernel._pairwise_row_sums(rows, cols, m[rows, cols], size)
            np.testing.assert_array_equal(sums[:len(m)], np.sum(m, axis=1), err_msg=str(size))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_triplets_in_nonzero_order(dim):
    spec = LatticeSpec(0.5, dim)
    for sym in builtin_families(spec) + [decaying_test_symbol(3.0, 2.0, 0.0, spec)]:
        K = assemble(sym, spec, BoxTruncation(2))
        rows, cols, values = K._triplets
        r, c = np.nonzero(K.entries)
        np.testing.assert_array_equal(rows, r)
        np.testing.assert_array_equal(cols, c)
        np.testing.assert_array_equal(values, K.entries[r, c])
        assert values.dtype == K.entries.dtype


def test_csv_export_same_bytes_from_either_storage(tmp_path):
    # 81 rows: the dense export gathers them in two blocks
    spec = LatticeSpec(0.5, 2)
    for sym in builtin_families(spec):
        K = assemble(sym, spec, BoxTruncation(4))
        write_csv(K, tmp_path / "triplets.csv")
        write_csv(dense_twin(K), tmp_path / "dense.csv")
        assert (tmp_path / "triplets.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


def test_dense_csv_export_memory_stays_flat(tmp_path):
    # a quarter of the entries nonzero: gathering every nonzero at once
    # (32 bytes each) would take twice the bound
    rng = np.random.default_rng(7)
    box = BoxTruncation(300)
    size = box.size(1)
    M = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    K = KernelMatrix(SPEC1, box, M * (rng.random(size=(size, size)) < 0.25))
    tracemalloc.start()
    try:
        write_csv(K, tmp_path / "k.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K.entries.nbytes / 4
