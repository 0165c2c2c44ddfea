import dataclasses
import hashlib
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_pdo.fourier import coefficient_table, toroidal_coefficient
from lattice_pdo.lattice import BoxTruncation, LatticeSpec, enumerate_box_integers, index_of
from lattice_pdo import _util, fourier, kernel
from lattice_pdo.kernel import (KernelMatrix, apply, assemble, hermitian_check,
                                hermitize, read_binary, split_diagonal,
                                write_binary, write_csv)
from lattice_pdo.criteria import mixed_lp_sum, nuclear_sum, schur_l1_lp, sup_entry
from lattice_pdo.schrodinger import neumann_truncation
from lattice_pdo.spectral import diagonal_approximation, eigendecompose_hermitian, residue_norm
from lattice_pdo.symbols import (NonFiniteError, Symbol, SymbolOrder, constant_symbol,
                                 decaying_test_symbol, difference_symbol, multiplication_symbol,
                                 polynomial_potential, quadrature_only,
                                 schrodinger_symbol, symbol_from_matrix)

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


@pytest.mark.parametrize("read, checks", [
    (eigendecompose_hermitian, 1), (lambda a: eigendecompose_hermitian(a, True), 1),
    (residue_norm, 2), (lambda a: residue_norm(a + 1j * np.triu(a, 1)), 2),
], ids=["eigenvalues", "eigenvectors", "residue_norm", "residue_norm_svd"])
def test_a_plain_array_is_read_once(monkeypatch, read, checks):
    # a plain array is stored once, as a KernelMatrix with no lattice, and checked finite
    # once; residue_norm checks one more matrix, the residue split from it
    calls = []
    isfinite = np.isfinite

    def counted(*args, **kwargs):
        calls.append(args)
        return isfinite(*args, **kwargs)

    a = np.diag(np.arange(40.0)) + np.eye(40, k=1) + np.eye(40, k=-1)
    monkeypatch.setattr(np, "isfinite", counted)
    read(a)
    assert len(calls) == checks


@pytest.mark.parametrize("read", [
    hermitian_check, eigendecompose_hermitian, residue_norm, sup_entry,
    lambda a: schur_l1_lp(a, 2.0), lambda a: mixed_lp_sum(a, 2.0),
    lambda a: nuclear_sum(a, 1.0, 2.0),
], ids=["hermitian_check", "eigendecompose_hermitian", "residue_norm", "sup_entry",
        "schur_l1_lp", "mixed_lp_sum", "nuclear_sum"])
def test_plain_entries_must_be_square(read):
    # one reader serves the checks, the eigensolver and the criterion sums: a plain
    # array is refused unless square and finite, as a KernelMatrix is
    read(np.eye(3))
    read([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="square"):
        read(np.ones((2, 3)))
    for bad in (np.nan, np.inf, -np.inf, complex(1.0, np.inf)):
        with pytest.raises(NonFiniteError, match=r"^matrix entry is not finite at "
                                                 r"\(row, col\) = \(0, 1\): "):
            read([[1, bad], [bad, 1]])


def test_roundtrip_random_kernels():
    rng = np.random.default_rng(3)
    box = BoxTruncation(2)
    for _ in range(20):
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        K = KernelMatrix(SPEC1, box, M)
        K2 = assemble(symbol_from_matrix(K), SPEC1, box)
        assert np.array_equal(K2.entries, K.entries)


@pytest.mark.parametrize("dim, radius", [(1, 3), (2, 2), (3, 1)])
def test_series_read_of_a_real_matrix_is_real(dim, radius):
    # the symbol of a float64 K reads K back as float64, bit for bit; on a wider box
    # the rows and columns beyond K's box read 0
    spec = LatticeSpec(0.5, dim)
    box = BoxTruncation(radius)
    size = box.size(dim)
    K = KernelMatrix(spec, box, np.random.default_rng(dim).normal(size=(size, size)))
    sym = symbol_from_matrix(K)
    K2 = assemble(sym, spec, box)
    assert K2.entries.dtype == np.float64
    assert np.array_equal(K2.entries, K.entries)
    wide = assemble(sym, spec, BoxTruncation(radius + 1))
    inner = [index_of(spec, wide.box, k) for k in K.points()]
    want = np.zeros((wide.size, wide.size))
    want[np.ix_(inner, inner)] = K.entries
    assert wide.entries.dtype == np.float64
    assert np.array_equal(wide.entries, want)


def test_kernel_rejects_nonfinite():
    for dtype in (complex, float):
        for bad in (np.nan, np.inf):
            M = np.eye(3, dtype=dtype)
            M[0, 0] = bad
            with pytest.raises(NonFiniteError, match=r"^kernel entry is not finite at k = "
                                                     r"\[-1.0\], \|k\| = 1.0: \(?(nan|inf)"):
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


def no_dense(*args):
    raise AssertionError("a dense matrix was built")


def bin_kernels():
    # the console-script 2-d export (one block of rows), the same at R=8 (289 rows: two
    # blocks of 226 and 63 rows), and a complex kernel whose real or imaginary part, or
    # both, are 0 at some entries (401 rows: blocks of 163, 163 and 75), with the digests
    # of their files
    spec = LatticeSpec(0.5, 2)
    i = np.arange(401 * 401).reshape(401, 401)
    return [
        (assemble(decaying_test_symbol(3.0, 1.0, 1.0, spec), spec, BoxTruncation(6)),
         "1a74887a553772571d582a5f772327c2842391f22638a8502ccc28d3858f684a"),
        (assemble(decaying_test_symbol(3.0, 1.0, 1.0, spec), spec, BoxTruncation(8)),
         "8dfb0bb1c5dccc7c3f1a4a739234f9654b41d01cc8635771324d742d5ec6a7ad"),
        (KernelMatrix(LatticeSpec(1.0, 1), BoxTruncation(200), (i % 7 - 3) + 1j * (i % 5 - 2)),
         "74aa18c0bc87a7fc5796569d449317a0dcc4d40a78ca8e2fee9d8ada92676829"),
    ]


def block_bytes(size):
    """The bytes of one of write_binary's blocks of rows, about 1 MiB."""
    return 16 * size * max(1, 2 ** 20 // (16 * size))


def sized_reads(monkeypatch, limit):
    """Make kernel's `open` give a file whose every read asks for at most ``limit`` bytes.

    Returns the list of the sizes read.
    """
    reads = []

    class SizedReads(io.BufferedReader):
        def read(self, size=-1):
            assert size is not None and 0 <= size <= limit, f"a read of {size} bytes"
            reads.append(size)
            return super().read(size)

    monkeypatch.setattr(kernel, "open", lambda path, mode: SizedReads(io.FileIO(path, mode)),
                        raising=False)
    return reads


def test_binary_export_streams_the_same_bytes(monkeypatch, tmp_path):
    # each block of rows is written from the triplets: the file is the dense matrix's,
    # byte for byte, whole or partial last block, and no dense matrix is built.  Read
    # back one block of rows a read (1, 2 and 3 blocks), it gives the triplets that were
    # written, as complex128, the file's dtype
    monkeypatch.setattr(kernel, "_dense", no_dense)
    kernels = bin_kernels()
    for j, (K, digest) in enumerate(kernels):
        write_binary(K, tmp_path / f"k{j}.bin")
        assert hashlib.sha256((tmp_path / f"k{j}.bin").read_bytes()).hexdigest() == digest
    for j, (K, _) in enumerate(kernels):
        reads = sized_reads(monkeypatch, block_bytes(K.size))
        K2 = read_binary(tmp_path / f"k{j}.bin")
        assert reads[0] == 24 and len(reads) - 1 == j + 1
        for got, want in zip(K2._triplets, K._triplets):
            np.testing.assert_array_equal(got, want)
        assert K2._triplets[2].dtype == np.complex128


def test_binary_read_is_refused_before_a_second_block(monkeypatch, tmp_path):
    # the running nonzero count is preflighted after each block is read, before its
    # nonzeros are kept; a file of the wrong length is refused after the header alone
    K = bin_kernels()[2][0]  # 401 rows, three blocks
    write_binary(K, tmp_path / "k.bin")
    reads = sized_reads(monkeypatch, block_bytes(K.size))

    def refuse(need, what):
        raise ValueError(f"{what} needs {need} bytes, more than the physical memory")

    monkeypatch.setattr(kernel, "check_fits", refuse)
    with pytest.raises(ValueError, match=r"^\d+ nonzeros of a 401x401 matrix needs"):
        read_binary(tmp_path / "k.bin")
    assert reads == [24, block_bytes(401)]
    reads.clear()
    with open(tmp_path / "k.bin", "ab") as fh:
        fh.write(bytes(16))
    with pytest.raises(ValueError, match=f"holds {24 + 16 * 401 ** 2 + 16} bytes; a 401x401 "
                                         f"matrix takes {24 + 16 * 401 ** 2}$"):
        read_binary(tmp_path / "k.bin")
    assert reads == [24]


def test_binary_of_the_wrong_length_is_refused(tmp_path):
    # truncated mid-row, truncated at a row boundary, or one entry too many: a reader by
    # blocks of rows takes each of them silently unless the file's length is checked
    write_binary(bin_kernels()[1][0], tmp_path / "k.bin")
    data = (tmp_path / "k.bin").read_bytes()
    for bad in (data[:-16 * 100], data[:-16 * 289], data + bytes(16)):
        (tmp_path / "bad.bin").write_bytes(bad)
        with pytest.raises(ValueError):
            read_binary(tmp_path / "bad.bin")


@pytest.mark.parametrize("header,message", [
    (b"\x01\x00", "holds 2 bytes; the header takes 24$"),
    (struct.pack("<qdq", 3_000_000, 1.0, 1), "holds 24 bytes; a box of 3\\^3000000 points"),
    (struct.pack("<qdq", 1, math.inf, 0) + bytes(16), "positive and finite, got inf"),
    (struct.pack("<qdq", 2 ** 40, 1.0, 0) + bytes(16),
     "^the integer coordinates of a 1-point box in 1099511627776-d needs 8796093022208 bytes"),
], ids=["short", "3e6-dims", "inf-spacing", "2^40-dims"])
def test_binary_header_is_refused_in_bounded_time(tmp_path, time_limit, header, message):
    # a short header, a box of more points than the file has bytes (computed, it is
    # a 1.4-million-digit integer), a spacing that is no lattice's, or a one-point box
    # in 2^40 dimensions, whose coordinates `points` could not enumerate
    (tmp_path / "bad.bin").write_bytes(header)
    with time_limit(1), pytest.raises(ValueError, match=message):
        read_binary(tmp_path / "bad.bin")


def test_a_matrix_with_no_lattice_is_refused_where_a_lattice_is_needed(tmp_path):
    K = KernelMatrix(None, None, np.eye(3))
    for needs_lattice in (lambda: write_binary(K, tmp_path / "k.bin"),
                          lambda: symbol_from_matrix(K),
                          lambda: diagonal_approximation(K, SymbolOrder(-4.0)),
                          lambda: neumann_truncation(K)):
        with pytest.raises(ValueError, match="3x3 matrix has no lattice"):
            needs_lattice()
    assert not (tmp_path / "k.bin").exists()


@pytest.mark.parametrize("other", [LatticeSpec(2e-20, 1), LatticeSpec(np.nextafter(1e-20, 1), 1),
                                   LatticeSpec(1e-20, 2)], ids=["2e-20", "next-float", "2-d"])
def test_assemble_refuses_a_symbol_of_another_lattice(other):
    # within 1e-12 of each other, 1e-20 and 2e-20 are still two lattices: the symbol's
    # |k| on one would be the diagonal of a box of the other
    with pytest.raises(ValueError, match="does not match the symbol's lattice"):
        assemble(multiplication_symbol(1.0, LatticeSpec(1e-20, 1)), other, BoxTruncation(2))


def test_binary_export_is_refused_before_any_byte(monkeypatch, tmp_path):
    def refuse(shape):
        raise ValueError(f"a dense {shape} matrix does not fit")

    monkeypatch.setattr(kernel, "check_dense_fits", refuse)
    with pytest.raises(ValueError, match="does not fit"):
        write_binary(bin_kernels()[0][0], tmp_path / "k.bin")
    assert not (tmp_path / "k.bin").exists()


def test_matrix_symbol_roundtrip_builds_no_dense_matrix(monkeypatch):
    # each row's series is gathered from its triplets, and reassembly stores them back
    rng = np.random.default_rng(11)
    spec, box = LatticeSpec(0.5, 2), BoxTruncation(2)
    M = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
    M[rng.random((25, 25)) < 0.5] = 0
    M[7] = 0  # a row with no triplet
    for a in (M, M.real):
        K = KernelMatrix(spec, box, a)
        monkeypatch.setattr(kernel, "_dense", no_dense)
        K2 = assemble(symbol_from_matrix(K), spec, box)
        monkeypatch.undo()
        for got, want in zip(K2._triplets, K._triplets):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def per_row_series_reader(K):
    """coefficients(z_rows, z_offsets) of symbol_from_matrix(K), read one row at a time.

    The reader the batched one replaced, kept as its reference: row z's tensor is
    found by the tuple z (a row outside the box is one zero), and each row's
    offsets are gathered by their index in it, 0 outside it.
    """
    spec, box = K.lattice()
    rows, cols, values = K._triplets
    index = {z: i for i, z in enumerate(map(tuple, enumerate_box_integers(spec, box).tolist()))}
    starts = np.searchsorted(rows, np.arange(K.size + 1))
    outside = np.zeros((1,) * spec.dim), np.zeros(spec.dim, dtype=np.int64)

    def row_series(z):
        if (i := index.get(tuple(z.tolist()))) is None:
            return outside
        coeffs = np.zeros(K.size, dtype=values.dtype)
        coeffs[cols[starts[i]:starts[i + 1]]] = values[starts[i]:starts[i + 1]]
        return coeffs.reshape((2 * box.radius + 1,) * spec.dim), -box.radius - z

    def gather(z, z_offsets):
        coeffs, low = row_series(z)
        at = z_offsets - low
        inside = ((at >= 0) & (at < coeffs.shape)).all(1)
        return np.where(inside, coeffs[tuple(np.where(inside[:, None], at, 0).T)], 0)

    return lambda z_rows, z_offsets: np.array([gather(z, z_offsets) for z in z_rows])


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("dim, radius", [(1, 3), (2, 2), (3, 1)])
def test_batched_series_read_keeps_every_bit_of_the_per_row_read(dim, radius, complex_values):
    # assemble (on a narrower, the same and a wider box), coefficient_table (rows one
    # beyond the matrix's box, offsets one beyond its tensors) and toroidal_coefficient
    # (rows and offsets inside and outside) give the per-row reader's values and dtype
    rng = np.random.default_rng(10 * dim + complex_values)
    spec, box = LatticeSpec(0.5, dim), BoxTruncation(radius)
    size = box.size(dim)
    a = rng.normal(size=(size, size)) + (1j * rng.normal(size=(size, size)) if complex_values else 0)
    a[rng.random((size, size)) < 0.3] = 0
    a[size // 3] = 0  # a row with no triplet
    K = KernelMatrix(spec, box, a)
    sym, reference = symbol_from_matrix(K), per_row_series_reader(K)
    for r in (radius - 1, radius, radius + 1):
        at = BoxTruncation(r)
        zs = enumerate_box_integers(spec, at)
        want = KernelMatrix(spec, at, np.array([reference(zs[i:i + 1], zs - zs[i])[0]
                                                for i in range(len(zs))]))
        got = assemble(sym, spec, at)
        assert got.provenance["method"] == "series"
        for g, w in zip(got._triplets, want._triplets):
            assert same_bits(g, w), r
    k_box = BoxTruncation(radius + 1)
    table = coefficient_table(sym, k_box, 2 * radius + 1)
    k_ints = enumerate_box_integers(spec, k_box)
    m_ints = enumerate_box_integers(spec, BoxTruncation(2 * radius + 1))
    assert same_bits(table.values, reference(k_ints, m_ints))
    for zk in k_ints[::max(1, len(k_ints) // 7)]:
        for zm in m_ints[::max(1, len(m_ints) // 11)]:
            got = toroidal_coefficient(sym, spec.hbar * zk, spec.hbar * zm)
            assert got == complex(reference(zk[None], zm[None])[0, 0]), (zk, zm)


def test_series_rows_with_their_own_lowest_frequencies_are_placed_exactly():
    # a series whose rows start at different frequencies (each row of the matrix's
    # tensor padded with zeros, 0, 1 or 2 below it on each axis) is gathered by each
    # row's own lowest frequencies, and assembles to the matrix symbol's triplets on a
    # narrower, the same and a wider box
    spec, box = LatticeSpec(0.5, 2), BoxTruncation(2)
    rng = np.random.default_rng(7)
    sym = symbol_from_matrix(KernelMatrix(spec, box, rng.normal(size=(25, 25))))

    def padded(z_rows):
        coeffs, low = sym.row_series(z_rows)
        pad = np.sum(z_rows, axis=1) % 3
        out = np.zeros((len(z_rows), 7, 7))
        for p in range(3):
            out[pad == p, p:p + 5, p:p + 5] = coeffs[pad == p]
        return out, low - pad[:, None]

    for r in (1, 2, 3):
        got = assemble(dataclasses.replace(sym, row_series=padded), spec, BoxTruncation(r))
        for g, w in zip(got._triplets, assemble(sym, spec, BoxTruncation(r))._triplets):
            assert same_bits(g, w), r


def test_series_assembly_reads_blocks_of_rows_in_bounded_memory():
    # a 2-d R=20 matrix symbol, real and complex, is read with one row_series call a
    # block of ~1 MiB of rows (after one call with no rows, which gives the tensor
    # shape), and builds no dense array of the box: its peak is below the dense array
    # plus the stored triplets plus one block, and below a quarter of the dense array
    spec, box = LatticeSpec(0.5, 2), BoxTruncation(20)
    size, step = box.size(2), _util.rows_per_block(box.size(2))
    real = assemble(decaying_test_symbol(3.0, 1.0, 1.0, spec), spec, box)
    rows, cols, values = real._triplets
    for K in (real, KernelMatrix._from_flat(spec, box, size, rows * size + cols,
                                            values * (1 + 0.5j), None)):
        sym = symbol_from_matrix(K)
        calls = []

        def counting(z_rows, read=sym.row_series):
            calls.append(z_rows.copy())
            return read(z_rows)

        got = assemble(dataclasses.replace(sym, row_series=counting), spec, box)
        assert len(calls) == 1 + math.ceil(size / step) < size and len(calls[0]) == 0
        np.testing.assert_array_equal(np.concatenate(calls), enumerate_box_integers(spec, box))
        assert all(len(z) <= step for z in calls)
        for g, w in zip(got._triplets, K._triplets):
            assert same_bits(g, w)
        dense = size * size * K._triplets[2].itemsize
        bound = dense + kernel.TRIPLET_BYTES * len(K._triplets[2]) + 16 * size * step
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assemble(sym, spec, box)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < bound and peak < dense / 4, (peak, dense, bound)


def test_series_reads_hold_one_block_of_tensors_however_few_outputs():
    # a matrix symbol's row tensors are as large as its box, however few outputs a read
    # gives: a coefficient table of a 3-d R=6 matrix symbol at frequency radius 1 (27
    # offsets a row), and an assembly of a 2-d R=40 one on an R=8 box, each read ~1 MiB
    # of tensors a call, so each peaks below its output twice plus 4 MiB, where one
    # call for all its rows would hold more than that in tensors alone
    def traced(read):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = read()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    spec, box = LatticeSpec(1.0, 3), BoxTruncation(6)
    K = assemble(decaying_test_symbol(3.0, 1.0, 1.0, spec), spec, box)
    sym = symbol_from_matrix(K)
    table, peak = traced(lambda: coefficient_table(sym, box, 1).values)
    assert table.shape == (K.size, 27)
    assert peak < 2 * table.nbytes + 4 * 2 ** 20 < K.size * K.size * 8, peak
    spec = LatticeSpec(1.0, 2)
    K = assemble(decaying_test_symbol(3.0, 1.0, 1.0, spec), spec, BoxTruncation(40))
    sym, narrow = symbol_from_matrix(K), BoxTruncation(8)
    got, peak = traced(lambda: assemble(sym, spec, narrow))
    stored = kernel.TRIPLET_BYTES * len(got._triplets[2])
    assert peak < 2 * stored + 4 * 2 ** 20 < narrow.size(2) * K.size * 8, peak
    want = assemble(decaying_test_symbol(3.0, 1.0, 1.0, spec), spec, narrow)
    for g, w in zip(got._triplets, want._triplets):
        assert same_bits(g, w)


def test_series_scatter_peaks_within_its_preflight(monkeypatch):
    # decaying(3, 1, 1) on the 2-d R=40 box (one block of 6561 rows, 3 nonzeros a row)
    # and a dense random complex matrix symbol on the 2-d R=12 box (7 blocks): the peak
    # of each assembly, after a warm-up call, is at most the largest `check_fits` need of
    # its kept nonzeros, which it records as the blocks come
    spec = LatticeSpec(1.0, 2)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(625, 625)) + 1j * rng.normal(size=(625, 625))
    cases = [(decaying_test_symbol(3.0, 1.0, 1.0, spec), BoxTruncation(40)),
             (symbol_from_matrix(KernelMatrix(spec, BoxTruncation(12), a)), BoxTruncation(12))]
    for sym, box in cases:
        needs = []
        monkeypatch.setattr(kernel, "check_fits", lambda need, what: needs.append((need, what)))
        assemble(sym, spec, box)
        needs.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            K = assemble(sym, spec, box)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = [need for need, what in needs if "nonzeros" in what]
        nnz = len(K._triplets[2])
        assert kept and needs[-1][1] == f"{nnz} nonzeros of a {K.size}x{K.size} matrix"
        assert peak <= max(kept), (sym.name, peak, max(kept))


def test_a_matrix_symbol_assembles_without_the_dense_check(monkeypatch):
    # a finite series is preflighted by the tensor entries it reaches, never as a dense
    # array: with the dense check refusing everything, a matrix symbol still reassembles
    spec, box = LatticeSpec(0.5, 2), BoxTruncation(3)
    rng = np.random.default_rng(6)
    K = KernelMatrix(spec, box, rng.normal(size=(49, 49)) * (rng.random((49, 49)) < 0.4))

    def refuse(shape):
        raise AssertionError(f"a dense {shape} matrix was checked")

    monkeypatch.setattr(kernel, "check_dense_fits", refuse)
    got = assemble(symbol_from_matrix(K), spec, box)
    assert got.provenance["method"] == "series"
    for g, w in zip(got._triplets, K._triplets):
        assert same_bits(g, w)
    with pytest.raises(AssertionError, match="dense"):
        assemble(quadrature_only(symbol_from_matrix(K)), spec, box)


def test_apply_adds_each_row_in_column_order(monkeypatch):
    # the triplet product: row k's terms A(k, m) v(m) added from 0 in increasing m
    rng = np.random.default_rng(12)
    a = rng.normal(size=(9, 9)) * 10.0 ** rng.integers(-8, 8, size=(9, 9))
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    K = KernelMatrix(SPEC1, BoxTruncation(4), a * (rng.random((9, 9)) < 0.7))
    want = np.zeros(9, dtype=complex)
    for k, m, value in zip(*K._triplets):
        want[k] += value * v[m]
    monkeypatch.setattr(kernel, "_dense", no_dense)
    assert np.array_equal(apply(K, v), want)


def test_roundtrip_2d_quadrature_path():
    rng = np.random.default_rng(9)
    spec2 = LatticeSpec(1.0, 2)
    box = BoxTruncation(1)
    M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    K = KernelMatrix(spec2, box, M)
    K2 = assemble(symbol_from_matrix(K), spec2, box)
    assert np.array_equal(K2.entries, K.entries)


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
    for sym in families + [quadrature_only(sym) for sym in families]:
        K = assemble(sym, spec, box)
        table = coefficient_table(sym, box, m_box.radius)
        for i, zk in enumerate(zs):
            for j, zm in enumerate(zs):
                col = index_of(spec, m_box, hbar * (zm - zk))
                single = toroidal_coefficient(sym, hbar * zk, hbar * (zm - zk))
                assert K.entries[i, j] == table.values[i, col] == single, (sym.name, i, j)


@pytest.mark.parametrize("dim, radius, n", [(1, 15, 64), (1, 16, 128), (1, 31, 128),
                                            (1, 40, 256), (2, 16, 128)])
def test_quadrature_reassembles_a_matrix_at_any_radius(dim, radius, n):
    # the symbol of a matrix is read from its series, exactly, at every radius.  Given
    # by its values alone, its row -R reads offsets m - k up to 2R per axis: 64
    # points cover them up to R = 15, and the grid doubles past that rather than
    # fold one offset onto another
    spec = LatticeSpec(1.0, dim)
    box = BoxTruncation(radius)
    K = KernelMatrix(spec, box, np.random.default_rng(11).normal(size=(box.size(dim),) * 2))
    sym = symbol_from_matrix(K)
    K2 = assemble(sym, spec, box)
    assert K2.provenance["method"] == "series"
    assert np.array_equal(K2.entries, K.entries)
    zs = enumerate_box_integers(spec, box)
    assert fourier.grid_size(int(np.max(np.abs(zs - zs[0])))) == n
    corner = fourier.coefficients(quadrature_only(sym), zs[:1], zs - zs[0])[0]
    assert np.max(np.abs(corner - K.entries[0])) <= 1e-10


@pytest.mark.parametrize("dim, radius", [(1, 2), (1, 20), (2, 3), (3, 1)])
def test_matrix_symbol_reassembles_exactly_without_fft(monkeypatch, dim, radius):
    # a matrix symbol's rows are its series: assembly reads them and runs no FFT
    def no_fft(*args, **kwargs):
        raise AssertionError("FFT quadrature ran")

    monkeypatch.setattr(fourier, "spectrum_of_row", no_fft)
    monkeypatch.setattr(np.fft, "fftn", no_fft)
    rng = np.random.default_rng(dim + radius)
    for hbar in (1.0, 0.5):
        spec, box = LatticeSpec(hbar, dim), BoxTruncation(radius)
        shape = (box.size(dim),) * 2
        K = KernelMatrix(spec, box, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        K2 = assemble(symbol_from_matrix(K), spec, box)
        assert np.array_equal(K2.entries, K.entries)
        # a box's rows outside the matrix's box have no series terms: they read 0
        wider = assemble(symbol_from_matrix(K), spec, BoxTruncation(radius + 1))
        inner = np.flatnonzero(np.all(np.abs(wider.points()) <= hbar * radius, axis=1))
        assert np.array_equal(wider.entries[np.ix_(inner, inner)], K.entries)
        assert np.count_nonzero(wider.entries) == np.count_nonzero(K.entries)


def test_quadrature_assembly_never_aliases_a_trigonometric_polynomial():
    # cos(4 pi theta) has degree 2: the operator is 1/2 on the offsets m - k = +-2
    # and 0 elsewhere.  Row -R reads offsets up to 2R, so at R = 31 the offset 62
    # would share bin -2 of 64 samples and read 1/2 where the operator has 0: the
    # grid has 64 points up to R = 15 and doubles past that
    sym = Symbol(SPEC1, SymbolOrder(0.0), lambda k, theta: np.cos(4 * np.pi * theta[..., 0]),
                 name="cos(4 pi theta)")
    for radius, n in ((15, 64), (16, 128), (31, 128), (40, 256)):
        box = BoxTruncation(radius)
        zs = enumerate_box_integers(SPEC1, box)[:, 0]
        exact = 0.5 * (np.abs(zs[None, :] - zs[:, None]) == 2)
        K = assemble(sym, SPEC1, box)
        assert K.provenance["method"] == f"quadrature(n={n})"
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
    quad = assemble(quadrature_only(sym), sym.spec, box).entries
    assert np.max(np.abs(banded - quad)) <= 1e-12 * max(1.0, np.max(np.abs(banded)))


def test_quadrature_assembly_thread_invariance():
    # the thread-pool path of the quadrature assembly, which perfbench's quadrature workload runs
    sym = quadrature_only(decaying_test_symbol(2.0, 1.0, 1.0, LatticeSpec(0.5, 2)))
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
    # Radii against a dense row summed in numpy's pairwise order: 2-d radii 2
    # and 6 give strides 5 and 13, where that order adds the decaying band's two
    # outer nonzeros first; 1-d radius 70 and 3-d radii 3 and 4 give rows longer
    # than one 128-element block; radius 4 (729 points) is cut three levels deep.
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


def in_order_sums(a, p, axis):
    """Per column (axis 0) or row (axis 1), |v|^p over the row-major nonzeros v
    of ``a``, added one by one in that order from 0.0; for p = inf, their max.

    The lines run side by side: step j adds each line's j-th nonzero, or an
    exact 0.0 past its last one.
    """
    rows, cols = np.nonzero(a)
    w = np.abs(a[rows, cols])
    line = cols if axis == 0 else rows
    order = np.argsort(line, kind="stable")
    counts = np.bincount(line, minlength=len(a))
    step = np.arange(len(line)) - np.repeat(np.cumsum(counts) - counts, counts)
    terms = np.zeros((len(a), max(counts, default=0)))
    terms[line[order], step] = w[order] if p == np.inf else w[order] ** p
    if p == np.inf:
        return np.max(terms, axis=1, initial=0.0)
    out = np.zeros(len(a))
    for column in terms.T:
        out = out + column
    return out


def test_power_sums_add_the_row_major_nonzeros_in_order():
    # Both storages, and plain arrays sparse and full: a sum of more than a
    # few terms in numpy's pairwise order differs in its last bits
    rng = np.random.default_rng(1)
    matrices = []
    for dim, radius in ((1, 6), (2, 3), (3, 1)):
        spec = LatticeSpec(0.5, dim)
        for sym in builtin_families(spec):
            K = assemble(sym, spec, BoxTruncation(radius))
            matrices += [K, dense_twin(K)]
    for size in (1, 7, 9, 129, 1001):
        full = rng.random((size, size)) * 10.0 ** rng.integers(-3, 3, size=(size, size))
        full_complex = full * np.exp(2j * np.pi * rng.random((size, size)))
        for a in (full, full_complex):
            matrices += [a, a * (rng.random((size, size)) < 0.05)]
    for K in matrices:
        a = kernel.as_kernel(K).entries
        for p in (1.0, 1.5, 2.0, 3.0, np.inf):
            for axis in (0, 1):
                np.testing.assert_array_equal(kernel.power_sums(K, p, axis),
                                              in_order_sums(a, p, axis),
                                              err_msg=f"{len(a)} {p} {axis}")


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


def hermitian_cases():
    """Square arrays for the triplet Hermitian path: real and complex, full and with
    structural zeros, all zero, and pairs whose Hermitian part cancels to exactly 0."""
    rng = np.random.default_rng(21)
    cases = []
    for size in (1, 3, 9, 25):
        real = rng.normal(size=(size, size))
        full = real + 1j * rng.normal(size=(size, size))
        mask = rng.random((size, size)) < 0.3
        cases += [real, full, real * mask, full * mask, np.triu(full), np.zeros((size, size))]
    cases.append(np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
    cases.append(np.array([[0.0, 1j, 0.0], [1j, 0.0, 2.0], [0.0, 0.0, 0.0]]))
    return cases


@pytest.mark.parametrize("a", hermitian_cases())
def test_triplet_hermitian_path_matches_dense(a):
    # the stored value at each transposed position, or 0 where none is stored, gives
    # the dense asymmetry and Hermitian part bit for bit, and an exact 0 is not stored
    K = KernelMatrix(SPEC1, BoxTruncation((len(a) - 1) // 2), a)
    A = K.entries
    assert K.asymmetry == float(np.max(np.abs(A - A.conj().T)))
    assert hermitian_check(K) == hermitian_check(A)
    H = hermitize(K)
    want = 0.5 * (A + A.conj().T)
    assert H.entries.dtype == want.dtype
    assert np.array_equal(H.entries, want)
    rows, cols, values = H._triplets
    assert np.array_equal(np.stack([rows, cols]), np.stack(np.nonzero(want)))
    assert np.all(values != 0)
    assert H.asymmetry == 0.0


def test_hermitize_drops_a_cancelled_pair():
    # 1 against -1, and i against i, cancel to exactly 0 at (0, 1) and (1, 0)
    real, cplx = hermitian_cases()[-2:]
    for a, (rows, cols) in ((real, ([2], [2])), (cplx, ([1, 2], [2, 1]))):
        H = hermitize(KernelMatrix(SPEC1, BoxTruncation(1), a))
        np.testing.assert_array_equal(H._triplets[0], rows)
        np.testing.assert_array_equal(H._triplets[1], cols)
    zero = hermitize(KernelMatrix(SPEC1, BoxTruncation(1), np.zeros((3, 3))))
    assert all(len(part) == 0 for part in zero._triplets)
    assert zero.asymmetry == 0.0


@pytest.mark.parametrize("lower", [False, True])
def test_hermitize_peaks_within_its_preflight(monkeypatch, lower):
    # a random complex 2-d R=8 kernel, full (its transposes add no position) or lower
    # triangular (they double the positions, the preflight's worst case); bound fixed
    # before the first run: the `check_fits` need itself
    spec, box = LatticeSpec(1.0, 2), BoxTruncation(8)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(289, 289)) + 1j * rng.normal(size=(289, 289))
    K = KernelMatrix(spec, box, np.tril(a) if lower else a)
    needs = []
    monkeypatch.setattr(kernel, "check_fits",
                        lambda need, what: needs.append(need) or _util.check_fits(need, what))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        H = hermitize(K)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(H._triplets[0]) == 289 ** 2
    assert peak <= needs[0], (peak, needs)


def test_triplet_readers_build_no_dense_matrix(monkeypatch, tmp_path):
    from lattice_pdo.schrodinger import PotentialSpec, build_hamiltonian, neumann_truncation

    def no_dense(*args):
        raise AssertionError("a dense matrix was built")

    monkeypatch.setattr(kernel, "_dense", no_dense)
    spec = LatticeSpec(0.5, 2)
    K = assemble(decaying_test_symbol(3.0, 2.0, 1.0, spec), spec, BoxTruncation(3))
    assert not hermitian_check(K)[0]
    assert hermitian_check(hermitize(K)) == (True, 0.0)
    split = split_diagonal(K)
    assert len(split.diagonal) == K.size
    H = build_hamiltonian(spec, PotentialSpec.anharmonic(1.0, 1, 2), BoxTruncation(3), 0.25)
    N = neumann_truncation(H)
    for M in (K, split.residue, N):
        for p in (1.0, 2.0, np.inf):
            for axis in (0, 1):
                kernel.power_sums(M, p, axis)
    write_csv(K, tmp_path / "k.csv")


def test_repeated_positions_add_in_the_order_given():
    # the values at one position are added as np.add.reduceat adds a run, in the order
    # given: 1.0 + (1e16 - 1e16) = 1.0 at position 1, and 1e16 + (1.0 - 1e16) = 0 at
    # position 2, not stored; a cancelling pair is not stored either, and a lone value
    # keeps its bits, a -0.0 imaginary part too
    for dtype in (float, complex):
        flat = np.array([8, 1, 2, 1, 2, 5, 1, 2, 5, 0])
        values = np.array([0.1, 1.0, 1e16, 1e16, 1.0, 2.5, -1e16, -1e16, -2.5, 3.0], dtype)
        if dtype is complex:
            values[-1] = complex(3.0, -0.0)
        K = KernelMatrix._from_flat(None, None, 3, flat, values, None)
        rows, cols, stored = K._triplets
        assert rows.tolist() == [0, 0, 2] and cols.tolist() == [0, 1, 2]
        assert stored.tobytes() == np.array([values[-1], 1.0, 0.1], dtype).tobytes()


def test_increasing_positions_are_not_sorted(monkeypatch):
    # a dense array's nonzeros and a closed form's table come in increasing positions
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    rng = np.random.default_rng(3)
    spec, box = LatticeSpec(0.5, 2), BoxTruncation(3)
    a = rng.normal(size=(49, 49)) + 1j * rng.normal(size=(49, 49))
    a[rng.random((49, 49)) < 0.5] = 0
    monkeypatch.setattr(np, "argsort", counted)
    K = KernelMatrix(spec, box, a)
    H = assemble(decaying_test_symbol(3.0, 2.0, 1.0, spec), spec, box)
    monkeypatch.undo()
    assert calls == []
    assert np.array_equal(K.entries, a)
    for got, want in zip(H._triplets, KernelMatrix(spec, box, H.entries)._triplets):
        assert got.tobytes() == want.tobytes()


def test_dense_input_preflight_counts_its_nonzeros(monkeypatch):
    # 32 bytes a nonzero, counted and checked before the nonzeros are read
    counted = []
    check_fits = kernel.check_fits

    def counting(need, what):
        counted.append((need, what))
        check_fits(need, what)

    monkeypatch.setattr(kernel, "check_fits", counting)
    a = np.zeros((5, 5))
    a[[0, 1, 3], [4, 1, 0]] = [1.0, -2.0, 0.5]
    a[2, 2] = -0.0  # equal to 0: not counted, not stored
    K = KernelMatrix(SPEC1, BoxTruncation(2), a)
    assert counted == [(3 * kernel.TRIPLET_BYTES, "3 nonzeros of a 5x5 matrix")]
    assert len(K._triplets[2]) == 3

    def refuse(need, what):
        raise ValueError(f"{what} needs {need} bytes, more than the physical memory")

    def no_read(a):
        raise AssertionError("the nonzeros were read")

    monkeypatch.setattr(kernel, "check_fits", refuse)
    monkeypatch.setattr(np, "flatnonzero", no_read)
    with pytest.raises(ValueError, match="3 nonzeros of a 5x5 matrix needs 96 bytes"):
        KernelMatrix(SPEC1, BoxTruncation(2), a)


def dense_reflection_kernel(tilt):
    # every entry of the 2-d R=12 box stored (390 625 triplets), Hermitian and fixed
    # by the reflections of the axes the tilt (a, b) leaves at 0
    spec, box = LatticeSpec(1.0, 2), BoxTruncation(12)
    z = enumerate_box_integers(spec, box).astype(float)
    gap = np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=2)
    return KernelMatrix(spec, box, np.exp(-gap / 100) + np.diag(np.sum(z * z, axis=1) + z @ tilt))


@pytest.mark.parametrize("tilt, blocks", [((0.0, 0.0), 4), ((0.5, 0.0), 2), ((0.5, 0.25), 1)])
def test_reflection_blocks_stay_within_their_preflight(monkeypatch, tilt, blocks):
    # the count of triplets and points, with the largest block `_dense` checks, covers the
    # traced peak of a values-only solve
    K = dense_reflection_kernel(tilt)
    assert len(K._triplets[2]) == 390625 and sum(1 for _ in kernel.reflection_blocks(K)) == blocks
    hermitian_check(K)  # the asymmetry is computed once and kept
    counted, dense = [], []
    check_fits, util_check_fits = kernel.check_fits, _util.check_fits

    def counting(into, check):
        def counted_check(need, what):
            into.append(need)
            check(need, what)
        return counted_check

    monkeypatch.setattr(kernel, "check_fits", counting(counted, check_fits))
    monkeypatch.setattr(_util, "check_fits", counting(dense, util_check_fits))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eigendecompose_hermitian(K)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert counted == [176 * 390625 + (32 * 2 + 80) * 625]
    assert len(dense) == blocks
    assert peak <= counted[0] + max(dense)
    if blocks == 4:  # folded, the count alone covers it
        assert peak <= counted[0]
    if blocks == 1:
        # no axis folds, so the peak is the fold test's, or the one block built straight
        # from the triplets with the keys beside it: the fold test holds the keys, one
        # axis's mirrored keys, their argsort order, one gather of the mirrored keys or
        # of the values (at most 16 bytes) and the bool of its comparison, 41 bytes a
        # triplet at most
        assert peak <= (3 * 8 + 16 + 1) * 390625 + max(dense)


def test_reflection_blocks_preflight_refuses_before_any_temporary(monkeypatch):
    K = dense_reflection_kernel((0.0, 0.0))
    hermitian_check(K)

    def refuse(need, what):
        raise ValueError(f"{what} needs {need} bytes, more than the physical memory")

    monkeypatch.setattr(kernel, "check_fits", refuse)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ValueError, match="^reflection blocks of 390625 triplets needs "
                                             "68840000 bytes"):
            eigendecompose_hermitian(K)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 390625  # less than a byte a triplet
