import tracemalloc
import warnings

import numpy as np
import pytest

from lattice_pdo import fourier
from lattice_pdo.kernel import KernelMatrix, assemble
from lattice_pdo.lattice import BoxTruncation, LatticeSpec, enumerate_box_integers
from lattice_pdo.fourier import (coefficient_table, estimate_decay_constant,
                                 table_to_csv, toroidal_coefficient)
from lattice_pdo.symbols import (NonFiniteError, Symbol, SymbolOrder, constant_symbol,
                                 decaying_test_symbol, difference_symbol, eval_symbol,
                                 multiplication_symbol, polynomial_potential,
                                 quadrature_only, schrodinger_symbol, symbol_from_matrix)

SPEC1 = LatticeSpec(1.0, 1)


def trapezoid_oracle(sym, k, freq, n=64):
    """Independent quadrature: plain trapezoid sum on the unit torus (1-d)."""
    ts = np.arange(n) / n
    vals = np.array([eval_symbol(sym, k, t) for t in ts])
    return np.sum(vals * np.exp(-2j * np.pi * freq * ts)) / n


def test_difference_coefficients():
    sym = difference_symbol()
    assert toroidal_coefficient(sym, 0, 1) == pytest.approx(1.0)
    assert toroidal_coefficient(sym, 0, 0) == pytest.approx(-1.0)
    assert toroidal_coefficient(sym, 0, 2) == pytest.approx(0.0)


def test_constant_orthogonality():
    sym = constant_symbol(2.5 - 1.0j)
    assert toroidal_coefficient(sym, 1, 0) == pytest.approx(2.5 - 1.0j)
    for m in (-2, -1, 1, 2):
        assert toroidal_coefficient(sym, 1, m) == pytest.approx(0.0)


def test_schrodinger_coefficients_against_trapezoid():
    sym = schrodinger_symbol(lambda k: float(k @ k), 0.0, SPEC1, potential_order=2.0)
    # analytic: mean of (2 - 2cos) is 2, plus V(2) = 4
    assert toroidal_coefficient(sym, 2, 0) == pytest.approx(6.0)
    assert toroidal_coefficient(sym, 2, 1) == pytest.approx(-1.0)
    assert toroidal_coefficient(sym, 2, -1) == pytest.approx(-1.0)
    for freq in (-2, -1, 0, 1, 2):
        oracle = trapezoid_oracle(sym, 2.0, freq)
        assert toroidal_coefficient(sym, 2, freq) == pytest.approx(oracle, abs=1e-12)


def test_decaying_coefficient():
    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    # integral of cos(2 pi t) e^{-2 pi i t} dt = 1/2
    assert toroidal_coefficient(sym, 0, 1) == pytest.approx(0.5)
    assert toroidal_coefficient(sym, 0, 1) == pytest.approx(trapezoid_oracle(sym, 0.0, 1),
                                                            abs=1e-12)


def all_builtins():
    return [
        constant_symbol(1.5 + 0.5j),
        difference_symbol(),
        multiplication_symbol(1.0),
        multiplication_symbol(0.5),
        schrodinger_symbol(lambda k: float(k @ k), 0.0, SPEC1, potential_order=2.0),
        decaying_test_symbol(3.0, 2.0, 1.0),
        polynomial_potential(1.0, 2),
    ]


def test_quadrature_matches_closed_forms():
    for sym in all_builtins():
        h = sym.spec.hbar
        for k in range(-3, 4):
            for m in range(-3, 4):
                closed = toroidal_coefficient(sym, k * h, m * h)
                quad = toroidal_coefficient(sym, k * h, m * h, force_quadrature=True)
                assert abs(closed - quad) <= 1e-12, (sym.name, k, m)


def test_quadrature_conjugate_symmetry():
    # real-valued symbols have Hermitian coefficient rows
    for sym in [multiplication_symbol(1.0),
                schrodinger_symbol(lambda k: float(k @ k), 0.0, SPEC1, potential_order=2.0),
                decaying_test_symbol(2.0, 1.0, 0.5)]:
        for k in (-2, 0, 3):
            for m in (0, 1, 2, 3):
                plus = toroidal_coefficient(sym, k, m, force_quadrature=True)
                minus = toroidal_coefficient(sym, k, -m, force_quadrature=True)
                assert abs(minus - np.conj(plus)) <= 1e-12


def test_quadrature_sample_stability():
    # frequency radius 40 is read on 128 points per axis, radius 3 on 64
    box = BoxTruncation(2)
    for sym in [difference_symbol(), decaying_test_symbol(3.0, 2.0, 1.0)]:
        wide = coefficient_table(quadrature_only(sym), box, 40).values
        narrow = coefficient_table(quadrature_only(sym), box, 3).values
        assert np.max(np.abs(wide[:, 40 - 3:40 + 4] - narrow)) <= 1e-12


def test_off_lattice_frequency_rejected():
    with pytest.raises(ValueError):
        toroidal_coefficient(difference_symbol(), 0, 0.5)


def test_coefficient_table_difference():
    table = coefficient_table(difference_symbol(), BoxTruncation(2), 2)
    assert table.values.shape == (5, 5)
    np.testing.assert_array_equal(np.count_nonzero(table.values, axis=1), [2, 2, 2, 2, 2])


def test_coefficient_table_zero_symbol():
    table = coefficient_table(constant_symbol(0.0), BoxTruncation(1), 2)
    assert np.all(table.values == 0)


def test_coefficient_table_decaying_entry():
    table = coefficient_table(decaying_test_symbol(3.0, 2.0, 1.0), BoxTruncation(1), 2)
    k_idx = 1  # k = 0
    m_idx = 3  # m = +1 in the ordering [-2,-1,0,1,2]
    assert table.values[k_idx, m_idx] == pytest.approx(0.5)


def test_table_matches_pointwise(tmp_path):
    sym = decaying_test_symbol(2.0, 1.0, 1.0)
    table = coefficient_table(sym, BoxTruncation(2), 2)
    for i, k in enumerate(table.k_points):
        for j, m in enumerate(table.m_points):
            assert table.values[i, j] == pytest.approx(toroidal_coefficient(sym, k, m))
    table_to_csv(table, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "k_1,m_1,re,im"
    assert len(lines) == 1 + 5 * 5


def test_decay_constant_difference():
    # coefficients vanish beyond |m| = 1: max of 1*(1+1)^2 and 1*(1+0)^2 is 4
    rep = estimate_decay_constant(difference_symbol(), 1, 3, 3)
    assert rep.constant == pytest.approx(4.0)
    assert rep.support_radius == 1


def test_decay_constant_constant_symbol():
    rep = estimate_decay_constant(constant_symbol(-2.0 + 0.0j), 0, 3, 3)
    assert rep.constant == pytest.approx(2.0)
    assert rep.support_radius == 0


def test_decay_constant_decaying():
    # peak |coef(k, 0)| (1+|k|)^3 = a = 2 at every k
    rep = estimate_decay_constant(decaying_test_symbol(3.0, 2.0, 1.0), 0, 4, 4)
    assert rep.constant == pytest.approx(2.0)
    assert rep.support_radius == 1


def test_decay_constant_monotone_in_radii():
    sym = decaying_test_symbol(2.0, 1.0, 1.0)
    small = estimate_decay_constant(sym, 1, 2, 2)
    large = estimate_decay_constant(sym, 1, 4, 4)
    assert large.constant >= small.constant


def test_decay_constant_enumeration_oracle():
    # brute force the weighted max from hand-computed coefficients
    s, a, b = 3.0, 2.0, 1.0
    sym = decaying_test_symbol(s, a, b)
    q = 1
    best = 0.0
    for k in range(-3, 4):
        radial = (1.0 + abs(k)) ** (-s)
        for m, coef in ((0, a * radial), (1, 0.5 * b * radial), (-1, 0.5 * b * radial)):
            best = max(best, abs(coef) * (1 + abs(m)) ** (2 * q) * (1 + abs(k)) ** (s + 0))
    rep = estimate_decay_constant(sym, q, 3, 3)
    assert rep.constant == pytest.approx(best)


def test_quadrature_2d_product_cosines():
    # sigma = cos(2 pi t1) cos(2 pi t2) has coefficients 1/4 at (+-1, +-1)
    spec2 = LatticeSpec(1.0, 2)
    sym = Symbol(spec2, SymbolOrder(0.0),
                 lambda k, t: np.cos(2 * np.pi * t[..., 0]) * np.cos(2 * np.pi * t[..., 1]) + 0j)
    for mx in (-1, 1):
        for my in (-1, 1):
            assert toroidal_coefficient(sym, (0, 0), (mx, my)) == pytest.approx(0.25)
    assert toroidal_coefficient(sym, (0, 0), (0, 0)) == pytest.approx(0.0)
    assert toroidal_coefficient(sym, (0, 0), (1, 0)) == pytest.approx(0.0)


def test_quadrature_2d_schrodinger_matches_closed_form():
    spec2 = LatticeSpec(1.0, 2)
    sym = schrodinger_symbol(lambda k: float(k @ k), 0.5, spec2, potential_order=2.0)
    for kx in (-1, 0, 2):
        for mx in (-1, 0, 1):
            for my in (-1, 0, 1):
                closed = toroidal_coefficient(sym, (kx, 1), (mx, my))
                quad = toroidal_coefficient(sym, (kx, 1), (mx, my), force_quadrature=True)
                assert abs(closed - quad) <= 1e-12


def test_quadrature_table_past_64_samples_does_not_fold():
    # on 64 points frequency 40 would share a bin with 40 - 64 = -24; the grid
    # for radius 40 has 128, so every column is the symbol's own coefficient
    s, a, b = 3.0, 2.0, 1.0
    sym = decaying_test_symbol(s, a, b)
    table = coefficient_table(quadrature_only(sym), BoxTruncation(3), 40)
    assert table.values.shape == (7, 81)
    decay = (1.0 + np.abs(table.k_points[:, 0])) ** -s
    want = np.zeros((7, 81))
    want[:, 40] = a * decay
    want[:, [39, 41]] = 0.5 * b * decay[:, None]
    assert np.max(np.abs(table.values - want)) <= 1e-12
    assert abs(toroidal_coefficient(sym, 0, 40, force_quadrature=True)) <= 1e-12
    # closed forms never fold
    assert coefficient_table(sym, BoxTruncation(1), 40).values[1, 41] == 0.5


def test_coefficient_table_size_preflight(time_limit):
    sym = decaying_test_symbol(3.0, 1.0, 1.0, LatticeSpec(1.0, 3))
    with time_limit(10):
        with pytest.raises(ValueError, match="226981x226981 matrix needs 824325989776 bytes"):
            coefficient_table(sym, BoxTruncation(30), 30)


def test_quadrature_grid_size_preflight(time_limit):
    # one frequency of radius 5000 needs 16384 points per axis: 2^42 in 3-d, 16 bytes
    # each, and one block of 2^14 points at 64 values of 16 bytes
    sym = decaying_test_symbol(3.0, 1.0, 1.0, LatticeSpec(1.0, 3))
    with time_limit(10):
        with pytest.raises(ValueError, match=r"a quadrature grid of 16384\^3 points needs "
                                             r"70368760954880 bytes"):
            toroidal_coefficient(sym, (0, 0, 0), (5000, 0, 0), force_quadrature=True)


def test_forced_quadrature_stays_within_its_preflight(monkeypatch):
    # a 3-d series forced to quadrature on 64^3 points is sampled block by block, so
    # what the call holds at its peak is within the bytes its preflight counted
    counted = []
    check_fits = fourier.check_fits

    def counting(need, what):
        counted.append(need)
        check_fits(need, what)

    monkeypatch.setattr(fourier, "check_fits", counting)
    sym = decaying_test_symbol(3.0, 1.0, 1.0, LatticeSpec(1.0, 3))
    tracemalloc.start()
    try:
        toroidal_coefficient(sym, (0, 0, 0), (3, 0, 0), force_quadrature=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1
    assert peak <= counted[0]


def test_quadrature_keeps_no_grid():
    # a 3-d coefficient at frequency radius 32 is read on 128^3 points, whose theta
    # coordinates alone take 48 MiB; no grid, of theta or of samples, outlives the call
    spec = LatticeSpec(1.0, 3)
    sym = Symbol(spec, SymbolOrder(0.0), eval_fn=lambda k, theta: np.cos(2 * np.pi * theta[..., 0]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        toroidal_coefficient(sym, (0, 0, 0), (32, 0, 0), force_quadrature=True)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2 ** 20


def test_forced_quadrature_refuses_non_finite_samples():
    # |k|^-0.5 is inf at k = 0: its FFT would read nan, with numpy warnings, where the
    # closed form gives 0 at frequency 1; quadrature refuses the row instead
    for spec, k, m in ((SPEC1, 0.0, 1.0), (LatticeSpec(0.5, 2), (0.0, 0.0), (0.5, 0.0))):
        sym = multiplication_symbol(-0.5, spec)
        assert toroidal_coefficient(sym, k, m) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"not finite at k = \[0\.0(, 0\.0)?\]"):
                toroidal_coefficient(sym, k, m, force_quadrature=True)
    # a symbol given by values alone is refused the same way, naming its row
    def nan_at_one_values(k, theta):
        return np.full(theta.shape[:-1], np.nan if k[0] == 1 else 1.0)

    nan_at_one = Symbol(SPEC1, SymbolOrder(0.0), nan_at_one_values, name="nan-at-1")
    assert toroidal_coefficient(nan_at_one, 0.0, 0.0) == 1.0
    with pytest.raises(NonFiniteError, match=r"'nan-at-1' .*not finite at k = \[1\.0\]"):
        coefficient_table(nan_at_one, BoxTruncation(1), 1)


def test_no_rows_give_an_empty_table_of_every_kind():
    # zero rows at three offsets give a (0, 3) table, whichever case reads the symbol: a
    # closed form, a series (the symbol of a 2-d matrix) or quadrature
    spec, box = LatticeSpec(1.0, 2), BoxTruncation(1)
    closed = decaying_test_symbol(3.0, 1.0, 1.0, spec)
    series = symbol_from_matrix(KernelMatrix(
        spec, box, np.random.default_rng(4).normal(size=(9, 9))))
    offsets = enumerate_box_integers(spec, box)[:3]
    no_rows = np.zeros((0, 2), dtype=np.int64)
    for sym, dtype in ((closed, float), (series, float), (quadrature_only(closed), complex)):
        table = fourier.coefficients(sym, no_rows, offsets)
        assert table.shape == (0, 3) and table.dtype == dtype, sym.name


def test_matrix_symbol_table_is_filled_in_place():
    # the coefficient table of a real 3-d R=4 matrix symbol at frequency radius 5, 729 x
    # 1331 float64 (7.8 MB), is filled block by block: it peaks below the table plus
    # 4 MiB, one ~1 MiB block of row tensors with what building and gathering it holds,
    # where gathering the blocks into a list and then joining them holds the table twice
    spec, box = LatticeSpec(1.0, 3), BoxTruncation(4)
    K = KernelMatrix(spec, box,
                     assemble(decaying_test_symbol(3.0, 1.0, 1.0, spec), spec, box).entries.real)
    sym = symbol_from_matrix(K)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = coefficient_table(sym, box, 5).values
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert table.shape == (729, 1331) and table.dtype == np.float64
    assert peak < table.nbytes + 4 * 2 ** 20, (peak, table.nbytes)
    # the same coefficients as one row at a time, bit for bit
    m_ints = enumerate_box_integers(spec, BoxTruncation(5))
    z_rows = enumerate_box_integers(spec, box)
    for i in (0, 364, 728):
        row = fourier.coefficients(sym, z_rows[i:i + 1], m_ints)
        assert row.tobytes() == table[i:i + 1].tobytes()
