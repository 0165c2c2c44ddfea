import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_pdo import schrodinger, symbols
from lattice_pdo.fourier import coefficient_table, spectrum_of_row, toroidal_coefficient
from lattice_pdo.lattice import (BoxTruncation, LatticeSpec, enumerate_box,
                                 enumerate_box_integers, index_of)
from lattice_pdo.symbols import (NonFiniteError, Symbol, SymbolOrder, _series,
                                 anharmonic_of_norms, anharmonic_values, constant_symbol,
                                 decaying_test_symbol, difference_symbol, eval_symbol,
                                 multiplication_symbol, polynomial_potential, quadrature_only,
                                 schrodinger_symbol, symbol_from_matrix, theta_derivative)
from lattice_pdo.kernel import KernelMatrix, assemble
from lattice_pdo._util import c_pow

SPEC1 = LatticeSpec(1.0, 1)


# The value formulas the families once wrote by hand beside their coefficients: the
# reference that the values resummed from the coefficients are compared against.

def per_point_norm(k):
    return float(np.linalg.norm(k))


def per_point_power(k, eps):
    # multiplication_symbol's value as it was written per point, k = 0 included
    r = per_point_norm(k)
    if r > 0:
        return r ** eps
    return 1.0 if eps == 0 else (0.0 if eps > 0 else np.inf)


def multiplier_values(value):
    return lambda k, theta: np.full(theta.shape[:-1], value(k), dtype=complex)


def difference_values(k, theta):
    return np.exp(2j * np.pi * theta[..., 0]) - 1.0


def schrodinger_values(V, lam, hbar):
    def ev(k, theta):
        kin = hbar ** -2 * np.sum(2.0 - 2.0 * np.cos(2 * np.pi * theta), axis=-1)
        return kin + float(V(k)) + lam + 0j
    return ev


def decaying_values(s, a, b):
    return lambda k, theta: ((1.0 + per_point_norm(k)) ** -s
                             * (a + b * np.cos(2 * np.pi * theta[..., 0])) + 0j)


def builtin_symbols():
    return [
        constant_symbol(2.0 - 1.5j),
        difference_symbol(),
        multiplication_symbol(1.0),
        schrodinger_symbol(lambda k: float(k @ k), 0.0, SPEC1, potential_order=2.0),
        decaying_test_symbol(3.0, 2.0, 1.0),
        polynomial_potential(1.0, 2),
    ]


def test_difference_values():
    sym = difference_symbol()
    assert eval_symbol(sym, 0, 0.0) == pytest.approx(0.0)
    assert eval_symbol(sym, 0, 0.5) == pytest.approx(-2.0)


def test_schrodinger_value():
    # 2 - 2 cos 0 = 0, so the value at theta=0 is V(2) = 4
    sym = schrodinger_symbol(lambda k: float(k @ k), 0.0, SPEC1, potential_order=2.0)
    assert eval_symbol(sym, 2, 0.0) == pytest.approx(4.0)


def test_decaying_value():
    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    # (1 + 1)^-3 * (2 + cos 0) = 3/8
    assert eval_symbol(sym, 1, 0.0) == pytest.approx(3.0 / 8.0)


def test_periodicity_samples():
    rng = np.random.default_rng(7)
    for sym in builtin_symbols():
        n = sym.spec.dim
        for _ in range(100):
            k = sym.spec.hbar * rng.integers(-5, 6, size=n)
            theta = rng.random(n)
            shifted = theta.copy()
            shifted[int(rng.integers(0, n))] += 1.0
            assert abs(eval_symbol(sym, k, theta) - eval_symbol(sym, k, shifted)) <= 1e-9


def test_derivative_difference():
    sym = difference_symbol()
    assert theta_derivative(sym, 0, 0.0, 1) == pytest.approx(2j * np.pi)


def test_derivative_constant():
    sym = constant_symbol(3.0)
    for beta in (1, 2, 3):
        assert theta_derivative(sym, 0, 0.3, beta) == 0


def test_derivative_decaying_second_order():
    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    # second derivative of cos(2 pi t) at 0 is -4 pi^2; radial factor is 1 at k=0
    assert theta_derivative(sym, 0, 0.0, 2) == pytest.approx(-4 * np.pi ** 2)


def test_value_only_symbol_refuses_theta_derivatives():
    # a symbol given by its values alone has no series to differentiate: order 0 is
    # its values, and every higher order is refused by name rather than approximated
    base = decaying_test_symbol(3.0, 2.0, 1.0)
    exact = 0.125 * (2 * np.pi) ** 4 * np.cos(2 * np.pi * 0.2)
    assert theta_derivative(base, 1, 0.2, 4) == pytest.approx(exact, rel=1e-12)
    by_values = Symbol(base.spec, base.order, decaying_values(3.0, 2.0, 1.0), name="by-values")
    assert theta_derivative(by_values, 1, 0.2, 0) == eval_symbol(by_values, 1, 0.2)
    assert eval_symbol(by_values, 1, 0.2) == pytest.approx(eval_symbol(base, 1, 0.2), rel=1e-12)
    for beta in (1, 2, 4):
        with pytest.raises(ValueError, match=f"'by-values' .* order {beta}"):
            theta_derivative(by_values, 1, 0.2, beta)


def test_order_validation():
    with pytest.raises(ValueError):
        SymbolOrder(0.0, rho=1.5)
    with pytest.raises(ValueError):
        SymbolOrder(0.0, delta=-0.1)


def test_symbol_from_identity_matrix():
    box = BoxTruncation(2)
    K = KernelMatrix(SPEC1, box, np.eye(5, dtype=complex))
    sym = symbol_from_matrix(K)
    for k in (-2, 0, 1):
        for theta in (0.0, 0.25, 0.7):
            assert eval_symbol(sym, k, theta) == pytest.approx(1.0)
    # outside the box rows the symbol vanishes
    assert eval_symbol(sym, 3, 0.3) == 0


def off_lattice_symbols():
    # hbar = 1 unless stated; the matrix symbol's box holds the rows -2..2
    K = assemble(decaying_test_symbol(3.0, 1.0, 1.0), SPEC1, BoxTruncation(2))
    return builtin_symbols() + [symbol_from_matrix(K),
                                decaying_test_symbol(3.0, 1.0, 1.0, LatticeSpec(0.5, 1))]


@pytest.mark.parametrize("index", range(len(off_lattice_symbols())))
def test_off_lattice_k_is_refused(index):
    sym = off_lattice_symbols()[index]
    k = 0.5 * sym.spec.hbar
    with pytest.raises(ValueError, match="not on the lattice"):
        eval_symbol(sym, k, 0.1)
    with pytest.raises(ValueError, match="not on the lattice"):
        theta_derivative(sym, k, 0.1, 1)
    with pytest.raises(ValueError, match="not on the lattice"):
        theta_derivative(sym, k, 0.1, 0)


def test_closed_form_needs_a_support_radius():
    def cf(z_rows, z_offsets):
        return np.zeros((len(z_rows), len(z_offsets)))

    for eval_fn in (None, lambda k, theta: np.zeros(theta.shape[:-1])):
        with pytest.raises(ValueError, match="closed form without a support radius"):
            Symbol(SPEC1, SymbolOrder(0.0), eval_fn=eval_fn, closed_form_coeffs=cf)


def test_support_radius_must_be_a_non_negative_integer():
    # refused when the symbol is built, naming it, not later by the first box read
    def cf(z_rows, z_offsets):
        return np.zeros((len(z_rows), len(z_offsets)))

    for radius in (-1, 1.5, "2", True):
        with pytest.raises(ValueError, match=r"symbol 'cf' .*support radius .*non-negative integer"):
            Symbol(SPEC1, SymbolOrder(0.0), closed_form_coeffs=cf, coeff_support_radius=radius,
                   name="cf")
    for radius in (0, 2, np.int64(3)):
        sym = Symbol(SPEC1, SymbolOrder(0.0), closed_form_coeffs=cf, coeff_support_radius=radius)
        assert np.all(assemble(sym, SPEC1, BoxTruncation(1)).entries == 0)


def test_symbol_from_difference_matrix():
    box = BoxTruncation(3)
    K = assemble(difference_symbol(), SPEC1, box)
    sym = symbol_from_matrix(K)
    for theta in np.linspace(0, 1, 11, endpoint=False):
        expected = np.exp(2j * np.pi * theta) - 1
        # interior rows carry both stencil coefficients
        assert abs(eval_symbol(sym, 0, theta) - expected) <= 1e-12


def test_symbol_from_matrix_roundtrip_hermitian():
    rng = np.random.default_rng(12)
    box = BoxTruncation(2)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    M = 0.5 * (M + M.conj().T)
    K = KernelMatrix(SPEC1, box, M)
    K2 = assemble(symbol_from_matrix(K), SPEC1, box)
    assert np.array_equal(K2.entries, K.entries)


def test_symbol_from_matrix_derivative():
    box = BoxTruncation(1)
    K = assemble(difference_symbol(), SPEC1, box)
    sym = symbol_from_matrix(K)
    d = theta_derivative(sym, 0, 0.0, 1)
    assert d == pytest.approx(2j * np.pi)


def direct_phase_sum(K, k, theta, beta):
    """sum_m K(k, m) prod_j (2 pi i z_j)^beta_j exp(2 pi i z . theta), z = (m - k)/hbar.

    The all-columns-at-once evaluation, kept as the reference for the
    axis-by-axis one; returns the sum and the l1 norm of the terms' weights.
    """
    row = index_of(K.spec, K.box, k)
    z = (enumerate_box(K.spec, K.box) - k) / K.spec.hbar
    weights = np.array(K.entries[row], dtype=complex)
    for j, bj in enumerate(beta):
        weights *= (2j * np.pi * z[:, j]) ** bj
    phases = np.exp(2j * np.pi * np.tensordot(theta, z.T, axes=1))
    return phases @ weights, np.sum(np.abs(weights))


@st.composite
def matrix_symbol_cases(draw):
    dim = draw(st.integers(1, 3))
    spec = LatticeSpec(draw(st.sampled_from([1.0, 0.5])), dim)
    box = BoxTruncation(draw(st.integers(0, {1: 4, 2: 2, 3: 1}[dim])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = box.size(dim)
    K = KernelMatrix(spec, box, rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    # rows up to two points beyond the box, where the symbol must vanish
    z = draw(st.lists(st.integers(-box.radius - 2, box.radius + 2), min_size=dim, max_size=dim))
    shape = draw(st.sampled_from([(dim,), (5, dim), (4, 3, dim)]))
    if draw(st.booleans()):
        theta = rng.integers(0, 64, size=shape) / 64  # quadrature grid points, repeated
    else:
        theta = rng.uniform(-1.0, 2.0, size=shape)   # off the grid and outside [0, 1)
    beta = tuple(draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim)))
    return K, spec.hbar * np.array(z, dtype=float), theta, beta


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=matrix_symbol_cases())
def test_matrix_symbol_matches_direct_phase_sum(case):
    K, k, theta, beta = case
    n = K.spec.dim
    sym = symbol_from_matrix(K)
    z = np.rint(k / K.spec.hbar).astype(np.int64)
    coeffs, low = sym.row_series(z)
    assert coeffs.ndim == n and np.shape(low) == (n,)
    values = eval_symbol(sym, k, theta)
    derivs = theta_derivative(sym, k, theta, beta)
    assert np.shape(values) == np.shape(derivs) == theta.shape[:-1]
    if np.any(np.abs(z) > K.box.radius):
        assert not np.any(coeffs)
        assert np.all(values == 0) and np.all(derivs == 0)
        return
    # the series of row k is its row of K, column m at the frequency (m - k)/hbar
    np.testing.assert_array_equal(coeffs.reshape(-1), K.entries[index_of(K.spec, K.box, k)])
    # at consecutive frequencies from the lowest one, low + index
    grid = np.indices(coeffs.shape).reshape(n, -1).T + low
    np.testing.assert_array_equal(grid, enumerate_box_integers(K.spec, K.box) - z)
    for got, b in ((values, (0,) * n), (derivs, beta)):
        want, l1 = direct_phase_sum(K, k, theta, b)
        assert np.max(np.abs(got - want)) <= 1e-12 * l1


def test_negative_power_multiplier_is_infinite_at_the_origin():
    # the series holds the one coefficient inf at frequency 0; a product with the
    # phase 1 + 0j would turn it into nan
    for spec in (SPEC1, LatticeSpec(0.5, 2)):
        sym = multiplication_symbol(-0.5, spec)
        origin = np.zeros(spec.dim)
        one = eval_symbol(sym, origin, np.full(spec.dim, 0.3))
        assert isinstance(one, complex)
        assert one.real == np.inf and one.imag == 0
        many = eval_symbol(sym, origin, np.random.default_rng(3).random((4, 3, spec.dim)))
        assert many.shape == (4, 3)
        assert np.all(many.real == np.inf) and np.all(many.imag == 0)


def test_potential_symbol_order():
    sym = polynomial_potential(2.0, 3)
    assert sym.order.mu == 6.0
    assert eval_symbol(sym, 2, 0.1) == pytest.approx(2.0 * 2 ** 6)
    with pytest.raises(ValueError):
        polynomial_potential(1.0, 0)


def row_coefficients(sym, K, z):
    """Coefficient tensor of row z and its frequencies per axis, from one closed-form table."""
    n = sym.spec.dim
    if K is not None:
        side = 2 * K.box.radius + 1
        row = K.entries[index_of(K.spec, K.box, K.spec.hbar * z)].reshape((side,) * n)
        return row, [np.arange(-K.box.radius, K.box.radius + 1) - zj for zj in z]
    r = sym.coeff_support_radius
    offsets = enumerate_box_integers(sym.spec, BoxTruncation(r))
    coeffs = sym.closed_form_coeffs(z[None], offsets)[0]
    return np.reshape(coeffs, (2 * r + 1,) * n), [np.arange(-r, r + 1)] * n


FAMILIES = ["constant", "difference", "multiplication", "schrodinger", "decaying",
            "anharmonic", "matrix"]


@st.composite
def derivative_cases(draw, family):
    dim = 1 if family == "difference" else draw(st.integers(1, 3))
    spec = LatticeSpec(draw(st.sampled_from([1.0, 0.5])), dim)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    K = None
    if family == "constant":
        c = complex(rng.normal(), rng.normal())
        sym, ref = constant_symbol(c, spec), multiplier_values(lambda k: c)
    elif family == "difference":
        sym, ref = difference_symbol(spec.hbar), difference_values
    elif family == "multiplication":
        eps = draw(st.sampled_from([-1.0, -0.5, 0.0, 1.5]))
        sym = multiplication_symbol(eps, spec)
        ref = multiplier_values(lambda k: per_point_power(k, eps))
    elif family == "schrodinger":
        lam = rng.normal()
        sym = schrodinger_symbol(lambda k: float(k @ k), lam, spec, potential_order=2.0)
        ref = schrodinger_values(lambda k: float(k @ k), lam, spec.hbar)
    elif family == "decaying":
        s, a, b = rng.uniform(0.5, 3.0), rng.normal(), rng.normal()
        sym, ref = decaying_test_symbol(s, a, b, spec), decaying_values(s, a, b)
    elif family == "anharmonic":
        c, l = rng.uniform(0.5, 2.0), draw(st.integers(1, 2))
        sym = polynomial_potential(c, l, spec)
        ref = multiplier_values(lambda k: c * per_point_norm(k) ** (2 * l))
    else:
        box = BoxTruncation(draw(st.integers(0, {1: 3, 2: 2, 3: 1}[dim])))
        size = box.size(dim)
        K = KernelMatrix(spec, box, rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        sym = symbol_from_matrix(K)

        def ref(k, theta):
            return direct_phase_sum(K, k, theta, (0,) * dim)[0]
    reach = K.box.radius if K is not None else 2
    z = np.array(draw(st.lists(st.integers(-reach, reach), min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        z[:] = 0   # the origin, where |k|^eps with eps < 0 is infinite
    shape = draw(st.sampled_from([(dim,), (5, dim), (4, 3, dim)]))
    theta = rng.uniform(-1.0, 2.0, size=shape)   # off the quadrature grid
    beta = tuple(draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim)))
    return sym, ref, K, z, theta, beta


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_theta_derivative_from_coefficients(family, data):
    sym, ref, K, z, theta, beta = data.draw(derivative_cases(family))
    n = sym.spec.dim
    k = sym.spec.hbar * z
    d = theta_derivative(sym, k, theta, beta)
    value = eval_symbol(sym, k, theta)
    assert np.shape(d) == np.shape(value) == theta.shape[:-1]
    assert isinstance(d, complex) == (theta.ndim == 1)
    coeffs, freqs = row_coefficients(sym, K, z)
    if not np.all(np.isfinite(coeffs)):
        # |k|^eps with eps < 0 at k = 0: the value is inf + 0j, as written by hand,
        # and every theta-derivative is exactly 0
        assert np.all(value == ref(k, theta))
        if any(beta):
            assert np.all(d == 0)
        return

    # beta = 0: the values resummed from the coefficients are the hand-written ones
    scale = max(np.sum(np.abs(coeffs)), 1e-300)
    assert np.max(np.abs(value - ref(k, theta))) <= 1e-12 * scale

    # the derivative sampled on the 64-point grid has FFT (2 pi i z)^beta c(k, z)
    weights = np.array(coeffs, dtype=complex)
    for j, bj in enumerate(beta):
        weights *= ((2j * np.pi * freqs[j]) ** bj).reshape((-1,) + (1,) * (n - 1 - j))
    want = np.zeros((64,) * n, dtype=complex)
    want[np.ix_(*[f % 64 for f in freqs])] = weights
    derivative = Symbol(sym.spec, sym.order, lambda kk, t: theta_derivative(sym, kk, t, beta))
    got = spectrum_of_row(derivative, k, 64)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.sum(np.abs(weights)), 1e-300)



@pytest.mark.parametrize("dim, radius", [(1, 300), (2, 20), (3, 6), (4, 3)])
@pytest.mark.parametrize("hbar", [1.0, 0.5, 0.1, 0.3, 0.7, 1 / 3, 2.5, 0.01])
def test_closed_form_coeffs_match_per_point_values(dim, radius, hbar):
    # the array evaluation of each diagonal and band gives the bits of the
    # per-point expressions it replaced
    spec = LatticeSpec(hbar, dim)
    zs = enumerate_box_integers(spec, BoxTruncation(radius))
    zero = np.zeros(dim, dtype=np.int64)
    step = zero.copy()
    step[0] = -1
    s, a, b = 2.5, 1.5, -0.7
    cases = [(decaying_test_symbol(s, a, b, spec), zero,
              lambda k: a * (1.0 + per_point_norm(k)) ** (-s)),
             (decaying_test_symbol(s, a, b, spec), step,
              lambda k: 0.5 * b * (1.0 + per_point_norm(k)) ** (-s)),
             (constant_symbol(0.25 - 2j, spec), zero, lambda k: 0.25 - 2j)]
    for eps in (0.0, 0.5, 1.0, 2.0, -0.5):
        cases.append((multiplication_symbol(eps, spec), zero,
                      lambda k, eps=eps: per_point_power(k, eps)))
    for l in (1, 2, 3):
        cases.append((polynomial_potential(0.7, l, spec), zero,
                      lambda k, l=l: 0.7 * per_point_norm(k) ** (2 * l)))
    for sym, off, old in cases:
        want = np.array([old(k) for k in spec.hbar * zs])
        got = sym.closed_form_coeffs(zs, off[None])[:, 0]
        assert got.dtype == want.dtype, sym.name
        np.testing.assert_array_equal(got, want, err_msg=sym.name)


def agreement_cases(dim):
    """(symbol, integer row z) for every built-in family and a matrix symbol in ``dim``.

    |k|^-0.5 comes twice: at k = 0, where its one coefficient is inf, and off it.
    """
    spec = LatticeSpec(0.5, dim)
    rng = np.random.default_rng(dim)
    box = BoxTruncation(1)
    size = box.size(dim)
    K = KernelMatrix(spec, box, rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    syms = [constant_symbol(0.25 - 2j, spec),
            multiplication_symbol(-0.5, spec),
            multiplication_symbol(1.5, spec),
            schrodinger_symbol(lambda k: float(k @ k), 0.3, spec, potential_order=2.0),
            decaying_test_symbol(2.5, 1.5, -0.7, spec),
            polynomial_potential(0.7, 2, spec),
            symbol_from_matrix(K)]
    if dim == 1:
        syms.append(difference_symbol(spec.hbar))
    z = np.array([1, -1, 0][:dim])
    return [(sym, z) for sym in syms] + [(multiplication_symbol(-0.5, spec), 0 * z)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_and_per_point_sums_agree(dim):
    # Forced quadrature samples a series point by point on the N^dim grid; the FFT of
    # those samples gives back the series.  Tolerance fixed before the first run,
    # with u = eps / 2, F_j the frequencies on axis j, f the largest |frequency| and
    # S = sum |c|: each sample is within (sqrt(5) n + sum_j (F_j - 1)) u S of the sum
    # of its computed exponentials, whose phases 2 pi f theta are off by at most
    # 4 pi f u and values by u more each, so within n (1 + 4 pi f) u S of the exact
    # sum; the FFT adds at most 5 u log2(N^n) S.  The sum of the three is below
    # (n (3 + 2 pi f + 3 log2 N) + sum_j (F_j - 1)) eps S.
    N = 64 if dim < 3 else 16
    for sym, z in agreement_cases(dim):
        coeffs, low = _series(sym, z)
        freqs = [lj + np.arange(size) for lj, size in zip(low, coeffs.shape)]
        k = sym.spec.hbar * z
        forced = quadrature_only(sym)
        if not np.all(np.isfinite(coeffs)):
            # |k|^eps, eps < 0, at k = 0: inf at every sample, refused rather than read
            with pytest.raises(NonFiniteError, match="not finite at k"):
                spectrum_of_row(forced, k, N)
            continue
        got = spectrum_of_row(forced, k, N)[np.ix_(*[f % N for f in freqs])]
        f = max(int(np.max(np.abs(fj))) for fj in freqs)
        tol = ((dim * (3 + 2 * np.pi * f + 3 * np.log2(N)) + sum(len(fj) - 1 for fj in freqs))
               * np.finfo(float).eps * np.sum(np.abs(coeffs)))
        assert np.max(np.abs(got - coeffs)) <= tol, sym.name


def test_scattered_points_are_summed_point_by_point():
    # 256 random 3-d points have 256 distinct values per axis: their grid would
    # hold 256^3 nodes (268 MB of complex128), the points need a few hundred kB
    spec = LatticeSpec(1.0, 3)
    rng = np.random.default_rng(5)
    box = BoxTruncation(1)
    size = box.size(3)
    K = KernelMatrix(spec, box, rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
    sym = symbol_from_matrix(K)
    theta = rng.random((256, 3))
    k = np.array([1.0, 0.0, -1.0])
    grid_bytes = 16 * len(theta) ** 3
    tracemalloc.start()
    try:
        values = eval_symbol(sym, k, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes / 100
    want, l1 = direct_phase_sum(K, k, theta, (0, 0, 0))
    assert np.max(np.abs(values - want)) <= 1e-12 * l1


def _matrix_symbol_3d_radius_4():
    spec, box = LatticeSpec(1.0, 3), BoxTruncation(4)
    return symbol_from_matrix(KernelMatrix(
        spec, box, np.random.default_rng(0).normal(size=(box.size(3), box.size(3)))))


def test_phase_sums_stay_within_their_preflight(monkeypatch):
    # the matrix symbol forced to quadrature on 64^3 points, 2^14 points a call: phase
    # tables of 27 and partial sums of 81 complex values a point at their widest
    counted, peaks = [], []
    check_fits, phase_sum = symbols.check_fits, symbols._phase_sum

    def counting(need, what):
        counted.append(need)
        check_fits(need, what)

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = phase_sum(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(symbols, "check_fits", counting)
    monkeypatch.setattr(symbols, "_phase_sum", traced)
    sym = _matrix_symbol_3d_radius_4()
    tracemalloc.start()
    try:
        toroidal_coefficient(sym, (0, 0, 0), (1, 0, 0), force_quadrature=True)
    finally:
        tracemalloc.stop()
    assert len(counted) == len(peaks) == 64 ** 3 // 2 ** 14
    assert max(peaks) > 16 * 2 ** 14 * 81  # the partial sums were built
    assert all(peak <= need for peak, need in zip(peaks, counted))


def test_phase_sums_preflight_refuses_before_any_table(monkeypatch):
    def refuse(need, what):
        raise ValueError(f"{what} needs {need} bytes, more than the physical memory")

    monkeypatch.setattr(symbols, "check_fits", refuse)
    sym = _matrix_symbol_3d_radius_4()
    theta = np.random.default_rng(1).random((2 ** 14, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ValueError, match=r"^phase sums over 729 frequencies at 16384 points "
                                             r"needs \d+ bytes"):
            eval_symbol(sym, (0, 0, 0), theta)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(theta)  # less than one complex value a point


def c_pow_overflows(r, exponent):
    try:
        math.pow(r, exponent)
    except OverflowError:
        return True
    return False


def test_anharmonic_past_float64_names_the_first_point():
    # 256^128 = 2^1024 is the first value past float64 in the C pow
    zs = enumerate_box_integers(SPEC1, BoxTruncation(300))
    zero = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(NonFiniteError, match=r"l=64 is not finite at k = \[-256.0\], "
                                              r"\|k\| = 256.0: inf"):
        polynomial_potential(1.0, 64).closed_form_coeffs(zs, zero)
    # in 2-d the first point is the one of least norm among those past float64
    spec = LatticeSpec(1.0, 2)
    zs2 = enumerate_box_integers(spec, BoxTruncation(200))
    norms = np.linalg.norm(zs2, axis=1)
    past = np.flatnonzero([c_pow_overflows(r, 126) for r in norms.tolist()])
    first = zs2[past[np.argmin(norms[past])]]
    with pytest.raises(NonFiniteError, match=rf"at k = \[{first[0]:.1f}, {first[1]:.1f}\]"):
        polynomial_potential(1.0, 63, spec).closed_form_coeffs(zs2, np.zeros((1, 2), np.int64))
    # 0 |k|^(2l) is 0 everywhere, past float64 included
    assert not np.any(polynomial_potential(0.0, 64).closed_form_coeffs(zs, zero))


def scalar_anharmonic(c, l, r):
    """c r^(2l) in Python floats by the C pow, past float64 inf with the sign of c, 0 for c = 0."""
    power = c_pow(r, 2 * l)
    return c * power if c or power < math.inf else 0.0


@pytest.mark.parametrize("c", [0.0, 0.7, -2.0])
def test_anharmonic_values_is_the_scalar_formula_at_each_point(c):
    # |k|^128 past float64 (|k| >= 256) included: inf with the sign of c, 0 for c = 0;
    # c = -2 also leaves float64 in the product, below |k| = 256
    pts = 0.37 * enumerate_box_integers(LatticeSpec(1.0, 2), BoxTruncation(800))[::97]
    norms = [float(np.linalg.norm(k)) for k in pts]
    assert min(norms) < 256 < max(norms)
    expected = [scalar_anharmonic(c, 64, r) for r in norms]
    assert np.array_equal(anharmonic_values(c, 64)(pts), expected)
    assert np.array_equal(anharmonic_of_norms(c, 64)(norms), expected)


def counting(sym, calls):
    """``sym`` with a closed form that appends the offsets of each call to ``calls``."""
    cf = sym.closed_form_coeffs

    def counted(z_rows, z_offsets):
        calls.append(len(z_offsets))
        return cf(z_rows, z_offsets)

    return dataclasses.replace(sym, closed_form_coeffs=counted)


def test_each_reader_calls_a_closed_form_once(monkeypatch):
    # one table for all offsets: no reader loops over offsets
    spec = LatticeSpec(0.5, 2)
    calls = []
    sym = counting(decaying_test_symbol(2.0, 1.0, 1.0, spec), calls)
    reads = {"assemble": lambda: assemble(sym, spec, BoxTruncation(2)),
             "coefficient_table": lambda: coefficient_table(sym, BoxTruncation(1), 3),
             "theta_derivative": lambda: theta_derivative(sym, [0.5, -0.5], [[0.1, 0.2]], (1, 0))}
    for name, read in reads.items():
        calls.clear()
        read()
        assert len(calls) == 1, name
    monkeypatch.setattr(schrodinger, "schrodinger_symbol",
                        lambda *args, **kw: counting(schrodinger_symbol(*args, **kw), calls))
    calls.clear()
    schrodinger.weyl_oracle(spec, lambda k: float(k @ k), BoxTruncation(2), 5)
    assert calls == [1]
