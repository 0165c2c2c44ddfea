import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_pdo.fourier import spectrum_of_row
from lattice_pdo.lattice import (BoxTruncation, LatticeSpec, enumerate_box,
                                 enumerate_box_integers, index_of)
from lattice_pdo.symbols import (Symbol, SymbolOrder, constant_symbol,
                                 decaying_test_symbol, difference_symbol, eval_symbol,
                                 multiplication_symbol, periodicity_defect,
                                 polynomial_potential, schrodinger_symbol,
                                 symbol_from_matrix, theta_derivative)
from lattice_pdo.kernel import KernelMatrix, assemble

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
            axis = int(rng.integers(0, n))
            assert periodicity_defect(sym, k, theta, axis) <= 1e-9


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


def test_derivative_finite_difference_fallback():
    base = decaying_test_symbol(3.0, 2.0, 1.0)
    fd = Symbol(base.spec, base.order, decaying_values(3.0, 2.0, 1.0), name="fd")
    for theta in (0.2, np.linspace(0.0, 1.0, 6).reshape(2, 3, 1)):
        for beta in (1, 2):
            exact = theta_derivative(base, 1, theta, beta)
            approx = theta_derivative(fd, 1, theta, beta)
            assert np.shape(approx) == np.shape(exact) == np.shape(theta)[:-1]
            assert np.max(np.abs(approx - exact)) <= 1e-4 * max(1.0, np.max(np.abs(exact)))


def test_finite_differences_stop_at_order_two():
    # nested central differences at FD_STEP return 693.9 for this exact 60.2
    base = decaying_test_symbol(3.0, 2.0, 1.0)
    fd = Symbol(base.spec, base.order, decaying_values(3.0, 2.0, 1.0), name="fd")
    exact = 0.125 * (2 * np.pi) ** 4 * np.cos(2 * np.pi * 0.2)
    assert theta_derivative(base, 1, 0.2, 4) == pytest.approx(exact, rel=1e-12)
    for beta in (3, 4):
        with pytest.raises(ValueError, match=f"stop at order 2, requested {beta}"):
            theta_derivative(fd, 1, 0.2, beta)


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
    assert np.max(np.abs(K2.entries - K.entries)) <= 1e-10


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
    coeffs, freqs = sym.row_series(z)
    assert coeffs.shape == tuple(len(f) for f in freqs)
    values = eval_symbol(sym, k, theta)
    derivs = theta_derivative(sym, k, theta, beta)
    assert np.shape(values) == np.shape(derivs) == theta.shape[:-1]
    if np.any(np.abs(z) > K.box.radius):
        assert not np.any(coeffs)
        assert np.all(values == 0) and np.all(derivs == 0)
        return
    # the series of row k is its row of K, column m at the frequency (m - k)/hbar
    np.testing.assert_array_equal(coeffs.reshape(-1), K.entries[index_of(K.spec, K.box, k)])
    grid = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1).reshape(-1, n)
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
    """Coefficient tensor of row z and its frequencies per axis, gathered one offset at a time."""
    n = sym.spec.dim
    if K is not None:
        side = 2 * K.box.radius + 1
        row = K.entries[index_of(K.spec, K.box, K.spec.hbar * z)].reshape((side,) * n)
        return row, [np.arange(-K.box.radius, K.box.radius + 1) - zj for zj in z]
    r = sym.coeff_support_radius
    offsets = enumerate_box_integers(sym.spec, BoxTruncation(r))
    coeffs = [sym.closed_form_coeffs(z[None], off)[0] for off in offsets]
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
    got = spectrum_of_row(derivative, k)
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
        got = sym.closed_form_coeffs(zs, off)
        assert got.dtype == want.dtype, sym.name
        np.testing.assert_array_equal(got, want, err_msg=sym.name)
