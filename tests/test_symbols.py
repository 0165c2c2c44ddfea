import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_pdo.lattice import BoxTruncation, LatticeSpec, enumerate_box, index_of
from lattice_pdo.symbols import (Symbol, SymbolOrder, constant_symbol,
                                 decaying_test_symbol, difference_symbol,
                                 eval_symbol, multiplication_symbol,
                                 periodicity_defect, polynomial_potential,
                                 schrodinger_symbol, symbol_from_matrix,
                                 theta_derivative)
from lattice_pdo.kernel import KernelMatrix, assemble

SPEC1 = LatticeSpec(1.0, 1)


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
    fd = Symbol(base.spec, base.order, base.eval_fn, deriv_fn=None,
                deriv_order_available=2, name="fd")
    for beta in (1, 2):
        exact = theta_derivative(base, 1, 0.2, beta)
        approx = theta_derivative(fd, 1, 0.2, beta)
        assert abs(approx - exact) <= 1e-4 * max(1.0, abs(exact))


def test_derivative_capability_error():
    sym = Symbol(SPEC1, SymbolOrder(0.0), lambda k, t: np.cos(2 * np.pi * t[..., 0]),
                 deriv_order_available=1)
    with pytest.raises(ValueError):
        theta_derivative(sym, 0, 0.1, 2)


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
    sym = symbol_from_matrix(K)
    values = sym.eval_fn(k, theta)
    derivs = sym.deriv_fn(k, theta, beta)
    assert values.shape == derivs.shape == theta.shape[:-1]
    if np.any(np.abs(k / K.spec.hbar) > K.box.radius):
        assert np.all(values == 0) and np.all(derivs == 0)
        return
    for got, b in ((values, (0,) * K.spec.dim), (derivs, beta)):
        want, l1 = direct_phase_sum(K, k, theta, b)
        assert np.max(np.abs(got - want)) <= 1e-12 * l1


def test_potential_symbol_order():
    sym = polynomial_potential(2.0, 3)
    assert sym.order.mu == 6.0
    assert eval_symbol(sym, 2, 0.1) == pytest.approx(2.0 * 2 ** 6)
    with pytest.raises(ValueError):
        polynomial_potential(1.0, 0)
