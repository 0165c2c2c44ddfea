"""Symbols sigma(k, theta) on lattice x torus, and the built-in families.

A symbol is a function of a lattice point ``k`` and a torus point ``theta``
with coordinates in [0, 1); evaluation is 1-periodic in each theta
coordinate.  Torus frequencies are the integers m/hbar, so the quadrature
grid of the fourier module resolves them exactly.

Order metadata (mu, rho, delta) feeds the boundedness / compactness /
nuclearity decision engine in `criteria`.  rho is carried for completeness
only; no implemented criterion consumes it.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import (BoxTruncation, LatticeSpec, as_point, enumerate_box_integers,
                      integer_coords)
from ._util import float_pow

FD_STEP = 1e-5  # central-difference step for theta derivatives
# Nested central differences lose accuracy like eps / FD_STEP**order: on the
# decaying family order 3 was off by 6.5e-4 and order 4 gave 693.9 for an
# exact 60.2, so orders above 2 are refused rather than answered wrongly.
FD_MAX_ORDER = 2


@dataclass(frozen=True)
class SymbolOrder:
    """Order triple (mu, rho, delta) of a symbol class."""

    mu: float
    rho: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class Symbol:
    """Evaluatable symbol with order metadata.

    eval_fn(k, theta) must accept ``k`` of shape (n,) and ``theta`` of shape
    (..., n) and evaluate vectorized over the leading axes, to an array of
    shape theta.shape[:-1].  `theta_derivative` forms D_theta^beta sigma by
    the first path that applies: deriv_fn(k, theta, beta), under the same
    shape contract, when present; the closed-form coefficients when their
    support radius is finite, as the exact sum over z of
    (2 pi i z)^beta c(k, z) exp(2 pi i z . theta); central differences of
    eval_fn up to total order FD_MAX_ORDER.  closed_form_coeffs(z_rows,
    z_offset), when present, returns the torus Fourier coefficients without
    quadrature: for integer row coordinates ``z_rows`` of shape (S, n) (the
    points hbar * z_rows) and one integer frequency ``z_offset`` of shape
    (n,), an array of S coefficients, real or complex.
    ``coeff_support_radius`` bounds |z_offset|_inf of its nonzeros (None if
    unbounded / unknown).
    """

    spec: LatticeSpec
    order: SymbolOrder
    eval_fn: Callable
    deriv_fn: Optional[Callable] = None
    closed_form_coeffs: Optional[Callable] = None
    coeff_support_radius: Optional[int] = None
    name: str = "symbol"


def _as_theta(spec: LatticeSpec, theta):
    t = np.asarray(theta, dtype=float)
    if t.ndim == 0:
        t = t.reshape(1)
    if t.shape[-1] != spec.dim:
        raise ValueError(f"theta must have last axis of length {spec.dim}, got shape {t.shape}")
    return t


def _value(spec: LatticeSpec, theta, out):
    # a scalar for a single theta point, else shape theta.shape[:-1]
    out = np.asarray(out, dtype=complex)
    if theta.shape == (spec.dim,):
        return complex(out)
    return out


def eval_symbol(sym: Symbol, k, theta):
    """sigma(k, theta): `theta_derivative` of order 0."""
    return theta_derivative(sym, k, theta, (0,) * sym.spec.dim)


def _normalize_beta(spec: LatticeSpec, beta):
    if np.isscalar(beta):
        if spec.dim != 1:
            raise ValueError("scalar beta is only allowed for 1-dimensional symbols")
        beta = (int(beta),)
    b = tuple(int(x) for x in beta)
    if len(b) != spec.dim or any(x < 0 for x in b):
        raise ValueError(f"beta must be a multi-index of length {spec.dim}, got {beta}")
    return b


def theta_derivative(sym: Symbol, k, theta, beta):
    """D_theta^beta sigma(k, theta): a scalar for one theta point, else theta.shape[:-1].

    Paths in order: the symbol's deriv_fn; the exact sum over its
    closed-form coefficients when their support radius is finite; central
    differences up to total order FD_MAX_ORDER.  A k off the lattice
    hbar Z^n raises ValueError.
    """
    integer_coords(sym.spec, k)
    kk = as_point(sym.spec, k)
    b = _normalize_beta(sym.spec, beta)
    total = sum(b)
    tt = _as_theta(sym.spec, theta)
    if total == 0:
        return _value(sym.spec, tt, sym.eval_fn(kk, tt))
    if sym.deriv_fn is not None:
        out = sym.deriv_fn(kk, tt, b)
    elif sym.closed_form_coeffs is not None and sym.coeff_support_radius is not None:
        out = _closed_form_derivative(sym, kk, tt, b)
    elif total > FD_MAX_ORDER:
        raise ValueError(f"symbol '{sym.name}' has no exact theta derivative and central "
                         f"differences stop at order {FD_MAX_ORDER}, requested {total}")
    else:
        out = _finite_difference(sym, kk, tt, b)
    return _value(sym.spec, tt, out)


def _phase_sum(coeffs, freqs, theta, beta):
    """sum_z coeffs[z] prod_j (2 pi i z_j)^beta_j exp(2 pi i z_j theta_j), axis by axis.

    ``coeffs`` has one axis per torus axis, ``freqs[j]`` the integer
    frequencies along axis j, and the result the shape theta.shape[:-1].
    Axis j contributes a (points, len(freqs[j])) phase table that is
    contracted in turn, so a theta point costs sum_j len(freqs[j])
    exponentials rather than their product, and a coordinate value repeated
    across points (as on a quadrature grid) is exponentiated once.  A zero
    frequency factor (2 pi i 0)^beta_j contributes exactly 0, even against an
    infinite coefficient.
    """
    n = theta.shape[-1]
    t = theta.reshape(-1, n)
    tables = []
    for j, (f, bj) in enumerate(zip(freqs, beta)):
        if bj:
            w = ((2j * np.pi * f) ** bj).reshape((-1,) + (1,) * (n - 1 - j))
            coeffs = np.where(w == 0, 0, coeffs) * w
        values, where = np.unique(t[:, j], return_inverse=True)
        tables.append(np.exp(2j * np.pi * np.multiply.outer(values, f))[where.ravel()])
    # contract the last axis first; acc is (remaining axes, points)
    acc = coeffs.reshape(-1, len(freqs[-1])) @ tables[-1].T
    for f, table in zip(reversed(freqs[:-1]), reversed(tables[:-1])):
        acc = np.einsum("qsp,ps->qp", acc.reshape(-1, len(f), len(t)), table)
    return acc.reshape(theta.shape[:-1])


def _closed_form_derivative(sym, k, theta, beta):
    # the (2r + 1)^n coefficients of row k, one closed_form_coeffs call per offset
    r, n = sym.coeff_support_radius, sym.spec.dim
    z = integer_coords(sym.spec, k)[None]
    coeffs = [sym.closed_form_coeffs(z, off)[0]
              for off in enumerate_box_integers(sym.spec, BoxTruncation(r))]
    return _phase_sum(np.reshape(coeffs, (2 * r + 1,) * n), [np.arange(-r, r + 1)] * n,
                      theta, beta)


def _finite_difference(sym, k, theta, beta):
    # peel one derivative at a time; nested central differences
    axis = next(j for j, bj in enumerate(beta) if bj > 0)
    lower = tuple(bj - 1 if j == axis else bj for j, bj in enumerate(beta))
    step = np.zeros(sym.spec.dim)
    step[axis] = FD_STEP

    def value(t):
        if sum(lower) == 0:
            return np.asarray(sym.eval_fn(k, t), dtype=complex)
        return _finite_difference(sym, k, t, lower)

    return (value(theta + step) - value(theta - step)) / (2 * FD_STEP)


def periodicity_defect(sym: Symbol, k, theta, axis: int) -> float:
    """|sigma(k, theta) - sigma(k, theta + e_axis)|, without mod-1 reduction."""
    tt = _as_theta(sym.spec, theta)
    shifted = tt.copy()
    shifted[..., axis] += 1.0
    return abs(eval_symbol(sym, k, tt) - eval_symbol(sym, k, shifted))


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _norms(pts) -> np.ndarray:
    """|k| of each row k of ``pts`` (S, n), bit for bit as np.linalg.norm(k).

    A batched matmul forms each k . k in the order of a single dot product;
    np.einsum and np.sum(pts * pts, axis=1) can differ from it in the last bit.
    """
    return np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])


def _multiplier(spec: LatticeSpec, order: SymbolOrder, values: Callable, name: str) -> Symbol:
    """sigma(k, theta) = v(k): the diagonal operator of a function on the lattice.

    ``values`` maps points of shape (S, n) to their S values.
    """

    def ev(k, theta):
        return np.full(theta.shape[:-1], values(k[None])[0], dtype=complex)

    def cf(z_rows, z_offset):
        if np.any(z_offset):
            return np.zeros(len(z_rows))
        return values(spec.hbar * z_rows)

    return Symbol(spec, order, ev, closed_form_coeffs=cf, coeff_support_radius=0, name=name)


def constant_symbol(value, spec: LatticeSpec | None = None) -> Symbol:
    """sigma = value, independent of k and theta."""
    c = complex(value)
    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(0.0),
                       lambda pts: np.full(len(pts), c), f"constant({value})")


def difference_symbol(hbar: float = 1.0) -> Symbol:
    """Forward difference f(k + hbar) - f(k) on the 1-d lattice.

    sigma(k, theta) = exp(2 pi i theta) - 1, of order (0, 1, 0).
    """
    spec = LatticeSpec(hbar, 1)

    def ev(k, theta):
        return np.exp(2j * np.pi * theta[..., 0]) - 1.0

    def cf(z_rows, z_offset):
        return np.full(len(z_rows), {1: 1.0, 0: -1.0}.get(int(z_offset[0]), 0.0))

    return Symbol(spec, SymbolOrder(0.0, 1.0, 0.0), ev, closed_form_coeffs=cf,
                  coeff_support_radius=1, name="difference")


def multiplication_symbol(epsilon: float, spec: LatticeSpec | None = None) -> Symbol:
    """Diagonal multiplier sigma(k, theta) = |k|^epsilon (order epsilon).

    The unbounded case epsilon > 0 is the sharpness witness for the
    boundedness corollaries.
    """

    at_origin = 1.0 if epsilon == 0 else (0.0 if epsilon > 0 else np.inf)

    def values(pts):
        r = _norms(pts)
        out = np.full(len(r), at_origin)
        out[r > 0] = float_pow(r[r > 0], epsilon)
        return out

    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(float(epsilon), 1.0, 0.0),
                       values, f"multiplication(eps={epsilon})")


def schrodinger_symbol(V: Callable, lam: float, spec: LatticeSpec | None = None,
                       potential_order: float | None = None) -> Symbol:
    """Symbol of the shifted lattice Schrodinger operator.

    sigma(k, theta) = hbar^-2 * sum_j (2 - 2 cos 2 pi theta_j) + V(k) + lam.

    Derived from the hopping stencil, so the constant term is
    2*n*hbar^-2 + lam after averaging over theta; in one dimension with
    hbar = 1 this reduces to the familiar -2 cos(2 pi theta) + V(k) + lam + 2.
    """
    spec = spec or LatticeSpec(1.0, 1)
    if potential_order is None:
        potential_order = getattr(V, "mu", None)
    if potential_order is None:
        raise ValueError("potential_order is required when V does not carry an order attribute")
    h2 = spec.hbar ** -2

    def ev(k, theta):
        kin = h2 * np.sum(2.0 - 2.0 * np.cos(2 * np.pi * theta), axis=-1)
        return kin + float(V(k)) + lam + 0j

    def cf(z_rows, z_offset):
        hops = int(np.sum(np.abs(z_offset)))
        if hops == 0:
            v = np.array([float(V(k)) for k in spec.hbar * z_rows])
            return 2 * spec.dim * h2 + v + lam
        return np.full(len(z_rows), -h2 if hops == 1 else 0.0)

    return Symbol(spec, SymbolOrder(float(potential_order), 1.0, 0.0), ev,
                  closed_form_coeffs=cf, coeff_support_radius=1, name="schrodinger")


def decaying_test_symbol(s: float, a: float, b: float,
                         spec: LatticeSpec | None = None) -> Symbol:
    """sigma(k, theta) = (1+|k|)^-s * (a + b cos 2 pi theta_1), order (-s, 1, 0).

    Decaying family used to exercise the nuclearity sums and the diagonal
    eigenvalue approximation.
    """
    spec = spec or LatticeSpec(1.0, 1)

    def radial(pts):
        return float_pow(1.0 + _norms(pts), -s)

    def ev(k, theta):
        return radial(k[None])[0] * (a + b * np.cos(2 * np.pi * theta[..., 0])) + 0j

    def cf(z_rows, z_offset):
        if np.any(z_offset[1:]) or abs(z_offset[0]) > 1:
            return np.zeros(len(z_rows))
        r = radial(spec.hbar * z_rows)
        return a * r if z_offset[0] == 0 else 0.5 * b * r

    return Symbol(spec, SymbolOrder(-float(s), 1.0, 0.0), ev,
                  closed_form_coeffs=cf, coeff_support_radius=1,
                  name=f"decaying(s={s},a={a},b={b})")


def _check_anharmonic_power(l):
    if int(l) != l or l < 1:
        raise ValueError(f"anharmonic power l must be a natural number, got {l}")


def anharmonic_value(c: float, l: int) -> Callable:
    """k -> c |k|^(2l), after checking that l is a natural number."""
    _check_anharmonic_power(l)
    return lambda k: c * float(np.linalg.norm(k)) ** (2 * l)


def polynomial_potential(c: float, l: int, spec: LatticeSpec | None = None) -> Symbol:
    """Anharmonic multiplier sigma(k, theta) = c |k|^(2l), order 2l.

    Its values are those of `anharmonic_value`, computed for all points at once.
    """
    _check_anharmonic_power(l)
    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(2.0 * l, 1.0, 0.0),
                       lambda pts: c * float_pow(_norms(pts), 2 * l),
                       f"anharmonic(c={c},l={l})")


def symbol_from_matrix(K) -> Symbol:
    """Symbol of the operator induced by a truncated kernel matrix.

    For a row point k of K's box, sigma(k, theta) is the trigonometric
    polynomial sum_m K(k, m) exp(+2 pi i (m - k) . theta / hbar); lattice
    rows outside the box evaluate to zero.  Reassembling a kernel from this
    symbol reproduces K (finite Fourier inversion).  Coefficients are
    computed by quadrature, which is exact while the box bandwidth stays
    below half the sampling rate.

    Values and theta-derivatives both go through `_phase_sum`: the row is
    viewed as a (2R+1,)*n tensor over integer column coordinates a, with
    frequencies a - z_j along axis j (z the row's integer coordinates), so a
    theta point costs at most n(2R+1) exponentials rather than (2R+1)^n.
    """
    spec = K.spec
    r = K.box.radius
    rows = np.asarray(K.entries).reshape((2 * r + 1,) * (2 * spec.dim))
    offsets = np.arange(-r, r + 1)

    def phase_sum(k, theta, beta):
        z = integer_coords(spec, k)
        if np.any(np.abs(z) > r):
            return np.zeros(theta.shape[:-1], dtype=complex)
        return _phase_sum(rows[tuple(z + r)], list(offsets - z[:, None]), theta, beta)

    def ev(k, theta):
        return phase_sum(k, theta, (0,) * spec.dim)

    return Symbol(spec, SymbolOrder(0.0, 1.0, 0.0), ev, deriv_fn=phase_sum,
                  name="matrix-symbol")
