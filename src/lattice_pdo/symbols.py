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

from .lattice import LatticeSpec, as_point, index_of, integer_coords

FD_STEP = 1e-5  # central-difference step for theta derivatives


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
    (..., n) and evaluate vectorized over the leading axes.  deriv_fn, when
    present, returns the analytic theta-derivative for a multi-index beta;
    otherwise derivatives up to ``deriv_order_available`` are formed by
    central differences.  closed_form_coeffs(z_rows, z_offset), when
    present, returns the torus Fourier coefficients without quadrature:
    for integer row coordinates ``z_rows`` of shape (S, n) (the points
    hbar * z_rows) and one integer frequency ``z_offset`` of shape (n,),
    an array of S coefficients, real or complex.  ``coeff_support_radius``
    bounds |z_offset|_inf of its nonzeros (None if unbounded / unknown).
    """

    spec: LatticeSpec
    order: SymbolOrder
    eval_fn: Callable
    deriv_fn: Optional[Callable] = None
    deriv_order_available: Optional[int] = None  # None: any order
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


def eval_symbol(sym: Symbol, k, theta) -> complex:
    """Evaluate sigma(k, theta); scalar for a single theta point."""
    kk = as_point(sym.spec, k)
    tt = _as_theta(sym.spec, theta)
    out = np.asarray(sym.eval_fn(kk, tt), dtype=complex)
    if tt.shape == (sym.spec.dim,):
        return complex(out)
    return out


def _normalize_beta(spec: LatticeSpec, beta):
    if np.isscalar(beta):
        if spec.dim != 1:
            raise ValueError("scalar beta is only allowed for 1-dimensional symbols")
        beta = (int(beta),)
    b = tuple(int(x) for x in beta)
    if len(b) != spec.dim or any(x < 0 for x in b):
        raise ValueError(f"beta must be a multi-index of length {spec.dim}, got {beta}")
    return b


def theta_derivative(sym: Symbol, k, theta, beta) -> complex:
    """D_theta^beta sigma(k, theta): analytic when available, else central differences."""
    b = _normalize_beta(sym.spec, beta)
    total = sum(b)
    if total == 0:
        return eval_symbol(sym, k, theta)
    if sym.deriv_order_available is not None and total > sym.deriv_order_available:
        raise ValueError(
            f"symbol '{sym.name}' supports theta derivatives up to order "
            f"{sym.deriv_order_available}, requested {total}"
        )
    kk = as_point(sym.spec, k)
    tt = _as_theta(sym.spec, theta)
    if sym.deriv_fn is not None:
        return complex(np.asarray(sym.deriv_fn(kk, tt, b), dtype=complex))
    return _finite_difference(sym, kk, tt, b)


def _finite_difference(sym, k, theta, beta):
    # peel one derivative at a time; nested central differences
    axis = next(j for j, bj in enumerate(beta) if bj > 0)
    lower = tuple(bj - 1 if j == axis else bj for j, bj in enumerate(beta))
    step = np.zeros(sym.spec.dim)
    step[axis] = FD_STEP

    def value(t):
        if sum(lower) == 0:
            return complex(np.asarray(sym.eval_fn(k, t), dtype=complex))
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

def _multiplier(spec: LatticeSpec, order: SymbolOrder, value: Callable, name: str) -> Symbol:
    """sigma(k, theta) = value(k): the diagonal operator of a function on the lattice."""

    def ev(k, theta):
        return np.full(theta.shape[:-1], value(k), dtype=complex)

    def dv(k, theta, beta):
        return 0j

    def cf(z_rows, z_offset):
        if np.any(z_offset):
            return np.zeros(len(z_rows))
        return np.array([value(k) for k in spec.hbar * z_rows])

    return Symbol(spec, order, ev, deriv_fn=dv, closed_form_coeffs=cf,
                  coeff_support_radius=0, name=name)


def constant_symbol(value, spec: LatticeSpec | None = None) -> Symbol:
    """sigma = value, independent of k and theta."""
    c = complex(value)
    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(0.0), lambda k: c,
                       f"constant({value})")


def difference_symbol(hbar: float = 1.0) -> Symbol:
    """Forward difference f(k + hbar) - f(k) on the 1-d lattice.

    sigma(k, theta) = exp(2 pi i theta) - 1, of order (0, 1, 0).
    """
    spec = LatticeSpec(hbar, 1)

    def ev(k, theta):
        return np.exp(2j * np.pi * theta[..., 0]) - 1.0

    def dv(k, theta, beta):
        return (2j * np.pi) ** beta[0] * np.exp(2j * np.pi * theta[..., 0])

    def cf(z_rows, z_offset):
        return np.full(len(z_rows), {1: 1.0, 0: -1.0}.get(int(z_offset[0]), 0.0))

    return Symbol(spec, SymbolOrder(0.0, 1.0, 0.0), ev, deriv_fn=dv,
                  closed_form_coeffs=cf, coeff_support_radius=1,
                  name="difference")


def multiplication_symbol(epsilon: float, spec: LatticeSpec | None = None) -> Symbol:
    """Diagonal multiplier sigma(k, theta) = |k|^epsilon (order epsilon).

    The unbounded case epsilon > 0 is the sharpness witness for the
    boundedness corollaries.
    """

    def value(k):
        r = float(np.linalg.norm(k))
        if r > 0:
            return r ** epsilon
        return 1.0 if epsilon == 0 else (0.0 if epsilon > 0 else np.inf)

    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(float(epsilon), 1.0, 0.0),
                       value, f"multiplication(eps={epsilon})")


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

    def dv(k, theta, beta):
        active = [j for j, bj in enumerate(beta) if bj > 0]
        if len(active) != 1:
            return 0j  # kinetic part is a sum of single-axis terms
        j = active[0]
        q = beta[j]
        # d^q/dtheta^q of -2 cos(2 pi theta): cycle cos -> sin -> cos ...
        w = (2 * np.pi) ** q
        phase = q % 4
        base = np.cos(2 * np.pi * theta[..., j])
        if phase == 1:
            val = 2 * w * np.sin(2 * np.pi * theta[..., j])
        elif phase == 2:
            val = 2 * w * base
        elif phase == 3:
            val = -2 * w * np.sin(2 * np.pi * theta[..., j])
        else:
            val = -2 * w * base
        return complex(h2 * val)

    def cf(z_rows, z_offset):
        hops = int(np.sum(np.abs(z_offset)))
        if hops == 0:
            v = np.array([float(V(k)) for k in spec.hbar * z_rows])
            return 2 * spec.dim * h2 + v + lam
        return np.full(len(z_rows), -h2 if hops == 1 else 0.0)

    return Symbol(spec, SymbolOrder(float(potential_order), 1.0, 0.0), ev, deriv_fn=dv,
                  closed_form_coeffs=cf, coeff_support_radius=1,
                  name="schrodinger")


def decaying_test_symbol(s: float, a: float, b: float,
                         spec: LatticeSpec | None = None) -> Symbol:
    """sigma(k, theta) = (1+|k|)^-s * (a + b cos 2 pi theta_1), order (-s, 1, 0).

    Decaying family used to exercise the nuclearity sums and the diagonal
    eigenvalue approximation.
    """
    spec = spec or LatticeSpec(1.0, 1)

    def radial(k):
        return (1.0 + float(np.linalg.norm(k))) ** (-s)

    def ev(k, theta):
        return radial(k) * (a + b * np.cos(2 * np.pi * theta[..., 0])) + 0j

    def dv(k, theta, beta):
        if any(bj > 0 for bj in beta[1:]):
            return 0j
        q = beta[0]
        w = (2 * np.pi) ** q
        t = theta[..., 0]
        phase = q % 4
        if phase == 1:
            val = -b * w * np.sin(2 * np.pi * t)
        elif phase == 2:
            val = -b * w * np.cos(2 * np.pi * t)
        elif phase == 3:
            val = b * w * np.sin(2 * np.pi * t)
        else:
            val = b * w * np.cos(2 * np.pi * t)
        return complex(radial(k) * val)

    def cf(z_rows, z_offset):
        if np.any(z_offset[1:]) or abs(z_offset[0]) > 1:
            return np.zeros(len(z_rows))
        r = np.array([radial(k) for k in spec.hbar * z_rows])
        return a * r if z_offset[0] == 0 else 0.5 * b * r

    return Symbol(spec, SymbolOrder(-float(s), 1.0, 0.0), ev, deriv_fn=dv,
                  closed_form_coeffs=cf, coeff_support_radius=1,
                  name=f"decaying(s={s},a={a},b={b})")


def polynomial_potential(c: float, l: int, spec: LatticeSpec | None = None) -> Symbol:
    """Anharmonic multiplier sigma(k, theta) = c |k|^(2l), order 2l."""
    if int(l) != l or l < 1:
        raise ValueError(f"anharmonic power l must be a natural number, got {l}")
    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(2.0 * l, 1.0, 0.0),
                       lambda k: c * float(np.linalg.norm(k)) ** (2 * l),
                       f"anharmonic(c={c},l={l})")


def symbol_from_matrix(K) -> Symbol:
    """Symbol of the operator induced by a truncated kernel matrix.

    For a row point k of K's box, sigma(k, theta) is the trigonometric
    polynomial sum_m K(k, m) exp(+2 pi i (m - k) . theta / hbar); rows
    outside the box evaluate to zero.  Reassembling a kernel from this
    symbol reproduces K (finite Fourier inversion).  Coefficients are
    computed by quadrature, which is exact while the box bandwidth stays
    below half the sampling rate.

    The sum is evaluated one axis at a time: the row is viewed as a
    (2R+1,)*n tensor over integer column coordinates a, and each axis j
    contributes a (points, 2R+1) phase table exp(2 pi i theta_j (a - z_j))
    (z the row's integer coordinates) that is contracted in turn.  A theta
    point thus costs at most n(2R+1) exponentials rather than (2R+1)^n, and
    a coordinate value repeated across points (as on a quadrature grid) is
    exponentiated once.  The theta-derivative multiplies each table by
    (2 pi i (a - z_j))^beta_j.
    """
    spec = K.spec
    box = K.box
    side = 2 * box.radius + 1
    rows = np.asarray(K.entries).reshape((-1,) + (side,) * spec.dim)
    offsets = np.arange(-box.radius, box.radius + 1)

    def phase_sum(k, theta, beta):
        try:
            row = rows[index_of(spec, box, k)]
        except ValueError:
            return np.zeros(theta.shape[:-1], dtype=complex)
        z = integer_coords(spec, k)
        t = theta.reshape(-1, spec.dim)
        tables = []
        for j, bj in enumerate(beta):
            freqs = offsets - z[j]
            # one exponential per distinct coordinate: a tensor grid repeats them
            values, where = np.unique(t[:, j], return_inverse=True)
            table = np.exp(2j * np.pi * np.multiply.outer(values, freqs))
            if bj:
                table *= (2j * np.pi * freqs) ** bj
            tables.append(table[where.ravel()])
        # contract the last axis first; acc is (remaining column axes, points)
        acc = row.reshape(-1, side) @ tables[-1].T
        for table in reversed(tables[:-1]):
            acc = np.einsum("qsp,ps->qp", acc.reshape(-1, side, len(t)), table)
        return acc.reshape(theta.shape[:-1])

    def ev(k, theta):
        return phase_sum(k, theta, (0,) * spec.dim)

    return Symbol(spec, SymbolOrder(0.0, 1.0, 0.0), ev, deriv_fn=phase_sum,
                  name="matrix-symbol")
