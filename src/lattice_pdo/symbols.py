"""Symbols sigma(k, theta) on lattice x torus, and the built-in families.

A symbol is a function of a lattice point ``k`` and a torus point ``theta``
with coordinates in [0, 1); evaluation is 1-periodic in each theta
coordinate.  Torus frequencies are the integers m/hbar, so the quadrature
grid of the fourier module resolves them exactly.

Order metadata (mu, rho, delta) feeds the boundedness / compactness /
nuclearity decision engine in `criteria`.  rho is carried for completeness
only; no implemented criterion consumes it.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .lattice import (BoxTruncation, LatticeSpec, as_point, box_shape,
                      enumerate_box_integers, integer_coords)
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

    A symbol with a finite series over integer frequencies takes its values
    and its theta-derivatives of every order from it (`theta_derivative`).
    The series of row z, the point hbar z, is row_series(z) when present: a
    coefficient tensor with one axis per torus axis, and each axis's integer
    frequencies.  Otherwise it is gathered from closed_form_coeffs when
    ``coeff_support_radius`` is finite.  closed_form_coeffs(z_rows, z_offset)
    gives the torus Fourier coefficients at the integer frequency
    ``z_offset`` (n,) of the integer rows ``z_rows`` (S, n): S values, real
    or complex, zero once |z_offset|_inf exceeds ``coeff_support_radius``
    (None if unknown).  Any other symbol is eval_fn(k, theta), for ``k`` of
    shape (n,) and ``theta`` of shape (..., n), vectorized to theta.shape[:-1].
    """

    spec: LatticeSpec
    order: SymbolOrder
    eval_fn: Optional[Callable] = None
    row_series: Optional[Callable] = None
    closed_form_coeffs: Optional[Callable] = None
    coeff_support_radius: Optional[int] = None
    name: str = "symbol"

    def __post_init__(self):
        if self.eval_fn is None and self.row_series is None and (
                self.closed_form_coeffs is None or self.coeff_support_radius is None):
            raise ValueError(f"symbol '{self.name}' has neither eval_fn nor a finite series")


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

    A symbol with a finite series sums prod_j (2 pi i z_j)^beta_j c(k, z)
    exp(2 pi i z . theta) over its frequencies z, for its values (beta = 0)
    and its derivatives of every order alike.  Any other symbol gives eval_fn
    and central differences of it up to total order FD_MAX_ORDER.  A k off
    the lattice hbar Z^n raises ValueError.
    """
    kk = as_point(sym.spec, k)
    z = integer_coords(sym.spec, kk)
    b = _normalize_beta(sym.spec, beta)
    tt = _as_theta(sym.spec, theta)
    series = _series(sym, z)
    if series is not None:
        out = _phase_sum(*series, tt, b)
    elif sum(b) == 0:
        out = sym.eval_fn(kk, tt)
    elif sum(b) > FD_MAX_ORDER:
        raise ValueError(f"symbol '{sym.name}' has no exact theta derivative and central "
                         f"differences stop at order {FD_MAX_ORDER}, requested {sum(b)}")
    else:
        out = _finite_difference(sym, kk, tt, b)
    return _value(sym.spec, tt, out)


def _series(sym: Symbol, z):
    # row z's coefficient tensor and per-axis frequencies; None without a finite series
    if sym.row_series is not None:
        return sym.row_series(z)
    r = sym.coeff_support_radius
    if sym.closed_form_coeffs is None or r is None:
        return None
    box = BoxTruncation(r)
    offsets = enumerate_box_integers(sym.spec, box)
    coeffs = [sym.closed_form_coeffs(z[None], off)[0] for off in offsets]
    return np.reshape(coeffs, box_shape(sym.spec, box)), [np.arange(-r, r + 1)] * sym.spec.dim


def _phase_sum(coeffs, freqs, theta, beta):
    """sum_z coeffs[z] prod_j (2 pi i z_j)^beta_j exp(2 pi i z_j theta_j), axis by axis.

    ``coeffs`` has one axis per torus axis, ``freqs[j]`` the integer
    frequencies along axis j, and the result the shape theta.shape[:-1].
    Axis j contributes a (points, len(freqs[j])) phase table that is
    contracted in turn, so a theta point costs sum_j len(freqs[j])
    exponentials rather than their product, and a coordinate value repeated
    across points (as on a quadrature grid) is exponentiated once.  A zero
    frequency factor (2 pi i 0)^beta_j contributes exactly 0, and a series of
    frequency 0 alone is its coefficient, inf + 0j included (never a product
    with the phase 1 + 0j, which would turn inf into nan).
    """
    if not any(np.any(f) for f in freqs):
        return np.full(theta.shape[:-1], 0j if any(beta) else np.asarray(coeffs).item(),
                       dtype=complex)
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
    """sigma(k, theta) = v(k), for ``values`` mapping points (S, n) to their S values v."""

    def cf(z_rows, z_offset):
        if np.any(z_offset):
            return np.zeros(len(z_rows))
        return values(spec.hbar * z_rows)

    return Symbol(spec, order, closed_form_coeffs=cf, coeff_support_radius=0, name=name)


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

    def cf(z_rows, z_offset):
        return np.full(len(z_rows), {1: 1.0, 0: -1.0}.get(int(z_offset[0]), 0.0))

    return Symbol(spec, SymbolOrder(0.0, 1.0, 0.0), closed_form_coeffs=cf,
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

    def cf(z_rows, z_offset):
        hops = int(np.sum(np.abs(z_offset)))
        if hops == 0:
            v = np.array([float(V(k)) for k in spec.hbar * z_rows])
            return 2 * spec.dim * h2 + v + lam
        return np.full(len(z_rows), -h2 if hops == 1 else 0.0)

    return Symbol(spec, SymbolOrder(float(potential_order), 1.0, 0.0),
                  closed_form_coeffs=cf, coeff_support_radius=1, name="schrodinger")


def decaying_test_symbol(s: float, a: float, b: float,
                         spec: LatticeSpec | None = None) -> Symbol:
    """sigma(k, theta) = (1+|k|)^-s * (a + b cos 2 pi theta_1), order (-s, 1, 0).

    Decaying family used to exercise the nuclearity sums and the diagonal
    eigenvalue approximation.
    """
    spec = spec or LatticeSpec(1.0, 1)

    def cf(z_rows, z_offset):
        if np.any(z_offset[1:]) or abs(z_offset[0]) > 1:
            return np.zeros(len(z_rows))
        r = float_pow(1.0 + _norms(spec.hbar * z_rows), -s)
        return a * r if z_offset[0] == 0 else 0.5 * b * r

    return Symbol(spec, SymbolOrder(-float(s), 1.0, 0.0), closed_form_coeffs=cf,
                  coeff_support_radius=1, name=f"decaying(s={s},a={a},b={b})")


def anharmonic_value(c: float, l: int) -> Callable:
    """|k| -> c |k|^(2l) by the C pow, the one anharmonic formula; l must be a natural number."""
    if int(l) != l or l < 1:
        raise ValueError(f"anharmonic power l must be a natural number, got {l}")
    return lambda r: c * math.pow(r, 2 * l)


def polynomial_potential(c: float, l: int, spec: LatticeSpec | None = None) -> Symbol:
    """Anharmonic multiplier sigma(k, theta) = c |k|^(2l) (`anharmonic_value`), order 2l."""
    value = anharmonic_value(c, l)
    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(2.0 * l, 1.0, 0.0),
                       lambda pts: np.array([value(r) for r in _norms(pts).tolist()]),
                       f"anharmonic(c={c},l={l})")


def symbol_from_matrix(K) -> Symbol:
    """Symbol of the operator induced by a truncated kernel matrix.

    For a row point k of K's box, sigma(k, theta) is the trigonometric
    polynomial sum_m K(k, m) exp(+2 pi i (m - k) . theta / hbar); lattice
    rows outside the box evaluate to zero.  Reassembling a kernel from this
    symbol reproduces K (finite Fourier inversion).  It has no closed form:
    quadrature reassembles it exactly while 4R + 1 <= n_samples (rows reach
    offset 2R), and refuses a wider box.

    Its series is the row viewed as a (2R+1,)*n tensor over integer column
    coordinates a, with frequencies a - z_j along axis j (z the row's integer
    coordinates), so a theta point costs at most n(2R+1) exponentials rather
    than (2R+1)^n.
    """
    spec = K.spec
    r = K.box.radius
    rows = np.asarray(K.entries).reshape(2 * box_shape(spec, K.box))
    offsets = np.arange(-r, r + 1)
    outside = np.zeros((1,) * spec.dim), [np.zeros(1, dtype=np.int64)] * spec.dim

    def row_series(z):
        if np.any(np.abs(z) > r):
            return outside
        return rows[tuple(z + r)], list(offsets - z[:, None])

    return Symbol(spec, SymbolOrder(0.0, 1.0, 0.0), row_series=row_series, name="matrix-symbol")


def values_only(sym: Symbol) -> Symbol:
    """``sym`` given by its values alone, so that its coefficients come from quadrature."""
    return replace(sym, eval_fn=partial(eval_symbol, sym), row_series=None,
                   closed_form_coeffs=None, coeff_support_radius=None)
