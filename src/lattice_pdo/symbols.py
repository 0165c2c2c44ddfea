"""Symbols sigma(k, theta) on lattice x torus, and the built-in families.

A symbol is a function of a lattice point ``k`` and a torus point ``theta``
with coordinates in [0, 1); evaluation is 1-periodic in each theta
coordinate.  Torus frequencies are the integers m/hbar.

Order metadata (mu, rho, delta) feeds the boundedness / compactness /
nuclearity decision engine in `criteria`.  rho is carried for completeness
only; no implemented criterion consumes it.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .lattice import (BoxTruncation, LatticeSpec, as_point, box_shape, box_strides,
                      enumerate_box_integers, integer_coords)
from ._util import check_fits, float_pow, rows_per_block


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

    A symbol is a finite series, read by one reader (`_series_blocks`), or its
    values alone, eval_fn(k, theta) for ``k`` (n,) and ``theta`` (..., n),
    vectorized to theta.shape[:-1].  A series is row_series(z_rows), giving the
    integer rows z_rows (S, n), row z the point hbar z, as ``(coeffs, low)``:
    coeffs (S, *shape), a tensor a row with one axis per torus axis and one
    shape in every call (a call with no rows gives it), all zeros for a row
    with no terms, and low (S, n), each row's lowest integer frequency on each
    axis, whose frequencies are low[s, j] + arange(shape[j]).  Or it is a
    closed form closed_form_coeffs(z_rows, z_offsets), the (S, M) table at the
    integer frequencies z_offsets (M, n), declared 0 past its
    ``coeff_support_radius`` r >= 0 and read as its table at the (2r+1)^n
    offsets of radius r.  A series gives the values, the theta-derivatives of
    every order (`theta_derivative`) and the coefficients, exactly and whole:
    one that is not finite is refused wherever its row is read.
    """

    spec: LatticeSpec
    order: SymbolOrder
    eval_fn: Optional[Callable] = None
    row_series: Optional[Callable] = None
    closed_form_coeffs: Optional[Callable] = None
    coeff_support_radius: Optional[int] = None
    name: str = "symbol"

    def __post_init__(self):
        r = self.coeff_support_radius
        if self.closed_form_coeffs is not None and r is None:
            raise ValueError(f"symbol '{self.name}' has a closed form without a support radius")
        if r is not None and (isinstance(r, bool) or not isinstance(r, (int, np.integer)) or r < 0):
            raise ValueError(f"symbol '{self.name}' has support radius {r!r}, "
                             "not a non-negative integer")
        if self.eval_fn is None and self.row_series is None and self.closed_form_coeffs is None:
            raise ValueError(f"symbol '{self.name}' has neither eval_fn nor a series")


def eval_symbol(sym: Symbol, k, theta):
    """sigma(k, theta): `theta_derivative` of order 0."""
    return theta_derivative(sym, k, theta, (0,) * sym.spec.dim)


def theta_derivative(sym: Symbol, k, theta, beta):
    """D_theta^beta sigma(k, theta): a scalar for one theta point, else theta.shape[:-1].

    A symbol with a finite series sums prod_j (2 pi i z_j)^beta_j c(k, z)
    exp(2 pi i z . theta) over its frequencies z, for its values (beta = 0)
    and its derivatives of every order alike.  A symbol given by values
    alone gives eval_fn for beta = 0 and raises ValueError for any higher
    order.  A k off the lattice hbar Z^n raises ValueError.
    """
    n = sym.spec.dim
    kk = as_point(sym.spec, k)
    z = integer_coords(sym.spec, kk)
    if np.isscalar(beta):
        if n != 1:
            raise ValueError("scalar beta is only allowed for 1-dimensional symbols")
        beta = (int(beta),)
    b = tuple(int(x) for x in beta)
    if len(b) != n or any(x < 0 for x in b):
        raise ValueError(f"beta must be a multi-index of length {n}, got {beta}")
    tt = np.atleast_1d(np.asarray(theta, dtype=float))
    if tt.shape[-1] != n:
        raise ValueError(f"theta must have last axis of length {n}, got shape {tt.shape}")
    series = _series(sym, z)
    if series is not None:
        out = _phase_sum(*series, tt, b)
    elif sum(b) == 0:
        out = sym.eval_fn(kk, tt)
    else:
        raise ValueError(f"symbol '{sym.name}' is given by its values alone and has no "
                         f"theta derivative of order {sum(b)}")
    out = np.asarray(out, dtype=complex)
    return complex(out) if tt.shape == (n,) else out


def _series(sym: Symbol, z):
    # row z's (coeffs, low), read as one block; None for a symbol given by its values
    series = _series_blocks(sym, 0)
    if series is not None:
        _, coeffs, low = next(series[1](z[None]))
        return coeffs[0], low[0]


def _phase_sum(coeffs, low, theta, beta):
    """sum_z coeffs[z] prod_j (2 pi i z_j)^beta_j exp(2 pi i z_j theta_j), point by point.

    ``coeffs`` has one axis per torus axis, ``low[j]`` the lowest integer
    frequency along axis j, and the result the shape theta.shape[:-1]:
    sum_j coeffs.shape[j] exponentials a point, contracted last axis first.
    A zero frequency factor (2 pi i 0)^beta_j contributes exactly 0.
    """
    if not coeffs.any() or (coeffs.size == 1 and not np.any(low)):
        # no terms (a row off a matrix's box), or frequency 0 alone: its coefficient, inf + 0j
        # included (never times the phase 1 + 0j, which makes inf nan), and 0 for a derivative
        value = 0j if any(beta) or not coeffs.any() else coeffs.item()
        return np.full(theta.shape[:-1], value, dtype=complex)
    freqs = [lj + np.arange(size) for lj, size in zip(low, coeffs.shape)]
    n = theta.shape[-1]
    t = theta.reshape(-1, n)
    # complex values a point: every phase table (the sum of the widths), the first
    # partial sum (the product of all widths but the last) and the one built from it
    # (all but the last two); while a table is built, 24 more bytes an entry (its
    # float phases and their complex multiple); and a scaled copy of coeffs
    widths = coeffs.shape
    check_fits(16 * coeffs.size + len(t) * (
        16 * (sum(widths) + math.prod(widths[:-1]) + math.prod(widths[:-2])) + 24 * max(widths)),
        f"phase sums over {coeffs.size} frequencies at {len(t)} points")
    tables = []
    for j, (f, bj) in enumerate(zip(freqs, beta)):
        if bj:
            w = ((2j * np.pi * f) ** bj).reshape((-1,) + (1,) * (n - 1 - j))
            coeffs = np.where(w == 0, 0, coeffs) * w
        tables.append(np.exp(2j * np.pi * np.multiply.outer(t[:, j], f)))
    # contract the last axis first; acc is (remaining axes, points)
    acc = coeffs.reshape(-1, len(freqs[-1])) @ tables[-1].T
    for f, table in zip(reversed(freqs[:-1]), reversed(tables[:-1])):
        acc = np.einsum("qsp,ps->qp", acc.reshape(-1, len(f), len(t)), table)
    return acc.reshape(theta.shape[:-1])


def series_coefficients(sym: Symbol, z_rows, z_offsets) -> Optional[np.ndarray]:
    """Coefficients (S, M) of the rows z_rows (S, n) at the frequencies z_offsets (M, n).

    One table in the tensors' dtype, filled by blocks of rows; None for values alone.
    """
    series = _series_blocks(sym, len(z_offsets))
    if series is None:
        return None
    table = None
    for i, coeffs, low in series[1](z_rows):
        if table is None:
            table = np.zeros((len(z_rows), len(z_offsets)), dtype=coeffs.dtype)
        _series_gather(coeffs, low, z_offsets, out=table[i:i + len(coeffs)])
    return table


def _series_blocks(sym: Symbol, width: int):
    """(tensor shape, blocks) of a finite series, the one reader of it; None for values alone.

    blocks(z_rows) yields (first row, coeffs, low) of one read a block of at least one, each
    ~1 MiB of tensors and of ``width``-entry output rows.  A closed form is read as its
    (2r+1)^n table at lowest frequency -r; a row_series gives its shape in a call with no rows.
    """
    if sym.closed_form_coeffs is not None:
        box = BoxTruncation(sym.coeff_support_radius)
        offsets, shape = enumerate_box_integers(sym.spec, box), box_shape(sym.spec, box)
        width = 0  # rows that share their low are gathered with no per-row index

        def read(z_rows):
            return (sym.closed_form_coeffs(z_rows, offsets).reshape((len(z_rows),) + shape),
                    np.broadcast_to(-box.radius, z_rows.shape))
    elif sym.row_series is not None:
        read = sym.row_series
        shape = read(np.zeros((0, sym.spec.dim), np.int64))[0].shape[1:]
    else:
        return None
    step = rows_per_block(max(width, math.prod(shape)))

    def blocks(z_rows):
        try:
            for i in range(0, max(len(z_rows), 1), step):
                yield i, *read(z_rows[i:i + step])
        except NonFiniteError:  # refused as one read of every row is, at the least norm
            read(z_rows)
            raise

    return shape, blocks


def _series_gather(coeffs, low, z_offsets, out) -> None:
    # into ``out`` (B, M) of zeros: row s's coefficient at frequency z_offsets[j], where its index
    # z_offsets[j] - low[s] is in its tensor; one low broadcast to all rows, one pick of columns
    shape = coeffs.shape[1:]
    tensors = coeffs.reshape(len(coeffs), math.prod(shape))
    shared = len(low) > 0 and low.strides[0] == 0
    index = [zj - lj[:, None] for zj, lj in zip(z_offsets.T, (low[:1] if shared else low).T)]
    inside = np.logical_and.reduce([(i >= 0) & (i < side) for i, side in zip(index, shape)])
    flat = np.ravel_multi_index(index, shape, mode="clip")  # clipped where not inside
    del index
    if shared:
        out[:, inside[0]] = tensors[:, flat[0, inside[0]]]
    else:
        flat += np.arange(len(coeffs))[:, None] * tensors.shape[1]  # row s's tensor, flattened
        np.take(tensors, flat, out=out, mode="clip")
        out[~inside] = 0


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _norms(pts) -> np.ndarray:
    """|k| of each row k of ``pts`` (S, n), bit for bit as np.linalg.norm(k).

    A batched matmul forms each k . k in the order of a single dot product;
    np.einsum and np.sum(pts * pts, axis=1) can differ from it in the last bit.
    """
    return np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])


class NonFiniteError(ValueError):
    """A family's formula is not finite (past float64) at a point a computation reaches."""


def _finite_at(pts, values, what) -> np.ndarray:
    """``values`` of ``what`` at the points ``pts`` (S, n), if all are finite.

    Otherwise NonFiniteError names the first point, of least norm, where
    they are not.
    """
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        norms = _norms(pts[bad])
        i = np.argmin(norms)
        raise NonFiniteError(f"{what} is not finite at k = {pts[bad[i]].tolist()}, "
                             f"|k| = {norms[i]}: {values[bad[i]]}")
    return values


def _multiplier(spec: LatticeSpec, order: SymbolOrder, values: Callable, name: str) -> Symbol:
    """sigma(k, theta) = v(k), for ``values`` mapping points (S, n) to their S values v."""

    def cf(z_rows, z_offsets):
        return np.where(~np.any(z_offsets, axis=1), values(spec.hbar * z_rows)[:, None], 0)

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

    def cf(z_rows, z_offsets):
        z = z_offsets[:, 0]
        return np.tile(np.select([z == 1, z == 0], [1.0, -1.0]), (len(z_rows), 1))

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
        away = r > 0  # the inf of epsilon < 0 at k = 0 is the symbol's value there
        out[away] = _finite_at(pts[away], float_pow(r[away], epsilon),
                               f"|k|^epsilon with epsilon={epsilon}")
        return out

    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(float(epsilon), 1.0, 0.0),
                       values, f"multiplication(eps={epsilon})")


def schrodinger_symbol(V: Callable, lam: float, spec: LatticeSpec | None = None,
                       potential_order: float | None = None) -> Symbol:
    """Symbol of the shifted lattice Schrodinger operator.

    sigma(k, theta) = hbar^-2 * sum_j (2 - 2 cos 2 pi theta_j) + V(k) + lam.

    V is a scalar callable of a point k (n,); a V with an ``array_fn``
    attribute (a `PotentialSpec` that has one) is read through it instead,
    one array over the points (S, n).

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
    # V at every point at once where it has an array form, else point by point
    values = getattr(V, "array_fn", None) or (lambda pts: np.array([float(V(k)) for k in pts]))

    def cf(z_rows, z_offsets):
        hops = np.sum(np.abs(z_offsets), axis=1)
        out = np.tile(np.where(hops == 1, -h2, 0.0), (len(z_rows), 1))
        pts = spec.hbar * z_rows
        out[:, hops == 0] = (2 * spec.dim * h2 + _finite_at(pts, values(pts), "potential")
                             + lam)[:, None]
        return out

    return Symbol(spec, SymbolOrder(float(potential_order), 1.0, 0.0),
                  closed_form_coeffs=cf, coeff_support_radius=1, name="schrodinger")


def decaying_test_symbol(s: float, a: float, b: float,
                         spec: LatticeSpec | None = None) -> Symbol:
    """sigma(k, theta) = (1+|k|)^-s * (a + b cos 2 pi theta_1), order (-s, 1, 0).

    Decaying family used to exercise the nuclearity sums and the diagonal
    eigenvalue approximation.  A coefficient past float64 raises
    NonFiniteError, naming the point.
    """
    spec = spec or LatticeSpec(1.0, 1)

    def cf(z_rows, z_offsets):
        hops = np.where(np.any(z_offsets[:, 1:], axis=1), 2, np.abs(z_offsets[:, 0]))
        pts = spec.hbar * z_rows
        r = _finite_at(pts, float_pow(1.0 + _norms(pts), -s), f"(1+|k|)^-s with s={s}")
        out = np.zeros((len(z_rows), len(z_offsets)))
        for hop, c, name in ((1, 0.5 * b, "b/2"), (0, a, "a")):  # the order a box meets them
            with np.errstate(over="ignore"):  # refused by name below, not warned about
                out[:, hops == hop] = _finite_at(pts, c * r, f"{name} (1+|k|)^-s with "
                                                             f"a={a}, b={b}, s={s}")[:, None]
        return out

    return Symbol(spec, SymbolOrder(-float(s), 1.0, 0.0), closed_form_coeffs=cf,
                  coeff_support_radius=1, name=f"decaying(s={s},a={a},b={b})")


def anharmonic_of_norms(c: float, l: int) -> Callable:
    """Norms r -> c r^(2l) by `float_pow`, the one anharmonic formula; l a natural number.

    Past float64 the value is inf with the sign of c, 0 for c = 0, so callers
    refuse one kind of value.
    """
    if int(l) != l or l < 1:
        raise ValueError(f"anharmonic power l must be a natural number, got {l}")

    def values(r):
        # as in Python floats, past float64 is inf; 0 * inf is nan, which the c = 0 rule makes 0
        with np.errstate(over="ignore", invalid="ignore"):
            v = c * float_pow(r, 2 * l)
        return np.where(np.isnan(v), 0.0, v)

    return values


def anharmonic_values(c: float, l: int) -> Callable:
    """`anharmonic_of_norms` of the norm of each row of points (S, n), as one array."""
    value = anharmonic_of_norms(c, l)
    return lambda pts: value(_norms(pts))


def polynomial_potential(c: float, l: int, spec: LatticeSpec | None = None) -> Symbol:
    """Anharmonic multiplier sigma(k, theta) = c |k|^(2l) (`anharmonic_of_norms`), order 2l."""
    value = anharmonic_values(c, l)

    def values(pts):
        return _finite_at(pts, value(pts), f"c|k|^(2l) with c={c}, l={l}")

    return _multiplier(spec or LatticeSpec(1.0, 1), SymbolOrder(2.0 * l, 1.0, 0.0), values,
                       f"anharmonic(c={c},l={l})")


def symbol_from_matrix(K) -> Symbol:
    """Symbol of the operator induced by a truncated kernel matrix.

    For a row point k of K's box, sigma(k, theta) is the trigonometric
    polynomial sum_m K(k, m) exp(+2 pi i (m - k) . theta / hbar); lattice
    rows outside the box evaluate to zero.  Reassembling a kernel from this
    symbol reads K back exactly (`series_coefficients`).  It has no closed
    form; its rows are trigonometric polynomials of per-axis degree up to 2R.

    Its series is each row viewed as a (2R+1,)*n tensor over integer column
    coordinates a, with frequencies a - z_j along axis j (z the row's integer
    coordinates), lowest -R - z_j, so a theta point costs at most n(2R+1)
    exponentials rather than (2R+1)^n.  A call fills its rows' tensors with
    one scatter of their triplets; a row outside the box has none.
    """
    spec, box = K.lattice()
    rows, cols, values = K._triplets
    r, shape, strides = box.radius, box_shape(spec, box), box_strides(spec, box)
    # box row i holds triplets starts[i]:starts[i + 1]
    starts = np.searchsorted(rows, np.arange(K.size + 1))

    def row_series(z_rows):
        inside = np.all(np.abs(z_rows) <= r, axis=1)
        i = np.where(inside[:, None], z_rows + r, 0) @ strides
        first = starts[i]
        counts = np.where(inside, starts[i + 1] - first, 0)
        # the block's triplets, row by row: their row in the call, and where they are stored
        owner = np.repeat(np.arange(len(z_rows)), counts)
        at = np.arange(len(owner)) + np.repeat(first - np.cumsum(counts) + counts, counts)
        coeffs = np.zeros((len(z_rows), K.size), dtype=values.dtype)
        coeffs[owner, cols[at]] = values[at]
        return coeffs.reshape((len(z_rows),) + shape), -r - z_rows

    return Symbol(spec, SymbolOrder(0.0, 1.0, 0.0), row_series=row_series, name="matrix-symbol")


def quadrature_only(sym: Symbol) -> Symbol:
    """``sym`` given by its values alone, so that its coefficients are read by FFT quadrature."""
    return Symbol(sym.spec, sym.order, eval_fn=partial(eval_symbol, sym), name=sym.name)
