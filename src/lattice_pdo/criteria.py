"""Boundedness, compactness and nuclearity criteria.

Two layers: sums evaluated on a truncated kernel (Schur-type column sums,
the sup entry, the mixed row/column sum, the nuclear sum), and an
arithmetic decision engine on the symbol order (mu, delta) alone.  Sum
values at a finite truncation are partial sums; divergence is only ever
reported operationally, by growth between a radius and its double (ratio
threshold 1.5), never claimed as a proof.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .symbols import SymbolOrder
from .fourier import DecayReport
from .kernel import power_sums
from ._util import float_pow, rounded_up

DIVERGENCE_RATIO = 1.5


def schur_l1_lp(K, p: float) -> float:
    """max over columns m of sum_k |A(k, m)|^p (the l1 -> lp column test)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return float(np.max(power_sums(K, p, 0), initial=0.0))


def sup_entry(K) -> float:
    """max |A(k, m)| (the l1 -> linf test)."""
    return float(np.max(power_sums(K, math.inf, 1), initial=0.0))


def mixed_lp_sum(K, p: float) -> float:
    """sum_k (sum_m |A(k, m)|^q)^(p/q) with q the conjugate exponent of p."""
    if not (1 < p < math.inf):
        raise ValueError(f"mixed sum requires 1 < p < inf, got {p}")
    q = p / (p - 1)
    return float(np.sum(power_sums(K, q, 1) ** (p / q)))


def nuclear_row_terms(K, r: float, p2: float) -> np.ndarray:
    """Each row's (sum_m |K(k, m)|^p2)^(r/p2), (max_m |K(k, m)|)^r at p2 = inf, in box order."""
    if not (0 < r <= 1):
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if p2 < 1:
        raise ValueError(f"p2 must be >= 1, got {p2}")
    return power_sums(K, p2, 1) ** (r if p2 == math.inf else r / p2)


def nuclear_sum(K, r: float, p2: float) -> float:
    """sum_k (sum_m |K(k, m)|^p2)^(r/p2), the nuclearity partial sum (`nuclear_row_terms`)."""
    return float(np.sum(nuclear_row_terms(K, r, p2)))


@dataclass(frozen=True)
class CriterionQuery:
    """Exponent bundle for the decision engine.

    p >= 1 is the boundedness exponent (the mixed sum derives its conjugate
    itself) and the domain exponent; r in (0, 1] is the nuclearity order;
    p2 is the codomain exponent, defaulting to p.
    """

    p: float = 2.0
    r: float = 1.0
    p2: Optional[float] = None
    n: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not (0 < self.r <= 1):
            raise ValueError(f"r must lie in (0, 1], got {self.r}")
        if self.p2 is None:
            object.__setattr__(self, "p2", self.p)
        if self.p2 < 1:
            raise ValueError(f"p2 must be >= 1, got {self.p2}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"dimension n must be a positive integer, got {self.n}")


@dataclass
class CriterionReport:
    """Verdicts of the order-condition corollaries, with their justifications.

    verdicts map criterion name -> 'holds' | 'fails' | 'not-applicable';
    details record the inequality instance behind each verdict (lhs, rhs,
    strict or not, and sharpness scope).  decay_exponent_t is the eigenvalue
    decay exponent t from 1/r = 1/t + |1/p - 1/2| when nuclearity holds with
    p = p2.  The report depends on the order and the exponents alone; the
    CLI composes report.json from it together with the truncation sums.
    """

    verdicts: dict = field(default_factory=dict)
    decay_exponent_t: Optional[float] = None
    details: dict = field(default_factory=dict)


def order_conditions(order: SymbolOrder, query: CriterionQuery) -> CriterionReport:
    """Arithmetic verdicts on (mu, delta) for the sufficiency corollaries.

    Criteria: l1 -> lp bounded (mu < -n/p), l1 -> linf bounded (mu <= 0,
    sharp), lp bounded for every p (mu <= -(n+2) delta, sharp at delta = 0),
    compact (mu < -(n+2) delta, sharp at delta = 0), r-nuclear
    (mu < -n/r - (n/p2 + 2) delta).  Equality cases with delta > 0 hold as
    sufficient conditions only; the details entry says so.
    """
    mu, delta = order.mu, order.delta
    n = query.n
    rep = CriterionReport()

    def record(name, lhs, rhs, strict, sharp, note=None):
        holds = lhs < rhs if strict else lhs <= rhs
        rep.verdicts[name] = "holds" if holds else "fails"
        det = {"lhs": lhs, "rhs": rhs, "strict": strict, "holds": holds, "sharp": sharp}
        if note:
            det["note"] = note
        rep.details[name] = det
        return holds

    record("l1_to_lp_bounded", mu, -n / query.p, True, False)
    record("l1_to_linf_bounded", mu, 0.0, False, True)
    boundary_note = None
    if delta > 0 and mu == -(n + 2) * delta:
        boundary_note = "boundary case with delta > 0: sufficient only, sharpness shown for delta = 0"
    record("lp_bounded_all_p", mu, -(n + 2) * delta, False, delta == 0, boundary_note)
    record("compact", mu, -(n + 2) * delta, True, delta == 0)
    nuclear_holds = record("r_nuclear", mu, -n / query.r - (n / query.p2 + 2) * delta,
                           True, False)

    if nuclear_holds and query.p == query.p2:
        rep.decay_exponent_t = 1.0 / (1.0 / query.r - abs(1.0 / query.p - 0.5))
        rep.details["eigenvalue_decay"] = {
            "t": rep.decay_exponent_t,
            "statement": "lambda_j = O(j^(-1/t))",
        }
    return rep


# ---------------------------------------------------------------------------
# tail bound for the mass neglected by a box truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBound:
    """Bound on the coefficient mass outside a box of radius R.

    value >= constant * (k_tail * m_full + k_full * m_tail), exactly, when both the
    row tail (needs mu + 2 q_tilde delta < -n) and the frequency tail
    (needs 2 q_tilde > n, or finitely supported coefficients) are
    controllable; components that cannot be bounded are None and
    applicable is False.  Each tail is a `_power_shell_sum`, at least its
    exact real sum at every hbar > 0.
    """

    applicable: bool
    value: Optional[float]
    k_tail: Optional[float]
    m_tail: Optional[float]
    constant: float
    radius: int


SHELL_CHUNK = 4096  # shells summed term by term; a closed form bounds the rest


def _shell_terms(shells: np.ndarray, n: int, exponent: float, scale: float) -> np.ndarray:
    """count(s) * (1 + scale s)^exponent for integer shells s >= 0, as float64.

    count(s) = (2s+1)^n - (2s-1)^n points have |z|_inf = s (one for s = 0);
    it is evaluated as 2 sum_{j odd} C(n, j) (2s)^(n-j) by Horner's rule
    with non-negative integer coefficients, so nothing cancels, no shell is
    under-counted, and counts below 2^53 are exact.  The power is
    `float_pow`, as for a Python float.
    """
    s = np.asarray(shells, dtype=float)
    coeffs = [2 * math.comb(n, d) if (n - d) % 2 else 0 for d in range(n - 1, -1, -1)]
    counts = np.where(s == 0, 1.0, np.polyval(coeffs, 2.0 * s))
    return counts * float_pow(1.0 + scale * s, exponent)


def _power_shell_sum(exponent: float, scale: float, n: int, from_shell: int) -> float:
    """Upper bound on sum over |z|_inf > from_shell of (1 + scale |z|)^a, a = exponent.

    It bounds sum_{s > from_shell} count(s) (1 + scale s)^a, as |z| >=
    s = |z|_inf.  Shells up to S = from_shell + SHELL_CHUNK are added term by
    term (math.fsum, correctly rounded).  Beyond S, count(s) <=
    2n (2s+1)^(n-1) <= 2n c^(n-1) (1 + scale s)^(n-1) with
    c = max(2/scale, (2S+1)/(1 + scale S)), as (2s+1)/(1 + scale s) is
    monotone, and the decreasing (1 + scale t)^(n+a-1) is bounded by its
    integral from S: the rest is at most 2n c^(n-1) (1 + scale S)^(n+a) /
    (scale (-(n+a))), exact in 1-d and sharp to O(1/S) otherwise, for every
    scale > 0.  Error model: a rounding loses at most a factor 1 - eps/2,
    pow 1 ulp, and a twice-rounded base up to |a| eps in its power; in all
    the result can fall (|a| + 3n + 32) eps short (`rounded_up`).  Below the
    normal range errors are absolute, at most 2^-1074 per power and product,
    counted once per point of the chunk and once per unit of the remainder's
    factor.  Requires exponent + n < 0.
    """
    if exponent + n >= 0:
        raise ValueError("shell sum diverges: need exponent < -n")
    last = from_shell + SHELL_CHUNK
    head = math.fsum(_shell_terms(np.arange(from_shell + 1, last + 1), n, exponent, scale))
    y = 1.0 + scale * last
    c = max(2.0 / scale, (2 * last + 1) / y)
    factor = 2 * n * (c * y) ** (n - 1) * y / (scale * -(n + exponent))
    return rounded_up(head + factor * y ** exponent, abs(exponent) + 3 * n + 32,
                      (2.0 * last + 1) ** n + factor)


def _power_ball_sum(exponent: float, scale: float, n: int, up_to_shell: int) -> float:
    """Upper bound on sum over |z|_inf <= up_to_shell of (1 + scale |z|)^min(exponent, 0).

    As |z| >= |z|_inf, each shell term bounds its shell.  The terms are added
    by math.fsum and rounded up by the error model of `_power_shell_sum`.
    """
    a = min(exponent, 0.0)
    head = math.fsum(_shell_terms(np.arange(up_to_shell + 1), n, a, scale))
    return rounded_up(head, abs(a) + 3 * n + 32, (2.0 * up_to_shell + 1) ** n)


def truncation_tail_bound(order: SymbolOrder, decay: DecayReport, R: int) -> TailBound:
    """Bound the coefficient mass left out by truncating to box radius R.

    Combines the empirical decay constant with tails of
    (1+|k|)^(mu + 2 q_tilde delta) over rows outside the box and
    (1+|m|/hbar)^(-2 q_tilde) over frequencies beyond the box reach, with
    q_tilde the exponent the decay report was estimated at.  The constant is
    a supremum sampled over the report's ranges, so the bound is an upper
    bound only as far as that sample reaches; it is exact for the built-in
    decaying family, whose weighted ratio does not depend on k.  Each tail is
    SHELL_CHUNK exact shells plus 2n c^(n-1) (1 + scale S)^(n+a) /
    (scale (-(n+a))), rounded up by the error model of `_power_shell_sum`,
    so it holds at every hbar.  ``order`` must carry the (mu, delta) the
    report was estimated with, since its constant is weighted by them; any
    other order raises ValueError.
    """
    if (order.mu, order.delta) != (decay.mu, decay.delta):
        raise ValueError(f"order (mu, delta) = ({order.mu}, {order.delta}) differs from the "
                         f"({decay.mu}, {decay.delta}) the decay constant was estimated at")
    q_tilde = decay.q_tilde
    n = decay.dim
    a = order.mu + 2 * q_tilde * order.delta
    b = -2.0 * q_tilde
    k_ok = a < -n
    finite_support = decay.support_radius is not None
    m_summable = b + n < 0  # 2 q_tilde > n

    k_tail = _power_shell_sum(a, decay.hbar, n, int(R)) if k_ok else None

    if finite_support:
        m_tail = 0.0 if decay.support_radius <= R else None
        m_full = _power_ball_sum(b, 1.0, n, decay.support_radius)
    elif m_summable:
        m_tail = _power_shell_sum(b, 1.0, n, int(R))
        m_full = 1.0 + _power_shell_sum(b, 1.0, n, 0)
    else:
        m_tail = None
        m_full = None

    applicable = k_ok and m_tail is not None
    value = None
    if applicable:
        k_full = _power_ball_sum(a, decay.hbar, n, int(R)) + k_tail
        # m_full, k_full, two products and their sum are five roundings of
        # non-negative numbers, each at most eps/2 short
        inner = rounded_up(k_tail * m_full + k_full * m_tail, 2.5, 2.0)
        value = rounded_up(decay.constant * inner, 0.5, 1.0)
    return TailBound(applicable, value, k_tail, m_tail, decay.constant, int(R))
