import math

import numpy as np
import pytest

from lattice_pdo.lattice import BoxTruncation, LatticeSpec
from lattice_pdo.criteria import (CriterionQuery, _power_ball_sum, _power_shell_sum,
                                  mixed_lp_sum, nuclear_row_terms,
                                  nuclear_sum, order_conditions, schur_l1_lp,
                                  sup_entry, truncation_tail_bound)
from lattice_pdo.fourier import estimate_decay_constant
from lattice_pdo.kernel import assemble
from lattice_pdo.symbols import (Symbol, SymbolOrder, constant_symbol,
                                 decaying_test_symbol, difference_symbol,
                                 multiplication_symbol, schrodinger_symbol)

SPEC1 = LatticeSpec(1.0, 1)


def difference_kernel(radius):
    return assemble(difference_symbol(), SPEC1, BoxTruncation(radius))


def diagonal_decay_kernel(s, radius):
    # sigma = (1+|k|)^-s with no theta dependence: a diagonal kernel
    return assemble(decaying_test_symbol(s, 1.0, 0.0), SPEC1, BoxTruncation(radius))


def test_schur_examples():
    for p in (1.0, 2.0, 3.5):
        assert schur_l1_lp(difference_kernel(3), p) == pytest.approx(2.0)
    K = assemble(constant_symbol(1.0), SPEC1, BoxTruncation(2))
    assert schur_l1_lp(K, 2.0) == pytest.approx(1.0)
    Km = assemble(multiplication_symbol(1.0), SPEC1, BoxTruncation(5))
    assert schur_l1_lp(Km, 1.0) == pytest.approx(5.0)


def test_sup_entry_examples():
    assert sup_entry(difference_kernel(2)) == pytest.approx(1.0)
    Ks = assemble(schrodinger_symbol(lambda k: float(k @ k), 0.0, SPEC1,
                                     potential_order=2.0), SPEC1, BoxTruncation(2))
    assert sup_entry(Ks) == pytest.approx(6.0)
    assert sup_entry(assemble(constant_symbol(0.0), SPEC1, BoxTruncation(2))) == 0.0


def test_mixed_sum_identity():
    K = assemble(constant_symbol(1.0), SPEC1, BoxTruncation(2))
    assert mixed_lp_sum(K, 2.0) == pytest.approx(5.0)


def test_mixed_sum_difference_5point():
    # rows -2..1 contribute 2 each, the truncated boundary row contributes 1
    assert mixed_lp_sum(difference_kernel(2), 2.0) == pytest.approx(9.0)


def test_mixed_sum_decaying_converges():
    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    vals = [mixed_lp_sum(assemble(sym, SPEC1, BoxTruncation(r)), 2.0)
            for r in (30, 40, 50)]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[2] - vals[0] < 1e-6


def test_mixed_sum_domain_errors():
    K = difference_kernel(1)
    with pytest.raises(ValueError):
        mixed_lp_sum(K, 1.0)
    with pytest.raises(ValueError):
        mixed_lp_sum(K, math.inf)


@pytest.mark.parametrize("fn", [nuclear_sum, nuclear_row_terms])
def test_nuclear_domain_errors(fn):
    K = difference_kernel(1)
    for r, p2 in ((0.0, 2.0), (1.5, 2.0), (1.0, 0.5)):
        with pytest.raises(ValueError):
            fn(K, r, p2)


def test_mixed_sum_frobenius_identity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        frob2 = float(np.sum(np.abs(M) ** 2))
        assert mixed_lp_sum(M, 2.0) == pytest.approx(frob2, rel=1e-12)


def test_nuclear_sum_identity():
    K = assemble(constant_symbol(1.0), SPEC1, BoxTruncation(2))
    for r, p2 in ((1.0, 2.0), (0.5, 1.0), (0.7, 3.0)):
        assert nuclear_sum(K, r, p2) == pytest.approx(5.0)


def test_nuclear_sum_analytic_series():
    # diagonal (1+|k|)^-2: the full series sums to pi^2/3 - 1
    K = diagonal_decay_kernel(2.0, 1000)
    value = nuclear_sum(K, 1.0, 2.0)
    target = np.pi ** 2 / 3 - 1
    assert math.isclose(value, target, rel_tol=1e-3)
    # frozen truncated value: 1 + 2 sum_{j=1}^{1000} (1+j)^-2
    exact_truncated = 1.0 + 2.0 * sum((1.0 + j) ** -2 for j in range(1, 1001))
    assert value == pytest.approx(exact_truncated, rel=1e-12)


def test_nuclear_sum_difference_grows_linearly():
    # each interior row contributes sqrt(2); the sum scales with the radius
    v1 = nuclear_sum(difference_kernel(100), 1.0, 2.0)
    v2 = nuclear_sum(difference_kernel(200), 1.0, 2.0)
    assert v2 / v1 >= 1.5
    slope = (v2 - v1) / (200 * math.sqrt(2))
    assert slope == pytest.approx(1.0, rel=0.05)


def test_sum_monotonicity_in_radius():
    sym = decaying_test_symbol(2.0, 1.0, 1.0)
    prev = None
    for r in (5, 10, 20):
        K = assemble(sym, SPEC1, BoxTruncation(r))
        vals = (schur_l1_lp(K, 2.0), sup_entry(K), mixed_lp_sum(K, 2.0),
                nuclear_sum(K, 1.0, 2.0))
        if prev is not None:
            assert all(v >= p - 1e-15 for v, p in zip(vals, prev))
        prev = vals


def test_query_validation():
    with pytest.raises(ValueError):
        CriterionQuery(p=2.0, r=1.5, n=1)
    with pytest.raises(ValueError):
        CriterionQuery(p=0.5, n=1)


def test_order_conditions_boundary_linf():
    rep = order_conditions(SymbolOrder(0.0, 1.0, 0.0), CriterionQuery(p=2.0, n=1))
    assert rep.verdicts["l1_to_linf_bounded"] == "holds"
    assert rep.details["l1_to_linf_bounded"]["sharp"]


def test_order_conditions_positive_order_fails_all():
    rep = order_conditions(SymbolOrder(0.5, 1.0, 0.0), CriterionQuery(p=2.0, n=1))
    assert set(rep.verdicts.values()) == {"fails"}


def test_order_conditions_nuclear_with_decay_exponent():
    rep = order_conditions(SymbolOrder(-3.0, 1.0, 0.0),
                           CriterionQuery(p=2.0, r=1.0, p2=2.0, n=1))
    assert rep.verdicts["r_nuclear"] == "holds"
    assert rep.decay_exponent_t == pytest.approx(1.0)


def test_order_conditions_delta_boundary_note():
    # equality with delta > 0 holds as a sufficient condition only
    rep = order_conditions(SymbolOrder(-1.5, 1.0, 0.5), CriterionQuery(p=2.0, n=1))
    assert rep.verdicts["lp_bounded_all_p"] == "holds"
    assert not rep.details["lp_bounded_all_p"]["sharp"]
    assert "sufficient only" in rep.details["lp_bounded_all_p"]["note"]
    assert rep.verdicts["compact"] == "fails"


def test_decision_engine_vs_sums_nuclear():
    # engine says r-nuclear holds at mu=-3; the partial sums settle:
    # every term added beyond R=500 stays below 1e-8
    rep = order_conditions(SymbolOrder(-3.0, 1.0, 0.0),
                           CriterionQuery(p=2.0, r=1.0, p2=2.0, n=1))
    assert rep.verdicts["r_nuclear"] == "holds"
    K = diagonal_decay_kernel(3.0, 1000)
    terms = nuclear_row_terms(K, 1.0, 2.0)
    ks = np.abs(K.points().ravel())
    assert np.max(terms[ks > 500]) < 1e-8
    v500 = nuclear_sum(diagonal_decay_kernel(3.0, 500), 1.0, 2.0)
    v1000 = nuclear_sum(K, 1.0, 2.0)
    assert v500 <= v1000 < 1.5 * v500


def test_decision_engine_vs_sums_sharpness():
    # the order-epsilon multiplier fails every verdict and its sums blow up
    rep = order_conditions(SymbolOrder(1.0, 1.0, 0.0), CriterionQuery(p=2.0, n=1))
    assert rep.verdicts["l1_to_linf_bounded"] == "fails"
    sym = multiplication_symbol(1.0)
    v = [sup_entry(assemble(sym, SPEC1, BoxTruncation(r))) for r in (50, 100, 200)]
    assert v[1] / v[0] >= 1.5 and v[2] / v[1] >= 1.5


def test_tail_bound_decaying():
    sym = decaying_test_symbol(3.0, 2.0, 1.0)
    decay = estimate_decay_constant(sym, 1, 10, 5)
    bounds = [truncation_tail_bound(sym.order, decay, R) for R in (50, 100, 200)]
    assert all(b.applicable for b in bounds)
    assert bounds[0].value > bounds[1].value > bounds[2].value
    # k-tail of (1+|k|)^-3 behaves like R^-2
    assert bounds[1].value == pytest.approx(bounds[0].value / 4, rel=0.1)
    # oracle at small R: explicit complement of the partial sum
    decay_small = estimate_decay_constant(sym, 1, 30, 5)
    b = truncation_tail_bound(sym.order, decay_small, 10)
    explicit = 2 * sum(2.0 * (1 + k) ** -3 + 2 * 0.5 * (1 + k) ** -3
                       for k in range(11, 3000))
    assert b.value >= explicit


def test_tail_bound_refuses_an_order_the_decay_was_not_estimated_at():
    # the decay constant is weighted by (1+|k|)^-(mu + 2 q delta) with the symbol's mu;
    # another order used to give a bound of 3.3e-10 where its own order gives 8.7e-4
    sym = decaying_test_symbol(3.0, 1.0, 1.0)
    decay = estimate_decay_constant(sym, 2, 100, 3)
    assert truncation_tail_bound(sym.order, decay, 100).value == pytest.approx(8.7e-4, rel=0.01)
    for other in (SymbolOrder(-6.0), SymbolOrder(-3.0, 1.0, 0.5)):
        with pytest.raises(ValueError, match="differs"):
            truncation_tail_bound(other, decay, 100)


def test_tail_bound_infinite_frequency_support():
    # (1+|k|)^-3 exp(cos 2 pi theta) has coefficients (1+|k|)^-3 I_|m|(1) at every
    # frequency m, so no support radius is found and the frequency tail is a shell sum
    def ev(k, theta):
        return (1.0 + np.linalg.norm(k)) ** -3 * np.exp(np.cos(2 * np.pi * theta[..., 0]))

    sym = Symbol(SPEC1, SymbolOrder(-3.0, 1.0, 0.0), ev, name="bessel")
    decay = estimate_decay_constant(sym, 1, 10, 5)
    assert decay.support_radius is None
    R = 10
    b = truncation_tail_bound(sym.order, decay, R)
    assert b.applicable and math.isfinite(b.value) and b.m_tail > 0

    def bessel_i(m):  # I_m(1) by its power series
        return sum(0.5 ** (2 * j + m) / (math.factorial(j) * math.factorial(j + m))
                   for j in range(30))

    def two_sided(terms, lo, hi):  # sum of terms[|j|] over lo <= |j| < hi
        return (terms[0] if lo == 0 else 0.0) + 2 * sum(terms[max(lo, 1):hi])

    rows = [(1 + k) ** -3.0 for k in range(3000)]
    freqs = [bessel_i(m) for m in range(40)]
    # mass with the row outside the box, or the row inside and the frequency outside
    explicit = (two_sided(rows, R + 1, 3000) * two_sided(freqs, 0, 40)
                + two_sided(rows, 0, R + 1) * two_sided(freqs, R + 1, 40))
    assert b.value >= explicit


def test_tail_bound_2d_shells():
    spec2 = LatticeSpec(1.0, 2)
    sym = decaying_test_symbol(5.0, 1.0, 1.0, spec2)  # mu = -5 < -n - 2 q delta
    decay = estimate_decay_constant(sym, 2, 4, 3)
    bounds = [truncation_tail_bound(sym.order, decay, R) for R in (10, 20, 40)]
    assert all(b.applicable for b in bounds)
    assert bounds[0].value > bounds[1].value > bounds[2].value
    # 2-d shell count ~ 8s, integrand (1+s)^-5: tail ~ R^-3, so ratio ~ 8 per doubling
    assert bounds[0].value / bounds[1].value == pytest.approx(8.0, rel=0.25)


def test_tail_bound_not_applicable_for_constant():
    sym = constant_symbol(2.0)
    decay = estimate_decay_constant(sym, 0, 5, 5)
    b = truncation_tail_bound(sym.order, decay, 10)
    assert not b.applicable
    assert b.value is None and b.k_tail is None


def test_tail_bound_difference_m_tail_zero():
    sym = difference_symbol()
    decay = estimate_decay_constant(sym, 1, 5, 5)
    b = truncation_tail_bound(sym.order, decay, 10)
    # row tail is uncontrollable (mu = 0) but the frequency tail vanishes
    assert not b.applicable
    assert b.m_tail == 0.0


def shell_count_reference(s, n):
    return 1 if s == 0 else (2 * s + 1) ** n - (2 * s - 1) ** n


def shell_sum_reference(exponent, scale, n, from_shell):
    """The shell-by-shell loop behind _power_shell_sum, kept as its reference."""
    acc = 0.0
    s = from_shell + 1
    cap = from_shell + 200000
    while s <= cap:
        term = shell_count_reference(s, n) * (1.0 + scale * s) ** exponent
        acc += term
        if term <= 1e-16 * max(acc, 1e-300) and s > from_shell + 10:
            break
        s += 1
    remainder = (2 * n * 3 ** (n - 1) * scale ** exponent
                 * s ** (n + exponent) / (-(n + exponent)))
    return acc + remainder


def ball_sum_reference(exponent, scale, n, up_to_shell):
    acc = 0.0
    for s in range(0, up_to_shell + 1):
        acc += shell_count_reference(s, n) * (1.0 + scale * s) ** min(exponent, 0.0)
    return acc


# excess over -n: 0.05 runs to the 200 000-shell cap, 39 stops after a few shells
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("excess", [0.05, 1.0, 2.0, 39.0])
@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_shell_sums_match_loop(n, excess, scale):
    exponent = -n - excess
    for from_shell in (0, 20, 100):
        got = _power_shell_sum(exponent, scale, n, from_shell)
        want = shell_sum_reference(exponent, scale, n, from_shell)
        if n <= 2:
            assert got == want
        else:
            assert want <= got <= want * (1 + 1e-15)
    for up_to_shell in (0, 3, 50):
        got = _power_ball_sum(exponent, scale, n, up_to_shell)
        want = ball_sum_reference(exponent, scale, n, up_to_shell)
        assert want <= got <= want * (1 + 1e-15)
