import dataclasses
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from lattice_pdo.lattice import BoxTruncation, LatticeSpec
from lattice_pdo import criteria
from lattice_pdo.cli import main
from lattice_pdo.criteria import (CriterionQuery, _power_ball_sum, _power_shell_sum,
                                  mixed_lp_sum, nuclear_row_terms,
                                  nuclear_sum, order_conditions, schur_l1_lp,
                                  sup_entry, truncation_tail_bound)
from lattice_pdo.fourier import DecayReport, estimate_decay_constant
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


def test_nuclear_sum_with_p2_infinity_takes_each_row_maximum(tmp_path):
    # a row's term for p2 = inf is (max_m |K(k, m)|)^r: on the diagonal (1+|k|)^-3 kernel
    # the sum is that of (1+|k|)^-3 over the box, at R and, through the CLI, at 2R
    def box_sum(radius):
        return math.fsum((1.0 + abs(k)) ** -3 for k in range(-radius, radius + 1))

    K = diagonal_decay_kernel(3.0, 50)
    assert nuclear_sum(K, 1.0, math.inf) == pytest.approx(box_sum(50), rel=1e-12, abs=0)
    cfg = {"lattice": {"hbar": 1.0, "dim": 1}, "truncation": {"radius": 50},
           "task": "check-nuclear", "params": {"p2": math.inf},
           "symbol": {"family": "decaying", "params": {"s": 3.0, "a": 1.0, "b": 0.0}},
           "output": {"directory": ".", "formats": ["csv", "json"]}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["diverging"] is False
    assert report["sums"]["nuclear_sum"] == pytest.approx(box_sum(100), rel=1e-12, abs=0)


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


@pytest.mark.parametrize("s", [200.0, 400.0])
def test_decay_constant_past_the_weight_overflow(s):
    # (1+|k|)^s overflows at k_radius 100 where the coefficient (1+|k|)^-s is 0 or
    # subnormal: those add nothing, so the constant is max(a, (b/2) 2^4) = 8, and the
    # tail bound is finite and applicable
    sym = decaying_test_symbol(s, 1.0, 1.0)
    decay = estimate_decay_constant(sym, 2, 100, 3)
    assert decay.constant == pytest.approx(8.0, rel=0, abs=1e-12)
    bound = truncation_tail_bound(sym.order, decay, 100)
    assert bound.applicable and math.isfinite(bound.value)


def test_decay_constant_keeps_its_bits_where_the_ratio_is_finite():
    for s in (100.0, 150.0):
        decay = estimate_decay_constant(decaying_test_symbol(s, 1.0, 1.0), 2, 100, 3)
        assert decay.constant == 8.000000000000002


def test_decay_constant_refuses_a_normal_coefficient_with_an_infinite_ratio():
    # a constant symbol of order mu = -400 weights its coefficient 1 at k = 100 by 101^400
    sym = dataclasses.replace(constant_symbol(1.0), order=SymbolOrder(-400.0))
    with pytest.raises(ValueError, match=r"at \(k, m\) = \(\[-100.0\], \[0.0\]\)"):
        estimate_decay_constant(sym, 0, 100, 1)


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


def ball_sum_reference(exponent, scale, n, up_to_shell):
    acc = 0.0
    for s in range(0, up_to_shell + 1):
        acc += shell_count_reference(s, n) * (1.0 + scale * s) ** min(exponent, 0.0)
    return acc


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("excess", [0.05, 1.0, 2.0, 39.0])
@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_shell_sums_match_loop(n, excess, scale):
    # _power_ball_sum against the shell-by-shell loop, within its rounding
    # allowance of 2 (|a| + 3n + 32) eps <= 166 eps
    exponent = -n - excess
    for up_to_shell in (0, 3, 50):
        got = _power_ball_sum(exponent, scale, n, up_to_shell)
        want = ball_sum_reference(exponent, scale, n, up_to_shell)
        assert want <= got <= want * (1 + 1e-13)


# sum_{s > from_shell} count(s) (1 + scale s)^(-n - excess) for from_shell = 0, 20, 100,
# keyed by (n, excess, scale): computed with mpmath 1.3.0 at 60 digits and rounded to
# the nearest double.  count(s) = (2s+1)^n - (2s-1)^n is expanded in powers
# y^j of y = 1 + scale s, and each sum_s y^(a+j) is scale^(a+j) times the Hurwitz zeta
# zeta(-(a+j), from_shell + 1 + 1/scale).
EXACT_SHELL_SUMS = {
    (1, 0.05, 0.25): (159.04347320673332, 146.13797858122823, 135.9149033732823),
    (1, 0.05, 1.0): (39.16168860407397, 34.31120842129077, 31.74947855887516),
    (1, 0.05, 4.0): (9.43580423126565, 8.017590851554509, 7.408574527874258),
    (1, 1.0, 0.25): (7.0823345835876905, 1.3059412242312185, 0.30621775897772574),
    (1, 1.0, 1.0): (1.2898681336964528, 0.09300649847811598, 0.01970427411678576),
    (1, 1.0, 4.0): (0.14966614431338884, 0.006022931396250726, 0.0012406846036692367),
    (1, 2.0, 0.25): (3.1225428636873276, 0.10657787637903796, 0.005860537525270558),
    (1, 2.0, 1.0): (0.4041138063191886, 0.0021621630026817857, 9.706381953749471e-05),
    (1, 2.0, 4.0): (0.02074593652401438, 3.626869461622799e-05, 1.5392856495611123e-06),
    (1, 39.0, 0.25): (0.0002660268562052307, 3.70825085481855e-32, 1.1072581080239973e-56),
    (1, 39.0, 1.0): (1.8189895680527777e-12, 4.852551101222187e-54, 2.851375041293571e-80),
    (1, 39.0, 4.0): (2.19902325568731e-28, 1.5877748270362309e-77, 3.1494331511817507e-104),
    (2, 0.05, 0.25): (2437.4409907881286, 2320.0318204383125, 2170.674688139833),
    (2, 0.05, 1.0): (151.84336078306748, 136.94091591164576, 126.93833326639822),
    (2, 0.05, 4.0): (9.301904128103232, 8.012991905561528, 7.407699127819158),
    (2, 1.0, 0.25): (63.3566675184058, 19.18981356563489, 4.805715543239283),
    (2, 1.0, 1.0): (3.5430173095090574, 0.3633773419017368, 0.07842884118899306),
    (2, 1.0, 4.0): (0.12892020778937446, 0.005986662701634498, 0.0012391453180196756),
    (2, 2.0, 0.25): (20.704557726488982, 1.5197181983519776, 0.09137583603006164),
    (2, 2.0, 1.0): (0.9578693555876487, 0.008380621506013885, 0.0003857052232575357),
    (2, 2.0, 4.0): (0.01712335317871699, 3.597754858914538e-05, 1.5367393340248913e-06),
    (2, 39.0, 0.25): (0.0008516732051498697, 4.9936932824355395e-31, 1.705515476269069e-55),
    (2, 39.0, 1.0): (3.637979245777388e-12, 1.853588564086708e-53, 1.1295975269219295e-79),
    (2, 39.0, 4.0): (1.7592186045618756e-28, 1.5692570834725345e-77, 3.1418160483483244e-104),
    (3, 0.05, 0.25): (28546.44212363373, 27640.600753393403, 26001.468451955458),
    (3, 0.05, 1.0): (446.12341094304253, 409.9345165161761, 380.6372340236204),
    (3, 0.05, 4.0): (6.909168301836823, 6.0063443653728195, 5.555119742830857),
    (3, 1.0, 0.25): (513.6538255087836, 212.05273989637698, 56.57222603428405),
    (3, 1.0, 1.0): (7.920090329186502, 1.0650571688133472, 0.23413004541092966),
    (3, 1.0, 4.0): (0.08747022430329049, 0.0044633050108110976, 0.0009282089803297742),
    (3, 2.0, 0.25): (128.9925415514717, 16.28416480289481, 1.068625429420255),
    (3, 2.0, 1.0): (1.8579720914232478, 0.024368138329669588, 0.001149526742117065),
    (3, 2.0, 4.0): (0.01131836140146314, 2.6769402333327818e-05, 1.1506530564953015e-06),
    (3, 39.0, 0.25): (0.00221578805549722, 5.0445654231775995e-30, 1.970278081419906e-54),
    (3, 39.0, 1.0): (5.911716457175092e-12, 5.311275657597874e-53, 3.3562771408472205e-79),
    (3, 39.0, 4.0): (1.1434920929688942e-28, 1.1634326237595458e-77, 2.3506814683128162e-104),
}


@pytest.mark.parametrize("n, excess, scale", sorted(EXACT_SHELL_SUMS))
def test_shell_tail_sums_bound_exact_sums(n, excess, scale):
    # an upper bound at every scale, hbar = 4 included, and within 1e-3 of the exact sum
    for from_shell, exact in zip((0, 20, 100), EXACT_SHELL_SUMS[n, excess, scale]):
        got = _power_shell_sum(-n - excess, scale, n, from_shell)
        assert exact <= got <= exact * (1 + 1e-3), (from_shell, got / exact - 1)



# sum_{s <= up_to_shell} count(s) (1 + scale s)^(-n - excess), keyed by (n, excess,
# scale, up_to_shell): computed with mpmath 1.3.0 at 40 digits from the exact values of
# the doubles, and given to 30 significant digits.  A cumulative float sum falls below
# each of them, by up to 4.4e-15 relative at (1, 1.0, 4.0, 1000).
EXACT_BALL_SUMS = {
    (1, 1.0, 4.0, 1000): "1.14954123800352229790960593779",
    (1, 1.0, 4.0, 500): "1.14941651883469066841143196158",
    (1, 0.05, 1.0, 1000): "11.8459794570072985327633099367",
    (1, 2.0, 1.0, 500): "1.40410983021557130529537692179",
    (2, 1.0, 4.0, 1000): "1.12879531708109286399528838684",
    (2, 2.0, 4.0, 500): "1.01712329088659790550841965897",
    (2, 0.05, 1.0, 1000): "39.5859095846537853379768014204",
    (2, 2.0, 0.25, 1000): "21.7035455750342212218227121708",
    (3, 0.05, 1.0, 1000): "107.36720456608706266989092917",
    (3, 1.0, 4.0, 500): "1.08728309862726053507802266996",
    (3, 0.05, 0.25, 100): "2545.97367167827183660854340869",
    (3, 39.0, 0.25, 20): "1.0022157880554972199071644126",
}


@pytest.mark.parametrize("n, excess, scale, up_to_shell", sorted(EXACT_BALL_SUMS))
def test_ball_sums_bound_exact_sums(n, excess, scale, up_to_shell):
    exact = Decimal(EXACT_BALL_SUMS[n, excess, scale, up_to_shell])
    got = Decimal(_power_ball_sum(-n - excess, scale, n, up_to_shell))
    assert exact <= got <= exact * Decimal("1.0000000000001")


def test_tail_bound_value_bounds_the_exact_product_of_its_parts():
    # value >= constant (k_tail m_full + k_full m_tail) in exact arithmetic, with
    # k_full = ball + k_tail and m_full the frequency ball or 1 + its tail
    rng = np.random.default_rng(2024)
    for i in range(40):
        n = int(rng.integers(1, 4))
        hbar = float(rng.choice([0.25, 0.5, 1.0, 4.0]))
        mu = -n - float(rng.uniform(0.1, 3.0))
        q = int(rng.integers(1, 3))
        support = None if i % 2 and 2 * q > n else 1
        c, R = float(rng.uniform(0.1, 10.0)), int(rng.integers(5, 60))
        b = truncation_tail_bound(SymbolOrder(mu), DecayReport(q, c, R, 3, mu, 0.0, hbar, n,
                                                                support), R)
        k_full = Fraction(_power_ball_sum(mu, hbar, n, R)) + Fraction(b.k_tail)
        m_full = (Fraction(_power_ball_sum(-2.0 * q, 1.0, n, support)) if support is not None
                  else 1 + Fraction(_power_shell_sum(-2.0 * q, 1.0, n, 0)))
        exact = Fraction(c) * (Fraction(b.k_tail) * m_full + k_full * Fraction(b.m_tail))
        assert Fraction(b.value) >= exact, (i, float(Fraction(b.value) / exact - 1))


def test_shell_tail_sum_reads_one_chunk(monkeypatch):
    shells = []
    terms = criteria._shell_terms

    def counted(s, *args):
        shells.append(len(s))
        return terms(s, *args)

    monkeypatch.setattr(criteria, "_shell_terms", counted)
    for n in (1, 2, 3):
        shells.clear()
        _power_shell_sum(-n - 0.05, 0.25, n, 100)
        assert 0 < sum(shells) <= criteria.SHELL_CHUNK


def test_sums_of_an_empty_matrix_are_zero():
    # a 0x0 array has no column and no entry: its column test is 0.0, as its sup is
    assert schur_l1_lp(np.zeros((0, 0)), 2.0) == sup_entry(np.zeros((0, 0))) == 0.0
