import numpy as np
import pytest

from lattice_pdo.lattice import BoxTruncation, LatticeSpec, enumerate_box_integers
from lattice_pdo.kernel import KernelMatrix, assemble, read_binary, write_binary
from lattice_pdo.schrodinger import (PotentialSpec, build_hamiltonian,
                                     fit_growth_exponent, neumann_truncation,
                                     spectrum_converged, weyl_oracle)
from lattice_pdo.symbols import schrodinger_symbol, values_only

SPEC1 = LatticeSpec(1.0, 1)
HARMONIC = PotentialSpec.anharmonic(1.0, 1)
QUARTIC = PotentialSpec.anharmonic(1.0, 2)


def test_potential_validation():
    assert HARMONIC.mu == 2.0
    assert QUARTIC.mu == 4.0
    with pytest.raises(ValueError):
        PotentialSpec.anharmonic(0.0, 1)      # V == 0
    with pytest.raises(ValueError):
        PotentialSpec.anharmonic(1.0, 0)
    with pytest.raises(ValueError):
        PotentialSpec(lambda k: 0.0, 2.0)     # no confinement
    with pytest.raises(ValueError):
        PotentialSpec(lambda k: -float(k @ k), 2.0)  # negative values
    with pytest.raises(ValueError):
        PotentialSpec(lambda k: float(k @ k), 4.0)   # declared order off


def test_build_hamiltonian_harmonic_3x3():
    H = build_hamiltonian(SPEC1, HARMONIC, BoxTruncation(1))
    assert H.entries.dtype == np.float64
    expected = np.array([[3, -1, 0], [-1, 2, -1], [0, -1, 3]], dtype=float)
    np.testing.assert_array_equal(H.entries.real, expected)
    np.testing.assert_array_equal(H.entries.imag, np.zeros((3, 3)))


def test_build_hamiltonian_free_laplacian_range():
    # V == 0 is allowed for the raw builder (plain callable), eigenvalues in [0, 4n/h^2]
    H = build_hamiltonian(SPEC1, lambda k: 0.0, BoxTruncation(30))
    vals = np.linalg.eigvalsh(H.entries)
    assert vals[0] >= -1e-12
    assert vals[-1] <= 4.0 + 1e-12


def test_build_hamiltonian_scaled_lattice():
    spec = LatticeSpec(0.5, 1)
    H = build_hamiltonian(spec, lambda k: 0.0, BoxTruncation(1))
    np.testing.assert_allclose(np.diag(H.entries).real, [8.0, 8.0, 8.0])
    assert H.entries[0, 1] == pytest.approx(-4.0)


def test_hamiltonian_matches_symbol_assembly():
    for spec, pot in ((SPEC1, HARMONIC), (LatticeSpec(0.5, 1), HARMONIC),
                      (LatticeSpec(1.0, 2), PotentialSpec.anharmonic(1.0, 1, dim=2))):
        box = BoxTruncation(3)
        H = build_hamiltonian(spec, pot, box, lam=0.5)
        sym = values_only(schrodinger_symbol(pot, 0.5, spec))
        K = assemble(sym, spec, box)
        assert np.max(np.abs(H.entries - K.entries)) <= 1e-12


def test_weyl_oracle_examples():
    np.testing.assert_allclose(weyl_oracle(SPEC1, HARMONIC, BoxTruncation(2), 5),
                               [2.0, 3.0, 3.0, 6.0, 6.0])
    vals = weyl_oracle(SPEC1, QUARTIC, BoxTruncation(1), 3)
    np.testing.assert_allclose(vals, [2.0, 3.0, 3.0])  # V(0)+2, V(+-1)+2
    np.testing.assert_allclose(weyl_oracle(SPEC1, HARMONIC, BoxTruncation(0), 1), [2.0])


def test_spectrum_converged_harmonic():
    res = spectrum_converged(SPEC1, HARMONIC, j_max=10, tol=1e-8)
    assert res.all_converged
    assert res.eigenvalues[0] > 0
    assert np.all(np.diff(res.eigenvalues) >= 0)
    # Weyl sandwich against the sorted-potential oracle
    oracle = weyl_oracle(SPEC1, HARMONIC, BoxTruncation(res.radius_used), 10)
    assert np.max(np.abs(res.eigenvalues - oracle)) <= 4.0 + 1e-8


def test_spectrum_real_scan_matches_complex_assembly():
    # the scan solves the float64 H; the complex quadrature assembly is the oracle
    spec = LatticeSpec(1.0, 2)
    pot = PotentialSpec.anharmonic(1.0, 1, dim=2)
    full = spectrum_converged(spec, pot, j_max=6, tol=1e-8, start_radius=3)
    assert len(full.radii_scanned) >= 2
    for R in full.radii_scanned:
        box = BoxTruncation(R)
        res = spectrum_converged(spec, pot, j_max=6, tol=1e-8, start_radius=3,
                                 max_dim=box.size(2))
        assert res.radius_used == R
        K = assemble(values_only(schrodinger_symbol(pot, 0.0, spec)), spec, box)
        ref = np.linalg.eigvalsh(K.entries)[:6]
        np.testing.assert_allclose(res.eigenvalues, ref, rtol=1e-10, atol=0)


def test_spectrum_rejects_radius_below_one(time_limit):
    # doubling never leaves radius 0: j_max > 1 used to hang, and j_max = 1
    # compared the 1-point box with itself and called lambda_1 = 2 converged
    with time_limit(10):
        for start in (0, -1):
            for j_max in (3, 1):
                with pytest.raises(ValueError, match="start_radius"):
                    spectrum_converged(SPEC1, HARMONIC, j_max=j_max, tol=1e-8,
                                       start_radius=start)


def test_spectrum_requires_potential_spec():
    with pytest.raises(TypeError):
        spectrum_converged(SPEC1, lambda k: float(k @ k), j_max=3, tol=1e-8)


def test_spectrum_budget_exhaustion_partial():
    res = spectrum_converged(SPEC1, HARMONIC, j_max=5, tol=1e-8, start_radius=2,
                             max_dim=7)
    assert not res.all_converged
    assert res.radii_scanned == [2]  # the doubled box of 9 points exceeds the budget


def test_spectrum_refuses_max_dim_below_start_box():
    with pytest.raises(ValueError, match="max_dim"):
        spectrum_converged(SPEC1, HARMONIC, j_max=3, tol=1e-8, start_radius=25, max_dim=50)


def test_spectrum_requires_outside_bound():
    bare = PotentialSpec(HARMONIC.fn, HARMONIC.mu)
    with pytest.raises(ValueError, match="outside"):
        spectrum_converged(SPEC1, bare, j_max=3, tol=1e-8)


@pytest.mark.parametrize("hbar", [1.0, 0.5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_neumann_box_form_and_bracket(hbar, dim):
    spec, lam = LatticeSpec(hbar, dim), 0.25
    pot = PotentialSpec.anharmonic(1.0, 1, dim)
    box = BoxTruncation(2)
    H = build_hamiltonian(spec, pot, box, lam)
    N = neumann_truncation(H)
    # x^T N x = hbar^-2 sum over edges inside the box of (x_a - x_b)^2 + sum (V + lam) x^2
    zs = enumerate_box_integers(spec, box)
    a, b = np.nonzero(np.abs(zs[:, None, :] - zs[None, :, :]).sum(axis=2) == 1)
    inner = a < b
    a, b = a[inner], b[inner]
    potential = np.array([pot(hbar * z) for z in zs]) + lam
    x = np.random.default_rng(dim).normal(size=(5, len(zs)))
    form = ((x[:, a] - x[:, b]) ** 2).sum(axis=1) / hbar ** 2 + (potential * x ** 2).sum(axis=1)
    np.testing.assert_allclose(np.einsum("ki,ij,kj->k", x, N, x), form, rtol=1e-12)
    # dropping the hops that leave the box lowers every eigenvalue
    assert np.all(np.linalg.eigvalsh(N) <= np.linalg.eigvalsh(H.entries) + 1e-12)


def test_certificate_needs_the_outside_bound():
    # V has wells at k = +-10; the box of radius 3 closes a loose bracket
    # around a box value near 83 that is no eigenvalue near the bottom of H
    well = PotentialSpec(lambda k: (float(k @ k) - 100.0) ** 2 / 100.0, 4.0,
                         outside_min=lambda rho: max(rho * rho - 100.0, 0.0) ** 2 / 100.0)
    box3 = spectrum_converged(SPEC1, well, j_max=1, tol=0.5, start_radius=3, max_dim=7)
    assert not box3.converged[0]
    res = spectrum_converged(SPEC1, well, j_max=1, tol=0.5, start_radius=3, max_dim=100)
    assert res.converged[0]
    assert res.eigenvalues[0] < box3.eigenvalues[0] / 10


def test_certificate_needs_the_solver_error_below_tol():
    # at R = 25 the quartic bracket is closed, but size * eps * ||H||_inf is 4.4e-9,
    # and no larger box has a smaller error bound, so the scan stops there
    res = spectrum_converged(SPEC1, QUARTIC, j_max=3, tol=1e-13, max_dim=101)
    assert res.radii_scanned == [25]
    assert not res.converged.any()


def test_scan_stops_once_no_value_can_be_certified(time_limit):
    # hbar = 0.25: at the start radius 100, 2 err = 3.5e-8 for lambda_1 against a
    # tolerance of 2.05e-8; doubling to R = 1600 only grew err and took ~6 s
    with time_limit(10):
        res = spectrum_converged(LatticeSpec(0.25, 1), QUARTIC, j_max=10, tol=1e-8)
    assert res.radii_scanned == [100]
    assert not res.converged[0] and res.converged[1:].all()


@pytest.mark.parametrize("dim, radius", [(1, 0), (1, 3), (2, 0), (2, 2), (3, 1)])
def test_neumann_truncation_of_a_dense_twin(tmp_path, dim, radius):
    # the missing hops come from the box geometry, whatever the storage of H
    spec = LatticeSpec(0.5, dim)
    H = build_hamiltonian(spec, PotentialSpec.anharmonic(1.0, 1, dim), BoxTruncation(radius), 0.25)
    N = neumann_truncation(H)
    np.testing.assert_array_equal(neumann_truncation(KernelMatrix(spec, H.box, H.entries)), N)
    write_binary(H, tmp_path / "H.bin")
    np.testing.assert_array_equal(neumann_truncation(read_binary(tmp_path / "H.bin")), N)
    if radius == 0:  # the one point misses all 2n neighbours: only V(0) + lambda is left
        assert N[0, 0] == pytest.approx(0.25, abs=1e-12)


def test_quartic_ground_state_certified():
    # reference: a 40-digit mpmath Sturm-sequence bisection of the tridiagonal
    # box matrix gives lambda_1 = 0.98014325014208 at R = 25, 200 and 400
    res = spectrum_converged(SPEC1, QUARTIC, j_max=300, tol=1e-8, max_dim=1001)
    assert res.converged[0]
    assert res.eigenvalues[0] == pytest.approx(0.98014325014208, rel=1e-9, abs=0)


@pytest.mark.parametrize("dim, l, j_max, max_dim, start, radius", [
    (1, 1, 300, 1001, 25, 200),
    (1, 2, 300, 1001, 25, 200),
    (2, 1, 200, 2401, 3, 12),
])
def test_scan_stops_where_every_value_is_certified(dim, l, j_max, max_dim, start, radius):
    # the box-doubling configs of the benchmark's scan workload
    res = spectrum_converged(LatticeSpec(1.0, dim), PotentialSpec.anharmonic(1.0, l, dim),
                             j_max=j_max, tol=1e-8, start_radius=start, max_dim=max_dim)
    assert res.all_converged
    assert res.radius_used == radius == res.radii_scanned[-1]


def test_2d_harmonic_is_a_kronecker_sum_of_1d():
    # H_2d = H_1d (x) I + I (x) H_1d, so its spectrum is the sorted pairwise sums
    tol = 1e-8
    one = spectrum_converged(SPEC1, HARMONIC, j_max=40, tol=tol)
    two = spectrum_converged(LatticeSpec(1.0, 2), PotentialSpec.anharmonic(1.0, 1, 2),
                             j_max=200, tol=tol, start_radius=3, max_dim=2401)
    assert one.all_converged and two.all_converged
    sums = np.sort((one.eigenvalues[:, None] + one.eigenvalues[None, :]).ravel())[:200]
    assert sums[-1] < one.eigenvalues[0] + one.eigenvalues[-1]  # no pair left out
    np.testing.assert_array_less(np.abs(two.eigenvalues - sums), tol * (1 + np.abs(sums)))


def test_monotonicity_in_potential():
    # adding a nonnegative potential never decreases any sorted eigenvalue
    box = BoxTruncation(12)
    base = build_hamiltonian(SPEC1, lambda k: 0.0, box)
    bumped = build_hamiltonian(SPEC1, lambda k: float(k @ k), box)
    v0 = np.linalg.eigvalsh(base.entries)
    v1 = np.linalg.eigvalsh(bumped.entries)
    assert np.all(v1 >= v0 - 1e-10)


def test_fit_growth_synthetic_square():
    eigs = np.arange(1, 401, dtype=float) ** 2
    fit = fit_growth_exponent(eigs, (50, 350), mu=2.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert all(fit.r_bound_satisfied.values())


def test_fit_growth_samples_only_orders_admissible_in_dimension_n():
    # H^-1 has order -mu, which is r-nuclear on the n-d lattice for n/mu < r <= 1
    eigs = np.arange(1, 401, dtype=float)
    assert fit_growth_exponent(eigs, (50, 350), mu=2.0, n=2).r_bound_satisfied == {}
    assert fit_growth_exponent(eigs, (50, 350), mu=2.0, n=3).r_bound_satisfied == {}
    quartic = fit_growth_exponent(eigs ** 2, (50, 350), mu=4.0, n=2)
    assert set(quartic.r_bound_satisfied) == {1.0, 0.75, 0.55}
    assert set(fit_growth_exponent(eigs, (50, 350), mu=2.0).r_bound_satisfied) == {1.0, 0.75, 0.55}

def test_fit_growth_harmonic_window():
    res = spectrum_converged(SPEC1, HARMONIC, j_max=300, tol=1e-8, max_dim=1001)
    assert res.all_converged
    fit = fit_growth_exponent(res, (100, 300), HARMONIC.mu)
    assert 1.9 <= fit.slope <= 2.1
    assert set(fit.r_bound_satisfied) == {1.0, 0.75, 0.55}
    assert all(fit.r_bound_satisfied.values())


def test_fit_growth_quartic_window():
    res = spectrum_converged(SPEC1, QUARTIC, j_max=300, tol=1e-8, max_dim=1001)
    assert res.all_converged
    fit = fit_growth_exponent(res, (100, 300), QUARTIC.mu)
    assert 3.8 <= fit.slope <= 4.2
    assert all(fit.r_bound_satisfied.values())


def test_fit_growth_domain_errors():
    eigs = np.arange(-5, 100, dtype=float)
    with pytest.raises(ValueError):
        fit_growth_exponent(eigs, (1, 10), mu=2.0)  # non-positive values in window
    with pytest.raises(ValueError):
        fit_growth_exponent(np.ones(10), (5, 20), mu=2.0)  # window too large
    res = spectrum_converged(SPEC1, HARMONIC, j_max=5, tol=1e-8, start_radius=2,
                             max_dim=7)
    with pytest.raises(ValueError):
        fit_growth_exponent(res, (1, 5), mu=2.0)  # unconverged values in window


@pytest.mark.parametrize("V, hbar, start, max_dim, stop", [
    (HARMONIC, 1.0, 25, 4000, "all certified"),
    (HARMONIC, 1.0, 2, 7, "budget exhausted"),
    (QUARTIC, 0.25, 100, 4000, "solver error bound above tol"),
    # the next box, of 401 points, is over budget too: the error rule wins
    (QUARTIC, 0.25, 100, 300, "solver error bound above tol"),
], ids=["certified", "budget", "error", "error-and-budget"])
def test_scan_records_why_it_stopped(V, hbar, start, max_dim, stop):
    res = spectrum_converged(LatticeSpec(hbar, 1), V, j_max=5, tol=1e-8, start_radius=start,
                             max_dim=max_dim)
    assert res.stop == stop
    assert res.all_converged is (stop == "all certified")
