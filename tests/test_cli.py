import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from lattice_pdo import cli, kernel, schrodinger, spectral
from lattice_pdo.cli import main
from lattice_pdo.lattice import BoxTruncation, LatticeSpec
from lattice_pdo.spectral import SpectralResult, eigendecompose_hermitian
from lattice_pdo.symbols import constant_symbol


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(task, **overrides):
    cfg = {
        "lattice": {"hbar": 1.0, "dim": 1},
        "symbol": {"family": "difference", "params": {}},
        "truncation": {"radius": 1},
        "task": task,
        "params": {},
        "output": {"directory": ".", "formats": ["csv", "json"]},
    }
    cfg.update(overrides)
    return cfg


def test_assemble_difference_csv(tmp_path):
    cfg = base_config("assemble")
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "kernel.csv").read_text().splitlines()
    assert len(lines) == 1 + 5  # header plus the five nonzero stencil entries
    values = sorted(float(l.split(",")[2]) for l in lines[1:])
    assert values == [-1.0, -1.0, -1.0, 1.0, 1.0]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["version"]
    names = {o["path"] for o in manifest["outputs"]}
    assert "kernel.csv" in names
    assert all(len(o["sha256"]) == 64 for o in manifest["outputs"])


def test_order_report_nuclear(tmp_path):
    cfg = base_config("order-report",
                      params={"mu": -3.0, "delta": 0.0, "r": 1.0, "p": 2.0, "p2": 2.0})
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdicts"]["r_nuclear"] == "holds"
    assert report["t"] == pytest.approx(1.0)


def test_spectrum_task_weyl_bracket(tmp_path):
    cfg = base_config(
        "spectrum",
        symbol={"family": "schrodinger",
                "params": {"potential": {"c": 1.0, "l": 1}, "lambda": 0.0}},
        truncation={"radius": 25},
        params={"j_max": 5, "tol": 1e-8},
    )
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "j,lambda_j,converged,R_used"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 5
    assert all(r[2] == "1" for r in rows)
    lam = np.array([float(r[1]) for r in rows])
    # sorted-potential oracle: V(k) + 2 over the box, smallest five
    r_used = int(rows[0][3])
    ks = np.arange(-r_used, r_used + 1)
    oracle = np.sort(ks.astype(float) ** 2 + 2.0)[:5]
    assert np.max(np.abs(lam - oracle)) <= 4.0


def test_coeffs_task(tmp_path):
    cfg = base_config("coeffs", params={"freq_radius": 2})
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "coeffs.csv").read_text().splitlines()
    assert lines[0] == "k_1,m_1,re,im"
    assert len(lines) == 1 + 3 * 5


def test_check_nuclear_task(tmp_path):
    cfg = base_config(
        "check-nuclear",
        symbol={"family": "decaying", "params": {"s": 3.0, "a": 1.0, "b": 0.0}},
        truncation={"radius": 50},
        params={"r": 1.0, "p2": 2.0, "p": 2.0},
    )
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdicts"]["r_nuclear"] == "holds"
    assert not report["diverging"]
    sums = (tmp_path / "out" / "sums.csv").read_text().splitlines()
    assert sums[0] == "criterion,radius,value"
    assert len(sums) == 3  # value at R and at 2R


def test_check_bounds_divergence(tmp_path):
    cfg = base_config(
        "check-bounds",
        symbol={"family": "multiplication", "params": {"epsilon": 1.0}},
        truncation={"radius": 50},
        params={"p": 2.0},
    )
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdicts"]["l1_to_linf_bounded"] == "fails"
    assert report["diverging"]["sup_entry"]


def test_diag_approx_task(tmp_path):
    cfg = base_config(
        "diag-approx",
        symbol={"family": "decaying", "params": {"s": 3.0, "a": 2.0, "b": 1.0}},
        truncation={"radius": 30},
    )
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "diag_approx.json").read_text())
    assert summary["hermitized"] is True
    assert summary["applicable"] is True
    lines = (tmp_path / "out" / "diag_approx.csv").read_text().splitlines()
    assert lines[0] == "index,k_1,eigenvalue,diag,residual"
    assert len(lines) == 1 + 61


def test_diag_approx_fit_refuses_a_rank_deficient_window(tmp_path):
    # at hbar 1 and R = 3 the difference operator's fit window holds two points with
    # the same |k| = 2: one value of log(1 + |k|), so no slope is fitted
    cfg = base_config("diag-approx", truncation={"radius": 3})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lattice_pdo.cli", "run",
         write_config(tmp_path, cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    summary = json.loads((tmp_path / "out" / "diag_approx.json").read_text())
    assert summary["fit_exponent"] is None


def test_fit_growth_task(tmp_path):
    cfg = base_config(
        "fit-growth",
        symbol={"family": "schrodinger",
                "params": {"potential": {"c": 1.0, "l": 1}, "lambda": 0.0}},
        truncation={"radius": 25},
        params={"j_max": 60, "tol": 1e-8, "j_range": [20, 60], "max_dim": 1001},
    )
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    growth = json.loads((tmp_path / "out" / "growth.json").read_text())
    assert 1.8 <= growth["slope"] <= 2.2



def test_fit_growth_2d_claims_no_order_r(tmp_path):
    # n/mu = 1 in the 2-d harmonic case: no r <= 1 is admissible, so none is reported
    cfg = base_config(
        "fit-growth", lattice={"hbar": 1.0, "dim": 2},
        symbol={"family": "schrodinger",
                "params": {"potential": {"c": 1.0, "l": 1}, "lambda": 0.0}},
        truncation={"radius": 3},
        params={"j_max": 200, "tol": 1e-8, "j_range": [50, 200], "max_dim": 2401},
    )
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    growth = json.loads((tmp_path / "out" / "growth.json").read_text())
    assert growth["r_bound_satisfied"] == {}

def test_config_error_unknown_family(tmp_path, capsys):
    cfg = base_config("assemble", symbol={"family": "nope", "params": {}})
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "config"
    assert payload["field"] == "symbol.family"


def test_config_error_missing_field(tmp_path, capsys):
    cfg = base_config("assemble")
    del cfg["lattice"]["hbar"]
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["field"] == "lattice.hbar"


def test_config_error_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("task", ["spectrum", "fit-growth"])
def test_config_error_scan_radius_zero(tmp_path, capsys, time_limit, task):
    cfg = base_config(
        task,
        symbol={"family": "schrodinger",
                "params": {"potential": {"c": 1.0, "l": 1}, "lambda": 0.0}},
        truncation={"radius": 0},
        params={"j_max": 3, "tol": 1e-8, "j_range": [1, 3]},
    )
    with time_limit(10):
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "config"


def test_assemble_writes_a_binary_kernel_that_reads_back_to_the_csv(tmp_path):
    # kernel.bin, alone or beside kernel.csv, is listed with its sha256 and holds the
    # CSV's triplets: the 2-d decaying kernel, 25 rows
    bins = []
    for formats in (["bin"], ["csv", "bin"]):
        out = tmp_path / "-".join(formats)
        cfg = base_config("assemble", lattice={"hbar": 0.5, "dim": 2},
                          symbol={"family": "decaying", "params": {"s": 3.0, "a": 1.0, "b": 1.0}},
                          truncation={"radius": 2},
                          output={"directory": ".", "formats": formats})
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(o["path"] for o in outputs) == sorted(f"kernel.{f}" for f in formats)
        for o in outputs:
            assert hashlib.sha256((out / o["path"]).read_bytes()).hexdigest() == o["sha256"]
        bins.append((out / "kernel.bin").read_bytes())
    assert bins[0] == bins[1]
    body = (out / "kernel.csv").read_text().splitlines()[1:]
    rows, cols, re, im = (np.array(c, dtype=float) for c in zip(*(l.split(",") for l in body)))
    K = kernel.read_binary(tmp_path / "bin" / "kernel.bin")
    assert K.size == 25 and len(body) > 25
    for got, want in zip(K._triplets, (rows, cols, re + 1j * im)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("task", ["assemble", "diag-approx"])
def test_dense_size_preflight(tmp_path, capsys, time_limit, task):
    # 61^3 = 226 981 points: a dense complex128 matrix of ~824 GB, which the binary
    # export needs; diag-approx holds the eigenvectors of the hermitized real kernel's
    # 8 reflection blocks, 8 (31^2 + 30^2)^3 bytes (~52 GB), and refuses them
    cfg = base_config(
        task,
        lattice={"hbar": 1.0, "dim": 3},
        symbol={"family": "decaying", "params": {"s": 3.0, "a": 1.0, "b": 1.0}},
        truncation={"radius": 30},
        output={"directory": ".", "formats": ["bin"]},
    )
    with time_limit(10):
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "numeric"
    assert "226981x226981" in payload["message"]
    need = "824325989776 bytes" if task == "assemble" else "eigenvectors (51561923048 bytes)"
    assert need in payload["message"]


def test_criterion_sums_beyond_dense_memory(tmp_path, capsys, time_limit):
    # 2 000 001 points at R and 4 000 001 at 2R: dense matrices of 64 and 256 TB.
    # The sums read the diagonal's triplets; the eigensolve holds the eigenvectors of
    # the two reflection blocks, 8 (1000001^2 + 1000000^2) bytes (16 TB), and refuses them.
    cfg = base_config(
        "check-bounds",
        symbol={"family": "multiplication", "params": {"epsilon": 1.0}},
        truncation={"radius": 10 ** 6},
        params={"p": 2.0},
    )
    with time_limit(60):
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["sums"]["sup_entry"] == 2e6
    assert report["diverging"]["sup_entry"]

    cfg["task"] = "diag-approx"
    with time_limit(60):
        rc = main(["run", write_config(tmp_path, cfg, name="diag.json"),
                   "--out", str(tmp_path / "diag")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "numeric"
    assert "2000001x2000001" in payload["message"]
    assert "eigenvectors (16000016000008 bytes)" in payload["message"]


LATTICE1 = {"hbar": 1.0, "dim": 1}


@pytest.mark.parametrize("task, symbol, radius, field, point, lattice", [
    ("check-bounds", {"family": "anharmonic", "params": {"c": 1.0, "l": 64}}, 300,
     "symbol.params", "k = [-256.0], |k| = 256.0", LATTICE1),
    ("check-bounds", {"family": "schrodinger",
                      "params": {"potential": {"c": 1.0, "l": 63}, "lambda": 0.0}}, 300,
     "symbol.params.potential", "k = [-280.0], |k| = 280.0", LATTICE1),
    ("spectrum", {"family": "schrodinger",
                  "params": {"potential": {"c": 1.0, "l": 63}, "lambda": 0.0}}, 300,
     "symbol.params.potential", "k = [-280.0], |k| = 280.0", LATTICE1),
    ("check-bounds", {"family": "multiplication", "params": {"epsilon": 400}}, 10,
     "symbol.params", "k = [-6.0], |k| = 6.0", LATTICE1),
    ("coeffs", {"family": "multiplication", "params": {"epsilon": 400}}, 10,
     "symbol.params", "k = [-6.0], |k| = 6.0", LATTICE1),
    ("check-nuclear", {"family": "decaying", "params": {"s": -400, "a": 1.0, "b": 0.5}}, 10,
     "symbol.params", "k = [-5.0], |k| = 5.0", LATTICE1),
    ("check-nuclear", {"family": "decaying", "params": {"s": -50, "a": 1e300, "b": 0.5}}, 3,
     "symbol.params", "k = [-0.5], |k| = 0.5", {"hbar": 0.25, "dim": 1}),
    ("assemble", {"family": "decaying", "params": {"s": -300, "a": 1e300, "b": 0.5}}, 3,
     "symbol.params", "k = [-1.0, 0.0], |k| = 1.0", {"hbar": 1.0, "dim": 2}),
    *[(task, {"family": "multiplication", "params": {"epsilon": -0.5}}, 3,
       "symbol.params", "k = [0.0], |k| = 0.0", LATTICE1)
      for task in ("assemble", "check-bounds", "check-nuclear", "diag-approx")],
], ids=["anharmonic-l64", "potential-l63", "potential-l63-scan", "multiplication-eps400",
        "multiplication-eps400-coeffs", "decaying-s-400", "decaying-a1e300-s-50",
        "decaying-a1e300-s-300-2d", "multiplication-eps-0.5-assemble",
        "multiplication-eps-0.5-check-bounds", "multiplication-eps-0.5-check-nuclear",
        "multiplication-eps-0.5-diag-approx"])
def test_anharmonic_past_float64_in_the_box_is_a_config_error(tmp_path, capsys, task, symbol,
                                                             radius, field, point, lattice):
    # c|k|^(2l) leaves float64 in the C pow first at |k| = 256 for l = 64 (the
    # anharmonic family has no growth probes) and at |k| = 280 for l = 63, beyond
    # the probes' 256: both inside the box of radius 300.  |k|^400 leaves it at
    # |k| = 6 and (1+|k|)^400 at |k| = 5, inside the box of radius 10.  (1+|k|)^-s
    # is finite in the box of radius 3 for s = -50 and s = -300, but a = 1e300 times
    # it is not: at |k| = 0.5 (1.5^50 = 6.4e8) and at |k| = 1 (2^300 = 2.0e90).
    # |k|^-0.5 is infinite at k = 0, which every box holds, so every kernel task
    # refuses it.  No numpy warning reaches stderr: it holds the one JSON line
    params = {"check-bounds": {"p": 2.0}, "spectrum": {"j_max": 5}}.get(task, {})
    cfg = base_config(task, lattice=lattice, symbol=symbol, truncation={"radius": radius},
                      params=params)
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "config" and payload["field"] == field
    assert f"is not finite at {point}: inf" in payload["message"]


@pytest.mark.parametrize("task, symbol, params, message", [
    ("check-bounds", {"family": "multiplication", "params": {"epsilon": 100}}, {"p": 2.0},
     "schur_l1_lp is not finite at radius 300: inf"),
    ("check-nuclear", {"family": "decaying", "params": {"s": -100, "a": 1.0, "b": 0.5}}, {},
     "nuclear_sum is not finite at radius 300: inf"),
], ids=["multiplication-eps100", "decaying-s-100"])
def test_criterion_sum_past_float64_is_refused(tmp_path, capsys, task, symbol, params, message):
    # every entry is finite (|k|^100 <= 300^100), but the squares in the sums leave
    # float64: exit 3 with one JSON line naming the first such sum and its radius,
    # no numpy warning on stderr and no inf written to sums.csv or report.json
    cfg = base_config(task, symbol=symbol, truncation={"radius": 300}, params=params)
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "numeric" and payload["message"] == message
    assert not (tmp_path / "out" / "sums.csv").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_budget_failure_exit_code(tmp_path, capsys):
    cfg = base_config(
        "spectrum",
        symbol={"family": "schrodinger",
                "params": {"potential": {"c": 1.0, "l": 1}, "lambda": 0.0}},
        truncation={"radius": 2},
        params={"j_max": 5, "tol": 1e-8, "max_dim": 7},
    )
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "numeric"
    # the partial spectrum is still written
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_determinism_across_thread_counts(tmp_path):
    cfg = base_config(
        "check-nuclear",
        symbol={"family": "decaying", "params": {"s": 2.0, "a": 1.0, "b": 1.0}},
        truncation={"radius": 40},
        params={"r": 1.0, "p2": 2.0},
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b"), "--threads", "8"]) == 0
    assert (tmp_path / "a" / "sums.csv").read_bytes() == (tmp_path / "b" / "sums.csv").read_bytes()
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra == rb


SCHRODINGER = {"family": "schrodinger",
               "params": {"potential": {"c": 1.0, "l": 1}, "lambda": 0.0}}


def _run_config(cfg, expect_rc):
    def run(out):
        path = write_config(out.parent, cfg, name=out.name + ".json")
        assert main(["run", path, "--out", str(out)]) == expect_rc

    return run


def _complex_constant_kernel(out):
    # the config schema takes real constants only, so this one goes through the library
    spec = LatticeSpec(1.0, 1)
    out.mkdir()
    K = kernel.assemble(constant_symbol(complex(-1 / 3, 1e-5), spec), spec, BoxTruncation(2))
    kernel.write_csv(K, out / "kernel.csv")


# sha256 of each CSV body as written before the package had one CSV writer
PINNED_CSV = {
    "assemble-complex-constant": (
        _complex_constant_kernel,
        "kernel.csv", "52b934885712a5cde753c4b7f2ab5cbe63bffbe35f37c357362855395b272a58"),
    "assemble-decaying-hbar-0.5": (_run_config(base_config(
        "assemble", lattice={"hbar": 0.5, "dim": 2}, truncation={"radius": 3},
        symbol={"family": "decaying", "params": {"s": 1.5, "a": 1.0, "b": -0.5}}), 0),
        "kernel.csv", "8b3d98796dea0e937e8e801f6dd6822474b054a43d9b7eb9dcd970b7c1932eef"),
    "coeffs": (_run_config(base_config(
        "coeffs", lattice={"hbar": 0.5, "dim": 2}, truncation={"radius": 2},
        symbol={"family": "decaying", "params": {"s": 2.0, "a": 1.0, "b": 1.0}},
        params={"freq_radius": 2}), 0),
        "coeffs.csv", "fe1098af4b31e44abe61668bb93b421381a1531e595dbbcc10003f17849e6834"),
    "check-bounds": (_run_config(base_config(
        "check-bounds", lattice={"hbar": 0.5, "dim": 1}, truncation={"radius": 10},
        symbol={"family": "multiplication", "params": {"epsilon": 1.0}},
        params={"p": 3.0}), 0),
        "sums.csv", "fe1ce99c679d343fbedcd89c01d869a02bb2a8b7a24778521179dbd58220a183"),
    "check-nuclear": (_run_config(base_config(
        "check-nuclear", lattice={"hbar": 1.0, "dim": 2}, truncation={"radius": 4},
        symbol={"family": "decaying", "params": {"s": 3.0, "a": 1.0, "b": 1.0}},
        params={"r": 0.5, "p2": 2.0}), 0),
        "sums.csv", "b71e0012c68bb797411198200386cdd61fb9e56a42f03f097042a7a32d01e0fc"),
    # re-pinned when the eigenvectors came to be solved in reflection blocks, behind
    # test_pinned_diag_approx_agrees_with_a_dense_solve: index, point and diag columns
    # and low_overlap_pairs kept, eigenvalues moved by at most 5.6e-16
    "diag-approx": (_run_config(base_config(
        "diag-approx", lattice={"hbar": 0.5, "dim": 2}, truncation={"radius": 4},
        symbol={"family": "decaying", "params": {"s": 3.0, "a": 2.0, "b": 1.0}}), 0),
        "diag_approx.csv", "2ddb68fccf43a1d360ef9c51ab6b7a12c106f936274cbdd55ec6c40479b6a636"),
    # re-pinned when each scan value became certified by a Dirichlet-Neumann
    # bracket at one radius: 97 rows certified instead of 49, and 46 values
    # taken from the certifying radius 25 moved by at most 6.3e-13 relative.
    # Re-pinned when each box came to be solved in its reflection blocks, behind
    # test_pinned_budget_scan_agrees_with_dense_solves: flags, R_used and nan rows
    # kept, 96 of 101 values moved by at most 3.0e-12 (7.9e-14 relative)
    "spectrum-budget-exhausted": (_run_config(base_config(
        "spectrum", symbol=SCHRODINGER, truncation={"radius": 25},
        params={"j_max": 300, "max_dim": 101}), 3),
        "spectrum.csv", "5496388b1701a4937361ab537fd1af32663d242ad51018ea8438a60d5b41d50b"),
}


def test_pinned_budget_scan_agrees_with_dense_solves(monkeypatch):
    # the guard of the spectrum-budget-exhausted digest: solving each box in its
    # reflection blocks moves no flag, radius or nan row, and no value by its err
    spec, pot = LatticeSpec(1.0, 1), schrodinger.PotentialSpec.anharmonic(1.0, 1)

    def scan():
        return schrodinger.spectrum_converged(spec, pot, 300, 1e-8, start_radius=25, max_dim=101)

    def dense_solve(K):
        bound = K.size * np.finfo(float).eps * np.max(kernel.power_sums(K, 1.0, 1))
        return SpectralResult(np.linalg.eigvalsh(K.entries), None, bound)

    folded = scan()
    monkeypatch.setattr(schrodinger, "eigendecompose_hermitian", dense_solve)
    dense = scan()
    assert folded.radii_scanned == dense.radii_scanned == [25, 50]
    assert folded.stop == dense.stop == "budget exhausted"
    assert np.array_equal(folded.converged, dense.converged)
    finite = np.isfinite(dense.eigenvalues)
    assert np.array_equal(np.isfinite(folded.eigenvalues), finite) and finite.sum() == 101
    H = schrodinger.build_hamiltonian(spec, pot, BoxTruncation(50))
    N = schrodinger.neumann_truncation(H)
    err = max(eigendecompose_hermitian(K).error_bound for K in (H, N))  # of the largest box
    assert np.max(np.abs(folded.eigenvalues - dense.eigenvalues)[finite]) <= err


def test_pinned_diag_approx_agrees_with_a_dense_solve(tmp_path, monkeypatch):
    # the guard of the diag-approx digest: solving in reflection blocks moves no index,
    # point or diag field and no low-overlap flag, and no eigenvalue by its solve's
    # error_bound from a dense eigh of the whole matrix
    run = PINNED_CSV["diag-approx"][0]
    bounds, blocks = [], spectral.reflection_blocks

    def dense_solve(K):
        # the kernel's blocks, asked for first: one, the whole matrix in the identity basis,
        # which `_eigh` solves by one dense eigh of its entries (2-d, so not tridiagonal);
        # the residue's as unpatched.  The kernel's error_bound depends on it alone
        if bounds:
            yield from blocks(K)
            return
        bounds.append(spectral._bounded(K, None, None).error_bound)
        every = np.arange(K.size)
        yield K, (every, every, np.ones(K.size))

    def table(out):
        body = (out / "diag_approx.csv").read_text().splitlines()
        summary = json.loads((out / "diag_approx.json").read_text())
        return [line.split(",") for line in body], summary["low_overlap_pairs"]

    run(tmp_path / "folded")
    monkeypatch.setattr(spectral, "reflection_blocks", dense_solve)
    run(tmp_path / "dense")
    (folded, folded_low), (dense, dense_low) = table(tmp_path / "folded"), table(tmp_path / "dense")
    assert len(bounds) == 1 and len(folded) == len(dense) == 82
    assert folded[0] == dense[0] == ["index", "k_1", "k_2", "eigenvalue", "diag", "residual"]
    for a, b in zip(folded, dense):
        assert a[:3] == b[:3] and a[4] == b[4]
    moved = [abs(float(a[3]) - float(b[3])) for a, b in zip(folded[1:], dense[1:])]
    assert max(moved) <= bounds[0]
    assert folded_low == dense_low


@pytest.mark.parametrize("case", sorted(PINNED_CSV))
def test_csv_bodies_pinned(tmp_path, case):
    run, name, digest = PINNED_CSV[case]
    out = tmp_path / "out"
    run(out)
    body = (out / name).read_bytes()
    assert hashlib.sha256(body).hexdigest() == digest


@pytest.mark.parametrize("symbol, matrices", [
    (SCHRODINGER, 1),
    ({"family": "decaying", "params": {"s": 3.0, "a": 2.0, "b": 1.0}}, 2),
])
def test_diag_approx_checks_each_matrix_once(tmp_path, monkeypatch, symbol, matrices):
    # the Schrodinger kernel is Hermitian; the decaying one is hermitized into a second matrix
    passes = []
    asymmetry = kernel._asymmetry

    def counted(size, *triplets):
        passes.append(size)
        return asymmetry(size, *triplets)

    monkeypatch.setattr(kernel, "_asymmetry", counted)
    cfg = base_config("diag-approx", symbol=symbol, truncation={"radius": 10})
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "diag_approx.json").read_text())
    assert summary["hermitized"] is (matrices == 2)
    assert len(passes) == matrices


@pytest.mark.parametrize("task, params", [("check-nuclear", {"r": 0.5, "p2": 2.0}),
                                          ("check-bounds", {"p": 3.0})])
def test_criterion_sums_build_no_dense_matrix(tmp_path, monkeypatch, task, params):
    built = []
    dense = kernel._dense

    def counted(size, *triplets):
        built.append(size)
        return dense(size, *triplets)

    monkeypatch.setattr(kernel, "_dense", counted)
    decaying = {"family": "decaying", "params": {"s": 3.0, "a": 1.0, "b": 1.0}}
    lattice = {"hbar": 0.5, "dim": 2}
    cfg = base_config(task, lattice=lattice, symbol=decaying, truncation={"radius": 4},
                      params=params)
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    assert built == []
    # diag-approx builds no matrix of the whole box either: through the same `_dense`, the
    # four reflection blocks of K for its eigenvectors, then those of the residue
    cfg = base_config("diag-approx", lattice=lattice, symbol=decaying, truncation={"radius": 4})
    assert main(["run", write_config(tmp_path, cfg, name="diag.json"),
                 "--out", str(tmp_path / "diag")]) == 0
    assert built == [25, 20, 20, 16] * 2


@pytest.mark.parametrize("section, key, value", [
    ("lattice", "hbar", True),
    ("lattice", "dim", True),
    ("truncation", "radius", True),
    ("params", "j_max", True),
    ("params", "j_range", ["a", 20]),
    ("params", "j_range", [5.7, 20.2]),
    ("params", "j_range", [20, 5]),
    ("params", "j_range", [5, 40]),
], ids=["hbar-true", "dim-true", "radius-true", "j_max-true", "j_range-str", "j_range-float",
        "j_range-reversed", "j_range-beyond-j_max"])
def test_config_rejects_booleans_and_non_integer_window(tmp_path, capsys, section, key, value):
    cfg = base_config("spectrum", symbol=SCHRODINGER, truncation={"radius": 25},
                      params={"j_max": 30, "tol": 1e-8, "j_range": [5, 20]})
    cfg[section][key] = value
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["field"] == f"{section}.{key}"
    # refused before the scan
    assert not (tmp_path / "out" / "spectrum.csv").exists()


# (config, exit code, diagnostic field, text in the message); every field is
# checked before any numeric work, and a diagnostic names the full field path
CHECKED_FIRST = {
    "epsilon-str": (base_config(
        "assemble", symbol={"family": "multiplication", "params": {"epsilon": "1"}}),
        2, "symbol.params.epsilon", "expected int or float, got str"),
    "potential-c-str": (base_config(
        "spectrum", params={"j_max": 3},
        symbol={"family": "schrodinger", "params": {"potential": {"c": "1", "l": 1}}}),
        2, "symbol.params.potential.c", "expected int or float, got str"),
    "mu-str": (base_config("order-report", params={"mu": "-3"}),
               2, "params.mu", "expected int or float, got str"),
    "hbar-str": (base_config("assemble", lattice={"hbar": "1", "dim": 1}),
                 2, "lattice.hbar", "expected int or float, got str"),
    "params-int": (base_config("coeffs", params=3), 2, "params", "expected dict, got int"),
    "freq_radius-negative": (base_config("coeffs", params={"freq_radius": -1}),
                             2, "params.freq_radius", "at least 0"),
    "formats-txt": (base_config("assemble", output={"directory": ".", "formats": ["txt"]}),
                    2, "output.formats", "'csv' and/or 'bin'"),
    "hermitize-str-hermitian-kernel": (base_config(
        "diag-approx", symbol=SCHRODINGER, truncation={"radius": 10},
        params={"hermitize": "no"}),
        2, "params.hermitize", "expected bool, got str"),
    "fit-growth-j_lo-0": (base_config(
        "fit-growth", symbol=SCHRODINGER, truncation={"radius": 25},
        params={"j_max": 30, "j_range": [0, 20]}),
        2, "params.j_range", "1 <= j_lo < j_hi <= j_max = 30"),
    "j_max-beyond-memory": (base_config(
        "spectrum", symbol=SCHRODINGER, truncation={"radius": 25},
        params={"j_max": 10 ** 12}),
        3, None, ""),
    # 200001^3 points: the coordinates alone would take 192 PB
    "bands-beyond-memory": (base_config(
        "check-bounds", lattice={"hbar": 1.0, "dim": 3}, truncation={"radius": 100000},
        symbol={"family": "decaying", "params": {"s": 3.0, "a": 1.0, "b": 1.0}}),
        3, None, f"27 bands of a {200001 ** 3}-point box needs {27 * 200001 ** 3 * 32} bytes"),
    # a value outside a library object's range names its field, not the enclosing object
    "dim-0": (base_config("assemble", lattice={"hbar": 1.0, "dim": 0}),
              2, "lattice.dim", "at least 1, got 0"),
    "hbar-nan": (base_config("assemble", lattice={"hbar": float("nan"), "dim": 1}),
                 2, "lattice.hbar", "must be positive, got nan"),
    "anharmonic-l-0": (base_config(
        "assemble", symbol={"family": "anharmonic", "params": {"c": 1.0, "l": 0}}),
        2, "symbol.params.l", "at least 1, got 0"),
    "potential-c-0": (base_config(
        "spectrum", params={"j_max": 3},
        symbol={"family": "schrodinger", "params": {"potential": {"c": 0, "l": 1}}}),
        2, "symbol.params.potential.c", "must be positive, got 0"),
    "potential-l-0": (base_config(
        "spectrum", params={"j_max": 3},
        symbol={"family": "schrodinger", "params": {"potential": {"c": 1.0, "l": 0}}}),
        2, "symbol.params.potential.l", "at least 1, got 0"),
    # c and l are each valid, but c|k|^(2l) overflows at a growth probe: in the
    # C pow (OverflowError) or in the product with c (inf)
    **{f"potential-overflow-c{c}-l{l}": (base_config(
        "spectrum", params={"j_max": 3},
        symbol={"family": "schrodinger", "params": {"potential": {"c": c, "l": l}}}),
        2, "symbol.params.potential", "not finite") for c, l in ((1.0, 64), (1e300, 30))},
    "p-0.5": (base_config("check-bounds", params={"p": 0.5}), 2, "params.p", "at least 1"),
    "p2-0.5": (base_config("check-nuclear", params={"p2": 0.5}), 2, "params.p2", "at least 1"),
    "r-0": (base_config("check-nuclear", params={"r": 0}), 2, "params.r", "(0, 1], got 0"),
    "r-1.5": (base_config("order-report", params={"mu": -3.0, "r": 1.5}),
              2, "params.r", "(0, 1], got 1.5"),
    "rho-2": (base_config("order-report", params={"mu": -3.0, "rho": 2}),
              2, "params.rho", "[0, 1], got 2"),
    "delta-2": (base_config("order-report", params={"mu": -3.0, "delta": 2}),
                2, "params.delta", "[0, 1], got 2"),
    # run with one page of physical memory: the scan's first Hamiltonian is refused
    "scan-beyond-memory": (base_config(
        "spectrum", symbol=SCHRODINGER, truncation={"radius": 25}, params={"j_max": 5}),
        3, None, "bytes of physical memory"),
}


def test_a_dimension_past_the_bound_is_refused_at_once(tmp_path, capsys, time_limit):
    # validating a potential takes O(dim^2) time (2.1 s at dim 10^4, over 100 s at 10^5):
    # dim 10^5 is refused before it starts, the field named, well within a second
    cfg = base_config("order-report", lattice={"hbar": 1.0, "dim": 10 ** 5}, symbol=SCHRODINGER,
                      params={"p": 2.0, "r": 1.0})
    start = time.monotonic()
    with time_limit(2):
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert time.monotonic() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "config" and payload["field"] == "lattice.dim"
    assert f"at most {cli.MAX_DIM}, got 100000" in payload["message"]


@pytest.mark.parametrize("case", sorted(CHECKED_FIRST))
def test_fields_checked_before_computing(tmp_path, capsys, monkeypatch, time_limit, case):
    cfg, code, field, text = CHECKED_FIRST[case]
    assembled = []
    assemble = kernel.assemble

    def counted(*args, **kwargs):
        assembled.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(kernel, "assemble", counted)
    if case == "scan-beyond-memory":
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: 1 if name == "SC_PHYS_PAGES" else sysconf(name))
    with time_limit(20):
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == ("config" if code == 2 else "numeric")
    assert payload["field"] == field
    assert text in payload["message"]
    if code == 2:
        assert assembled == []
        assert not (tmp_path / "out" / "spectrum.csv").exists()


@pytest.mark.parametrize("task", ["spectrum", "fit-growth"])
@pytest.mark.parametrize("truncation, max_dim, field, text", [
    ({"radius": 0}, 101, "truncation.radius", "must be at least 1, got 0"),
    ({"radius": 25}, 10, "params.max_dim", "must be at least 51, got 10"),
    ({}, 10, "params.max_dim", "must be at least 51, got 10"),   # the default start radius
], ids=["radius-0", "max_dim-below-start-box", "max_dim-below-default-box"])
def test_scan_start_box_checked_first(tmp_path, capsys, monkeypatch, task, truncation,
                                      max_dim, field, text):
    solved = []
    monkeypatch.setattr(kernel, "assemble", lambda *args, **kwargs: solved.append(args))
    cfg = base_config(task, symbol=SCHRODINGER, truncation=truncation,
                      params={"j_max": 5, "max_dim": max_dim, "j_range": [1, 5]})
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert (payload["error"], payload["field"]) == ("config", field)
    assert text in payload["message"]
    assert solved == []
    assert not (tmp_path / "out" / "spectrum.csv").exists()


@pytest.mark.parametrize("symbol, diagonal", [
    ({"family": "constant", "params": {"value": 2.5}}, [2.5] * 5),
    ({"family": "anharmonic", "params": {"c": 0.5, "l": 2}}, [8.0, 0.5, 0.5, 8.0]),
])
def test_multiplier_families_assemble(tmp_path, symbol, diagonal):
    cfg = base_config("assemble", symbol=symbol, truncation={"radius": 2})
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "kernel.csv").read_text().splitlines()[1:]]
    assert all(r[0] == r[1] and float(r[3]) == 0.0 for r in rows)
    assert [float(r[2]) for r in rows] == diagonal


def test_order_report_reads_the_symbol_order(tmp_path):
    cfg = base_config("order-report",
                      symbol={"family": "decaying", "params": {"s": 0.75, "a": 1.0, "b": 1.0}},
                      params={"p": 2.0, "r": 1.0})
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["order"] == {"mu": -0.75, "rho": 1.0, "delta": 0.0}
    assert report["verdicts"]["compact"] == "holds"
    assert report["verdicts"]["r_nuclear"] == "fails"
    assert report["t"] is None


# branches of the runners that no other test reaches: (config, exit code, field, message text)
EXITS = {
    "diag-approx-not-hermitian": (base_config(
        "diag-approx", truncation={"radius": 10},
        symbol={"family": "decaying", "params": {"s": 3.0, "a": 2.0, "b": 1.0}},
        params={"hermitize": False}), 3, None, "hermitize=false"),
    "fit-growth-window-unconverged": (base_config(
        "fit-growth", symbol=SCHRODINGER, truncation={"radius": 2},
        params={"j_max": 5, "j_range": [1, 5], "max_dim": 7}), 3, None, "unconverged"),
    "fit-growth-window-nonpositive": (base_config(
        "fit-growth", truncation={"radius": 25}, params={"j_max": 5, "j_range": [1, 5]},
        symbol={"family": "schrodinger",
                "params": {"potential": {"c": 1.0, "l": 1}, "lambda": -10.0}}),
        3, None, "non-positive"),
    # the doubling from the start radius reaches radius 4 within max_dim: 9 points in
    # 1-d and 81 in 2-d, too few for j_max, whose last rows would be nan
    "fit-growth-j-max-past-reach-1d": (base_config(
        "fit-growth", symbol=SCHRODINGER, truncation={"radius": 2},
        params={"j_max": 12, "j_range": [1, 3], "max_dim": 9, "tol": 0.5}),
        2, "params.j_max", "radius 4 and 9 points"),
    "fit-growth-j-max-past-reach-2d": (base_config(
        "fit-growth", lattice={"hbar": 1.0, "dim": 2}, symbol=SCHRODINGER,
        truncation={"radius": 1},
        params={"j_max": 90, "j_range": [1, 3], "max_dim": 100, "tol": 0.5}),
        2, "params.j_max", "radius 4 and 81 points"),
    "spectrum-error-limited": (base_config(
        "spectrum", lattice={"hbar": 0.25, "dim": 1}, truncation={"radius": 100},
        symbol={"family": "schrodinger", "params": {"potential": {"c": 1.0, "l": 2}}},
        params={"j_max": 10, "tol": 1e-8}),
        3, None, "solver error bound above tol: 1 of 10 eigenvalues unconverged at radius 100"),
    "unknown-task": (base_config("nope"), 2, "task", "unknown task 'nope'"),
    "missing-config-file": (None, 2, "config", "No such file"),
    "difference-2d": (base_config("assemble", lattice={"hbar": 1.0, "dim": 2}),
                      2, "lattice.dim", "one-dimensional"),
    "radius-negative": (base_config("assemble", truncation={"radius": -1}),
                        2, "truncation.radius", "at least 0, got -1"),
    # a finite series is read whole: b/2 (1+|k|)^300 is past float64 at k = -1, so its
    # coefficient table is refused at every frequency radius, 0 included
    **{f"coeffs-decaying-b-past-float64-freq{fr}": (base_config(
        "coeffs", symbol={"family": "decaying", "params": {"s": -300, "a": 1, "b": 1e300}},
        params={"freq_radius": fr}),
        2, "symbol.params", "b/2 (1+|k|)^-s with a=1.0, b=1e+300, s=-300.0 is not finite at "
                            "k = [-1.0]") for fr in (0, 1)},
    # at the smallest hbar, |k| = 1e-100 tells the nearest points from the origin
    "coeffs-hbar-1e-100": (base_config(
        "coeffs", lattice={"hbar": 1e-100, "dim": 1}, truncation={"radius": 8},
        symbol={"family": "multiplication", "params": {"epsilon": -400}}),
        2, "symbol.params", "is not finite at k = [-1e-100], |k| = 1e-100: inf"),
}


@pytest.mark.parametrize("case", sorted(EXITS))
def test_exit_code_and_field(tmp_path, capsys, case):
    cfg, code, field, text = EXITS[case]
    path = str(tmp_path / "absent.json") if cfg is None else write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == ("config" if code == 2 else "numeric")
    assert payload["field"] == field
    assert text in payload["message"]


def test_scan_default_start_radius_in_2d(tmp_path):
    # no truncation.radius: a 2-d scan starts on the 7 x 7 box, R = 3; a budget
    # of 100 points stops it there
    cfg = base_config("spectrum", lattice={"hbar": 1.0, "dim": 2}, symbol=SCHRODINGER,
                      params={"j_max": 3, "max_dim": 100})
    del cfg["truncation"]
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 3
    rows = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["3"] * 3


NAN, INF = float("nan"), float("inf")
DECAYING = {"family": "decaying", "params": {"s": 2.0, "a": 1.0, "b": 1.0}}


def _with(symbol, **params):
    return {"family": symbol["family"], "params": {**symbol["params"], **params}}


# json reads NaN and Infinity; a field without a range must refuse them by name
NON_FINITE = {
    "mu-nan": (base_config("order-report", params={"mu": NAN, "p": 2.0, "r": 1.0}),
               "params.mu"),
    "epsilon-inf": (base_config("assemble", symbol={"family": "multiplication",
                                                    "params": {"epsilon": INF}}),
                    "symbol.params.epsilon"),
    "s-nan": (base_config("assemble", symbol=_with(DECAYING, s=NAN)), "symbol.params.s"),
    "a-inf": (base_config("assemble", symbol=_with(DECAYING, a=INF)), "symbol.params.a"),
    "b-minus-inf": (base_config("assemble", symbol=_with(DECAYING, b=-INF)),
                    "symbol.params.b"),
    "value-nan": (base_config("assemble", symbol={"family": "constant",
                                                  "params": {"value": NAN}}),
                  "symbol.params.value"),
    "c-inf": (base_config("assemble", symbol={"family": "anharmonic",
                                              "params": {"c": INF, "l": 1}}),
              "symbol.params.c"),
    "lambda-nan": (base_config("spectrum", symbol=_with(SCHRODINGER, **{"lambda": NAN}),
                               truncation={"radius": 25}, params={"j_max": 3}),
                   "symbol.params.lambda"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_config_refuses_non_finite_numbers(tmp_path, capsys, case):
    cfg, field = NON_FINITE[case]
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["field"] == field
    assert "must be finite" in payload["message"]
    assert not any(out.iterdir())


def test_config_accepts_infinite_p(tmp_path):
    # p = inf is meaningful, so params.p and params.p2 take Infinity
    cfg = base_config("order-report", params={"mu": -3.0, "p": INF, "p2": INF})
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0


def test_infinite_p_run_writes_strict_json(tmp_path):
    # the manifest echoes the config; a bare Infinity token there is refused
    # by strict JSON readers, so it is echoed as the string "Infinity"
    def refuse(token):
        raise ValueError(f"non-finite number {token}")

    cfg = base_config("check-bounds", lattice={"hbar": 0.5, "dim": 1}, truncation={"radius": 10},
                      symbol={"family": "multiplication", "params": {"epsilon": 1.0}},
                      params={"p": INF})
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    written = sorted(out.glob("*.json"))
    assert [p.name for p in written] == ["manifest.json", "report.json"]
    for path in written:
        with open(path) as fh:
            json.load(fh, parse_constant=refuse)
    assert json.loads((out / "manifest.json").read_text())["config"]["params"]["p"] == "Infinity"
    assert cli._strict_json({"a": [INF, -INF, NAN, 1.5], "b": {"c": "Infinity", "d": 2}}) == \
        {"a": ["Infinity", "-Infinity", "NaN", 1.5], "b": {"c": "Infinity", "d": 2}}


def test_scan_error_stop_is_not_called_a_budget_stop(tmp_path, capsys):
    # the quartic at hbar 0.25 stops at R = 100 by the error rule; that the next
    # box, of 401 points, is also over a budget of 300 changes nothing
    quartic = {"family": "schrodinger", "params": {"potential": {"c": 1.0, "l": 2}}}
    cfg = base_config("spectrum", lattice={"hbar": 0.25, "dim": 1}, symbol=quartic,
                      truncation={"radius": 100},
                      params={"j_max": 10, "tol": 1e-8, "max_dim": 300})
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 3
    payload = json.loads(capsys.readouterr().err)
    assert payload["message"] == ("solver error bound above tol: "
                                  "1 of 10 eigenvalues unconverged at radius 100")


def _run_quietly(tmp_path, capfd, cfg):
    # warnings are errors (pyproject.toml), and stderr is read at the fd level, where
    # LAPACK writes too
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    return rc, capfd.readouterr().err


def _hbar_case(task, hbar, symbol, radius):
    return base_config(task, lattice={"hbar": hbar, "dim": 1}, symbol=symbol,
                       truncation={"radius": radius})


MULT_EPS_M400 = {"family": "multiplication", "params": {"epsilon": -400}}
DECAYING = {"family": "decaying", "params": {"s": 3.0, "a": 1.0, "b": 1.0}}
DIFFERENCE = {"family": "difference", "params": {}}

# outside the range the norms break: at 1e-300 the square of each k != 0 underflows
# to 0, so |k|^-400 reads inf at every k; at 1e300 they overflow, with numpy warnings
HBAR_OUT_OF_RANGE = {
    "coeffs-1e-300": _hbar_case("coeffs", 1e-300, MULT_EPS_M400, 8),
    "check-nuclear-1e300": _hbar_case("check-nuclear", 1e300, DECAYING, 3),
    "diag-approx-1e300": _hbar_case("diag-approx", 1e300, DIFFERENCE, 3),
}


@pytest.mark.parametrize("case", sorted(HBAR_OUT_OF_RANGE))
def test_hbar_outside_its_range_is_refused(tmp_path, capfd, case):
    rc, err = _run_quietly(tmp_path, capfd, HBAR_OUT_OF_RANGE[case])
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["field"] == "lattice.hbar"
    assert "must lie in [1e-100, 1e+100]" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("hbar", [1e-100, 1e100])
@pytest.mark.parametrize("task, symbol", [("check-nuclear", DECAYING),
                                          ("diag-approx", DIFFERENCE)])
def test_hbar_at_its_range_ends_runs_quietly(tmp_path, capfd, hbar, task, symbol):
    rc, err = _run_quietly(tmp_path, capfd, _hbar_case(task, hbar, symbol, 3))
    assert (rc, err) == (0, "")


def test_negative_power_multiplier_coefficients_hold_inf_at_the_origin_only(tmp_path):
    cfg = base_config("coeffs", symbol={"family": "multiplication", "params": {"epsilon": -0.5}},
                      truncation={"radius": 3})
    assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "coeffs.csv").read_text().splitlines()[1:]]
    assert [r for r in rows if "inf" in r] == [["0.0", "0.0", "inf", "0.0"]]
