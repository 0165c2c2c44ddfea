import hashlib
import json

import numpy as np
import pytest

from lattice_pdo import kernel
from lattice_pdo.cli import main
from lattice_pdo.lattice import BoxTruncation, LatticeSpec
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


@pytest.mark.parametrize("task", ["assemble", "diag-approx"])
def test_dense_size_preflight(tmp_path, capsys, time_limit, task):
    # 61^3 = 226 981 points: a dense complex128 matrix of ~824 GB, which the
    # binary export and the eigensolve need
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
    assert "824325989776 bytes" in payload["message"]


def test_criterion_sums_beyond_dense_memory(tmp_path, capsys, time_limit):
    # 2 000 001 points at R and 4 000 001 at 2R: dense matrices of 64 and 256 TB.
    # The sums read the diagonal's triplets; the eigensolve still needs the dense matrix.
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


def test_overflow_exits_numeric(tmp_path, capsys):
    # |k|^400 overflows a float at k = 10
    cfg = base_config(
        "check-bounds",
        symbol={"family": "multiplication", "params": {"epsilon": 400}},
        truncation={"radius": 10},
        params={"p": 2.0},
    )
    rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "numeric"


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
    "diag-approx": (_run_config(base_config(
        "diag-approx", lattice={"hbar": 0.5, "dim": 2}, truncation={"radius": 4},
        symbol={"family": "decaying", "params": {"s": 3.0, "a": 2.0, "b": 1.0}}), 0),
        "diag_approx.csv", "36a63b1776ab1c768846e1729ca90942acff1094ece592428a487b8b9e2486bf"),
    "spectrum-budget-exhausted": (_run_config(base_config(
        "spectrum", symbol=SCHRODINGER, truncation={"radius": 25},
        params={"j_max": 300, "max_dim": 101}), 3),
        "spectrum.csv", "dfc3150722f1296047e8462f721b43f09e2257dc111efbce44bd04dccfca94a1"),
}


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

    def counted(a):
        passes.append(a.shape)
        return asymmetry(a)

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
    # the eigensolve of diag-approx does build it, through the same builder
    cfg = base_config("diag-approx", lattice=lattice, symbol=decaying, truncation={"radius": 4})
    assert main(["run", write_config(tmp_path, cfg, name="diag.json"),
                 "--out", str(tmp_path / "diag")]) == 0
    assert built == [81]
