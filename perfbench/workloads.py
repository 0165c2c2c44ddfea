"""The four benchmark workloads: their operations and the checks on every answer.

A workload is a fixed list of operations run in order; one run of the list
is a pass.  Each operation has a ``run`` step, which is timed, and a
``check`` step, which is not: it returns the problems found in the answer
(an empty list when the answer is right).  An operation fails when ``run``
raises or returns a non-zero exit code, or when ``check`` finds a problem.

CLI operations call ``lattice_pdo.cli.main`` in-process, exactly as
``lattice-pdo run <config> --out <dir> --threads 2`` would.  Only the
``quadrature`` workload consumes the seed (its roundtrip matrices); its
checks hold for any seed.

Nothing here imports ``lattice_pdo`` at module level, so that the set-up
probe can time that import in a fresh process.
"""

import json
import math
import os
import time

import numpy as np

THREADS = 2

# acceptance-suite tolerances (tests/test_acceptance.py)
WEYL_SLACK_PER_DIM = 4.0          # |lambda_j - oracle_j| <= 4 n hbar^-2
SLOPES_1D = {1: (1.9, 2.1), 2: (3.8, 4.2)}
NUCLEAR_REL_TOL = 1e-3
DIVERGENCE_RATIO = 1.5
RESIDUE_SLACK = 1e-8
FIT_EXPONENT_MAX = -2.5
ROUNDTRIP_TOL = 1e-10


def _config(dim, family, params, radius, task, task_params, formats=("csv", "json")):
    return {
        "lattice": {"hbar": 1.0, "dim": dim},
        "symbol": {"family": family, "params": params},
        "truncation": {"radius": radius},
        "task": task,
        "params": task_params,
        "output": {"directory": ".", "formats": list(formats)},
    }


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class CliOp:
    """One ``lattice-pdo run`` of a config, with a check on its output directory."""

    def __init__(self, name, config, check, work):
        self.name = name
        self.out = os.path.join(work, name)
        self.config_path = os.path.join(work, name + ".json")
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        self._check = check

    def run(self):
        from lattice_pdo import cli
        return cli.main(["run", self.config_path, "--out", self.out,
                         "--threads", str(THREADS)])

    def check(self):
        return self._check(self.out)


class ApiOp:
    """A library-API step; ``fn`` returns the answer that ``check`` inspects."""

    def __init__(self, name, fn, check):
        self.name = name
        self._fn = fn
        self._check = check
        self._answer = None

    def run(self):
        self._answer = self._fn()
        return 0

    def check(self):
        return self._check(self._answer)


# ---------------------------------------------------------------------------
# scan: box-doubling eigensolves (fit-growth)
# ---------------------------------------------------------------------------

def _scan_check(dim, l, j_max, slope_range):
    import lattice_pdo as lp

    oracles = {}

    def check(out):
        with open(os.path.join(out, "spectrum.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        problems = []
        if len(rows) != j_max:
            return [f"spectrum.csv has {len(rows)} rows, expected {j_max}"]
        if not all(r[2] == "1" for r in rows):
            problems.append("not every eigenvalue converged")
        radius = int(rows[0][3])
        if radius not in oracles:
            pot = lp.PotentialSpec.anharmonic(1.0, l, dim)
            oracles[radius] = lp.weyl_oracle(lp.LatticeSpec(1.0, dim), pot,
                                             lp.BoxTruncation(radius), j_max)
        lam = np.array([float(r[1]) for r in rows])
        dev = float(np.max(np.abs(lam - oracles[radius])))
        if not dev <= WEYL_SLACK_PER_DIM * dim:
            problems.append(f"eigenvalues deviate {dev:.3g} from the oracle")
        slope = _read_json(os.path.join(out, "growth.json"))["slope"]
        if slope_range and not slope_range[0] <= slope <= slope_range[1]:
            problems.append(f"growth slope {slope} outside {slope_range}")
        return problems

    return check


def _scan(work, rng):
    ops = []
    for l in (1, 2):
        cfg = _config(1, "schrodinger", {"potential": {"c": 1.0, "l": l}, "lambda": 0.0},
                      25, "fit-growth",
                      {"j_max": 300, "tol": 1e-8, "j_range": [100, 300], "max_dim": 1001})
        ops.append(CliOp(f"growth-1d-l{l}", cfg, _scan_check(1, l, 300, SLOPES_1D[l]), work))
    cfg = _config(2, "schrodinger", {"potential": {"c": 1.0, "l": 1}, "lambda": 0.0},
                  3, "fit-growth",
                  {"j_max": 200, "tol": 1e-8, "j_range": [50, 200], "max_dim": 2401})
    ops.append(CliOp("growth-2d-l1", cfg, _scan_check(2, 1, 200, None), work))
    return ops


# ---------------------------------------------------------------------------
# sums: assembly of the largest dense matrices and the criterion sums
# ---------------------------------------------------------------------------

def _stable_sums_csv(check):
    """Add the byte-identity check of sums.csv against the first pass."""
    first = []

    def wrapped(out):
        with open(os.path.join(out, "sums.csv"), "rb") as fh:
            body = fh.read()
        if not first:
            first.append(body)
        problems = check(_read_json(os.path.join(out, "report.json")))
        if body != first[0]:
            problems.append("sums.csv differs from the first pass")
        return problems

    return wrapped


def _nuclear_1d(report):
    target = math.pi ** 2 / 3 - 1
    value = report["sums"]["nuclear_sum"]
    problems = []
    if not math.isclose(value, target, rel_tol=NUCLEAR_REL_TOL):
        problems.append(f"nuclear sum {value} is not within {NUCLEAR_REL_TOL} of {target}")
    if report["diverging"]:
        problems.append("nuclear sum reported diverging")
    return problems


def _sup_entry_grows(report):
    ratio = report["doubling_ratio"]["sup_entry"]
    if ratio is None or not ratio >= DIVERGENCE_RATIO:
        return [f"sup_entry doubling ratio {ratio} below {DIVERGENCE_RATIO}"]
    return []


def _nuclear_2d(report):
    problems = []
    if report["verdicts"]["r_nuclear"] != "holds":
        problems.append("r_nuclear verdict does not hold")
    if report["diverging"]:
        problems.append("2-d nuclear sum reported diverging")
    return problems


def _sums(work, rng):
    nuclear = {"r": 1.0, "p2": 2.0}
    return [
        CliOp("nuclear-1d", _config(1, "decaying", {"s": 2.0, "a": 1.0, "b": 0.0}, 1000,
                                    "check-nuclear", nuclear),
              _stable_sums_csv(_nuclear_1d), work),
        CliOp("bounds-mult-1d", _config(1, "multiplication", {"epsilon": 1.0}, 500,
                                        "check-bounds", {"p": 2.0}),
              _stable_sums_csv(_sup_entry_grows), work),
        CliOp("nuclear-2d", _config(2, "decaying", {"s": 3.0, "a": 1.0, "b": 1.0}, 12,
                                    "check-nuclear", nuclear),
              _stable_sums_csv(_nuclear_2d), work),
    ]


# ---------------------------------------------------------------------------
# diag-export: eigenvectors and residue norm, kernel and coefficient files
# ---------------------------------------------------------------------------

def _diag_check(out):
    rep = _read_json(os.path.join(out, "diag_approx.json"))
    problems = []
    if not rep["max_abs_residual"] <= rep["residue_norm"] + RESIDUE_SLACK:
        problems.append(f"max residual {rep['max_abs_residual']} exceeds the residue "
                        f"norm {rep['residue_norm']}")
    fit = rep["fit_exponent"]
    if fit is None or not fit <= FIT_EXPONENT_MAX:
        problems.append(f"fit exponent {fit} above {FIT_EXPONENT_MAX}")
    return problems


def _kernel_check(params, radius):
    import lattice_pdo as lp

    ref = []

    def check(out):
        if not ref:
            spec = lp.LatticeSpec(1.0, 2)
            sym = lp.decaying_test_symbol(params["s"], params["a"], params["b"], spec)
            ref.append(lp.assemble(sym, spec, lp.BoxTruncation(radius)).entries)
        K = lp.read_binary(os.path.join(out, "kernel.bin"))
        problems = []
        if not np.array_equal(K.entries, ref[0]):
            problems.append("kernel.bin differs from an in-process assemble")
        with open(os.path.join(out, "kernel.csv")) as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != np.count_nonzero(ref[0]):
            problems.append(f"kernel.csv has {n_rows} rows, expected "
                            f"{np.count_nonzero(ref[0])} nonzeros")
        return problems

    return check


def _coeffs_check(params, radius, freq_radius):
    import lattice_pdo as lp

    spec = lp.LatticeSpec(1.0, 2)
    sym = lp.decaying_test_symbol(params["s"], params["a"], params["b"], spec)
    expected_rows = (2 * radius + 1) ** 2 * (2 * freq_radius + 1) ** 2

    def check(out):
        with open(os.path.join(out, "coeffs.csv")) as fh:
            lines = fh.read().splitlines()[1:]
        if len(lines) != expected_rows:
            return [f"coeffs.csv has {len(lines)} rows, expected {expected_rows}"]
        problems = []
        for line in lines[::1009]:
            k1, k2, m1, m2, re, im = (float(x) for x in line.split(","))
            want = lp.toroidal_coefficient(sym, [k1, k2], [m1, m2])
            if complex(re, im) != want:
                problems.append(f"coefficient at k=({k1},{k2}) m=({m1},{m2}) is "
                                f"{complex(re, im)}, expected {want}")
        return problems

    return check


def _diag_export(work, rng):
    p2 = {"s": 3.0, "a": 1.0, "b": 1.0}
    return [
        CliOp("diag-1d", _config(1, "decaying", {"s": 3.0, "a": 2.0, "b": 1.0}, 500,
                                 "diag-approx", {}),
              _diag_check, work),
        CliOp("assemble-2d", _config(2, "decaying", p2, 15, "assemble", {},
                                     formats=("csv", "bin")),
              _kernel_check(p2, 15), work),
        CliOp("coeffs-2d", _config(2, "decaying", p2, 20, "coeffs", {"freq_radius": 3}),
              _coeffs_check(p2, 20, 3), work),
    ]


# ---------------------------------------------------------------------------
# quadrature: FFT quadrature assembly and the truncation tail bound (library API)
# ---------------------------------------------------------------------------

QUAD_RADIUS = 4           # 2-d box of 81 points
TAIL_CASES = ((3.0, 1, 100), (1.05, 1, 100), (2.5, 2, 20))   # (s, dim, R)
TAIL_Q = 2
TAIL_M_RADIUS = 3


def _random_kernel(rng):
    import lattice_pdo as lp

    box = lp.BoxTruncation(QUAD_RADIUS)
    size = box.size(2)
    M = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return lp.KernelMatrix(lp.LatticeSpec(1.0, 2), box, M)


def _roundtrip(rng):
    import lattice_pdo as lp

    def fn():
        K = _random_kernel(rng)
        K2 = lp.assemble(lp.symbol_from_matrix(K), K.spec, K.box, threads=THREADS)
        return float(np.max(np.abs(K2.entries - K.entries)))

    return fn


def _roundtrip_check(err):
    return [] if err <= ROUNDTRIP_TOL else [f"roundtrip error {err} above {ROUNDTRIP_TOL}"]


def _tail(s, dim, R):
    import lattice_pdo as lp

    def fn():
        sym = lp.decaying_test_symbol(s, 1.0, 1.0, lp.LatticeSpec(1.0, dim))
        decay = lp.estimate_decay_constant(sym, TAIL_Q, R, TAIL_M_RADIUS)
        return lp.truncation_tail_bound(sym.order, decay, R)

    return fn


def _tail_check(bound):
    if not bound.applicable or bound.value is None or not math.isfinite(bound.value):
        return [f"tail bound not applicable or not finite: {bound}"]
    return []


def _quadrature(work, rng):
    ops = [ApiOp("roundtrip-2d", _roundtrip(rng), _roundtrip_check)]
    for s, dim, R in TAIL_CASES:
        ops.append(ApiOp(f"tail-s{s}-{dim}d", _tail(s, dim, R), _tail_check))
    return ops


def quadrature_threads1_s(seed):
    """Seconds of the roundtrip's quadrature assembly at threads=1, a plain baseline."""
    import lattice_pdo as lp

    K = _random_kernel(np.random.default_rng(seed))
    sym = lp.symbol_from_matrix(K)
    t0 = time.perf_counter()
    lp.assemble(sym, K.spec, K.box, threads=1)
    return time.perf_counter() - t0


BUILDERS = {"scan": _scan, "sums": _sums, "diag-export": _diag_export,
            "quadrature": _quadrature}


def build(name, work, seed):
    """The operations of one pass of workload ``name``, writing under ``work``."""
    os.makedirs(work, exist_ok=True)
    return BUILDERS[name](work, np.random.default_rng(seed))
