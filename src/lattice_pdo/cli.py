"""Batch front-end: one JSON experiment config in, CSV/JSON artifacts out.

Usage: lattice-pdo run <config.json> [--out DIR] [--threads N] [--seed S]

Every run writes a manifest.json listing each output file with a content
hash, the echoed config, the library version and the wall time.  Numeric
output is deterministic: the same config produces byte-identical CSV
bodies regardless of the thread cap.  Exit codes: 0 ok, 2 config error,
3 numeric/budget failure.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .lattice import BoxTruncation, LatticeSpec
from . import symbols as sym_mod
from . import fourier, kernel, criteria, spectral, schrodinger
from ._util import sha256_of, write_csv


class ConfigError(ValueError):
    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


class NumericError(RuntimeError):
    pass


def _is_a(value, kind) -> bool:
    """isinstance, except that a JSON boolean is a number only where kind is bool."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def _get(cfg, path, default=None, required=False, kind=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "required field is missing")
            return default
        node = node[part]
    if kind is not None and not _is_a(node, kind):
        raise ConfigError(path, f"expected {getattr(kind, '__name__', kind)}, "
                                f"got {type(node).__name__}")
    return node


def _positive(cfg, path, default=None, required=False):
    v = _get(cfg, path, default=default, required=required, kind=(int, float))
    if v is not None and v <= 0:
        raise ConfigError(path, f"must be positive, got {v}")
    return v


def build_lattice(cfg) -> LatticeSpec:
    hbar = _positive(cfg, "lattice.hbar", required=True)
    dim = _get(cfg, "lattice.dim", required=True, kind=int)
    try:
        return LatticeSpec(hbar, dim)
    except ValueError as e:
        raise ConfigError("lattice", str(e))


def build_symbol(cfg, spec: LatticeSpec):
    family = _get(cfg, "symbol.family", required=True, kind=str)
    params = _get(cfg, "symbol.params", default={}, kind=dict)
    try:
        if family == "difference":
            if spec.dim != 1:
                raise ConfigError("lattice.dim", "the difference symbol is one-dimensional")
            return sym_mod.difference_symbol(spec.hbar)
        if family == "multiplication":
            eps = _get(params, "epsilon", required=True, kind=(int, float))
            return sym_mod.multiplication_symbol(float(eps), spec)
        if family == "decaying":
            s = _get(params, "s", required=True, kind=(int, float))
            a = _get(params, "a", required=True, kind=(int, float))
            b = _get(params, "b", required=True, kind=(int, float))
            return sym_mod.decaying_test_symbol(float(s), float(a), float(b), spec)
        if family == "constant":
            value = _get(params, "value", required=True, kind=(int, float))
            return sym_mod.constant_symbol(value, spec)
        if family == "anharmonic":
            c = _get(params, "c", required=True, kind=(int, float))
            l = _get(params, "l", required=True, kind=int)
            return sym_mod.polynomial_potential(float(c), l, spec)
        if family == "schrodinger":
            pot = build_potential(cfg, spec)
            lam = _get(params, "lambda", default=0.0, kind=(int, float))
            return sym_mod.schrodinger_symbol(pot, float(lam), spec)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError("symbol.params", str(e))
    raise ConfigError("symbol.family", f"unknown symbol family '{family}'")


def build_potential(cfg, spec: LatticeSpec) -> schrodinger.PotentialSpec:
    pot = _get(cfg, "symbol.params.potential", required=True, kind=dict)
    c = _get(pot, "c", required=True, kind=(int, float))
    l = _get(pot, "l", required=True, kind=int)
    try:
        return schrodinger.PotentialSpec.anharmonic(float(c), l, spec.dim)
    except ValueError as e:
        raise ConfigError("symbol.params.potential", str(e))


def build_box(cfg) -> BoxTruncation:
    radius = _get(cfg, "truncation.radius", kind=int)
    if radius is None:
        raise ConfigError("truncation.radius", "required field is missing")
    try:
        return BoxTruncation(radius)
    except ValueError as e:
        raise ConfigError("truncation.radius", str(e))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# task runners: each returns a list of output file paths
# ---------------------------------------------------------------------------

def task_coeffs(cfg, spec, outdir, threads):
    sym = build_symbol(cfg, spec)
    box = build_box(cfg)
    freq_radius = _get(cfg, "params.freq_radius", default=3, kind=int)
    table = fourier.coefficient_table(sym, box, freq_radius, threads=threads)
    path = os.path.join(outdir, "coeffs.csv")
    fourier.table_to_csv(table, path)
    return [path]


def task_assemble(cfg, spec, outdir, threads):
    sym = build_symbol(cfg, spec)
    box = build_box(cfg)
    K = kernel.assemble(sym, spec, box, threads=threads)
    paths = []
    formats = _get(cfg, "output.formats", default=["csv"], kind=list)
    if "csv" in formats:
        p = os.path.join(outdir, "kernel.csv")
        kernel.write_csv(K, p)
        paths.append(p)
    if "bin" in formats:
        p = os.path.join(outdir, "kernel.bin")
        kernel.write_binary(K, p)
        paths.append(p)
    if not paths:
        raise ConfigError("output.formats", "assemble task needs 'csv' and/or 'bin'")
    return paths


def _query_from(cfg, spec):
    try:
        return criteria.CriterionQuery(
            p=float(_get(cfg, "params.p", default=2.0, kind=(int, float))),
            r=float(_get(cfg, "params.r", default=1.0, kind=(int, float))),
            p2=float(_get(cfg, "params.p2", default=_get(cfg, "params.p", default=2.0,
                                                         kind=(int, float)),
                          kind=(int, float))),
            n=spec.dim)
    except ValueError as e:
        raise ConfigError("params", str(e))


def _check_sums(cfg, spec, outdir, threads, query, sums, only=None):
    """Evaluate each named sum at the configured radius and its double.

    Writes sums.csv and report.json; the report's doubling_ratio and
    diverging fields are per sum, or the values of sum ``only`` when given.
    """
    sym = build_symbol(cfg, spec)
    box = build_box(cfg)
    radii = (box.radius, 2 * box.radius)
    values = {name: [] for name, _ in sums}
    for radius in radii:
        K = kernel.assemble(sym, spec, BoxTruncation(radius), threads=threads)
        for name, fn in sums:
            values[name].append(fn(K))
    report = criteria.order_conditions(sym.order, query)
    report.sums = {name: vals[-1] for name, vals in values.items()}
    report.truncation = {"R": box.radius, "n": spec.dim, "hbar": spec.hbar}
    growth = {name: (vals[1] / vals[0] if vals[0] > 0 else None)
              for name, vals in values.items()}
    diverging = {name: (g is not None and g >= criteria.DIVERGENCE_RATIO)
                 for name, g in growth.items()}
    payload = report.to_json_dict()
    payload["doubling_ratio"] = growth if only is None else growth[only]
    payload["diverging"] = diverging if only is None else diverging[only]
    csv_path = os.path.join(outdir, "sums.csv")
    write_csv(csv_path, ["criterion", "radius", "value"],
              [list(values), np.array(radii)[:, None], np.array(list(values.values())).T])
    json_path = os.path.join(outdir, "report.json")
    _write_json(json_path, payload)
    return [csv_path, json_path]


def task_check_bounds(cfg, spec, outdir, threads):
    query = _query_from(cfg, spec)
    p = query.p
    sums = [("schur_l1_lp", lambda K: criteria.schur_l1_lp(K, p)),
            ("sup_entry", criteria.sup_entry)]
    if 1 < p < float("inf"):
        sums.append(("mixed_lp_sum", lambda K: criteria.mixed_lp_sum(K, p)))
    return _check_sums(cfg, spec, outdir, threads, query, sums)


def task_check_nuclear(cfg, spec, outdir, threads):
    query = _query_from(cfg, spec)
    sums = [("nuclear_sum", lambda K: criteria.nuclear_sum(K, query.r, query.p2))]
    return _check_sums(cfg, spec, outdir, threads, query, sums, only="nuclear_sum")


def task_order_report(cfg, spec, outdir, threads):
    params = _get(cfg, "params", default={}, kind=dict)
    if "mu" in params:
        mu = _get(params, "mu", kind=(int, float))
        delta = _get(params, "delta", default=0.0, kind=(int, float))
        rho = _get(params, "rho", default=1.0, kind=(int, float))
        try:
            order = sym_mod.SymbolOrder(float(mu), float(rho), float(delta))
        except ValueError as e:
            raise ConfigError("params", str(e))
    else:
        order = build_symbol(cfg, spec).order
    query = _query_from(cfg, spec)
    report = criteria.order_conditions(order, query)
    report.truncation = {"R": None, "n": spec.dim, "hbar": spec.hbar}
    path = os.path.join(outdir, "report.json")
    payload = report.to_json_dict()
    payload["order"] = {"mu": order.mu, "rho": order.rho, "delta": order.delta}
    _write_json(path, payload)
    return [path]


def task_diag_approx(cfg, spec, outdir, threads):
    sym = build_symbol(cfg, spec)
    box = build_box(cfg)
    K = kernel.assemble(sym, spec, box, threads=threads)
    hermitized = False
    ok, asym = kernel.hermitian_check(K)
    if not ok:
        if not _get(cfg, "params.hermitize", default=True, kind=bool):
            raise NumericError(f"kernel is not Hermitian (asymmetry {asym:.3e}) "
                               "and hermitize=false")
        K = kernel.hermitize(K)
        hermitized = True
    report = spectral.diagonal_approximation(K, sym.order)
    csv_path = os.path.join(outdir, "diag_approx.csv")
    write_csv(csv_path, ["index"] + [f"k_{i + 1}" for i in range(spec.dim)]
              + ["eigenvalue", "diag", "residual"],
              [np.arange(len(report.eigenvalues)), *report.points.T,
               report.eigenvalues, report.diag_values, report.residuals])
    json_path = os.path.join(outdir, "diag_approx.json")
    _write_json(json_path, {
        "fit_exponent": report.fit_exponent,
        "residue_norm": report.residue_spectral_norm,
        "max_abs_residual": report.max_abs_residual,
        "applicable": report.applicable,
        "hermitized": hermitized,
        "low_overlap_pairs": int(np.sum(report.low_overlap)),
    })
    return [csv_path, json_path]


def _converged_spectrum(cfg, spec):
    pot = build_potential(cfg, spec)
    lam = _get(cfg, "symbol.params.lambda", default=0.0, kind=(int, float))
    j_max = _get(cfg, "params.j_max", required=True, kind=int)
    tol = _positive(cfg, "params.tol", default=1e-8)
    max_dim = _get(cfg, "params.max_dim", default=schrodinger.DEFAULT_MAX_DIM, kind=int)
    start = _get(cfg, "truncation.radius", kind=int)
    try:
        return schrodinger.spectrum_converged(spec, pot, j_max, tol, lam=float(lam),
                                              start_radius=start, max_dim=max_dim)
    except ValueError as e:
        raise ConfigError("params", str(e))


def _write_spectrum_csv(outdir, result):
    path = os.path.join(outdir, "spectrum.csv")
    write_csv(path, ["j", "lambda_j", "converged", "R_used"],
              [np.arange(1, len(result.eigenvalues) + 1), result.eigenvalues,
               result.converged.astype(int), result.radius_used])
    return path


def _j_range(cfg, required):
    """params.j_range as [j_lo, j_hi], two integers; None when absent and not required."""
    j_range = _get(cfg, "params.j_range", required=required, kind=list)
    if j_range is None:
        return None
    if len(j_range) != 2:
        raise ConfigError("params.j_range", "expected [j_lo, j_hi]")
    if not all(_is_a(j, int) for j in j_range):
        raise ConfigError("params.j_range", f"j_lo and j_hi must be integers, got {j_range}")
    return j_range


def task_spectrum(cfg, spec, outdir, threads):
    j_range = _j_range(cfg, required=False)
    result = _converged_spectrum(cfg, spec)
    paths = [_write_spectrum_csv(outdir, result)]
    if j_range is not None:
        paths.append(_fit_and_write(cfg, spec, outdir, result, j_range))
    if not result.all_converged:
        raise NumericError(
            f"budget exhausted: {int(np.sum(~result.converged))} of "
            f"{len(result.converged)} eigenvalues unconverged at radius {result.radius_used}")
    return paths


def task_fit_growth(cfg, spec, outdir, threads):
    j_range = _j_range(cfg, required=True)
    result = _converged_spectrum(cfg, spec)
    paths = [_write_spectrum_csv(outdir, result)]
    paths.append(_fit_and_write(cfg, spec, outdir, result, j_range))
    return paths


def _fit_and_write(cfg, spec, outdir, result, j_range):
    pot = build_potential(cfg, spec)
    try:
        fit = schrodinger.fit_growth_exponent(result, j_range, pot.mu)
    except ValueError as e:
        raise NumericError(str(e))
    path = os.path.join(outdir, "growth.json")
    _write_json(path, {
        "j_range": list(fit.j_range),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "mu": fit.mu,
        "r_bound_satisfied": {repr(r): ok for r, ok in fit.r_bound_satisfied.items()},
    })
    return path


RUNNERS = {
    "coeffs": task_coeffs,
    "assemble": task_assemble,
    "check-bounds": task_check_bounds,
    "check-nuclear": task_check_nuclear,
    "order-report": task_order_report,
    "diag-approx": task_diag_approx,
    "spectrum": task_spectrum,
    "fit-growth": task_fit_growth,
}


def run(config: dict, out_dir=None, threads=None, seed=None) -> list:
    """Execute one experiment config; returns the list of written files."""
    t0 = time.monotonic()
    task = _get(config, "task", required=True, kind=str)
    if task not in RUNNERS:
        raise ConfigError("task", f"unknown task '{task}'; expected one of {', '.join(RUNNERS)}")
    spec = build_lattice(config)
    outdir = out_dir or _get(config, "output.directory", default=".", kind=str)
    os.makedirs(outdir, exist_ok=True)
    if threads is None:
        threads = os.cpu_count() or 1
    outputs = RUNNERS[task](config, spec, outdir, threads)

    manifest = {
        "config": config,
        "version": __version__,
        "task": task,
        "threads": threads,
        "seed": seed,
        "wall_time_s": time.monotonic() - t0,
        "outputs": [{"path": os.path.basename(p), "sha256": sha256_of(p)} for p in outputs],
    }
    mpath = os.path.join(outdir, "manifest.json")
    _write_json(mpath, manifest)
    return outputs + [mpath]


def _diagnose(code, error, field, message) -> int:
    """Write the one-line JSON diagnostic to stderr; returns the exit code."""
    print(json.dumps({"error": error, "field": field, "message": message}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lattice-pdo",
                                     description="lattice pseudo-differential operator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config", help="path to a JSON experiment config")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--threads", type=int, default=None,
                      help="worker cap for data-parallel maps (default: machine parallelism)")
    runp.add_argument("--seed", type=int, default=None,
                      help="reserved for randomized property tests; core tasks are deterministic")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as e:
        return _diagnose(2, "config", "config", str(e))
    except json.JSONDecodeError as e:
        return _diagnose(2, "config", "config", f"invalid JSON: {e}")

    try:
        run(config, out_dir=args.out, threads=args.threads, seed=args.seed)
    except ConfigError as e:
        return _diagnose(2, "config", e.field, str(e))
    except (NumericError, ValueError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as e:
        return _diagnose(3, "numeric", None, str(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
