"""Batch front-end: one JSON experiment config in, CSV/JSON artifacts out.

Usage: lattice-pdo run <config.json> [--out DIR] [--threads N] [--seed S]

Every run writes a manifest.json listing each output file with a content
hash, the echoed config, the library version, the thread cap and the wall
time.  No task starts a thread, so CSV bodies are byte-identical at any
--threads cap, though not across OpenBLAS's own thread counts (ROADMAP
item 12); `_write_report` lays out report.json.  Exit codes: 0 ok,
2 config error, 3 numeric/budget failure.  Each task runner reads and
checks every field it uses, by its full path from the config root,
before any numeric work; only a family's formula leaving float64 at a box
point, which shows while computing, is a config error found later.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .lattice import BoxTruncation, LatticeSpec
from . import symbols as sym_mod
from . import fourier, kernel, criteria, spectral, schrodinger
from ._util import sha256_of, write_csv

NUMBER = (int, float)
# the largest lattice.dim a run accepts: a potential is validated at 16 dim + 2 probe points
# of dim coordinates, O(dim^2) time, measured on a 2-core host at 0.8 s for dim 3000, 2.1 s
# for 10^4 and 14.2 s for 3 10^4
MAX_DIM = 10 ** 4


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


def _expected(kind, value) -> str:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return f"expected {' or '.join(k.__name__ for k in kinds)}, got {type(value).__name__}"


def _get(cfg, path, default=None, required=False, kind=None):
    """The field at the dotted ``path`` from the config root, or ``default`` if absent.

    Every object on the way must be a dict; the diagnostic names the path
    of the object or field that is missing or of the wrong kind.
    """
    node, parts = cfg, path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(".".join(parts[:i]) or "config", _expected(dict, node))
        if part not in node:
            if required:
                raise ConfigError(path, "required field is missing")
            return default
        node = node[part]
    if kind is not None and not _is_a(node, kind):
        raise ConfigError(path, _expected(kind, node))
    return node


def _finite(cfg, path, default=None, required=False):
    # json reads NaN and Infinity; a field without a range refuses them here
    v = _get(cfg, path, default=default, required=required, kind=NUMBER)
    if v is not None and not math.isfinite(v):
        raise ConfigError(path, f"must be finite, got {v}")
    return v


def _positive(cfg, path, default=None, required=False):
    v = _get(cfg, path, default=default, required=required, kind=NUMBER)
    if v is not None and not v > 0:
        raise ConfigError(path, f"must be positive, got {v}")
    return v


def _at_least(cfg, path, low, default=None, required=False, kind=int):
    v = _get(cfg, path, default=default, required=required, kind=kind)
    if v is not None and not v >= low:
        raise ConfigError(path, f"must be at least {low}, got {v}")
    return v


def _fraction(cfg, path, default, open_low=False):
    """A number in [0, 1], or in (0, 1] when ``open_low``."""
    v = _get(cfg, path, default=default, kind=NUMBER)
    if not ((0 < v if open_low else 0 <= v) and v <= 1):
        raise ConfigError(path, f"must lie in {'(' if open_low else '['}0, 1], got {v}")
    return v


def build_lattice(cfg) -> LatticeSpec:
    # A box that fits in memory has fewer than 2^64 points, so n |z|_inf^2 < 2^128 for
    # its integer coordinates z.  For hbar in [1e-100, 1e100] its points hbar z then
    # have squared norms in [1e-200, 1e239] when nonzero, and hbar^-2 <= 1e200: all
    # finite and normal (float64's normal range is [2.2e-308, 1.8e308]).
    hbar = _positive(cfg, "lattice.hbar", required=True)
    if not 1e-100 <= hbar <= 1e100:
        raise ConfigError("lattice.hbar", f"must lie in [1e-100, 1e+100], got {hbar}")
    dim = _at_least(cfg, "lattice.dim", 1, required=True)
    if dim > MAX_DIM:
        raise ConfigError("lattice.dim", f"must be at most {MAX_DIM}, got {dim}")
    return LatticeSpec(hbar, dim)


def build_symbol(cfg, spec: LatticeSpec):
    family = _get(cfg, "symbol.family", required=True, kind=str)
    if family == "difference":
        if spec.dim != 1:
            raise ConfigError("lattice.dim", "the difference symbol is one-dimensional")
        return sym_mod.difference_symbol(spec.hbar)
    if family == "multiplication":
        eps = _finite(cfg, "symbol.params.epsilon", required=True)
        return sym_mod.multiplication_symbol(float(eps), spec)
    if family == "decaying":
        s, a, b = (float(_finite(cfg, f"symbol.params.{x}", required=True)) for x in "sab")
        return sym_mod.decaying_test_symbol(s, a, b, spec)
    if family == "constant":
        value = _finite(cfg, "symbol.params.value", required=True)
        return sym_mod.constant_symbol(value, spec)
    if family == "anharmonic":
        c = _finite(cfg, "symbol.params.c", required=True)
        l = _at_least(cfg, "symbol.params.l", 1, required=True)
        return sym_mod.polynomial_potential(float(c), l, spec)
    if family == "schrodinger":
        return sym_mod.schrodinger_symbol(*build_potential(cfg, spec), spec)
    raise ConfigError("symbol.family", f"unknown symbol family '{family}'")


def build_potential(cfg, spec: LatticeSpec):
    """The Schrodinger potential c|k|^(2l), validated, and the shift lambda."""
    c = _positive(cfg, "symbol.params.potential.c", required=True)
    l = _at_least(cfg, "symbol.params.potential.l", 1, required=True)
    lam = _finite(cfg, "symbol.params.lambda", default=0.0)
    try:
        return schrodinger.PotentialSpec.anharmonic(float(c), l, spec.dim), float(lam)
    except ValueError as e:  # c and l are each valid, but V overflows or fails its growth probes
        raise ConfigError("symbol.params.potential", str(e))


def build_box(cfg) -> BoxTruncation:
    return BoxTruncation(_at_least(cfg, "truncation.radius", 0, required=True))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _strict_json(value):
    """``value`` with each non-finite float written as the string of its JSON literal.

    Python's json reads ``Infinity`` and ``NaN``, and ``params.p`` takes
    Infinity, but strict JSON readers refuse those bare tokens.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return value


def _write_report(outdir, report, sums, truncation, **extra):
    """report.json: the criterion verdicts with the sums and truncation they go with."""
    path = os.path.join(outdir, "report.json")
    _write_json(path, {"sums": sums, "verdicts": report.verdicts, "t": report.decay_exponent_t,
                       "details": report.details, "truncation": truncation, **extra})
    return path


# ---------------------------------------------------------------------------
# task runners: each reads and checks its fields, then computes, and returns
# a list of output file paths
# ---------------------------------------------------------------------------

def task_coeffs(cfg, spec, outdir):
    sym = build_symbol(cfg, spec)
    box = build_box(cfg)
    freq_radius = _at_least(cfg, "params.freq_radius", 0, default=3)
    table = fourier.coefficient_table(sym, box, freq_radius)
    path = os.path.join(outdir, "coeffs.csv")
    fourier.table_to_csv(table, path)
    return [path]


def task_assemble(cfg, spec, outdir):
    sym = build_symbol(cfg, spec)
    box = build_box(cfg)
    formats = _get(cfg, "output.formats", default=["csv"], kind=list)
    if "csv" not in formats and "bin" not in formats:
        raise ConfigError("output.formats", "assemble task needs 'csv' and/or 'bin'")
    K = kernel.assemble(sym, spec, box)
    paths = []
    if "csv" in formats:
        p = os.path.join(outdir, "kernel.csv")
        kernel.write_csv(K, p)
        paths.append(p)
    if "bin" in formats:
        p = os.path.join(outdir, "kernel.bin")
        kernel.write_binary(K, p)
        paths.append(p)
    return paths


def _query_from(cfg, spec):
    p = float(_at_least(cfg, "params.p", 1, default=2.0, kind=NUMBER))
    r = float(_fraction(cfg, "params.r", 1.0, open_low=True))
    p2 = float(_at_least(cfg, "params.p2", 1, default=p, kind=NUMBER))
    return criteria.CriterionQuery(p=p, r=r, p2=p2, n=spec.dim)


def _check_sums(cfg, spec, outdir, query, sums, only=None):
    """Evaluate each named sum at the configured radius and its double.

    Writes sums.csv and report.json; the report's doubling_ratio and
    diverging fields are per sum, or the values of sum ``only`` when given.
    A sum past float64 raises NumericError before anything is written.
    """
    sym = build_symbol(cfg, spec)
    box = build_box(cfg)
    radii = (box.radius, 2 * box.radius)
    values = {name: [] for name, _ in sums}
    for radius in radii:
        K = kernel.assemble(sym, spec, BoxTruncation(radius))
        for name, fn in sums:
            with np.errstate(over="ignore"):
                values[name].append(fn(K))
            if not math.isfinite(values[name][-1]):
                raise NumericError(f"{name} is not finite at radius {radius}: {values[name][-1]}")
    growth = {name: (vals[1] / vals[0] if vals[0] > 0 else None)
              for name, vals in values.items()}
    diverging = {name: (g is not None and g >= criteria.DIVERGENCE_RATIO)
                 for name, g in growth.items()}
    csv_path = os.path.join(outdir, "sums.csv")
    write_csv(csv_path, ["criterion", "radius", "value"],
              [list(values), np.array(radii)[:, None], np.array(list(values.values())).T])
    return [csv_path, _write_report(
        outdir, criteria.order_conditions(sym.order, query),
        {name: vals[-1] for name, vals in values.items()},
        {"R": box.radius, "n": spec.dim, "hbar": spec.hbar},
        doubling_ratio=growth if only is None else growth[only],
        diverging=diverging if only is None else diverging[only])]


def task_check_bounds(cfg, spec, outdir):
    query = _query_from(cfg, spec)
    p = query.p
    sums = [("schur_l1_lp", lambda K: criteria.schur_l1_lp(K, p)),
            ("sup_entry", criteria.sup_entry)]
    if 1 < p < float("inf"):
        sums.append(("mixed_lp_sum", lambda K: criteria.mixed_lp_sum(K, p)))
    return _check_sums(cfg, spec, outdir, query, sums)


def task_check_nuclear(cfg, spec, outdir):
    query = _query_from(cfg, spec)
    sums = [("nuclear_sum", lambda K: criteria.nuclear_sum(K, query.r, query.p2))]
    return _check_sums(cfg, spec, outdir, query, sums, only="nuclear_sum")


def task_order_report(cfg, spec, outdir):
    mu = _finite(cfg, "params.mu")
    if mu is not None:
        rho = _fraction(cfg, "params.rho", 1.0)
        delta = _fraction(cfg, "params.delta", 0.0)
        order = sym_mod.SymbolOrder(float(mu), float(rho), float(delta))
    else:
        order = build_symbol(cfg, spec).order
    report = criteria.order_conditions(order, _query_from(cfg, spec))
    return [_write_report(outdir, report, {}, {"R": None, "n": spec.dim, "hbar": spec.hbar},
                          order={"mu": order.mu, "rho": order.rho, "delta": order.delta})]


def task_diag_approx(cfg, spec, outdir):
    sym = build_symbol(cfg, spec)
    box = build_box(cfg)
    hermitize = _get(cfg, "params.hermitize", default=True, kind=bool)
    K = kernel.assemble(sym, spec, box)
    ok, asym = kernel.hermitian_check(K)
    if not ok:
        if not hermitize:
            raise NumericError(f"kernel is not Hermitian (asymmetry {asym:.3e}) "
                               "and hermitize=false")
        K = kernel.hermitize(K)
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
        "hermitized": not ok,
        "low_overlap_pairs": int(np.sum(report.low_overlap)),
    })
    return [csv_path, json_path]


def task_spectrum(cfg, spec, outdir, fit_growth=False):
    """The box-doubling scan of spectrum and fit-growth.

    fit-growth requires params.j_range and fails only on unconverged
    values inside it; spectrum fails on any unconverged value.  fit-growth
    refuses a j_max beyond the scan's reach, whose rows would be nan.
    """
    pot, lam = build_potential(cfg, spec)
    j_max = _at_least(cfg, "params.j_max", 1, required=True)
    tol = _positive(cfg, "params.tol", default=1e-8)
    start = _at_least(cfg, "truncation.radius", 1, default=schrodinger.default_start_radius(spec))
    max_dim = _at_least(cfg, "params.max_dim", BoxTruncation(start).size(spec.dim),
                        default=schrodinger.DEFAULT_MAX_DIM)
    j_range = _get(cfg, "params.j_range", required=fit_growth, kind=list)
    if j_range is not None and (len(j_range) != 2 or not all(_is_a(j, int) for j in j_range)
                                or not 1 <= j_range[0] < j_range[1] <= j_max):
        raise ConfigError("params.j_range", "expected integers [j_lo, j_hi] with "
                          f"1 <= j_lo < j_hi <= j_max = {j_max}, got {j_range}")
    last = schrodinger.scan_radii(spec, start, max_dim)[-1]
    if fit_growth and j_max > (points := BoxTruncation(last).size(spec.dim)):
        raise ConfigError("params.j_max", f"the scan's largest box within max_dim {max_dim} has "
                          f"radius {last} and {points} points, fewer than j_max = {j_max}")

    result = schrodinger.spectrum_converged(spec, pot, j_max, tol, lam=lam,
                                            start_radius=start, max_dim=max_dim)
    paths = [os.path.join(outdir, "spectrum.csv")]
    write_csv(paths[0], ["j", "lambda_j", "converged", "R_used"],
              [np.arange(1, j_max + 1), result.eigenvalues,
               result.converged.astype(int), result.radius_used])
    if j_range is not None:
        try:
            fit = schrodinger.fit_growth_exponent(result, j_range, pot.mu, spec.dim)
        except ValueError as e:
            raise NumericError(str(e))
        paths.append(os.path.join(outdir, "growth.json"))
        _write_json(paths[-1], {
            "j_range": list(fit.j_range),
            "slope": fit.slope,
            "intercept": fit.intercept,
            "mu": fit.mu,
            "r_bound_satisfied": {repr(r): ok for r, ok in fit.r_bound_satisfied.items()},
        })
    if not fit_growth and not result.all_converged:
        raise NumericError(f"{result.stop}: {int(np.sum(~result.converged))} of "
                           f"{j_max} eigenvalues unconverged at radius {result.radius_used}")
    return paths


def task_fit_growth(cfg, spec, outdir):
    return task_spectrum(cfg, spec, outdir, fit_growth=True)


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


def _formula_field(config) -> str:
    """Where the parameters of a checked config's formula sit: the potential's or the family's."""
    if config["task"] in ("spectrum", "fit-growth") or config["symbol"]["family"] == "schrodinger":
        return "symbol.params.potential"
    return "symbol.params"


def run(config: dict, out_dir=None, threads=None, seed=None) -> list:
    """Execute one experiment config; returns the list of written files."""
    t0 = time.monotonic()
    task = _get(config, "task", required=True, kind=str)
    if task not in RUNNERS:
        raise ConfigError("task", f"unknown task '{task}'; expected one of {', '.join(RUNNERS)}")
    spec = build_lattice(config)
    outdir = out_dir or _get(config, "output.directory", default=".", kind=str)
    os.makedirs(outdir, exist_ok=True)
    try:
        outputs = RUNNERS[task](config, spec, outdir)
    except sym_mod.NonFiniteError as e:  # each parameter is valid, but the formula leaves float64
        raise ConfigError(_formula_field(config), str(e)) from e

    manifest = {
        "config": _strict_json(config),
        "version": __version__,
        "task": task,
        "threads": (os.cpu_count() or 1) if threads is None else threads,
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
                      help="recorded in the manifest only; no task runs in parallel")
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
    except (NumericError, ValueError, FloatingPointError, OverflowError, MemoryError,
            np.linalg.LinAlgError) as e:
        return _diagnose(3, "numeric", None, str(e) or type(e).__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
