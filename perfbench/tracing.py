"""Spans and counts around the public functions of lattice_pdo, from outside.

``Tracer.install`` replaces every public function of the traced modules by a
wrapper, at every place a caller looks it up: the defining module, sibling
modules that imported it by name (``kernel`` imports ``spectrum_of_row``,
``spectral`` imports ``hermitian_check``), the package's re-exports, and
module-level dicts such as ``cli.RUNNERS``.  Nothing under ``src/`` changes.

Each thread keeps its own parent stack.  A span that opens on a worker thread
with an empty stack (``parallel_map`` running ``spectrum_of_row``) takes the
main thread's innermost open span as its parent, so child time is never
charged to an unrelated span.  Spans stay in memory until the benchmark
writes them out at the end.

A span's self time is its duration minus the part of its interval covered
by its children.  A function's wall time is the measure of the union of its
span intervals, and its thread-summed time is the sum of their durations;
the two differ when spans overlap on worker threads.
"""

import dataclasses
import inspect
import os
import threading
import time
from collections import defaultdict

LAYERS = ("symbols", "fourier", "kernel", "criteria", "spectral", "schrodinger", "cli")
CRITERION_SUMS = ("schur_l1_lp", "sup_entry", "mixed_lp_sum", "nuclear_sum")


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0


def _union(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# --- counts taken from arguments and results at the layer boundaries -------

def _count_assemble(counts, args, result):
    counts["kernel.assemble_entries"] += result.entries.size
    counts["kernel.assemble_bytes"] += result.entries.nbytes


def _count_sum(counts, args, result):
    entries = getattr(args[0], "entries", args[0])
    counts["criteria.sums_bytes"] += entries.size * 8      # float64 |A|


def _count_output(counts, args, result):
    counts["kernel.output_bytes"] += os.path.getsize(args[1])


def _count_scan(counts, args, result):
    counts["schrodinger.eigensolves"] += len(result.radii_scanned)
    dim = (2 * max(result.radii_scanned) + 1) ** args[0].dim
    counts["schrodinger.max_dim"] = max(counts["schrodinger.max_dim"], dim)


def _count_cli(counts, args, result):
    counts["cli.runs"] += 1
    counts["cli.failed"] += int(result != 0)


HOOKS = {
    "kernel.assemble": _count_assemble,
    "kernel.write_csv": _count_output,
    "kernel.write_binary": _count_output,
    "schrodinger.spectrum_converged": _count_scan,
    "cli.main": _count_cli,
}
HOOKS.update({f"criteria.{name}": _count_sum for name in CRITERION_SUMS})


class Tracer:
    """Records spans and counts while ``enabled``; a pass is one measurement."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self._next_id = 0
        self._undo = []
        self._symbol_type = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and threading.get_ident() != self._main:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            span = Span(self._next_id, parent, name, threading.get_ident(),
                        time.perf_counter())
            self._next_id += 1
        stack.append(span.id)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        counts_symbols = name.startswith("symbols.")

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                with self._lock:
                    hook(self.counts, args, result)
            if counts_symbols and isinstance(result, self._symbol_type):
                result = self._counting_symbol(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count(self, key, n):
        with self._lock:
            self.counts[key] += n

    def _counting_symbol(self, sym):
        """The same symbol, counting coefficient calls and theta points."""
        ev, cf = sym.eval_fn, sym.closed_form_coeffs

        def eval_fn(k, theta):
            if self.enabled:
                self._count("symbols.eval_points", theta.size // theta.shape[-1])
            return ev(k, theta)

        changes = {"eval_fn": eval_fn}
        if cf is not None:
            def closed_form_coeffs(k, m):
                if self.enabled:
                    self._count("symbols.coeff_evals", 1)
                return cf(k, m)
            changes["closed_form_coeffs"] = closed_form_coeffs
        return dataclasses.replace(sym, **changes)

    def install(self):
        import importlib

        package = importlib.import_module("lattice_pdo")
        modules = {layer: importlib.import_module(f"lattice_pdo.{layer}") for layer in LAYERS}
        self._symbol_type = modules["symbols"].Symbol
        lookup_sites = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for site in lookup_sites:
                    namespaces = [vars(site)] + [v for v in vars(site).values()
                                                 if isinstance(v, dict)]
                    for namespace in namespaces:
                        for key, value in list(namespace.items()):
                            if value is fn:
                                namespace[key] = wrapper
                                self._undo.append((namespace, key, fn))

    def uninstall(self):
        for namespace, key, fn in reversed(self._undo):
            namespace[key] = fn
        self._undo.clear()

    def begin_pass(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.enabled = True

    def end_pass(self):
        """Stop recording; return (spans, counts) of the pass."""
        self.enabled = False
        return self.spans, dict(self.counts)


def summarize(spans):
    """Per-function calls, wall, thread-summed and self seconds; per-layer self seconds."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    by_fn = defaultdict(lambda: {"calls": 0, "intervals": [], "thread_s": 0.0, "self_s": 0.0})
    layer_self = defaultdict(float)
    for sp in spans:
        covered = _union([(max(c.start, sp.start), min(c.end, sp.end))
                          for c in children[sp.id] if c.end > sp.start and c.start < sp.end])
        self_s = (sp.end - sp.start) - covered
        entry = by_fn[sp.name]
        entry["calls"] += 1
        entry["intervals"].append((sp.start, sp.end))
        entry["thread_s"] += sp.end - sp.start
        entry["self_s"] += self_s
        layer_self[sp.name.split(".")[0]] += self_s
    functions = {}
    for name, entry in by_fn.items():
        functions[name] = {"calls": entry["calls"], "wall_s": _union(entry["intervals"]),
                           "thread_s": entry["thread_s"], "self_s": entry["self_s"]}
    sums_wall = _union([iv for name in CRITERION_SUMS
                        for iv in by_fn.get(f"criteria.{name}", {"intervals": []})["intervals"]])
    return functions, dict(layer_self), sums_wall
