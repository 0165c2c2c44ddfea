"""Small shared helpers, and the byte format of every CSV table the package writes."""

import hashlib
import io
import itertools
import math
import os

import numpy as np

CSV_CHUNK = 2048  # rows formatted and written per step, so memory stays flat


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def c_pow(x: float, exponent) -> float:
    """x ** exponent by the C library's pow, for x >= 0; inf past float64, where that pow raises."""
    try:
        return math.pow(x, exponent)
    except OverflowError:
        return math.inf


def float_pow(x, exponent) -> np.ndarray:
    """`c_pow` elementwise, for x >= 0.

    numpy's vectorised power can differ from the C pow in the last bit.
    math.pow is mapped directly unless it overflows: mapping `c_pow` added
    ~2 ms (~12%) to a pass of the `sums` benchmark workload on 2 cores.
    """
    xs = np.asarray(x).tolist()
    try:
        return np.fromiter(map(math.pow, xs, itertools.repeat(exponent)), float, len(xs))
    except OverflowError:
        return np.fromiter(map(c_pow, xs, itertools.repeat(exponent)), float, len(xs))


def rounded_up(value: float, short_eps: float, tiny_ops: float) -> float:
    """Upper bound on the real number that ``value`` computes, if it falls at most
    short_eps eps short in the normal range and 2^-1074 per each of ``tiny_ops``
    operations below it; the factor 1 + 2 short_eps eps covers its own rounding.
    """
    return value * (1.0 + 2 * short_eps * math.ulp(1.0)) + tiny_ops * 2.0 ** -1070


def check_fits(need: int, what: str) -> None:
    """Raise ValueError if ``need`` bytes for ``what`` exceed physical memory.

    Called before anything of that size is built, so an impossible request
    fails at once, naming what it is and its bytes, rather than being killed
    mid-run.
    """
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(f"{what} needs {need} bytes, "
                         f"more than the {have} bytes of physical memory")


def rows_per_block(width: int) -> int:
    """Rows of ``width`` complex128 entries in ~1 MiB, at least one.

    The block of every reader that goes through a large array a few rows at
    a time, so that it holds one block, not the array.
    """
    return max(1, 2 ** 20 // (16 * width))


def check_dense_fits(shape) -> None:
    """`check_fits` for a dense array of ``shape``.

    complex128 is the widest storage, so the check is the same for real and
    complex matrices.
    """
    check_fits(math.prod(shape) * np.dtype(complex).itemsize,
               "a dense " + "x".join(str(d) for d in shape) + " matrix")


def write_csv(path, header, columns) -> None:
    """Write a header row, then one CSV row per element of the columns.

    Columns (arrays or scalars) are broadcast together and read in C order.
    Per chunk, each distinct value of a column (by its bits, for a float) is
    formatted once as str of its Python value, so the bytes are csv.writer's.
    """
    columns = np.broadcast_arrays(*(np.asarray(c) for c in columns))
    with open(path, "w", newline="") as fh:
        fh.write(_csv_row(header))
        for start in range(0, columns[0].size, CSV_CHUNK):
            fields = [_csv_texts(c.flat[start:start + CSV_CHUNK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _csv_row(row) -> str:  # csv.writer's line; csv is imported on first write
    import csv
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerow(row)
    return buf.getvalue()


def _csv_texts(values) -> list:
    keys = values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    fmt = (lambda label: _csv_row([label, ""])[:-2]) if values.dtype.kind in "OSU" else str
    texts = list(map(fmt, distinct.view(values.dtype).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()

