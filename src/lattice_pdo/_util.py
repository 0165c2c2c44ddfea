"""Small shared helpers, and the byte format of every CSV table the package writes."""

import hashlib
import io
import itertools
import math
import os

import numpy as np

# rows formatted and written per step at most, so memory stays flat: the whole table if
# it fits, else steps along the axis before the first whose trailing rows fit (`write_csv`)
CSV_CHUNK = 2048


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
    """Rows of ``width`` complex128 entries in ~1 MiB, at least one (any number at width 0).

    The block of every reader that goes through a large array a few rows at
    a time, so that it holds one block, not the array.
    """
    return max(1, 2 ** 20 // (16 * max(width, 1)))


def check_dense_fits(shape) -> None:
    """`check_fits` for a dense array of ``shape``.

    complex128 is the widest storage, so the check is the same for real and
    complex matrices.
    """
    check_fits(math.prod(shape) * np.dtype(complex).itemsize,
               "a dense " + "x".join(str(d) for d in shape) + " matrix")


def write_csv(path, header, columns) -> None:
    """Write a header row, then one CSV row per element of the columns.

    Columns (arrays or scalars) are broadcast together and read in C order,
    a chunk of at most CSV_CHUNK rows at a time: the whole table if it fits,
    else steps along the axis before the first whose trailing rows fit, one
    index at a time of the axes before it.  A column is formatted on its own
    points, the slice that drops the axes it is broadcast along (stride 0),
    and consecutive columns broadcast along the same axes (the k_1..k_n of a
    coefficient table) are formatted and joined once on those points.  A
    group broadcast along every axis the chunks step through is formatted
    once per table.  Each distinct value (by its bits, for a float) of a
    chunk's points is formatted once as str of its Python value, so the
    bytes are csv.writer's.
    """
    columns = np.broadcast_arrays(*(np.asarray(c) for c in columns))
    shape = columns[0].shape
    groups, every = [], tuple(n > 1 for n in shape)
    for c in columns:  # a column that varies along every axis stays alone: a join gains nothing
        if groups and _varies(c) == _varies(groups[-1][0]) != every:
            groups[-1].append(c)
        else:
            groups.append([c])
    with open(path, "w", newline="") as fh:
        fh.write(_csv_row(header))
        if columns[0].size == 0:
            return
        split = next(a for a in range(len(shape) + 1) if math.prod(shape[a:]) <= CSV_CHUNK)
        chunks, kept, rows = [...], [None] * len(groups), shape  # the whole table at once
        if split > 0:
            step = CSV_CHUNK // math.prod(shape[split:])
            chunks = ((*outer, slice(j, j + step)) for outer in np.ndindex(shape[:split - 1])
                      for j in range(0, shape[split - 1], step))
            first = (0,) * (split - 1) + (slice(0, 1),)
            kept = [None if any(_varies(cols[0])[:split]) else _group_texts(cols, first)
                    for cols in groups]
            rows = (step, *shape[split:])
        # a chunk's rows as one object array: each group's texts, then a comma or a newline
        line = np.full((*rows, 2 * len(groups)), ",", dtype=object)
        line[..., -1] = "\n"
        for chunk in chunks:
            out = line[tuple(map(slice, columns[0][chunk].shape))]
            for g, (cols, texts) in enumerate(zip(groups, kept)):
                out[..., 2 * g] = _group_texts(cols, chunk) if texts is None else texts
            fh.write("".join(out.ravel().tolist()))
            out[..., ::2] = None  # the chunk's texts are let go before the next is formatted


def _varies(column) -> tuple:
    # per axis, whether a broadcast column can differ along it
    return tuple(n > 1 and s != 0 for n, s in zip(column.shape, column.strides))


def _group_texts(columns, chunk) -> np.ndarray:
    # the joined texts of columns that vary along the same axes, on their points in a chunk:
    # shaped as the chunk, with length 1 on every other axis
    views = [c[chunk] for c in columns]
    points = tuple(slice(None) if v else slice(0, 1) for v in _varies(views[0]))
    texts = [_csv_texts(v[points]) for v in views]
    if len(texts) == 1:
        return texts[0]
    joined = list(map(",".join, zip(*(t.ravel().tolist() for t in texts))))
    return np.array(joined, dtype=object).reshape(texts[0].shape)


def _csv_row(row) -> str:  # csv.writer's line; csv is imported on first write
    import csv
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerow(row)
    return buf.getvalue()


def _csv_texts(values) -> np.ndarray:
    # each value's text, in an object array of its shape, formatted once per distinct value
    flat = np.ravel(values)
    keys = flat.view(f"i{flat.itemsize}") if flat.dtype.kind == "f" else flat
    distinct, inverse = np.unique(keys, return_inverse=True)
    fmt = (lambda label: _csv_row([label, ""])[:-2]) if flat.dtype.kind in "OSU" else str
    texts = list(map(fmt, distinct.view(flat.dtype).tolist()))
    return np.array(texts, dtype=object)[inverse].reshape(np.shape(values))

