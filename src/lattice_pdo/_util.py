"""Small shared helpers, and the byte format of every CSV table the package writes."""

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CSV_CHUNK = 4096  # rows formatted and written per step, so memory stays flat


def parallel_map(fn, items, threads=1):
    """Ordered map over items; thread count never affects the result."""
    if threads is None or threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def check_dense_fits(shape) -> None:
    """Raise ValueError if a complex128 array of ``shape`` exceeds physical memory.

    Called before anything of that size is built, so an impossible request
    fails at once, naming its shape and bytes, rather than being killed
    mid-run.  complex128 is the widest storage, so the check is the same
    for real and complex matrices.
    """
    need = math.prod(shape) * np.dtype(complex).itemsize
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        dims = "x".join(str(d) for d in shape)
        raise ValueError(f"a dense {dims} matrix needs {need} bytes, "
                         f"more than the {have} bytes of physical memory")


def write_csv(path, header, columns) -> None:
    """Write a header row, then one CSV row per element of the columns.

    Columns (arrays or scalars) are broadcast together and read in C order.
    csv.writer gets Python numbers, so a float is written as its shortest
    round-trip repr and anything else as str.
    """
    import csv
    columns = np.broadcast_arrays(*(np.asarray(c) for c in columns))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for start in range(0, columns[0].size, CSV_CHUNK):
            w.writerows(zip(*(c.flat[start:start + CSV_CHUNK].tolist() for c in columns)))
