"""LAPACK's tridiagonal eigensolver dstevd, from the OpenBLAS that numpy loaded.

numpy's eigvalsh and eigh run dsyevd, which reduces a symmetric matrix to
tridiagonal form, then scales it and runs dsterf (values) or dstedc
(vectors), as dstevd does.  On a real block whose lower triangle is already
tridiagonal the reduction changes nothing (every Householder tau is 0), so
dstevd gives the same bits without the O(n^3) reduction.  The binding is
trusted only once it has reproduced np.linalg.eigvalsh and np.linalg.eigh
bit for bit on a probe large enough for dstedc's divide and conquer; with
no library, no symbol or a failed probe, `tridiagonal_eigh` solves nothing.
"""

import ctypes
import functools
import glob
import math
import os

import numpy as np

from ._util import rows_per_block

SYMBOL = "scipy_LAPACKE_dstevd_work64_"   # ILP64 LAPACKE, numpy's wheel build of OpenBLAS
COL_MAJOR = 102


@functools.lru_cache(maxsize=None)
def library():
    """ctypes handle of numpy's OpenBLAS (numpy.libs, or numpy/.dylibs on macOS), or None."""
    here = os.path.dirname(np.__file__)
    for libdir in (os.path.join(here, os.pardir, "numpy.libs"), os.path.join(here, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            if hasattr(lib, SYMBOL):
                return lib
    return None


@functools.lru_cache(maxsize=None)
def dstevd():
    """LAPACKE_dstevd_work, bound and probed once; None when it cannot be trusted."""
    lib = library()
    if lib is None:
        return None
    fn = getattr(lib, SYMBOL)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [ctypes.c_int, ctypes.c_char, i64, ptr, ptr, ptr, i64, ptr, i64, ptr, i64]
    fn.restype = i64
    # a fixed 40-point tridiagonal block (past dstedc's 25-point cut to divide and conquer)
    # with a zero on its subdiagonal, so LAPACK splits it
    n = 40
    probe = np.diag(np.cos(np.arange(n) * 1.7) * 3.0)
    sub = np.sin(np.arange(1, n) * 0.9)
    sub[n // 2] = 0.0
    probe[np.arange(1, n), np.arange(n - 1)] = probe[np.arange(n - 1), np.arange(1, n)] = sub
    band = np.diagonal(probe), np.diagonal(probe, -1)
    vals, both = (_call(fn, *(x.copy() for x in band), vectors) for vectors in (False, True))
    if vals is None or both is None:
        return None
    same = all(a.tobytes() == b.tobytes() for a, b in
               zip((vals, *both), (np.linalg.eigvalsh(probe), *np.linalg.eigh(probe))))
    return fn if same else None


def tridiagonal_eigh(block, want_vectors: bool):
    """np.linalg.eigvalsh(block), or eigh(block) when ``want_vectors``, by dstevd.

    Only for a float64 block whose lower triangle, the triangle numpy's eigh
    reads, is zero below its diagonal and first subdiagonal, and whose band
    has a finite largest |entry|: both drivers scale by it, dsyevd by dlascl
    and dstevd by dscal, which agree when it is finite.  None for any other
    block, without a trusted binding, or when LAPACK reports a failure; the
    caller then solves the block dense, as numpy would have.
    """
    fn = dstevd() if block.dtype == np.float64 and block.ndim == 2 else None
    if fn is None:
        return None
    n = len(block)
    step = rows_per_block(n)
    for lo in range(2, n, step):  # rows lo.. in ~1 MiB slices: zero left of the subdiagonal
        if np.any(np.tril(block[lo:lo + step], lo - 2)):
            return None
    d, e = np.diagonal(block).copy(), np.diagonal(block, -1).copy()
    if not math.isfinite(max(np.max(np.abs(d), initial=0.0), np.max(np.abs(e), initial=0.0))):
        return None
    return _call(fn, d, e, want_vectors)


def _call(fn, d, e, want_vectors):
    # dstevd of the band d, e (overwritten) into numpy-owned work arrays and column-major
    # vectors; None if LAPACK reports a failure
    n = len(d)
    full = want_vectors and n > 1
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if full else (1, 1)
    z = np.empty((n, n), order="F") if want_vectors else np.empty(1)
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
    info = fn(COL_MAJOR, b"V" if want_vectors else b"N", n, d.ctypes.data, e.ctypes.data,
              z.ctypes.data, max(n, 1), work.ctypes.data, lwork, iwork.ctypes.data, liwork)
    if info != 0:
        return None
    return (d, z) if want_vectors else d
