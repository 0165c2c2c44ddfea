"""LAPACK's tridiagonal eigensolver dstevd, from the OpenBLAS that numpy loaded.

numpy's eigvalsh and eigh run dsyevd, which reduces a symmetric matrix to
tridiagonal form, then scales it and runs dsterf (values) or dstedc
(vectors), as dstevd does.  On a real matrix whose lower triangle is already
tridiagonal the reduction changes nothing (every Householder tau is 0), so
dstevd of its band gives the same bits without the O(n^3) reduction.  The
binding is trusted only once it has reproduced np.linalg.eigvalsh and
np.linalg.eigh bit for bit on a probe large enough for dstedc's divide and
conquer; with no library, no symbol or a failed probe, `tridiagonal_eigh`
solves nothing.
"""

import ctypes
import functools
import glob
import os

import numpy as np

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
    d, e = np.cos(np.arange(n) * 1.7) * 3.0, np.sin(np.arange(1, n) * 0.9)
    e[n // 2] = 0.0
    probe = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
    vals, both = (_call(fn, d.copy(), e.copy(), vectors) for vectors in (False, True))
    if vals is None or both is None:
        return None
    same = all(a.tobytes() == b.tobytes() for a, b in
               zip((vals, *both), (np.linalg.eigvalsh(probe), *np.linalg.eigh(probe))))
    return fn if same else None


def tridiagonal_eigh(d, e, want_vectors: bool):
    """eigvalsh, or eigh when ``want_vectors``, of the band d, e by dstevd; d and e overwritten.

    d is the diagonal and e the first subdiagonal, float64 and finite, of a
    real symmetric tridiagonal matrix; numpy's eigvalsh and eigh of any
    float64 matrix whose lower triangle is that band give the same bits
    (both drivers scale by the band's largest |entry|, dsyevd by dlascl and
    dstevd by dscal, which agree when it is finite).  None without a
    trusted binding, or when LAPACK reports a failure; the caller then
    solves the matrix dense, as numpy would have.
    """
    fn = dstevd()
    return None if fn is None else _call(fn, d, e, want_vectors)


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
