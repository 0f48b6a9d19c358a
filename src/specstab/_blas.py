"""Matrix products on scipy's BLAS.

numpy and scipy each bundle their own OpenBLAS, and each library has its own
thread pool and its own pages of code.  The package runs on scipy's: every
LAPACK call is scipy's (its eigh, expm, schur, svdvals and eigvals, and the
drivers that _lapack calls in place of numpy.linalg), and so is every matrix
product whose sides grow with the mode count, taken here by dgemm.  A
threaded numpy product between two LAPACK calls would wake the other pool,
whose workers then spin for a while after the product ends and compete for
the same cores.  Products with a small fixed side and matrix-vector products
stay on numpy's @: OpenBLAS does not thread them at these sizes, this
wrapper costs more than they do, and moving them would change how their
sums are rounded.  So numpy's OpenBLAS serves those small products alone,
and a run faults in none of its LAPACK code unless scipy itself calls
numpy.linalg, as solve_continuous_are does (its svd and cond).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm


def _fortran(x: np.ndarray) -> tuple[np.ndarray, int]:
    """A Fortran-ordered array and the dgemm transpose flag that reads x from
    it, without a copy when x is C- or Fortran-contiguous."""
    if x.flags.f_contiguous:
        return x, 0
    if x.flags.c_contiguous:
        return x.T, 1
    return np.asfortranarray(x), 0


def gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b of 2-D float arrays as a C-ordered array, written into out if given.

    The C-ordered product is the Fortran-ordered b.T @ a.T, which is how
    numpy's @ hands it to BLAS as well.  out must be a writable C-contiguous
    float64 array of the product's shape, or ValueError is raised: f2py
    would silently write a copy of any other, and would write into a
    read-only one.
    """
    shape = (a.shape[0], b.shape[1])
    if out is not None and (out.shape != shape or not out.flags.writeable):
        raise ValueError(f"out must be a writable array of shape {shape}")
    bt, trans_b = _fortran(b.T)
    at, trans_a = _fortran(a.T)
    c = None if out is None else out.T
    product = dgemm(1.0, bt, at, c=c, trans_a=trans_b, trans_b=trans_a, overwrite_c=1)
    if out is None:
        return product.T
    if product is not c:
        raise ValueError("out must be a C-contiguous float64 array")
    return out
