"""The package's LAPACK calls, all on scipy's library.

numpy and scipy each bundle an OpenBLAS (see _blas).  The package's dense
eigenvalue, solve, SVD and least-squares calls are made here, on scipy's, so
a run touches numpy's copy only for products on numpy's @, and does not
fault in the pages of numpy's LAPACK code.  Each routine makes the LAPACK
call that its numpy.linalg counterpart makes, on the workspace that
LAPACK's own query returns, and so returns numpy's bits; it raises
LinAlgError where numpy does.  Only lstsq writes into its operands; the
other routines leave theirs as they are, because f2py copies each into the
Fortran-ordered array LAPACK overwrites.

The bits are numpy's at the sizes a run gives each routine.  numpy 2.4 and
scipy 1.17 bundle different OpenBLAS releases (0.3.31 and 0.3.30), and
beyond those sizes their kernels can round differently: real LU solves from
order 6 (see solve), and, with more than one BLAS thread on 2 cores,
complex solves from order about 100 and dgeev from about 150.

The remaining drivers the package calls, dsygst and ztrsyl, are imported
from here too, so that this is the one module that names LAPACK.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import (dgeev, dgeev_lwork, dgelsd, dgelsd_lwork, dgesdd,
                                 dgesdd_lwork, dgesv, dsyevd, dsyevd_lwork, dsyevr,
                                 dsyevr_lwork, dsygst, zgesv, ztrsyl)

def _check(info: int, message: str) -> None:
    if info != 0:
        raise LinAlgError(f"{message} (info = {info})")


def eigvals(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvals of a real square matrix, by dgeev without vectors:
    a real array when every imaginary part is 0, else a complex one."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    work, _ = dgeev_lwork(a.shape[0], compute_vl=0, compute_vr=0)
    wr, wi, _, _, info = dgeev(a, compute_vl=0, compute_vr=0, lwork=int(work))
    _check(info, "Eigenvalues did not converge")
    if not wi.any():
        return wr
    w = np.empty(wr.size, dtype=complex)
    w.real, w.imag = wr, wi
    return w


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvalsh of a symmetric matrix from its lower triangle,
    in ascending order, by dsyevd without vectors."""
    work, iwork, _ = dsyevd_lwork(a.shape[0], compute_v=0, lower=1)
    w, _, info = dsyevd(a, compute_v=0, lower=1, lwork=int(work), liwork=iwork)
    _check(info, "Eigenvalues did not converge")
    return w


def largest_eigenvalue(a: np.ndarray) -> float:
    """The largest eigenvalue of symmetric a from its lower triangle, by one
    dsyevr call with the arguments and workspace that scipy's
    eigvalsh(a, subset_by_index=[n - 1, n - 1]) passes, so with its bits, but
    without its validation."""
    n = a.shape[0]
    lwork, liwork, _ = dsyevr_lwork(n, lower=1)
    w, _, _, _, info = dsyevr(a, compute_v=0, range="I", lower=1, il=n, iu=n,
                              lwork=int(lwork), liwork=liwork)
    _check(info, "dsyevr failed")
    return w[0]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy.linalg.solve(a, b) for square a and b of one or more columns, by
    dgesv, or zgesv when either operand is complex.

    A real system keeps numpy's bits up to order 5.  Pole placement solves
    at order N0 + 1, which is 2 or 3 wherever the constant-coefficient
    examples' design succeeds (q_c up to 50; at q_c = 100, N0 = 3, the
    placement fails).  From order 6 the two OpenBLAS releases' LU solves
    differ in the last bits on some systems (26 of 200 random ones at order
    6, 73 at order 7).
    """
    gesv = zgesv if np.iscomplexobj(a) or np.iscomplexobj(b) else dgesv
    _, _, x, info = gesv(a, b)
    _check(info, "Singular matrix")
    return x


def svdvals(a: np.ndarray) -> np.ndarray:
    """numpy.linalg.svd(a, compute_uv=False): the singular values in
    descending order, by dgesdd without vectors."""
    work, _ = dgesdd_lwork(*a.shape, compute_uv=0, full_matrices=0)
    _, s, _, info = dgesdd(a, compute_uv=0, full_matrices=0, lwork=int(work))
    _check(info, "SVD did not converge")
    return s


def lstsq(a: np.ndarray, b: np.ndarray, rcond: float) -> tuple[np.ndarray, int]:
    """The solution and the effective rank of numpy.linalg.lstsq(a, b, rcond)
    for an m x n matrix a with m >= n, by dgelsd.

    a and b are scratch: dgelsd works in them without copies when a is
    Fortran-ordered and b a contiguous float64 array, and leaves them garbage.
    """
    m, n = a.shape
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    work, iwork, _ = dgelsd_lwork(m, n, nrhs, rcond)
    x, _, rank, info = dgelsd(a, b, int(work), iwork, rcond, overwrite_a=1, overwrite_b=1)
    _check(info, "SVD did not converge in Linear Least Squares")
    return x[:n], int(rank)
