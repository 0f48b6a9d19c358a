"""The scipy-BLAS product helper against numpy's @, and its out= contract."""

import numpy as np
import pytest

from specstab._blas import gemm

SHAPES = [(1, 1, 1), (3, 5, 2), (53, 53, 53), (174, 203, 203), (201, 434, 436)]


def layouts(a, b):
    """The same operands C-ordered, Fortran-ordered, as transposed views and
    as strided views, which are neither."""
    wide_a, wide_b = np.zeros((a.shape[0], 2 * a.shape[1])), np.zeros((b.shape[0], 2 * b.shape[1]))
    wide_a[:, ::2], wide_b[:, ::2] = a, b
    return {
        "C": (a, b),
        "Fortran": (np.asfortranarray(a), np.asfortranarray(b)),
        "transposed views": (np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T),
        "strided": (wide_a[:, ::2], wide_b[:, ::2]),
    }


def assert_rounding_of_product(got, a, b):
    # |fl(a b) - a b| <= k u |a| |b| entrywise, for any summation order
    bound = a.shape[1] * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
    assert got.shape == (a.shape[0], b.shape[1])
    assert np.all(np.abs(got - a @ b) <= bound)


@pytest.mark.parametrize("m, k, n", SHAPES)
def test_gemm_is_the_matrix_product_for_every_layout(m, k, n):
    rng = np.random.default_rng(m + k + n)
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    for name, (x, y) in layouts(a, b).items():
        got = gemm(x, y)
        assert got.flags.c_contiguous, name
        assert_rounding_of_product(got, a, b)
        out = np.full((m, n), np.nan)
        assert gemm(x, y, out=out) is out, name
        assert np.array_equal(out, got), name


def test_gemm_of_empty_operands():
    assert gemm(np.ones((0, 4)), np.ones((4, 3))).shape == (0, 3)
    assert np.array_equal(gemm(np.ones((5, 0)), np.ones((0, 3))), np.zeros((5, 3)))


def bad_outs(m, n):
    """Outputs gemm must refuse: each is one that f2py would copy, or a
    read-only one that it would write into, or the wrong shape."""
    strided = np.zeros((m, 2 * n))[:, ::2]
    read_only = np.zeros((m, n))
    read_only.setflags(write=False)
    return {
        "Fortran-ordered": np.zeros((m, n), order="F"),
        "strided": strided,
        "float32": np.zeros((m, n), dtype=np.float32),
        "read-only": read_only,
        "wrong shape": np.zeros((m, n + 1)),
        "transposed view": np.zeros((n, m)).T,
    }


def test_gemm_writes_into_out_or_raises():
    rng = np.random.default_rng(0)
    m, k, n = 7, 5, 4
    a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
    for name, out in bad_outs(m, n).items():
        with pytest.raises(ValueError):
            gemm(a, b, out=out)
        assert not np.any(out), name  # nothing was written into it
    # a C-contiguous view into a larger array is written in place
    rows = np.zeros((m + 2, n))
    assert gemm(a, b, out=rows[1: m + 1]).base is rows
    assert_rounding_of_product(rows[1: m + 1], a, b)
    assert not rows[0].any() and not rows[-1].any()
