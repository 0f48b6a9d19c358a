import ctypes
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import LinAlgError, cholesky, eigh_tridiagonal
from scipy.linalg.blas import dsyrk, dtrsm
from scipy.linalg.lapack import dstebz, dstein

import specstab as ss
from specstab.errors import (
    BoundViolation,
    GridMismatch,
    NonPositiveDiffusion,
    ResolutionTooCoarse,
)

ND = ss.BoundarySpec(ss.NEUMANN_DIRICHLET)
DD = ss.BoundarySpec(ss.DIRICHLET_DIRICHLET)

SQ2 = np.sqrt(2.0)


def variable_coeffs():
    # p = 1 + 0.1x, q = x with the tight a-priori bounds
    return ss.CoefficientPair(
        p=lambda x: 1.0 + 0.1 * np.asarray(x, dtype=float),
        q=lambda x: np.asarray(x, dtype=float),
        p_prime=lambda x: np.full_like(np.asarray(x, dtype=float), 0.1),
        p_star=1.0, p_sup=1.1, q_sup=1.0, smoothness="C2",
    )


# ---------------------------------------------------------------- analytic

def test_analytic_neumann_dirichlet_mode1():
    sp = ss.analytic_spectrum(ND, 1, 200)
    assert sp.lambdas[0] == pytest.approx(np.pi ** 2 / 4, rel=1e-14)
    assert sp.trace0[0] == pytest.approx(SQ2, rel=1e-14)
    assert sp.dtrace0[0] == 0.0


def test_analytic_dirichlet_dirichlet_mode1():
    sp = ss.analytic_spectrum(DD, 1, 200)
    assert sp.lambdas[0] == pytest.approx(np.pi ** 2, rel=1e-14)
    assert sp.dtrace0[0] == pytest.approx(SQ2 * np.pi, rel=1e-14)
    assert sp.trace0[0] == 0.0


def test_analytic_neumann_dirichlet_mode2():
    sp = ss.analytic_spectrum(ND, 2, 200)
    assert sp.lambdas[1] == pytest.approx((1.5 * np.pi) ** 2, rel=1e-14)


def test_analytic_norms_unit_under_quadrature():
    sp = ss.analytic_spectrum(ND, 50, 2000)
    norms = np.sum(sp.weights * sp.eigenfunctions ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


# ---------------------------------------------------------------- solver vs oracle

@pytest.mark.parametrize("bspec", [ND, DD])
def test_solver_matches_analytic_eigenvalues(bspec):
    coeffs = ss.CoefficientPair.constant(1.0, 0.0)
    num = ss.solve_spectrum(coeffs, bspec, 10, 2000)
    ana = ss.analytic_spectrum(bspec, 10, 200)
    rel = np.abs(num.lambdas - ana.lambdas) / ana.lambdas
    assert np.max(rel) < 1e-6


def test_solver_matches_analytic_traces():
    coeffs = ss.CoefficientPair.constant(1.0, 0.0)
    num = ss.solve_spectrum(coeffs, DD, 10, 2000)
    exact = SQ2 * np.arange(1, 11) * np.pi
    rel = np.abs(num.dtrace0 - exact) / exact
    assert np.max(rel) < 1e-4
    num_nd = ss.solve_spectrum(coeffs, ND, 10, 2000)
    assert np.max(np.abs(num_nd.trace0 - SQ2)) / SQ2 < 1e-4


def test_variable_coefficients_inside_band():
    sp = ss.solve_spectrum(variable_coeffs(), ND, 5, 4000)
    lower, upper = ss.validate_bounds(sp, variable_coeffs())
    assert np.all(lower >= 0)
    assert np.all(upper >= 0)


def test_solver_sign_convention():
    coeffs = ss.CoefficientPair.constant(1.0, 0.0)
    assert np.all(ss.solve_spectrum(coeffs, ND, 8, 1000).trace0 > 0)
    assert np.all(ss.solve_spectrum(coeffs, DD, 8, 1000).dtrace0 > 0)


# ---------------------------------------------------------------- bounds

def test_bound_margins_constant_mode1():
    sp = ss.analytic_spectrum(ND, 1, 200)
    lower, upper = ss.validate_bounds(sp, ss.CoefficientPair.constant(1.0, 0.0))
    assert lower[0] == pytest.approx(np.pi ** 2 / 4, rel=1e-12)
    assert upper[0] == pytest.approx(np.pi ** 2 - np.pi ** 2 / 4, rel=1e-12)


def test_bound_margins_dirichlet_dirichlet_mode3():
    sp = ss.analytic_spectrum(DD, 3, 200)
    lower, _ = ss.validate_bounds(sp, ss.CoefficientPair.constant(1.0, 0.0))
    assert lower[2] == pytest.approx(9 * np.pi ** 2 - 4 * np.pi ** 2, rel=1e-12)


def test_bound_violation_raises_with_mode_index():
    sp = ss.analytic_spectrum(ND, 3, 200)
    # a tighter claimed upper bound than the true coefficients admit
    fake = ss.CoefficientPair.constant(1.0, 0.0)
    object.__setattr__(fake, "p_sup", 0.2)
    with pytest.raises(BoundViolation) as exc:
        ss.validate_bounds(sp, fake)
    assert exc.value.mode >= 1


# ---------------------------------------------------------------- projection

def test_project_orthonormality_of_modes():
    sp = ss.analytic_spectrum(ND, 3, 2000)
    assert ss.project(sp.eigenfunctions[0], sp, 1) == pytest.approx(1.0, abs=1e-8)
    assert ss.project(sp.eigenfunctions[1], sp, 1) == pytest.approx(0.0, abs=1e-8)


def test_project_polynomial_against_quadrature_oracle():
    # oracle: adaptive quadrature of (1+x^2) sqrt2 cos(pi x / 2), frozen
    sp = ss.analytic_spectrum(ND, 1, 2000)
    f = 1.0 + sp.grid ** 2
    assert ss.project(f, sp, 1) == pytest.approx(1.0708637138698347, abs=1e-9)


def test_project_grid_mismatch():
    sp = ss.analytic_spectrum(ND, 1, 200)
    with pytest.raises(GridMismatch):
        ss.project(np.ones(100), sp, 1)


# ---------------------------------------------------------------- properties

@pytest.mark.parametrize("build", [
    lambda: ss.analytic_spectrum(ND, 20, 2000),
    lambda: ss.solve_spectrum(ss.CoefficientPair.constant(1.0, 0.0), DD, 20, 1000),
    lambda: ss.solve_spectrum(variable_coeffs(), ND, 8, 1000),
])
def test_gram_matrix_is_identity(build):
    sp = build()
    gram = (sp.eigenfunctions * sp.weights) @ sp.eigenfunctions.T
    assert np.max(np.abs(gram - np.eye(sp.n_modes))) < 1e-7


def test_energy_identity_truncated_combination():
    coeffs = variable_coeffs()
    sp = ss.solve_spectrum(coeffs, ND, 8, 2000)
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = rng.normal(size=8)
        f = c @ sp.eigenfunctions
        modal = float(np.sum(sp.lambdas * c ** 2))
        df = ss.sturm_liouville.derivative_field(f, sp.h)
        x = sp.grid
        integrand = coeffs.p(x) * df ** 2 + coeffs.q(x) * f ** 2
        quad = float(np.sum(sp.weights * integrand))
        assert abs(modal - quad) <= 1e-5 * modal


def test_trace_growth_constant_coefficients():
    coeffs = ss.CoefficientPair.constant(1.0, 0.0)
    nd = ss.solve_spectrum(coeffs, ND, 20, 1000)
    assert np.ptp(nd.trace0) / np.mean(nd.trace0) < 1e-4
    dd = ss.solve_spectrum(coeffs, DD, 20, 1000)
    ratios = dd.dtrace0 / np.sqrt(dd.lambdas)
    assert np.ptp(ratios) / np.mean(ratios) < 1e-4


def test_energy_identity_analytic_combination():
    sp = ss.analytic_spectrum(ND, 12, 2000)
    rng = np.random.default_rng(3)
    c = rng.normal(size=12)
    f = c @ sp.eigenfunctions
    modal = float(np.sum(sp.lambdas * c ** 2))
    df = ss.sturm_liouville.derivative_field(f, sp.h)
    quad = float(np.sum(sp.weights * df ** 2))
    assert abs(modal - quad) <= 1e-5 * modal


# ---------------------------------------------------------------- errors

def test_resolution_too_coarse():
    with pytest.raises(ResolutionTooCoarse):
        ss.solve_spectrum(ss.CoefficientPair.constant(1.0, 0.0), ND, 10, 200)


def test_odd_grid_rejected():
    with pytest.raises(ValueError):
        ss.solve_spectrum(ss.CoefficientPair.constant(1.0, 0.0), ND, 1, 41)


def test_non_positive_diffusion_detected_at_staggered_points():
    # positive at the multiples of 1/2000 checked on construction, negative
    # at the staggered midpoints the solver actually samples
    coeffs = ss.CoefficientPair(
        p=lambda x: 0.001 - np.sin(2000 * np.pi * np.asarray(x, dtype=float)),
        q=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p_star=1e-4, p_sup=1.1, q_sup=0.0,
    )
    with pytest.raises(NonPositiveDiffusion):
        ss.solve_spectrum(coeffs, ND, 1, 80)


def test_coefficient_pair_validation():
    with pytest.raises(ValueError):
        ss.CoefficientPair(p=lambda x: -np.ones_like(np.asarray(x, float)),
                           q=lambda x: np.zeros_like(np.asarray(x, float)),
                           p_star=1.0, p_sup=1.0, q_sup=0.0)
    with pytest.raises(ValueError):
        ss.CoefficientPair(p=lambda x: np.ones_like(np.asarray(x, float)),
                           q=lambda x: np.zeros_like(np.asarray(x, float)),
                           p_star=-1.0, p_sup=1.0, q_sup=0.0)


def test_spectrum_immutable():
    sp = ss.analytic_spectrum(ND, 2, 200)
    with pytest.raises(ValueError):
        sp.lambdas[0] = 99.0


def _dense_pinned_eigenvalues(coeffs, G, k):
    # independent route: dense symmetric eigensolve of the same flux-form
    # discretization on the pinned-at-both-ends domain
    h = 1.0 / G
    x = np.linspace(0.0, 1.0, G + 1)
    pmid = coeffs.p(x[:-1] + h / 2)
    qv = coeffs.q(x)
    d = (pmid[:-1] + pmid[1:]) / h ** 2 + qv[1:-1]
    e = -pmid[1:-1] / h ** 2
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.sort(np.linalg.eigvalsh(dense))[:k]


def test_solver_matches_dense_eigensolver_route():
    coeffs = variable_coeffs()
    lam_pkg = ss.solve_spectrum(coeffs, DD, 6, 400).lambdas
    coarse = _dense_pinned_eigenvalues(coeffs, 400, 6)
    fine = _dense_pinned_eigenvalues(coeffs, 800, 6)
    lam_dense = (4.0 * fine - coarse) / 3.0
    assert np.allclose(lam_pkg, lam_dense, rtol=1e-10)


# ---------------------------------------------------------------- fine-grid eigenpairs

def _flux_form_tridiagonal(coeffs, bspec, G):
    # the flux-form matrix as the module builds it: pinned at both ends, or
    # flat at 0 with node 0 rescaled by 1/sqrt(2) to keep it symmetric
    h = 1.0 / G
    x = np.linspace(0.0, 1.0, G + 1)
    pmid = coeffs.p(x[:-1] + h / 2)
    qv = coeffs.q(x)
    if bspec.neumann_at_0:
        d = np.concatenate([[2 * pmid[0] / h ** 2 + qv[0]],
                            (pmid[:-1] + pmid[1:]) / h ** 2 + qv[1:-1]])
        e = -pmid[:-1] / h ** 2
        e[0] *= SQ2
    else:
        d = (pmid[:-1] + pmid[1:]) / h ** 2 + qv[1:-1]
        e = -pmid[1:-1] / h ** 2
    return d, e


@pytest.mark.parametrize("bspec", [ND, DD])
def test_fine_grid_eigenpairs_match_eigh_tridiagonal(bspec):
    # 60 modes on 4000 intervals: every wanted eigenvalue lies within stein's
    # cluster threshold of its neighbours, the case eigh_tridiagonal handles
    # by Gram-Schmidt inside stein
    m = 60
    d, e = _flux_form_tridiagonal(variable_coeffs(), bspec, 4000)
    lam_ref, V_ref = eigh_tridiagonal(d, e, select="i", select_range=(0, m - 1))
    phi = np.zeros((m, d.size + 2))
    with ThreadPoolExecutor(max_workers=1) as pool:
        lam = ss.sturm_liouville._eigenpairs(d, e, m, phi, 1, pool)
    assert np.array_equal(lam, lam_ref)
    assert not np.any(phi[:, 0]) and not np.any(phi[:, -1])
    V = phi[:, 1:-1].T
    signs = np.sign(np.sum(V * V_ref, axis=0))
    assert np.max(np.abs(V * signs - V_ref)) <= 1e-10
    assert np.max(np.abs(V.T @ V - np.eye(m))) <= 1e-13
    TV = d[:, None] * V
    TV[:-1] += e[:, None] * V[1:]
    TV[1:] += e[:, None] * V[:-1]
    norm1 = np.max(np.abs(d) + np.concatenate([np.abs(e), [0]]) + np.concatenate([[0], np.abs(e)]))
    assert np.max(np.abs(TV - V * lam)) <= 10 * np.finfo(float).eps * norm1


@pytest.mark.parametrize("bspec", [ND, DD])
def test_richardson_eigenvalues_bit_identical_to_eigh_tridiagonal(bspec):
    coeffs = variable_coeffs()
    sp = ss.solve_spectrum(coeffs, bspec, 50, 2000)
    coarse, fine = (eigh_tridiagonal(*_flux_form_tridiagonal(coeffs, bspec, G),
                                     select="i", select_range=(0, 49), eigvals_only=True)
                    for G in (2000, 4000))
    assert np.array_equal(sp.lambdas, (4.0 * fine - coarse) / 3.0)


def _serial_spectrum(coeffs, bspec, n_modes, grid_size):
    # solve_spectrum's algorithm on one thread, through scipy's f2py stebz
    # and stein: (lambdas, eigenfunctions, trace0, dtrace0)
    coarse = eigh_tridiagonal(*_flux_form_tridiagonal(coeffs, bspec, grid_size), select="i",
                              select_range=(0, n_modes - 1), eigvals_only=True)
    G = 2 * grid_size
    d, e = _flux_form_tridiagonal(coeffs, bspec, G)
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, 1, n_modes, 0.0, "B")
    assert m == n_modes and info == 0
    order = np.argsort(w[:m])
    first = 0 if bspec.neumann_at_0 else 1
    phi = np.zeros((n_modes, G + 1))
    block = np.empty_like(iblock)
    for row, i in enumerate(order):
        block[0] = iblock[i]
        z, info = dstein(d, e, w[i:i + 1], block, isplit)
        assert info == 0
        phi[row, first:first + d.size] = z[:, 0]
    V = phi.T
    R = cholesky(dsyrk(1.0, V, trans=1), overwrite_a=True, check_finite=False)
    dtrsm(1.0, R, V, side=1, overwrite_b=1)
    if bspec.neumann_at_0:
        phi[:, 0] *= SQ2
    h = 1.0 / G
    weights = ss.simpson_weights(G)
    for i in range(n_modes):
        phi[i] /= np.sqrt(np.sum(weights * phi[i] ** 2))
        datum = phi[i, 0] if bspec.neumann_at_0 else ss.sturm_liouville.derivative_at_0(phi[i], h)
        if datum < 0:
            phi[i] = -phi[i]
    dtrace0 = (np.zeros(n_modes) if bspec.neumann_at_0 else
               np.array([ss.sturm_liouville.derivative_at_0(f, h) for f in phi]))
    return (4.0 * w[order] - coarse) / 3.0, phi, phi[:, 0].copy(), dtrace0


def _spectrum_arrays(sp):
    return sp.lambdas, sp.eigenfunctions, sp.trace0, sp.dtrace0


@pytest.mark.parametrize("bspec", [ND, DD])
def test_threaded_spectrum_bit_identical_to_serial_f2py_route(bspec):
    # 60 modes on a 4800-interval fine grid: every eigenvalue sits in one
    # stein cluster, and the two threads' stein calls interleave by mode
    coeffs = variable_coeffs()
    got = _spectrum_arrays(ss.solve_spectrum(coeffs, bspec, 60, 2400))
    for a, b in zip(got, _serial_spectrum(coeffs, bspec, 60, 2400)):
        assert np.array_equal(a, b)


def test_concurrent_solves_match_serial_solves():
    # two solves at once, each with its own worker (four threads on at most
    # two cores, switching often): the LAPACK bindings, built afresh on the
    # first concurrent round, are shared; the workspaces are not
    cases = [(variable_coeffs(), ND, 60, 2400),
             (ss.CoefficientPair.constant(1.3, 0.5), DD, 40, 3200)]
    serial = [_spectrum_arrays(ss.solve_spectrum(*case)) for case in cases]
    start = threading.Barrier(len(cases), timeout=60)

    def solve(case):
        start.wait()
        return _spectrum_arrays(ss.solve_spectrum(*case))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ss.sturm_liouville._lapack.cache_clear()
        for _ in range(2):
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                concurrent = list(pool.map(solve, cases, timeout=120))
            for got, want in zip(concurrent, serial):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
    finally:
        sys.setswitchinterval(interval)


def _fail_stein_at(monkeypatch, mode, coeffs, bspec, n_modes, grid_size):
    # LAPACK stein reports non-convergence (info = 1) for the fine-grid
    # eigenvalue of `mode`; returns the list of threads that call ran on
    lam = eigh_tridiagonal(*_flux_form_tridiagonal(coeffs, bspec, 2 * grid_size), select="i",
                           select_range=(0, n_modes - 1), eigvals_only=True)
    lapack = ss.sturm_liouville._lapack
    threads = []

    def dstein(*args):  # args are addresses: w is the 5th, info the last
        lapack("dstein")(*args)
        if ctypes.c_double.from_address(args[4]).value == lam[mode - 1]:
            threads.append(threading.current_thread())
            ctypes.c_int.from_address(args[-1]).value = 1

    monkeypatch.setattr(ss.sturm_liouville, "_lapack",
                        lambda name: dstein if name == "dstein" else lapack(name))
    return threads


def test_stein_failure_names_the_mode(monkeypatch):
    threads = _fail_stein_at(monkeypatch, 3, variable_coeffs(), DD, 5, 400)
    with pytest.raises(LinAlgError, match="mode 3"):
        ss.solve_spectrum(variable_coeffs(), DD, 5, 400)
    assert threads == [threading.current_thread()]


def test_stein_failure_on_the_worker_reaches_the_caller(monkeypatch):
    threads = _fail_stein_at(monkeypatch, 4, variable_coeffs(), ND, 5, 400)
    with pytest.raises(LinAlgError, match="mode 4"):
        ss.solve_spectrum(variable_coeffs(), ND, 5, 400)
    assert len(threads) == 1 and threads[0] is not threading.current_thread()


# ---------------------------------------------------------------- polynomial bounds

def test_polynomial_bounds_are_exact_at_interior_extrema():
    # interior extrema a 4001-point sample misses by 1.9e-9 and 8.2e-9
    a, b = 0.123456789, 0.3141592653
    p = ss.CoefficientPair.from_polynomials([1 + a * a, -2 * a, 1], [0.0])
    assert p.p_star == pytest.approx(1.0, abs=4e-16)
    assert p.p_sup == pytest.approx(1 + (1 - a) ** 2, rel=1e-15)
    q = ss.CoefficientPair.from_polynomials([1.0], [0.5 - b * b, 2 * b, -1])
    assert q.q_sup == pytest.approx(0.5, abs=4e-16)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
@example(coeffs=[0.0, 1.0, -1.0, 1.175494351e-38])  # companion-matrix roots lose x = 1/2
@example(coeffs=[0.0, 1.625, -1.0, 1e-12])
@example(coeffs=[0.0, 0.56, -1.5, 1.0])  # p' > 0 at both ends, two interior extrema
def test_polynomial_range_brackets_dense_samples(coeffs):
    lo, hi = ss.sturm_liouville._polynomial_range(np.asarray(coeffs))
    h = 1.0 / 20000
    values = np.polynomial.polynomial.polyval(np.linspace(0.0, 1.0, 20001), coeffs)
    tol = 1e-12 * max(1.0, np.max(np.abs(values)))
    assert lo <= values.min() + tol and hi >= values.max() - tol
    # attained: a sample lies within h/2 of an interior extremum, where the
    # value differs by at most max|p''| h^2 / 8
    curvature = sum(k * (k - 1) * abs(c) for k, c in enumerate(coeffs))
    assert values.min() - lo <= curvature * h * h / 8 + tol
    assert hi - values.max() <= curvature * h * h / 8 + tol
