import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    # p = 1 + 0.1x, q = x
    return ss.CoefficientPair.from_polynomials([1.0, 0.1], [0.0, 1.0])


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
    # the p = 1 spectrum lies above the band that p = 0.2 admits
    sp = ss.analytic_spectrum(ND, 3, 200)
    with pytest.raises(BoundViolation) as exc:
        ss.validate_bounds(sp, ss.CoefficientPair.constant(0.2))
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


def test_coefficient_pair_validation():
    with pytest.raises(NonPositiveDiffusion):
        ss.CoefficientPair.from_polynomials([-1.0], [0.0])
    with pytest.raises(ValueError):
        ss.CoefficientPair.from_polynomials([1.0], [-1.0])
    with pytest.raises(ValueError):
        ss.CoefficientPair.from_polynomials([1.0, np.inf], [0.0])


def test_non_positive_diffusion_at_an_interior_minimum():
    # p = (x - a)^2 - 1e-9 dips below 0 only between roots 6.3e-5 apart,
    # which fall between the points of a 2001-point sample
    a = 0.123456789
    with pytest.raises(NonPositiveDiffusion) as exc:
        ss.CoefficientPair.from_polynomials([a * a - 1e-9, -2 * a, 1.0], [0.0])
    assert "-1e-09" in str(exc.value)
    # q with a minimum just below 0 inside (0, 1) fails the same exact test
    with pytest.raises(ValueError):
        ss.CoefficientPair.from_polynomials([1.0], [a * a - 1e-9, -2 * a, 1.0])


def test_spectrum_immutable():
    sp = ss.analytic_spectrum(ND, 2, 200)
    with pytest.raises(ValueError):
        sp.lambdas[0] = 99.0


def _dense_pinned_eigenvalues(coeffs, G, k):
    # independent route: dense symmetric eigensolve of the conservative
    # flux-form finite differences on the pinned-at-both-ends domain
    h = 1.0 / G
    x = np.linspace(0.0, 1.0, G + 1)
    pmid = coeffs.p(x[:-1] + h / 2)
    qv = coeffs.q(x)
    d = (pmid[:-1] + pmid[1:]) / h ** 2 + qv[1:-1]
    e = -pmid[1:-1] / h ** 2
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.sort(np.linalg.eigvalsh(dense))[:k]


def test_solver_matches_dense_eigensolver_route():
    # Richardson over 400/800 intervals has an h^4 error (3.4e-9 relative on
    # lambda_6); the 200/400 pair has 16 times that, so their difference over
    # 15 estimates it.  The dense eigensolve adds rounding of eps |T|, with
    # |T| <= 4 p_sup / h^2 on the 800-interval grid.
    coeffs = variable_coeffs()
    lam_pkg = ss.solve_spectrum(coeffs, DD, 6, 400).lambdas
    dense = {G: _dense_pinned_eigenvalues(coeffs, G, 6) for G in (200, 400, 800)}
    lam_dense = (4.0 * dense[800] - dense[400]) / 3.0
    fd_error = np.abs((4.0 * dense[400] - dense[200]) / 3.0 - lam_dense) / 15.0
    rounding = 4.0 * np.finfo(float).eps * 4.0 * 1.1 * 800 ** 2
    assert np.all(np.abs(lam_pkg - lam_dense) <= 2.0 * fd_error + rounding)


# ---------------------------------------------------------------- Galerkin solve

VARCOEF = ss.CoefficientPair.from_polynomials([1.0, 0.5], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("bspec", [ND, DD])
def test_eigenvalues_converged_in_the_basis_size(bspec):
    # 201 modes, the varcoef-fine case: a quarter more basis functions moves
    # no eigenvalue by more than 1e-10 relative
    M = ss.sturm_liouville.galerkin_order(201)
    lam = ss.sturm_liouville._galerkin(VARCOEF, bspec, 201, M)[0]
    more = ss.sturm_liouville._galerkin(VARCOEF, bspec, 201, round(1.25 * M))[0]
    assert np.max(np.abs(more - lam) / lam) <= 1e-10


@pytest.mark.parametrize("bspec", [ND, DD])
def test_eigenvalues_never_increase_with_the_basis_size(bspec):
    # the Shen spaces are nested, so each Ritz value is an upper bound that a
    # larger basis can only bring down; rounding moves converged ones by ~1e-14
    galerkin = ss.sturm_liouville._galerkin
    lam = [galerkin(VARCOEF, bspec, 12, M)[0] for M in range(12, 64)]
    for smaller, larger in zip(lam, lam[1:]):
        assert np.all(larger <= smaller * (1.0 + 1e-12))
    assert lam[0][-1] > 2.0 * lam[-1][-1]  # the range covers unconverged bases too


@pytest.mark.parametrize("bspec", [ND, DD])
def test_constant_coefficients_match_the_closed_form(bspec):
    # p = 1.3, q = 0.5: the eigenfunctions of p = 1, q = 0, lambda = 1.3 k^2 + 0.5
    num = ss.solve_spectrum(ss.CoefficientPair.constant(1.3, 0.5), bspec, 10, 2000)
    ana = ss.analytic_spectrum(bspec, 10, 4000)
    exact = 1.3 * ana.lambdas + 0.5
    assert np.max(np.abs(num.lambdas - exact) / exact) <= 1e-13
    assert np.max(np.abs(num.trace0 - ana.trace0)) <= 1e-13 * SQ2
    scale = np.maximum(ana.dtrace0, 1.0)
    assert np.max(np.abs(num.dtrace0 - ana.dtrace0) / scale) <= 1e-13


#: lambda_1, lambda_3, lambda_51 and lambda_201 of p = 1 + x/2, q = x^2 with
#: f'(0) = f(1) = 0 from flux-form finite differences, Richardson-extrapolated
#: over 8040 and 16080 intervals
FD_VARCOEF = {1: 3.4319394286759284, 3: 76.89997357313712,
              51: 31145.19515424206, 201: 490941.1555376376}


def test_varcoef_eigenvalues_agree_with_finite_differences():
    # within the finite-difference error: 2.8e-8 relative on lambda_1 and
    # 2.5e-8 on lambda_201 measured against converged Galerkin values
    lam = ss.solve_spectrum(VARCOEF, ND, 201, 8040).lambdas
    for n, fd in FD_VARCOEF.items():
        assert abs(lam[n - 1] - fd) <= 5e-8 * fd


def _spectrum_arrays(sp):
    return sp.lambdas, sp.eigenfunctions, sp.trace0, sp.dtrace0


def test_concurrent_solves_match_serial_solves():
    # two solves at once on two threads that switch often: both share BLAS
    # and LAPACK, and each must give its serial result bit for bit
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
        for _ in range(2):
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                concurrent = list(pool.map(solve, cases, timeout=120))
            for got, want in zip(concurrent, serial):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------- polynomial bounds

def test_polynomial_bounds_are_exact_at_interior_extrema():
    # interior extrema a 4001-point sample misses by 1.9e-9 and 8.2e-9
    a, b = 0.123456789, 0.3141592653
    p = ss.CoefficientPair.from_polynomials([1 + a * a, -2 * a, 1], [0.0])
    assert p.p_star == pytest.approx(1.0, abs=4e-16)
    assert p.p_sup == pytest.approx(1 + (1 - a) ** 2, rel=1e-15)
    q = ss.CoefficientPair.from_polynomials([1.0], [0.5 - b * b, 2 * b, -1])
    assert q.q_sup == pytest.approx(0.5, abs=4e-16)


@settings(max_examples=40)
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
