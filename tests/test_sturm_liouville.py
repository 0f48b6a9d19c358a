import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import specstab as ss
from specstab.errors import NonPositiveDiffusion

from conftest import galerkin_gvx, mode_slopes, shen_basis, shen_pencil, validate_bounds

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
    assert sp.datum0[0] == pytest.approx(SQ2, rel=1e-14)  # phi_1(0)


def test_analytic_dirichlet_dirichlet_mode1():
    sp = ss.analytic_spectrum(DD, 1, 200)
    assert sp.lambdas[0] == pytest.approx(np.pi ** 2, rel=1e-14)
    assert sp.datum0[0] == pytest.approx(SQ2 * np.pi, rel=1e-14)  # phi_1'(0)


def test_analytic_neumann_dirichlet_mode2():
    sp = ss.analytic_spectrum(ND, 2, 200)
    assert sp.lambdas[1] == pytest.approx((1.5 * np.pi) ** 2, rel=1e-14)


def test_analytic_norms_unit_under_quadrature():
    sp = ss.analytic_spectrum(ND, 50, 2000)
    x, w = sp.quadrature(0)
    norms = sp.phi(x) ** 2 @ w
    assert np.max(np.abs(norms - 1.0)) < 1e-13


@pytest.mark.parametrize("m", [436, 442])  # varcoef-fine's rule has 442 nodes
def test_gauss_rule_is_exact_near_the_ends(m):
    # x^(2m-1) lives at x = 1 and L_{m/2}^2 peaks at both ends, where the
    # weights are smallest; each integral is exact for an m-point rule
    x, w, _ = ss.sturm_liouville._gauss(m)
    assert abs(w @ x ** (2 * m - 1) * (2 * m) - 1.0) <= 1e-13
    legendre = np.polynomial.legendre.legval(2.0 * x - 1.0, np.eye(m // 2 + 1)[-1])
    assert abs(w @ legendre ** 2 * (m + 1) - 1.0) <= 1e-13


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
    rel = np.abs(num.datum0 - exact) / exact
    assert np.max(rel) < 1e-4
    num_nd = ss.solve_spectrum(coeffs, ND, 10, 2000)
    assert np.max(np.abs(num_nd.datum0 - SQ2)) / SQ2 < 1e-4


def test_variable_coefficients_inside_band():
    sp = ss.solve_spectrum(variable_coeffs(), ND, 5, 4000)
    lower, upper = validate_bounds(sp, variable_coeffs())
    assert np.all(lower >= 0)
    assert np.all(upper >= 0)


def test_solver_sign_convention():
    coeffs = ss.CoefficientPair.constant(1.0, 0.0)
    for bspec in (ND, DD):
        assert np.all(ss.solve_spectrum(coeffs, bspec, 8, 1000).datum0 > 0)


# ---------------------------------------------------------------- bounds

def test_bound_margins_constant_mode1():
    sp = ss.analytic_spectrum(ND, 1, 200)
    lower, upper = validate_bounds(sp, ss.CoefficientPair.constant(1.0, 0.0))
    assert lower[0] == pytest.approx(np.pi ** 2 / 4, rel=1e-12)
    assert upper[0] == pytest.approx(np.pi ** 2 - np.pi ** 2 / 4, rel=1e-12)


def test_bound_margins_dirichlet_dirichlet_mode3():
    sp = ss.analytic_spectrum(DD, 3, 200)
    lower, _ = validate_bounds(sp, ss.CoefficientPair.constant(1.0, 0.0))
    assert lower[2] == pytest.approx(9 * np.pi ** 2 - 4 * np.pi ** 2, rel=1e-12)


def test_bound_violation_raises_with_mode_index():
    # the p = 1 spectrum lies above the band that p = 0.2 admits
    sp = ss.analytic_spectrum(ND, 3, 200)
    with pytest.raises(AssertionError, match=r"^mode [1-3]: margins"):
        validate_bounds(sp, ss.CoefficientPair.constant(0.2))


# ---------------------------------------------------------------- projection

def project(f, spectrum, degree):
    """<f, phi_n> for every mode, f a function of x, by the spectrum's rule for
    data of the given degree."""
    x, w = spectrum.quadrature(degree)
    return spectrum.phi(x) @ (w * f(x))


def test_project_orthonormality_of_modes():
    sp = ss.analytic_spectrum(ND, 3, 2000)
    first = lambda x: sp.phi(x, 1)[0]  # noqa: E731
    assert project(first, sp, 0)[0] == pytest.approx(1.0, abs=1e-14)
    assert project(first, sp, 0)[1] == pytest.approx(0.0, abs=1e-14)


def test_project_polynomial_against_quadrature_oracle():
    # oracle: adaptive quadrature of (1+x^2) sqrt2 cos(pi x / 2), frozen
    sp = ss.analytic_spectrum(ND, 1, 2000)
    assert project(lambda x: 1.0 + x ** 2, sp, 2)[0] \
        == pytest.approx(1.0708637138698347, abs=1e-15)


# ---------------------------------------------------------------- properties

@pytest.mark.parametrize("build", [
    lambda: ss.analytic_spectrum(ND, 20, 2000),
    lambda: ss.solve_spectrum(ss.CoefficientPair.constant(1.0, 0.0), DD, 20, 1000),
    lambda: ss.solve_spectrum(variable_coeffs(), ND, 8, 1000),
])
def test_gram_matrix_is_identity(build):
    sp = build()
    x, w = sp.quadrature(0)
    phi = sp.phi(x)
    gram = (phi * w) @ phi.T
    assert np.max(np.abs(gram - np.eye(sp.n_modes))) < 1e-13


def test_energy_identity_truncated_combination():
    coeffs = variable_coeffs()
    sp = ss.solve_spectrum(coeffs, ND, 8, 2000)
    x, w = sp.quadrature(1)
    phi, dphi = sp.phi(x), mode_slopes(sp, x)
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = rng.normal(size=8)
        modal = float(np.sum(sp.lambdas * c ** 2))
        integrand = coeffs.p(x) * (c @ dphi) ** 2 + coeffs.q(x) * (c @ phi) ** 2
        assert abs(modal - float(w @ integrand)) <= 1e-12 * modal


def test_trace_growth_constant_coefficients():
    coeffs = ss.CoefficientPair.constant(1.0, 0.0)
    nd = ss.solve_spectrum(coeffs, ND, 20, 1000)
    assert np.ptp(nd.datum0) / np.mean(nd.datum0) < 1e-4
    dd = ss.solve_spectrum(coeffs, DD, 20, 1000)
    ratios = dd.datum0 / np.sqrt(dd.lambdas)
    assert np.ptp(ratios) / np.mean(ratios) < 1e-4


def test_energy_identity_analytic_combination():
    sp = ss.analytic_spectrum(ND, 12, 2000)
    rng = np.random.default_rng(3)
    c = rng.normal(size=12)
    modal = float(np.sum(sp.lambdas * c ** 2))
    x, w = sp.quadrature(0)
    quad = float(w @ (c @ mode_slopes(sp, x)) ** 2)
    assert abs(modal - quad) <= 1e-12 * modal


# ---------------------------------------------------------------- errors


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
    scale = np.maximum(ana.datum0, 1.0)  # sqrt2, or sqrt2 k_n when f(0) = 0
    assert np.max(np.abs(num.datum0 - ana.datum0) / scale) <= 1e-13


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


@pytest.mark.parametrize("bspec", [ND, DD])
def test_varcoef_modes_are_orthonormal_legendre_rows(bspec):
    # the varcoef-fine spectrum (201 modes) keeps 201 rows of Legendre
    # coefficients, not samples; evaluated by numpy's legval and integrated by
    # a Gauss rule of 40 more nodes than the spectrum's own, they are
    # orthonormal to rounding
    sp = ss.solve_spectrum(VARCOEF, bspec, 201, 8040)
    assert sp.eigenfunctions.shape == (201, ss.sturm_liouville.galerkin_order(201) + 2)
    assert sp.eigenfunctions.nbytes <= 1 << 20
    t, w = np.polynomial.legendre.leggauss(sp.eigenfunctions.shape[1] + 40)
    phi = np.polynomial.legendre.legval(t, sp.eigenfunctions.T)
    gram = (phi * (0.5 * w)) @ phi.T
    assert np.max(np.abs(gram - np.eye(201))) <= 1e-13
    # the same rows at the points of the spectrum's grid
    x = sp.grid[::40]
    legval = np.polynomial.legendre.legval(2 * x - 1, sp.eigenfunctions.T)
    assert np.max(np.abs(sp.phi(x) - legval)) <= 1e-13


@pytest.mark.parametrize("bspec", [ND, DD])
def test_solve_matches_the_gvx_reference(bspec):
    # the varcoef-fine case, 201 modes, against bisection and inverse
    # iteration of the same pencil (conftest's galerkin_gvx)
    M = ss.sturm_liouville.galerkin_order(201)
    lam, rows, datum0, values = ss.sturm_liouville._galerkin(VARCOEF, bspec, 201, M)
    ref_lam, ref_rows, ref_datum0 = galerkin_gvx(VARCOEF, bspec, 201, M)
    lam_rel = np.abs(lam - ref_lam) / ref_lam
    assert np.max(lam_rel) <= 1e-10
    # the f(0) = 0 datum reads lambda (the weak-form flux), so there the
    # reference's eigenvalue error moves its datum in proportion.  The
    # closed-form test's 1e-13 holds on the first 50 modes; the higher modes'
    # data are determined only to a few 1e-13 (the gvx route is 7e-13 off
    # the closed form of p = 1.3, q = 0.5 at 201 modes), and the two routes'
    # agreement there moves with the BLAS thread count (6.8e-14 to 1.1e-13)
    slack = 0.0 if bspec.neumann_at_0 else lam_rel
    datum_error = np.abs(datum0 - ref_datum0) / np.maximum(ref_datum0, 1.0) - slack
    assert np.max(datum_error[:50]) <= 1e-13 and np.max(datum_error) <= 1e-12
    # mass Gram by the stored values at the solve's rule, which is exact for it
    x, w, phi, dphi, S, B = shen_pencil(VARCOEF, bspec, M, values.shape[1])
    assert np.max(np.abs((values * w) @ values.T - np.eye(201))) <= 1e-13
    # Ritz residuals of the diagonally scaled pencil the solver sees, with each
    # mode's Shen coefficients recovered from its Legendre row
    s = 1.0 / np.sqrt(np.diag(S))
    S, B = S * np.outer(s, s), B * np.outer(s, s)
    Y = np.linalg.lstsq(shen_basis(bspec, M).T, rows.T, rcond=None)[0].T / s
    residual = np.linalg.norm(Y @ S - lam[:, None] * (Y @ B), axis=1)
    scale = (np.linalg.norm(S, 2) + lam * np.linalg.norm(B, 2)) * np.linalg.norm(Y, axis=1)
    assert np.max(residual / scale) <= M * np.finfo(float).eps


def _stiffness(coeffs, bspec, M, nodes):
    return shen_pencil(coeffs, bspec, M, nodes)[4]


def test_rule_size_follows_the_trimmed_coefficient_degrees():
    # p = 1 + x^17/2: M + 8 nodes integrate p phi_j' phi_k' only up to
    # deg p = 15; the solve's rule takes one node more, which matches a rule
    # of 20 more nodes to rounding.  q = x + 0 x^2 counts as degree 1.
    coeffs = ss.CoefficientPair.from_polynomials([1.0] + [0.0] * 16 + [0.5], [0.0, 1.0, 0.0])
    assert coeffs.degrees == (17, 1)
    M = 40
    m = ss.sturm_liouville._rule_size(coeffs, M)
    assert m == M + 9
    assert ss.sturm_liouville._galerkin(coeffs, ND, 4, M)[3].shape == (4, m)
    exact = _stiffness(coeffs, ND, M, m + 20)
    tol = 1e-13 * np.max(np.abs(exact))
    assert np.max(np.abs(_stiffness(coeffs, ND, M, m) - exact)) <= tol
    assert np.max(np.abs(_stiffness(coeffs, ND, M, M + 8) - exact)) > 1e3 * tol
    # degrees within the floor keep M + 8 nodes
    assert ss.sturm_liouville._rule_size(VARCOEF, M) == M + 8


def test_pencil_is_assembled_dense_beyond_its_band(monkeypatch):
    # on the varcoef-fine plant (p = 1 + x/2, q = x^2, 201 modes) S is exactly
    # banded to |j - k| <= 4 and B to 2; the dense products hold rounding
    # there instead of exact zeros, which keeps the pencil's reduction out of
    # subnormal numbers (1.5 times slower on the band alone)
    seen = {}

    def copying(name, fn):
        def wrapper(a, *args, **kwargs):
            seen.setdefault(name, np.array(a))  # cholesky overwrites S
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("cholesky", "dsygst"):
        monkeypatch.setattr(ss.sturm_liouville, name,
                            copying(name, getattr(ss.sturm_liouville, name)))
    ss.solve_spectrum(VARCOEF, ND, 201)  # the bounded measurement's boundary
    for name in ("cholesky", "dsygst"):  # S, then B
        j, k = np.indices(seen[name].shape)
        assert np.any(seen[name][np.abs(j - k) > 10] != 0.0), name


@pytest.mark.parametrize("bspec", [ND, DD])
@pytest.mark.parametrize("n_modes", [10, 20, 50, 201])
def test_galerkin_bytes_hold_the_traced_peak(bspec, n_modes):
    # the memory check's count of the solve holds tracemalloc's peak at every
    # size; six arrays of side M fell short below M = 400 (0.124 MiB counted
    # against 0.147 MiB traced at 10 modes)
    import tracemalloc
    ss.solve_spectrum(VARCOEF, bspec, n_modes)  # the Gauss rule's cache, outside the trace
    tracemalloc.start()
    try:
        ss.solve_spectrum(VARCOEF, bspec, n_modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ss.sturm_liouville.galerkin_bytes(VARCOEF, n_modes)


@pytest.mark.parametrize("bspec", [ND, DD])
def test_projections_read_the_solve_table(bspec):
    sp = ss.solve_spectrum(VARCOEF, bspec, 201, 8040)
    m = sp.node_values.shape[1]
    assert m == ss.sturm_liouville._rule_size(VARCOEF, sp.eigenfunctions.shape[1] - 2)
    coefficients = sp.eigenfunctions.shape[1]
    # every degree up to 13 keeps the solve's rule and its stored values,
    # which match the Legendre rows evaluated there to rounding
    for degree in (0, 4, 13):
        x, w, modes = sp.projection(degree, 50)
        assert x is ss.sturm_liouville._gauss(m)[0] and np.shares_memory(modes, sp.node_values)
        assert x is sp.quadrature(degree)[0]
        data = w * (1.0 + x ** degree)
        assert np.max(np.abs(modes @ data - sp.phi(x, 50) @ data)) <= 1e-13
    # beyond the rule's exactness, the rule of coefficients + degree // 2 nodes
    for degree in (14, 30):
        x, w, modes = sp.projection(degree, 50)
        assert x is ss.sturm_liouville._gauss(coefficients + degree // 2)[0]
        assert x is sp.quadrature(degree)[0]
        assert np.array_equal(modes, sp.phi(x, 50))


def _spectrum_arrays(sp):
    return sp.lambdas, sp.eigenfunctions, sp.datum0


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
