import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

import specstab as ss
from specstab.errors import InsufficientModes, NoFeasibleN, NotHurwitzShifted, OrderTooSmall
from specstab.sdpa import read_sdpa

from conftest import (constructive_certificate, decide_order, dense_G, dense_lyapunov,
                      exact_search, per_order_lyapunov, per_order_norm_sweep, theta1,
                      verified_free_p_certificate)


def zero_gains(N0):
    return ss.GainSet(K=np.zeros(N0 + 1), L=np.zeros(N0),
                      controller_poles=(0.0,) * (N0 + 1), observer_poles=(0.0,) * N0)


# ---------------------------------------------------------------- lyapunov_solve

def uncoupled(core, tail, N0):
    """A closed loop whose couplings vanish: F = diag(core, tail, tail) over
    X's blocks c, i3 and i4, with core (2 N0 + 1)-square and N = N0 + len(tail)."""
    m, n = 2 * N0 + 1, len(tail)
    return ss.ClosedLoopMatrices(N=N0 + n, N0=N0, Fc=np.array(core, dtype=float),
                                 d=np.array(tail, dtype=float), u=np.zeros(m), v=np.zeros(n),
                                 F3c=np.zeros((n, m)), Gc=np.zeros((m, m)))


def kronecker_lyapunov(F, delta):
    """Reference: the vectorized solve of (I x A' + A' x I) vec(P) = -vec(I)."""
    n = F.shape[0]
    A = F + delta * np.eye(n)
    eye = np.eye(n)
    M = np.kron(eye, A.T) + np.kron(A.T, eye)
    return np.linalg.solve(M, -eye.reshape(-1)).reshape(n, n)


def test_lyapunov_identity_case():
    model = uncoupled(-np.eye(3), [-1.0], N0=1)
    P = ss.lyapunov_solve(model, 0.0)
    assert np.allclose(P, 0.5 * np.eye(5), atol=1e-12)


def test_lyapunov_diagonal_case():
    model = uncoupled(np.diag([-2.0, -3.0, -2.0]), [-3.0], N0=1)
    P = ss.lyapunov_solve(model, 0.5)
    assert np.allclose(P, np.diag([1 / 3, 1 / 5, 1 / 3, 1 / 5, 1 / 5]), atol=1e-12)


def test_lyapunov_residual_small(dirichlet_pipeline):
    model = ss.assemble_closed_loop(dirichlet_pipeline.reduced, dirichlet_pipeline.gains, 3)
    P = ss.lyapunov_solve(model, 0.5)
    n = model.dim
    residual = model.F.T @ P + P @ model.F + 2 * 0.5 * P + np.eye(n)
    assert np.max(np.abs(residual)) < 1e-9
    assert np.linalg.eigvalsh(P)[0] > 0


def test_lyapunov_matches_kronecker_reference(dirichlet_pipeline, neumann_pipeline,
                                              bounded_pipeline):
    # every measurement kind, at the smallest order and two larger ones; the
    # Kronecker system has n^4 entries, so N = 40 (n = 81) takes the dense
    # Bartels-Stewart solve of the full F as its reference
    for pipe in (dirichlet_pipeline, neumann_pipeline, bounded_pipeline):
        red = pipe.reduced
        for N in (red.N0 + 1, 10, 40):
            model = ss.assemble_closed_loop(red, pipe.gains, N)
            reference = kronecker_lyapunov if N <= 10 else dense_lyapunov
            P_ref = reference(model.F, red.delta)
            P = ss.lyapunov_solve(model, red.delta)
            assert np.linalg.norm(P - P_ref) <= 1e-12 * np.linalg.norm(P_ref), \
                (red.plant.measurement.kind, N)


@pytest.fixture(scope="module")
def left_trace_q10_201():
    """Left trace at q_c = 10 on a 201-mode reduction, and its gains."""
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=ss.MeasurementSpec.dirichlet(), delta=0.5)
    red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 202, 2000), 201)
    return red, ss.design_gains(red)


def test_lyapunov_matches_dense_reference_at_large_order(left_trace_q10_201):
    # left trace at q_c = 10, N = 200: |P| is about 1e4 and the full F is 401-square
    red, gains = left_trace_q10_201
    model = ss.assemble_closed_loop(red, gains, 200)
    P_ref = dense_lyapunov(model.F, red.delta)
    P = ss.lyapunov_solve(model, red.delta)
    assert np.linalg.norm(P - P_ref) <= 1e-12 * np.linalg.norm(P_ref)
    assert np.array_equal(P, P.T)


def test_lyapunov_not_hurwitz_shifted(dirichlet_pipeline):
    model = ss.assemble_closed_loop(dirichlet_pipeline.reduced, dirichlet_pipeline.gains, 3)
    with pytest.raises(NotHurwitzShifted):
        ss.lyapunov_solve(model, 5.0)


def test_lyapunov_backward_error_accepts_a_large_well_solved_p():
    # left trace at q_c = 20: |P| is about 4e7, so the residual of a
    # backward-stable solve reaches 1e-8 in absolute terms
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=20.0,
                         measurement=ss.MeasurementSpec.dirichlet(), delta=0.5)
    norms = ss.lyapunov_norm_sweep(plant, ss.analytic_spectrum(plant.boundary, 51))
    assert norms.shape == (11,) and np.all(np.isfinite(norms)) and np.all(norms > 0)


def test_lyapunov_backward_error_rejects_a_wrong_p(dirichlet_pipeline, monkeypatch):
    # the core block of P off by 1e-6 relative leaves a residual of about 1e-6
    # there, far above the bound, although every later block solves exactly
    # against it
    model = ss.assemble_closed_loop(dirichlet_pipeline.reduced, dirichlet_pipeline.gains, 3)
    trsyl = ss.certificate.trsyl

    def perturbed(*args, **kwargs):
        Y, scale, info = trsyl(*args, **kwargs)
        return Y * (1.0 + 1e-6), scale, info

    monkeypatch.setattr(ss.certificate, "trsyl", perturbed)
    with pytest.raises(NotHurwitzShifted, match="backward-error bound"):
        ss.lyapunov_solve(model, 0.5)
    # the sweep checks each order's residual as well
    with pytest.raises(NotHurwitzShifted, match="backward-error bound"):
        ss.lyapunov_norm_sweep(dirichlet_pipeline.plant, dirichlet_pipeline.spectrum, (2, 3))


@pytest.mark.parametrize("N", [2, 10, 40, 200])
def test_lyapunov_solve_equals_the_per_order_route(left_trace_q10_201, N):
    # bit for bit the block solve with its own Schur form and blocks at N
    red, gains = left_trace_q10_201
    model = ss.assemble_closed_loop(red, gains, N)
    assert ss.lyapunov_solve(model, red.delta).tobytes() == \
        per_order_lyapunov(model, red.delta).tobytes()


def test_sweep_solve_equals_the_solve_of_the_assembled_order(left_trace_q10_201):
    # order N read from the first rows of the model at 200 is the solve at N,
    # at 1 and 3 rows too, where BLAS and numpy take other kernels
    red, gains = left_trace_q10_201
    solve = ss.certificate._lyapunov_solver(ss.assemble_closed_loop(red, gains, 200), red.delta)
    for N in (2, 3, 4, 10, 40, 199):
        model = ss.assemble_closed_loop(red, gains, N)
        assert solve(N).tobytes() == ss.lyapunov_solve(model, red.delta).tobytes(), N


@pytest.mark.parametrize("n", [21, 65, 109, 169, 401])
def test_largest_eigenvalue_has_the_bits_of_eigvalsh(n):
    # at 65, 109 and 169, dsyevr with f2py's default workspace differs from
    # eigvalsh in the last bits: the workspace must be the one eigvalsh queries
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n))
    P = X @ X.T + np.diag(rng.uniform(0.0, 1e4, n))
    expected = scipy.linalg.eigvalsh(P, subset_by_index=[n - 1, n - 1], check_finite=False)
    assert ss._linalg.largest_eigenvalue(P).tobytes() == expected.tobytes()


def test_largest_eigenvalue_raises_when_lapack_fails(monkeypatch):
    monkeypatch.setattr(ss._linalg, "dsyevr",
                        lambda a, **kwargs: (np.zeros(a.shape[0]), None, 0, None, 2))
    with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
        ss._linalg.largest_eigenvalue(np.eye(3))


@pytest.mark.parametrize("stage", ["lyapunov_solve", "free_p_certificate"])
def test_large_order_touches_no_dense_matrix_beyond_the_core(stage, monkeypatch):
    # left trace at q_c = 10 on an 801-mode reduction, N = 200: every dense
    # eigenvalue, Schur, Sylvester, Lyapunov or Riccati routine sees at most
    # the m = 2 N0 + 1 core; the Hamiltonian of the m-state core in
    # _hinf_norm_sq is 2m-square
    import scipy.linalg
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=ss.MeasurementSpec.dirichlet(), delta=0.5)
    red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 802, 2000), 801)
    gains = ss.design_gains(red)
    m = 2 * red.N0 + 1
    sizes = []

    def recorded(fn, name):
        def wrapper(a, *args, **kwargs):
            sizes.append((name, np.shape(a)[0]))
            return fn(a, *args, **kwargs)
        return wrapper

    for module in (ss.certificate, ss._linalg, scipy.linalg):
        for name in ("eigvals", "schur", "trsyl", "solve_continuous_lyapunov",
                     "solve_continuous_are"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded(getattr(module, name), name))
    if stage == "lyapunov_solve":
        ss.lyapunov_solve(ss.assemble_closed_loop(red, gains, 200), red.delta)
        assert sizes and all(size <= m for _, size in sizes), sizes
    else:
        cert, record = decide_order(red, gains, 200)
        assert cert is None and record["margin"] > 0
        assert sizes and all(size <= (2 * m if name == "eigvals" else m)
                             for name, size in sizes), sizes


# ---------------------------------------------------------------- verify_certificate

def test_verify_limit_structure_small_beta_gamma(dirichlet_pipeline):
    # with P from the Lyapunov equation the top-left block is -I + alpha*gamma*G,
    # so its largest eigenvalue tends to -1 as gamma -> 0; the Theta2 sign then
    # hinges entirely on the beta/gamma balance against the tail term
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 3)
    P = ss.lyapunov_solve(model, red.delta)
    alpha, gamma = 2.0, 1e-9
    top = theta1(model, red, P, alpha, 0.0, gamma)[:-1, :-1]
    g = red.a_norm2 + red.b_norm2 * float(gains.K @ gains.K)  # |G| <= g
    assert np.linalg.eigvalsh(top)[-1] <= -1.0 + alpha * gamma * g + 1e-9
    # beta large relative to gamma: the tail term flips Theta2 positive
    c_lo = ss.verify_certificate(model, red, P, alpha, beta=1e-8, gamma=gamma)
    c_hi = ss.verify_certificate(model, red, P, alpha, beta=1.0, gamma=gamma)
    assert c_lo.theta2 < 0 < c_hi.theta2


def test_verify_rejects_theta1_at_its_crossing(dirichlet_pipeline):
    # lower beta of the N = 6 certificate to the Schur-complement value where
    # max eig Theta1 crosses 0: the eigenvalue is 0 up to rounding (either
    # sign), Theta2 only improves, and the point must not count as verified
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 6)
    cert = constructive_certificate(model, red, 2.0)
    assert cert.feasible
    n = model.dim
    S = theta1(model, red, cert.P, cert.alpha, cert.beta, cert.gamma)[:n, :n]
    v = cert.P @ model.Lcal
    beta_cross = float(v @ np.linalg.solve(-S, v))
    assert beta_cross == pytest.approx(43.0774, rel=1e-5)
    crossing = ss.verify_certificate(model, red, cert.P, cert.alpha, beta_cross, cert.gamma)
    assert abs(crossing.theta1_max_eig) < 1e-12 * n
    assert crossing.theta2 < cert.theta2 < 0
    assert not crossing.feasible


def test_verify_dimension_mismatch(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 3)
    with pytest.raises(ss.certificate.DimensionMismatch):
        ss.verify_certificate(model, red, np.eye(5), 2.0, 1.0, 1.0)


def test_verify_free_p_dirichlet_reference_order(dirichlet_pipeline):
    # the reference example is certified at N = 3 by the free-P LMI; the
    # computed P re-verifies through the package's own checks
    cert = verified_free_p_certificate(dirichlet_pipeline, 3)
    assert cert.N == 3
    assert cert.theta1_max_eig <= 0
    assert cert.theta2 <= 0
    assert cert.p_min_eig > 0
    assert math.isinf(cert.theta3)


def test_verify_free_p_neumann_reference_order(neumann_pipeline):
    cert = verified_free_p_certificate(neumann_pipeline, 2)
    assert cert.N == 2
    assert cert.theta1_max_eig <= 0
    assert cert.theta2 <= 0
    assert cert.theta3 >= 0
    assert cert.p_min_eig > 0


# ---------------------------------------------------------------- constructive reference

def test_search_dirichlet_feasible_at_eight(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 8)
    cert = constructive_certificate(model, red, 2.0)
    assert cert.feasible
    # self-certifying: an independent re-verification reproduces the verdict
    again = ss.verify_certificate(model, red, cert.P, cert.alpha, cert.beta,
                                  cert.gamma, cert.eps)
    assert again.feasible
    assert again.theta1_max_eig == pytest.approx(cert.theta1_max_eig, abs=1e-12)


def test_search_at_n0_plus_one_reports_margins(dirichlet_pipeline):
    # no feasibility claim exists at N = N0+1 = 2; the search reports margins
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 2)
    cert = constructive_certificate(model, red, 2.0)
    assert not cert.feasible
    assert math.isfinite(cert.theta1_max_eig)
    assert math.isfinite(cert.theta2)


def test_search_propagates_not_hurwitz(dirichlet_pipeline):
    red = dirichlet_pipeline.reduced
    with pytest.raises(NotHurwitzShifted):
        ss.minimal_N(red, zero_gains(red.N0), N_max=3)


def _optimal_alpha_cases(pipelines):
    # the three fixtures, and the left flux with q_c + delta <= 0, where
    # Theta3 binds instead of Theta2
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=-1.0,
                         measurement=ss.MeasurementSpec.neumann(), delta=0.5)
    red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 12, 2000), 10)
    return [(p.reduced, p.gains) for p in pipelines] + [(red, ss.design_gains(red))]


def test_optimal_alpha_maximises_slope_ratio(dirichlet_pipeline, neumann_pipeline,
                                             bounded_pipeline):
    alphas = np.linspace(1.0 + 1e-4, 20.0, 5001)
    step = alphas[1] - alphas[0]
    for red, gains in _optimal_alpha_cases(
            (dirichlet_pipeline, neumann_pipeline, bounded_pipeline)):
        for N in range(2, 11):
            alpha = ss.optimal_alpha(red, N)
            ratio = np.array([ss.certificate._beta_slope(red, N, a) for a in alphas]) / alphas
            best = ss.certificate._beta_slope(red, N, alpha) / alpha
            assert abs(alpha - alphas[np.argmax(ratio)]) <= step
            assert best >= ratio.max() - 1e-12 * abs(ratio.max())
    assert ss.optimal_alpha(red, 10) == 2.0  # the q_c + delta <= 0 left flux


def test_optimal_alpha_rejects_no_maximiser():
    # lambda_(N+1) + q_c + delta <= 0: k/alpha grows towards alpha = 1
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=-100.0,
                         measurement=ss.MeasurementSpec.dirichlet(), delta=0.5)
    red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 12, 2000), 10)
    with pytest.raises(ValueError, match="lambda_\\(N\\+1\\) \\+ q_c \\+ delta"):
        ss.optimal_alpha(red, 2)


@settings(max_examples=30)
@given(which=st.integers(0, 2), N=st.integers(2, 8),
       alpha=st.floats(1.0, 20.0, exclude_min=True))
@example(which=0, N=6, alpha=1.5)
@example(which=0, N=5, alpha=2.0)
@example(which=1, N=2, alpha=1.1)
def test_optimal_alpha_dominates_every_alpha(
        dirichlet_pipeline, neumann_pipeline, bounded_pipeline, which, N, alpha):
    pipe = (dirichlet_pipeline, neumann_pipeline, bounded_pipeline)[which]
    red = pipe.reduced
    model = ss.assemble_closed_loop(red, pipe.gains, N)
    P = ss.lyapunov_solve(model, red.delta)
    star = ss.optimal_alpha(red, N)
    cert, margin = exact_search(model, red, P, alpha)
    cert_star, margin_star = exact_search(model, red, P, star)
    # equal up to rounding where alpha is alpha* itself
    assert margin_star <= margin + 1e-12 * max(1.0, abs(margin))
    assert cert_star.feasible or not cert.feasible
    # free P too: its LMI is decided by alpha h^2 / k, which alpha* minimises
    free_star, free_margin_star = ss.free_p_certificate(model, red, star)
    free, free_margin = ss.free_p_certificate(model, red, alpha)
    assert free_margin_star <= free_margin + 1e-12 * max(1.0, abs(free_margin))
    assert free_star is not None or free is None


def _scan_finds_feasible(model, red, alpha):
    """Dense (beta, gamma) scan with the Lyapunov P: strict signs, full Theta1 spectrum."""
    P = ss.lyapunov_solve(model, red.delta)
    n = model.dim
    # Theta1's top-left block -I + alpha gamma G must stay negative definite
    G = dense_G(model)
    gamma_max = 1.0 / (alpha * np.linalg.eigvalsh(G)[-1])
    gamma, beta = (a.ravel() for a in np.meshgrid(gamma_max * np.logspace(-4, -1e-4, 40),
                                                  np.logspace(-1, 4, 80)))
    T1 = np.zeros((gamma.size, n + 1, n + 1))
    T1[:, :n, :n] = model.F.T @ P + P @ model.F + 2 * red.delta * P
    T1[:, :n, :n] += alpha * gamma[:, None, None] * G
    T1[:, :n, n] = T1[:, n, :n] = P @ model.Lcal
    T1[:, n, n] = -beta
    theta2, theta3 = ss.certificate._theta_scalars(red, model.N, alpha, beta, gamma)
    feasible = (np.linalg.eigvalsh(T1)[:, -1] < 0) & (theta2 < 0) & (theta3 > 0)
    return bool(feasible.any())


@settings(max_examples=30)
@given(which=st.integers(0, 2), N=st.integers(2, 8),
       alpha=st.floats(1.0, 20.0, exclude_min=True))
# near the ends of the certified alpha ranges, where the margins are small
@example(which=0, N=6, alpha=1.5)
@example(which=0, N=6, alpha=3.5)
@example(which=2, N=3, alpha=12.0)
def test_exact_search_never_misses_a_scanned_certificate(
        dirichlet_pipeline, neumann_pipeline, bounded_pipeline, which, N, alpha):
    pipe = (dirichlet_pipeline, neumann_pipeline, bounded_pipeline)[which]
    red = pipe.reduced
    model = ss.assemble_closed_loop(red, pipe.gains, N)
    cert = constructive_certificate(model, red, alpha)
    if not cert.feasible:
        assert not _scan_finds_feasible(model, red, alpha)


@settings(max_examples=30)
@given(which=st.integers(0, 2), N=st.integers(2, 6),
       alpha=st.floats(1.0, 20.0, exclude_min=True))
# constructive certificates near the ends of their alpha ranges
@example(which=0, N=6, alpha=1.5)
@example(which=0, N=6, alpha=3.5)
@example(which=2, N=3, alpha=12.0)
def test_free_p_never_misses_a_constructive_certificate(
        dirichlet_pipeline, neumann_pipeline, bounded_pipeline, which, N, alpha):
    # the Lyapunov P is a feasible point of the free-P LMI, so the free-P
    # solve must certify wherever the constructive search does
    pipe = (dirichlet_pipeline, neumann_pipeline, bounded_pipeline)[which]
    red = pipe.reduced
    model = ss.assemble_closed_loop(red, pipe.gains, N)
    if constructive_certificate(model, red, alpha).feasible:
        cert, margin = ss.free_p_certificate(model, red, alpha)
        assert cert is not None and margin < 0


def test_hinf_norm_of_a_resonant_system():
    # 1/(s^2 + 2 zeta w0 s + w0^2) peaks at w0 sqrt(1 - 2 zeta^2), away from
    # every trial frequency, with squared gain 1/(4 zeta^2 w0^4 (1 - zeta^2))
    w0, zeta = 3.0, 0.05
    A = np.array([[0.0, 1.0], [-w0 ** 2, -2.0 * zeta * w0]])
    h2 = ss.certificate._hinf_norm_sq(A, np.diag([1.0, 0.0]), np.array([0.0, 1.0]))
    exact = 1.0 / (4.0 * zeta ** 2 * w0 ** 4 * (1.0 - zeta ** 2))
    assert exact <= h2 <= exact * (1.0 + 1e-9)


def test_hinf_norm_of_a_zero_input_vector():
    assert ss.certificate._hinf_norm_sq(-np.eye(2), np.eye(2), np.zeros(2)) == 0.0


@settings(max_examples=40)
@given(n=st.integers(1, 6), rank=st.integers(1, 6), shift=st.floats(0.1, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hinf_norm_bounds_the_frequency_response(n, rank, shift, seed):
    # a random Hurwitz A (abscissa -shift), Q = C'C of rank <= n and a random
    # b: h^2 is at least the gain at every frequency of a dense log grid and
    # at 0, and within 1e-8 of the best gain after refining the grid's peak
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M - (np.max(np.linalg.eigvals(M).real) + shift) * np.eye(n)
    C = rng.standard_normal((min(rank, n), n))
    Q, b = C.T @ C, rng.standard_normal(n)
    h2 = ss.certificate._hinf_norm_sq(A, Q, b)

    def gains(w):
        x = np.linalg.solve(1j * np.asarray(w)[:, None, None] * np.eye(n) - A, b)
        return np.einsum("ki,ij,kj->k", x.conj(), Q, x).real

    grid = np.append(0.0, np.logspace(-3, 3, 4001))
    on_grid = gains(grid)
    assert h2 >= np.max(on_grid)
    i = int(np.argmax(on_grid))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    refined = minimize_scalar(lambda w: -gains([w])[0], bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12 * hi})
    assert h2 <= (1.0 + 1e-8) * max(on_grid[i], -refined.fun)
    assert ss.certificate._hinf_norm_sq(A, Q, np.zeros(n)) == 0.0


def _random_gains(reduced, rng):
    """Gains from poles drawn left of -delta."""
    N0, delta = reduced.N0, reduced.delta
    return ss.design_gains(reduced, controller_poles=-delta - rng.uniform(0.1, 8.0, N0 + 1),
                           observer_poles=-delta - rng.uniform(0.1, 8.0, N0))


class _FirstNorm(Exception):
    """Stops free_p_certificate at its first norm, the one it decides on."""


@pytest.mark.parametrize("gains_from", ["default", "random poles"])
@pytest.mark.parametrize("fixture", ["dirichlet_pipeline", "neumann_pipeline",
                                     "bounded_pipeline"])
def test_free_p_takes_h2_from_the_observable_block(request, monkeypatch, fixture, gains_from):
    # the h^2 that free_p_certificate decides on is bitwise the same at every
    # N, and it is the full system's norm: to 1e-13 on the default gains, and
    # on random gains to the 2e-10 by which either value may lie above the
    # attained peak (the full system's iteration stops at another point)
    pipe = request.getfixturevalue(fixture)
    red = pipe.reduced
    rng = np.random.default_rng(len(fixture))
    gains = pipe.gains if gains_from == "default" else _random_gains(red, rng)
    hinf = ss.certificate._hinf_norm_sq

    def first_norm(A, Q, b):
        raise _FirstNorm(hinf(A, Q, b))

    monkeypatch.setattr(ss.certificate, "_hinf_norm_sq", first_norm)
    decided = set()
    for N in range(2, 41):
        model = ss.assemble_closed_loop(red, gains, N)
        alpha = ss.optimal_alpha(red, N)
        assert ss.certificate._beta_slope(red, N, alpha) > 0.0
        with pytest.raises(_FirstNorm) as norm:
            ss.free_p_certificate(model, red, alpha)
        h2 = norm.value.args[0]
        decided.add(h2)
        full = hinf(model.F + red.delta * np.eye(model.dim), dense_G(model), model.Lcal)
        assert abs(h2 - full) <= (1e-13 if gains_from == "default" else 2e-10) * full
    assert len(decided) == 1


@pytest.mark.parametrize("N, margin", [(100, 154.61370680062393), (200, 38.09153373414121)])
def test_dirichlet_margins_at_large_order(N, margin):
    # the left trace at q_c = 10 certifies no order below 1254 under the
    # default poles; its exact margins at N = 100 and 200 are those of the
    # full-system norm, and they do not depend on the reduction size
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=ss.MeasurementSpec.dirichlet(), delta=0.5)
    margins = []
    for n_modes in (202, 802):
        red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, n_modes, 2000), n_modes - 1)
        cert, record = decide_order(red, ss.design_gains(red), N)
        assert cert is None
        margins.append(record["margin"])
    assert margins[0] == pytest.approx(margin, rel=1e-12)
    assert margins[1] == pytest.approx(margins[0], rel=1e-12)


def test_free_p_with_zero_observer_injection_decides_on_k(dirichlet_pipeline):
    # Lcal = 0, as a zero observer gain gives (and with it F's coupling
    # u v' to the scaled errors beyond N0): Theta1 no longer couples to
    # beta, so the LMI is feasible iff k > 0 (F + delta I being Hurwitz)
    red = dirichlet_pipeline.reduced
    model = ss.assemble_closed_loop(red, dirichlet_pipeline.gains, 3)
    model = dataclasses.replace(model, u=np.zeros(model.m))
    assert not model.Lcal.any()
    alpha = ss.optimal_alpha(red, model.N)
    assert ss.certificate._beta_slope(red, model.N, alpha) > 0.0
    cert, margin = ss.free_p_certificate(model, red, alpha)
    assert cert is not None and margin == -1.0  # h = 0
    # alpha close to 1 leaves Theta2 no room: k < 0, and no P, the Lyapunov
    # one included, has a margin
    assert ss.certificate._beta_slope(red, model.N, 1.01) < 0.0
    assert ss.free_p_certificate(model, red, 1.01) == (None, math.inf)
    P = ss.lyapunov_solve(model, red.delta)
    assert exact_search(model, red, P, 1.01)[1] == math.inf


def test_free_p_propagates_not_hurwitz(dirichlet_pipeline):
    red = dirichlet_pipeline.reduced
    model = ss.assemble_closed_loop(red, zero_gains(red.N0), 3)
    with pytest.raises(NotHurwitzShifted):
        ss.free_p_certificate(model, red, 2.0)


def _log_barrier_verdict(model, red, alpha):
    """Reference verdict: a dense log-barrier solve of export_sdpa's LMI.

    Maximises the smallest block margin t subject to F_b(x) - t I >= 0 for
    every block F_b(x) = sum_k x_k F_k of the parsed file (t takes the place
    of its mu offsets), with tr P + beta + gamma = 1 fixing the scale and
    eliminating beta.  Damped Newton steps on -tau t - sum_b log det F_b for
    tau = 1, 10, 100, ... (Vandenberghe & Boyd, SIAM Review 1996) until the
    central-path bound settles t to 1e-3 relative, or to 1e-9 of the largest
    coefficient when t* is 0.  Feasible iff t exceeds that floor and the
    point passes verify_certificate.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lmi.dat-s"
        ss.export_sdpa(model, red, alpha, path)
        prob = read_sdpa(path)
    dense = [np.zeros((prob.m_dim + 1, abs(size), abs(size))) for size in prob.block_sizes]
    for k, mat in prob.entries.items():
        for (b, i, j), v in mat.items():
            dense[b - 1][k, i - 1, j - 1] = dense[b - 1][k, j - 1, i - 1] = v
    n = model.dim
    rows, cols = np.triu_indices(n)
    k_beta = rows.size  # 0-based index of beta; gamma follows it
    diag = np.flatnonzero(rows == cols)
    norm = np.zeros(prob.m_dim)
    norm[diag] = 1.0
    norm[k_beta:] = 1.0
    keep = np.arange(prob.m_dim) != k_beta
    # y = (x without beta, t); block b reads consts[b] + sum_j y_j coefs[b][j]
    consts = [F[1 + k_beta] for F in dense]
    coefs = [np.concatenate([F[1:][keep] - norm[keep, None, None] * F[1 + k_beta],
                             -np.eye(F.shape[1])[None]]) for F in dense]
    nu = sum(C.shape[0] for C in consts)
    tol_abs = 1e-9 * max(float(np.max(np.abs(A))) for A in coefs)

    def blocks(y):
        return [C + np.tensordot(y, A, 1) for C, A in zip(consts, coefs)]

    def barrier(y, tau):
        try:
            chols = [np.linalg.cholesky(M) for M in blocks(y)]
        except np.linalg.LinAlgError:
            return math.inf
        return -tau * y[-1] - 2.0 * sum(float(np.sum(np.log(np.diag(L)))) for L in chols)

    y = np.zeros(k_beta + 2)
    y[diag] = y[k_beta] = 1.0 / (n + 2)
    y[-1] = min(float(np.linalg.eigvalsh(M)[0]) for M in blocks(y)) - 1.0
    tau = 1.0
    while True:
        for _ in range(50):
            grad = np.zeros_like(y)
            grad[-1] = -tau
            hess = np.zeros((y.size, y.size))
            for M, A in zip(blocks(y), coefs):
                Li = np.linalg.inv(np.linalg.cholesky(M))
                W = (Li @ A @ Li.T).reshape(y.size, -1)
                grad -= W[:, ::M.shape[0] + 1].sum(axis=1)
                hess += W @ W.T
            dy = np.linalg.solve(hess, -grad)
            decrement = float(-grad @ dy)
            if decrement < 1e-6:
                break
            f0, step = barrier(y, tau), 1.0
            while step >= 1e-8 and barrier(y + step * dy, tau) > f0 - 0.25 * step * decrement:
                step *= 0.5
            if step < 1e-8:
                break
            y = y + step * dy
        if nu / tau <= max(1e-3 * abs(y[-1]), tol_abs):
            break
        tau *= 10.0
    x = np.insert(y[:-1], k_beta, 1.0 - norm[keep] @ y[:-1])
    P = np.zeros((n, n))
    P[rows, cols] = P[cols, rows] = x[:k_beta]
    cert = ss.verify_certificate(model, red, P, alpha, float(x[k_beta]), float(x[k_beta + 1]))
    return bool(y[-1] > tol_abs and cert.feasible)


@settings(max_examples=20)
@given(which=st.integers(0, 2), N=st.integers(2, 6),
       alpha=st.floats(1.0, 20.0, exclude_min=True))
# left flux just past the threshold: margins alpha h^2 / k - 1 = 0.044 and 0.011
@example(which=1, N=4, alpha=1.1)
@example(which=1, N=4, alpha=20.0)
# and farther from it: k < 0 (margin inf), margins -0.28 and 0.44
@example(which=1, N=2, alpha=1.1)
@example(which=1, N=5, alpha=1.1)
@example(which=1, N=6, alpha=1.05)
def test_free_p_verdict_matches_the_log_barrier_reference(
        dirichlet_pipeline, neumann_pipeline, bounded_pipeline, which, N, alpha):
    pipe = (dirichlet_pipeline, neumann_pipeline, bounded_pipeline)[which]
    red = pipe.reduced
    model = ss.assemble_closed_loop(red, pipe.gains, N)
    cert, margin = ss.free_p_certificate(model, red, alpha)
    if cert is not None:
        assert ss.verify_certificate(model, red, cert.P, cert.alpha, cert.beta,
                                     cert.gamma).feasible
    if abs(margin) > 1e-6:
        assert (cert is not None) == (margin < 0.0) == _log_barrier_verdict(model, red, alpha)


# ---------------------------------------------------------------- minimal_N

def test_minimal_n_dirichlet(dirichlet_pipeline):
    # the exact decision certifies N0 + 1 = 2; the constructive reference,
    # the Lyapunov P, needs N = 6 at alpha*
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    n_star, cert = ss.minimal_N(red, gains, N_max=10)
    assert n_star == 2
    assert cert.feasible
    assert cert.N == 2
    red2 = ss.reduce(dirichlet_pipeline.plant, dirichlet_pipeline.spectrum, 2)
    model = ss.assemble_closed_loop(red2, gains, 2)
    again = ss.verify_certificate(model, red2, cert.P, cert.alpha, cert.beta,
                                  cert.gamma, cert.eps)
    assert again.feasible
    constructive = {}
    for N in (5, 6):
        model = ss.assemble_closed_loop(red, gains, N)
        constructive[N] = constructive_certificate(model, red, ss.optimal_alpha(red, N))
    assert not constructive[5].feasible and constructive[6].feasible


@pytest.mark.parametrize("alpha", [1.1, 2.0, 10.0])
def test_minimal_n_dirichlet_five_proved_infeasible(dirichlet_pipeline, alpha):
    # the Lyapunov P fails N = 5, proved at the best alpha, whose margin is no
    # larger than at any other; the exact free-P decision certifies N = 5
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 5)
    star = ss.optimal_alpha(red, 5)
    P = ss.lyapunov_solve(model, red.delta)
    _, margin_star = exact_search(model, red, P, star)
    _, margin = exact_search(model, red, P, alpha)
    assert 0 < margin_star <= margin
    cert, record = decide_order(red, gains, 5)
    assert cert is not None and cert.feasible
    assert record == {"margin": record["margin"], "alpha": star}
    assert record["margin"] < 0


def test_minimal_n_bounded(bounded_pipeline):
    red, gains = bounded_pipeline.reduced, bounded_pipeline.gains
    n_star, cert = ss.minimal_N(red, gains, N_max=10)
    assert n_star == 2
    assert cert.feasible
    # the constructive reference fails N = 2
    model = ss.assemble_closed_loop(red, gains, 2)
    assert not constructive_certificate(model, red, ss.optimal_alpha(red, 2)).feasible


def test_minimal_n_below_the_first_order_raises(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    with pytest.raises(OrderTooSmall, match=f"N_max = {red.N0} < N0\\+1 = {red.N0 + 1}"):
        ss.minimal_N(red, gains, N_max=red.N0)


def test_minimal_n_reports_margins_when_exhausted():
    # left trace at q_c = 10: alpha h^2 / k is about 3.65e5 at N = 2, so no P
    # certifies N <= 4 at any alpha
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=ss.MeasurementSpec.dirichlet(), delta=0.5)
    red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 12, 2000), 10)
    gains = ss.design_gains(red)
    with pytest.raises(NoFeasibleN) as exc:
        ss.minimal_N(red, gains, N_max=4)
    assert sorted(exc.value.margins) == [2, 3, 4]
    for N, rec in exc.value.margins.items():
        assert sorted(rec) == ["alpha", "margin"]
        assert rec["margin"] > 0
        assert rec["alpha"] == ss.optimal_alpha(red, N)


def _left_trace_q10(n_modes):
    """Left trace at q_c = 10 (N* = 1254) on an n_modes-mode analytic spectrum,
    reduced at n_modes - 1, with the default gains."""
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=ss.MeasurementSpec.dirichlet(), delta=0.5)
    red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, n_modes, 2000), n_modes - 1)
    return red, ss.design_gains(red)


def test_minimal_n_records_equal_every_order_decided_alone():
    # one h^2 decides the whole search: its records are those of each order
    # decided alone, at every order up to 1253, bit for bit (N = 1254, the
    # first feasible order, would build an hour-long point)
    red, gains = _left_trace_q10(1301)
    with pytest.raises(NoFeasibleN) as exc:
        ss.minimal_N(red, gains, N_max=1253)
    margins = exc.value.margins
    alone = {N: decide_order(red, gains, N)[1] for N in range(2, 1254)}
    assert repr(margins) == repr(alone)
    assert margins[1253]["margin"] == 9.300244334942143e-05
    assert "smallest 9.3e-05 at N = 1253" in str(exc.value)


def test_unverified_orders_read_as_runs():
    # feasible orders 2, 3, 4 and 7 among 2..8: a run, then a lone order
    margins = {N: {"margin": -0.5 if N in (2, 3, 4, 7) else 0.25, "alpha": 2.0}
               for N in range(2, 9)}
    assert ss.certificate._unverified(margins) == \
        "N = 2..4, 7 decided feasible but not verified (margins -0.5 to -0.5)"


def test_minimal_n_runs_one_core_hamiltonian_iteration(monkeypatch, dirichlet_pipeline):
    # 39 uncertified orders share the core's one norm; a search that certifies
    # adds the point's full-state norm of that order
    hinf, sizes = ss.certificate._hinf_norm_sq, []

    def counted(A, Q, b):
        sizes.append(A.shape[0])
        return hinf(A, Q, b)

    monkeypatch.setattr(ss.certificate, "_hinf_norm_sq", counted)
    red, gains = _left_trace_q10(42)
    with pytest.raises(NoFeasibleN) as exc:
        ss.minimal_N(red, gains, N_max=40)
    assert len(exc.value.margins) == 39
    assert sizes == [2 * red.N0 + 1]
    sizes.clear()
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    N, cert = ss.minimal_N(red, gains, N_max=10)
    assert sizes == [2 * red.N0 + 1, 2 * N + 1]


def test_minimal_n_beyond_the_reduction_decides_the_orders_below_first(monkeypatch,
                                                                       dirichlet_pipeline):
    # an N_max beyond the reduction's 11 modes raises InsufficientModes on
    # reaching N = 12, after deciding N = 2..11; a search that certifies
    # below that order returns
    alpha, decided = ss.certificate.optimal_alpha, []
    monkeypatch.setattr(ss.certificate, "optimal_alpha",
                        lambda red, N: decided.append(N) or alpha(red, N))
    red, gains = _left_trace_q10(12)
    with pytest.raises(InsufficientModes, match="carries 11 modes, need 12"):
        ss.minimal_N(red, gains, N_max=13)
    assert decided == list(range(2, 12))
    assert ss.minimal_N(dirichlet_pipeline.reduced, dirichlet_pipeline.gains,
                        N_max=60)[0] == 2


def test_exact_search_nonpositive_beta_slope_reports_finite_margins(neumann_pipeline):
    # at alpha = 1.1, (1 - 1/alpha) lambda_3 < q_c + delta, so Theta2 <= 0
    # leaves no beta > 0 for any gamma: the reference's margin is 1 and stays
    # finite, and the free-P decision reports no point and margin inf
    red = neumann_pipeline.reduced
    model = ss.assemble_closed_loop(red, neumann_pipeline.gains, 2)
    alpha = 1.1
    assert ss.certificate._beta_slope(red, 2, alpha) < 0
    P = ss.lyapunov_solve(model, red.delta)
    cert, margin = exact_search(model, red, P, alpha)
    assert not cert.feasible
    assert all(math.isfinite(v) for v in (cert.theta1_max_eig, cert.theta2, cert.theta3))
    assert margin == pytest.approx(1.0)
    assert ss.free_p_certificate(model, red, alpha) == (None, math.inf)


def test_neumann_first_certified_order_on_long_spectrum():
    # the left-flux example needs N in the hundreds with the constructive P:
    # first verified at N = 123 (alpha = 2), proved infeasible at N = 122
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=ss.MeasurementSpec.neumann(), delta=0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 202, 2000)
    verdicts = {}
    for N in (122, 123):
        red = ss.reduce(plant, spectrum, N)
        model = ss.assemble_closed_loop(red, ss.design_gains(red), N)
        cert = constructive_certificate(model, red, 2.0)
        verdicts[N] = cert.feasible
    assert verdicts == {122: False, 123: True}


# ---------------------------------------------------------------- norm sweep

@pytest.mark.parametrize("pipeline_name", ["dirichlet_pipeline", "neumann_pipeline"])
def test_lyapunov_norm_sweep_bounded(pipeline_name, request):
    pipe = request.getfixturevalue(pipeline_name)
    norms = ss.lyapunov_norm_sweep(pipe.plant, pipe.spectrum, N_list=range(2, 13))
    assert norms.max() / norms.min() < 5.0
    assert norms.tobytes() == per_order_norm_sweep(pipe.plant, pipe.spectrum,
                                                   range(2, 13)).tobytes()


@pytest.mark.parametrize("n_modes, N_list", [(51, (10, 20, 30, 40)), (51, tuple(range(2, 13))),
                                             (402, tuple(range(2, 199, 7)))],
                         ids=["10-40", "2-12", "2-198"])
@pytest.mark.parametrize("kind", ["neumann", "dirichlet", "bounded"])
def test_lyapunov_norm_sweep_equals_the_per_order_route(kind, n_modes, N_list):
    # one model, one Schur form and shared per-mode blocks give, bit for bit,
    # the norms of a model assembled and solved at each order
    measurement = ss.MeasurementSpec.bounded(lambda x: np.ones_like(np.asarray(x, dtype=float))) \
        if kind == "bounded" else ss.MeasurementSpec(kind)
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=measurement, delta=0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, n_modes)
    norms = ss.lyapunov_norm_sweep(plant, spectrum, N_list=N_list)
    assert norms.tobytes() == per_order_norm_sweep(plant, spectrum, N_list).tobytes()


def test_lyapunov_norm_sweep_factors_one_model_once(monkeypatch):
    # one closed loop at max(N_list) and one Schur form of its core serve
    # every order
    calls = {"schur": 0, "assemble_closed_loop": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(ss.certificate, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ss.certificate, name, counted)
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c=10.0,
                         measurement=ss.MeasurementSpec.neumann(), delta=0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 51)
    assert ss.lyapunov_norm_sweep(plant, spectrum, N_list=(10, 20, 30, 40)).shape == (4,)
    assert calls == {"schur": 1, "assemble_closed_loop": 1}


def test_lyapunov_norm_sweep_order_below_n0_plus_one(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    N0 = pipe.reduced.N0
    with pytest.raises(OrderTooSmall, match=re.escape(f"N must be >= N0+1 = {N0 + 1}, got {N0}")):
        ss.lyapunov_norm_sweep(pipe.plant, pipe.spectrum, N_list=(N0 + 3, N0, N0 + 5))


def test_lyapunov_norm_sweep_zero_gains_rejected(dirichlet_pipeline, monkeypatch):
    # zero gains leave the input integrator at eigenvalue 0, so F + delta*I
    # cannot be Hurwitz and lyapunov_solve, the sweep's step at every order,
    # must refuse rather than fabricate P
    red = dirichlet_pipeline.reduced
    for N in (2, 3):
        model = ss.assemble_closed_loop(red, zero_gains(red.N0), N)
        with pytest.raises(NotHurwitzShifted):
            ss.lyapunov_solve(model, red.delta)
    monkeypatch.setattr(ss.certificate, "design_gains", lambda reduced: zero_gains(reduced.N0))
    with pytest.raises(NotHurwitzShifted, match="spectral abscissa"):
        ss.lyapunov_norm_sweep(dirichlet_pipeline.plant, dirichlet_pipeline.spectrum, (2, 3))


def test_lyapunov_diagonal_norm_constant_in_order():
    # stable diagonal stand-in for the no-coupling limit: |P| is set by the
    # slowest mode and stops depending on the order
    lam = (np.arange(1, 13) - 0.5) ** 2 * np.pi ** 2
    q_c, delta = 0.0, 0.25
    norms = []
    for N in range(2, 13):
        model = uncoupled(np.diag(np.full(3, -lam[0] + q_c)), -lam[1:N] + q_c, N0=1)
        P = ss.lyapunov_solve(model, delta)
        norms.append(np.linalg.norm(P, 2))
    expected = 1.0 / (2.0 * (lam[0] - q_c - delta))
    assert np.allclose(norms, expected, rtol=1e-10)


# ---------------------------------------------------------------- invariants

def test_schur_complement_sign_equivalence(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 3)
    n = model.dim
    rng = np.random.default_rng(11)
    samples = []
    for _ in range(25):
        Q = rng.normal(size=(n, n))
        P = Q @ Q.T + 10.0 ** rng.uniform(-3, 1) * np.eye(n)
        beta = 10.0 ** rng.uniform(-3, 3)
        gamma = 10.0 ** rng.uniform(-6, 1)
        samples.append((P, beta, gamma))
    free_p = verified_free_p_certificate(dirichlet_pipeline, 3)
    samples.append((free_p.P, free_p.beta, free_p.gamma))
    for P, beta, gamma in samples:
        T1 = theta1(model, red, P, 2.0, beta, gamma)
        S = T1[:n, :n]
        m_full = np.linalg.eigvalsh(0.5 * (T1 + T1.T))[-1]
        PL = P @ model.Lcal
        schur = S + np.outer(PL, PL) / beta
        m_schur = np.linalg.eigvalsh(0.5 * (schur + schur.T))[-1]
        tol = 1e-9 * max(np.max(np.abs(T1)), np.max(np.abs(schur)), 1.0)
        if m_full > tol and m_schur > tol:
            continue
        if m_full <= tol and m_schur <= tol:
            continue
        pytest.fail(f"sign disagreement: full {m_full:.3e}, schur {m_schur:.3e}")


def test_theta2_dominates_tail_terms_bounded(bounded_pipeline):
    red = bounded_pipeline.reduced
    model = ss.assemble_closed_loop(red, ss.design_gains(red), 8)
    lam = red.spectrum.lambdas
    N = model.N
    alpha, beta, gamma = 2.0, 3.0, 0.7
    cert = ss.verify_certificate(model, red, np.eye(model.dim), alpha, beta, gamma)
    norm_c2 = red.tail_constant
    for n in range(N + 1, min(5 * N, lam.size) + 1):
        gamma_n = 2 * gamma * (-(1 - 1 / alpha) * lam[n - 1] + red.q_c + red.delta) \
            + beta * norm_c2 / lam[n - 1]
        assert gamma_n <= cert.theta2 + 1e-12


def test_theta2_theta3_tail_dominance_neumann(neumann_pipeline):
    red = neumann_pipeline.reduced
    cert = verified_free_p_certificate(neumann_pipeline, 2)
    lam = red.spectrum.lambdas
    N, eps = cert.N, cert.eps
    alpha, beta, gamma = cert.alpha, cert.beta, cert.gamma
    assert cert.theta3 >= 0
    for n in range(N + 1, min(5 * N, lam.size) + 1):
        gamma_n = 2 * gamma * (-(1 - 1 / alpha) * lam[n - 1] + red.q_c + red.delta) \
            + beta * red.tail_constant * lam[n - 1] ** (0.5 + eps)
        linearized = -cert.theta3 * lam[n - 1] + 2 * gamma * (red.q_c + red.delta)
        assert gamma_n <= linearized + 1e-9
        assert linearized <= cert.theta2 + 1e-9


@pytest.mark.parametrize("which", ["dirichlet_pipeline", "neumann_pipeline",
                                   "bounded_pipeline"])
def test_verify_reads_eps_from_the_reduction(which, request):
    # a certificate records the reduction's tail_eps; any other eps is refused
    # for every measurement kind, not only where Theta2/Theta3 read it
    pipe = request.getfixturevalue(which)
    red = pipe.reduced
    model = ss.assemble_closed_loop(red, pipe.gains, 3)
    P = ss.lyapunov_solve(model, red.delta)
    assert ss.verify_certificate(model, red, P, 2.0, 1.0, 0.1).eps == red.tail_eps
    with pytest.raises(ValueError, match="tail_eps"):
        ss.verify_certificate(model, red, P, 2.0, 1.0, 0.1, 0.25)


def test_certificate_round_trip(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 8)
    cert = constructive_certificate(model, red, 2.0)
    assert cert.feasible
    restored = ss.Certificate.from_dict(json.loads(json.dumps(cert.to_dict())))
    again = ss.verify_certificate(model, red, restored.P, restored.alpha,
                                  restored.beta, restored.gamma, restored.eps)
    assert again.feasible
    assert again.theta1_max_eig == pytest.approx(cert.theta1_max_eig, abs=1e-12)
    assert again.theta2 == pytest.approx(cert.theta2, abs=1e-12)


def test_export_refuses_a_low_order_and_alpha_at_most_1(dirichlet_pipeline, tmp_path):
    # a model below N0 + 1 cannot be made, not even by dataclasses.replace:
    # ClosedLoopMatrices refuses it before export_sdpa runs; alpha <= 1 is
    # export_sdpa's own check; nothing is written
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, red.N0 + 1)
    target = tmp_path / "export.dat-s"
    with pytest.raises(OrderTooSmall, match=f"N must be >= N0\\+1 = {red.N0 + 1}, got {red.N0}"):
        ss.export_sdpa(dataclasses.replace(model, N=red.N0), red, 2.0, target)
    for alpha in (1.0, 0.5):
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            ss.export_sdpa(model, red, alpha, target)
    assert not target.exists()
