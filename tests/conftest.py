"""Shared pipeline fixtures for the two constant-coefficient examples, and
test references: the a-priori eigenvalue band, the Galerkin pencil with the
Shen basis as a dense matrix and its solve by bisection and inverse
iteration, the modes' slopes and what follows from them (phi_n'(1), the flux
consistency residual, the field energy), the bounded weight's second moment
int x^2 c, the dense Lyapunov solve of the full F, the block Lyapunov solve
and the norm sweep order by order, the SDPA export's Theta1 coefficients by
unit points, the constructive Lyapunov-P search and the closed-loop
generator in physical coordinates."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

import specstab as ss
from specstab._linalg import gemm, ztrsyl
from specstab.certificate import _shifted_solves
from specstab.synthesis import state_layout

# one profile for every property test: reproducible draws, no example
# database, no per-example deadline; each test sets only its max_examples
settings.register_profile("specstab", deadline=None, derandomize=True, database=None)
settings.load_profile("specstab")


@dataclass(frozen=True)
class Pipeline:
    plant: ss.PlantSpec
    spectrum: ss.Spectrum
    reduced: ss.ReducedPlant
    gains: ss.GainSet


def _build(q_c: float, measurement: ss.MeasurementSpec) -> Pipeline:
    plant = ss.PlantSpec(coeffs=ss.CoefficientPair.constant(1.0, 0.0), q_c=q_c,
                         measurement=measurement, delta=0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 51, 2000)
    reduced = ss.reduce(plant, spectrum, 50)
    gains = ss.design_gains(reduced)
    return Pipeline(plant, spectrum, reduced, gains)


@pytest.fixture(scope="session")
def dirichlet_pipeline() -> Pipeline:
    """Left-trace measurement example: p = 1, q = 0, q_c = 3, delta = 0.5."""
    return _build(3.0, ss.MeasurementSpec.dirichlet())


@pytest.fixture(scope="session")
def neumann_pipeline() -> Pipeline:
    """Left-flux measurement example: p = 1, q = 0, q_c = 10, delta = 0.5."""
    return _build(10.0, ss.MeasurementSpec.neumann())


@pytest.fixture(scope="session")
def bounded_pipeline() -> Pipeline:
    """In-domain measurement with weight c = 1, q_c = 3, delta = 0.5."""
    c = lambda x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731
    return _build(3.0, ss.MeasurementSpec.bounded(c))


def validate_bounds(spectrum: ss.Spectrum,
                    coeffs: ss.CoefficientPair) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode margins of the two-sided eigenvalue bounds.

    Returns (lambda_n - pi^2 (n-1)^2 p_star, pi^2 n^2 p_sup + q_sup - lambda_n)
    and fails with the first mode whose margin dips below -1e-9*max(1, lambda_n).
    """
    lam = spectrum.lambdas
    n = np.arange(1, lam.size + 1, dtype=float)
    lower = lam - np.pi ** 2 * (n - 1) ** 2 * coeffs.p_star
    upper = np.pi ** 2 * n ** 2 * coeffs.p_sup + coeffs.q_sup - lam
    tol = -1e-9 * np.maximum(1.0, lam)
    bad = np.where((lower < tol) | (upper < tol))[0]
    if bad.size:
        i = int(bad[0])
        raise AssertionError(f"mode {i + 1}: margins ({lower[i]:.3e}, {upper[i]:.3e})")
    return lower, upper


def shen_basis(bspec: ss.BoundarySpec, M: int) -> np.ndarray:
    """Reference: the M x (M + 2) matrix T of the Shen basis
    phi_k = L_k + a_k L_{k+1} + b_k L_{k+2} in t = 2x - 1, phi_k = sum_n T[k, n] L_n,
    from its closed-form coefficients."""
    k = np.arange(M)
    T = np.zeros((M, M + 2))
    T[k, k] = 1.0
    if bspec.neumann_at_0:
        T[k, k + 1] = -(2 * k + 3) / (k + 2) ** 2
        T[k, k + 2] = -((k + 1) / (k + 2)) ** 2
    else:
        T[k, k + 2] = -1.0
    return T


def shen_pencil(coeffs: ss.CoefficientPair, bspec: ss.BoundarySpec, M: int, nodes: int):
    """Reference: the nodes-point Gauss rule on [0, 1] (x, w), the first M Shen
    functions' values and t-slopes at its nodes, from the dense T, and their
    stiffness S and mass B by that rule: (x, w, phi, dphi, S, B)."""
    x, w, t = ss.sturm_liouville._gauss(nodes)
    T = shen_basis(bspec, M)
    L = ss.sturm_liouville._legendre(t, M + 2)
    phi, dphi = T @ L, T @ ss.sturm_liouville._legendre_slopes(L)
    # x = (t + 1)/2: d/dx = 2 d/dt
    S = 4.0 * (dphi * (w * coeffs.p(x))) @ dphi.T + (phi * (w * coeffs.q(x))) @ phi.T
    return x, w, phi, dphi, S, (phi * w) @ phi.T


def galerkin_gvx(coeffs: ss.CoefficientPair, bspec: ss.BoundarySpec, n_modes: int,
                 M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference: the lowest n_modes Ritz pairs in M Shen functions as
    (lambda, Legendre rows, datum at x = 0), like sturm_liouville._galerkin,
    by bisection and inverse iteration (eigh's gvx) for those pairs alone,
    each vector scaled to unit mass, on the pencil of M + 8 Gauss nodes."""
    x, w, phi, dphi, S, B = shen_pencil(coeffs, bspec, M, M + 8)
    T = shen_basis(bspec, M)
    if bspec.neumann_at_0:
        d0, d1 = T @ (-1.0) ** np.arange(M + 2), np.zeros(M)
    else:
        p0 = float(coeffs.p(0.0))
        d0 = (2.0 * (dphi @ (w * coeffs.p(x))) - phi @ (w * coeffs.q(x) * (1.0 - x))) / p0
        d1 = phi @ (w * (1.0 - x)) / p0
    s = 1.0 / np.sqrt(np.diag(S))
    S, B = S * np.outer(s, s), B * np.outer(s, s)
    mu, X = scipy.linalg.eigh(B, S, subset_by_index=[M - n_modes, M - 1], driver="gvx")
    lam, X = 1.0 / mu[::-1], X[:, ::-1]
    C = (s[:, None] * X).T
    datum = C @ d0 + lam * (C @ d1)
    scale = np.where(datum < 0, -1.0, 1.0) / np.sqrt(np.einsum("ij,ij->j", X, B @ X))
    return lam, scale[:, None] * (C @ T), scale * datum


def mode_slopes(spectrum: ss.Spectrum, x, count: int | None = None) -> np.ndarray:
    """Reference: the x-derivatives of the first count modes (all by default)
    at the points x, one row per mode, as spectrum.phi lays out the values."""
    x = np.asarray(x, dtype=float)
    count = spectrum.n_modes if count is None else count
    if spectrum.eigenfunctions is None:
        k = ss.sturm_liouville._wavenumbers(spectrum.boundary, count)
        kx = np.outer(k, x)
        slope = -np.sin(kx) if spectrum.boundary.neumann_at_0 else np.cos(kx)
        return np.sqrt(2.0) * k[:, None] * slope
    rows = spectrum.eigenfunctions[:count]
    L = ss.sturm_liouville._legendre(2.0 * x.ravel() - 1.0, rows.shape[1])
    return 2.0 * (rows @ ss.sturm_liouville._legendre_slopes(L))  # d/dx = 2 d/dt


def slopes_at_1(spectrum: ss.Spectrum) -> np.ndarray:
    """Reference: phi_n'(1) per mode."""
    return mode_slopes(spectrum, [1.0])[:, 0]


def flux_residual(reduced: ss.ReducedPlant, n: int) -> float:
    """Reference: a_n + (-lambda_n + q_c) b_n + p(1) phi_n'(1) of mode n.

    Integration by parts makes the first two terms equal -p(1) phi_n'(1)
    exactly, so the residual checks the projections against the modes; its
    nonvanishing reference value also witnesses controllability of the
    actuated mode.
    """
    i = n - 1
    p1 = float(reduced.plant.coeffs.p(1.0))
    return float(reduced.a_coef[i]
                 + (-reduced.spectrum.lambdas[i] + reduced.q_c) * reduced.b_coef[i]
                 + p1 * slopes_at_1(reduced.spectrum)[i])


def second_moment(reduced: ss.ReducedPlant) -> float:
    """Reference: int x^2 c of a bounded measurement's weight c, by the
    reduction's projection rule."""
    x, w = reduced.spectrum.quadrature(ss.homogenize._projection_degree(reduced.plant))
    return float(w @ (x ** 2 * reduced.plant.measurement.c(x)))


def energy_by_quadrature(result: ss.SimResult, step: int) -> float:
    """Reference: int p w'^2 + q w^2 of the field w = sum_{n<=N_sim} w_n phi_n
    at a step, by the spectrum's Gauss-Legendre rule, which is exact for it;
    the spectral energy identity makes it the modal sum energy_sq."""
    sp = result.reduced.spectrum
    coeffs = result.reduced.plant.coeffs
    x, w = sp.quadrature(max(len(coeffs.p_coeffs), len(coeffs.q_coeffs)) - 1)
    modes = result.modes([step])[0][0]
    return float(w @ (coeffs.p(x) * (modes @ mode_slopes(sp, x, result.N_sim)) ** 2
                      + coeffs.q(x) * (modes @ sp.phi(x, result.N_sim)) ** 2))


def dense_lyapunov(F: np.ndarray, delta: float) -> np.ndarray:
    """Reference: P with (F + delta I)'P + P(F + delta I) = -I by one dense
    Bartels-Stewart solve of the full (2N + 1)-square F, symmetrized."""
    n = F.shape[0]
    P = scipy.linalg.solve_continuous_lyapunov((F + delta * np.eye(n)).T, -np.eye(n))
    return 0.5 * (P + P.T)


def per_order_lyapunov(model: ss.ClosedLoopMatrices, delta: float) -> np.ndarray:
    """Reference: the block solve of lyapunov_solve on this model alone, with
    its own Schur form of Ac' and its own per-mode blocks (no residual check)."""
    m, n3, dim = model.m, model.N - model.N0, model.dim
    Ac = model.Fc + delta * np.eye(m)
    e = model.d + delta
    F3c, u, v = model.F3c, model.u, model.v
    T, Q = scipy.linalg.schur(Ac.T, output="complex")
    Qr = np.hstack([Q.real, -Q.imag])
    esum = e[:, None] + e
    p33 = -0.5 / e
    P3c = _shifted_solves(Qr, T, e, (-p33[:, None] * F3c).T).T
    FP3c = gemm(F3c.T, P3c)
    Qh = Q.conj().T
    Y, scale, _ = ztrsyl(T, T, Qh @ (-np.eye(m) - FP3c - FP3c.T) @ Q, tranb="C")
    Pcc = (Q @ Y @ Qh).real / scale
    Pcc = 0.5 * (Pcc + Pcc.T)
    P34 = np.outer(-(P3c @ u), v) / esum
    Pc4 = _shifted_solves(Qr, T, e, -gemm(F3c.T, P34) - np.outer(Pcc @ u, v))
    vg = np.outer(v, u @ Pc4)
    P44 = np.diag(p33) - (vg + vg.T) / esum
    c, i3, i4 = slice(0, m), slice(m, m + n3), slice(m + n3, dim)
    P = np.zeros((dim, dim))
    P[c, c] = Pcc
    P[i3, c], P[c, i3] = P3c, P3c.T
    P[i3, i3] = np.diag(p33)
    P[i3, i4], P[i4, i3] = P34, P34.T
    P[c, i4], P[i4, c] = Pc4, Pc4.T
    P[i4, i4] = P44
    return P


def per_order_norm_sweep(plant: ss.PlantSpec, spectrum: ss.Spectrum, N_list) -> np.ndarray:
    """Reference: lyapunov_norm_sweep order by order, a closed loop assembled
    at each N and solved by per_order_lyapunov, its largest eigenvalue by
    scipy's eigvalsh."""
    reduced = ss.reduce(plant, spectrum, max(N_list))
    gains = ss.design_gains(reduced)
    return np.array([
        scipy.linalg.eigvalsh(
            per_order_lyapunov(ss.assemble_closed_loop(reduced, gains, N), reduced.delta),
            subset_by_index=[2 * N, 2 * N], check_finite=False)[0]
        for N in N_list])


def sdpa_theta1_coefficients(model: ss.ClosedLoopMatrices, reduced: ss.ReducedPlant,
                             alpha: float) -> list[np.ndarray]:
    """Reference: export_sdpa's block-1 coefficient of each variable (the P
    entries in row-major upper-triangle order, then beta, then gamma), as
    the upper triangle of -Theta1 at the variable's unit point: a dense
    Phi = e_r e_s' + e_s e_r' for p_rs (e_r e_r' when r = s), beta = 1 or
    gamma = 1.  Theta1 is linear in (P, beta, gamma), so that is the
    coefficient; it is evaluated densely as verify_certificate evaluates it."""
    n = model.dim

    def minus_theta1(P, beta, gamma):
        T = np.empty((n + 1, n + 1))
        T[:n, :n] = model.F.T @ P + P @ model.F + 2.0 * reduced.delta * P \
            + alpha * gamma * model.G
        T[:n, n] = T[n, :n] = P @ model.Lcal
        T[n, n] = -beta
        return np.triu(-T)

    coefs = []
    for r, s in zip(*np.triu_indices(n)):
        Phi = np.zeros((n, n))
        Phi[r, s] = Phi[s, r] = 1.0
        coefs.append(minus_theta1(Phi, 0.0, 0.0))
    zero = np.zeros((n, n))
    return coefs + [minus_theta1(zero, 1.0, 0.0), minus_theta1(zero, 0.0, 1.0)]


def exact_search(model: ss.ClosedLoopMatrices, reduced: ss.ReducedPlant, P: np.ndarray,
                 alpha: float) -> tuple[ss.Certificate, float]:
    """Reference: best (beta, gamma) for a Lyapunov P at fixed alpha > 1, and its margin.

    With F'P + PF + 2 delta P = -I, the Schur complement turns Theta1 <= 0
    into beta >= h(gamma) = v'(I - alpha gamma G)^-1 v, while Theta2/Theta3
    read beta <= k gamma.  G is a nonnegative sum of two outer products, so
    G = sum g_i u_i u_i' with g_i >= 0 (clipped against rounding), and with
    c_i = (u_i'v)^2, h = |v|^2 + sum c_i s g_i/(1 - s g_i) for s = alpha gamma.
    A certificate exists iff the concave phi(gamma) = k gamma - h(gamma) is
    positive somewhere on (0, 1/(alpha max g)); its maximiser is found by
    bisection on phi'.  The margin -phi/h at the maximiser is negative iff
    feasible; an infeasible result carries the Theta values at
    (gamma*, beta = h(gamma*)).
    """
    v = P @ model.Lcal
    g, U = np.linalg.eigh(model.G)
    g = np.clip(g, 0.0, None)
    v2, c = float(v @ v), (U.T @ v) ** 2
    k = ss.certificate._beta_slope(reduced, model.N, alpha)

    def h(gamma: float) -> float:
        s = alpha * gamma * g
        return v2 + float(np.sum(c * s / (1.0 - s)))

    def dphi(gamma: float) -> float:
        return k - alpha * float(np.sum(c * g / (1.0 - alpha * gamma * g) ** 2))

    g_max = float(g[-1])
    if dphi(0.0) <= 0.0:  # includes k <= 0: the supremum sits at gamma -> 0
        gamma = 0.0
    elif g_max == 0.0:  # G = 0: h is constant and phi grows without bound
        gamma = 2.0 * v2 / k
    else:
        lo, hi = 0.0, 1.0 / (alpha * g_max)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if dphi(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        gamma = lo
    h_star = h(gamma)
    phi = k * gamma - h_star
    beta = 0.5 * (h_star + k * gamma) if phi > 0.0 else h_star
    cert = ss.verify_certificate(model, reduced, P, alpha, beta, gamma)
    if h_star == 0.0:  # Lcal = 0: Theta1 asks only beta >= 0, so phi's sign decides
        return cert, -math.inf if phi > 0.0 else math.inf
    return cert, -phi / h_star


def constructive_certificate(model: ss.ClosedLoopMatrices, reduced: ss.ReducedPlant,
                             alpha: float) -> ss.Certificate:
    """The constructive certificate at fixed alpha, verified or not: P from the
    shifted Lyapunov equation, (beta, gamma) from the exact scalar problem."""
    P = ss.lyapunov_solve(model, reduced.delta)
    return exact_search(model, reduced, P, alpha)[0]


def verified_free_p_certificate(pipeline: Pipeline, N: int) -> ss.Certificate:
    """The free-P certificate at order N and alpha = 2, re-verified through
    verify_certificate."""
    model = ss.assemble_closed_loop(pipeline.reduced, pipeline.gains, N)
    cert, margin = ss.free_p_certificate(model, pipeline.reduced, 2.0)
    assert cert is not None and margin < 0, "free-P decision found no certificate"
    again = ss.verify_certificate(model, pipeline.reduced, cert.P, cert.alpha, cert.beta,
                                  cert.gamma, cert.eps)
    assert cert.feasible and again.feasible, "free-P certificate failed re-verification"
    return again


def physical_generator(reduced: ss.ReducedPlant, gains: ss.GainSet, N: int,
                       N_sim: int) -> np.ndarray:
    """Reference: the closed-loop generator over (u, w_1..N_sim, what_1..N),
    built mode by mode.

    The observer innovation uses the truncated plant output
    sum_{i<=N_sim} out_i w_i; gains l_n vanish for n > N0.
    """
    N0 = reduced.N0
    lam = reduced.spectrum.lambdas
    q_c = reduced.q_c
    an, bn, out = reduced.a_coef, reduced.b_coef, reduced.out_coef
    dim = 1 + N_sim + N
    A = np.zeros((dim, dim))
    # v = K (u, what_1..N0) as a row over the full state
    Krow = np.zeros(dim)
    Krow[0] = gains.K[0]
    Krow[1 + N_sim: 1 + N_sim + N0] = gains.K[1:]
    A[0] = Krow
    for n in range(1, N_sim + 1):
        i = n  # state index of w_n
        A[i, i] = -lam[n - 1] + q_c
        A[i, 0] += an[n - 1]
        A[i] += bn[n - 1] * Krow
    lvec = np.zeros(N)
    lvec[:N0] = gains.L
    for n in range(1, N + 1):
        i = N_sim + n  # state index of what_n
        A[i, i] += -lam[n - 1] + q_c
        A[i, 0] += an[n - 1]
        A[i] += bn[n - 1] * Krow
        A[i, 1: 1 + N_sim] += lvec[n - 1] * out[:N_sim]
        A[i, 1 + N_sim:] -= lvec[n - 1] * out[:N]
    return A


def to_certificate_state(reduced: ss.ReducedPlant, N: int, N_sim: int) -> np.ndarray:
    """T with (X, w_{N+1..N_sim}) = T (u, w_1..N_sim, what_1..N): X as
    synthesis.state_layout lays it out, X[error] = scale (w_n - what_n)."""
    what, error, scale = state_layout(reduced, N)
    dim = 1 + N_sim + N
    T = np.zeros((dim, dim))
    T[0, 0] = 1.0
    n = np.arange(N)
    T[what, 1 + N_sim + n] = 1.0
    T[error, 1 + n] = scale
    T[error, 1 + N_sim + n] = -scale
    T[2 * N + 1 + np.arange(N_sim - N), 1 + N + np.arange(N_sim - N)] = 1.0
    return T
