"""Shared pipeline fixtures for the two constant-coefficient examples, and
three test references: the a-priori eigenvalue band, the constructive
Lyapunov-P search and the closed-loop generator in physical coordinates."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

import specstab as ss
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
    k = ss.certificate._beta_slope(model, reduced, alpha)

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
    P = ss.lyapunov_solve(model.F, reduced.delta)
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
