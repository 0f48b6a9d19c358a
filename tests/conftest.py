"""Shared pipeline fixtures for the two constant-coefficient examples, and the
constructive Lyapunov-P search kept as a test reference."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

import specstab as ss

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
