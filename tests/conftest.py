"""Shared pipeline fixtures for the two constant-coefficient examples."""

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


def constructive_certificate(model: ss.ClosedLoopMatrices, reduced: ss.ReducedPlant,
                             alpha: float) -> ss.Certificate:
    """The verified constructive certificate at fixed alpha: P from the shifted
    Lyapunov equation, (beta, gamma) from the exact scalar problem."""
    P = ss.lyapunov_solve(model.F, reduced.delta)
    return ss.certificate._exact_search(model, reduced, P, alpha)[0]


def verified_free_p_certificate(pipeline: Pipeline, N: int) -> ss.Certificate:
    """The free-P certificate at order N and alpha = 2, re-verified through
    verify_certificate."""
    model = ss.assemble_closed_loop(pipeline.reduced, pipeline.gains, N)
    cert = ss.free_p_certificate(model, pipeline.reduced, 2.0)
    again = ss.verify_certificate(model, pipeline.reduced, cert.P, cert.alpha, cert.beta,
                                  cert.gamma, cert.eps)
    assert cert.feasible and again.feasible, "free-P certificate failed re-verification"
    return again
