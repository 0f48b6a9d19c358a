"""Shared pipeline fixtures for the two constant-coefficient examples."""

from dataclasses import dataclass

import numpy as np
import pytest

import specstab as ss


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


# Externally solved free-P certificates (margin-maximized LMI solutions,
# rounded to 12 significant digits); they are not package outputs and every
# test that uses one re-verifies it through verify_certificate first.
FREE_P_DIRICHLET_N3 = dict(
    N=3, alpha=2.0, eps=0.125, beta=214.105301945, gamma=0.417100756468,
    P=np.array([
        [12.1891687143, 14.1196695011, 23.8788226627, 0.015929774453,
         -0.00093877378381, 0.0730066971424, -0.0245018600449],
        [14.1196695011, 23.0672995354, 31.0441231799, 0.00891789227457,
         -0.000300150430837, -0.0735048716651, -0.0295224589548],
        [23.8788226627, 31.0441231799, 77.1947641767, -0.0015773841288,
         -5.17367403815e-05, -1.05694362328, -0.204085260742],
        [0.015929774453, 0.00891789227457, -0.0015773841288, 0.397959847737,
         0.000712418149491, 1.53784621674, -0.000780350279357],
        [-0.00093877378381, -0.000300150430837, -5.17367403815e-05,
         0.000712418149491, 0.149091581966, 0.00340436101707, -0.57383788632],
        [0.0730066971424, -0.0735048716651, -1.05694362328, 1.53784621674,
         0.00340436101707, 11.352670871, 0.00586393495175],
        [-0.0245018600449, -0.0295224589548, -0.204085260742,
         -0.000780350279357, -0.57383788632, 0.00586393495175, 3.76747218893],
    ]),
)

FREE_P_NEUMANN_N2 = dict(
    N=2, alpha=2.0, eps=0.125, beta=4.64464676348, gamma=3.01045005492,
    P=np.array([
        [68.6056429266, 23.7444094141, 31.0915440124, -0.00262872129284, -0.0165360124686],
        [23.7444094141, 19.7566830852, 16.8459887415, -0.000113988936245, 0.00965523868926],
        [31.0915440124, 16.8459887415, 43.0535465137, -1.97560454506e-06, -0.0748740619033],
        [-0.00262872129284, -0.000113988936245, -1.97560454506e-06,
         0.026346409482, 0.00572289090455],
        [-0.0165360124686, 0.00965523868926, -0.0748740619033,
         0.00572289090455, 1.22738518009],
    ]),
)


def constructive_certificate(model: ss.ClosedLoopMatrices, reduced: ss.ReducedPlant,
                             alpha: float) -> ss.Certificate:
    """The verified constructive certificate at fixed alpha: P from the shifted
    Lyapunov equation, (beta, gamma) from the exact scalar problem."""
    P = ss.lyapunov_solve(model.F, reduced.delta)
    return ss.certificate._exact_search(model, reduced, P, alpha)[0]


def verified_free_p_certificate(pipeline: Pipeline, frozen: dict) -> ss.Certificate:
    """Re-verify a frozen free-P tuple and return the resulting certificate."""
    model = ss.assemble_closed_loop(pipeline.reduced, pipeline.gains, frozen["N"])
    cert = ss.verify_certificate(model, pipeline.reduced, frozen["P"],
                                 frozen["alpha"], frozen["beta"], frozen["gamma"],
                                 frozen["eps"])
    assert cert.feasible, "frozen free-P certificate failed re-verification"
    return cert
