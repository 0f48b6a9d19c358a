"""End-to-end runs through the fully numeric (non-closed-form) path."""

import numpy as np
import pytest

import specstab as ss
from specstab.sdpa import read_sdpa

from conftest import energy_by_quadrature, second_moment


@pytest.fixture(scope="module")
def variable_pipeline():
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.2], [0.0, 0.2])
    plant = ss.PlantSpec(coeffs, 1.5, ss.MeasurementSpec.dirichlet(), 0.5)
    spectrum = ss.solve_spectrum(coeffs, plant.boundary, 12, 1000)
    reduced = ss.reduce(plant, spectrum, 11)
    gains = ss.design_gains(reduced)
    return plant, spectrum, reduced, gains


def test_variable_coefficients_certify_at_minimal_order(variable_pipeline):
    plant, spectrum, reduced, gains = variable_pipeline
    assert reduced.N0 == 1
    n_star, cert = ss.minimal_N(reduced, gains, N_max=8)
    assert n_star == 2 and cert.feasible
    # independently re-verified at the returned data
    reduced2 = ss.reduce(plant, spectrum, 2)
    model2 = ss.assemble_closed_loop(reduced2, gains, 2)
    again = ss.verify_certificate(model2, reduced2, cert.P, cert.alpha,
                                  cert.beta, cert.gamma, cert.eps)
    assert again.feasible


def test_variable_coefficients_closed_loop_decay(variable_pipeline):
    plant, spectrum, reduced, gains = variable_pipeline
    n_star, cert = ss.minimal_N(reduced, gains, N_max=8)
    z0 = [1.0, 0.0, 1.0, -2.0 / 3.0]  # 1 + x^2 - 2x^3/3: z0'(0) = 0
    res = ss.run(reduced, gains, n_star, ss.SimConfig(z0=z0, N_sim=11, dt=1e-3, T=3.0))
    assert res.abscissa < -0.5
    assert ss.fit_decay(res.times, res.eta, (1.0, 3.0)) >= 0.5
    trace = ss.lyapunov_trace(res, cert)
    assert trace.max_increment <= 1e-6 * trace.V[0]
    # reconstructed state keeps the actuated boundary value
    steps = [0, 1500, 3000]
    for step, z in zip(steps, res.fields(steps)[1]):
        assert z[-1] == pytest.approx(res.u[step], abs=1e-8)


def test_bounded_nonuniform_weight_pipeline():
    c = lambda x: np.asarray(x, float)  # noqa: E731 -- weight c(x) = x
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), 3.0,
                         ss.MeasurementSpec.bounded(c), 0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 12, 2000)
    reduced = ss.reduce(plant, spectrum, 11)
    # c_1 = <x, sqrt2 cos(pi x/2)> = sqrt2 (2/pi - 4/pi^2)
    assert reduced.out_coef[0] == pytest.approx(
        np.sqrt(2) * (2 / np.pi - 4 / np.pi ** 2), abs=1e-9)
    assert reduced.tail_constant == pytest.approx(1.0 / 3.0, rel=1e-10)  # ||x||^2
    assert second_moment(reduced) == pytest.approx(0.25, rel=1e-10)  # int x^3
    gains = ss.design_gains(reduced)
    n_star, cert = ss.minimal_N(reduced, gains, N_max=10)
    assert cert.feasible and n_star <= 10


def test_bounded_export_has_five_blocks(bounded_pipeline, tmp_path):
    model = ss.assemble_closed_loop(bounded_pipeline.reduced, bounded_pipeline.gains, 4)
    path = tmp_path / "bounded.dat-s"
    ss.export_sdpa(model, bounded_pipeline.reduced, 2.0, path)
    prob = read_sdpa(path)
    assert prob.block_sizes == [10, 9, -1, -1, -1]
    # Theta2's beta coefficient carries ||c||^2 / lambda_{N+1}
    k_beta = prob.m_dim - 1
    lam5 = bounded_pipeline.spectrum.lambdas[4]
    assert prob.entries[k_beta][(5, 1, 1)] == pytest.approx(-1.0 / lam5, rel=1e-12)


def test_neumann_field_energy_identity(neumann_pipeline):
    pipe = neumann_pipeline
    z0 = [0.0, -2.0 / 3.0, 1.0]  # x (x - 2/3)
    res = ss.run(pipe.reduced, pipe.gains, 2, ss.SimConfig(z0=z0, N_sim=50, dt=1e-3, T=0.3))
    for step in (0, 150, 300):
        modal = res.energy_sq[step]
        assert abs(energy_by_quadrature(res, step) - modal) <= 1e-4 * max(modal, 1e-12)


def test_polynomial_coefficient_pair_derivative():
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.1], [0.0])
    x = np.linspace(0, 1, 7)
    assert np.allclose(coeffs.p_prime(x), 0.1)
    assert coeffs.p_star == pytest.approx(1.0)
    assert coeffs.p_sup == pytest.approx(1.1)
    assert coeffs.constant_values() is None
    assert ss.CoefficientPair.from_polynomials([2.0, 0.0], [0.5, 0.0]).constant_values() \
        == (2.0, 0.5)

