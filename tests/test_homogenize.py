import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specstab as ss
from specstab.errors import DecayUnreachable, EpsOutOfRange, InsufficientModes

from conftest import flux_residual, second_moment, slopes_at_1

ND = ss.BoundarySpec(ss.NEUMANN_DIRICHLET)
DD = ss.BoundarySpec(ss.DIRICHLET_DIRICHLET)
SQ2 = np.sqrt(2.0)

# closed-form first-mode projections, confirmed by adaptive quadrature pre-build
A1_DIRICHLET = 2.3122748254523984    # sqrt2 (10/pi - 48/pi^3)
B1_DIRICHLET = -0.1705473977127286   # -sqrt2 (2/pi - 16/pi^3)
A1_NEUMANN = 4.501581580785531       # 10 sqrt2 / pi
B1_NEUMANN = -0.4501581580785531     # -sqrt2 / pi
M1_PHI = 1.0 - 8.0 / np.pi ** 2


def constant_plant(q_c, measurement, delta=0.5):
    return ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c, measurement, delta)


# ---------------------------------------------------------------- lifting

def test_lifting_flat_at_zero_variant():
    plant = constant_plant(3.0, ss.MeasurementSpec.dirichlet())
    x = np.linspace(0, 1, 101)
    a, b = ss.lifting_functions(plant, x)
    assert np.allclose(a, 2.0 + 3.0 * x ** 2, atol=1e-14)
    assert np.allclose(b, -x ** 2, atol=1e-14)


def test_lifting_linear_variant():
    plant = constant_plant(10.0, ss.MeasurementSpec.neumann())
    x = np.linspace(0, 1, 101)
    a, b = ss.lifting_functions(plant, x)
    assert np.allclose(a, 10.0 * x, atol=1e-14)
    assert np.allclose(b, -x, atol=1e-14)


def test_lifting_variable_coefficients_pointwise():
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.1], [0.0])
    plant = ss.PlantSpec(coeffs, 3.0, ss.MeasurementSpec.dirichlet(), 0.5)
    x = np.linspace(0, 1, 57)
    a, _ = ss.lifting_functions(plant, x)
    expected = 2.0 * (1.0 + 0.1 * x) + 2.0 * x * 0.1 + 3.0 * x ** 2
    assert np.allclose(a, expected, atol=1e-14)


# ---------------------------------------------------------------- reduce

def test_reduce_dirichlet_first_mode(dirichlet_pipeline):
    red = dirichlet_pipeline.reduced
    assert red.a_coef[0] == pytest.approx(A1_DIRICHLET, abs=1e-8)
    assert red.b_coef[0] == pytest.approx(B1_DIRICHLET, abs=1e-8)
    assert red.out_coef[0] == pytest.approx(SQ2, rel=1e-12)


def test_reduce_neumann_first_mode(neumann_pipeline):
    red = neumann_pipeline.reduced
    assert red.a_coef[0] == pytest.approx(A1_NEUMANN, abs=1e-8)
    assert red.b_coef[0] == pytest.approx(B1_NEUMANN, abs=1e-8)
    assert red.out_coef[0] == pytest.approx(SQ2 * np.pi, rel=1e-12)


@pytest.mark.parametrize("measurement", [ss.MeasurementSpec.dirichlet(),
                                         ss.MeasurementSpec.neumann()])
@pytest.mark.parametrize("solved", [False, True])
def test_left_measurement_reads_the_datum_at_zero(measurement, solved):
    # the left trace reads phi_n(0) and the left flux phi_n'(0): each is the
    # spectrum's datum0 on the domain its measurement implies, closed-form or
    # Galerkin
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.5], [0.0, 0.0, 1.0]) if solved \
        else ss.CoefficientPair.constant(1.0, 0.0)
    plant = ss.PlantSpec(coeffs, 3.0, measurement, 0.5)
    sp = ss.solve_spectrum(coeffs, plant.boundary, 12, 1000) if solved \
        else ss.analytic_spectrum(plant.boundary, 12)
    red = ss.reduce(plant, sp, 11)
    assert np.array_equal(red.out_coef, sp.datum0[:11])
    assert np.all(sp.datum0 > 0)


def test_reduce_bounded_weight_equal_to_first_mode():
    sp = ss.analytic_spectrum(ND, 6, 2000)
    c = lambda x: SQ2 * np.cos(np.pi * np.asarray(x, float) / 2)  # noqa: E731
    plant = constant_plant(3.0, ss.MeasurementSpec.bounded(c))
    red = ss.reduce(plant, sp, 5)
    expected = np.zeros(5)
    expected[0] = 1.0
    assert np.allclose(red.out_coef, expected, atol=1e-9)


def test_reduce_norms_and_feedthrough(bounded_pipeline):
    red = bounded_pipeline.reduced
    # a = 2 + 3x^2: ||a||^2 = 4 + 4 + 9/5; b = -x^2: ||b||^2 = 1/5
    assert red.a_norm2 == pytest.approx(9.8, rel=1e-10)
    assert red.b_norm2 == pytest.approx(0.2, rel=1e-10)
    assert second_moment(red) == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert red.tail_constant == pytest.approx(1.0, rel=1e-12)  # ||c||^2, c = 1


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_projections_are_exact_on_the_laplacian(kind):
    # closed forms of a_n = <a, phi_n>, b_n = <b, phi_n> and of ||a||^2, ||b||^2
    # for p = 1, q = 0.  Relative to the largest coefficient they hold to
    # 1e-13; one coefficient alone holds to 1e-12, because rounding the Gauss
    # nodes by dx moves sqrt2 cos(k x) by k dx, with k up to 50 pi
    n = np.arange(1, 51)
    if kind == "dirichlet":
        # phi_n = sqrt2 cos(k x), k = (n - 1/2) pi; a = 2 + q_c x^2, b = -x^2
        q_c, measurement = 3.0, ss.MeasurementSpec.dirichlet()
        k, sign = (n - 0.5) * np.pi, (-1.0) ** (n + 1)
        x2 = sign / k - 2.0 * sign / k ** 3  # int x^2 cos(k x)
        a_n, b_n = SQ2 * (2.0 * sign / k + q_c * x2), -SQ2 * x2
        a_norm2, b_norm2 = 4.0 + 4.0 * q_c / 3.0 + q_c ** 2 / 5.0, 0.2
    else:
        # phi_n = sqrt2 sin(k x), k = n pi; a = q_c x, b = -x
        q_c, measurement = 10.0, ss.MeasurementSpec.neumann()
        k = n * np.pi
        x1 = -(-1.0) ** n / k  # int x sin(k x)
        a_n, b_n = SQ2 * q_c * x1, -SQ2 * x1
        a_norm2, b_norm2 = q_c ** 2 / 3.0, 1.0 / 3.0
    plant = constant_plant(q_c, measurement)
    red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 51), 50)
    for got, exact in ((red.a_coef, a_n), (red.b_coef, b_n)):
        assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))
        assert np.max(np.abs(got - exact) / np.abs(exact)) <= 1e-12
    assert red.a_norm2 == pytest.approx(a_norm2, rel=1e-13)
    assert red.b_norm2 == pytest.approx(b_norm2, rel=1e-13)


@pytest.mark.parametrize("p,q", [([1.0], [0.0]), ([1.0, 0.5], [0.0, 0.0, 1.0])])
def test_projection_rule_ignores_trailing_zero_coefficients(p, q):
    # the same plant written with trailing zeros takes the same rule, so the
    # same projections bit for bit, on the closed-form and a solved spectrum
    plants = [ss.PlantSpec(ss.CoefficientPair.from_polynomials(pc, qc), 3.0,
                           ss.MeasurementSpec.dirichlet(), 0.5)
              for pc, qc in ((p, q), (p + [0.0, 0.0], q + [0.0, 0.0, 0.0]))]
    spectrum = ss.analytic_spectrum(ND, 21) if len(p) == 1 else \
        ss.solve_spectrum(plants[0].coeffs, ND, 21)
    assert len({ss.homogenize._projection_degree(plant) for plant in plants}) == 1
    a = [ss.reduce(plant, spectrum, 20).a_coef for plant in plants]
    assert np.array_equal(a[0], a[1])


def test_bounded_weight_norms_are_exact():
    # c = 1 + x - x^3 on the Laplacian: ||c||^2 and int x^2 c as exact
    # polynomial integrals
    P = np.polynomial.polynomial
    c = np.array([1.0, 1.0, 0.0, -1.0])
    plant = constant_plant(3.0, ss.MeasurementSpec.bounded(lambda x: P.polyval(x, c)))
    red = ss.reduce(plant, ss.analytic_spectrum(plant.boundary, 51), 50)
    assert red.tail_constant == pytest.approx(P.polyval(1.0, P.polyint(P.polymul(c, c))),
                                              rel=1e-13)
    assert second_moment(red) == pytest.approx(P.polyval(1.0, P.polyint(P.polymul([0, 0, 1], c))),
                                             rel=1e-13)


def test_reduce_requires_spare_mode():
    sp = ss.analytic_spectrum(ND, 4, 2000)
    plant = constant_plant(3.0, ss.MeasurementSpec.dirichlet())
    with pytest.raises(InsufficientModes):
        ss.reduce(plant, sp, 4)


def test_reduce_rejects_mismatched_domain():
    sp = ss.analytic_spectrum(DD, 6, 2000)
    plant = constant_plant(3.0, ss.MeasurementSpec.dirichlet())
    with pytest.raises(ValueError):
        ss.reduce(plant, sp, 3)


def test_observability_coefficients_nonzero(dirichlet_pipeline, neumann_pipeline,
                                            bounded_pipeline):
    for pipe in (dirichlet_pipeline, neumann_pipeline, bounded_pipeline):
        red = pipe.reduced
        assert np.all(np.abs(red.out_coef[:red.N0]) > 1e-6)


# ---------------------------------------------------------------- N0

def test_select_n0_examples():
    nd = ss.analytic_spectrum(ND, 10, 400)
    assert ss.select_N0(nd, 3.0, 0.5) == 1
    dd = ss.analytic_spectrum(DD, 10, 400)
    assert ss.select_N0(dd, 10.0, 0.5) == 1


def test_select_n0_floor_at_one():
    nd = ss.analytic_spectrum(ND, 10, 400)
    assert ss.select_N0(nd, 0.0, 0.5) == 1  # lambda_1 alone would allow 0


def test_select_n0_multiple_unstable_modes():
    nd = ss.analytic_spectrum(ND, 10, 400)
    # q_c = 30: lambda_2 ~ 22.2 < 30.5, lambda_3 ~ 61.7 > 30.5
    assert ss.select_N0(nd, 30.0, 0.5) == 2


def test_select_n0_unreachable():
    nd = ss.analytic_spectrum(ND, 3, 400)
    with pytest.raises(DecayUnreachable):
        ss.select_N0(nd, 100.0, 0.5)


# ---------------------------------------------------------------- tail constants

MODE_COUNTS = (11, 51, 201, 801)


def laplacian_tails(kind):
    """tail_constants for p = 1, q = 0 on analytic spectra of MODE_COUNTS modes."""
    plant = constant_plant(3.0, ss.MeasurementSpec(kind))
    return [ss.tail_constants(plant, ss.analytic_spectrum(plant.boundary, m))
            for m in MODE_COUNTS]


def test_tail_constant_dirichlet_closed_form(dirichlet_pipeline):
    plant, sp = dirichlet_pipeline.plant, dirichlet_pipeline.spectrum
    value = ss.tail_constants(plant, sp)
    assert value == pytest.approx(M1_PHI, abs=1e-4)
    assert value >= M1_PHI  # safe upper bound
    values = laplacian_tails(ss.DIRICHLET_AT_0)
    assert all(v >= M1_PHI for v in values)
    assert all(v - M1_PHI <= 1e-9 * M1_PHI for v in values[1:])


def test_tail_constant_neumann_against_zeta():
    # sum_{n>=2} 2 (n pi)^2 / (n pi)^(13/4) = 2 pi^(-5/4) (zeta(5/4) - 1)
    from scipy.special import zeta
    truth = 2.0 / np.pi ** 1.25 * (zeta(1.25) - 1.0)
    values = laplacian_tails(ss.NEUMANN_AT_0)
    assert all(v >= truth for v in values)
    assert all(v - truth <= 1e-9 * truth for v in values[1:])


def test_tail_constant_monotone_in_explicit_terms():
    # each computed mode replaces its share of the remainder bound by its term
    for kind in (ss.DIRICHLET_AT_0, ss.NEUMANN_AT_0):
        values = laplacian_tails(kind)
        assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("kind", [ss.DIRICHLET_AT_0, ss.NEUMANN_AT_0])
def test_variable_coefficient_tail_above_a_long_partial_sum(kind):
    # p = 1 + x/2 has traces that rise with n, so the largest computed r_n
    # is a sample below the limit; the bound must still clear the first 401
    # terms of the series
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.5], [0.0, 0.0, 1.0])
    plant = ss.PlantSpec(coeffs, 3.0, ss.MeasurementSpec(kind), 0.5)
    long = ss.solve_spectrum(coeffs, plant.boundary, 401, 2000)
    e = 1.0 if kind == ss.DIRICHLET_AT_0 else 1.625
    reference = float(np.sum(long.datum0[1:] ** 2 / long.lambdas[1:] ** e))
    for m in (11, 51):
        assert ss.tail_constants(plant, ss.solve_spectrum(coeffs, plant.boundary, m)) >= reference


def test_import_leaves_scipy_special_unloaded():
    # the remainder bound U is a closed form, so a fresh import need not pay
    # for loading scipy.special
    src = str(Path(ss.__file__).resolve().parents[1])
    code = "import sys, specstab; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_tail_constant_bounded_is_weight_norm(bounded_pipeline):
    value = ss.tail_constants(bounded_pipeline.plant, bounded_pipeline.spectrum)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_tail_constant_eps_out_of_range(neumann_pipeline):
    for eps in (0.0, -0.1, 0.6):
        with pytest.raises(EpsOutOfRange):
            ss.tail_constants(neumann_pipeline.plant, neumann_pipeline.spectrum, eps=eps)


def test_tail_constant_numeric_path_close_to_closed_form():
    # solved spectrum of a variable p: the remainder bound takes the largest
    # computed trace
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.1], [0.0])
    sp = ss.solve_spectrum(coeffs, ND, 30, 1200)
    plant = ss.PlantSpec(coeffs, 3.0, ss.MeasurementSpec.dirichlet(), 0.5)
    value = ss.tail_constants(plant, sp)
    # crude series estimate from the computed modes alone (lower bound)
    partial = float(np.sum(sp.datum0[1:] ** 2 / sp.lambdas[1:]))
    assert value >= partial
    assert value < 2.0 * M1_PHI  # same ballpark as the constant case


# ---------------------------------------------------------------- flux consistency

def test_flux_consistency_residual_examples(dirichlet_pipeline, neumann_pipeline):
    red = dirichlet_pipeline.reduced
    # a_1 + (-lambda_1 + q_c) b_1 = -p(1) phi_1'(1) = sqrt2 pi / 2
    combo = red.a_coef[0] + (-red.spectrum.lambdas[0] + 3.0) * red.b_coef[0]
    assert combo == pytest.approx(SQ2 * np.pi / 2, rel=1e-7)
    assert abs(flux_residual(red, 1)) < 1e-6 * SQ2 * np.pi / 2

    red_n = neumann_pipeline.reduced
    combo_n = red_n.a_coef[0] + (-red_n.spectrum.lambdas[0] + 10.0) * red_n.b_coef[0]
    assert combo_n == pytest.approx(SQ2 * np.pi, rel=1e-7)
    assert abs(flux_residual(red_n, 1)) < 1e-6 * SQ2 * np.pi


@pytest.mark.parametrize("pipeline_name", ["dirichlet_pipeline", "neumann_pipeline"])
def test_flux_consistency_relative_residual_first_twenty_modes(pipeline_name, request):
    red = request.getfixturevalue(pipeline_name).reduced
    sp = red.spectrum
    dtr1 = slopes_at_1(sp)
    for n in range(1, 21):
        scale = abs(dtr1[n - 1])
        assert abs(flux_residual(red, n)) / scale < 1e-6
        # nonvanishing: the controllability witness stays well away from zero
        combo = red.a_coef[n - 1] + (-sp.lambdas[n - 1] + red.q_c) * red.b_coef[n - 1]
        assert abs(combo) > 0.5 * scale
