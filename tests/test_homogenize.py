import numpy as np
import pytest

import specstab as ss
from specstab.errors import DecayUnreachable, EpsOutOfRange, InsufficientModes

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
    assert red.feedthrough == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert red.tail_constant == pytest.approx(1.0, rel=1e-12)  # ||c||^2, c = 1


def test_reduce_projections_bit_identical_to_whole_matrix_product():
    # the varcoef-fine coefficients, grid (16080 intervals) and order
    # (N = n_sim = 200), where reduce weights 32 rows at a time; the
    # analytic eigenfunctions serve only as rows to project on
    N = 200
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.5], [0.0, 0.0, 1.0])
    weight = lambda x: 1.0 + np.sin(3.0 * np.asarray(x, dtype=float))  # noqa: E731
    plant = ss.PlantSpec(coeffs, 3.0, ss.MeasurementSpec.bounded(weight), 0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 201, 16080)
    red = ss.reduce(plant, spectrum, N)
    x, w, phi = spectrum.grid, spectrum.weights, spectrum.eigenfunctions
    a, b = ss.lifting_functions(plant, x)
    assert np.array_equal(red.a_coef, (phi[:N] * w) @ a)
    assert np.array_equal(red.b_coef, (phi[:N] * w) @ b)
    assert np.array_equal(red.out_coef, (phi[:N] * w) @ weight(x))


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

def test_tail_constant_dirichlet_closed_form(dirichlet_pipeline):
    plant, sp = dirichlet_pipeline.plant, dirichlet_pipeline.spectrum
    value = ss.tail_constants(plant, sp)
    assert value == pytest.approx(M1_PHI, abs=1e-4)
    assert value >= M1_PHI  # safe upper bound


def test_tail_constant_neumann_against_zeta(neumann_pipeline):
    from scipy.special import zeta
    plant, sp = neumann_pipeline.plant, neumann_pipeline.spectrum
    truth = 2.0 / np.pi ** 1.25 * (zeta(1.25) - 1.0)
    value = ss.tail_constants(plant, sp, eps=0.125, tail_terms=10 ** 5)
    assert value >= truth
    assert value == pytest.approx(truth, rel=1e-4)


def test_tail_constant_monotone_in_explicit_terms(dirichlet_pipeline, neumann_pipeline):
    for pipe in (dirichlet_pipeline, neumann_pipeline):
        values = [ss.tail_constants(pipe.plant, pipe.spectrum, tail_terms=T)
                  for T in (60, 120, 240, 960)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_tail_constant_bounded_is_weight_norm(bounded_pipeline):
    value = ss.tail_constants(bounded_pipeline.plant, bounded_pipeline.spectrum)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_tail_constant_eps_out_of_range(neumann_pipeline):
    for eps in (0.0, -0.1, 0.6):
        with pytest.raises(EpsOutOfRange):
            ss.tail_constants(neumann_pipeline.plant, neumann_pipeline.spectrum, eps=eps)


def test_tail_constant_numeric_path_close_to_closed_form():
    # solved spectrum, no constant-coefficient extension available beyond its modes
    coeffs = ss.CoefficientPair.from_polynomials([1.0, 0.1], [0.0])
    sp = ss.solve_spectrum(coeffs, ND, 30, 1200)
    plant = ss.PlantSpec(coeffs, 3.0, ss.MeasurementSpec.dirichlet(), 0.5)
    value = ss.tail_constants(plant, sp)
    # crude series estimate from the computed modes alone (lower bound)
    partial = float(np.sum(sp.trace0[1:] ** 2 / sp.lambdas[1:]))
    assert value >= partial
    assert value < 2.0 * M1_PHI  # same ballpark as the constant case


# ---------------------------------------------------------------- flux consistency

def test_flux_consistency_residual_examples(dirichlet_pipeline, neumann_pipeline):
    red = dirichlet_pipeline.reduced
    # a_1 + (-lambda_1 + q_c) b_1 = -p(1) phi_1'(1) = sqrt2 pi / 2
    combo = red.a_coef[0] + (-red.spectrum.lambdas[0] + 3.0) * red.b_coef[0]
    assert combo == pytest.approx(SQ2 * np.pi / 2, rel=1e-7)
    assert abs(ss.flux_consistency_residual(red, 1)) < 1e-6 * SQ2 * np.pi / 2

    red_n = neumann_pipeline.reduced
    combo_n = red_n.a_coef[0] + (-red_n.spectrum.lambdas[0] + 10.0) * red_n.b_coef[0]
    assert combo_n == pytest.approx(SQ2 * np.pi, rel=1e-7)
    assert abs(ss.flux_consistency_residual(red_n, 1)) < 1e-6 * SQ2 * np.pi


@pytest.mark.parametrize("pipeline_name", ["dirichlet_pipeline", "neumann_pipeline"])
def test_flux_consistency_relative_residual_first_twenty_modes(pipeline_name, request):
    red = request.getfixturevalue(pipeline_name).reduced
    sp = red.spectrum
    dtr1 = sp.dtrace1()
    for n in range(1, 21):
        scale = abs(dtr1[n - 1])
        assert abs(ss.flux_consistency_residual(red, n)) / scale < 1e-6
        # nonvanishing: the controllability witness stays well away from zero
        combo = red.a_coef[n - 1] + (-sp.lambdas[n - 1] + red.q_c) * red.b_coef[n - 1]
        assert abs(combo) > 0.5 * scale
