import numpy as np
import pytest

import specstab as ss
from specstab.errors import InsufficientModes, OrderTooSmall, UncontrollablePair, UnobservablePair

SQ2 = np.sqrt(2.0)

# gains reported for the two constant-coefficient examples
K_DIRICHLET = np.array([-5.0058, -2.7748])
L_DIRICHLET = 1.4373
K_NEUMANN = np.array([-4.5649, -0.9653])
L_NEUMANN = 0.3670


def zero_gains(N0: int) -> ss.GainSet:
    return ss.GainSet(K=np.zeros(N0 + 1), L=np.zeros(N0),
                      controller_poles=(0.0,) * (N0 + 1), observer_poles=(0.0,) * N0)


# ---------------------------------------------------------------- placement

def test_place_controller_scalar():
    K = ss.place_controller(np.array([[0.0]]), np.array([1.0]), [-1.0])
    assert K == pytest.approx([-1.0], abs=1e-12)


def test_place_controller_achieves_requested_poles(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    lam = red.spectrum.lambdas
    A1 = np.array([[0.0, 0.0], [red.a_coef[0], -lam[0] + red.q_c]])
    B1 = np.array([1.0, red.b_coef[0]])
    achieved = np.sort(np.linalg.eigvals(A1 + np.outer(B1, gains.K)).real)
    assert np.allclose(achieved, [-2.5, -1.5], atol=1e-8)


def test_place_controller_repeated_poles():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([0.0, 1.0])
    K = ss.place_controller(A, B, [-2.0, -2.0])
    achieved = np.linalg.eigvals(A + np.outer(B, K))
    assert np.allclose(np.sort(achieved.real), [-2.0, -2.0], atol=1e-7)
    assert np.allclose(achieved.imag, 0.0, atol=1e-7)


def test_place_controller_uncontrollable():
    with pytest.raises(UncontrollablePair):
        ss.place_controller(np.diag([1.0, 1.0]), np.array([1.0, 0.0]), [-1.0, -2.0])


def test_place_observer_scalar():
    L = ss.place_observer(np.array([[0.0]]), np.array([1.0]), [-1.0])
    assert L == pytest.approx([1.0], abs=1e-12)


def test_place_observer_unobservable():
    with pytest.raises(UnobservablePair):
        ss.place_observer(np.diag([-1.0, -2.0]), np.array([0.0, 0.0]), [-3.0, -4.0])


def test_reference_gains_dirichlet(dirichlet_pipeline):
    gains = dirichlet_pipeline.gains
    assert np.max(np.abs(gains.K - K_DIRICHLET)) < 1e-3
    assert abs(gains.L[0] - L_DIRICHLET) < 1e-3
    # scalar observer formula: L = (A0 + 1.5) / C0
    a0 = -dirichlet_pipeline.spectrum.lambdas[0] + 3.0
    assert gains.L[0] == pytest.approx((a0 + 1.5) / SQ2, rel=1e-9)


def test_reference_gains_neumann(neumann_pipeline):
    gains = neumann_pipeline.gains
    assert np.max(np.abs(gains.K - K_NEUMANN)) < 1e-3
    assert abs(gains.L[0] - L_NEUMANN) < 1e-3
    a0 = -neumann_pipeline.spectrum.lambdas[0] + 10.0
    assert gains.L[0] == pytest.approx((a0 + 1.5) / (SQ2 * np.pi), rel=1e-9)


def test_default_pole_rule():
    assert ss.default_poles(1, 0.5) == ((-1.5, -2.5), (-1.5,))
    assert ss.default_poles(2, 0.5) == ((-1.5, -2.5, -3.5), (-1.5, -2.5))


def test_design_gains_rejects_shallow_poles(dirichlet_pipeline):
    with pytest.raises(ValueError):
        ss.design_gains(dirichlet_pipeline.reduced, controller_poles=[-0.4, -2.0])


# ---------------------------------------------------------------- assembly

def coupling_row(model, gains):
    """C1, read off F's block (2,4) = -L C1 (rows E^N0, columns E~^{N-N0})."""
    return -model.F[model.N0 + 1, model.N + model.N0 + 1:] / gains.L[0]


def test_closed_loop_dimensions_and_c1_scaling(dirichlet_pipeline):
    model = ss.assemble_closed_loop(dirichlet_pipeline.reduced, dirichlet_pipeline.gains, 3)
    assert model.F.shape == (7, 7)
    lam = dirichlet_pipeline.spectrum.lambdas
    expected_c1 = SQ2 / np.sqrt(lam[1:3])  # sqrt2/(1.5 pi), sqrt2/(2.5 pi)
    c1 = coupling_row(model, dirichlet_pipeline.gains)
    assert np.allclose(c1, expected_c1, rtol=1e-12)
    assert np.linalg.norm(c1) == pytest.approx(
        np.hypot(SQ2 / (1.5 * np.pi), SQ2 / (2.5 * np.pi)), rel=1e-12)


def test_closed_loop_c1_scaling_neumann(neumann_pipeline):
    model = ss.assemble_closed_loop(neumann_pipeline.reduced, neumann_pipeline.gains, 4)
    lam = neumann_pipeline.spectrum.lambdas
    assert np.allclose(coupling_row(model, neumann_pipeline.gains),
                       neumann_pipeline.reduced.out_coef[1:4] / lam[1:4], rtol=1e-12)


def test_zero_gain_spectrum_multiset(dirichlet_pipeline):
    red = dirichlet_pipeline.reduced
    N, N0 = 4, red.N0
    model = ss.assemble_closed_loop(red, zero_gains(N0), N)
    lam = red.spectrum.lambdas
    plant_eigs = -lam[:N] + red.q_c
    expected = np.sort(np.concatenate([[0.0], plant_eigs[:N0], plant_eigs[:N0],
                                       plant_eigs[N0:], plant_eigs[N0:]]))
    got = np.sort(np.linalg.eigvals(model.F).real)
    assert np.allclose(got, expected, atol=1e-9)


def test_bounded_first_mode_weight_zeroes_c1():
    sp = ss.analytic_spectrum(ss.BoundarySpec(ss.NEUMANN_DIRICHLET), 6, 2000)
    c = lambda x: SQ2 * np.cos(np.pi * np.asarray(x, float) / 2)  # noqa: E731
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), 3.0,
                         ss.MeasurementSpec.bounded(c), 0.5)
    red = ss.reduce(plant, sp, 5)
    gains = ss.design_gains(red)
    model = ss.assemble_closed_loop(red, gains, 2)
    assert np.max(np.abs(coupling_row(model, gains))) < 1e-9
    # the corresponding coupling blocks of F vanish
    assert np.max(np.abs(model.F[: model.N0 + 1, model.N0 + model.N + 1:])) < 1e-9


def test_g_matrix_is_psd_and_dominated(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    model = ss.assemble_closed_loop(red, gains, 5)
    g = red.a_norm2 + red.b_norm2 * float(gains.K @ gains.K)  # bounds G = |a|^2 ee' + |b|^2 KK'
    eigs = np.linalg.eigvalsh(model.G)
    scale = max(1.0, g)
    assert eigs[0] >= -1e-12 * scale
    gap = np.linalg.eigvalsh(g * np.eye(model.dim) - model.G)
    assert gap[0] >= -1e-12 * scale


@pytest.mark.parametrize("pipeline_name", ["dirichlet_pipeline", "neumann_pipeline"])
def test_c1_norm_bounded_in_observer_order(pipeline_name, request):
    pipe = request.getfixturevalue(pipeline_name)
    rows = [coupling_row(ss.assemble_closed_loop(pipe.reduced, pipe.gains, N), pipe.gains)
            for N in range(pipe.reduced.N0 + 1, 31)]
    # the largest entry never exceeds its value at N = N0+1
    assert max(np.max(np.abs(r)) for r in rows) <= np.abs(rows[0][0]) + 1e-12
    # the Euclidean norm stays uniformly bounded by the tail constant
    assert max(np.linalg.norm(r) ** 2 for r in rows) <= pipe.reduced.tail_constant + 1e-12
    # dropping leading entries only shrinks the coupling row
    full = rows[-1]
    tail_norms = [np.linalg.norm(full[s:]) for s in range(full.size)]
    assert all(a >= b - 1e-15 for a, b in zip(tail_norms, tail_norms[1:]))


def test_block_triangular_spectrum_split(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    N, N0 = 6, red.N0
    model = ss.assemble_closed_loop(red, gains, N)
    F = model.F
    i1, i2 = slice(0, N0 + 1), slice(N0 + 1, 2 * N0 + 1)  # W_a-hat, E^N0
    i3 = slice(2 * N0 + 1, N + N0 + 1)                     # W-hat^{N-N0}
    a2 = np.diag(F[i3, i3])  # A2
    controller = np.linalg.eigvals(F[i1, i1]).real  # A1 + B1 K
    observer = np.linalg.eigvals(F[i2, i2]).real    # A0 - L C0
    # the diagonal blocks hold the placed poles and the open-loop tail modes
    assert np.allclose(np.sort(controller), np.sort(gains.controller_poles), atol=1e-8)
    assert np.allclose(np.sort(observer), np.sort(gains.observer_poles), atol=1e-8)
    assert np.array_equal(a2, -red.spectrum.lambdas[N0:N] + red.q_c)
    expected = np.sort(np.concatenate([controller, observer, a2, a2]))
    got = np.sort(np.linalg.eigvals(model.F).real)
    assert np.max(np.abs(got - expected)) < 1e-6


@pytest.mark.parametrize("pipeline_name", ["dirichlet_pipeline", "neumann_pipeline"])
def test_default_pole_abscissa(pipeline_name, request):
    pipe = request.getfixturevalue(pipeline_name)
    red = pipe.reduced
    model = ss.assemble_closed_loop(red, pipe.gains, 5)
    lam = red.spectrum.lambdas
    bound = -min(red.delta + 1.0, lam[red.N0] - red.q_c)
    assert np.max(np.linalg.eigvals(model.F).real) <= bound + 1e-8


def test_order_too_small(dirichlet_pipeline):
    with pytest.raises(OrderTooSmall):
        ss.assemble_closed_loop(dirichlet_pipeline.reduced, dirichlet_pipeline.gains,
                                dirichlet_pipeline.reduced.N0)


def test_prefix_is_the_model_assembled_at_that_order(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    top = ss.assemble_closed_loop(red, gains, 12)
    assert top.prefix(12) is top
    for N in (2, 3, 7):
        sub, assembled = top.prefix(N), ss.assemble_closed_loop(red, gains, N)
        assert (sub.N, sub.N0) == (assembled.N, assembled.N0)
        for name in ("Fc", "d", "u", "v", "F3c", "Gc", "F", "G", "Lcal"):
            assert getattr(sub, name).tobytes() == getattr(assembled, name).tobytes(), name
    with pytest.raises(OrderTooSmall, match=r"N must be >= N0\+1 = 2, got 1"):
        top.prefix(1)
    with pytest.raises(InsufficientModes):
        top.prefix(13)


def test_order_beyond_reduction(dirichlet_pipeline):
    with pytest.raises(InsufficientModes):
        ss.assemble_closed_loop(dirichlet_pipeline.reduced, dirichlet_pipeline.gains, 51)


def test_place_controller_random_round_trips():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4):
        for _ in range(8):
            A = rng.normal(size=(n, n))
            B = rng.normal(size=n)
            poles = -np.sort(rng.uniform(0.5, 6.0, size=n))
            try:
                K = ss.place_controller(A, B, poles)
            except UncontrollablePair:
                continue  # random pair may be near-deficient
            achieved = np.sort(np.linalg.eigvals(A + np.outer(B, K)).real)
            assert np.allclose(achieved, np.sort(poles), atol=1e-6)
