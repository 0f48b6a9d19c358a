import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvals, expm, svdvals

import specstab as ss
from specstab.errors import (
    CertificateRequired,
    NonPositiveSeries,
    OrderMismatch,
    OrderTooSmall,
    StepRejected,
)
from specstab import cli, simulate
from specstab.simulate import _OVERFLOW_LOG, _THETA13, _exponential, _growth_log, _propagate
from specstab.synthesis import state_layout

from conftest import (constructive_certificate, energy_by_quadrature, mode_slopes,
                      physical_generator, to_certificate_state, verified_free_p_certificate)


def zero_gains(N0):
    return ss.GainSet(K=np.zeros(N0 + 1), L=np.zeros(N0),
                      controller_poles=(0.0,) * (N0 + 1), observer_poles=(0.0,) * N0)


def dirichlet_run(pipe, N=3, T=3.0, dt=1e-3, N_sim=50):
    A = ss.assemble_sim(pipe.reduced, pipe.gains, N, N_sim)
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=N_sim, dt=dt, T=T)
    return A, ss.run(pipe.reduced, pipe.gains, N, config)


def neumann_run(pipe, N=2, T=3.0, dt=1e-3, N_sim=50):
    A = ss.assemble_sim(pipe.reduced, pipe.gains, N, N_sim)
    config = ss.SimConfig(z0=[0.0, -2.0 / 3.0, 1.0], N_sim=N_sim, dt=dt, T=T)
    return A, ss.run(pipe.reduced, pipe.gains, N, config)


# ---------------------------------------------------------------- assembly

def test_zero_gain_generator_block_diagonal():
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), 0.0,
                         ss.MeasurementSpec.dirichlet(), 0.5)
    sp = ss.analytic_spectrum(plant.boundary, 9, 400)
    red = ss.reduce(plant, sp, 8)
    A = ss.assemble_sim(red, zero_gains(red.N0), 2, 8)
    eigs = np.sort(np.linalg.eigvals(A).real)
    lam = sp.lambdas[:8]
    expected = np.sort(np.concatenate([[0.0], -lam, -lam[:2]]))
    assert np.allclose(eigs, expected, atol=1e-9)


def test_closed_loop_abscissa(dirichlet_pipeline, neumann_pipeline):
    # the run reports the spectral abscissa of the generator it steps, bit for bit
    for make, pipe, dim in ((dirichlet_run, dirichlet_pipeline, 54),
                            (neumann_run, neumann_pipeline, 53)):
        A, res = make(pipe, T=0.01)
        assert A.shape == (dim, dim)
        assert res.abscissa == float(np.max(eigvals(A).real)) < -0.5


def test_run_takes_its_order_from_the_caller(dirichlet_pipeline):
    # N_sim = 48 with N = 2 is a 53-square loop, the side of N = 3 with
    # N_sim = 47 and of N = 4 with N_sim = 46: the order is never inferred
    pipe = dirichlet_pipeline
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=48, dt=1e-3, T=0.1)
    res = ss.run(pipe.reduced, pipe.gains, 2, config)
    assert (res.N, res.N_sim) == (2, 48)
    assert res.X.shape[1] == 5 and res.snapshot_states.shape[1] == 1 + 48 + 2


def test_run_starts_the_input_at_z0_of_1(dirichlet_pipeline, neumann_pipeline):
    for pipe, z0 in ((dirichlet_pipeline, [1.0, 0.0, 1.0]),
                     (neumann_pipeline, [0.0, -2.0 / 3.0, 1.0])):
        config = ss.SimConfig(z0=z0, N_sim=50, dt=1e-3, T=0.01)
        res = ss.run(pipe.reduced, pipe.gains, 2, config)
        assert res.u[0] == float(np.polynomial.polynomial.polyval(1.0, z0))


def test_order_mismatch_guards(dirichlet_pipeline):
    red, gains = dirichlet_pipeline.reduced, dirichlet_pipeline.gains
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=50, dt=1e-3, T=0.01)
    with pytest.raises(OrderMismatch):
        ss.assemble_sim(red, gains, 10, 5)
    with pytest.raises(OrderMismatch):
        ss.assemble_sim(red, gains, 3, red.n_coef + 1)
    with pytest.raises(OrderTooSmall):
        ss.assemble_sim(red, gains, 1, 50)  # N < N0+1
    with pytest.raises(OrderTooSmall):
        ss.run(red, gains, 1, config)
    with pytest.raises(ValueError, match="gains were placed for N0 = 2"):
        ss.run(red, zero_gains(2), 3, config)


def test_no_tail_when_observer_covers_plant(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    N = N_sim = 6
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=N_sim, dt=1e-3, T=0.5)
    res = ss.run(pipe.reduced, pipe.gains, N, config)
    assert np.max(np.abs(res.zeta)) == 0.0
    # without a tail the unestimated-gain errors decouple exactly:
    # e_n(t) = e_n(0) exp((-lambda_n+q_c) t) for n > N0
    N0 = pipe.reduced.N0
    _, error, scale = state_layout(pipe.reduced, N)
    err = res.X[:, error[N0:]] / scale[N0:]
    lam = pipe.spectrum.lambdas[N0:N]
    analytic = err[0] * np.exp(np.outer(res.times, -lam + pipe.reduced.q_c))
    assert np.max(np.abs(err - analytic)) < 1e-8 * max(1.0, np.max(np.abs(err[0])))


# ---------------------------------------------------------------- stepping

def all_plant_modes(res):
    """w_1..w_N_sim at every step, from the stored snapshots."""
    return res.modes(range(res.times.size))[0]


def test_exact_stepping_dt_consistency(dirichlet_pipeline):
    _, coarse = dirichlet_run(dirichlet_pipeline, T=0.2, dt=1e-3)
    _, fine = dirichlet_run(dirichlet_pipeline, T=0.2, dt=5e-4)
    coarse_w, fine_w = all_plant_modes(coarse), all_plant_modes(fine)
    scale = np.max(np.abs(coarse_w[0]))
    diff = np.max(np.abs(fine_w[::2] - coarse_w))
    assert diff < 1e-10 * scale


def sequential_trajectory(A, state, dt, steps):
    """Reference stepping: one matrix-vector product per step."""
    E = expm(A * dt)
    traj = np.empty((steps + 1, state.size))
    traj[0] = state
    for k in range(steps):
        state = E @ state
        traj[k + 1] = state
    return traj


def physical_series(res, ref, K):
    """Every per-step series of a SimResult, from a stored trajectory of
    physical states (u, w_1..w_N_sim, what_1..what_N) by direct formulas;
    v = K (u, what_1..what_N0)."""
    N, N0, N_sim = res.N, res.reduced.N0, res.N_sim
    u, w, what = ref[:, 0], ref[:, 1: 1 + N_sim], ref[:, 1 + N_sim:]
    lam = res.reduced.spectrum.lambdas[:N_sim]
    l2_sq = np.sum(w ** 2, axis=1)
    energy_sq = w ** 2 @ lam
    tail = w[:, N:] ** 2 * lam[N:]
    return {
        "u": u, "v": u * K[0] + what[:, :N0] @ K[1:],
        "zeta": w[:, N:] @ res.reduced.out_coef[N:N_sim],
        "l2_sq": l2_sq, "energy_sq": energy_sq,
        "eta": np.sqrt(u ** 2 + np.sum(what ** 2, axis=1) + l2_sq + energy_sq),
        "tail_energy_sq": np.sum(tail, axis=1),
    }


def reference_series(A, res, ref):
    """Every per-step series and the state X of a SimResult, from a stored
    trajectory of full states (X, w_{N+1..N_sim}) of the generator A; the
    modes are read through synthesis.state_layout."""
    N = res.N
    what_at, error_at, scale = state_layout(res.reduced, N)
    X, tail = ref[:, : 2 * N + 1], ref[:, 2 * N + 1:]
    what = X[:, what_at]
    w = np.hstack([what + X[:, error_at] / scale, tail])
    physical = np.hstack([X[:, :1], w, what])
    series = physical_series(res, physical, A[0, : res.reduced.N0 + 1])
    series["X"] = X
    return series


def assert_matches_sequential(A, res, dt):
    x0 = res.snapshot_states[0]
    ref = sequential_trajectory(A, x0, dt, res.times.size - 1)
    for name, expected in reference_series(A, res, ref).items():
        got = getattr(res, name)
        assert got.shape == expected.shape, name
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), name
    snap = res.snapshot_steps
    assert snap[0] == 0 and np.all(np.diff(snap) == res.snapshot_stride)
    assert snap[-1] + res.snapshot_stride > res.times.size - 1
    assert np.max(np.abs(res.snapshot_states - ref[snap])) <= 1e-12 * np.max(np.abs(ref))
    # states between snapshots are recomputed from the snapshot before them
    between = [*range(min(res.times.size, 2 * res.snapshot_stride + 1)), res.times.size - 1]
    states = np.array([res.state(k) for k in between])
    assert np.max(np.abs(states - ref[between])) <= 1e-12 * np.max(np.abs(ref))


PIPELINES = ("dirichlet_pipeline", "neumann_pipeline", "bounded_pipeline")


@pytest.mark.parametrize("N, N_sim", [(2, 50), (3, 50), (8, 50), (50, 50)])
@pytest.mark.parametrize("fixture", PIPELINES)
def test_generator_is_the_reference_in_certificate_coordinates(request, fixture, N, N_sim):
    # (X, w_{N+1..N_sim}) = T (u, w_1..N_sim, what_1..N), so the two
    # generators are similar through T, and X's block is F itself
    pipe = request.getfixturevalue(fixture)
    A = ss.assemble_sim(pipe.reduced, pipe.gains, N, N_sim)
    ref = physical_generator(pipe.reduced, pipe.gains, N, N_sim)
    T = to_certificate_state(pipe.reduced, N, N_sim)
    mapped = np.linalg.solve(T, A @ T)
    assert np.max(np.abs(mapped - ref)) <= 1e-12 * np.max(np.abs(ref))
    F = ss.assemble_closed_loop(pipe.reduced, pipe.gains, N).F
    assert np.array_equal(A[: 2 * N + 1, : 2 * N + 1], F)


@pytest.mark.parametrize("N", [2, 3, 8])
@pytest.mark.parametrize("fixture", PIPELINES)
def test_run_matches_a_sequential_run_of_the_reference(request, fixture, N):
    # the physical initial state (u0, w0, what = 0), with u0 = z0(1) and w0
    # the projection of z0 - x^k u0, stepped by the reference generator one
    # product at a time
    pipe = request.getfixturevalue(fixture)
    N_sim, dt = 50, 1e-3
    z0 = [0.0, -2.0 / 3.0, 1.0] if fixture == "neumann_pipeline" else [1.0, 0.0, 1.0]
    u0 = np.polynomial.polynomial.polyval(1.0, z0)
    res = ss.run(pipe.reduced, pipe.gains, N, ss.SimConfig(z0=z0, N_sim=N_sim, dt=dt, T=1.0))
    k = pipe.plant.lifting_exponent
    x, weights = pipe.spectrum.quadrature(2)
    w0 = pipe.spectrum.phi(x, N_sim) @ (
        weights * (np.polynomial.polynomial.polyval(x, z0) - x ** k * u0))
    x0 = np.concatenate([[u0], w0, np.zeros(N)])
    ref = sequential_trajectory(physical_generator(pipe.reduced, pipe.gains, N, N_sim),
                                x0, dt, res.times.size - 1)
    for name, expected in physical_series(res, ref, pipe.gains.K).items():
        got = getattr(res, name)
        assert got.shape == expected.shape, name
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected)), name


@pytest.mark.parametrize("steps", [1, 2, 7, 3000])
def test_blocked_stepping_matches_sequential(dirichlet_pipeline, neumann_pipeline, steps):
    dt = 1e-3
    for make in (dirichlet_run, neumann_run):
        pipe = dirichlet_pipeline if make is dirichlet_run else neumann_pipeline
        A, res = make(pipe, T=steps * dt, dt=dt)
        assert res.times.size == steps + 1
        assert_matches_sequential(A, res, dt)


def varcoef_size_loop():
    """A 203 x 203 closed loop, the size of the varcoef-fine benchmark's
    (N_sim = 200, N = 2), on an analytic spectrum."""
    weight = lambda x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), 3.0,
                         ss.MeasurementSpec.bounded(weight), 0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 201, 4000)
    reduced = ss.reduce(plant, spectrum, 200)
    gains = ss.design_gains(reduced)
    A = ss.assemble_sim(reduced, gains, 2, 200)
    assert A.shape == (203, 203)
    return plant, spectrum, reduced, gains, A


@pytest.mark.parametrize("steps", [1, 2, 49, 50])
def test_propagate_matches_sequential(dirichlet_pipeline, steps):
    # steps = b^2 = 49 (b = 7) leaves one row in the last block; b^2 + 1 = 50
    # takes b = 8 and cuts the last block after three rows
    A, dt = ss.assemble_sim(dirichlet_pipeline.reduced, dirichlet_pipeline.gains, 3, 50), 1e-3
    rng = np.random.default_rng(steps)
    x0 = rng.normal(size=A.shape[0])
    linear, quadratic = rng.normal(size=(A.shape[0], 9)), rng.normal(size=(A.shape[0], 2))
    ref = sequential_trajectory(A, x0, dt, steps)
    lin, quad, states = _propagate(expm(A * dt), x0, steps, linear, quadratic, 3)
    for got, expected in ((lin, ref @ linear), (quad, ref ** 2 @ quadratic), (states, ref[::3])):
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_blocked_stepping_matches_sequential_at_varcoef_size():
    _, spectrum, reduced, gains, A = varcoef_size_loop()
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=200, dt=1e-3, T=3.0)
    assert_matches_sequential(A, ss.run(reduced, gains, 2, config), 1e-3)


@pytest.fixture(scope="module")
def example_loops():
    """The loops (A_cl, dt) that the two examples and the varcoef-fine
    benchmark config simulate.  varcoef-fine is p = 1 + x/2, q = x^2,
    c = 1, q_c = 3, delta = 0.5, 200 simulated modes at its certified N = 2."""
    loops = {}
    for preset in ("dirichlet-example", "neumann-example"):
        config = cli.parse_config(preset)
        record = cli.solve(config)
        loops[preset] = (ss.assemble_sim(record.reduced, record.gains, record.N,
                                         config["sim"]["n_sim"]), config["sim"]["dt"])
    plant = ss.PlantSpec(ss.CoefficientPair.from_polynomials([1.0, 0.5], [0.0, 0.0, 1.0]), 3.0,
                         ss.MeasurementSpec.bounded(np.ones_like), 0.5)
    reduced = ss.reduce(plant, ss.solve_spectrum(plant.coeffs, plant.boundary, 201), 200)
    loops["varcoef-fine"] = (ss.assemble_sim(reduced, ss.design_gains(reduced), 2, 200), 1e-4)
    return loops


@pytest.mark.parametrize("name, dim", [("dirichlet-example", 53), ("neumann-example", 53),
                                       ("varcoef-fine", 203)])
def test_exponential_matches_expm(example_loops, name, dim):
    A, dt = example_loops[name]
    assert A.shape == (dim, dim)
    assert np.linalg.norm(A * dt, 1) > _THETA13  # so that the squarings are gemm's
    E, ref = _exponential(A, dt), expm(A * dt)
    assert np.linalg.norm(E - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)
    # below theta13 nothing is squared, and the result is expm's own
    short = 0.5 * _THETA13 / np.linalg.norm(A, 1)
    assert np.array_equal(_exponential(A, short), expm(A * short))


@pytest.fixture
def expm_scalings(monkeypatch):
    """The (Pade degree, squarings) that each scipy expm call picks, in call
    order, recorded by a wrapper around its choice."""
    from scipy.linalg import _matfuncs
    picked, choose = [], _matfuncs.pick_pade_structure

    def recorded(Am):
        picked.append(choose(Am))
        return picked[-1]

    monkeypatch.setattr(_matfuncs, "pick_pade_structure", recorded)
    return picked


@pytest.mark.parametrize("name", ["dirichlet-example", "neumann-example", "varcoef-fine"])
def test_exponential_leaves_expm_nothing_to_square(example_loops, expm_scalings, name):
    A, dt = example_loops[name]
    _exponential(A, dt)
    expm(A * dt)
    # expm of the step itself squares; of _exponential's scaled step it does not
    assert len(expm_scalings) == 2
    assert expm_scalings[0][1] == 0 and expm_scalings[1][1] > 0


def test_expm_squares_only_past_theta13(expm_scalings):
    # a nonnegative matrix's eta is its 1-norm, so expm starts to square just
    # past _THETA13; non-normal ones of 1-norm _THETA13 are not squared either
    rng = np.random.default_rng(5)
    ones = np.full((4, 4), 0.25)
    expm(ones * _THETA13)
    expm(ones * _THETA13 * (1 + 1e-12))
    assert [s for _, s in expm_scalings] == [0, 1]
    for n in (2, 9, 53):
        for jordan in (np.diag(10.0 ** rng.uniform(0, 5, n - 1), 1) - np.eye(n),
                       np.triu(rng.normal(size=(n, n)) * 1e3)):
            expm(jordan * (_THETA13 / np.linalg.norm(jordan, 1)))
    assert [s for _, s in expm_scalings[2:]] == [0] * 6


def test_step_rejected_when_the_step_overflows(dirichlet_pipeline):
    # the open loop grows like e^(0.53 t): one step of dt = 2000 overflows E
    pipe = dirichlet_pipeline
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=50, dt=2000.0, T=4000.0)
    with pytest.raises(StepRejected, match="one-step norm inf"):
        ss.run(pipe.reduced, zero_gains(pipe.reduced.N0), 3, config)


def test_run_and_trace_memory_independent_of_trajectory_size():
    # the varcoef-fine horizon of 30000 steps, where a stored trajectory
    # alone would be (steps+1)(1+N_sim+N) doubles; at 3000 steps the fixed
    # cost of expm and of the step norm would dominate the bound
    _, spectrum, reduced, gains, _ = varcoef_size_loop()
    n_star, cert = ss.minimal_N(reduced, gains, N_max=10)
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=200, dt=1e-4, T=3.0)
    tracemalloc.start()
    try:
        res = ss.run(reduced, gains, n_star, config)
        trace = ss.lyapunov_trace(res, cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    steps = res.times.size - 1
    assert steps == 30000 and trace.V.size == steps + 1
    assert peak < (steps + 1) * res.E.shape[0] * 8 / 4


def test_open_loop_growth_rate(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    A = ss.assemble_sim(pipe.reduced, zero_gains(pipe.reduced.N0), 3, 50)
    dominant = float(np.max(np.linalg.eigvals(A).real))
    assert dominant == pytest.approx(3.0 - np.pi ** 2 / 4, rel=1e-9)  # ~0.5326
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=50, dt=1e-3, T=10.0)
    res = ss.run(pipe.reduced, zero_gains(pipe.reduced.N0), 3, config)
    # fit late enough that the constant forced response is negligible
    rate = ss.fit_decay(res.times, res.eta, (8.0, 10.0))
    assert -rate == pytest.approx(dominant, abs=2e-2)


def test_step_rejected_on_overflow_horizon(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=50, dt=0.1, T=1300.0)
    with pytest.raises(StepRejected):
        ss.run(pipe.reduced, zero_gains(pipe.reduced.N0), 3, config)


@pytest.mark.parametrize("seed", range(6))
def test_growth_bound_covers_every_power_of_a_stable_non_normal_step(seed):
    # a stable step whose norm exceeds 1, so that steps log |E|_2 > 600: the
    # repeated-squaring bound holds for every power up to steps, and stays
    # far below the one-step bound
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    T = np.triu(rng.normal(size=(4, 4)) * rng.uniform(2, 20), 1)
    T[np.diag_indices(4)] = rng.uniform(0.9, 0.995, 4) * rng.choice([-1, 1], 4)
    E, steps = Q @ T @ Q.T, 3000
    step_norm = float(np.linalg.norm(E, 2))
    assert steps * np.log(step_norm) > _OVERFLOW_LOG
    growth = _growth_log(E, step_norm, steps)
    power, worst = np.eye(4), 1.0
    for _ in range(steps):
        power = power @ E
        worst = max(worst, float(np.linalg.norm(power, 2)))
    assert np.log(worst) <= growth * (1 + 1e-12) + 1e-12
    assert growth < _OVERFLOW_LOG


def counted_svdvals(monkeypatch) -> list:
    """The shapes of every matrix simulate hands to svdvals."""
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(simulate, "svdvals", counted)
    return shapes


def test_step_guard_skips_the_svd_when_the_cheap_bound_passes(dirichlet_pipeline, monkeypatch):
    # the dirichlet example: 3000 steps log sqrt(|E|_1 |E|_inf) = 65 <= 600
    shapes = counted_svdvals(monkeypatch)
    pipe = dirichlet_pipeline
    ss.run(pipe.reduced, pipe.gains, 2, ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=50))
    assert shapes == []


def test_step_guard_decides_on_the_two_norm_when_the_cheap_bound_fails(dirichlet_pipeline,
                                                                         monkeypatch):
    # E = Q D, Q the reflection I - (2/n) 1 1' and D = diag(0.5..0.9), is
    # non-normal with |E|_2 = 0.9, but its 1- and inf-norms exceed 2, so
    # sqrt(|E|_1 |E|_inf) fails over 3000 steps; svdvals then decides, and
    # the loop still runs
    N, N_sim = 2, 50
    n = 1 + N_sim + N
    E = (np.eye(n) - (2.0 / n) * np.ones((n, n))) @ np.diag(np.linspace(0.5, 0.9, n))
    assert not np.allclose(E @ E.T, E.T @ E)
    assert np.linalg.norm(E, 2) == pytest.approx(0.9, rel=1e-12)
    cheap = np.sqrt(np.linalg.norm(E, 1) * np.linalg.norm(E, np.inf))
    assert 3000 * np.log(cheap) > _OVERFLOW_LOG
    shapes = counted_svdvals(monkeypatch)
    monkeypatch.setattr(simulate, "_exponential", lambda A, dt: E)
    pipe = dirichlet_pipeline
    res = ss.run(pipe.reduced, pipe.gains, N, ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=N_sim))
    assert shapes == [(n, n)]
    assert res.times.size == 3001 and np.all(np.isfinite(res.eta))


def test_growth_bound_rejects_a_growing_step():
    E = np.diag([1.001, 0.5])
    assert _growth_log(E, 1.001, 10 ** 6) == np.inf
    assert _growth_log(E, 1.001, 1000) == pytest.approx(1000 * np.log(1.001))


def test_sim_config_keeps_a_private_copy_of_z0(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    z0 = np.array([1.0, 0.0, 1.0])  # 1 + x^2
    config = ss.SimConfig(z0=z0, N_sim=50, dt=1e-3, T=0.01)
    assert z0.flags.writeable and not config.z0.flags.writeable
    z0[0] = 7.0
    assert config.z0[0] == 1.0
    from_list = ss.SimConfig(z0=[1, 0, 1], N_sim=50, dt=1e-3, T=0.01)
    assert from_list.z0.dtype == float and from_list.z0.shape == (3,)
    a = ss.run(pipe.reduced, pipe.gains, 3, config)
    b = ss.run(pipe.reduced, pipe.gains, 3, from_list)
    assert np.array_equal(a.eta, b.eta)
    for bad in (np.ones((2, 3)), 1.0, []):
        with pytest.raises(ValueError):
            ss.SimConfig(z0=bad)


def test_compatibility_checks(dirichlet_pipeline, neumann_pipeline):
    pipe = dirichlet_pipeline
    with pytest.raises(ValueError):  # z0'(0) != 0 on the flat-at-0 path
        ss.run(pipe.reduced, pipe.gains, 3, ss.SimConfig(z0=[0.0, 1.0], N_sim=50, dt=1e-3,
                                                         T=0.1))
    pn = neumann_pipeline
    with pytest.raises(ValueError):  # z0(0) != 0 on the pinned-at-0 path
        ss.run(pn.reduced, pn.gains, 2, ss.SimConfig(z0=[1.0], N_sim=50, dt=1e-3, T=0.1))


# ---------------------------------------------------------------- fields

def test_reconstructed_boundary_conditions(dirichlet_pipeline, neumann_pipeline):
    steps = [0, 100, 500]
    _, res = dirichlet_run(dirichlet_pipeline, T=0.5)
    dphi0 = mode_slopes(dirichlet_pipeline.spectrum, [0.0], res.N_sim)[:, 0]
    w_rows, z_rows, _ = res.fields(steps)
    for step, w, z in zip(steps, w_rows, z_rows):
        assert abs(w[-1]) <= 1e-8
        assert abs(res.modes([step])[0][0] @ dphi0) <= 1e-6  # w'(0)
        assert z[-1] == pytest.approx(res.u[step], abs=1e-8)
    _, resn = neumann_run(neumann_pipeline, T=0.5)
    for w in resn.fields(steps)[0]:
        assert abs(w[-1]) <= 1e-8
        assert abs(w[0]) <= 1e-6


@pytest.mark.parametrize("stride", [1, 40])
@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_fields_match_modal_sums(dirichlet_pipeline, neumann_pipeline, kind, stride):
    # w = sum_{n<=N_sim} w_n phi_n, z = w + x^k u and the observation error
    # w - sum_{n<=N} what_n phi_n, each from the state at that step
    if kind == "dirichlet":
        _, res = dirichlet_run(dirichlet_pipeline, T=0.5)
        pipe, k = dirichlet_pipeline, 2
    else:
        _, res = neumann_run(neumann_pipeline, T=0.5)
        pipe, k = neumann_pipeline, 1
    steps = np.arange(0, res.times.size, 37)
    w, z, error = res.fields(steps, stride)
    x = pipe.spectrum.grid[::stride]
    phi = pipe.spectrum.phi(x)
    # the physical states (u, w_1..w_N_sim, what_1..what_N) of the reference
    T = to_certificate_state(pipe.reduced, res.N, res.N_sim)
    states = [np.linalg.solve(T, res.state(i)) for i in steps]
    w_ref = np.array([s[1: 1 + res.N_sim] @ phi[: res.N_sim] for s in states])
    z_ref = w_ref + np.outer([s[0] for s in states], x ** k)
    error_ref = w_ref - np.array([s[1 + res.N_sim:] @ phi[: res.N] for s in states])
    assert w.shape == z.shape == error.shape == (steps.size, x.size)
    for got, ref in ((w, w_ref), (z, z_ref), (error, error_ref)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_field_energy_matches_modal_sum(dirichlet_pipeline):
    _, res = dirichlet_run(dirichlet_pipeline, T=0.5)
    for step in (0, 250):
        modal = res.energy_sq[step]
        quad = energy_by_quadrature(res, step)
        assert abs(quad - modal) <= 1e-4 * max(modal, 1e-12)


def test_feedthrough_consistency_bounded(bounded_pipeline):
    pipe = bounded_pipeline
    config = ss.SimConfig(z0=[1.0, 0.0, 1.0], N_sim=50, dt=1e-3, T=0.3)
    res = ss.run(pipe.reduced, pipe.gains, 3, config)
    # y = int c z for c = 1 and z = sum w_n phi_n + x^2 u, at the spectrum's nodes;
    # the feedthrough int x^2 c of the lifting is exact there too
    x, w = pipe.spectrum.quadrature(2)
    phi = pipe.spectrum.phi(x, 50)
    feedthrough = float(w @ x ** 2)
    steps = [0, 150, 300]
    for step in steps:
        modes = res.modes([step])[0][0]
        y_field = float(w @ (modes @ phi + x ** 2 * res.u[step]))
        y_tilde_modal = float(modes @ pipe.reduced.out_coef[:50])
        reconstructed = y_field - feedthrough * res.u[step]
        assert reconstructed == pytest.approx(y_tilde_modal, abs=1e-8)


# ---------------------------------------------------------------- decay fit

def test_fit_decay_exact_exponential():
    t = np.linspace(0, 5, 2001)
    assert ss.fit_decay(t, np.exp(-0.7 * t), (0.5, 4.5)) == pytest.approx(0.7, abs=1e-6)


def test_fit_decay_constant_series():
    t = np.linspace(0, 2, 101)
    assert ss.fit_decay(t, np.ones_like(t), (0.0, 2.0)) == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_rejects_nonpositive():
    t = np.linspace(0, 1, 11)
    with pytest.raises(NonPositiveSeries):
        ss.fit_decay(t, t - 0.5, (0.0, 1.0))


def test_fit_decay_stops_at_the_first_zero():
    # an underflowed tail (and anything after it) is left out of the fit;
    # a zero among the window's first 2 samples leaves nothing to fit
    t = np.linspace(0, 10, 101)
    y = np.exp(-0.7 * t)
    y[60:] = 0.0
    y[80] = 1.0
    assert ss.fit_decay(t, y, (1.0, 10.0)) == pytest.approx(0.7, abs=1e-9)
    with pytest.raises(NonPositiveSeries):
        ss.fit_decay(t, y, (5.9, 10.0))


def test_fit_decay_warns_when_the_fit_has_rank_1():
    # two window samples one rounding step apart: the scaled design [t, 1]
    # has rank 1 at rcond = 2 eps, and fit_decay warns as polyfit does
    t = np.array([1.0, np.nextafter(1.0, 2.0)])
    y = np.array([1.0, 0.5])
    with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
        rate = ss.fit_decay(t, y, (1.0, 2.0))
    with pytest.warns(np.exceptions.RankWarning):
        assert rate == -np.polyfit(t, np.log(y), 1)[0]


@pytest.mark.parametrize("zero_at", [None, 3000], ids=["positive", "underflow"])
def test_fit_decay_keeps_the_bits_of_polyfit(zero_at):
    # fit_decay builds np.polyfit's scaled degree-1 fit in place: the same
    # rate to the bit, also on a series that reaches 0 inside the window
    rng = np.random.default_rng(7)
    t = np.arange(9001) * 1e-3
    y = np.exp(-0.9 * t) * (1.0 + 0.05 * rng.random(t.size))
    if zero_at is not None:
        y[zero_at:] = 0.0
    inside = (t >= 1.0) & (t <= 9.0)
    tw, yw = t[inside], y[inside]
    n = np.flatnonzero(yw <= 0)[0] if zero_at is not None else yw.size
    assert ss.fit_decay(t, y, (1.0, 9.0)) == -np.polyfit(tw[:n], np.log(yw[:n]), 1)[0]


def test_run_series_keep_the_bits_of_the_whole_run_expressions(dirichlet_pipeline):
    # run squares the modes once, column by column, and forms eta one chunk
    # of rows at a time: energy_sq and eta equal, bit for bit, the whole-run
    # expressions through _modes, over more than one chunk
    pipe, N = dirichlet_pipeline, 3
    _, res = dirichlet_run(pipe, N=N, T=5.0)
    assert res.times.size > simulate._CHUNK_ROWS
    w_sq = np.square(simulate._modes(res.X, pipe.reduced, N)[0])
    lam = pipe.reduced.spectrum.lambdas[:N]
    assert np.array_equal(res.energy_sq, w_sq @ lam + res.tail_energy_sq)
    what = state_layout(pipe.reduced, N)[0]
    eta = np.sqrt(np.square(res.X[:, 0]) + np.square(res.X[:, what]).sum(axis=1)
                  + res.l2_sq + res.energy_sq)
    assert np.array_equal(res.eta, eta)


# ---------------------------------------------------------------- lyapunov trace

def test_lyapunov_trace_monotone_dirichlet(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    model = ss.assemble_closed_loop(pipe.reduced, pipe.gains, 8)
    cert = constructive_certificate(model, pipe.reduced, 2.0)
    assert cert.feasible
    _, res = dirichlet_run(pipe, N=8)
    trace = ss.lyapunov_trace(res, cert)
    assert trace.V[0] > 0
    assert trace.max_increment <= 1e-6 * trace.V[0]


def test_lyapunov_trace_keeps_the_bits_of_the_whole_run_expressions(dirichlet_pipeline):
    # V and its largest weighted increment, formed one chunk of rows at a
    # time, equal the whole-run expressions bit for bit
    pipe = dirichlet_pipeline
    model = ss.assemble_closed_loop(pipe.reduced, pipe.gains, 8)
    cert = constructive_certificate(model, pipe.reduced, 2.0)
    _, res = dirichlet_run(pipe, N=8, T=5.0)
    assert res.times.size > simulate._CHUNK_ROWS
    trace = ss.lyapunov_trace(res, cert)
    V = np.einsum("ki,ij,kj->k", res.X, cert.P, res.X) + cert.gamma * res.tail_energy_sq
    assert np.array_equal(trace.V, V)
    weighted = V * np.exp(2.0 * pipe.reduced.delta * res.times)
    assert trace.max_increment == np.max(np.diff(weighted))


def test_lyapunov_trace_monotone_neumann_free_p(neumann_pipeline):
    cert = verified_free_p_certificate(neumann_pipeline, 2)
    _, res = neumann_run(neumann_pipeline, N=2)
    trace = ss.lyapunov_trace(res, cert)
    assert trace.max_increment <= 1e-6 * trace.V[0]


def test_lyapunov_trace_zero_initial_data(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    model = ss.assemble_closed_loop(pipe.reduced, pipe.gains, 8)
    cert = constructive_certificate(model, pipe.reduced, 2.0)
    config = ss.SimConfig(z0=[0.0], N_sim=50, dt=1e-3, T=0.2)
    res = ss.run(pipe.reduced, pipe.gains, 8, config)
    trace = ss.lyapunov_trace(res, cert)
    assert np.max(np.abs(trace.V)) == 0.0


def test_lyapunov_trace_requires_feasible_certificate(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    model = ss.assemble_closed_loop(pipe.reduced, pipe.gains, 2)
    infeasible = constructive_certificate(model, pipe.reduced, 2.0)
    assert not infeasible.feasible
    _, res = dirichlet_run(pipe, N=2, T=0.1)
    with pytest.raises(CertificateRequired):
        ss.lyapunov_trace(res, infeasible)


def test_lyapunov_trace_refuses_a_certificate_of_another_order(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    model = ss.assemble_closed_loop(pipe.reduced, pipe.gains, 8)
    cert = constructive_certificate(model, pipe.reduced, 2.0)
    assert cert.feasible
    _, res = dirichlet_run(pipe, N=3, T=0.1)
    with pytest.raises(OrderMismatch, match="certificate is for N = 8, run used N = 3"):
        ss.lyapunov_trace(res, cert)


def test_lyapunov_trace_flags_corrupted_p(dirichlet_pipeline):
    pipe = dirichlet_pipeline
    model = ss.assemble_closed_loop(pipe.reduced, pipe.gains, 8)
    cert = constructive_certificate(model, pipe.reduced, 2.0)
    corrupted = ss.Certificate(
        P=-cert.P.copy(), alpha=cert.alpha, beta=cert.beta, gamma=cert.gamma,
        eps=cert.eps, theta1_max_eig=cert.theta1_max_eig, theta2=cert.theta2,
        theta3=cert.theta3, p_min_eig=cert.p_min_eig, feasible=True,
        N=cert.N, N0=cert.N0)
    _, res = dirichlet_run(pipe, N=8, T=1.0)
    trace = ss.lyapunov_trace(res, corrupted)
    assert trace.max_increment > 1e-6 * abs(trace.V[0])
