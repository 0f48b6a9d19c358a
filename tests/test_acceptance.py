"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -rA` (or -s) to see every line.
"""

import time

import numpy as np
import pytest

import specstab as ss
from specstab.sdpa import read_sdpa

from conftest import (exact_search, flux_residual, mode_slopes, slopes_at_1, validate_bounds,
                      verified_free_p_certificate)

ND = ss.BoundarySpec(ss.NEUMANN_DIRICHLET)
DD = ss.BoundarySpec(ss.DIRICHLET_DIRICHLET)
SQ2 = np.sqrt(2.0)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def fresh_gains(q_c, measurement):
    plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c, measurement, 0.5)
    spectrum = ss.analytic_spectrum(plant.boundary, 12, 2000)
    reduced = ss.reduce(plant, spectrum, 10)
    return ss.design_gains(reduced)


def preset_sim(pipe, z0, N=3, T=3.0, dt=1e-3, N_sim=50):
    """The closed loop from z0 (ascending coefficients) and u0 = z0(1)."""
    config = ss.SimConfig(z0=z0, N_sim=N_sim, dt=dt, T=T)
    return ss.run(pipe.reduced, pipe.gains, N, config)


def test_criterion_01_gain_reproduction_dirichlet():
    t0 = time.perf_counter()
    gains = fresh_gains(3.0, ss.MeasurementSpec.dirichlet())
    elapsed = time.perf_counter() - t0
    dk = np.max(np.abs(gains.K - [-5.0058, -2.7748]))
    dl = abs(gains.L[0] - 1.4373)
    ok = dk < 1e-3 and dl < 1e-3 and elapsed < 1.0
    report(1, ok, f"K = {gains.K.round(5)} (max dev {dk:.1e}), "
                  f"L = {gains.L[0]:.5f} (dev {dl:.1e}), {elapsed:.2f}s")
    assert dk < 1e-3 and dl < 1e-3
    assert elapsed < 1.0


def test_criterion_02_gain_reproduction_neumann():
    t0 = time.perf_counter()
    gains = fresh_gains(10.0, ss.MeasurementSpec.neumann())
    elapsed = time.perf_counter() - t0
    dk = np.max(np.abs(gains.K - [-4.5649, -0.9653]))
    dl = abs(gains.L[0] - 0.3670)
    ok = dk < 1e-3 and dl < 1e-3 and elapsed < 1.0
    report(2, ok, f"K = {gains.K.round(5)} (max dev {dk:.1e}), "
                  f"L = {gains.L[0]:.5f} (dev {dl:.1e}), {elapsed:.2f}s")
    assert dk < 1e-3 and dl < 1e-3
    assert elapsed < 1.0


def test_criterion_03_certificate_feasibility(dirichlet_pipeline, neumann_pipeline,
                                              tmp_path):
    t0 = time.perf_counter()
    # SDPA exports at the reported orders, round-trip parsed
    d_path, n_path = tmp_path / "d3.dat-s", tmp_path / "n2.dat-s"
    model_d3 = ss.assemble_closed_loop(dirichlet_pipeline.reduced,
                                       dirichlet_pipeline.gains, 3)
    ss.export_sdpa(model_d3, dirichlet_pipeline.reduced, 2.0, d_path)
    model_n2 = ss.assemble_closed_loop(neumann_pipeline.reduced,
                                       neumann_pipeline.gains, 2)
    ss.export_sdpa(model_n2, neumann_pipeline.reduced, 2.0, n_path)
    probs = {}
    for name, path in (("dirichlet", d_path), ("neumann", n_path)):
        prob = read_sdpa(path)
        clone = tmp_path / f"{name}-again.dat-s"
        prob.write(clone)
        assert path.read_bytes() == clone.read_bytes()
        probs[name] = prob
    assert probs["dirichlet"].m_dim == 30 and probs["dirichlet"].block_sizes == [8, 7, -1, -1, -1]
    assert probs["neumann"].m_dim == 17 and probs["neumann"].block_sizes == [6, 5, -1, -1, -1, -1]

    # the exact free-P decision, smallest N first at each order's alpha*; the
    # returned certificate independently re-verified on a reduction at N*
    n_star, verified = {}, {}
    for name, pipe in (("dirichlet", dirichlet_pipeline), ("neumann", neumann_pipeline)):
        n_star[name], cert = ss.minimal_N(pipe.reduced, pipe.gains, N_max=10)
        reduced_star = ss.reduce(pipe.plant, pipe.spectrum, n_star[name])
        model_star = ss.assemble_closed_loop(reduced_star, pipe.gains, n_star[name])
        verified[name] = ss.verify_certificate(model_star, reduced_star, cert.P, cert.alpha,
                                               cert.beta, cert.gamma, cert.eps)

    # the constructive reference, the Lyapunov P at alpha*, is strictly weaker:
    # it fails the left trace at N = 5 and the left flux at every N <= 10 (its
    # Theta1 needs lambda_{N+1}^(3/8) to dominate |G| |P Lcal|^2 M2phi, i.e. N
    # in the hundreds); the exact margins of those failures are recorded
    def constructive_margin(pipe, N):
        model = ss.assemble_closed_loop(pipe.reduced, pipe.gains, N)
        P = ss.lyapunov_solve(model, pipe.reduced.delta)
        return exact_search(model, pipe.reduced, P, ss.optimal_alpha(pipe.reduced, N))[1]

    dirichlet_5 = constructive_margin(dirichlet_pipeline, 5)
    neumann_margins = {N: constructive_margin(neumann_pipeline, N) for N in range(2, 11)}
    constructive_fails = dirichlet_5 > 0 and all(m > 0 for m in neumann_margins.values())
    elapsed = time.perf_counter() - t0

    ok = n_star == {"dirichlet": 2, "neumann": 2} and constructive_fails \
        and all(c.feasible for c in verified.values()) and elapsed < 30.0
    detail = (f"SDPA exports well-formed (30 vars/5 blocks, 17 vars/6 blocks); "
              f"free-P N* = {n_star['dirichlet']} (left trace, alpha = "
              f"{verified['dirichlet'].alpha:.5g}) and {n_star['neumann']} (left flux, "
              f"alpha = {verified['neumann'].alpha:.5g}), both re-verified; constructive "
              f"Lyapunov P proved infeasible at left-trace N = 5 (margin {dirichlet_5:.4f}) "
              f"and left-flux N <= 10 (margins {min(neumann_margins.values()):.4f}.."
              f"{max(neumann_margins.values()):.4f}); {elapsed:.1f}s")
    report(3, ok, detail)
    assert elapsed < 30.0
    assert n_star == {"dirichlet": 2, "neumann": 2}
    assert constructive_fails, f"constructive margins: {dirichlet_5}, {neumann_margins}"
    for name, again in verified.items():
        assert again.feasible and again.p_min_eig > 0, name
        assert again.theta1_max_eig <= 0 and again.theta2 <= 0 and again.theta3 >= 0, name


def test_criterion_04_closed_loop_decay(dirichlet_pipeline, neumann_pipeline):
    t0 = time.perf_counter()
    res_d = preset_sim(dirichlet_pipeline, [1.0, 0.0, 1.0], N=3)  # 1 + x^2
    res_n = preset_sim(neumann_pipeline, [0.0, -2.0 / 3.0, 1.0], N=2)  # x (x - 2/3)
    rate_d = ss.fit_decay(res_d.times, res_d.eta, (1.0, 3.0))
    rate_n = ss.fit_decay(res_n.times, res_n.eta, (1.0, 3.0))
    absc_d, absc_n = res_d.abscissa, res_n.abscissa
    elapsed = time.perf_counter() - t0
    ok = rate_d >= 0.5 and rate_n >= 0.5 and absc_d < -0.5 and absc_n < -0.5 \
        and elapsed < 10.0
    report(4, ok, f"fitted rates {rate_d:.3f}/{rate_n:.3f} >= 0.5, "
                  f"abscissas {absc_d:.3f}/{absc_n:.3f} < -0.5, {elapsed:.1f}s")
    assert rate_d >= 0.5 and rate_n >= 0.5
    assert absc_d < -0.5 and absc_n < -0.5
    assert elapsed < 10.0


def test_criterion_05_lyapunov_monotonicity(dirichlet_pipeline, neumann_pipeline):
    n_star, cert = ss.minimal_N(dirichlet_pipeline.reduced, dirichlet_pipeline.gains,
                                N_max=10)
    res = preset_sim(dirichlet_pipeline, [1.0, 0.0, 1.0], N=n_star)
    trace = ss.lyapunov_trace(res, cert)
    tol = 1e-6 * trace.V[0]
    # also recorded: the free-P certificate at alpha = 2 drives the left-flux example
    cert_n = verified_free_p_certificate(neumann_pipeline, 2)
    res_n = preset_sim(neumann_pipeline, [0.0, -2.0 / 3.0, 1.0], N=2)
    trace_n = ss.lyapunov_trace(res_n, cert_n)
    ok = trace.max_increment <= tol and trace_n.max_increment <= 1e-6 * trace_n.V[0]
    report(5, ok, f"max increment of V e^(2 delta t): left trace at N* = {n_star} "
                  f"{trace.max_increment:.2e} (tol {tol:.2e}), left flux "
                  f"{trace_n.max_increment:.2e}")
    assert trace.max_increment <= tol
    assert trace_n.max_increment <= 1e-6 * trace_n.V[0]


def test_criterion_06_spectral_solver_accuracy():
    # note: for p = 1, q = 0 with the pinned-at-0 domain the upper band limit
    # is tight (lambda_n = pi^2 n^2 exactly), so the margins there are zero up
    # to roundoff; they are judged at validate_bounds' stated tolerance
    # -1e-9*max(1, lambda_n), i.e. validate_bounds must not fail
    coeffs = ss.CoefficientPair.constant(1.0, 0.0)
    worst_lam, worst_trace, worst_margin = 0.0, 0.0, np.inf
    for bspec in (ND, DD):
        num = ss.solve_spectrum(coeffs, bspec, 50, 2000)
        ana = ss.analytic_spectrum(bspec, 50, 200)
        worst_lam = max(worst_lam,
                        float(np.max(np.abs(num.lambdas - ana.lambdas) / ana.lambdas)))
        # datum0: phi_n(0) = sqrt2 on ND, phi_n'(0) = sqrt2 n pi on DD
        worst_trace = max(worst_trace,
                          float(np.max(np.abs(num.datum0 - ana.datum0) / ana.datum0)))
        lo, hi = validate_bounds(num, coeffs)  # fails on a margin below the tolerance
        worst_margin = min(worst_margin, float(lo.min()), float(hi.min()))
    var = ss.CoefficientPair.from_polynomials([1.0, 0.1], [0.0, 1.0])
    sp_var = ss.solve_spectrum(var, ND, 5, 4000)
    lo, hi = validate_bounds(sp_var, var)
    assert np.all(lo > 0) and np.all(hi > 0)  # genuinely interior for variable p, q
    tol = -1e-9 * max(1.0, float(sp_var.lambdas[-1]), np.pi ** 2 * 50 ** 2)
    ok = worst_lam < 1e-6 and worst_trace < 1e-4 and worst_margin >= tol
    report(6, ok, f"lambda rel err {worst_lam:.1e} < 1e-6, trace rel err "
                  f"{worst_trace:.1e} < 1e-4, band margins >= {worst_margin:.1e} "
                  f"(tight bound judged at the stated -1e-9 scale tolerance)")
    assert worst_lam < 1e-6
    assert worst_trace < 1e-4
    assert worst_margin >= tol


def test_criterion_07_flux_consistency_identity():
    worst = 0.0
    for q_c, measurement in ((3.0, ss.MeasurementSpec.dirichlet()),
                             (10.0, ss.MeasurementSpec.neumann())):
        plant = ss.PlantSpec(ss.CoefficientPair.constant(1.0, 0.0), q_c, measurement, 0.5)
        spectrum = ss.analytic_spectrum(plant.boundary, 21, 4000)
        reduced = ss.reduce(plant, spectrum, 20)
        dtr1 = slopes_at_1(spectrum)
        for n in range(1, 21):
            rel = abs(flux_residual(reduced, n)) / abs(dtr1[n - 1])
            worst = max(worst, rel)
    ok = worst < 1e-6
    report(7, ok, f"max relative residual over n <= 20, both liftings: {worst:.1e} < 1e-6")
    assert worst < 1e-6


def test_criterion_08_tail_constants(dirichlet_pipeline, neumann_pipeline):
    m1 = ss.tail_constants(dirichlet_pipeline.plant, dirichlet_pipeline.spectrum)
    m1_err = abs(m1 - (1.0 - 8.0 / np.pi ** 2))
    # independent oracle: direct 1e6-term summation of phi_n'(0)^2/lambda_n^(13/8)
    # with an integral tail bound
    n = np.arange(2, 10 ** 6 + 1, dtype=float)
    terms = 2.0 * (n * np.pi) ** 2 / ((n * np.pi) ** 2) ** (1.5 + 0.125)
    M = 10 ** 6
    oracle = float(np.sum(terms)) + (2.0 / np.pi ** 1.25) * (M ** -1.25 + M ** -0.25 / 0.25)
    m2 = ss.tail_constants(neumann_pipeline.plant, neumann_pipeline.spectrum, eps=0.125)
    m2_rel = abs(m2 - oracle) / oracle
    ok = m1_err < 1e-4 and m2_rel < 1e-4
    report(8, ok, f"M1 err {m1_err:.1e} < 1e-4 (abs), M2(1/8) vs 1e6-term oracle "
                  f"rel {m2_rel:.1e} < 1e-4")
    assert m1_err < 1e-4
    assert m2_rel < 1e-4


def test_criterion_09_lyapunov_norm_boundedness(dirichlet_pipeline, neumann_pipeline):
    details = []
    ok = True
    for name, pipe in (("dirichlet", dirichlet_pipeline), ("neumann", neumann_pipeline)):
        norms = ss.lyapunov_norm_sweep(pipe.plant, pipe.spectrum, N_list=range(2, 13))
        ratio = norms.max() / norms.min()
        last = norms[-5:]
        Ns = np.arange(8, 13, dtype=float)
        slope = float(np.polyfit(Ns, last, 1)[0])
        bound = 1e-2 * float(last.mean())
        details.append(f"{name}: max/min {ratio:.4f}, slope {slope:.1e} (bound {bound:.1e})")
        ok = ok and ratio < 5.0 and slope <= bound
        assert ratio < 5.0
        assert slope <= bound
    report(9, ok, "; ".join(details))


def test_criterion_10_property_suites(dirichlet_pipeline, neumann_pipeline,
                                      bounded_pipeline):
    # orthonormality
    sp = ss.solve_spectrum(ss.CoefficientPair.constant(1.0, 0.0), ND, 20, 1000)
    x, w = sp.quadrature(0)
    phi, dphi = sp.phi(x), mode_slopes(sp, x)
    gram = (phi * w) @ phi.T
    gram_dev = float(np.max(np.abs(gram - np.eye(20))))
    assert gram_dev < 1e-13
    # energy identity
    rng = np.random.default_rng(5)
    c = rng.normal(size=20)
    modal = float(np.sum(sp.lambdas * c ** 2))
    energy_dev = abs(modal - float(w @ (c @ dphi) ** 2)) / modal
    assert energy_dev <= 1e-12
    # Schur-complement sign equivalence on sampled certificates
    model = ss.assemble_closed_loop(dirichlet_pipeline.reduced, dirichlet_pipeline.gains, 3)
    red = dirichlet_pipeline.reduced
    n = model.dim
    free_p = verified_free_p_certificate(dirichlet_pipeline, 3)
    for P, beta, gamma in [
        (free_p.P, free_p.beta, free_p.gamma),
        (np.eye(n), 1.0, 1.0),
        (ss.lyapunov_solve(model, 0.5), 50.0, 0.02),
    ]:
        S = model.F.T @ P + P @ model.F + red.delta * 2 * P + 2.0 * gamma * model.G
        T1 = np.zeros((n + 1, n + 1))
        T1[:n, :n] = S
        T1[:n, n] = T1[n, :n] = P @ model.Lcal
        T1[n, n] = -beta
        m_full = float(np.linalg.eigvalsh(0.5 * (T1 + T1.T))[-1])
        PL = P @ model.Lcal
        m_schur = float(np.linalg.eigvalsh(S + np.outer(PL, PL) / beta)[-1])
        tol = 1e-9 * max(1.0, np.max(np.abs(T1)))
        assert (m_full <= tol) == (m_schur <= tol) or min(abs(m_full), abs(m_schur)) <= tol
    # Theta2 dominance spot checks (in-domain measurement)
    redb = bounded_pipeline.reduced
    modelb = ss.assemble_closed_loop(redb, bounded_pipeline.gains, 8)
    lam = redb.spectrum.lambdas
    certb = ss.verify_certificate(modelb, redb, np.eye(modelb.dim), 2.0, 3.0, 0.7)
    for nn in range(9, 41):
        gamma_n = 2 * 0.7 * (-0.5 * lam[nn - 1] + redb.q_c + redb.delta) \
            + 3.0 * redb.tail_constant / lam[nn - 1]
        assert gamma_n <= certb.theta2 + 1e-12
    # Theta3 tail dominance (left-flux measurement)
    certn = verified_free_p_certificate(neumann_pipeline, 2)
    lamn = neumann_pipeline.spectrum.lambdas
    for nn in range(3, 11):
        gamma_n = 2 * certn.gamma * (-0.5 * lamn[nn - 1] + 10.0 + 0.5) \
            + certn.beta * neumann_pipeline.reduced.tail_constant * lamn[nn - 1] ** 0.625
        assert gamma_n <= -certn.theta3 * lamn[nn - 1] + 2 * certn.gamma * 10.5 + 1e-9
    # field boundary-condition residuals
    res = preset_sim(dirichlet_pipeline, [1.0, 0.0, 1.0], N=3, T=0.5)
    dphi0 = mode_slopes(dirichlet_pipeline.spectrum, [0.0], res.N_sim)[:, 0]
    bc_worst = 0.0
    for step, w in zip([0, 250, 500], res.fields([0, 250, 500])[0]):
        bc_worst = max(bc_worst, abs(w[-1]))
        assert abs(w[-1]) <= 1e-8
        assert abs(res.modes([step])[0][0] @ dphi0) <= 1e-6  # w'(0)
    report(10, True, f"orthonormality dev {gram_dev:.1e}, energy identity rel "
                     f"{energy_dev:.1e}, Schur equivalence, tail dominance, "
                     f"boundary residuals <= {max(bc_worst, 1e-12):.1e}")
