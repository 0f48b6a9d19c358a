"""Stability certificates: construction, verification, search, and export.

A certificate is a tuple (P, alpha, beta, gamma, eps, N) whose sign
conditions prove closed-loop decay at rate delta:

    Theta1 = [[F'P + PF + 2 delta P + alpha gamma G, P Lcal],
              [Lcal' P,                              -beta  ]]  <= 0,
    Theta2 <= 0, and (left-flux measurement only) Theta3 >= 0,

where Theta2/Theta3 couple the finite design to the spectral tail through
the measurement tail constant; optimal_alpha gives the best alpha in closed
form.  P is constructed from the shifted Lyapunov equation
F'P + PF + 2 delta P = -I, which reduces the search over (beta, gamma) to one
concave scalar problem.  With P free the conditions form an LMI in
(P, beta, gamma): export_sdpa writes it in SDPA format, and
free_p_certificate solves it with a dense log-barrier method.

Every order is certified on the caller's one ReducedPlant and GainSet: the
closed loop at order N is assembled from the first N modes of that
reduction, and eps is the reduction's tail_eps, so the certificate is proved
on the model whose gains were designed and which is simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .errors import DimensionMismatch, NoFeasibleN, NotHurwitzShifted, OrderTooSmall
from .homogenize import BOUNDED, NEUMANN_AT_0, ReducedPlant, reduce
from .sdpa import SdpaProblem
from .sturm_liouville import Spectrum
from .synthesis import ClosedLoopMatrices, GainSet, assemble_closed_loop, design_gains

#: absolute feasibility tolerance, scaled by each quantity's magnitude
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Verified (or best-effort) certificate data with its margins."""

    P: np.ndarray
    alpha: float
    beta: float
    gamma: float
    eps: float
    theta1_max_eig: float
    theta2: float
    theta3: float
    p_min_eig: float
    feasible: bool
    N: int
    N0: int

    def __post_init__(self):
        self.P.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "P": [[float(v) for v in row] for row in self.P],
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "eps": self.eps, "theta1_max_eig": self.theta1_max_eig,
            "theta2": self.theta2,
            "theta3": None if math.isinf(self.theta3) else self.theta3,
            "p_min_eig": self.p_min_eig, "feasible": self.feasible,
            "N": self.N, "N0": self.N0,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        return cls(
            P=np.array(d["P"], dtype=float),
            alpha=float(d["alpha"]), beta=float(d["beta"]), gamma=float(d["gamma"]),
            eps=float(d["eps"]), theta1_max_eig=float(d["theta1_max_eig"]),
            theta2=float(d["theta2"]),
            theta3=math.inf if d["theta3"] is None else float(d["theta3"]),
            p_min_eig=float(d["p_min_eig"]), feasible=bool(d["feasible"]),
            N=int(d["N"]), N0=int(d["N0"]),
        )


def lyapunov_solve(F: np.ndarray, delta: float) -> np.ndarray:
    """Unique P > 0 with F'P + PF + 2 delta P = -I.

    Solved by the Bartels-Stewart method (Schur form of F + delta I);
    requires the spectral abscissa of F + delta I to be negative.  The
    residual is checked against 1e-9 before returning.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    if F.shape != (n, n):
        raise DimensionMismatch(f"F must be square, got {F.shape}")
    A = F + delta * np.eye(n)
    abscissa = float(np.max(np.linalg.eigvals(A).real))
    if abscissa >= 0:
        raise NotHurwitzShifted(
            f"spectral abscissa of F + delta*I is {abscissa:.3e} >= 0")
    eye = np.eye(n)
    P = solve_continuous_lyapunov(A.T, -eye)
    P = 0.5 * (P + P.T)
    residual = float(np.max(np.abs(F.T @ P + P @ F + 2 * delta * P + eye)))
    if residual > 1e-9:
        raise NotHurwitzShifted(
            f"Lyapunov residual {residual:.3e} exceeds 1e-9 (ill-conditioned solve)")
    return P


def _tail_factor(model: ClosedLoopMatrices, reduced: ReducedPlant) -> float:
    """Coefficient of beta in Theta2 for the relevant measurement kind."""
    lam_next = float(reduced.spectrum.lambdas[model.N])
    kind = reduced.plant.measurement.kind
    if kind == BOUNDED:
        return reduced.tail_constant / lam_next
    if kind == NEUMANN_AT_0:
        return reduced.tail_constant * lam_next ** (0.5 + reduced.tail_eps)
    return reduced.tail_constant


def _theta_scalars(model: ClosedLoopMatrices, reduced: ReducedPlant,
                   alpha: float, beta: float, gamma: float) -> tuple[float, float]:
    lam_next = float(reduced.spectrum.lambdas[model.N])
    theta2 = 2.0 * gamma * (-(1.0 - 1.0 / alpha) * lam_next + reduced.q_c + reduced.delta) \
        + beta * _tail_factor(model, reduced)
    if reduced.plant.measurement.kind == NEUMANN_AT_0:
        theta3 = 2.0 * gamma * (1.0 - 1.0 / alpha) \
            - beta * reduced.tail_constant / lam_next ** (0.5 - reduced.tail_eps)
    else:
        theta3 = math.inf
    return theta2, theta3


def _theta1(model: ClosedLoopMatrices, P: np.ndarray, alpha: float,
            beta: float, gamma: float, delta: float) -> np.ndarray:
    n = model.dim
    T = np.empty((n + 1, n + 1))
    T[:n, :n] = model.F.T @ P + P @ model.F + 2.0 * delta * P + alpha * gamma * model.G
    PL = P @ model.Lcal
    T[:n, n] = PL
    T[n, :n] = PL
    T[n, n] = -beta
    return T


def verify_certificate(model: ClosedLoopMatrices, reduced: ReducedPlant,
                       P: np.ndarray, alpha: float, beta: float, gamma: float,
                       eps: float | None = None) -> Certificate:
    """Evaluate all certificate margins for the given data; never mutates inputs.

    Feasibility is the conjunction of P > 0, max eig Theta1 < 0, Theta2 < 0,
    and Theta3 > 0 where applicable, each with a strict margin of 1e-9 scaled
    by the quantity's magnitude, so no value at rounding level is accepted.
    eps is the reduction's tail_eps; any other value is a ValueError.
    """
    if eps is None:
        eps = reduced.tail_eps
    elif eps != reduced.tail_eps:
        raise ValueError(f"eps = {eps} is not the reduction's tail_eps = {reduced.tail_eps}")
    P = np.asarray(P, dtype=float)
    n = model.dim
    if P.shape != (n, n):
        raise DimensionMismatch(f"P must be {n}x{n} for N = {model.N}, got {P.shape}")
    if reduced.n_coef < model.N or reduced.spectrum.n_modes < model.N + 1:
        raise DimensionMismatch("reduced plant does not cover the model order")
    T1 = _theta1(model, P, alpha, beta, gamma, reduced.delta)
    T1 = 0.5 * (T1 + T1.T)
    theta1_max = float(np.linalg.eigvalsh(T1)[-1])
    theta2, theta3 = _theta_scalars(model, reduced, alpha, beta, gamma)
    p_min = float(np.linalg.eigvalsh(0.5 * (P + P.T))[0])
    tol1 = _FEAS_TOL * max(1.0, float(np.max(np.abs(T1))))
    lam_next = float(reduced.spectrum.lambdas[model.N])
    scale2 = max(1.0, 2 * gamma * (1 + lam_next), beta * _tail_factor(model, reduced))
    tol2 = _FEAS_TOL * scale2
    tolP = _FEAS_TOL * max(1.0, float(np.max(np.abs(P))))
    feasible = (p_min > tolP) and (theta1_max < -tol1) and (theta2 < -tol2)
    if math.isfinite(theta3):
        tol3 = _FEAS_TOL * max(1.0, 2 * gamma, beta * reduced.tail_constant)
        feasible = feasible and (theta3 > tol3)
    return Certificate(P=P.copy(), alpha=alpha, beta=beta, gamma=gamma, eps=eps,
                       theta1_max_eig=theta1_max, theta2=theta2, theta3=theta3,
                       p_min_eig=p_min, feasible=bool(feasible),
                       N=model.N, N0=model.N0)


def _beta_slope(model: ClosedLoopMatrices, reduced: ReducedPlant, alpha: float) -> float:
    """Largest beta/gamma with Theta2 <= 0 (and Theta3 >= 0 for the left flux)."""
    lam_next = float(reduced.spectrum.lambdas[model.N])
    k = 2.0 * ((1.0 - 1.0 / alpha) * lam_next - reduced.q_c - reduced.delta) \
        / _tail_factor(model, reduced)
    if reduced.plant.measurement.kind == NEUMANN_AT_0:
        k = min(k, 2.0 * (1.0 - 1.0 / alpha) * lam_next ** (0.5 - reduced.tail_eps)
                / reduced.tail_constant)
    return k


def optimal_alpha(model: ClosedLoopMatrices, reduced: ReducedPlant) -> float:
    """The alpha > 1 maximising k(alpha)/alpha, in closed form.

    Theta1 depends on alpha only through s = alpha gamma and the other
    conditions read beta <= (k/alpha) s, so feasibility, with P constructed or
    free, grows with k/alpha.  With u = 1/alpha, c = q_c + delta and
    lambda = lambda_{N+1}, Theta2 <= 0 reads beta <= a s u (lambda (1 - u) - c);
    the left flux's Theta3 >= 0 reads beta <= a s u lambda (1 - u) for every
    eps, binding only when c <= 0 (then u = 1/2).  Otherwise the vertex
    u = (lambda - c)/(2 lambda) maximises; lambda > c holds beyond N0.
    """
    lam_next = float(reduced.spectrum.lambdas[model.N])
    c = reduced.q_c + reduced.delta
    if reduced.plant.measurement.kind == NEUMANN_AT_0 and c <= 0.0:
        return 2.0
    if lam_next + c <= 0.0:
        raise ValueError(
            f"lambda_(N+1) + q_c + delta = {lam_next + c:.6g} <= 0: k(alpha)/alpha "
            f"increases towards alpha = 1, so no alpha > 1 maximises it")
    return 2.0 * lam_next / (lam_next - c)


def _exact_search(model: ClosedLoopMatrices, reduced: ReducedPlant, P: np.ndarray,
                  alpha: float) -> tuple[Certificate, float]:
    """Best (beta, gamma) for a Lyapunov P at fixed alpha > 1, and its margin.

    With F'P + PF + 2 delta P = -I, the Schur complement turns Theta1 <= 0
    into beta >= h(gamma) = v'(I - alpha gamma G)^-1 v, while Theta2/Theta3
    read beta <= k gamma.  G is a nonnegative sum of two outer products, so
    G = sum g_i u_i u_i' with g_i >= 0 (clipped against rounding), and with
    c_i = (u_i'v)^2, h = |v|^2 + sum c_i s g_i/(1 - s g_i) for s = alpha gamma.  A certificate exists iff the concave
    phi(gamma) = k gamma - h(gamma) is positive somewhere on
    (0, 1/(alpha max g)); its maximiser is found by bisection on phi'.
    The margin -phi/h at the maximiser is negative iff feasible; an
    infeasible result carries the Theta values at (gamma*, beta = h(gamma*)).
    """
    v = P @ model.Lcal
    g, U = np.linalg.eigh(model.G)
    g = np.clip(g, 0.0, None)
    v2, c = float(v @ v), (U.T @ v) ** 2
    k = _beta_slope(model, reduced, alpha)

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
    cert = verify_certificate(model, reduced, P, alpha, beta, gamma)
    return cert, -phi / h_star


def _dense_blocks(prob: SdpaProblem) -> list[np.ndarray]:
    """Per block, the symmetric matrices F_0..F_m of an SdpaProblem, shape (m+1, s, s)."""
    blocks = [np.zeros((prob.m_dim + 1, abs(size), abs(size))) for size in prob.block_sizes]
    for k, mat in prob.entries.items():
        for (b, i, j), v in mat.items():
            blocks[b - 1][k, i - 1, j - 1] = blocks[b - 1][k, j - 1, i - 1] = v
    return blocks


def free_p_certificate(model: ClosedLoopMatrices, reduced: ReducedPlant,
                       alpha: float) -> Certificate:
    """Free-P certificate at fixed alpha by a log-barrier SDP solve.

    Solves the LMI that export_sdpa writes, with P, beta and gamma all free:
    maximise the smallest block margin t subject to F_b(x) - t I >= 0 for
    every block F_b(x) = sum_k x_k F_k of that problem (t takes the place of
    its mu offsets).  The blocks are homogeneous in (P, beta, gamma), so
    tr P + beta + gamma = 1 fixes the scale without bounding their ratios;
    beta is eliminated through it.  The barrier method (Vandenberghe & Boyd,
    SIAM Review 1996) minimises -tau t - sum_b log det F_b by damped Newton
    steps for tau = 1, 10, 100, ..., until the central-path bound
    t* - t <= (sum of block sizes)/tau settles t to 1e-3 relative (or to
    1e-9 of the largest coefficient when t* is 0).  The point goes through
    verify_certificate; it is reported infeasible, with its margins, unless t
    exceeds that 1e-9 floor, so no margin at rounding level is claimed.
    """
    prob = _free_p_sdp(model, reduced, alpha)
    n = model.dim
    rows, cols = np.triu_indices(n)
    k_beta = rows.size  # 0-based index of beta; gamma follows it
    diag = np.flatnonzero(rows == cols)
    norm = np.zeros(prob.m_dim)
    norm[diag] = 1.0
    norm[k_beta:] = 1.0
    keep = np.arange(prob.m_dim) != k_beta
    # y = (x without beta, t); block b reads consts[b] + sum_j y_j coefs[b][j]
    consts, coefs = [], []
    for F in _dense_blocks(prob):
        F_beta = F[1 + k_beta]
        consts.append(F_beta)
        coefs.append(np.concatenate([F[1:][keep] - norm[keep, None, None] * F_beta,
                                     -np.eye(F.shape[1])[None]]))
    nu = sum(C.shape[0] for C in consts)
    tol_abs = _FEAS_TOL * max(float(np.max(np.abs(A))) for A in coefs)

    def blocks(y):
        return [C + np.tensordot(y, A, 1) for C, A in zip(consts, coefs)]

    def barrier(y, tau):
        """-tau t - sum log det of the blocks, or inf outside the cone."""
        try:
            chols = [np.linalg.cholesky(M) for M in blocks(y)]
        except np.linalg.LinAlgError:
            return math.inf
        return -tau * y[-1] - 2.0 * sum(float(np.sum(np.log(np.diag(L)))) for L in chols)

    # strictly feasible start: P = I and gamma = beta, scaled to the
    # normalisation, with t below every block's smallest eigenvalue
    y = np.zeros(k_beta + 2)
    y[diag] = y[k_beta] = 1.0 / (n + 2)
    y[-1] = min(float(np.linalg.eigvalsh(M)[0]) for M in blocks(y)) - 1.0
    tau = 1.0
    while True:
        for _ in range(50):
            grad = np.zeros_like(y)
            grad[-1] = -tau
            hess = np.zeros((y.size, y.size))
            for M, A in zip(blocks(y), coefs):
                Li = np.linalg.inv(np.linalg.cholesky(M))
                W = (Li @ A @ Li.T).reshape(y.size, -1)
                grad -= W[:, ::M.shape[0] + 1].sum(axis=1)
                hess += W @ W.T
            dy = np.linalg.solve(hess, -grad)
            decrement = float(-grad @ dy)
            if decrement < 1e-6:
                break
            f0, step = barrier(y, tau), 1.0
            while step >= 1e-8 and barrier(y + step * dy, tau) > f0 - 0.25 * step * decrement:
                step *= 0.5
            if step < 1e-8:
                break  # no descent left at working precision
            y = y + step * dy
        gap = nu / tau
        if gap <= max(1e-3 * abs(y[-1]), tol_abs):
            break
        tau *= 10.0
    x = np.insert(y[:-1], k_beta, 1.0 - norm[keep] @ y[:-1])
    P = np.zeros((n, n))
    P[rows, cols] = x[:k_beta]
    P[cols, rows] = x[:k_beta]
    cert = verify_certificate(model, reduced, P, alpha, float(x[k_beta]),
                              float(x[k_beta + 1]))
    return cert if y[-1] > tol_abs else replace(cert, feasible=False)


def certify_order(reduced: ReducedPlant, gains: GainSet,
                  N: int) -> tuple[Certificate, dict]:
    """Constructive certificate at order N and alpha = optimal_alpha, and its record.

    The closed loop is assembled from the first N modes of reduced with the
    given gains; P solves the shifted Lyapunov equation and (beta, gamma)
    come from the exact scalar problem.  The record holds the exact margin
    (negative when the scalar problem has room), alpha and Theta2/Theta3 of
    the returned point; an infeasible result proves that this P fails at this
    N for every alpha.  An infeasible point sits at beta = h(gamma*), where
    Theta1 is singular by construction, so its max eig Theta1 is rounding
    noise and the record leaves it out; a verified Certificate keeps it.
    """
    model = assemble_closed_loop(reduced, gains, N)
    P = lyapunov_solve(model.F, reduced.delta)
    alpha = optimal_alpha(model, reduced)
    cert, margin = _exact_search(model, reduced, P, alpha)
    record = {"margin": margin, "alpha": alpha, "theta2": cert.theta2,
              "theta3": None if math.isinf(cert.theta3) else cert.theta3}
    return cert, record


def minimal_N(reduced: ReducedPlant, gains: GainSet, N_max: int = 10):
    """Smallest N <= N_max with a verified constructive certificate.

    Every N from N0+1 up goes through certify_order on the same reduction
    (monotonicity in N is not assumed); reduced must carry at least N_max
    modes.  Raises NoFeasibleN carrying each N's record; a positive margin
    at optimal_alpha proves the constructive P fails at that N for every alpha.
    """
    if N_max < reduced.N0 + 1:
        raise OrderTooSmall(f"N_max = {N_max} < N0+1 = {reduced.N0 + 1}")
    margins: dict[int, dict] = {}
    for N in range(reduced.N0 + 1, N_max + 1):
        cert, margins[N] = certify_order(reduced, gains, N)
        if cert.feasible:
            return N, cert
    raise NoFeasibleN(
        f"no verified certificate for N <= {N_max} (best margins per N recorded)",
        margins)


def lyapunov_norm_sweep(plant, spectrum: Spectrum, gains: GainSet | None = None,
                        N_list=None) -> np.ndarray:
    """Spectral norms of the constructed P^N over a list of orders N.

    One reduction at max(N_list) serves every order; gains default to the
    package pole rule on it.  With fixed gains the coupling blocks have
    N-independent norm bounds, so the sequence should stay bounded; this
    sweep records it empirically.
    """
    N_list = list(range(2, 13) if N_list is None else N_list)
    reduced = reduce(plant, spectrum, max(N_list))
    gains = design_gains(reduced) if gains is None else gains
    return np.array([
        np.linalg.norm(lyapunov_solve(assemble_closed_loop(reduced, gains, N).F,
                                      reduced.delta), 2)
        for N in N_list])


def _free_p_sdp(model: ClosedLoopMatrices, reduced: ReducedPlant,
                alpha: float) -> SdpaProblem:
    """The fixed-alpha free-P LMI that export_sdpa writes and free_p_certificate solves."""
    if model.N < model.N0 + 1:
        raise OrderTooSmall(f"N must be >= N0+1 = {model.N0 + 1}, got {model.N}")
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    n = model.dim
    mu = 1e-6
    delta = reduced.delta
    kind = reduced.plant.measurement.kind
    lam_next = float(reduced.spectrum.lambdas[model.N])
    n_pvars = n * (n + 1) // 2
    m_dim = n_pvars + 2
    k_beta, k_gamma = n_pvars + 1, n_pvars + 2
    sizes = [n + 1, n, -1, -1, -1]
    neumann = kind == NEUMANN_AT_0
    if neumann:
        sizes.append(-1)
    prob = SdpaProblem(m_dim=m_dim, block_sizes=sizes)

    F, G, Lcal = model.F, model.G, model.Lcal
    k = 0
    for r in range(n):
        for s in range(r, n):
            k += 1
            # basis matrix of the p_rs entry: Phi = e_r e_s' (+ e_s e_r' if r != s)
            Phi = np.zeros((n, n))
            Phi[r, s] += 1.0
            Phi[s, r] += 1.0 if r != s else 0.0
            coef = np.zeros((n + 1, n + 1))
            coef[:n, :n] = -(F.T @ Phi + Phi @ F + 2.0 * delta * Phi)
            border = -(Phi @ Lcal)
            coef[:n, n] = border
            coef[n, :n] = border
            for i, j in zip(*np.triu_indices(n + 1)):
                prob.add(k, 1, int(i) + 1, int(j) + 1, float(coef[i, j]))
            # block 2: P - mu I
            prob.add(k, 2, r + 1, s + 1, 1.0)
    # F0 for block 2: mu I
    for r in range(n):
        prob.add(0, 2, r + 1, r + 1, mu)
    # gamma in block 1: -alpha G
    for r in range(n):
        for s in range(r, n):
            prob.add(k_gamma, 1, r + 1, s + 1, -alpha * G[r, s])
    # beta: corner of block 1, and block 3 positivity
    prob.add(k_beta, 1, n + 1, n + 1, 1.0)
    prob.add(k_beta, 3, 1, 1, 1.0)
    prob.add(0, 3, 1, 1, mu)
    prob.add(k_gamma, 4, 1, 1, 1.0)
    prob.add(0, 4, 1, 1, mu)
    # block 5: -Theta2 >= 0
    prob.add(k_gamma, 5, 1, 1, 2.0 * ((1.0 - 1.0 / alpha) * lam_next - reduced.q_c - delta))
    prob.add(k_beta, 5, 1, 1, -_tail_factor(model, reduced))
    if neumann:
        prob.add(k_gamma, 6, 1, 1, 2.0 * (1.0 - 1.0 / alpha))
        prob.add(k_beta, 6, 1, 1, -reduced.tail_constant / lam_next ** (0.5 - reduced.tail_eps))
    return prob


def export_sdpa(model: ClosedLoopMatrices, reduced: ReducedPlant, alpha: float,
                path) -> None:
    """Write the fixed-alpha feasibility SDP in SDPA sparse format.

    Decision variables: the (2N+1)(2N+2)/2 upper-triangle entries of P
    (row-major), then beta, then gamma.  Blocks: -Theta1 >= 0, P - mu I >= 0,
    beta - mu >= 0, gamma - mu >= 0, -Theta2 >= 0, and Theta3 >= 0 for the
    left-flux measurement; every block is affine in the variables because
    alpha and eps (the reduction's tail_eps) are fixed.
    """
    _free_p_sdp(model, reduced, alpha).write(path)
