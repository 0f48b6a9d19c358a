"""Stability certificates: decision, verification, search over N, and export.

A certificate is a tuple (P, alpha, beta, gamma, eps, N) whose sign
conditions prove closed-loop decay at rate delta:

    Theta1 = [[F'P + PF + 2 delta P + alpha gamma G, P Lcal],
              [Lcal' P,                              -beta  ]]  <= 0,
    Theta2 <= 0, and (left-flux measurement only) Theta3 >= 0,

where Theta2/Theta3 couple the finite design to the spectral tail through
the measurement tail constant.  The conditions form an LMI in
(P, beta, gamma): free_p_certificate decides it exactly through the bounded
real lemma, as one H-infinity norm of a (2 N0 + 1)-state block whatever N
is, and builds its point with one Riccati solve; optimal_alpha gives the
best alpha in closed form, and export_sdpa writes the LMI in SDPA format.
verify_certificate is the only proof of a point.  lyapunov_solve gives the
P of the shifted Lyapunov equation F'P + PF + 2 delta P = -I, one
admissible P, whose norms lyapunov_norm_sweep records over the order.

Every order is certified on the caller's one ReducedPlant and GainSet: the
closed loop at order N is assembled from the first N modes of that
reduction, and eps is the reduction's tail_eps, so the certificate is proved
on the model whose gains were designed and which is simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

from .errors import DimensionMismatch, NoFeasibleN, NotHurwitzShifted, OrderTooSmall
from .homogenize import BOUNDED, NEUMANN_AT_0, ReducedPlant, reduce
from .sdpa import SdpaProblem
from .sturm_liouville import Spectrum
from .synthesis import ClosedLoopMatrices, GainSet, assemble_closed_loop, design_gains

#: absolute feasibility tolerance, scaled by each quantity's magnitude
_FEAS_TOL = 1e-9

#: c in lyapunov_solve's backward-error bound |R|_F <= c n u |A|_F |P|_F
_LYAP_BACKWARD_C = 10.0


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


def _shifted(F: np.ndarray, delta: float) -> np.ndarray:
    """A = F + delta I; NotHurwitzShifted unless its spectral abscissa is negative."""
    A = F + delta * np.eye(F.shape[0])
    abscissa = float(np.max(np.linalg.eigvals(A).real))
    if abscissa >= 0:
        raise NotHurwitzShifted(
            f"spectral abscissa of F + delta*I is {abscissa:.3e} >= 0")
    return A


def lyapunov_solve(F: np.ndarray, delta: float) -> np.ndarray:
    """Unique P > 0 with F'P + PF + 2 delta P = -I.

    Solved by the Bartels-Stewart method (Schur form of A = F + delta I);
    requires the spectral abscissa of A to be negative.  The residual
    R = A'P + PA + I must meet the backward-error bound
    |R|_F <= c n u |A|_F |P|_F with c = 10 and unit roundoff u (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 16.2), so a solve
    of large but well-determined P passes and a wrong P does not.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    if F.shape != (n, n):
        raise DimensionMismatch(f"F must be square, got {F.shape}")
    A = _shifted(F, delta)
    eye = np.eye(n)
    P = solve_continuous_lyapunov(A.T, -eye)
    P = 0.5 * (P + P.T)
    residual = float(np.linalg.norm(A.T @ P + P @ A + eye))
    bound = _LYAP_BACKWARD_C * n * np.finfo(float).eps \
        * float(np.linalg.norm(A)) * float(np.linalg.norm(P))
    if not residual <= bound:
        raise NotHurwitzShifted(
            f"Lyapunov residual {residual:.3e} exceeds the backward-error bound "
            f"{bound:.3e} (ill-conditioned solve)")
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


def _theta_forms(model: ClosedLoopMatrices, reduced: ReducedPlant,
                 alpha: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(gamma, beta) coefficients of Theta2 and of Theta3 (inf unless left flux).

    Theta2 and Theta3 are linear in (beta, gamma), so their coefficients are
    _theta_scalars at the unit points; every product by 0, 1 or 2 there is
    exact, so each coefficient is bit-identical to its term in the formula.
    """
    (g2, g3), (b2, b3) = (_theta_scalars(model, reduced, alpha, beta, gamma)
                          for beta, gamma in ((0.0, 1.0), (1.0, 0.0)))
    return (g2, b2), (g3, b3)


def _beta_slope(model: ClosedLoopMatrices, reduced: ReducedPlant, alpha: float) -> float:
    """Largest beta/gamma with Theta2 <= 0 (and Theta3 >= 0 for the left flux)."""
    (g2, b2), (g3, b3) = _theta_forms(model, reduced, alpha)
    return -g2 / b2 if math.isinf(g3) else min(-g2 / b2, g3 / -b3)


def optimal_alpha(model: ClosedLoopMatrices, reduced: ReducedPlant) -> float:
    """The alpha > 1 maximising k(alpha)/alpha, in closed form.

    Theta1 depends on alpha only through s = alpha gamma and the other
    conditions read beta <= (k/alpha) s, so feasibility, for any fixed P and
    with P free, grows with k/alpha.  With u = 1/alpha, c = q_c + delta and
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


def _hinf_norm_sq(A: np.ndarray, Q: np.ndarray, b: np.ndarray) -> float:
    """Squared H-infinity norm sup_w |Q^(1/2) (jw I - A)^-1 b|^2, A Hurwitz, Q >= 0.

    Bruinsma & Steinbuch (Systems & Control Letters 14, 1990): g bounds the
    squared norm iff the Hamiltonian [[A, b b'/g], [-Q, -A']] has no
    imaginary eigenvalue; otherwise its imaginary eigenvalues jw bracket the
    frequencies where the gain exceeds g, and the gain at the midpoints
    raises the lower bound.  Returns an upper bound, 2e-10 relative above
    a gain the system attains, and 0 for b = 0.
    """
    if not np.any(b):
        return 0.0
    eye = np.eye(A.shape[0])

    def gain(w: float) -> float:
        x = np.linalg.solve(1j * w * eye - A, b)
        return float(np.real(np.conj(x) @ Q @ x))

    lower = max(gain(w) for w in np.append(0.0, np.abs(np.linalg.eigvals(A))))
    for _ in range(50):
        g = (1.0 + 2e-10) * lower
        ev = np.linalg.eigvals(np.block([[A, np.outer(b, b) / g], [-Q, -A.T]]))
        w = np.sort(np.abs(ev.imag[np.abs(ev.real) <= 1e-8 * np.max(np.abs(ev))]))
        best = max(gain(m) for m in np.append(0.0, 0.5 * (w[:-1] + w[1:])))
        if best <= lower:
            break
        lower = best
    return g


def free_p_certificate(model: ClosedLoopMatrices, reduced: ReducedPlant,
                       alpha: float) -> tuple[Certificate | None, float]:
    """Free-P certificate at fixed alpha, decided exactly by the bounded real lemma.

    With A = F + delta I and k = _beta_slope, Theta2/Theta3 read beta < k gamma.
    The Schur complement of Theta1's -beta corner, beta pushed up to k gamma
    and P = gamma X turn the LMI into the strict Riccati inequality
    A'X + XA + alpha G + X Lcal Lcal' X / k < 0.  By the strict bounded real
    lemma (Zhou, Doyle & Glover, Robust and Optimal Control, 1996, 13.6) it
    has a solution iff A is Hurwitz, k > 0 and alpha h^2 < k, with
    h = |G^(1/2) (sI - A)^-1 Lcal|_inf independent of alpha: the exact margin
    is alpha h^2 / k - 1 (inf when k <= 0), and optimal_alpha's alpha* is the
    free-P optimum.  Every fixed P, the Lyapunov one included, is a point of
    this LMI, so no P certifies where the margin is >= 0.
    h^2 and the Hurwitz test come from the leading 2 N0 + 1 rows and columns,
    assemble_closed_loop's blocks i1 u i2: F is block triangular in the order
    i4, i1 u i2, i3, G and Lcal vanish outside i1 u i2, and i3, i4 are
    diagonal with -lambda_n + q_c + delta < 0 (the reduction's spectral gap).
    The point: X solves the Riccati equation with k1 = (alpha h^2 + k)/2 in
    place of k and alpha G + e I in place of alpha G, where e leaves the
    squared norm of that system below k1; then P = X, gamma = 1 and
    beta = sqrt(k1 k) keep the Schur complement of Theta1 below -e I and
    beta strictly below k gamma.  That point goes through verify_certificate,
    the only proof.  Returns (the verified Certificate, or None, and the
    margin); None with a negative margin means the Riccati solve or the
    verification failed at rounding level.  A is Hurwitz by construction,
    its placed poles on the block, so the NotHurwitzShifted raised
    otherwise flags numerical trouble.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    m = 2 * model.N0 + 1  # the observable block i1 u i2
    A_obs = _shifted(model.F[:m, :m], reduced.delta)
    k = _beta_slope(model, reduced, alpha)
    if not k > 0.0:
        return None, math.inf
    ah2 = alpha * _hinf_norm_sq(A_obs, model.G[:m, :m], model.Lcal[:m])
    margin = ah2 / k - 1.0
    if not ah2 < k:
        return None, margin
    eye = np.eye(model.dim)
    A = model.F + reduced.delta * eye
    k1 = 0.5 * (ah2 + k)
    h2 = _hinf_norm_sq(A, eye, model.Lcal)
    e = 0.5 * (k1 - ah2) / h2 if h2 > 0.0 else 1.0  # Lcal = 0: any e > 0
    try:
        X = solve_continuous_are(A, model.Lcal[:, None], alpha * model.G + e * eye, [[-k1]])
    except np.linalg.LinAlgError:  # no stabilising solution at rounding level
        return None, margin
    cert = verify_certificate(model, reduced, 0.5 * (X + X.T), alpha, math.sqrt(k1 * k), 1.0)
    return (cert if cert.feasible else None), margin


def certify_order(reduced: ReducedPlant, gains: GainSet,
                  N: int) -> tuple[Certificate | None, dict]:
    """Free-P certificate at order N and alpha = optimal_alpha, and its record.

    The closed loop is assembled from the first N modes of reduced with the
    given gains and decided by free_p_certificate at alpha*.  Returns the
    verified Certificate, or None, and the record {"margin", "alpha"}: the
    exact margin alpha h^2 / k - 1 at alpha*, negative iff the LMI is
    feasible.  Since alpha* minimises that ratio, a margin >= 0 proves that
    no P certifies this N at any alpha.
    """
    model = assemble_closed_loop(reduced, gains, N)
    alpha = optimal_alpha(model, reduced)
    cert, margin = free_p_certificate(model, reduced, alpha)
    return cert, {"margin": margin, "alpha": alpha}


def minimal_N(reduced: ReducedPlant, gains: GainSet, N_max: int = 10):
    """Smallest N <= N_max with a verified free-P certificate.

    Every N from N0+1 up goes through certify_order on the same reduction
    (monotonicity in N is not assumed); reduced must carry at least N_max
    modes.  Returns (N, Certificate).  Raises NoFeasibleN carrying each N's
    record; a margin >= 0 at alpha* proves that no P certifies that N at any
    alpha.
    """
    if N_max < reduced.N0 + 1:
        raise OrderTooSmall(f"N_max = {N_max} < N0+1 = {reduced.N0 + 1}")
    margins: dict[int, dict] = {}
    for N in range(reduced.N0 + 1, N_max + 1):
        cert, margins[N] = certify_order(reduced, gains, N)
        if cert is not None:
            return N, cert
    raise NoFeasibleN(
        f"no verified certificate for N <= {N_max} (exact margins per N recorded)",
        margins)


def lyapunov_norm_sweep(plant, spectrum: Spectrum, gains: GainSet | None = None,
                        N_list=None) -> np.ndarray:
    """Spectral norms of the Lyapunov P^N (lyapunov_solve) over a list of orders N.

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


def export_sdpa(model: ClosedLoopMatrices, reduced: ReducedPlant, alpha: float,
                path) -> None:
    """Write the fixed-alpha free-P feasibility SDP in SDPA sparse format.

    Decision variables: the (2N+1)(2N+2)/2 upper-triangle entries of P
    (row-major), then beta, then gamma.  Blocks: -Theta1 >= 0, P - mu I >= 0,
    beta - mu >= 0, gamma - mu >= 0, -Theta2 >= 0, and Theta3 >= 0 for the
    left-flux measurement; every block is affine in the variables because
    alpha and eps (the reduction's tail_eps) are fixed.
    """
    if model.N < model.N0 + 1:
        raise OrderTooSmall(f"N must be >= N0+1 = {model.N0 + 1}, got {model.N}")
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    n = model.dim
    mu = 1e-6
    n_pvars = n * (n + 1) // 2
    k_beta, k_gamma = n_pvars + 1, n_pvars + 2
    (g2, b2), (g3, b3) = _theta_forms(model, reduced, alpha)
    neumann = math.isfinite(g3)
    prob = SdpaProblem(m_dim=n_pvars + 2, block_sizes=[n + 1, n, -1, -1, -1] + ([-1] if neumann else []))

    def add_theta1(k: int, P: np.ndarray, beta: float, gamma: float):
        # block 1: -Theta1 is linear in (P, beta, gamma), so variable k's
        # coefficient is -Theta1 at its unit point
        coef = -_theta1(model, P, alpha, beta, gamma, reduced.delta)
        for i, j in zip(*np.triu_indices(n + 1)):
            prob.add(k, 1, int(i) + 1, int(j) + 1, float(coef[i, j]))

    zero = np.zeros((n, n))
    k = 0
    for r in range(n):
        for s in range(r, n):
            k += 1
            # basis matrix of the p_rs entry: Phi = e_r e_s' (+ e_s e_r' if r != s)
            Phi = np.zeros((n, n))
            Phi[r, s] += 1.0
            Phi[s, r] += 1.0 if r != s else 0.0
            add_theta1(k, Phi, 0.0, 0.0)
            # block 2: P - mu I
            prob.add(k, 2, r + 1, s + 1, 1.0)
    # F0 for block 2: mu I
    for r in range(n):
        prob.add(0, 2, r + 1, r + 1, mu)
    add_theta1(k_gamma, zero, 0.0, 1.0)
    add_theta1(k_beta, zero, 1.0, 0.0)
    # block 3: beta positivity
    prob.add(k_beta, 3, 1, 1, 1.0)
    prob.add(0, 3, 1, 1, mu)
    prob.add(k_gamma, 4, 1, 1, 1.0)
    prob.add(0, 4, 1, 1, mu)
    # block 5: -Theta2 >= 0; block 6: Theta3 >= 0
    prob.add(k_gamma, 5, 1, 1, -g2)
    prob.add(k_beta, 5, 1, 1, -b2)
    if neumann:
        prob.add(k_gamma, 6, 1, 1, g3)
        prob.add(k_beta, 6, 1, 1, b3)
    prob.write(path)
