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
That norm is the same at every order, so minimal_N computes it once and
decides each order by a scalar test in lambda_(N+1).
verify_certificate is the only proof of a point.  lyapunov_solve gives the
P of the shifted Lyapunov equation F'P + PF + 2 delta P = -I, one
admissible P, solved on the closed loop's blocks in O(N^2); its norms are
what lyapunov_norm_sweep records over the order.

Every order is certified on the caller's one ReducedPlant and GainSet: the
closed loop at order N is assembled from the first N modes of that
reduction, and eps is the reduction's tail_eps, so the certificate is proved
on the model whose gains were designed and which is simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, solve_continuous_are

from . import _linalg
from ._linalg import gemm, ztrsyl as trsyl
from .errors import (DimensionMismatch, InsufficientModes, NoFeasibleN, NotHurwitzShifted,
                     OrderTooSmall)
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


def _shifted_solves(Q: np.ndarray, T: np.ndarray, shifts: np.ndarray,
                    R: np.ndarray) -> np.ndarray:
    """X with (M + s_j I) X[:, j] = R[:, j] for every shift s_j, where M = Q T Q^H
    is a complex Schur form of a real m-square M: one back substitution
    through T's m rows serves all shifts, and X is real.  Q is passed as the
    real m x 2m [Re Q, -Im Q], so that each product with R or X is one dgemm."""
    m = T.shape[0]
    Y = gemm(Q.T, R)  # [Re Q^H; Im Q^H] R
    Y = Y[:m] + 1j * Y[m:]
    D = T.diagonal()[:, None] + shifts
    Y[-1] /= D[-1]
    for i in range(m - 2, -1, -1):
        Y[i] -= T[i, i + 1:] @ Y[i + 1:]
        Y[i] /= D[i]
    return gemm(Q, np.concatenate([Y.real, Y.imag]))


def _sumsq(x: np.ndarray) -> float:
    """The squared Frobenius norm, without BLAS."""
    flat = x.ravel()
    return float(np.einsum("i,i->", flat, flat))


def _lyapunov_solver(model: ClosedLoopMatrices, delta: float):
    """lyapunov_solve at every order N0 < N <= model.N of one model, as a
    function solve(N) -> P.

    The work that does not depend on the order is done here, once: the
    complex Schur form of Ac' with [Re Q, -Im Q] and the core's spectral
    abscissa, and the elementwise per-mode blocks e = d + delta,
    p33 = -1/(2e) and e_n + e_k.  Order N reads the first N - N0 rows of
    them, as of d, v and F3c (ClosedLoopMatrices.prefix).  One Schur form
    serves every shift and right-hand side (Bartels & Stewart, CACM 15,
    1972; Golub, Nash & Van Loan, IEEE TAC 24, 1979).

    Every order keeps the bits of lyapunov_solve on the model assembled at
    N.  So P3c, like every block that is not elementwise, is solved per
    order on its N - N0 rows: BLAS and numpy take other kernels for a block
    of 1 or 3 rows, and rows read from a wider solve differ there in the
    last bits.
    """
    m = model.m
    Ac = model.Fc + delta * np.eye(m)
    e = model.d + delta
    u = model.u
    T, Q = schur(Ac.T, output="complex")
    Qr = np.hstack([Q.real, -Q.imag])
    Qh = Q.conj().T
    core_abscissa = np.max(T.diagonal().real)
    p33 = -0.5 / e
    esum = e[:, None] + e

    def solve(N: int) -> np.ndarray:
        sub = model.prefix(N)
        n3, dim, F3c, v = N - model.N0, sub.dim, sub.F3c, sub.v
        e_n, p33_n, esum_n = e[:n3], p33[:n3], esum[:n3, :n3]
        abscissa = float(max(core_abscissa, np.max(e_n)))
        if abscissa >= 0:
            raise NotHurwitzShifted(
                f"spectral abscissa of F + delta*I is {abscissa:.3e} >= 0")

        P3c = _shifted_solves(Qr, T, e_n, (-p33_n[:, None] * F3c).T).T
        FP3c = gemm(F3c.T, P3c)
        # Bartels-Stewart on the shared Schur form: T Y + Y T^H = Q^H C Q, X = Q Y Q^H
        Y, scale, _ = trsyl(T, T, Qh @ (-np.eye(m) - FP3c - FP3c.T) @ Q, tranb="C")
        Pcc = (Q @ Y @ Qh).real / scale
        Pcc = 0.5 * (Pcc + Pcc.T)
        P34 = np.outer(-(P3c @ u), v) / esum_n
        Pc4 = _shifted_solves(Qr, T, e_n, -gemm(F3c.T, P34) - np.outer(Pcc @ u, v))
        vg = np.outer(v, u @ Pc4)
        P44 = np.diag(p33_n) - (vg + vg.T) / esum_n

        c, i3, i4 = slice(0, m), slice(m, m + n3), slice(m + n3, dim)
        P = np.zeros((dim, dim))
        P[c, c] = Pcc
        P[i3, c], P[c, i3] = P3c, P3c.T
        P[i3, i3] = np.diag(p33_n)
        P[i3, i4], P[i4, i3] = P34, P34.T
        P[c, i4], P[i4, c] = Pc4, Pc4.T
        P[i4, i4] = P44

        # PA by A's column blocks; A'P = (PA)' as P is symmetric
        PA = np.empty((dim, dim))
        PA[:, c] = gemm(P[:, i3], F3c) + gemm(P[:, c], Ac)
        PA[:, i3] = P[:, i3] * e_n
        PA[:, i4] = np.outer(P[:, c] @ u, v) + P[:, i4] * e_n
        R = PA + PA.T
        R.flat[::dim + 1] += 1.0
        norm_A = math.sqrt(_sumsq(Ac) + 2.0 * _sumsq(e_n) + _sumsq(F3c)
                           + _sumsq(u) * _sumsq(v))
        residual = math.sqrt(_sumsq(R))
        bound = _LYAP_BACKWARD_C * dim * np.finfo(float).eps * norm_A * math.sqrt(_sumsq(P))
        if not residual <= bound:
            raise NotHurwitzShifted(
                f"Lyapunov residual {residual:.3e} exceeds the backward-error bound "
                f"{bound:.3e} (ill-conditioned solve)")
        return P

    return solve


def lyapunov_solve(model: ClosedLoopMatrices, delta: float) -> np.ndarray:
    """Unique P > 0 with F'P + PF + 2 delta P = -I, solved on the model's blocks.

    In the order (i3, c, i4) of ClosedLoopMatrices' blocks, A = F + delta I is
    block upper triangular, [[E, F3c, 0], [0, Ac, u v'], [0, 0, E]] with
    E = diag(e), e = d + delta and Ac = Fc + delta I.  So A'P + PA = -I splits
    into one equation per block of P, each reading only blocks solved before
    it:

    - P33 = -1/(2e), diagonal;
    - row n of P3c solves (Ac + e_n I)' x = -P33_n F3c[n];
    - Pcc solves Ac'X + X Ac = -I - F3c'P3c - P3c'F3c, one m-square
      Lyapunov equation (Bartels-Stewart);
    - P34 = -(P3c u) v' / (e_n + e_k), elementwise;
    - column k of Pc4 solves (Ac' + e_k I) x = -(F3c'P34 + Pcc u v')[:, k];
    - P44 = -(I + v g' + g v') / (e_n + e_k), g = Pc4'u, elementwise.

    The shifted solves and the core Lyapunov equation share one complex
    Schur form of Ac', whose diagonal with e gives the Hurwitz test: A's eigenvalues are Ac's and e twice, and
    the spectral abscissa must be negative.  The cost is O(N^2 + N m^2 + m^3)
    for m = 2 N0 + 1, against O(N^3) for a dense solve of the (2N + 1)-square
    A.  The residual R = PA + (PA)' + I is formed from PA by A's column
    blocks, also in O(N^2 m), and must meet the backward-error bound
    |R|_F <= c n u |A|_F |P|_F with c = 10, n = 2N + 1 and unit roundoff u
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 16.2), so
    a solve of large but well-determined P passes and a wrong P does not.
    P is returned over X, as state_layout lays it out.  It is the solve that
    lyapunov_norm_sweep runs at each of its orders, here at model.N alone.
    """
    return _lyapunov_solver(model, delta)(model.N)


def _tail_factor(reduced: ReducedPlant, N: int) -> float:
    """Coefficient of beta in Theta2 at order N for the relevant measurement kind."""
    lam_next = float(reduced.spectrum.lambdas[N])
    kind = reduced.plant.measurement.kind
    if kind == BOUNDED:
        return reduced.tail_constant / lam_next
    if kind == NEUMANN_AT_0:
        return reduced.tail_constant * lam_next ** (0.5 + reduced.tail_eps)
    return reduced.tail_constant


def _theta_scalars(reduced: ReducedPlant, N: int,
                   alpha: float, beta: float, gamma: float) -> tuple[float, float]:
    lam_next = float(reduced.spectrum.lambdas[N])
    theta2 = 2.0 * gamma * (-(1.0 - 1.0 / alpha) * lam_next + reduced.q_c + reduced.delta) \
        + beta * _tail_factor(reduced, N)
    if reduced.plant.measurement.kind == NEUMANN_AT_0:
        theta3 = 2.0 * gamma * (1.0 - 1.0 / alpha) \
            - beta * reduced.tail_constant / lam_next ** (0.5 - reduced.tail_eps)
    else:
        theta3 = math.inf
    return theta2, theta3


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
    T1 = np.empty((n + 1, n + 1))
    T1[:n, :n] = model.F.T @ P + P @ model.F + 2.0 * reduced.delta * P + alpha * gamma * model.G
    T1[:n, n] = T1[n, :n] = P @ model.Lcal
    T1[n, n] = -beta
    T1 = 0.5 * (T1 + T1.T)
    theta1_max = float(_linalg.eigvalsh(T1)[-1])
    theta2, theta3 = _theta_scalars(reduced, model.N, alpha, beta, gamma)
    p_min = float(_linalg.eigvalsh(0.5 * (P + P.T))[0])
    tol1 = _FEAS_TOL * max(1.0, float(np.max(np.abs(T1))))
    lam_next = float(reduced.spectrum.lambdas[model.N])
    scale2 = max(1.0, 2 * gamma * (1 + lam_next), beta * _tail_factor(reduced, model.N))
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


def _theta_forms(reduced: ReducedPlant, N: int,
                 alpha: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(gamma, beta) coefficients of Theta2 and of Theta3 (inf unless left flux).

    Theta2 and Theta3 are linear in (beta, gamma), so their coefficients are
    _theta_scalars at the unit points; every product by 0, 1 or 2 there is
    exact, so each coefficient is bit-identical to its term in the formula.
    """
    (g2, g3), (b2, b3) = (_theta_scalars(reduced, N, alpha, beta, gamma)
                          for beta, gamma in ((0.0, 1.0), (1.0, 0.0)))
    return (g2, b2), (g3, b3)


def _beta_slope(reduced: ReducedPlant, N: int, alpha: float) -> float:
    """Largest beta/gamma with Theta2 <= 0 (and Theta3 >= 0 for the left flux)."""
    (g2, b2), (g3, b3) = _theta_forms(reduced, N, alpha)
    return -g2 / b2 if math.isinf(g3) else min(-g2 / b2, g3 / -b3)


def optimal_alpha(reduced: ReducedPlant, N: int) -> float:
    """The alpha > 1 maximising k(alpha)/alpha at order N, in closed form.

    Theta1 depends on alpha only through s = alpha gamma and the other
    conditions read beta <= (k/alpha) s, so feasibility, for any fixed P and
    with P free, grows with k/alpha.  With u = 1/alpha, c = q_c + delta and
    lambda = lambda_{N+1}, Theta2 <= 0 reads beta <= a s u (lambda (1 - u) - c);
    the left flux's Theta3 >= 0 reads beta <= a s u lambda (1 - u) for every
    eps, binding only when c <= 0 (then u = 1/2).  Otherwise the vertex
    u = (lambda - c)/(2 lambda) maximises; lambda > c holds beyond N0.
    """
    lam_next = float(reduced.spectrum.lambdas[N])
    c = reduced.q_c + reduced.delta
    if reduced.plant.measurement.kind == NEUMANN_AT_0 and c <= 0.0:
        return 2.0
    if lam_next + c <= 0.0:
        raise ValueError(
            f"lambda_(N+1) + q_c + delta = {lam_next + c:.6g} <= 0: k(alpha)/alpha "
            f"increases towards alpha = 1, so no alpha > 1 maximises it")
    return 2.0 * lam_next / (lam_next - c)


def _hinf_norm_sq(A: np.ndarray, Q: np.ndarray, b: np.ndarray) -> float:
    """Squared H-infinity norm sup_w |Q^(1/2) (jw I - A)^-1 b|^2 for Q >= 0;
    NotHurwitzShifted, for b = 0 too, unless A = F + delta I is Hurwitz.

    Bruinsma & Steinbuch (Systems & Control Letters 14, 1990): g bounds the
    squared norm iff the Hamiltonian [[A, b b'/g], [-Q, -A']] has no
    imaginary eigenvalue; otherwise its imaginary eigenvalues jw bracket the
    frequencies where the gain exceeds g, and the gain at the midpoints
    raises the lower bound.  Returns an upper bound, 2e-10 relative above
    a gain the system attains, and 0 for b = 0.
    """
    ev = _linalg.eigvals(A)
    abscissa = float(np.max(ev.real))
    if abscissa >= 0:
        raise NotHurwitzShifted(
            f"spectral abscissa of F + delta*I is {abscissa:.3e} >= 0")
    if not np.any(b):
        return 0.0
    eye = np.eye(A.shape[0])

    def gain(w: float) -> float:
        x = _linalg.solve(1j * w * eye - A, b)
        return float(np.real(np.conj(x) @ Q @ x))

    lower = max(gain(w) for w in np.append(0.0, np.abs(ev)))
    for _ in range(50):
        g = (1.0 + 2e-10) * lower
        ev = _linalg.eigvals(np.block([[A, np.outer(b, b) / g], [-Q, -A.T]]))
        w = np.sort(np.abs(ev.imag[np.abs(ev.real) <= 1e-8 * np.max(np.abs(ev))]))
        best = max(gain(m) for m in np.append(0.0, 0.5 * (w[:-1] + w[1:])))
        if best <= lower:
            break
        lower = best
    return g


def _decide(reduced: ReducedPlant, N: int, alpha: float,
            h2: float) -> tuple[float, float | None]:
    """The free-P verdict at order N from the core's h^2, a scalar test in
    lambda_(N+1): the exact margin alpha h^2 / k - 1 (inf when k <= 0), and k
    when alpha h^2 < k, that is when the LMI is feasible, else None."""
    k = _beta_slope(reduced, N, alpha)
    if not k > 0.0:
        return math.inf, None
    ah2 = alpha * h2
    return ah2 / k - 1.0, (k if ah2 < k else None)


def _riccati_point(model: ClosedLoopMatrices, reduced: ReducedPlant, alpha: float,
                   h2: float, k: float) -> Certificate | None:
    """free_p_certificate's point at an order _decide found feasible, if it verifies."""
    ah2 = alpha * h2
    eye = np.eye(model.dim)
    A = model.F + reduced.delta * eye
    k1 = 0.5 * (ah2 + k)
    h2_full = _hinf_norm_sq(A, eye, model.Lcal)
    e = 0.5 * (k1 - ah2) / h2_full if h2_full > 0.0 else 1.0  # Lcal = 0: any e > 0
    try:
        X = solve_continuous_are(A, model.Lcal[:, None], alpha * model.G + e * eye, [[-k1]])
    except np.linalg.LinAlgError:  # no stabilising solution at rounding level
        return None
    cert = verify_certificate(model, reduced, 0.5 * (X + X.T), alpha, math.sqrt(k1 * k), 1.0)
    return cert if cert.feasible else None


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
    h^2 and the Hurwitz test come from the model's core c = i1 u i2 (Fc, Gc
    and u) alone: F is block triangular in the order i4, c, i3, G and Lcal
    vanish outside c, and i3, i4 are diagonal with -lambda_n + q_c + delta < 0
    (the reduction's spectral gap).  So an order whose margin is >= 0 never
    builds the dense F; only the point of an order that certifies does.
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
    h2 = _hinf_norm_sq(model.Fc + reduced.delta * np.eye(model.m), model.Gc, model.u)
    margin, k = _decide(reduced, model.N, alpha, h2)
    return (None if k is None else _riccati_point(model, reduced, alpha, h2, k)), margin


def certify_order(reduced: ReducedPlant, gains: GainSet,
                  N: int) -> tuple[Certificate | None, dict]:
    """Free-P certificate at order N and alpha = optimal_alpha, and its record.

    The closed loop is assembled from the first N modes of reduced with the
    given gains and decided by free_p_certificate at alpha*, which reads the
    model's core and lambda_(N+1) alone unless the order certifies.  Returns the
    verified Certificate, or None, and the record {"margin", "alpha"}: the
    exact margin alpha h^2 / k - 1 at alpha*, negative iff the LMI is
    feasible.  Since alpha* minimises that ratio, a margin >= 0 proves that
    no P certifies this N at any alpha.
    """
    model = assemble_closed_loop(reduced, gains, N)
    alpha = optimal_alpha(reduced, N)
    cert, margin = free_p_certificate(model, reduced, alpha)
    return cert, {"margin": margin, "alpha": alpha}


def _orders(Ns: list[int]) -> str:
    """Ascending orders as runs: [2, 3, 4, 7] reads "2..4, 7"."""
    runs = [[Ns[0], Ns[0]]]
    for N in Ns[1:]:
        if N == runs[-1][1] + 1:
            runs[-1][1] = N
        else:
            runs.append([N, N])
    return ", ".join(str(a) if a == b else f"{a}..{b}" for a, b in runs)


def _unverified(margins: dict) -> str:
    """What the records of orders without a verified certificate show: the
    orders decided feasible (negative margin) whose point did not verify,
    or else that no P certifies any of them, with the smallest margin."""
    feasible = sorted(N for N, rec in margins.items() if rec["margin"] < 0.0)
    if feasible:
        values = [margins[N]["margin"] for N in feasible]
        return (f"N = {_orders(feasible)} decided feasible but not verified (margins "
                f"{max(values):.3g} to {min(values):.3g})")
    best = min(margins, key=lambda N: margins[N]["margin"])
    return (f"every exact margin is >= 0, so no P certifies these orders at any alpha "
            f"(smallest {margins[best]['margin']:.3g} at N = {best})")


def minimal_N(reduced: ReducedPlant, gains: GainSet, N_max: int = 10):
    """Smallest N <= N_max with a verified free-P certificate.

    Every N from N0+1 up is decided on the same reduction, exactly as
    certify_order decides it (monotonicity in N is not assumed); reduced
    must carry at least N_max modes.  The core's Hurwitz test and h^2 run
    once, so each order's verdict is a scalar test in lambda_(N+1); an
    order's closed loop is assembled only for the point of an order decided
    feasible.  Returns (N, Certificate).  Raises NoFeasibleN carrying each
    N's record; a margin >= 0 at alpha* proves that no P certifies that N at
    any alpha.
    """
    N0 = reduced.N0
    if N_max < N0 + 1:
        raise OrderTooSmall(f"N_max = {N_max} < N0+1 = {N0 + 1}")
    model = assemble_closed_loop(reduced, gains, N0 + 1)  # its core serves every order
    h2 = _hinf_norm_sq(model.Fc + reduced.delta * np.eye(model.m), model.Gc, model.u)
    margins: dict[int, dict] = {}
    for N in range(N0 + 1, N_max + 1):
        if N > reduced.n_coef:
            raise InsufficientModes(f"reduced plant carries {reduced.n_coef} modes, need {N}")
        alpha = optimal_alpha(reduced, N)
        margin, k = _decide(reduced, N, alpha, h2)
        margins[N] = {"margin": margin, "alpha": alpha}
        if k is not None:
            if model.N != N:
                model = assemble_closed_loop(reduced, gains, N)
            cert = _riccati_point(model, reduced, alpha, h2, k)
            if cert is not None:
                return N, cert
    raise NoFeasibleN(f"no verified certificate for N <= {N_max}: {_unverified(margins)}",
                      margins)


def lyapunov_norm_sweep(plant, spectrum: Spectrum, N_list=None) -> np.ndarray:
    """Spectral norms of the Lyapunov P^N (lyapunov_solve) over a list of orders N.

    One reduction at max(N_list) serves every order, with the package pole
    rule's gains on it, and so does one closed loop assembled there: its
    core's Schur form and its elementwise per-mode blocks are computed once
    (_lyapunov_solver), and each order solves from their prefixes, with its
    own Hurwitz test and residual bound, to the bits of lyapunov_solve on
    the closed loop assembled at that order.  With fixed gains the coupling
    blocks have N-independent norm bounds, so the sequence should stay
    bounded; this sweep records it empirically.  P > 0, so its spectral norm
    is its largest eigenvalue.
    """
    N_list = list(range(2, 13) if N_list is None else N_list)
    reduced = reduce(plant, spectrum, max(N_list))
    gains = design_gains(reduced)
    solve = _lyapunov_solver(assemble_closed_loop(reduced, gains, max(N_list)), reduced.delta)
    return np.array([_linalg.largest_eigenvalue(solve(N)) for N in N_list])


def export_sdpa(model: ClosedLoopMatrices, reduced: ReducedPlant, alpha: float,
                path) -> None:
    """Write the fixed-alpha free-P feasibility SDP in SDPA sparse format.

    Decision variables: the (2N+1)(2N+2)/2 upper-triangle entries of P
    (row-major), then beta, then gamma.  Blocks: -Theta1 >= 0, P - mu I >= 0,
    beta - mu >= 0, gamma - mu >= 0, -Theta2 >= 0, and Theta3 >= 0 for the
    left-flux measurement; every block is affine in the variables because
    alpha and eps (the reduction's tail_eps) are fixed.

    In block 1, p_rs enters as -(F'Phi + Phi F + 2 delta Phi) and -Phi Lcal,
    Phi = e_r e_s' + e_s e_r' (e_r e_r' if r = s): row r is -(row s of
    [F, Lcal]) and row s is -(row r of it), but (r, r), (s, s) and (r, s) read
    -2 F_sr, -2 F_rs and -((F_rr + F_ss) + 2 delta).  Only those two rows'
    nonzeros are written, each bit for bit the entry of the dense products.
    """
    if model.N < model.N0 + 1:
        raise OrderTooSmall(f"N must be >= N0+1 = {model.N0 + 1}, got {model.N}")
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    n = model.dim
    mu = 1e-6
    n_pvars = n * (n + 1) // 2
    k_beta, k_gamma = n_pvars + 1, n_pvars + 2
    (g2, b2), (g3, b3) = _theta_forms(reduced, model.N, alpha)
    neumann = math.isfinite(g3)
    prob = SdpaProblem(m_dim=n_pvars + 2, block_sizes=[n + 1, n, -1, -1, -1] + ([-1] if neumann else []))
    F = model.F
    FL = np.hstack([F, model.Lcal[:, None]])

    def add_row(k: int, i: int, row: np.ndarray):
        # block 1, row i of variable k's coefficient; add() mirrors j < i
        for j in np.flatnonzero(row):
            prob.add(k, 1, i + 1, int(j) + 1, float(row[j]))

    k = 0
    for r in range(n):
        for s in range(r, n):
            k += 1
            row = -FL[s]
            row[r] = -2.0 * F[s, r]
            row[s] = -((F[r, r] + F[s, s]) + 2.0 * reduced.delta)  # at r = s, row[r] again
            add_row(k, r, row)
            if r != s:
                mirror = -FL[r]
                mirror[r], mirror[s] = 0.0, -2.0 * F[r, s]  # (s, r) is row r's (r, s)
                add_row(k, s, mirror)
            # block 2: P - mu I
            prob.add(k, 2, r + 1, s + 1, 1.0)
    # F0 for block 2: mu I
    for r in range(n):
        prob.add(0, 2, r + 1, r + 1, mu)
    # block 1: gamma's coefficient is -alpha G, on the core; beta's is +1 in the corner
    for i, j in zip(*np.nonzero(np.triu(model.Gc))):
        prob.add(k_gamma, 1, int(i) + 1, int(j) + 1, -float(alpha * model.Gc[i, j]))
    prob.add(k_beta, 1, n + 1, n + 1, 1.0)
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
