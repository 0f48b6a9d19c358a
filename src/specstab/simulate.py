"""Closed-loop simulation: truncated plant + observer + input integrator.

The coupled system over (u, w_1..w_Nsim, what_1..what_N) is linear and
time-invariant, so each run computes one matrix exponential E of A_cl*dt
(scaling-and-squaring Pade) and steps exactly.  The steps are blocked: with
b = ceil(sqrt(steps)), the block starts x_0, x_b, x_2b, ... come from E^b,
and then all blocks advance together by matrix products with E, so a run
takes about sqrt(steps) matrix-matrix and sqrt(steps) matrix-vector products
in place of steps matrix-vector ones.
Recorded series include the control, the tail output, modal norms, the
composite decay witness eta, and field reconstructions, per step or for a set
of snapshot steps on a subsampled grid in one product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .certificate import Certificate
from .errors import (
    CertificateRequired,
    GridMismatch,
    NonPositiveSeries,
    OrderMismatch,
    StepRejected,
)
from .homogenize import BOUNDED, DIRICHLET_AT_0, NEUMANN_AT_0, ReducedPlant
from .sturm_liouville import Spectrum, derivative_at_0, derivative_field, project
from .synthesis import GainSet

_OVERFLOW_LOG = 600.0  # log of the largest propagated amplification allowed


@dataclass(frozen=True)
class SimConfig:
    """Run settings: plant truncation, stepping, horizon, initial data."""

    z0: np.ndarray
    u0: float
    N_sim: int = 50
    dt: float = 1e-3
    T: float = 3.0

    def __post_init__(self):
        if self.N_sim < 1 or self.dt <= 0 or self.T <= 0:
            raise ValueError("N_sim, dt, T must be positive")
        self.z0.setflags(write=False)


@dataclass(frozen=True)
class SimResult:
    """Time series of one closed-loop run, plus field reconstruction."""

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w_modes: np.ndarray       # (steps+1, N_sim)
    what_modes: np.ndarray    # (steps+1, N)
    zeta: np.ndarray
    l2_sq: np.ndarray         # sum w_n^2
    energy_sq: np.ndarray     # sum lambda_n w_n^2
    eta: np.ndarray
    N: int
    N0: int
    N_sim: int
    spectrum: Spectrum
    reduced: ReducedPlant

    def __post_init__(self):
        for name in ("times", "u", "v", "w_modes", "what_modes", "zeta",
                     "l2_sq", "energy_sq", "eta"):
            getattr(self, name).setflags(write=False)

    def _lifting(self) -> np.ndarray:
        x = self.spectrum.grid
        return x ** self.reduced.plant.lifting_exponent

    def reconstruct_w(self, step: int) -> np.ndarray:
        """Homogenized field w(t_step, x) on the spectrum grid."""
        phi = self.spectrum.eigenfunctions[: self.N_sim]
        return self.w_modes[step] @ phi

    def reconstruct_z(self, step: int) -> np.ndarray:
        """Physical field z = w + lifting * u on the spectrum grid."""
        return self.reconstruct_w(step) + self._lifting() * self.u[step]

    def reconstruct_error(self, step: int) -> np.ndarray:
        """Observation error w - sum_{n<=N} what_n phi_n on the spectrum grid."""
        phi = self.spectrum.eigenfunctions[: self.N]
        return self.reconstruct_w(step) - self.what_modes[step] @ phi

    def snapshot_fields(self, steps, stride: int) -> tuple[np.ndarray, np.ndarray]:
        """z and the observation error at the given steps on every stride-th
        grid point, one row per step, from one product over the modes."""
        steps = np.asarray(steps)
        coef = np.vstack([self.w_modes[steps], self.w_modes[steps]])
        coef[steps.size:, : self.N] -= self.what_modes[steps]
        fields = coef @ self.spectrum.eigenfunctions[: self.N_sim, ::stride]
        lifting = self._lifting()[::stride]
        z = fields[: steps.size] + np.outer(self.u[steps], lifting)
        return z, fields[steps.size:]


def assemble_sim(reduced: ReducedPlant, gains: GainSet, N: int, N_sim: int) -> np.ndarray:
    """Closed-loop generator over (u, w_1..N_sim, what_1..N).

    The observer innovation uses the truncated plant output
    sum_{i<=N_sim} out_i w_i; gains l_n vanish for n > N0.
    """
    if N_sim < N:
        raise OrderMismatch(f"N_sim = {N_sim} < N = {N}")
    if reduced.n_coef < N_sim:
        raise OrderMismatch(
            f"reduced plant carries {reduced.n_coef} modes, need N_sim = {N_sim}")
    N0 = reduced.N0
    if N < N0 + 1:
        raise OrderMismatch(f"N = {N} < N0+1 = {N0 + 1}")
    if gains.N0 != N0:
        raise OrderMismatch(f"gains placed for N0 = {gains.N0}, plant has N0 = {N0}")
    lam = reduced.spectrum.lambdas
    q_c = reduced.q_c
    an, bn, out = reduced.a_coef, reduced.b_coef, reduced.out_coef
    dim = 1 + N_sim + N
    A = np.zeros((dim, dim))
    # v = K (u, what_1..N0) as a row over the full state
    Krow = np.zeros(dim)
    Krow[0] = gains.K[0]
    Krow[1 + N_sim: 1 + N_sim + N0] = gains.K[1:]
    A[0] = Krow
    for n in range(1, N_sim + 1):
        i = n  # state index of w_n
        A[i, i] = -lam[n - 1] + q_c
        A[i, 0] += an[n - 1]
        A[i] += bn[n - 1] * Krow
    lvec = np.zeros(N)
    lvec[:N0] = gains.L
    for n in range(1, N + 1):
        i = N_sim + n  # state index of what_n
        A[i, i] += -lam[n - 1] + q_c
        A[i, 0] += an[n - 1]
        A[i] += bn[n - 1] * Krow
        A[i, 1: 1 + N_sim] += lvec[n - 1] * out[:N_sim]
        A[i, 1 + N_sim:] -= lvec[n - 1] * out[:N]
    return A


def _check_compatibility(config: SimConfig, spectrum: Spectrum, reduced: ReducedPlant):
    z0 = np.asarray(config.z0, dtype=float)
    if z0.shape != (spectrum.grid_size + 1,):
        raise GridMismatch(
            f"z0 has {z0.shape[0]} samples, spectrum grid has {spectrum.grid_size + 1}")
    tol = 1e-6
    kind = reduced.plant.measurement.kind
    scale = max(1.0, float(np.max(np.abs(z0))))
    if abs(z0[-1] - config.u0) > tol * scale:
        raise ValueError(f"z0(1) = {z0[-1]:.6g} does not match u0 = {config.u0:.6g}")
    if kind in (BOUNDED, DIRICHLET_AT_0):
        d0 = derivative_at_0(z0, spectrum.h)
        if abs(d0) > tol * scale:
            raise ValueError(f"z0'(0) = {d0:.3e} violates the flat-at-0 compatibility")
    else:
        if abs(z0[0]) > tol * scale:
            raise ValueError(f"z0(0) = {z0[0]:.3e} violates the pinned-at-0 compatibility")


def _propagate(E: np.ndarray, x0: np.ndarray, steps: int) -> np.ndarray:
    """Rows x_k = E^k x0 for k = 0..steps, in blocks of b = ceil(sqrt(steps)).

    Row j*b + r of the result is x_{jb} advanced r times by E; the block
    starts x_{jb} are repeated products with E^b.  The buffer holds whole
    blocks, and the rows past x_steps are cut off by the returned view.
    """
    b = math.isqrt(max(steps - 1, 0)) + 1
    n_blocks = steps // b + 1
    blocks = np.empty((n_blocks, b, x0.size))
    blocks[0, 0] = x0
    Eb = np.linalg.matrix_power(E, b)
    for j in range(1, n_blocks):
        blocks[j, 0] = Eb @ blocks[j - 1, 0]
    for r in range(1, b):
        np.matmul(blocks[:, r - 1], E.T, out=blocks[:, r])
    return blocks.reshape(n_blocks * b, x0.size)[: steps + 1]


def run(A_cl: np.ndarray, config: SimConfig, spectrum: Spectrum,
        reduced: ReducedPlant) -> SimResult:
    """Exact LTI stepping of the closed loop from z0, u0, null observer state."""
    dim = A_cl.shape[0]
    N = dim - 1 - config.N_sim
    if N < 1:
        raise OrderMismatch("A_cl dimension inconsistent with N_sim")
    N_sim, N0 = config.N_sim, reduced.N0
    _check_compatibility(config, spectrum, reduced)
    x_grid = spectrum.grid
    w0 = np.asarray(config.z0, dtype=float) \
        - x_grid ** reduced.plant.lifting_exponent * config.u0
    state = np.zeros(dim)
    state[0] = config.u0
    for n in range(1, N_sim + 1):
        state[n] = project(w0, spectrum, n)

    steps = int(round(config.T / config.dt))
    E = expm(A_cl * config.dt)
    step_norm = float(np.linalg.norm(E, 2))
    if not np.all(np.isfinite(E)) or steps * math.log(max(step_norm, 1.0)) > _OVERFLOW_LOG:
        raise StepRejected(
            f"one-step norm {step_norm:.3e} over {steps} steps would overflow")

    traj = _propagate(E, state, steps)
    times = np.arange(steps + 1) * config.dt

    u = traj[:, 0]
    w_modes = traj[:, 1: 1 + N_sim]
    what_modes = traj[:, 1 + N_sim:]
    Krow = np.concatenate([[A_cl[0, 0]], A_cl[0, 1 + N_sim: 1 + N_sim + N0]])
    v = u * Krow[0] + what_modes[:, :N0] @ Krow[1:]
    zeta = w_modes[:, N:] @ reduced.out_coef[N:N_sim]
    lam = spectrum.lambdas[:N_sim]
    l2_sq = np.sum(w_modes ** 2, axis=1)
    energy_sq = w_modes ** 2 @ lam
    eta = np.sqrt(u ** 2 + np.sum(what_modes ** 2, axis=1) + l2_sq + energy_sq)
    return SimResult(times=times, u=u, v=v, w_modes=w_modes, what_modes=what_modes,
                     zeta=zeta, l2_sq=l2_sq, energy_sq=energy_sq, eta=eta,
                     N=N, N0=N0, N_sim=N_sim, spectrum=spectrum, reduced=reduced)


@dataclass(frozen=True)
class LyapunovTrace:
    """V(t) along a run, the worst increment of V e^{2 delta t}, and the
    recorded bound on the neglected tail of the functional."""

    V: np.ndarray
    max_increment: float
    tail_bound: np.ndarray

    def __post_init__(self):
        self.V.setflags(write=False)
        self.tail_bound.setflags(write=False)


def lyapunov_trace(result: SimResult, certificate: Certificate) -> LyapunovTrace:
    """Evaluate V(X, w) = X'PX + gamma sum_{n>N} lambda_n w_n^2 along the run.

    X stacks (u, what_1..N0, e_1..N0, what_{N0+1..N}, scaled e_{N0+1..N})
    with the measurement-dependent error scaling.  The tail sum runs over the
    simulated modes N+1..N_sim; the remainder that truncation hides is
    bounded by the last term times a geometric factor and returned, not
    silently dropped.
    """
    if not certificate.feasible:
        raise CertificateRequired("lyapunov_trace needs a feasible certificate")
    N, N0, N_sim = result.N, result.N0, result.N_sim
    if certificate.N != N:
        raise OrderMismatch(f"certificate is for N = {certificate.N}, run used N = {N}")
    lam = result.spectrum.lambdas
    kind = result.reduced.plant.measurement.kind
    if kind == DIRICHLET_AT_0:
        scale = np.sqrt(lam[N0:N])
    elif kind == NEUMANN_AT_0:
        scale = lam[N0:N]
    else:
        scale = np.ones(N - N0)
    err = result.w_modes[:, :N] - result.what_modes
    X = np.hstack([
        result.u[:, None],
        result.what_modes[:, :N0],
        err[:, :N0],
        result.what_modes[:, N0:],
        err[:, N0:] * scale,
    ])
    V = np.einsum("ki,ij,kj->k", X, certificate.P, X)
    gamma = certificate.gamma
    tail_terms = result.w_modes[:, N:] ** 2 * lam[N:N_sim]
    V = V + gamma * np.sum(tail_terms, axis=1)
    # geometric estimate of the part beyond N_sim, from the last two terms
    if N_sim - N >= 2:
        last = gamma * tail_terms[:, -1]
        prev = gamma * tail_terms[:, -2]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(prev > 0, last / np.maximum(prev, 1e-300), 0.0)
        ratio = np.clip(ratio, 0.0, 0.9)
        tail_bound = last * ratio / (1.0 - ratio)
    else:
        tail_bound = np.zeros_like(V)
    delta = result.reduced.delta
    weighted = V * np.exp(2.0 * delta * result.times)
    max_inc = float(np.max(np.diff(weighted))) if V.size > 1 else 0.0
    return LyapunovTrace(V=V, max_increment=max_inc, tail_bound=tail_bound)


def fit_decay(times: np.ndarray, series: np.ndarray, window: tuple[float, float]) -> float:
    """Least-squares decay rate of log(series) over [t_a, t_b], negated."""
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    ta, tb = window
    mask = (times >= ta) & (times <= tb)
    if not np.any(mask):
        raise ValueError(f"window [{ta}, {tb}] contains no samples")
    y = series[mask]
    if np.any(y <= 0):
        raise NonPositiveSeries("series must be strictly positive on the fit window")
    slope = np.polyfit(times[mask], np.log(y), 1)[0]
    return float(-slope)


def field_energy(result: SimResult, step: int) -> float:
    """Quadrature of int p w'^2 + q w^2 for the reconstructed field.

    Cross-checks the modal energy sum via the spectral energy identity.
    """
    sp = result.spectrum
    coeffs = result.reduced.plant.coeffs
    w_field = result.reconstruct_w(step)
    dw = derivative_field(w_field, sp.h)
    x = sp.grid
    pv = np.broadcast_to(np.asarray(coeffs.p(x), dtype=float), x.shape)
    qv = np.broadcast_to(np.asarray(coeffs.q(x), dtype=float), x.shape)
    return float(np.sum(sp.weights * (pv * dw ** 2 + qv * w_field ** 2)))
