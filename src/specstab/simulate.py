"""Closed-loop simulation: truncated plant + observer + input integrator.

The coupled system over (u, w_1..w_Nsim, what_1..what_N) is linear and
time-invariant, so each run computes one matrix exponential E of A_cl*dt
(scaling-and-squaring Pade) and steps exactly.  The steps are blocked: with
b = ceil(sqrt(steps)), the block starts x_0, x_b, x_2b, ... come from E^b,
and then all blocks advance together as one (blocks x dim) slab by matrix
products with E, so a run takes about sqrt(steps) matrix-matrix and
sqrt(steps) matrix-vector products in place of steps matrix-vector ones.

The trajectory is never stored.  Each slab is reduced as it is produced: one
product with a fixed matrix of linear outputs (u, v, zeta, the first N plant
modes and the N observer modes) and one product of the squared slab with a
matrix of diagonal quadratic weights (sum w_n^2, sum lambda_n w_n^2, eta^2,
the tail sum_{n>N} lambda_n w_n^2 of the Lyapunov functional and its last two
terms).  Only the current slab and the next one are alive, and the full
state is copied at every snapshot_stride-th step.  A state between snapshots
is recomputed from the snapshot before it, and SimResult.fields reads these
states on the spectrum of the ReducedPlant, the only spectrum a run reads.
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
from .homogenize import BOUNDED, DIRICHLET_AT_0, ReducedPlant
from .sturm_liouville import derivative_at_0, derivative_field, project
from .synthesis import GainSet, error_scale

_OVERFLOW_LOG = 600.0  # log of the largest propagated amplification allowed
_SNAPSHOTS = 61        # a run stores the full state at about this many steps


@dataclass(frozen=True)
class SimConfig:
    """Run settings: plant truncation, stepping, horizon, initial data.

    z0 is kept as a private read-only 1-D float copy.
    """

    z0: np.ndarray
    u0: float
    N_sim: int = 50
    dt: float = 1e-3
    T: float = 3.0

    def __post_init__(self):
        if self.N_sim < 1 or self.dt <= 0 or self.T <= 0:
            raise ValueError("N_sim, dt, T must be positive")
        z0 = np.array(self.z0, dtype=float)
        if z0.ndim != 1:
            raise ValueError(f"z0 must be one-dimensional, got shape {z0.shape}")
        z0.setflags(write=False)
        object.__setattr__(self, "z0", z0)


@dataclass(frozen=True)
class SimResult:
    """Per-step series of one closed-loop run, the low-mode arrays, and the
    full state at every snapshot_stride-th step.  The plant data, N0 and the
    spectrum are read from `reduced`."""

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w_low: np.ndarray           # (steps+1, N) plant modes w_1..w_N
    what_modes: np.ndarray      # (steps+1, N)
    zeta: np.ndarray
    l2_sq: np.ndarray           # sum w_n^2
    energy_sq: np.ndarray       # sum lambda_n w_n^2
    eta: np.ndarray
    tail_energy_sq: np.ndarray  # sum_{N<n<=N_sim} lambda_n w_n^2
    tail_last: np.ndarray       # (steps+1, 2) lambda_n w_n^2, n = N_sim-1, N_sim
    snapshot_stride: int
    snapshot_states: np.ndarray  # (snapshots, 1+N_sim+N) at steps 0, stride, ...
    E: np.ndarray               # one-step matrix exp(A_cl dt)
    N: int
    N_sim: int
    reduced: ReducedPlant

    def __post_init__(self):
        for name in ("times", "u", "v", "w_low", "what_modes", "zeta", "l2_sq",
                     "energy_sq", "eta", "tail_energy_sq", "tail_last",
                     "snapshot_states", "E"):
            getattr(self, name).setflags(write=False)

    @property
    def snapshot_steps(self) -> np.ndarray:
        """Steps whose full state is stored."""
        return np.arange(0, self.times.size, self.snapshot_stride)

    def state(self, step: int) -> np.ndarray:
        """Full state (u, w_1..w_N_sim, what_1..what_N) at a step: the snapshot
        at or before it, advanced by at most snapshot_stride - 1 products with E."""
        j, r = divmod(range(self.times.size)[step], self.snapshot_stride)
        x = self.snapshot_states[j]
        for _ in range(r):
            x = self.E @ x
        return x

    def fields(self, steps, stride: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The homogenized field w, the physical field z = w + x^k u (k the
        plant's lifting exponent) and the observation error
        w - sum_{n<=N} what_n phi_n at the given steps, on every stride-th
        grid point of the reduction's spectrum, one row per step, from one
        product over the modes."""
        spectrum = self.reduced.spectrum
        states = np.array([self.state(k) for k in np.asarray(steps).tolist()])
        n = states.shape[0]
        w = states[:, 1: 1 + self.N_sim]
        coef = np.vstack([w, w])
        coef[n:, : self.N] -= states[:, 1 + self.N_sim:]
        fields = coef @ spectrum.eigenfunctions[: self.N_sim, ::stride]
        lifting = spectrum.grid[::stride] ** self.reduced.plant.lifting_exponent
        z = fields[:n] + np.outer(states[:, 0], lifting)
        return fields[:n], z, fields[n:]


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


def compatibility_defect(z0: np.ndarray, u0: float, h: float,
                         kind: str) -> tuple[str, str] | None:
    """The first compatibility condition, to 1e-6 of max(1, max |z0|), that z0
    (sampled with step h) and u0 break, as ("z0" or "u0", message), or None."""
    tol = 1e-6 * max(1.0, float(np.max(np.abs(z0))))
    if abs(z0[-1] - u0) > tol:
        return "u0", f"z0(1) = {z0[-1]:.6g} does not match u0 = {u0:.6g}"
    if kind in (BOUNDED, DIRICHLET_AT_0):
        d0 = derivative_at_0(z0, h)
        if abs(d0) > tol:
            return "z0", f"z0'(0) = {d0:.3e} violates the flat-at-0 compatibility"
    elif abs(z0[0]) > tol:
        return "z0", f"z0(0) = {z0[0]:.3e} violates the pinned-at-0 compatibility"
    return None


def _propagate(E: np.ndarray, x0: np.ndarray, steps: int, linear: np.ndarray,
               quadratic: np.ndarray, stride: int):
    """Reduce the rows x_k = E^k x0, k = 0..steps, without storing them.

    Returns x_k @ linear, (x_k ** 2) @ quadratic (one row per step) and the
    states x_0, x_stride, x_2stride, ...  The steps run in blocks of
    b = ceil(sqrt(steps)): the slab of block starts x_{jb} comes from repeated
    products with E^b, and slab r holds x_{jb+r} for every block j.  Its
    reductions go to row r of each block in (blocks, b, .) buffers, so the
    reshaped buffers are in step order; the rows past x_steps are cut off.
    """
    b = math.isqrt(max(steps - 1, 0)) + 1
    n_blocks = steps // b + 1
    lin = np.empty((n_blocks, b, linear.shape[1]))
    quad = np.empty((n_blocks, b, quadratic.shape[1]))
    snap = np.arange(0, steps + 1, stride)
    snap_block, snap_row = np.divmod(snap, b)
    states = np.empty((snap.size, x0.size))
    slab, nxt, sq = (np.empty((n_blocks, x0.size)) for _ in range(3))
    slab[0] = x0
    Eb = np.linalg.matrix_power(E, b)
    for j in range(1, n_blocks):
        slab[j] = Eb @ slab[j - 1]
    for r in range(b):
        if r:
            np.matmul(slab, E.T, out=nxt)
            slab, nxt = nxt, slab
        np.matmul(slab, linear, out=lin[:, r])
        np.matmul(np.square(slab, out=sq), quadratic, out=quad[:, r])
        at = snap_row == r
        states[at] = slab[snap_block[at]]
    rows = n_blocks * b
    return (lin.reshape(rows, -1)[: steps + 1], quad.reshape(rows, -1)[: steps + 1],
            states)


def run(A_cl: np.ndarray, config: SimConfig, reduced: ReducedPlant) -> SimResult:
    """Exact LTI stepping of the closed loop from z0 (on the grid of
    reduced.spectrum), u0 and a null observer state."""
    dim = A_cl.shape[0]
    N = dim - 1 - config.N_sim
    if N < 1:
        raise OrderMismatch("A_cl dimension inconsistent with N_sim")
    N_sim, N0, spectrum = config.N_sim, reduced.N0, reduced.spectrum
    if config.z0.shape != (spectrum.grid_size + 1,):
        raise GridMismatch(f"z0 has {config.z0.shape[0]} samples, spectrum grid has "
                           f"{spectrum.grid_size + 1}")
    defect = compatibility_defect(config.z0, config.u0, spectrum.h,
                                  reduced.plant.measurement.kind)
    if defect is not None:
        raise ValueError(defect[1])
    x_grid = spectrum.grid
    w0 = config.z0 - x_grid ** reduced.plant.lifting_exponent * config.u0
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

    # linear outputs: u, v = K (u, what_1..N0), zeta, w_1..w_N, what_1..what_N
    w_idx = np.arange(1, N_sim + 1)
    what_idx = np.arange(1 + N_sim, dim)
    linear = np.zeros((dim, 3 + 2 * N))
    linear[0, 0] = 1.0
    linear[0, 1] = A_cl[0, 0]
    linear[what_idx[:N0], 1] = A_cl[0, what_idx[:N0]]
    linear[w_idx[N:], 2] = reduced.out_coef[N:N_sim]
    linear[w_idx[:N], 3 + np.arange(N)] = 1.0
    linear[what_idx, 3 + N + np.arange(N)] = 1.0
    # quadratic weights: sum w^2, sum lambda w^2, eta^2, the tail of the
    # Lyapunov functional and its last two terms
    lam = spectrum.lambdas[:N_sim]
    quadratic = np.zeros((dim, 6))
    quadratic[w_idx, 0] = 1.0
    quadratic[w_idx, 1] = lam
    quadratic[:, 2] = 1.0
    quadratic[w_idx, 2] += lam
    quadratic[w_idx[N:], 3] = lam[N:]
    if N_sim - N >= 2:
        quadratic[w_idx[-2:], [4, 5]] = lam[-2:]

    stride = max(1, (steps + 1) // _SNAPSHOTS)
    lin, quad, states = _propagate(E, state, steps, linear, quadratic, stride)
    return SimResult(times=np.arange(steps + 1) * config.dt,
                     u=lin[:, 0], v=lin[:, 1], zeta=lin[:, 2],
                     w_low=lin[:, 3: 3 + N], what_modes=lin[:, 3 + N:],
                     l2_sq=quad[:, 0], energy_sq=quad[:, 1], eta=np.sqrt(quad[:, 2]),
                     tail_energy_sq=quad[:, 3], tail_last=quad[:, 4:],
                     snapshot_stride=stride, snapshot_states=states, E=E,
                     N=N, N_sim=N_sim, reduced=reduced)


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
    with the error scaling of synthesis.error_scale.  The tail sum runs over the
    simulated modes N+1..N_sim; the remainder that truncation hides is
    bounded by the last term times a geometric factor and returned, not
    silently dropped.
    """
    if not certificate.feasible:
        raise CertificateRequired("lyapunov_trace needs a feasible certificate")
    N, N0, N_sim = result.N, result.reduced.N0, result.N_sim
    if certificate.N != N:
        raise OrderMismatch(f"certificate is for N = {certificate.N}, run used N = {N}")
    err = result.w_low - result.what_modes
    X = np.hstack([
        result.u[:, None],
        result.what_modes[:, :N0],
        err[:, :N0],
        result.what_modes[:, N0:],
        err[:, N0:] * error_scale(result.reduced, N),
    ])
    V = np.einsum("ki,ij,kj->k", X, certificate.P, X)
    gamma = certificate.gamma
    V = V + gamma * result.tail_energy_sq
    # geometric estimate of the part beyond N_sim, from the last two terms
    if N_sim - N >= 2:
        last = gamma * result.tail_last[:, 1]
        prev = gamma * result.tail_last[:, 0]
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
    sp = result.reduced.spectrum
    coeffs = result.reduced.plant.coeffs
    w_field = result.fields([step])[0][0]
    dw = derivative_field(w_field, sp.h)
    x = sp.grid
    return float(np.sum(sp.weights * (coeffs.p(x) * dw ** 2 + coeffs.q(x) * w_field ** 2)))
