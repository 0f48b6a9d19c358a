"""Closed-loop simulation: truncated plant + observer + input integrator.

A run steps the certificate's own closed loop: the state X of
synthesis.assemble_closed_loop and the plant tail w_{N+1..N_sim}.  It is
linear and time-invariant, so each run computes one matrix exponential E of
A_cl*dt (scaling-and-squaring Pade) and steps exactly.  The steps are
blocked: with b = ceil(sqrt(steps)), the block starts x_0, x_b, x_2b, ... come from E^b,
and then all blocks advance together as one (blocks x dim) slab by matrix
products with E, so a run takes about sqrt(steps) matrix-matrix and
sqrt(steps) matrix-vector products in place of steps matrix-vector ones.

The trajectory of the tail is never stored.  Each slab is reduced as it is
produced: one product with a fixed matrix of linear outputs (X, v and zeta)
and one product of the squared slab with the tail's weights (sum w_n^2 and
sum lambda_n w_n^2 over n > N).  The series over all modes follow from X.
Only the current slab and the next one are alive, and the full state is
copied at every snapshot_stride-th step.  A state between snapshots is
recomputed from the snapshot before it.

The spectrum of the ReducedPlant is the only one a run reads, and its modes
are read only through Spectrum.phi: the initial data z0, a polynomial, is
projected on them by the spectrum's Gauss-Legendre rule, exactly, and
SimResult.fields evaluates them at the points of the spectrum's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .certificate import Certificate
from .errors import CertificateRequired, NonPositiveSeries, OrderMismatch, StepRejected
from .homogenize import BOUNDED, DIRICHLET_AT_0, ReducedPlant
from .sturm_liouville import _polynomial_range
from .synthesis import GainSet, assemble_closed_loop, state_layout

_OVERFLOW_LOG = 600.0  # log of the largest propagated amplification allowed
_SNAPSHOTS = 61        # a run stores the full state at about this many steps


@dataclass(frozen=True)
class SimConfig:
    """Run settings: plant truncation, stepping, horizon, initial data.

    z0 holds the initial profile's ascending polynomial coefficients in x,
    kept as a private read-only 1-D float copy.
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
        if z0.ndim != 1 or not z0.size:
            raise ValueError(f"z0 must be a nonempty 1-D coefficient array, got shape {z0.shape}")
        z0.setflags(write=False)
        object.__setattr__(self, "z0", z0)


@dataclass(frozen=True)
class SimResult:
    """Per-step series of one closed-loop run with its certificate state X, and
    the full state at every snapshot_stride-th step.  The plant data, N0 and
    the spectrum are read from `reduced`."""

    times: np.ndarray
    X: np.ndarray               # (steps+1, 2N+1), laid out as synthesis.state_layout
    v: np.ndarray
    zeta: np.ndarray
    l2_sq: np.ndarray           # sum w_n^2
    energy_sq: np.ndarray       # sum lambda_n w_n^2
    eta: np.ndarray
    tail_energy_sq: np.ndarray  # sum_{N<n<=N_sim} lambda_n w_n^2
    snapshot_stride: int
    snapshot_states: np.ndarray  # (snapshots, 1+N_sim+N) at steps 0, stride, ...
    E: np.ndarray               # one-step matrix exp(A_cl dt)
    N: int
    N_sim: int
    reduced: ReducedPlant

    def __post_init__(self):
        for name in ("times", "X", "v", "zeta", "l2_sq", "energy_sq", "eta",
                     "tail_energy_sq", "snapshot_states", "E"):
            getattr(self, name).setflags(write=False)

    @property
    def u(self) -> np.ndarray:
        """The input u at every step, X's first column."""
        return self.X[:, 0]

    @property
    def snapshot_steps(self) -> np.ndarray:
        """Steps whose full state is stored."""
        return np.arange(0, self.times.size, self.snapshot_stride)

    def state(self, step: int) -> np.ndarray:
        """Full state (X, w_{N+1..N_sim}) at a step: the snapshot at or before
        it, advanced by at most snapshot_stride - 1 products with E."""
        j, r = divmod(range(self.times.size)[step], self.snapshot_stride)
        x = self.snapshot_states[j]
        for _ in range(r):
            x = self.E @ x
        return x

    def modes(self, steps) -> tuple[np.ndarray, np.ndarray]:
        """Plant modes w_1..w_N_sim and observation errors e_n = w_n - what_n
        (w_n beyond N) at the given steps, one row per step."""
        states = np.array([self.state(k) for k in np.asarray(steps).tolist()])
        return _modes(states, self.reduced, self.N)

    def fields(self, steps, stride: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The homogenized field w, the physical field z = w + x^k u (k the
        plant's lifting exponent) and the observation error
        w - sum_{n<=N} what_n phi_n at the given steps, on every stride-th
        grid point of the reduction's spectrum, one row per step, from one
        product over the modes."""
        spectrum = self.reduced.spectrum
        w, error = self.modes(steps)
        n = w.shape[0]
        x = spectrum.grid[::stride]
        fields = np.vstack([w, error]) @ spectrum.phi(x, self.N_sim)
        lifting = x ** self.reduced.plant.lifting_exponent
        z = fields[:n] + np.outer(self.u[np.asarray(steps)], lifting)
        return fields[:n], z, fields[n:]


def _modes(states: np.ndarray, reduced: ReducedPlant, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, e) of state rows that start with X, as SimResult.modes: the columns
    past X, if any, are the tail w_{N+1..}, where e_n = w_n."""
    what, error, scale = state_layout(reduced, N)
    e = np.hstack([states[:, error] / scale, states[:, 2 * N + 1:]])
    w = e.copy()
    w[:, :N] += states[:, what]
    return w, e


def assemble_sim(reduced: ReducedPlant, gains: GainSet, N: int, N_sim: int) -> np.ndarray:
    """Closed-loop generator over (X, w_{N+1..N_sim}): X' = F X + Lcal zeta
    (assemble_closed_loop) with zeta = sum_{N<n<=N_sim} out_n w_n, and
    w_n' = (-lambda_n + q_c) w_n + a_n u + b_n v with v = K X_{0..N0}."""
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
    model = assemble_closed_loop(reduced, gains, N)
    n, tail = model.dim, slice(N, N_sim)
    A = np.zeros((1 + N_sim + N, 1 + N_sim + N))
    A[:n, :n] = model.F
    A[:n, n:] = np.outer(model.Lcal, reduced.out_coef[tail])
    A[n:, : N0 + 1] = np.outer(reduced.b_coef[tail], gains.K)
    A[n:, 0] += reduced.a_coef[tail]
    A[n:, n:] = np.diag(-reduced.spectrum.lambdas[tail] + reduced.q_c)
    return A


def compatibility_defect(z0, u0: float, kind: str) -> tuple[str, str] | None:
    """The first compatibility condition, to 1e-6 of max(1, max |z0| on [0, 1]),
    that z0 (ascending polynomial coefficients) and u0 break, as ("z0" or "u0",
    message), or None.  z0(1), z0(0) and z0'(0) are read off the coefficients."""
    z0 = np.asarray(z0, dtype=float)
    low, high = _polynomial_range(z0)
    tol = 1e-6 * max(1.0, -low, high)
    z1 = float(np.polynomial.polynomial.polyval(1.0, z0))
    if abs(z1 - u0) > tol:
        return "u0", f"z0(1) = {z1:.6g} does not match u0 = {u0:.6g}"
    if kind in (BOUNDED, DIRICHLET_AT_0):
        d0 = float(z0[1]) if z0.size > 1 else 0.0
        if abs(d0) > tol:
            return "z0", f"z0'(0) = {d0:.3e} violates the flat-at-0 compatibility"
    elif abs(z0[0]) > tol:
        return "z0", f"z0(0) = {z0[0]:.3e} violates the pinned-at-0 compatibility"
    return None


def _growth_log(E: np.ndarray, step_norm: float, steps: int) -> float:
    """The log of a bound on |E^k|_2 over k <= steps.

    steps log max(|E|_2, 1) when that is at most _OVERFLOW_LOG; a stable but
    non-normal E can have |E|_2 > 1.  Otherwise the sum of log |E^(2^i)|_2
    over the repeated squarings before the first power with norm below 1:
    k = q 2^j + r with r < 2^j, so |E^k| <= |E^(2^j)|^q prod_{i<j} max(1,
    |E^(2^i)|) by submultiplicativity.  inf when no power E^(2^i) with
    2^i <= steps has norm below 1.
    """
    growth = steps * math.log(max(step_norm, 1.0))
    if growth <= _OVERFLOW_LOG:
        return growth
    # power is E^(2^i) / |E^(2^i)|_2, and log_norm its norm's log, so that
    # a growing power cannot overflow
    growth, power, log_norm = 0.0, E / step_norm, math.log(step_norm)
    for _ in range(steps.bit_length()):
        if log_norm < 0.0:
            return growth
        growth += log_norm
        power = power @ power
        norm = float(np.linalg.norm(power, 2))
        log_norm = 2.0 * log_norm + math.log(norm)
        power /= norm
    return math.inf


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
    """Exact LTI stepping of assemble_sim's loop from X(0) = (u0, what = 0,
    scale_n w0_n) and the tail w0_{N+1..N_sim}, with w0 = z0 - x^k u0
    projected on the modes of reduced.spectrum."""
    dim = A_cl.shape[0]
    N = dim - 1 - config.N_sim
    if N < reduced.N0 + 1:
        raise OrderMismatch("A_cl dimension inconsistent with N_sim")
    N_sim, spectrum, n_x = config.N_sim, reduced.spectrum, 2 * N + 1
    defect = compatibility_defect(config.z0, config.u0, reduced.plant.measurement.kind)
    if defect is not None:
        raise ValueError(defect[1])
    k = reduced.plant.lifting_exponent
    x, w = spectrum.quadrature(max(config.z0.size - 1, k))
    w0 = spectrum.phi(x, N_sim) @ (w * (np.polynomial.polynomial.polyval(x, config.z0)
                                        - x ** k * config.u0))
    what, error, scale = state_layout(reduced, N)
    state = np.zeros(dim)
    state[0] = config.u0
    state[error] = scale * w0[:N]
    state[n_x:] = w0[N:]

    steps = int(round(config.T / config.dt))
    E = expm(A_cl * config.dt)
    step_norm = float(np.linalg.norm(E, 2))
    if not np.all(np.isfinite(E)) or _growth_log(E, step_norm, steps) > _OVERFLOW_LOG:
        raise StepRejected(
            f"one-step norm {step_norm:.3e} over {steps} steps would overflow")

    # linear outputs: X, v (the generator's first row) and zeta; quadratic
    # weights: the tail's sum w^2 and sum lambda w^2
    lam = spectrum.lambdas[:N_sim]
    linear = np.zeros((dim, n_x + 2))
    linear[:n_x, :n_x] = np.eye(n_x)
    linear[:, n_x] = A_cl[0]
    linear[n_x:, n_x + 1] = reduced.out_coef[N:N_sim]
    quadratic = np.zeros((dim, 2))
    quadratic[n_x:, 0] = 1.0
    quadratic[n_x:, 1] = lam[N:]

    stride = max(1, (steps + 1) // _SNAPSHOTS)
    lin, quad, states = _propagate(E, state, steps, linear, quadratic, stride)
    X, (l2_sq, tail_energy_sq) = lin[:, :n_x], quad.T
    w_sq = np.square(_modes(X, reduced, N)[0])
    l2_sq += w_sq.sum(axis=1)
    energy_sq = w_sq @ lam[:N] + tail_energy_sq
    eta = np.sqrt(np.square(X[:, 0]) + np.square(X[:, what]).sum(axis=1)
                  + l2_sq + energy_sq)
    return SimResult(times=np.arange(steps + 1) * config.dt, X=X, v=lin[:, n_x],
                     zeta=lin[:, n_x + 1], l2_sq=l2_sq, energy_sq=energy_sq, eta=eta,
                     tail_energy_sq=tail_energy_sq,
                     snapshot_stride=stride, snapshot_states=states, E=E,
                     N=N, N_sim=N_sim, reduced=reduced)


@dataclass(frozen=True)
class LyapunovTrace:
    """V(t) along a run and the worst increment of V e^{2 delta t}."""

    V: np.ndarray
    max_increment: float

    def __post_init__(self):
        self.V.setflags(write=False)


def lyapunov_trace(result: SimResult, certificate: Certificate) -> LyapunovTrace:
    """Evaluate V(X, w) = X'PX + gamma sum_{n>N} lambda_n w_n^2 along the run,
    on the run's own certificate state X; the tail sum runs over the
    simulated modes N+1..N_sim."""
    if not certificate.feasible:
        raise CertificateRequired("lyapunov_trace needs a feasible certificate")
    if certificate.N != result.N:
        raise OrderMismatch(f"certificate is for N = {certificate.N}, run used N = {result.N}")
    V = np.einsum("ki,ij,kj->k", result.X, certificate.P, result.X)
    V = V + certificate.gamma * result.tail_energy_sq
    delta = result.reduced.delta
    weighted = V * np.exp(2.0 * delta * result.times)
    max_inc = float(np.max(np.diff(weighted))) if V.size > 1 else 0.0
    return LyapunovTrace(V=V, max_increment=max_inc)


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
    """int p w'^2 + q w^2 of the field w = sum_{n<=N_sim} w_n phi_n at a step,
    by the spectrum's Gauss-Legendre rule, which is exact for it.

    Cross-checks the modal energy sum via the spectral energy identity.
    """
    sp = result.reduced.spectrum
    coeffs = result.reduced.plant.coeffs
    x, w = sp.quadrature(max(len(coeffs.p_coeffs), len(coeffs.q_coeffs)) - 1)
    phi, dphi = sp.modes(x, result.N_sim)
    modes = result.modes([step])[0][0]
    return float(w @ (coeffs.p(x) * (modes @ dphi) ** 2 + coeffs.q(x) * (modes @ phi) ** 2))
