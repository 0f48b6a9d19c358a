"""Closed-loop simulation: truncated plant + observer + input integrator.

A run steps the certificate's own closed loop at order N: the state X of
synthesis.assemble_closed_loop and the plant tail w_{N+1..N_sim}.  It is
linear and time-invariant, so each run computes one matrix exponential E of
A_cl*dt (scaling-and-squaring Pade) and steps exactly.  The steps are
blocked: with b = ceil(sqrt(steps)), the block starts x_0, x_b, x_2b, ... come from E^b,
and then all blocks advance together as one (blocks x dim) slab by matrix
products with E, so a run takes about sqrt(steps) matrix-matrix and
sqrt(steps) matrix-vector products in place of steps matrix-vector ones.

A run's thread-sized work is on scipy's library, by the rule in _linalg: the
Pade step is expm's, and the squarings, E^b, the slab products, the norms
and the spectrum are _linalg's.

The trajectory of the tail is never stored.  Each slab is reduced as it is
produced: one product with a fixed matrix of linear outputs (X, v and zeta)
and one product of the squared slab with the tail's weights (sum w_n^2 and
sum lambda_n w_n^2 over n > N).  The series over all modes follow from X.
Only the current slab and the next one are alive, and the full state is
copied at every snapshot_stride-th step.  A state between snapshots is
recomputed from the snapshot before it.

The spectrum of the ReducedPlant is the only one a run reads.  The initial
data z0, a polynomial, is projected on its modes by the spectrum's
Gauss-Legendre rule, exactly, with the modes at the rule's nodes from
Spectrum.projection, and SimResult.fields evaluates them by Spectrum.phi at
the points of the spectrum's grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._linalg import eigvals, gemm, lstsq, svdvals
from .certificate import Certificate
from .errors import CertificateRequired, NonPositiveSeries, OrderMismatch, StepRejected
from .homogenize import BOUNDED, DIRICHLET_AT_0, ReducedPlant
from .sturm_liouville import _polynomial_range
from .synthesis import GainSet, assemble_closed_loop, state_layout

_OVERFLOW_LOG = 600.0  # log of the largest propagated amplification allowed
_SNAPSHOTS = 61        # a run stores the full state at about this many steps
_THETA13 = 4.25  # 1-norm up to which scipy's expm does not square (see _exponential)
_CHUNK_ROWS = 4096  # rows formed at once, of a run's transients and of the CSV writers' text


@dataclass(frozen=True)
class SimConfig:
    """Run settings: plant truncation, stepping, horizon, initial data.

    z0 holds the initial profile's ascending polynomial coefficients in x,
    kept as a private read-only 1-D float copy; the input starts at z0(1).
    """

    z0: np.ndarray
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
    abscissa: float             # spectral abscissa max Re eig(A_cl)
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
        fields = gemm(np.vstack([w, error]), spectrum.phi(x, self.N_sim))
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
    model = assemble_closed_loop(reduced, gains, N)
    n, tail = model.dim, slice(N, N_sim)
    A = np.zeros((1 + N_sim + N, 1 + N_sim + N))
    A[:n, :n] = model.F
    A[:n, n:] = np.outer(model.Lcal, reduced.out_coef[tail])
    A[n:, : reduced.N0 + 1] = np.outer(reduced.b_coef[tail], gains.K)
    A[n:, 0] += reduced.a_coef[tail]
    A[n:, n:] = np.diag(-reduced.spectrum.lambdas[tail] + reduced.q_c)
    return A


def compatibility_defect(z0, kind: str) -> str | None:
    """The compatibility condition at x = 0, to 1e-6 of max(1, max |z0| on [0, 1]),
    that z0 (ascending polynomial coefficients) breaks, as a message, or None.
    The one at x = 1 holds by construction, as a run starts at u = z0(1)."""
    z0 = np.asarray(z0, dtype=float)
    low, high = _polynomial_range(z0)
    tol = 1e-6 * max(1.0, -low, high)
    if kind in (BOUNDED, DIRICHLET_AT_0):
        d0 = float(z0[1]) if z0.size > 1 else 0.0
        if abs(d0) > tol:
            return f"z0'(0) = {d0:.3e} violates the flat-at-0 compatibility"
    elif abs(z0[0]) > tol:
        return f"z0(0) = {z0[0]:.3e} violates the pinned-at-0 compatibility"
    return None


def _chunks(count: int):
    """Slices of rows 0..count-1, _CHUNK_ROWS at a time."""
    return (slice(start, min(start + _CHUNK_ROWS, count))
            for start in range(0, count, _CHUNK_ROWS))


def step_times(T: float, dt: float) -> np.ndarray:
    """The times of a run's steps 0..round(T / dt), dt apart."""
    return np.arange(int(round(T / dt)) + 1) * dt


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
        power = gemm(power, power)
        norm = float(svdvals(power)[0])
        log_norm = 2.0 * log_norm + math.log(norm)
        power /= norm
    return math.inf


def _require_bounded_growth(E: np.ndarray, steps: int):
    """StepRejected unless the states of `steps` products with E stay below
    exp(_OVERFLOW_LOG) times the initial one.

    The guard is first tried on sqrt(|E|_1 |E|_inf), which is at least
    |E|_2 and costs O(n^2); it is raised by n u, u the unit roundoff, for
    the rounding of both norms, so that it passes only where |E|_2 as
    svdvals computes it passes too.  Only when it fails are |E|_2 and
    _growth_log computed, and they decide.
    """
    finite = bool(np.all(np.isfinite(E)))
    if finite:
        bound = math.sqrt(float(np.linalg.norm(E, 1)) * float(np.linalg.norm(E, np.inf)))
        bound *= 1.0 + E.shape[0] * np.finfo(float).eps
        if steps * math.log(max(bound, 1.0)) <= _OVERFLOW_LOG:
            return
    step_norm = float(svdvals(E)[0]) if finite else math.inf
    if not finite or _growth_log(E, step_norm, steps) > _OVERFLOW_LOG:
        raise StepRejected(
            f"one-step norm {step_norm:.3e} over {steps} steps would overflow")


def _exponential(A: np.ndarray, dt: float) -> np.ndarray:
    """exp(A dt): expm of A dt / 2^s with s the least such that its 1-norm is at
    most _THETA13, then s squarings by gemm.  expm's own squarings would be
    numpy's @ (see _linalg).

    scipy's expm is Al-Mohy & Higham's algorithm (SIAM J. Matrix Anal. Appl.
    31(3), 2009).  At degree 13 it squares ceil(log2(eta / 4.25)) + ell
    times, where eta is at most the 1-norm, and ell is 0 at a 1-norm of at
    most 4.25: its alpha is at most 4.25^26 / 1.13e35, below the unit
    roundoff.  So expm does not square A dt / 2^s.  At s = 0 the result is
    expm(A dt) itself."""
    M = A * dt
    norm = float(np.linalg.norm(M, 1))
    s = math.ceil(math.log2(norm / _THETA13)) if _THETA13 < norm < math.inf else 0
    E = expm(M * 2.0 ** -s)
    for _ in range(s):
        E = gemm(E, E)
    return E


def _power(E: np.ndarray, b: int) -> np.ndarray:
    """E^b for b >= 1 by binary powering on gemm, in numpy's matrix_power
    order of products from b = 4 on, so that E^b keeps its bits."""
    power = None
    while True:
        b, bit = divmod(b, 2)
        if bit:
            power = E if power is None else gemm(power, E)
        if not b:
            return power
        E = gemm(E, E)


def _propagate(E: np.ndarray, x0: np.ndarray, steps: int, linear: np.ndarray,
               quadratic: np.ndarray, stride: int):
    """Reduce the rows x_k = E^k x0, k = 0..steps, without storing them.

    Returns x_k @ linear, (x_k ** 2) @ quadratic (one row per step) and the
    states x_0, x_stride, x_2stride, ...  The steps run in blocks of
    b = ceil(sqrt(steps)): the slab of block starts x_{jb} comes from repeated
    products with E^b, and slab r holds x_{jb+r} for every block j.  Its
    reductions go to row r of each block in (blocks, b, .) buffers, so the
    reshaped buffers are in step order; the rows past x_steps are cut off.

    E^b and each next slab are gemm's (see _linalg); the next slab is written
    in place, and gemm raises rather than leave it unwritten.
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
    Eb = _power(E, b)
    for j in range(1, n_blocks):
        slab[j] = Eb @ slab[j - 1]
    for r in range(b):
        if r:
            gemm(slab, E.T, out=nxt)
            slab, nxt = nxt, slab
        np.matmul(slab, linear, out=lin[:, r])
        np.matmul(np.square(slab, out=sq), quadratic, out=quad[:, r])
        at = snap_row == r
        states[at] = slab[snap_block[at]]
    rows = n_blocks * b
    return (lin.reshape(rows, -1)[: steps + 1], quad.reshape(rows, -1)[: steps + 1],
            states)


def run(reduced: ReducedPlant, gains: GainSet, N: int, config: SimConfig) -> SimResult:
    """Exact LTI stepping of assemble_sim's loop at order N from X(0) = (u0,
    what = 0, scale_n w0_n) and the tail w0_{N+1..N_sim}, where u0 = z0(1)
    and w0 = z0 - x^k u0 is projected on the modes of reduced.spectrum."""
    N_sim, spectrum, n_x = config.N_sim, reduced.spectrum, 2 * N + 1
    dim = 1 + N_sim + N
    defect = compatibility_defect(config.z0, reduced.plant.measurement.kind)
    if defect is not None:
        raise ValueError(defect)
    A_cl = assemble_sim(reduced, gains, N, N_sim)
    u0 = float(np.polynomial.polynomial.polyval(1.0, config.z0))
    k = reduced.plant.lifting_exponent
    x, w, modes = spectrum.projection(max(config.z0.size - 1, k), N_sim)
    w0 = modes @ (w * (np.polynomial.polynomial.polyval(x, config.z0) - x ** k * u0))
    what, error, scale = state_layout(reduced, N)
    state = np.zeros(dim)
    state[0] = u0
    state[error] = scale * w0[:N]
    state[n_x:] = w0[N:]

    times = step_times(config.T, config.dt)
    steps = times.size - 1
    E = _exponential(A_cl, config.dt)
    _require_bounded_growth(E, steps)

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
    # the squares of w_n = e_n + what_n, n <= N, formed once and in place,
    # column by column into a C-ordered array as _modes lays them out: the
    # product with lam reads that layout, and its bits depend on it
    w_sq = np.empty((steps + 1, N))
    for n in range(N):
        np.divide(X[:, error[n]], scale[n], out=w_sq[:, n])
        w_sq[:, n] += X[:, what[n]]
    np.square(w_sq, out=w_sq)
    l2_sq += w_sq.sum(axis=1)
    energy_sq = w_sq @ lam[:N]
    energy_sq += tail_energy_sq
    del w_sq
    eta = np.empty(steps + 1)
    for rows in _chunks(steps + 1):
        x = X[rows]
        eta[rows] = (np.square(x[:, 0]) + np.square(x[:, what]).sum(axis=1)
                     + l2_sq[rows] + energy_sq[rows])
    np.sqrt(eta, out=eta)
    return SimResult(times=times, X=X, v=lin[:, n_x],
                     zeta=lin[:, n_x + 1], l2_sq=l2_sq, energy_sq=energy_sq, eta=eta,
                     tail_energy_sq=tail_energy_sq,
                     snapshot_stride=stride, snapshot_states=states, E=E,
                     abscissa=float(np.max(eigvals(A_cl).real)),
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
    for rows in _chunks(V.size):
        V[rows] += certificate.gamma * result.tail_energy_sq[rows]
    # the increments of V e^(2 delta t), each chunk's reaching the row after it
    delta, tops = result.reduced.delta, []
    for rows in _chunks(V.size - 1):
        span = slice(rows.start, rows.stop + 1)
        tops.append(np.max(np.diff(V[span] * np.exp(2.0 * delta * result.times[span]))))
    return LyapunovTrace(V=V, max_increment=float(np.max(tops)) if tops else 0.0)


def fit_decay(times: np.ndarray, series: np.ndarray, window: tuple[float, float]) -> float:
    """Least-squares decay rate of log(series) over [t_a, t_b], negated.

    A series that reaches 0 in the window, as eta underflows on a long
    horizon, is fitted on the window's samples before its first nonpositive
    one; NonPositiveSeries when fewer than 2 samples come before it.

    The fit is numpy.polyfit's of degree 1, operation for operation, so the
    rate keeps polyfit's bits: the design matrix [t, 1] is scaled by its
    columns' norms, summed row by row as polyfit's (lhs * lhs).sum(axis=0)
    sums them, and lstsq solves it with rcond = n eps.  Only here the matrix
    is filled and the logarithm taken in place, and lstsq works in the
    Fortran-ordered matrix and the log series themselves: the window holds
    at most four doubles a sample (the times, the log series and the matrix)
    before lstsq, and three during it.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    ta, tb = window
    mask = (times >= ta) & (times <= tb)
    if not np.any(mask):
        raise ValueError(f"window [{ta}, {tb}] contains no samples")
    t, y = times[mask], series[mask]
    nonpositive = np.flatnonzero(y <= 0)
    n = y.size
    if nonpositive.size:
        if nonpositive[0] < 2:
            raise NonPositiveSeries("series must be strictly positive on the first 2 samples "
                                    "of the fit window")
        n = int(nonpositive[0])
    lhs = np.empty((n, 2), order="F")
    lhs[:, 0] = t[:n]
    lhs[:, 1] = 1.0
    del t
    y = np.log(y[:n], out=y[:n])
    squares = np.square(lhs[:, 0])
    scale = np.sqrt([np.add.accumulate(squares, out=squares)[-1], float(n)])
    del squares
    lhs /= scale
    slope, rank = lstsq(lhs, y, n * np.finfo(float).eps)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    return float(-(slope[0] / scale[0]))
