"""Eigenpairs, boundary traces, and projections for -(pf')' + qf on (0,1).

Two boundary configurations are supported: f'(0)=0, f(1)=0 (used by the
in-domain and left-trace measurement paths) and f(0)=f(1)=0 (used by the
left-flux measurement path).  p = 1, q = 0 has a closed form.  Otherwise the
operator is solved by a Legendre-Galerkin (Rayleigh-Ritz) method in Shen's
basis, whose functions meet the boundary conditions exactly: stiffness and
mass matrices by Gauss-Legendre quadrature, one symmetric-definite
eigensolve for the lowest modes, which are then sampled on a uniform grid.
The Ritz eigenvalues bound the true ones from above; the sampled modes and
their traces at x = 0 come from the same Ritz vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh

from .errors import BoundViolation, GridMismatch, NonPositiveDiffusion, ResolutionTooCoarse

NEUMANN_DIRICHLET = "neumann-dirichlet"
DIRICHLET_DIRICHLET = "dirichlet-dirichlet"

#: grid points required per half-wave of the highest requested mode
_POINTS_PER_MODE = 40

DEFAULT_GRID_SIZE = 2000


def simpson_weights(grid_size: int) -> np.ndarray:
    """Composite-Simpson weights for a uniform grid of grid_size intervals."""
    if grid_size % 2 != 0 or grid_size < 2:
        raise ValueError(f"Simpson quadrature needs an even grid_size >= 2, got {grid_size}")
    h = 1.0 / grid_size
    w = np.full(grid_size + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def derivative_at_0(values: np.ndarray, h: float) -> float:
    """One-sided fourth-order first derivative at the left endpoint."""
    f = values
    return (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)


def derivative_at_1(values: np.ndarray, h: float) -> float:
    """One-sided fourth-order first derivative at the right endpoint."""
    f = values
    return (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)


def derivative_field(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative of uniformly sampled values.

    Central differences in the interior, one-sided stencils on the first
    and last two points.
    """
    f = np.asarray(values, dtype=float)
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    d[0] = derivative_at_0(f, h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    d[-1] = derivative_at_1(f, h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12 * h)
    return d


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary configuration of the operator domain."""

    kind: str

    def __post_init__(self):
        if self.kind not in (NEUMANN_DIRICHLET, DIRICHLET_DIRICHLET):
            raise ValueError(f"unknown boundary kind {self.kind!r}")

    @property
    def neumann_at_0(self) -> bool:
        return self.kind == NEUMANN_DIRICHLET


def _sign_changes(coeffs) -> list[float]:
    """Points of (0, 1) where the ascending-coefficient polynomial changes
    sign, to rounding.

    Between consecutive sign changes of its derivative the polynomial is
    monotone, so each such piece holds at most one sign change, which
    bisection finds; the derivative's come from the same recursion.
    """
    c = [float(v) for v in coeffs][::-1]
    if len(c) < 2:
        return []

    def value(x):
        acc = 0.0
        for ck in c:
            acc = acc * x + ck
        return acc

    knots = [0.0, *_sign_changes(np.polynomial.polynomial.polyder(coeffs)), 1.0]
    roots = []
    for a, b in zip(knots, knots[1:]):
        fa, fb = value(a), value(b)
        if not (fa < 0 < fb or fb < 0 < fa):
            continue
        m = 0.5 * (a + b)
        while a < m < b:
            if (value(m) < 0) == (fa < 0):
                a = m
            else:
                b = m
            m = 0.5 * (a + b)
        roots.append(m)
    return roots


def _polynomial_range(coeffs) -> tuple[float, float]:
    """Minimum and maximum on [0, 1] of the ascending-coefficient polynomial,
    from its values at the endpoints and where its derivative changes sign."""
    x = [0.0, 1.0, *_sign_changes(np.polynomial.polynomial.polyder(coeffs))]
    values = np.polynomial.polynomial.polyval(np.array(x), coeffs)
    return float(values.min()), float(values.max())


@dataclass(frozen=True)
class CoefficientPair:
    """Diffusion p and reaction q with their a-priori bounds.

    p and q are vectorized callables on [0,1]; p_prime may be None when the
    derivative is unavailable (then only the in-domain measurement lifting
    can be built).  smoothness is "C1" or "C2"; the boundary-trace
    measurement paths require "C2".
    """

    p: Callable[[np.ndarray], np.ndarray]
    q: Callable[[np.ndarray], np.ndarray]
    p_star: float
    p_sup: float
    q_sup: float
    p_prime: Callable[[np.ndarray], np.ndarray] | None = None
    smoothness: str = "C1"

    def __post_init__(self):
        if self.smoothness not in ("C1", "C2"):
            raise ValueError(f"smoothness must be 'C1' or 'C2', got {self.smoothness!r}")
        if not self.p_star > 0:
            raise ValueError(f"p_star must be positive, got {self.p_star}")
        x = np.linspace(0.0, 1.0, 2001)
        p = np.broadcast_to(np.asarray(self.p(x), dtype=float), x.shape)
        q = np.broadcast_to(np.asarray(self.q(x), dtype=float), x.shape)
        tol = 1e-12 * max(1.0, self.p_sup)
        if np.min(p) < self.p_star - tol or np.max(p) > self.p_sup + tol:
            raise ValueError("p(x) leaves [p_star, p_sup] on the sample grid")
        if np.min(q) < -1e-12 or np.max(q) > self.q_sup + 1e-12 * max(1.0, self.q_sup):
            raise ValueError("q(x) leaves [0, q_sup] on the sample grid")

    @classmethod
    def constant(cls, p0: float, q0: float = 0.0) -> "CoefficientPair":
        """Constant coefficients; smooth, so tagged C2."""
        return cls(
            p=lambda x: np.full_like(np.asarray(x, dtype=float), p0),
            q=lambda x: np.full_like(np.asarray(x, dtype=float), q0),
            p_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            p_star=p0, p_sup=p0, q_sup=q0, smoothness="C2",
        )

    @classmethod
    def from_polynomials(cls, p_coeffs, q_coeffs) -> "CoefficientPair":
        """Build from ascending-order polynomial coefficients, with exact bounds."""
        pc = np.atleast_1d(np.asarray(p_coeffs, dtype=float))
        qc = np.atleast_1d(np.asarray(q_coeffs, dtype=float))
        dpc = np.polynomial.polynomial.polyder(pc)
        p_star, p_sup = _polynomial_range(pc)
        return cls(
            p=lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), pc),
            q=lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), qc),
            p_prime=lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), dpc),
            p_star=p_star, p_sup=p_sup,
            q_sup=max(_polynomial_range(qc)[1], 0.0), smoothness="C2",
        )

    def constant_values(self) -> tuple[float, float] | None:
        """(p0, q0) when both coefficients are constant on a probe grid, else None."""
        x = np.linspace(0.0, 1.0, 257)
        p = np.broadcast_to(np.asarray(self.p(x), dtype=float), x.shape)
        q = np.broadcast_to(np.asarray(self.q(x), dtype=float), x.shape)
        if np.ptp(p) <= 1e-13 * max(1.0, abs(p[0])) and np.ptp(q) <= 1e-13 * max(1.0, abs(q[0])):
            return float(p[0]), float(q[0])
        return None


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues, sampled unit eigenfunctions, and boundary traces.

    Eigenfunctions are stored mode-by-row on a uniform grid of grid_size+1
    points, normalized to unit L2 norm under the stored Simpson weights, with
    the first nonzero boundary datum positive.
    """

    boundary: BoundarySpec
    lambdas: np.ndarray
    eigenfunctions: np.ndarray
    trace0: np.ndarray
    dtrace0: np.ndarray
    grid_size: int
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambdas must be a nonempty 1-D array")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        if lam[0] < 0:
            raise ValueError("eigenvalues must be nonnegative")
        if self.eigenfunctions.shape != (lam.size, self.grid_size + 1):
            raise ValueError("eigenfunction array shape mismatch")
        for arr in (self.lambdas, self.eigenfunctions, self.trace0, self.dtrace0, self.weights):
            arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_size + 1)

    @property
    def h(self) -> float:
        return 1.0 / self.grid_size

    def dtrace1(self) -> np.ndarray:
        """phi_n'(1) per mode via the one-sided fourth-order stencil."""
        return np.array([derivative_at_1(f, self.h) for f in self.eigenfunctions])


def _require_resolution(n_modes: int, grid_size: int):
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if grid_size % 2 != 0:
        raise ValueError(f"grid_size must be even for Simpson quadrature, got {grid_size}")
    if grid_size < _POINTS_PER_MODE * n_modes:
        raise ResolutionTooCoarse(
            f"grid_size {grid_size} gives mode {n_modes} fewer than "
            f"{_POINTS_PER_MODE // 2} points per half-wave; need grid_size >= "
            f"{_POINTS_PER_MODE * n_modes}")


def analytic_spectrum(bspec: BoundarySpec, n_modes: int,
                      grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """Closed-form spectrum for p = 1, q = 0.

    Traces are exact; eigenfunction samples are exact trigonometric values.
    Serves as the oracle for solve_spectrum and as the fast path for
    constant-coefficient examples.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    x = np.linspace(0.0, 1.0, grid_size + 1)
    n = np.arange(1, n_modes + 1, dtype=float)
    if bspec.neumann_at_0:
        k = (n - 0.5) * np.pi
        phi = np.sqrt(2.0) * np.cos(np.outer(k, x))
        trace0 = np.full(n_modes, np.sqrt(2.0))
        dtrace0 = np.zeros(n_modes)
    else:
        k = n * np.pi
        phi = np.sqrt(2.0) * np.sin(np.outer(k, x))
        trace0 = np.zeros(n_modes)
        dtrace0 = np.sqrt(2.0) * k
    return Spectrum(boundary=bspec, lambdas=k ** 2, eigenfunctions=phi,
                    trace0=trace0, dtrace0=dtrace0, grid_size=grid_size,
                    weights=simpson_weights(grid_size))


def galerkin_order(n_modes: int) -> int:
    """Shen basis functions solve_spectrum uses for n_modes eigenpairs.

    A Legendre basis of degree M resolves about 2M/pi modes; twice the mode
    count plus 32 converges the lowest modes' eigenfunctions and traces to
    rounding as well as their eigenvalues.
    """
    return 2 * n_modes + 32


def _legendre(t: np.ndarray, n: int) -> np.ndarray:
    """L_0..L_{n-1} (n >= 2) at the points t, one row each, by the three-term recurrence."""
    L = np.empty((n, t.size))
    L[0] = 1.0
    L[1] = t
    for k in range(1, n - 1):
        L[k + 1] = ((2 * k + 1) * t * L[k] - k * L[k - 1]) / (k + 1)
    return L


def _shen_basis(bspec: BoundarySpec, M: int) -> np.ndarray:
    """The M x (M + 2) matrix T of the Shen basis phi_k = L_k + a_k L_{k+1} + b_k L_{k+2}
    in t = 2x - 1: phi_k = sum_n T[k, n] L_n.

    a_k and b_k put f(1) = 0 and f'(0) = 0 (or f(0) = 0) into every phi_k,
    from L_n(1) = 1, L_n(-1) = (-1)^n and L_n'(-1) = (-1)^(n+1) n(n+1)/2
    (J. Shen, SIAM J. Sci. Comput. 15, 1994).
    """
    k = np.arange(M)
    T = np.zeros((M, M + 2))
    T[k, k] = 1.0
    if bspec.neumann_at_0:
        T[k, k + 1] = -(2 * k + 3) / (k + 2) ** 2
        T[k, k + 2] = -((k + 1) / (k + 2)) ** 2
    else:
        T[k, k + 2] = -1.0
    return T


def _shen_at(t: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Shen basis functions of T and their t-derivatives at the points t,
    one row each; L'_{n+1} = L'_{n-1} + (2n + 1) L_n gives the derivatives."""
    L = _legendre(t, T.shape[1])
    dL = np.zeros_like(L)
    dL[1] = L[0]
    for n in range(1, T.shape[1] - 1):
        dL[n + 1] = dL[n - 1] + (2 * n + 1) * L[n]
    return T @ L, T @ dL


def _galerkin(coeffs: CoefficientPair, bspec: BoundarySpec, n_modes: int,
              M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest n_modes Ritz pairs of -(pf')' + qf in the first M Shen basis functions.

    Returns the eigenvalues in ascending order, each mode's Legendre
    coefficients in t = 2x - 1 (one row of M + 2 per mode), and each mode's
    first nonzero datum at x = 0: f(0), or f'(0) when f(0) = 0.

    Stiffness S and mass B come from Gauss-Legendre quadrature on M + 8
    nodes, exact for polynomial p and q of moderate degree.  The swapped
    problem B c = mu S c, diagonally scaled, gives lambda = 1/mu: solved the
    other way round, the Cholesky factor of B costs lambda_1 digits as M
    grows.  f(0) is the closed form sum c_n (-1)^n.  f'(0) is the weak-form
    flux p(0) f'(0) = int p f' + int (lambda - q)(1 - x) f: the closed form
    sum of c_n L_n'(-1) would multiply the coefficients' rounding by n^2.
    """
    t, w = np.polynomial.legendre.leggauss(M + 8)
    x = 0.5 * (t + 1.0)
    p = np.broadcast_to(np.asarray(coeffs.p(x), dtype=float), x.shape)
    if np.min(p) <= 0:
        raise NonPositiveDiffusion("p(x) <= 0 at a Gauss-Legendre node")
    q = np.broadcast_to(np.asarray(coeffs.q(x), dtype=float), x.shape)
    T = _shen_basis(bspec, M)
    phi, dphi = _shen_at(t, T)
    # x = (t + 1)/2: d/dx = 2 d/dt and dx = dt/2
    S = 2.0 * (dphi * (w * p)) @ dphi.T + 0.5 * (phi * (w * q)) @ phi.T
    B = 0.5 * (phi * w) @ phi.T
    # the datum at x = 0 of sum_k c_k phi_k with eigenvalue lambda: c . (d0 + lambda d1)
    if bspec.neumann_at_0:
        d0, d1 = T @ (-1.0) ** np.arange(M + 2), np.zeros(M)
    else:
        p0 = np.asarray(coeffs.p(np.zeros(1)), dtype=float).item()
        d0 = (dphi @ (w * p) - 0.5 * phi @ (w * q * (1.0 - x))) / p0
        d1 = 0.5 * phi @ (w * (1.0 - x)) / p0
    del phi, dphi  # the eigensolve needs only S and B
    s = 1.0 / np.sqrt(np.diag(S))
    S *= np.outer(s, s)
    B *= np.outer(s, s)
    mu, X = eigh(B, S, subset_by_index=[M - n_modes, M - 1], driver="gvx",
                 check_finite=False)
    lam = 1.0 / mu[::-1]
    C = (s[:, None] * X[:, ::-1]).T
    return lam, C @ T, C @ d0 + lam * (C @ d1)


#: sample points evaluated per block: bounds the Legendre rows held at once
_SAMPLE_BLOCK = 1024


def solve_spectrum(coeffs: CoefficientPair, bspec: BoundarySpec, n_modes: int,
                   grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """Numerical spectrum of -(pf')' + qf on the requested domain.

    A Legendre-Galerkin (Rayleigh-Ritz) solve in galerkin_order(n_modes)
    Shen basis functions, which meet the boundary conditions exactly, so
    the eigenvalues are upper bounds that only come down as the basis grows.
    The modes are sampled on a uniform grid of 2*grid_size intervals, block
    by block, and scaled to unit norm under its Simpson weights, with the
    first nonzero datum at x = 0 positive; that datum is the trace, and the
    other trace is zero by the boundary condition.  See _galerkin.

    Parameters
    ----------
    coeffs : CoefficientPair
    bspec : BoundarySpec
    n_modes : int
        Number of leading eigenpairs; requires grid_size >= 40*n_modes.
    grid_size : int
        Half the sample grid's intervals; must be even.
    """
    _require_resolution(n_modes, grid_size)
    lam, leg, datum = _galerkin(coeffs, bspec, n_modes, galerkin_order(n_modes))
    G = 2 * grid_size
    x = np.linspace(0.0, 1.0, G + 1)
    w = simpson_weights(G)
    phi = np.empty((n_modes, G + 1))
    norm_sq = np.zeros(n_modes)
    for start in range(0, G + 1, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        phi[:, block] = leg @ _legendre(2.0 * x[block] - 1.0, leg.shape[1])
        norm_sq += np.einsum("ij,ij,j->i", phi[:, block], phi[:, block], w[block])
    scale = np.where(datum < 0, -1.0, 1.0) / np.sqrt(norm_sq)
    phi *= scale[:, None]
    phi[:, -1] = 0.0
    trace0, dtrace0 = datum * scale, np.zeros(n_modes)
    if not bspec.neumann_at_0:
        phi[:, 0] = 0.0
        trace0, dtrace0 = dtrace0, trace0
    return Spectrum(boundary=bspec, lambdas=lam, eigenfunctions=phi,
                    trace0=trace0, dtrace0=dtrace0, grid_size=G, weights=w)


def validate_bounds(spectrum: Spectrum, coeffs: CoefficientPair) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode margins of the two-sided eigenvalue bounds.

    Returns (lambda_n - pi^2 (n-1)^2 p_star, pi^2 n^2 p_sup + q_sup - lambda_n)
    and raises BoundViolation if either margin dips below -1e-9*max(1, lambda_n).
    """
    lam = spectrum.lambdas
    n = np.arange(1, lam.size + 1, dtype=float)
    lower = lam - np.pi ** 2 * (n - 1) ** 2 * coeffs.p_star
    upper = np.pi ** 2 * n ** 2 * coeffs.p_sup + coeffs.q_sup - lam
    tol = -1e-9 * np.maximum(1.0, lam)
    bad = np.where((lower < tol) | (upper < tol))[0]
    if bad.size:
        i = int(bad[0])
        raise BoundViolation(i + 1, f"mode {i + 1}: margins ({lower[i]:.3e}, {upper[i]:.3e})")
    return lower, upper


def project(f: np.ndarray, spectrum: Spectrum, n: int) -> float:
    """Simpson quadrature of <f, phi_n> for f sampled on the spectrum grid.

    n is the 1-indexed mode number.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (spectrum.grid_size + 1,):
        raise GridMismatch(
            f"sampled function has {f.shape[0]} points, grid has {spectrum.grid_size + 1}")
    if not 1 <= n <= spectrum.n_modes:
        raise ValueError(f"mode index {n} outside 1..{spectrum.n_modes}")
    return float(np.sum(spectrum.weights * f * spectrum.eigenfunctions[n - 1]))
