"""Eigenpairs, boundary traces, and projections for -(pf')' + qf on (0,1).

Two boundary configurations are supported: f'(0)=0, f(1)=0 (used by the
in-domain and left-trace measurement paths) and f(0)=f(1)=0 (used by the
left-flux measurement path).  The operator is discretized in conservative
flux form, which keeps the discrete problem symmetric tridiagonal; eigenvalues
are Richardson-extrapolated over two grid levels and eigenfunctions are kept
on the fine grid.

Fine-grid eigenpairs: LAPACK stebz (bisection) gives the eigenvalues, called
as scipy's eigh_tridiagonal calls it, so they are bit-identical to it; each
eigenvector is one stein (inverse iteration) call, and one in-place
Cholesky-QR (syrk, Cholesky, trsm) orthonormalizes them all.  A single stein
call over all of them would Gram-Schmidt each vector against every earlier
one, because on fine grids all wanted eigenvalues fall in one stein cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, cholesky, eigh_tridiagonal
from scipy.linalg.blas import dsyrk, dtrsm
from scipy.linalg.lapack import dstebz, dstein

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
    Serves as the oracle for the finite-difference solver and as the fast
    path for constant-coefficient examples.
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


def _solve_grid(coeffs: CoefficientPair, bspec: BoundarySpec, n_modes: int,
                grid_size: int, want_vectors: bool):
    """Eigenpairs of the flux-form discretization on one grid level."""
    G = grid_size
    h = 1.0 / G
    x = np.linspace(0.0, 1.0, G + 1)
    pmid = np.broadcast_to(np.asarray(coeffs.p(x[:-1] + h / 2), dtype=float), (G,))
    if np.min(pmid) <= 0:
        raise NonPositiveDiffusion("p(x) <= 0 at a staggered grid point")
    qv = np.broadcast_to(np.asarray(coeffs.q(x), dtype=float), (G + 1,))
    if bspec.neumann_at_0:
        # unknowns f_0..f_{G-1}; ghost mirror f_{-1}=f_1 with even p extension.
        # Row 0 then reads (2 p_{1/2}/h^2)(f_0 - f_1) + q_0 f_0; scaling node 0
        # by 1/sqrt(2) restores symmetry without moving the eigenvalues.
        d = np.empty(G)
        d[0] = 2 * pmid[0] / h ** 2 + qv[0]
        d[1:] = (pmid[:-1] + pmid[1:]) / h ** 2 + qv[1:-1]
        e = -pmid[:-1] / h ** 2
        e = e.copy()
        e[0] *= np.sqrt(2.0)
    else:
        # unknowns f_1..f_{G-1}
        d = (pmid[:-1] + pmid[1:]) / h ** 2 + qv[1:-1]
        e = -pmid[1:-1] / h ** 2
    if not want_vectors:
        lam = eigh_tridiagonal(d, e, select="i", select_range=(0, n_modes - 1),
                               eigvals_only=True)
        return lam, None
    phi = np.zeros((n_modes, G + 1))
    first = 0 if bspec.neumann_at_0 else 1
    lam = _eigenpairs(d, e, n_modes, phi, first)
    if bspec.neumann_at_0:
        phi[:, 0] *= np.sqrt(2.0)
    return lam, phi


def _eigenpairs(d: np.ndarray, e: np.ndarray, n_modes: int, phi: np.ndarray,
                first: int) -> np.ndarray:
    """Lowest n_modes eigenpairs of the symmetric tridiagonal matrix (d, e).

    Returns the eigenvalues in ascending order and writes the orthonormal
    eigenvectors into the rows of phi, at columns first..first+d.size-1; the
    other columns of phi must be zero.  The Cholesky-QR works on phi.T, a
    Fortran-ordered view of the same buffer, so no second copy is made.
    """
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 0.0, 1, n_modes, 0.0, "B")
    if info:
        raise LinAlgError(f"stebz (bisection) failed with info = {info}")
    order = np.argsort(w[:m])
    block = np.empty_like(iblock)  # stein's wrapper wants n entries; one is read
    for mode, i in enumerate(order, 1):
        block[0] = iblock[i]
        z, info = dstein(d, e, w[i:i + 1], block, isplit)
        if info:
            raise LinAlgError(
                f"stein: inverse iteration for mode {mode} did not converge (info = {info})")
        phi[mode - 1, first:first + d.size] = z[:, 0]
    V = phi.T
    R = cholesky(dsyrk(1.0, V, trans=1), overwrite_a=True, check_finite=False)
    dtrsm(1.0, R, V, side=1, overwrite_b=1)
    return w[order]


def solve_spectrum(coeffs: CoefficientPair, bspec: BoundarySpec, n_modes: int,
                   grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """Numerical spectrum of -(pf')' + qf on the requested domain.

    The problem is discretized in conservative flux form on grids of
    grid_size and 2*grid_size intervals; eigenvalues are Richardson
    extrapolated, eigenfunctions and traces come from the fine grid.

    Parameters
    ----------
    coeffs : CoefficientPair
    bspec : BoundarySpec
    n_modes : int
        Number of leading eigenpairs; requires grid_size >= 40*n_modes.
    grid_size : int
        Base (coarse) grid intervals; must be even.
    """
    _require_resolution(n_modes, grid_size)
    lam_coarse, _ = _solve_grid(coeffs, bspec, n_modes, grid_size, want_vectors=False)
    lam_fine, phi = _solve_grid(coeffs, bspec, n_modes, 2 * grid_size, want_vectors=True)
    lam = (4.0 * lam_fine - lam_coarse) / 3.0
    G = 2 * grid_size
    h = 1.0 / G
    w = simpson_weights(G)
    for i in range(n_modes):
        phi[i] /= np.sqrt(np.sum(w * phi[i] ** 2))
        datum = phi[i, 0] if bspec.neumann_at_0 else derivative_at_0(phi[i], h)
        if datum < 0:
            phi[i] = -phi[i]
    trace0 = phi[:, 0].copy()
    if bspec.neumann_at_0:
        dtrace0 = np.zeros(n_modes)
    else:
        dtrace0 = np.array([derivative_at_0(phi[i], h) for i in range(n_modes)])
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
