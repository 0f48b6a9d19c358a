"""Eigenpairs, boundary traces, and projections for -(pf')' + qf on (0,1).

Two boundary configurations are supported: f'(0)=0, f(1)=0 (used by the
in-domain and left-trace measurement paths) and f(0)=f(1)=0 (used by the
left-flux measurement path).  p and q are polynomials (CoefficientPair), so
their bounds on [0, 1] are exact extrema.  p = 1, q = 0 has a closed form.
Otherwise the operator is solved by a Legendre-Galerkin (Rayleigh-Ritz)
method in Shen's basis, whose functions meet the boundary conditions exactly:
stiffness and mass matrices by Gauss-Legendre quadrature, and one
symmetric-definite eigensolve for the lowest modes.  The Ritz eigenvalues bound
the true ones from above.  Each mode is kept as its Legendre series, from the
same Ritz vector as its trace at x = 0, so it is a polynomial: Spectrum.phi
evaluates it at any point, and the Gauss rule of Spectrum.quadrature projects
polynomial data on it exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh_tridiagonal

from .errors import NonPositiveDiffusion

NEUMANN_DIRICHLET = "neumann-dirichlet"
DIRICHLET_DIRICHLET = "dirichlet-dirichlet"

DEFAULT_GRID_SIZE = 2000


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
    """Diffusion p and reaction q on [0, 1] as polynomials, by their ascending
    coefficients; everything else is derived from these two tuples.

    p(x), q(x) and p_prime(x) evaluate the polynomials.  The a-priori bounds
    p_star = min p, p_sup = max p and q_sup = max(max q, 0) are exact extrema
    on [0, 1] (_polynomial_range), never samples.  Construction raises
    NonPositiveDiffusion unless p > 0 on [0, 1], and ValueError when the
    minimum of q there is below -1e-12.
    """

    p_coeffs: tuple[float, ...]
    q_coeffs: tuple[float, ...]

    def __post_init__(self):
        for name in ("p_coeffs", "q_coeffs"):
            c = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if c.ndim != 1 or not c.size or not np.all(np.isfinite(c)):
                raise ValueError(f"{name} must be a nonempty list of finite numbers, got {c}")
            object.__setattr__(self, name, tuple(c.tolist()))
        if not self.p_star > 0:
            raise NonPositiveDiffusion(
                f"p must be positive on [0, 1] (its minimum there is {self.p_star:.6g})")
        q_min = _polynomial_range(self.q_coeffs)[0]
        if q_min < -1e-12:
            raise ValueError(f"q must be nonnegative on [0, 1] (its minimum there is {q_min:.6g})")

    @classmethod
    def constant(cls, p0: float, q0: float = 0.0) -> "CoefficientPair":
        """Constant coefficients p = p0, q = q0."""
        return cls((p0,), (q0,))

    @classmethod
    def from_polynomials(cls, p_coeffs, q_coeffs) -> "CoefficientPair":
        """From ascending coefficient lists: ([1, 0.5], [0, 0, 1]) is p = 1 + x/2, q = x^2."""
        return cls(p_coeffs, q_coeffs)

    def p(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.p_coeffs)

    def q(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.q_coeffs)

    def p_prime(self, x):
        return np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), np.polynomial.polynomial.polyder(self.p_coeffs))

    @property
    def p_star(self) -> float:
        return _polynomial_range(self.p_coeffs)[0]

    @property
    def p_sup(self) -> float:
        return _polynomial_range(self.p_coeffs)[1]

    @property
    def q_sup(self) -> float:
        return max(_polynomial_range(self.q_coeffs)[1], 0.0)

    def constant_values(self) -> tuple[float, float] | None:
        """(p0, q0) when both polynomials are constant once trailing zeros are
        trimmed, else None."""
        p, q = (np.polynomial.polynomial.polytrim(c) for c in (self.p_coeffs, self.q_coeffs))
        if p.size == q.size == 1:
            return float(p[0]), float(q[0])
        return None


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues, unit eigenfunctions, and boundary traces.

    A solved spectrum keeps each mode as its Legendre coefficients in
    t = 2x - 1, one row per mode of eigenfunctions; the closed form of
    p = 1, q = 0 keeps None there, its modes being sqrt2 cos((n - 1/2) pi x)
    or sqrt2 sin(n pi x).  phi() reads the modes and modes() reads them
    with their derivatives; these are the only ways to read a mode, and
    quadrature() the one rule that projects data on the modes.  Each mode has
    unit L2 norm and its first nonzero datum at x = 0 positive.  grid_size
    sets only grid, the points where the field CSVs report.
    """

    boundary: BoundarySpec
    lambdas: np.ndarray
    eigenfunctions: np.ndarray | None
    trace0: np.ndarray
    dtrace0: np.ndarray
    grid_size: int

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambdas must be a nonempty 1-D array")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        if lam[0] < 0:
            raise ValueError("eigenvalues must be nonnegative")
        rows = self.eigenfunctions
        if rows is not None and (rows.ndim != 2 or rows.shape[0] != lam.size
                                 or rows.shape[1] < 2):
            raise ValueError("eigenfunctions must hold a row of Legendre coefficients per mode")
        for arr in (self.lambdas, rows, self.trace0, self.dtrace0):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.grid_size + 1)

    def phi(self, x, count: int | None = None) -> np.ndarray:
        """The first count modes (all by default) at the points x, one row per mode."""
        x = np.asarray(x, dtype=float)
        count = self.n_modes if count is None else count
        if self.eigenfunctions is None:
            kx = np.outer(_wavenumbers(self.boundary, count), x)
            return np.sqrt(2.0) * (np.cos(kx) if self.boundary.neumann_at_0 else np.sin(kx))
        rows = self.eigenfunctions[:count]
        return rows @ _legendre(2.0 * x.ravel() - 1.0, rows.shape[1])

    def modes(self, x, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """phi(x, count) and the modes' x-derivatives at the points x, one
        row per mode; only readers of the derivatives need this."""
        x = np.asarray(x, dtype=float)
        count = self.n_modes if count is None else count
        if self.eigenfunctions is None:
            k = _wavenumbers(self.boundary, count)
            kx = np.outer(k, x)
            cos, sin = np.sqrt(2.0) * np.cos(kx), np.sqrt(2.0) * np.sin(kx)
            if self.boundary.neumann_at_0:
                return cos, -k[:, None] * sin
            return sin, k[:, None] * cos
        rows = self.eigenfunctions[:count]
        L = _legendre(2.0 * x.ravel() - 1.0, rows.shape[1])
        return rows @ L, 2.0 * (rows @ _legendre_slopes(L))  # d/dx = 2 d/dt

    def quadrature(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights on [0, 1] that integrate exactly
        the product of two modes and a polynomial of the given degree.

        A closed-form mode counts as a polynomial of the degree solve_spectrum
        would give it, which the rule resolves to rounding.
        """
        coefficients = galerkin_order(self.n_modes) + 2 if self.eigenfunctions is None \
            else self.eigenfunctions.shape[1]
        return _gauss(coefficients + degree // 2)

    def dtrace1(self) -> np.ndarray:
        """phi_n'(1) per mode."""
        return self.modes(np.ones(1))[1][:, 0]


@functools.lru_cache(maxsize=8)
def _gauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [0, 1], read-only; each costs
    O(m^2) work, and a run asks for the same few rules again."""
    t, w = _leggauss(m)
    x, w = 0.5 * (t + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1] in O(m^2) work.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math.
    Comp. 23, 1969), refined by one Newton step on the three-term recurrence;
    the weights are 2/((1 - t^2) L_m'(t)^2).  numpy's leggauss is O(m^3), and
    its weights near the ends are off by up to 6e-10 relative at m = 442;
    these are off by 3e-12 at the end nodes, falling to rounding inside.
    """
    k = np.arange(1.0, m)
    t = eigvalsh_tridiagonal(np.zeros(m), k / np.sqrt(4.0 * k * k - 1.0),
                             check_finite=False)
    L, dL = _legendre_last(t, m)
    t -= L / dL
    dL = _legendre_last(t, m)[1]
    return t, 2.0 / ((1.0 - t) * (1.0 + t) * dL ** 2)


def _legendre_last(t: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """L_m and L_m' at the points t, |t| < 1: the three-term recurrence, and
    (1 - t^2) L_m' = m (L_{m-1} - t L_m), with 1 - t^2 as (1 - t)(1 + t),
    which keeps its digits near t = +-1."""
    previous, current = np.ones_like(t), t.copy()
    for k in range(1, m):
        previous, current = current, ((2 * k + 1) * t * current - k * previous) / (k + 1)
    return current, m * (previous - t * current) / ((1.0 - t) * (1.0 + t))


def _wavenumbers(bspec: BoundarySpec, n_modes: int) -> np.ndarray:
    """k_n of the closed-form modes: (n - 1/2) pi when f'(0) = 0, n pi when f(0) = 0."""
    n = np.arange(1, n_modes + 1, dtype=float)
    return (n - 0.5) * np.pi if bspec.neumann_at_0 else n * np.pi


def analytic_spectrum(bspec: BoundarySpec, n_modes: int,
                      grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """Closed-form spectrum for p = 1, q = 0.

    Eigenvalues and traces are exact, and Spectrum.phi evaluates the
    trigonometric modes themselves.  Serves as the oracle for solve_spectrum
    and as the fast path for constant-coefficient examples.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    k = _wavenumbers(bspec, n_modes)
    if bspec.neumann_at_0:
        trace0, dtrace0 = np.full(n_modes, np.sqrt(2.0)), np.zeros(n_modes)
    else:
        trace0, dtrace0 = np.zeros(n_modes), np.sqrt(2.0) * k
    return Spectrum(boundary=bspec, lambdas=k ** 2, eigenfunctions=None,
                    trace0=trace0, dtrace0=dtrace0, grid_size=grid_size)


def galerkin_order(n_modes: int) -> int:
    """Shen basis functions solve_spectrum uses for n_modes eigenpairs.

    A Legendre basis of degree M resolves about 2M/pi modes; twice the mode
    count plus 32 converges the lowest modes' eigenfunctions and traces to
    rounding as well as their eigenvalues.
    """
    return 2 * n_modes + 32


def _legendre(t: np.ndarray, n: int) -> np.ndarray:
    """L_0..L_{n-1} (n >= 2) at the points t, one row each: the three-term
    recurrence."""
    L = np.empty((n, t.size))
    L[0] = 1.0
    L[1] = t
    for k in range(1, n - 1):
        L[k + 1] = ((2 * k + 1) * t * L[k] - k * L[k - 1]) / (k + 1)
    return L


def _legendre_slopes(L: np.ndarray) -> np.ndarray:
    """The t-derivatives of _legendre's rows: L'_{k+1} = L'_{k-1} + (2k + 1) L_k."""
    dL = np.zeros_like(L)
    dL[1] = 1.0
    for k in range(1, len(L) - 1):
        dL[k + 1] = dL[k - 1] + (2 * k + 1) * L[k]
    return dL


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


def _galerkin(coeffs: CoefficientPair, bspec: BoundarySpec, n_modes: int,
              M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest n_modes Ritz pairs of -(pf')' + qf in the first M Shen basis functions.

    Returns the eigenvalues in ascending order, each mode's Legendre
    coefficients in t = 2x - 1 (one row of M + 2 per mode), and each mode's
    first nonzero datum at x = 0: f(0), or f'(0) when f(0) = 0.  Each mode
    is scaled to unit norm under the mass matrix, which the Gauss rule
    computes exactly, with that datum positive.

    Stiffness S and mass B come from Gauss-Legendre quadrature on M + 8
    nodes, exact for p of degree <= 15 and q of degree <= 13.  The swapped
    problem B c = mu S c, diagonally scaled, gives lambda = 1/mu: solved the
    other way round, the Cholesky factor of B costs lambda_1 digits as M
    grows.  f(0) is the closed form sum c_n (-1)^n.  f'(0) is the weak-form
    flux p(0) f'(0) = int p f' + int (lambda - q)(1 - x) f: the closed form
    sum of c_n L_n'(-1) would multiply the coefficients' rounding by n^2.
    """
    t, w = _leggauss(M + 8)
    x = 0.5 * (t + 1.0)
    p, q = coeffs.p(x), coeffs.q(x)
    T = _shen_basis(bspec, M)
    L = _legendre(t, M + 2)
    phi, dphi = T @ L, T @ _legendre_slopes(L)
    # x = (t + 1)/2: d/dx = 2 d/dt and dx = dt/2
    S = 2.0 * (dphi * (w * p)) @ dphi.T + 0.5 * (phi * (w * q)) @ phi.T
    B = 0.5 * (phi * w) @ phi.T
    # the datum at x = 0 of sum_k c_k phi_k with eigenvalue lambda: c . (d0 + lambda d1)
    if bspec.neumann_at_0:
        d0, d1 = T @ (-1.0) ** np.arange(M + 2), np.zeros(M)
    else:
        p0 = float(coeffs.p(0.0))
        d0 = (dphi @ (w * p) - 0.5 * phi @ (w * q * (1.0 - x))) / p0
        d1 = 0.5 * phi @ (w * (1.0 - x)) / p0
    del L, phi, dphi  # the eigensolve needs only S and B
    s = 1.0 / np.sqrt(np.diag(S))
    S *= np.outer(s, s)
    B *= np.outer(s, s)
    # gvx, not gvd: gvd takes half the time, but scaling to unit mass divides its
    # O(eps) residuals by sqrt(mu), so the high modes lose B-orthonormality (1e-11)
    mu, X = eigh(B, S, subset_by_index=[M - n_modes, M - 1], driver="gvx",
                 check_finite=False)
    lam = 1.0 / mu[::-1]
    X = X[:, ::-1]
    C = (s[:, None] * X).T
    datum = C @ d0 + lam * (C @ d1)
    scale = np.where(datum < 0, -1.0, 1.0) / np.sqrt(np.einsum("ij,ij->j", X, B @ X))
    return lam, scale[:, None] * (C @ T), scale * datum


def solve_spectrum(coeffs: CoefficientPair, bspec: BoundarySpec, n_modes: int,
                   grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """Numerical spectrum of -(pf')' + qf on the requested domain.

    A Legendre-Galerkin (Rayleigh-Ritz) solve in galerkin_order(n_modes)
    Shen basis functions, which meet the boundary conditions exactly, so
    the eigenvalues are upper bounds that only come down as the basis grows.
    The Spectrum keeps each mode's Legendre coefficients; the first nonzero
    datum at x = 0 is the trace, and the other trace is zero by the boundary
    condition.  See _galerkin.

    Parameters
    ----------
    coeffs : CoefficientPair
    bspec : BoundarySpec
    n_modes : int
        Number of leading eigenpairs.
    grid_size : int
        Half the intervals of Spectrum.grid, where the field CSVs report.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    lam, rows, datum = _galerkin(coeffs, bspec, n_modes, galerkin_order(n_modes))
    trace0, dtrace0 = datum, np.zeros(n_modes)
    if not bspec.neumann_at_0:
        trace0, dtrace0 = dtrace0, trace0
    return Spectrum(boundary=bspec, lambdas=lam, eigenfunctions=rows,
                    trace0=trace0, dtrace0=dtrace0, grid_size=2 * grid_size)
