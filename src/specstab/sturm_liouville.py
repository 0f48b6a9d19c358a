"""Eigenpairs, data at x = 0, and projections for -(pf')' + qf on (0,1).

Two boundary configurations are supported: f'(0)=0, f(1)=0 (used by the
in-domain and left-trace measurement paths) and f(0)=f(1)=0 (used by the
left-flux measurement path).  p and q are polynomials (CoefficientPair), so
their bounds on [0, 1] are exact extrema.  p = 1, q = 0 has a closed form.
Otherwise the operator is solved by a Legendre-Galerkin (Rayleigh-Ritz)
method in Shen's basis, whose functions meet the boundary conditions exactly:
stiffness and mass matrices by Gauss-Legendre quadrature, and one
symmetric-definite eigensolve for the lowest modes.  The Ritz eigenvalues bound
the true ones from above.  Each mode is kept as its Legendre series, from the
same Ritz vector as its datum at x = 0, so it is a polynomial: Spectrum.phi
evaluates it at any point, and the Gauss rule of Spectrum.quadrature projects
polynomial data on it exactly.  That rule is the solve's own whenever it is
exact for the data, and the solve keeps the modes' values at its nodes, so a
run evaluates the Legendre series at one rule's nodes once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, eigh, eigvalsh_tridiagonal, solve_triangular

from ._linalg import dsygst, gemm
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

    @property
    def degrees(self) -> tuple[int, int]:
        """Degrees of p and q once trailing zeros are trimmed."""
        p, q = (np.polynomial.polynomial.polytrim(c) for c in (self.p_coeffs, self.q_coeffs))
        return p.size - 1, q.size - 1

    def constant_values(self) -> tuple[float, float] | None:
        """(p0, q0) when both polynomials are constant once trailing zeros are
        trimmed, else None."""
        if self.degrees == (0, 0):
            return self.p_coeffs[0], self.q_coeffs[0]
        return None


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues, unit eigenfunctions, and one boundary datum per mode.

    A solved spectrum keeps each mode as its Legendre coefficients in
    t = 2x - 1, one row per mode of eigenfunctions, and the modes' values at
    the nodes of its solve's Gauss rule in node_values; the closed form of
    p = 1, q = 0 keeps None in both, its modes being sqrt2 cos((n - 1/2) pi x)
    or sqrt2 sin(n pi x).  phi() evaluates the modes at any points,
    quadrature() is the one rule that projects data on them, and
    projection() pairs that rule with the modes at its nodes.  datum0 holds
    each mode's first nonzero datum at x = 0: phi_n(0) on the f'(0) = 0
    domain, phi_n'(0) on the f(0) = 0 domain.  Each mode has unit L2 norm and
    a positive datum0.  grid_size sets only grid, the points where the field
    CSVs report.
    """

    boundary: BoundarySpec
    lambdas: np.ndarray
    eigenfunctions: np.ndarray | None
    datum0: np.ndarray
    grid_size: int
    node_values: np.ndarray | None = None

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
        values = self.node_values
        if (values is None) != (rows is None) or values is not None and (
                values.ndim != 2 or values.shape[0] != lam.size):
            raise ValueError("node_values must hold a row of values per solved mode")
        for arr in (self.lambdas, rows, self.datum0, values):
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
        return gemm(rows, _legendre(2.0 * x.ravel() - 1.0, rows.shape[1]))

    def quadrature(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights on [0, 1] that integrate exactly
        the product of two modes and a polynomial of the given degree.

        A solved spectrum returns its solve's own rule whenever that rule is
        exact for the degree.  A closed-form mode counts as a polynomial of
        the degree solve_spectrum would give it, which the rule resolves to
        rounding.
        """
        return _gauss(self._rule_size(degree))[:2]

    def projection(self, degree: int, count: int | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """quadrature(degree) and the first count modes (all by default) at
        its nodes, one row per mode: (x, w, phi).  The modes are read from
        node_values when the rule is the solve's own, else evaluated by phi()."""
        m = self._rule_size(degree)
        x, w, _ = _gauss(m)
        if self.node_values is not None and m == self.node_values.shape[1]:
            return x, w, self.node_values[:count]
        return x, w, self.phi(x, count)

    def _rule_size(self, degree: int) -> int:
        """Nodes of quadrature(degree)."""
        if self.eigenfunctions is None:
            return galerkin_order(self.n_modes) + 2 + degree // 2
        return max(self.eigenfunctions.shape[1] + degree // 2, self.node_values.shape[1])


@functools.lru_cache(maxsize=8)
def _gauss(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [0, 1] as read-only nodes x and
    weights, and the nodes t = 2x - 1 on [-1, 1] it was computed at; each
    costs O(m^2) work, and a run asks for the same few rules again.

    x is derived from t, not t from x: 2x - 1 loses t's last bits wherever
    t + 1 rounds, and Legendre series are evaluated in t.
    """
    t, w = _leggauss(m)
    x, w = 0.5 * (t + 1.0), 0.5 * w
    for arr in (x, w, t):
        arr.setflags(write=False)
    return x, w, t


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

    Eigenvalues and data at x = 0 are exact, and Spectrum.phi evaluates the
    trigonometric modes themselves.  Serves as the oracle for solve_spectrum
    and as the fast path for constant-coefficient examples.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    k = _wavenumbers(bspec, n_modes)
    datum0 = np.sqrt(2.0) * (np.ones(n_modes) if bspec.neumann_at_0 else k)
    return Spectrum(boundary=bspec, lambdas=k ** 2, eigenfunctions=None,
                    datum0=datum0, grid_size=grid_size)


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


def _shen_diagonals(bspec: BoundarySpec, M: int) -> tuple[np.ndarray, np.ndarray]:
    """a_k and b_k, k < M, of the Shen basis phi_k = L_k + a_k L_{k+1} + b_k L_{k+2}
    in t = 2x - 1.

    They put f(1) = 0 and f'(0) = 0 (or f(0) = 0) into every phi_k, from
    L_n(1) = 1, L_n(-1) = (-1)^n and L_n'(-1) = (-1)^(n+1) n(n+1)/2
    (J. Shen, SIAM J. Sci. Comput. 15, 1994).
    """
    k = np.arange(M, dtype=float)
    if bspec.neumann_at_0:
        return -(2 * k + 3) / (k + 2) ** 2, -((k + 1) / (k + 2)) ** 2
    return np.zeros(M), -np.ones(M)


def _shen_rows(a: np.ndarray, b: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Row k is L[k] + a_k L[k+1] + b_k L[k+2]: the M Shen functions from
    M + 2 rows of Legendre data, such as their values or slopes at points."""
    return L[:-2] + a[:, None] * L[1:-1] + b[:, None] * L[2:]


def _legendre_rows(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Legendre coefficients of sum_k C[:, k] phi_k, one row per row of C."""
    rows = np.zeros((C.shape[0], C.shape[1] + 2))
    rows[:, :-2] = C
    rows[:, 1:-1] += C * a
    rows[:, 2:] += C * b
    return rows


def _rule_size(coeffs: CoefficientPair, M: int) -> int:
    """Nodes of the Gauss rule that _galerkin assembles on: exact for
    p phi_j' phi_k' (degree 2M + deg p), q phi_j phi_k (2M + 2 + deg q) and
    the datum's integrals, with the degrees of the trimmed polynomials.  Never
    fewer than M + 8, which is exact up to deg p = 15 and deg q = 13."""
    deg_p, deg_q = coeffs.degrees
    return M + max(8, (deg_p + 2) // 2, (deg_q + 4) // 2)


def galerkin_bytes(coeffs: CoefficientPair, n_modes: int) -> int:
    """Bytes that solve_spectrum holds at its peak for n_modes of coeffs: six
    arrays of M + 2 by R doubles, M = galerkin_order(n_modes) and R =
    _rule_size(coeffs, M).  Five are held at the peak: the Legendre values and
    slopes, the Shen values and two temporaries of the Shen slopes; then the
    Shen values, the mass matrix, the stiffness's Cholesky factor, the reduced
    matrix and its eigenvectors.  The sixth covers the vectors and MRRR's O(M)
    workspace, which weigh most at small M (0.7% to spare at 10 modes)."""
    M = galerkin_order(n_modes)
    return 8 * 6 * (M + 2) * _rule_size(coeffs, M)


def _galerkin(coeffs: CoefficientPair, bspec: BoundarySpec, n_modes: int, M: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lowest n_modes Ritz pairs of -(pf')' + qf in the first M Shen basis functions.

    Returns the eigenvalues in ascending order, each mode's Legendre
    coefficients in t = 2x - 1 (one row of M + 2 per mode), each mode's
    first nonzero datum at x = 0 (f(0), or f'(0) when f(0) = 0), and each
    mode's values at the nodes of _gauss(_rule_size(coeffs, M)).  The modes
    are orthonormal under the mass matrix, which that Gauss rule computes
    exactly, and each datum is positive.

    Stiffness S and mass B are quadrature products on that rule.  The basis
    is applied by its two off-diagonals (_shen_rows), but S and B stay dense
    products: assembled on the band alone they would hold exact zeros, and
    the eigensolver's reduction of the pencil then decays into subnormal
    numbers, which made it about 1.5 times slower.  The swapped problem
    B c = mu S c, diagonally scaled, gives lambda = 1/mu: solved the other
    way round, the Cholesky factor of B costs lambda_1 digits as M grows.

    With S = F F^T, it is the standard problem of F^-1 B F^-T, solved whole
    by the MRRR algorithm (LAPACK's syevr; Dhillon & Parlett, Linear Algebra
    Appl. 387, 2004), and the top n_modes pairs are kept.  On the varcoef-fine
    pencil that takes about 40% less time than bisection and inverse
    iteration for the kept pairs alone (gvx).  Divide and conquer (gvd) is a
    little faster still, but its vectors of the higher modes carry O(eps) errors
    along every other mode, which the datum at x = 0 amplifies: at 201 modes
    of p = 1.3, q = 0.5 its phi_n(0) is off the closed form by 1.6e-10, where
    MRRR's is within 7e-13 and its eigenvalues within 1e-14.  Scaling the
    vectors to unit mass would divide their O(eps) residuals by sqrt(mu), so
    the high modes would lose B-orthonormality.  One Cholesky-QR in the B
    inner product restores it.  It mixes each vector only with the lower
    modes' vectors, and only by that much, so the residuals of the scaled
    pencil stay at rounding.

    f(0) is the closed form sum c_n (-1)^n.  f'(0) is the weak-form flux
    p(0) f'(0) = int p f' + int (lambda - q)(1 - x) f: the closed form
    sum of c_n L_n'(-1) would multiply the coefficients' rounding by n^2.

    The matrix products (S, B, the Gram matrix and the values at the nodes)
    are gemm's, on the library that eigh runs on (see _linalg).
    """
    x, w, t = _gauss(_rule_size(coeffs, M))
    a, b = _shen_diagonals(bspec, M)
    L = _legendre(t, M + 2)
    phi, dphi = _shen_rows(a, b, L), _shen_rows(a, b, _legendre_slopes(L))
    del L
    p, q = coeffs.p(x), coeffs.q(x)
    # x = (t + 1)/2: d/dx = 2 d/dt
    S = 4.0 * gemm(dphi * (w * p), dphi.T) + gemm(phi * (w * q), phi.T)
    B = gemm(phi * w, phi.T)
    # the datum at x = 0 of sum_k c_k phi_k with eigenvalue lambda: c . (d0 + lambda d1)
    if bspec.neumann_at_0:  # phi_k(-1) = (-1)^k (1 - a_k + b_k)
        d0, d1 = (-1.0) ** np.arange(M) * (1.0 - a + b), np.zeros(M)
    else:
        p0 = float(coeffs.p(0.0))
        d0 = (2.0 * (dphi @ (w * p)) - phi @ (w * q * (1.0 - x))) / p0
        d1 = phi @ (w * (1.0 - x)) / p0
    del dphi  # phi stays for the modes' values at the nodes
    s = 1.0 / np.sqrt(np.diag(S))
    S *= np.outer(s, s)
    B *= np.outer(s, s)
    # B c = mu S c as the standard problem of F^-1 B F^-T, S = F F^T
    F = cholesky(S, lower=True, overwrite_a=True, check_finite=False)
    del S  # cholesky may return a copy: the eigensolve must not hold S beside it
    mu, Z = eigh(dsygst(B, F, lower=1)[0], lower=True, driver="evr", overwrite_a=True,
                 check_finite=False)
    lam = 1.0 / mu[:-n_modes - 1:-1]
    X = solve_triangular(F, Z[:, :-n_modes - 1:-1], trans="T", lower=True, check_finite=False)
    del F, Z
    R = cholesky(gemm(X.T, gemm(B, X)), check_finite=False)
    C = solve_triangular(R, X.T, trans="T", check_finite=False) * s
    datum = C @ d0 + lam * (C @ d1)
    sign = np.where(datum < 0, -1.0, 1.0)
    C *= sign[:, None]
    return lam, _legendre_rows(C, a, b), sign * datum, gemm(C, phi)


def solve_spectrum(coeffs: CoefficientPair, bspec: BoundarySpec, n_modes: int,
                   grid_size: int = DEFAULT_GRID_SIZE) -> Spectrum:
    """Numerical spectrum of -(pf')' + qf on the requested domain.

    A Legendre-Galerkin (Rayleigh-Ritz) solve in galerkin_order(n_modes)
    Shen basis functions, which meet the boundary conditions exactly, so
    the eigenvalues are upper bounds that only come down as the basis grows.
    The Spectrum keeps each mode's Legendre coefficients, its values at the
    nodes of the solve's Gauss rule, and its first nonzero datum at x = 0 as
    datum0.  See _galerkin.

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
    lam, rows, datum0, values = _galerkin(coeffs, bspec, n_modes, galerkin_order(n_modes))
    return Spectrum(boundary=bspec, lambdas=lam, eigenfunctions=rows, datum0=datum0,
                    grid_size=2 * grid_size, node_values=values)
