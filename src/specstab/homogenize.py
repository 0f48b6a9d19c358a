"""Boundary lifting, modal reduction, and output-tail constants.

The Dirichlet-actuated plant z_t = (p z_x)_x + (q_c - q) z, z(t,1) = u(t) is
homogenized by w = z - x^2 u (flat-at-0 lifting, in-domain or left-trace
measurement) or w = z - x u (left-flux measurement).  Projection onto the
operator's eigenfunctions yields decoupled scalar mode dynamics

    w_n' = (-lambda_n + q_c) w_n + a_n u + b_n v,   v = u',

plus measurement coefficients and the tail constants that the stability
certificates quote.  Every projection is an integral of polynomial data
against a mode, computed by the spectrum's Gauss-Legendre rule, which is
exact for it; Spectrum.projection supplies the modes at its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DecayUnreachable, EpsOutOfRange, InsufficientModes
from .sturm_liouville import (
    DIRICHLET_DIRICHLET,
    NEUMANN_DIRICHLET,
    BoundarySpec,
    CoefficientPair,
    Spectrum,
)

BOUNDED = "bounded"
DIRICHLET_AT_0 = "dirichlet"
NEUMANN_AT_0 = "neumann"

DEFAULT_EPS = 0.125


@dataclass(frozen=True)
class MeasurementSpec:
    """Measurement operator: in-domain weight c, left trace, or left flux."""

    kind: str
    c: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in (BOUNDED, DIRICHLET_AT_0, NEUMANN_AT_0):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.kind == BOUNDED and self.c is None:
            raise ValueError("bounded measurement requires a weight function c")

    @classmethod
    def bounded(cls, c: Callable[[np.ndarray], np.ndarray]) -> "MeasurementSpec":
        return cls(BOUNDED, c)

    @classmethod
    def dirichlet(cls) -> "MeasurementSpec":
        return cls(DIRICHLET_AT_0)

    @classmethod
    def neumann(cls) -> "MeasurementSpec":
        return cls(NEUMANN_AT_0)


@dataclass(frozen=True)
class PlantSpec:
    """Plant data: coefficients, reaction constant, measurement, decay target."""

    coeffs: CoefficientPair
    q_c: float
    measurement: MeasurementSpec
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def boundary(self) -> BoundarySpec:
        """Operator domain implied by the measurement location."""
        if self.measurement.kind == NEUMANN_AT_0:
            return BoundarySpec(DIRICHLET_DIRICHLET)
        return BoundarySpec(NEUMANN_DIRICHLET)

    @property
    def lifting_exponent(self) -> int:
        """Power of x in the boundary lifting (2 or 1)."""
        return 1 if self.measurement.kind == NEUMANN_AT_0 else 2


@dataclass(frozen=True)
class ReducedPlant:
    """Modal plant data up to order n_coef, with tail constants.

    out_coef holds c_n for the bounded measurement and the spectrum's datum0,
    phi_n(0) or phi_n'(0), for the left trace and the left flux.
    tail_constant is ||c||^2, M_1phi, or M_2phi(eps) as an upper bound safe
    for the certificates.
    """

    plant: PlantSpec
    spectrum: Spectrum
    a_coef: np.ndarray
    b_coef: np.ndarray
    out_coef: np.ndarray
    N0: int
    tail_constant: float
    tail_eps: float
    a_norm2: float
    b_norm2: float

    def __post_init__(self):
        for arr in (self.a_coef, self.b_coef, self.out_coef):
            arr.setflags(write=False)
        lam = self.spectrum.lambdas
        if self.N0 < 1:
            raise ValueError("N0 must be >= 1")
        if self.a_coef.size < self.N0:
            raise InsufficientModes(
                f"reduction carries {self.a_coef.size} modes but N0 = {self.N0} "
                "must be controlled; raise the reduction order or lower delta/q_c")
        if np.any(-lam[self.N0:] + self.plant.q_c >= -self.plant.delta):
            raise ValueError("spectral gap violated: -lambda_n + q_c >= -delta for some n > N0")

    @property
    def n_coef(self) -> int:
        return self.a_coef.size

    @property
    def q_c(self) -> float:
        return self.plant.q_c

    @property
    def delta(self) -> float:
        return self.plant.delta


def lifting_functions(plant: PlantSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample the forcing profiles a and b of the homogenized dynamics on x.

    For the x^2 lifting, a = 2p + 2xp' + (q_c - q)x^2 and b = -x^2; for the
    x lifting, a = p' + (q_c - q)x and b = -x.  p, p' and q are the
    coefficient polynomials' values at x.
    """
    x = np.asarray(x, dtype=float)
    coeffs = plant.coeffs
    pp, qv = coeffs.p_prime(x), coeffs.q(x)
    if plant.lifting_exponent == 2:
        a = 2.0 * coeffs.p(x) + 2.0 * x * pp + (plant.q_c - qv) * x ** 2
        b = -x ** 2
    else:
        a = pp + (plant.q_c - qv) * x
        b = -x
    return a, b


def select_N0(spectrum: Spectrum, q_c: float, delta: float) -> int:
    """Smallest N0 >= 1 with -lambda_n + q_c < -delta for all n > N0."""
    lam = spectrum.lambdas
    stable = -lam + q_c < -delta
    if not stable[-1]:
        raise DecayUnreachable(
            f"-lambda_n + q_c >= -delta for every computed mode "
            f"(lambda_{lam.size} = {lam[-1]:.4g}, q_c = {q_c}, delta = {delta}); "
            "raise n_modes")
    # all modes beyond the first False must be stable
    unstable = np.where(~stable)[0]
    n0 = int(unstable[-1]) + 1 if unstable.size else 1
    return max(n0, 1)


def _zeta_tail(s: float, a: float) -> float:
    """U(s, a) >= sum_{k>=0} (a + k)^-s for s > 1, a > 0.

    The Euler-Maclaurin sum cut just before its first negative term; the
    summand is completely monotone, so U exceeds the sum by at most
    s(s+1)(s+2) a^(-s-3)/720 (Olver, Asymptotics and Special Functions,
    1974, ch. 8).
    """
    return a ** (1.0 - s) / (s - 1.0) + a ** -s / 2.0 + s * a ** (-s - 1.0) / 12.0


def _trace_tail_sum(kind: str, spectrum: Spectrum, coeffs: CoefficientPair,
                    eps: float) -> float:
    """sum_{n>=2} r_n / lambda_n^e over the M computed modes, plus an upper
    bound on the rest: r_bar (p_star pi^2)^-e U(2e, a).

    Left trace: r_n = phi_n(0)^2, e = 1, k_n = (n - 1/2) pi, a = M + 1/2.
    Left flux: r_n = phi_n'(0)^2/lambda_n, e = 1/2 + eps, k_n = n pi, a = M + 1.
    Min-max against (p_star, q = 0) gives lambda_n >= p_star k_n^2 (Courant &
    Hilbert, vol. I, ch. VI), an equality for constant p and q = 0.  r_bar
    is sup_n r_n, 2 or 2/p0 for constant coefficients; otherwise it is the
    computed modes' largest r_n, a sample.
    """
    lam, M = spectrum.lambdas, spectrum.n_modes
    r = spectrum.datum0 ** 2
    if kind == DIRICHLET_AT_0:
        e, a = 1.0, M + 0.5
    else:
        r = r / lam
        e, a = 0.5 + eps, M + 1.0
    constant = coeffs.constant_values()
    if constant is None:
        r_bar = float(np.max(r))
    else:
        r_bar = 2.0 if kind == DIRICHLET_AT_0 else 2.0 / constant[0]
    partial = float(np.sum(r[1:] / lam[1:] ** e))
    return partial + r_bar * (coeffs.p_star * np.pi ** 2) ** -e * _zeta_tail(2.0 * e, a)


def tail_constants(plant: PlantSpec, spectrum: Spectrum, eps: float = DEFAULT_EPS) -> float:
    """Upper bound on the measurement tail constant.

    Bounded measurement: ||c||^2.  Left trace: sum_{n>=2} phi_n(0)^2/lambda_n.
    Left flux: sum_{n>=2} phi_n'(0)^2/lambda_n^(3/2+eps).  The series is
    summed over the spectrum's computed modes and closed with the bound of
    _trace_tail_sum on the rest.
    """
    if not 0.0 < eps <= 0.5:
        raise EpsOutOfRange(f"eps must lie in (0, 1/2], got {eps}")
    kind = plant.measurement.kind
    if kind == BOUNDED:
        x, w = spectrum.quadrature(_projection_degree(plant))
        c = np.broadcast_to(np.asarray(plant.measurement.c(x), dtype=float), x.shape)
        norm2 = float(w @ (c * c))
        if not np.isfinite(norm2):
            raise ValueError("measurement weight c has non-finite L2 norm at the quadrature nodes")
        return norm2
    return _trace_tail_sum(kind, spectrum, plant.coeffs, eps)


def _projection_degree(plant: PlantSpec) -> int:
    """The degree of the spectrum's Gauss-Legendre rule for the projections:
    the lifting profiles' degree, at most deg p, deg q + k and k for the x^k
    lifting, with trailing zero coefficients trimmed.

    That rule integrates a_n, b_n and the squared norms of a and b exactly,
    and c_n and ||c||^2 too when c is a polynomial of degree at most the
    modes'.
    """
    deg_p, deg_q = plant.coeffs.degrees
    k = plant.lifting_exponent
    return max(deg_p, deg_q + k, k)


def reduce(plant: PlantSpec, spectrum: Spectrum, N: int, eps: float = DEFAULT_EPS) -> ReducedPlant:
    """Project the homogenized plant onto the first N modes.

    The spectrum must carry at least N+1 modes (the certificates need
    lambda_{N+1}) and must live on the domain implied by the measurement.
    """
    if spectrum.n_modes < N + 1:
        raise InsufficientModes(
            f"need {N + 1} modes (lambda_N+1 included), spectrum has {spectrum.n_modes}")
    if spectrum.boundary != plant.boundary:
        raise ValueError(
            f"spectrum domain {spectrum.boundary.kind} does not match the "
            f"measurement-implied domain {plant.boundary.kind}")
    x, w, modes = spectrum.projection(_projection_degree(plant), N)
    weighted = modes * w
    a, b = lifting_functions(plant, x)
    if plant.measurement.kind == BOUNDED:
        c = np.broadcast_to(np.asarray(plant.measurement.c(x), dtype=float), x.shape)
        out_coef = weighted @ c
    else:
        out_coef = spectrum.datum0[:N].copy()
    return ReducedPlant(
        plant=plant, spectrum=spectrum,
        a_coef=weighted @ a, b_coef=weighted @ b, out_coef=out_coef,
        N0=select_N0(spectrum, plant.q_c, plant.delta),
        tail_constant=tail_constants(plant, spectrum, eps=eps),
        tail_eps=eps,
        a_norm2=float(w @ (a * a)),
        b_norm2=float(w @ (b * b)),
    )

