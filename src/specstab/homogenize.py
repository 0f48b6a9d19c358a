"""Boundary lifting, modal reduction, and output-tail constants.

The Dirichlet-actuated plant z_t = (p z_x)_x + (q_c - q) z, z(t,1) = u(t) is
homogenized by w = z - x^2 u (flat-at-0 lifting, in-domain or left-trace
measurement) or w = z - x u (left-flux measurement).  Projection onto the
operator's eigenfunctions yields decoupled scalar mode dynamics

    w_n' = (-lambda_n + q_c) w_n + a_n u + b_n v,   v = u',

plus measurement coefficients and the tail constants that the stability
certificates quote.  Every projection is an integral of polynomial data
against a mode, computed by the spectrum's Gauss-Legendre rule, which is
exact for it.
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
DEFAULT_TAIL_TERMS = 200


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

    out_coef holds c_n, phi_n(0), or phi_n'(0) depending on the measurement.
    tail_constant is ||c||^2, M_1phi, or M_2phi(eps) as an upper bound safe
    for the certificates; feedthrough is int x^2 c dx for the bounded
    measurement and 0 otherwise.
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
    feedthrough: float

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


def _trace_tail_sum(kind: str, lam: np.ndarray, traces: np.ndarray, p_star: float,
                    eps: float, tail_terms: int,
                    constant: tuple[float, float] | None) -> float:
    """Partial sum of the trace series plus a safe analytic remainder bound."""
    if kind == DIRICHLET_AT_0:
        s_exp = 1.0          # sum phi_n(0)^2 / lambda_n
    else:
        s_exp = 1.5 + eps    # sum phi_n'(0)^2 / lambda_n^(3/2+eps)
    total = float(np.sum(traces[1:] ** 2 / lam[1:] ** s_exp))
    n_explicit = lam.size
    trace_sq_max = float(np.max(traces ** 2)) if kind == DIRICHLET_AT_0 \
        else float(np.max(traces ** 2 / lam))
    if constant is not None and tail_terms > n_explicit:
        # closed-form extension: lambda_n = p0 k_n^2 + q0 with exact traces
        p0, q0 = constant
        n = np.arange(n_explicit + 1, tail_terms + 1, dtype=float)
        if kind == DIRICHLET_AT_0:
            lam_ext = p0 * ((n - 0.5) * np.pi) ** 2 + q0
            tr_sq = 2.0
        else:
            lam_ext = p0 * (n * np.pi) ** 2 + q0
            tr_sq = 2.0 * (n * np.pi) ** 2
        total += float(np.sum(tr_sq / lam_ext ** s_exp))
        n_explicit = tail_terms
        trace_sq_max = max(trace_sq_max, 2.0) if kind == DIRICHLET_AT_0 \
            else max(trace_sq_max, float(np.max(tr_sq / lam_ext)))
    # remainder over n > n_explicit: trace bound + lambda_n >= pi^2 (n-1)^2 p_star,
    # then sum_{m >= M} m^-s <= M^-s + M^(1-s)/(s-1) with M = n_explicit
    M = n_explicit
    if kind == DIRICHLET_AT_0:
        s = 2.0  # (n-1)^2 exponent
        coef = trace_sq_max / (np.pi ** 2 * p_star)
    else:
        s = 1.0 + 2.0 * eps
        coef = trace_sq_max / (np.pi ** 2 * p_star) ** (0.5 + eps)
    remainder = coef * (M ** (-s) + M ** (1.0 - s) / (s - 1.0))
    return total + remainder


def tail_constants(plant: PlantSpec, spectrum: Spectrum, eps: float = DEFAULT_EPS,
                   tail_terms: int | None = None) -> float:
    """Upper bound on the measurement tail constant.

    Bounded measurement: ||c||^2.  Left trace: sum_{n>=2} phi_n(0)^2/lambda_n.
    Left flux: sum_{n>=2} phi_n'(0)^2/lambda_n^(3/2+eps).  The series is
    summed over the spectrum's computed modes (extended by closed forms up to
    tail_terms when the coefficients are constant) and closed with an
    integral remainder bound, so the result never undershoots the series.
    """
    if not 0.0 < eps <= 0.5:
        raise EpsOutOfRange(f"eps must lie in (0, 1/2], got {eps}")
    kind = plant.measurement.kind
    if kind == BOUNDED:
        x, w = _projection_rule(plant, spectrum)
        c = np.broadcast_to(np.asarray(plant.measurement.c(x), dtype=float), x.shape)
        norm2 = float(w @ (c * c))
        if not np.isfinite(norm2):
            raise ValueError("measurement weight c has non-finite L2 norm at the quadrature nodes")
        return norm2
    constant = plant.coeffs.constant_values()
    if tail_terms is None:
        tail_terms = DEFAULT_TAIL_TERMS if constant is not None else spectrum.n_modes
    traces = spectrum.trace0 if kind == DIRICHLET_AT_0 else spectrum.dtrace0
    return _trace_tail_sum(kind, spectrum.lambdas, traces, plant.coeffs.p_star,
                           eps, tail_terms, constant)


def _projection_rule(plant: PlantSpec, spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum's Gauss-Legendre rule at the lifting profiles' degree
    (at most deg p, deg q + k and k for the x^k lifting).

    It integrates a_n, b_n and the squared norms of a and b exactly, and c_n,
    ||c||^2 and int x^2 c too when c is a polynomial of degree at most the
    modes'.
    """
    coeffs, k = plant.coeffs, plant.lifting_exponent
    return spectrum.quadrature(max(len(coeffs.p_coeffs) - 1, len(coeffs.q_coeffs) - 1 + k, k))


def reduce(plant: PlantSpec, spectrum: Spectrum, N: int, eps: float = DEFAULT_EPS,
           tail_terms: int | None = None) -> ReducedPlant:
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
    x, w = _projection_rule(plant, spectrum)
    weighted = spectrum.phi(x, N) * w
    a, b = lifting_functions(plant, x)
    kind = plant.measurement.kind
    if kind == BOUNDED:
        c = np.broadcast_to(np.asarray(plant.measurement.c(x), dtype=float), x.shape)
        out_coef = weighted @ c
        feedthrough = float(w @ (x ** 2 * c))
    else:
        traces = spectrum.trace0 if kind == DIRICHLET_AT_0 else spectrum.dtrace0
        out_coef = traces[:N].copy()
        feedthrough = 0.0
    return ReducedPlant(
        plant=plant, spectrum=spectrum,
        a_coef=weighted @ a, b_coef=weighted @ b, out_coef=out_coef,
        N0=select_N0(spectrum, plant.q_c, plant.delta),
        tail_constant=tail_constants(plant, spectrum, eps=eps, tail_terms=tail_terms),
        tail_eps=eps,
        a_norm2=float(w @ (a * a)),
        b_norm2=float(w @ (b * b)),
        feedthrough=feedthrough,
    )


def flux_consistency_residual(reduced: ReducedPlant, n: int) -> float:
    """Consistency residual a_n + (-lambda_n + q_c) b_n + p(1) phi_n'(1).

    Integration by parts makes the first two terms equal -p(1) phi_n'(1)
    exactly, so the residual certifies quadrature/solver consistency; its
    nonvanishing reference value also witnesses controllability of the
    actuated mode.
    """
    if not 1 <= n <= reduced.n_coef:
        raise ValueError(f"mode index {n} outside 1..{reduced.n_coef}")
    sp = reduced.spectrum
    p1 = float(reduced.plant.coeffs.p(1.0))
    i = n - 1
    return float(reduced.a_coef[i]
                 + (-sp.lambdas[i] + reduced.q_c) * reduced.b_coef[i]
                 + p1 * sp.dtrace1()[i])
