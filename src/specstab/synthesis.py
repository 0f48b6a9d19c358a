"""Finite-dimensional design matrices, pole placement, certificate blocks.

The controlled state is W_a = (u, w_1..w_N0) with dynamics (A1, B1); the
observer corrects the first N0 modes through the output row C0.  The full
certificate state X stacks (W_a-hat, E^N0, W-hat^{N-N0}, E~^{N-N0}) where the
unestimated-error block is rescaled per measurement kind so the coupling row
C1 stays bounded as N grows; state_layout says where each mode sits in X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientModes, OrderTooSmall, UncontrollablePair, UnobservablePair
from .homogenize import BOUNDED, DIRICHLET_AT_0, ReducedPlant

_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class GainSet:
    """State-feedback row K and observer column L with their pole sets."""

    K: np.ndarray
    L: np.ndarray
    controller_poles: tuple
    observer_poles: tuple

    def __post_init__(self):
        self.K.setflags(write=False)
        self.L.setflags(write=False)

    @property
    def N0(self) -> int:
        return self.L.size


@dataclass(frozen=True)
class ClosedLoopMatrices:
    """The certificate dynamics X' = F X + Lcal * zeta at observer order N, and
    G; assemble_closed_loop places the design blocks in F."""

    N: int
    N0: int
    F: np.ndarray
    Lcal: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        for name in ("F", "Lcal", "G"):
            getattr(self, name).setflags(write=False)

    @property
    def dim(self) -> int:
        return 2 * self.N + 1


def _char_poly_matrix(A: np.ndarray, poles) -> np.ndarray:
    """chi(A) for the monic polynomial with the given roots, by Horner."""
    coeffs = np.atleast_1d(np.poly(np.asarray(poles, dtype=float)))
    chi = np.zeros_like(A)
    eye = np.eye(A.shape[0])
    for c in coeffs:
        chi = chi @ A + c * eye
    return chi


def place_controller(A1: np.ndarray, B1: np.ndarray, poles) -> np.ndarray:
    """Single-input pole placement: K with eig(A1 + B1 K) = poles.

    Ackermann's formula; the controllability matrix is checked by SVD and
    inverted through a dense LU solve.  The achieved poles are verified to
    1e-8 before returning.
    """
    A = np.atleast_2d(np.asarray(A1, dtype=float))
    b = np.asarray(B1, dtype=float).reshape(-1)
    n = A.shape[0]
    poles = tuple(float(p) for p in np.atleast_1d(poles))
    if len(poles) != n:
        raise ValueError(f"need {n} poles, got {len(poles)}")
    ctrb = np.empty((n, n))
    v = b.copy()
    for j in range(n):
        ctrb[:, j] = v
        v = A @ v
    sv = np.linalg.svd(ctrb, compute_uv=False)
    if not sv[-1] > _RANK_RTOL * sv[0] or sv[0] == 0.0:
        raise UncontrollablePair(
            f"controllability matrix rank-deficient "
            f"(sigma_min = {sv[-1]:.2e}, sigma_max = {sv[0]:.2e})")
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    K = -e_last @ np.linalg.solve(ctrb, _char_poly_matrix(A, poles))
    achieved = np.sort(np.linalg.eigvals(A + np.outer(b, K)).real)
    wanted = np.sort(poles)
    scale = max(1.0, float(np.max(np.abs(wanted))))
    if np.max(np.abs(achieved - wanted)) > 1e-8 * scale:
        raise UncontrollablePair(
            f"pole placement failed: requested {wanted}, achieved {achieved}")
    return K


def place_observer(A0: np.ndarray, C0: np.ndarray, poles) -> np.ndarray:
    """Observer gain column L with eig(A0 - L C0) = poles (dual placement)."""
    A = np.atleast_2d(np.asarray(A0, dtype=float))
    c = np.asarray(C0, dtype=float).reshape(-1)
    try:
        Kdual = place_controller(A.T, c, poles)
    except UncontrollablePair as exc:
        raise UnobservablePair(str(exc)) from None
    return -Kdual


def default_poles(N0: int, delta: float) -> tuple[tuple, tuple]:
    """Default pole rule: controller -(delta+k), k=1..N0+1; observer k=1..N0."""
    controller = tuple(-(delta + k) for k in range(1, N0 + 2))
    observer = tuple(-(delta + k) for k in range(1, N0 + 1))
    return controller, observer


def _design_blocks(reduced: ReducedPlant) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A0, A1, B1): the first N0 modes, and the state W_a = (u, w_1..w_N0)."""
    N0 = reduced.N0
    A0 = np.diag(-reduced.spectrum.lambdas[:N0] + reduced.q_c)
    A1 = np.zeros((N0 + 1, N0 + 1))
    A1[1:, 0] = reduced.a_coef[:N0]
    A1[1:, 1:] = A0
    B1 = np.concatenate([[1.0], reduced.b_coef[:N0]])
    return A0, A1, B1


def design_gains(reduced: ReducedPlant, controller_poles=None,
                 observer_poles=None) -> GainSet:
    """Place K on (A1, B1) and L on (A0, C0) built from the reduced plant.

    Poles default to the package rule; all requested poles must lie strictly
    left of -delta so the Hurwitz-with-margin hypothesis of the certificates
    holds.
    """
    N0 = reduced.N0
    delta = reduced.delta
    cp_default, op_default = default_poles(N0, delta)
    controller_poles = cp_default if controller_poles is None else \
        tuple(float(p) for p in controller_poles)
    observer_poles = op_default if observer_poles is None else \
        tuple(float(p) for p in observer_poles)
    for p in (*controller_poles, *observer_poles):
        if not p < -delta:
            raise ValueError(f"pole {p} is not strictly left of -delta = {-delta}")
    A0, A1, B1 = _design_blocks(reduced)
    K = place_controller(A1, B1, controller_poles)
    L = place_observer(A0, reduced.out_coef[:N0], observer_poles)
    return GainSet(K=K, L=L, controller_poles=controller_poles,
                   observer_poles=observer_poles)


def _blocks(N0: int, N: int) -> tuple[slice, ...]:
    """X's blocks W_a-hat, E^N0, W-hat^{N-N0} and E~^{N-N0}."""
    return (slice(0, N0 + 1), slice(N0 + 1, 2 * N0 + 1), slice(2 * N0 + 1, N + N0 + 1),
            slice(N + N0 + 1, 2 * N + 1))


def state_layout(reduced: ReducedPlant, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where X holds each mode at order N, as (what, error, scale): X[0] = u,
    X[what[n-1]] = what_n and X[error[n-1]] = scale[n-1] (w_n - what_n) for
    n = 1..N.  The scale is 1 up to N0, then 1 in-domain, sqrt(lambda_n) for
    the left trace and lambda_n for the flux."""
    i1, i2, i3, i4 = (np.arange(2 * N + 1)[block] for block in _blocks(reduced.N0, N))
    lam, kind = reduced.spectrum.lambdas[reduced.N0:N], reduced.plant.measurement.kind
    scale = np.ones_like(lam) if kind == BOUNDED else np.sqrt(lam) if kind == DIRICHLET_AT_0 \
        else lam
    return (np.concatenate([i1[1:], i3]), np.concatenate([i2, i4]),
            np.concatenate([np.ones(reduced.N0), scale]))


def assemble_closed_loop(reduced: ReducedPlant, gains: GainSet, N: int) -> ClosedLoopMatrices:
    """Build F, Lcal and G for observer order N.

    X is laid out as state_layout says.  Blocks (1,1), (2,2), (3,3) and
    (4,4) of F are A1 + B1 K, A0 - L C0, A2 and A2; (1,4) = Ltilde C1 and
    (2,4) = -L C1 with C1 = out_coef / scale: raw c_n for the in-domain
    measurement, phi_n(0)/sqrt(lambda_n) for the left trace,
    phi_n'(0)/lambda_n for the left flux; block (4,4) is the matching
    rescaled error dynamics.
    """
    N0 = reduced.N0
    if N < N0 + 1:
        raise OrderTooSmall(f"N must be >= N0+1 = {N0 + 1}, got {N}")
    if N > reduced.n_coef:
        raise InsufficientModes(
            f"reduced plant carries {reduced.n_coef} modes, need {N}")
    if gains.N0 != N0:
        raise ValueError(f"gains were placed for N0 = {gains.N0}, plant has N0 = {N0}")
    lam = reduced.spectrum.lambdas
    K, L = gains.K, gains.L

    A0, A1, B1 = _design_blocks(reduced)
    A2 = np.diag(-lam[N0:N] + reduced.q_c)
    C0 = reduced.out_coef[:N0]
    C1 = reduced.out_coef[N0:N] / state_layout(reduced, N)[2][N0:]
    Ltilde = np.concatenate([[0.0], L])

    dim = 2 * N + 1
    i1, i2, i3, i4 = _blocks(N0, N)
    F = np.zeros((dim, dim))
    F[i1, i1] = A1 + np.outer(B1, K)
    F[i1, i2] = np.outer(Ltilde, C0)
    F[i1, i4] = np.outer(Ltilde, C1)
    F[i2, i2] = A0 - np.outer(L, C0)
    F[i2, i4] = -np.outer(L, C1)
    F[i3, i1] = np.outer(reduced.b_coef[N0:N], K)
    F[i3, 0] += reduced.a_coef[N0:N]
    F[i3, i3] = A2
    F[i4, i4] = A2

    Lcal = np.zeros(dim)
    Lcal[i1] = Ltilde
    Lcal[i2] = -L
    G = np.zeros((dim, dim))
    G[i1, i1] = reduced.b_norm2 * np.outer(K, K)
    G[0, 0] += reduced.a_norm2
    return ClosedLoopMatrices(N=N, N0=N0, F=F, Lcal=Lcal, G=G)
