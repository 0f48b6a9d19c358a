"""Finite-dimensional design matrices, pole placement, certificate blocks.

The controlled state is W_a = (u, w_1..w_N0) with dynamics (A1, B1); the
observer corrects the first N0 modes through the output row C0.  The full
certificate state stacks (W_a-hat, E^N0, W-hat^{N-N0}, E~^{N-N0}) where the
unestimated-error block is rescaled per measurement kind so the coupling row
C1 stays bounded as N grows.
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
    """All blocks of the certificate dynamics X' = F X + Lcal * zeta."""

    N: int
    N0: int
    A0: np.ndarray
    A1: np.ndarray
    B1: np.ndarray
    A2: np.ndarray
    C0: np.ndarray
    C1: np.ndarray
    F: np.ndarray
    Lcal: np.ndarray
    G: np.ndarray
    g: float

    def __post_init__(self):
        for name in ("A0", "A1", "B1", "A2", "C0", "C1", "F", "Lcal", "G"):
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


def error_scale(reduced: ReducedPlant, N: int) -> np.ndarray:
    """Scale s_n, n = N0+1..N, of the unestimated error in the certificate
    state: 1 in-domain, sqrt(lambda_n) for the left trace, lambda_n for the flux."""
    lam = reduced.spectrum.lambdas[reduced.N0:N]
    kind = reduced.plant.measurement.kind
    if kind == BOUNDED:
        return np.ones_like(lam)
    return np.sqrt(lam) if kind == DIRICHLET_AT_0 else lam


def assemble_closed_loop(reduced: ReducedPlant, gains: GainSet, N: int) -> ClosedLoopMatrices:
    """Build F, Lcal, G and all sub-blocks for observer order N.

    C1 = out_coef / error_scale: raw c_n for the in-domain measurement,
    phi_n(0)/sqrt(lambda_n) for the left trace, phi_n'(0)/lambda_n for the
    left flux; block (4,4) is the matching rescaled error dynamics.
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
    C0 = reduced.out_coef[:N0].copy()
    C1 = reduced.out_coef[N0:N] / error_scale(reduced, N)
    Ltilde = np.concatenate([[0.0], L])

    dim = 2 * N + 1
    i1 = slice(0, N0 + 1)                 # W_a-hat
    i2 = slice(N0 + 1, 2 * N0 + 1)        # E^N0
    i3 = slice(2 * N0 + 1, N + N0 + 1)    # W-hat^{N-N0}
    i4 = slice(N + N0 + 1, dim)           # E~^{N-N0}
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
    E_row = np.zeros(dim)
    E_row[0] = 1.0
    Ktilde = np.zeros(dim)
    Ktilde[: N0 + 1] = K
    G = reduced.a_norm2 * np.outer(E_row, E_row) + reduced.b_norm2 * np.outer(Ktilde, Ktilde)
    g = reduced.a_norm2 + reduced.b_norm2 * float(K @ K)

    return ClosedLoopMatrices(N=N, N0=N0, A0=A0, A1=A1, B1=B1, A2=A2, C0=C0, C1=C1,
                              F=F, Lcal=Lcal, G=G, g=g)
