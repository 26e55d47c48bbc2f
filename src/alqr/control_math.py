"""Exact discrete-time LQR mathematics.

The discrete algebraic Riccati solver, optimal gain synthesis,
controllability rank, and quadratic stability margins. All functions here
are pure: given the same matrices they return the same values, and nothing
is cached or mutated, so results are safe to share across threads or
processes.

Conventions: the plant is x' = A x + B u with n states and m inputs; costs
are x'Qx + u'Ru per step with Q, R symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NonConvergence

# Shared numeric policy. Margins are inflated by EIG_INFLATION so strict
# matrix inequalities extracted from eigensolves hold under round-off.
SYMMETRY_RTOL = 1e-8
EIG_INFLATION = 1.0 + 1e-9
COND_CAP = 1e12
DARE_RTOL = 1e-12
DARE_MAX_ITER = 100_000
DARE_RESIDUAL_TOL = 1e-9
RANK_RTOL = 1e-10


def _clean_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if M.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def _check_spd(M: np.ndarray, name: str) -> np.ndarray:
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    # the tests run on S = M / 2**e, exact for a power of two, with e
    # chosen so the largest entry is below 2**480 and no sum, and no sum
    # of squares in a norm, can overflow; below that, e = 0 and M is
    # tested as it is
    e = max(0, int(np.frexp(np.max(np.abs(M)))[1]) - 480)
    one = np.ldexp(1.0, -e)
    S = np.ldexp(M, -e)
    scale = np.linalg.norm(S, "fro")
    if np.linalg.norm(S - S.T, "fro") > SYMMETRY_RTOL * max(one, scale):
        raise ValueError(f"{name} is not symmetric")
    S = 0.5 * (S + S.T)
    eigs = np.linalg.eigvalsh(S)
    if eigs[0] <= 1e-14 * max(one, eigs[-1]):
        raise ValueError(f"{name} is not positive definite "
                         f"(min eig {np.ldexp(eigs[0], e):.3e})")
    return np.ldexp(S, e)


@dataclass(frozen=True)
class SystemMatrices:
    """State-transition matrix A (n x n) and input map B (n x m)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _clean_matrix(self.A, "A")
        B = _clean_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B must have {A.shape[0]} rows to match A, got shape {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class CostWeights:
    """Stage-cost weights: Q on the state, R on the input, both SPD."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", _check_spd(_clean_matrix(self.Q, "Q"), "Q"))
        object.__setattr__(self, "R", _check_spd(_clean_matrix(self.R, "R"), "R"))


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing DARE solution and the quantities derived from it.

    P_star solves P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q.
    K_star = -(R + B'PB)^-1 B'PA is the optimal feedback gain.
    J_star = tr(W P_star) is the optimal average cost under noise covariance W.
    rho_star is the contraction factor of the optimal closed loop A + B K_star
    measured in the P_star metric.
    """

    P_star: np.ndarray
    K_star: np.ndarray
    rho_star: float
    J_star: float
    iterations: int
    residual: float


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    M = _clean_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"spectral_radius needs a square matrix, got {M.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def stability_margin(M, P) -> float:
    """Smallest rho with M'PM <= rho P, for P symmetric positive definite.

    Equals the largest eigenvalue of L^-1 M'PM L^-T, where P = LL'; a value
    below 1 certifies that x'Px contracts along x' = Mx.
    """
    M = _clean_matrix(M, "M")
    P = _check_spd(_clean_matrix(P, "P"), "P")
    L = np.linalg.cholesky(P)
    lhs = M.T @ P @ M
    lhs = 0.5 * (lhs + lhs.T)
    # L^-1 (L^-1 lhs)' = L^-1 lhs L^-T, as lhs is symmetric
    reduced = np.linalg.solve(L, np.linalg.solve(L, lhs).T)
    eigs = np.linalg.eigvalsh(0.5 * (reduced + reduced.T))
    return float(max(eigs[-1], 0.0))


def controllability_rank(sys: SystemMatrices) -> int:
    """Numerical rank of [B, AB, ..., A^{n-1} B] via singular values.

    Threshold is n * RANK_RTOL * sigma_max, so the answer is scale invariant.
    """
    A, B, n = sys.A, sys.B, sys.n
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    svals = np.linalg.svd(ctrb, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > n * RANK_RTOL * svals[0]))


def synthesize_gain(A, B, P, R) -> np.ndarray:
    """Optimal feedback gain K = -(R + B'PB)^-1 B'PA for value matrix P.

    Refuses an ill-conditioned R + B'PB. The arguments are not re-checked:
    A and B come from a SystemMatrices, R from CostWeights, and P from the
    caller.
    """
    BtP = B.T @ P
    G = R + BtP @ B
    G = 0.5 * (G + G.T)
    geigs = np.linalg.eigvalsh(G)
    if geigs[0] <= 0.0 or geigs[-1] / geigs[0] > COND_CAP:
        raise IllConditioned(
            f"R + B'PB condition number {geigs[-1] / max(geigs[0], 1e-300):.3e} "
            f"exceeds cap {COND_CAP:.1e}")
    return -np.linalg.solve(G, BtP @ A)


def solve_dare(sys: SystemMatrices, cost: CostWeights, W=None,
               rtol: float = DARE_RTOL,
               residual_tol: float = DARE_RESIDUAL_TOL) -> RiccatiSolution:
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Iterates the Riccati map P <- A'PA - A'PB (R + B'PB)^-1 B'PA + Q from
    P = Q, symmetrizing each iterate, until the relative Frobenius change
    drops below rtol. For a stabilizable (A, B) with Q > 0 this converges
    to the unique SPD fixed point. W is the process-noise covariance used
    for the optimal average cost J_star = tr(W P_star); defaults to I.
    """
    A, B = sys.A, sys.B
    Q, R = cost.Q, cost.R
    if Q.shape[0] != sys.n:
        raise ValueError(f"Q is {Q.shape} but the system has n={sys.n}")
    if R.shape[0] != sys.m:
        raise ValueError(f"R is {R.shape} but the system has m={sys.m}")
    if W is None:
        W = np.eye(sys.n)
    else:
        W = _check_spd(_clean_matrix(W, "W"), "W")
        if W.shape[0] != sys.n:
            raise ValueError(f"W is {W.shape} but the system has n={sys.n}")

    P = Q.copy()
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, DARE_MAX_ITER + 1):
            K = synthesize_gain(A, B, P, R)
            P_next = A.T @ P @ A + (B.T @ P @ A).T @ K + Q
            P_next = 0.5 * (P_next + P_next.T)
            delta = np.linalg.norm(P_next - P, "fro")
            P = P_next
            norm_p = np.linalg.norm(P, "fro")
            # iterates beyond this scale cannot be a fixed point of a sane
            # problem, and Frobenius norms start overflowing to inf (which
            # would make the stopping rule inf <= rtol*inf spuriously true);
            # a NaN or inf entry makes the norm fail this test too
            if not norm_p <= 1e150:
                raise NonConvergence(
                    f"Riccati iteration diverged by iteration {iterations}; "
                    f"the pair may not be stabilizable",
                    iterations=iterations)
            if delta <= rtol * norm_p:
                break
        else:
            raise NonConvergence(
                f"Riccati iteration did not converge in {DARE_MAX_ITER} "
                f"iterations; the pair may not be stabilizable",
                iterations=DARE_MAX_ITER)

    try:
        K = synthesize_gain(A, B, _check_spd(P, "P"), R)
    except ValueError as exc:
        # a converged iterate that is not SPD is no stabilizing solution
        raise NonConvergence(
            f"Riccati iterate after {iterations} iterations is not a "
            f"valid value matrix: {exc}", iterations=iterations) from exc
    # K = -(R + B'PB)^-1 B'PA, so the Riccati map's correction is (B'PA)'K
    residual = float(np.linalg.norm(
        A.T @ P @ A + (B.T @ P @ A).T @ K + Q - P, "fro"))
    if residual > residual_tol * (1.0 + np.linalg.norm(P, "fro")):
        raise NonConvergence(
            f"DARE residual {residual:.3e} exceeds tolerance "
            f"{residual_tol:.1e}*(1+||P||)", iterations=iterations)

    rho_star = stability_margin(A + B @ K, P) * EIG_INFLATION
    rho_star = min(max(rho_star, 1e-15), 1.0 - 1e-15)
    J_star = float(np.trace(W @ P))
    return RiccatiSolution(P_star=P, K_star=K, rho_star=rho_star,
                           J_star=J_star, iterations=iterations,
                           residual=residual)
