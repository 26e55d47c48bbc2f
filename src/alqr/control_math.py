"""Exact discrete-time LQR mathematics.

The discrete algebraic Riccati solver (the structure-preserving doubling
algorithm of Chu, Fan, Lin and Wang, Int. J. Control 77, 2004), optimal
gain synthesis, controllability rank, and quadratic stability margins.
The Riccati solver with its checks, the controllability test and the
margins each have one stacked form, which takes many systems per call and
gives each the bits of its own call; the single-system functions are that
form on a stack of one. All functions here are pure: given the same
matrices they return the same values, and nothing is cached or mutated,
so results are safe to share across threads or processes.

Conventions: the plant is x' = A x + B u with n states and m inputs; costs
are x'Qx + u'Ru per step with Q, R symmetric positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NonConvergence

# Shared numeric policy. Margins are inflated by EIG_INFLATION so strict
# matrix inequalities extracted from eigensolves hold under round-off.
SYMMETRY_RTOL = 1e-8
EIG_INFLATION = 1.0 + 1e-9
COND_CAP = 1e12
DARE_RTOL = 1e-12
# a cap on doubling steps: step k stands for 2**k steps of the Riccati map
DARE_MAX_ITER = 64
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


def _spd_stack(M: np.ndarray, name: str):
    """The SPD test on a stack (N, k, k) of finite matrices: the
    symmetrized stack, and the failing rows' messages by row index. Each
    row gets the bits of its own 2-d call.

    Each row is tested on S = M / 2**e, exact for a power of two, with e
    chosen so its largest entry is below 2**480 and no sum, and no sum of
    squares in a norm, can overflow; below that, e = 0 and the row is
    tested as it is.
    """
    e = np.maximum(0, np.frexp(np.abs(M).max(axis=(-2, -1)))[1] - 480)
    one = np.ldexp(1.0, -e)
    S = np.ldexp(M, -e[:, None, None])
    skewed = _frobenius(S - S.swapaxes(-1, -2)) > SYMMETRY_RTOL * np.maximum(
        one, _frobenius(S))
    S = 0.5 * (S + S.swapaxes(-1, -2))
    eigs = np.linalg.eigvalsh(S)
    failures = {}
    for j in np.flatnonzero(
            eigs[:, 0] <= 1e-14 * np.maximum(one, eigs[:, -1])).tolist():
        failures[j] = (f"{name} is not positive definite "
                       f"(min eig {np.ldexp(eigs[j, 0], e[j]):.3e})")
    for j in np.flatnonzero(skewed).tolist():
        failures[j] = f"{name} is not symmetric"
    return np.ldexp(S, e[:, None, None]), failures


def _check_spd(M: np.ndarray, name: str) -> np.ndarray:
    """M symmetrized, or ValueError if it is not symmetric positive
    definite."""
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    S, failures = _spd_stack(M[None], name)
    if failures:
        raise ValueError(failures[0])
    return S[0]


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
    measured in the P_star metric. iterations counts doubling steps.
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


def _frobenius(M: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack of matrices, (N, a, b) -> (N,).

    Each norm is the np.vecdot of the raveled matrix with itself, the dot
    product np.linalg.norm(M[i], "fro") takes; a norm over axes (-2, -1)
    is a pairwise sum and differs from it in the last bits. An empty stack
    cannot reshape to -1, so the row length is spelled out.
    """
    flat = M.reshape(len(M), M.shape[-2] * M.shape[-1])
    return np.sqrt(np.vecdot(flat, flat))


def stability_margin(M, P):
    """Smallest rho with M'PM <= rho P, for P symmetric positive definite.

    Equals the largest eigenvalue of L^-1 M'PM L^-T, where P = LL'; a value
    below 1 certifies that x'Px contracts along x' = Mx. ``M`` is one
    (n, n) matrix, which gives a float, or an (S, n, n) stack, which gives
    the (S,) margins against the one P, each equal to its own 2-d call.
    """
    M = np.asarray(M, dtype=float)
    single = M.ndim == 2
    if single:
        M = _clean_matrix(M, "M")[None]
    elif M.ndim != 3 or not np.isfinite(M).all():
        raise ValueError(
            f"M must be finite, (n, n) or (S, n, n), got shape {M.shape}")
    P = _check_spd(_clean_matrix(P, "P"), "P")
    L = np.linalg.cholesky(P)
    lhs = M.swapaxes(-1, -2) @ P @ M
    lhs = 0.5 * (lhs + lhs.swapaxes(-1, -2))
    # L^-1 (L^-1 lhs)' = L^-1 lhs L^-T, as lhs is symmetric
    reduced = np.linalg.solve(L, np.linalg.solve(L, lhs).swapaxes(-1, -2))
    reduced = 0.5 * (reduced + reduced.swapaxes(-1, -2))
    top = np.linalg.eigvalsh(reduced)[:, -1]
    margins = np.where(0.0 > top, 0.0, top)
    return float(margins[0]) if single else margins


def controllability_ranks(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Numerical ranks of [B, AB, ..., A^{n-1} B] for stacks A, B.

    A is (N, n, n) and B (N, n, m); one stacked SVD gives the (N,) ranks.
    The threshold is n * RANK_RTOL * sigma_max, so each answer is scale
    invariant.
    """
    n = A.shape[-1]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    svals = np.linalg.svd(np.concatenate(blocks, axis=-1), compute_uv=False)
    return np.count_nonzero(
        svals > (n * RANK_RTOL * svals[:, 0])[:, None], axis=-1)


def controllability_rank(sys: SystemMatrices) -> int:
    """Numerical rank of the controllability matrix of one system."""
    return int(controllability_ranks(sys.A[None], sys.B[None])[0])


def _ill_conditioned(geigs: np.ndarray) -> IllConditioned:
    lo, hi = float(geigs[0]), float(geigs[-1])
    # Python float division gives inf on overflow, with no warning
    if lo > 0.0 and hi / lo < math.inf:
        return IllConditioned(f"R + B'PB condition number {hi / lo:.3e} "
                              f"exceeds cap {COND_CAP:.1e}")
    return IllConditioned(f"R + B'PB is singular to working precision "
                          f"(eigenvalues {lo:.3e} to {hi:.3e})")


def _gain_step(A, B, P, R):
    """Stacked K = -(R + B'PB)^-1 B'PA for (N, n, n), (N, n, m), (N, n, n).

    Returns the indices of the rows whose R + B'PB fails the conditioning
    test (not positive definite, or condition number past COND_CAP); B'PA
    and K of the other rows; and every row's eigenvalues of R + B'PB. The
    failing rows are dropped before the solve: one singular matrix makes a
    stacked solve raise for the whole stack.
    """
    BtP = B.swapaxes(-1, -2) @ P
    G = R + BtP @ B
    G = 0.5 * (G + G.swapaxes(-1, -2))
    geigs = np.linalg.eigvalsh(G)
    # the float test per row: the ratio only where lo > 0, and a NaN
    # passes
    ill = [j for j, row in enumerate(geigs.tolist())
           if row[0] <= 0.0 or row[-1] / row[0] > COND_CAP]
    if ill:
        keep = _keep(len(G), ill)
        BtP, G, A = BtP[keep], G[keep], A[keep]
    BtPA = BtP @ A
    return ill, BtPA, -np.linalg.solve(G, BtPA), geigs


def _keep(count: int, gone: list) -> np.ndarray:
    """The keep mask of a stack of ``count`` rows without rows ``gone``."""
    keep = np.ones(count, dtype=bool)
    keep[gone] = False
    return keep


def _finish(A, B, P, Q, R, steps: list, residual_tol: float) -> list:
    """The checks on converged iterates, each one stacked call over the
    rows still passing: P is SPD, R + B'PB passes the conditioning test,
    the DARE residual is within residual_tol (1 + ||P||_F), and A + BK has
    spectral radius below 1. Returns per row (P, K, steps, residual) or
    the NonConvergence or IllConditioned it fails with.
    """
    out: list = [None] * len(P)
    live = np.arange(len(P))
    P, failures = _spd_stack(P, "P")
    for j, message in failures.items():
        # a converged iterate that is not SPD is no stabilizing solution
        out[j] = NonConvergence(
            f"Riccati doubling ended after {steps[j]} steps on an iterate "
            f"that is not a valid value matrix: {message}",
            iterations=steps[j])
    if failures:
        keep = _keep(len(P), list(failures))
        live, A, B, P = live[keep], A[keep], B[keep], P[keep]
    ill, BtPA, K, geigs = _gain_step(A, B, P, R)
    for j in ill:
        out[live[j]] = _ill_conditioned(geigs[j])
    if ill:
        keep = _keep(len(P), ill)
        live, A, B, P = live[keep], A[keep], B[keep], P[keep]
    # K = -(R + B'PB)^-1 B'PA, so the Riccati map's correction is (B'PA)'K
    residual = _frobenius(A.swapaxes(-1, -2) @ P @ A
                          + BtPA.swapaxes(-1, -2) @ K + Q - P)
    bound = residual_tol * (1.0 + _frobenius(P))
    closed = A + B @ K
    # np.linalg.eigvals raises for the whole stack on one non-finite row
    tested = (residual <= bound) & np.isfinite(closed).all(axis=(-2, -1))
    radius = np.full(len(P), np.nan)
    radius[tested] = np.abs(np.linalg.eigvals(closed[tested])).max(axis=-1)
    for j, r in enumerate(live.tolist()):
        if not residual[j] <= bound[j]:
            out[r] = NonConvergence(
                f"DARE residual {residual[j]:.3e} exceeds tolerance "
                f"{residual_tol:.1e}*(1+||P||)", iterations=steps[r])
        elif not radius[j] < 1.0:
            out[r] = NonConvergence(
                f"closed loop A + BK has spectral radius {radius[j]:.6g}, "
                f"not below 1: the solution is not stabilizing",
                iterations=steps[r])
        else:
            out[r] = (P[j], K[j], steps[r], float(residual[j]))
    return out


def _solvable(W: np.ndarray, rhs: np.ndarray) -> bool:
    """Whether np.linalg.solve(W, rhs) returns rather than raises."""
    try:
        np.linalg.solve(W, rhs)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_dare_stack(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                     R: np.ndarray, rtol: float = DARE_RTOL,
                     residual_tol: float = DARE_RESIDUAL_TOL) -> list:
    """Riccati solves for a stack of systems that share the weights Q, R.

    A is (N, n, n) and B (N, n, m). All rows take the doubling steps of
    solve_dare together, one stacked call per operation, and a row leaves
    the stack at the step where it stops on its system alone: when H
    converges or diverges, or when I + GH is exactly singular. The
    converged rows then take solve_dare's checks together (_finish).
    Returns per row either (P, K, steps, residual), the same bits
    solve_dare gives for that system, or the NonConvergence or
    IllConditioned it raises.
    """
    out: list = [None] * len(A)
    n = A.shape[-1]
    rows = np.arange(len(A))
    # Q and I as stacks of one: adding arrays of equal ndim is the faster
    # numpy loop, and the sums are the same
    Q, eye = Q[None], np.eye(n)[None]
    Ak = A
    G = B @ np.linalg.solve(R, B.swapaxes(-1, -2))
    G = 0.5 * (G + G.swapaxes(-1, -2))
    H = np.repeat(Q, len(A), axis=0)
    converged, done_P, done_steps = [], [], []

    def leave(gone: list) -> None:
        """Drop the rows at indices ``gone`` from the stack."""
        nonlocal rows, Ak, G, H
        keep = _keep(len(rows), gone)
        rows, Ak, G, H = rows[keep], Ak[keep], G[keep], H[keep]

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, DARE_MAX_ITER + 1):
            if not len(rows):
                break
            W = eye + G @ H
            AG = np.concatenate([Ak, G], axis=-1)
            try:
                X = np.linalg.solve(W, AG)
            except np.linalg.LinAlgError:
                # an exactly singular I + GH raises for the whole stack:
                # its rows are found alone and leave
                stuck = [j for j in range(len(rows))
                         if not _solvable(W[j], AG[j])]
                for j in stuck:
                    out[rows[j]] = IllConditioned(
                        f"I + GH is singular at doubling step {step}")
                keep = _keep(len(rows), stuck)
                leave(stuck)
                X = np.linalg.solve(W[keep], AG[keep])
            # W^-1 A and W^-1 G; with At = A', the step is A <- A W^-1 A,
            # G <- G + A W^-1 G At and H <- H + At H W^-1 A
            At = Ak.swapaxes(-1, -2)
            G_next = G + Ak @ X[..., n:] @ At
            H_next = H + At @ H @ X[..., :n]
            Ak = Ak @ X[..., :n]
            G = 0.5 * (G_next + G_next.swapaxes(-1, -2))
            H_next = 0.5 * (H_next + H_next.swapaxes(-1, -2))
            # one stacked call for both: each norm is its own row's vecdot
            both = _frobenius(np.concatenate([H_next - H, H_next])).tolist()
            change, norms = both[:len(H)], both[len(H):]
            H = H_next
            # iterates beyond this scale cannot be a solution of a sane
            # problem, and Frobenius norms start overflowing to inf (which
            # would make the stopping rule inf <= rtol*inf spuriously
            # true); a NaN or inf entry makes the norm fail this test too
            stop = [j for j, (delta, norm_h) in enumerate(zip(change, norms))
                    if not norm_h <= 1e150 or delta <= rtol * norm_h]
            if stop:
                for j in stop:
                    if norms[j] <= 1e150:
                        converged.append(rows[j])
                        done_P.append(H[j])
                        done_steps.append(step)
                    else:
                        out[rows[j]] = NonConvergence(
                            f"Riccati doubling diverged by step {step}; "
                            f"the pair may not be stabilizable",
                            iterations=step)
                leave(stop)
        else:
            for r in rows:
                out[r] = NonConvergence(
                    f"Riccati doubling did not converge in {DARE_MAX_ITER} "
                    f"steps; the pair may not be stabilizable",
                    iterations=DARE_MAX_ITER)
        if converged:
            for r, solved in zip(converged, _finish(
                    A[converged], B[converged], np.stack(done_P), Q, R[None],
                    done_steps, residual_tol)):
                out[r] = solved
    return out


def solve_dare(sys: SystemMatrices, cost: CostWeights, W=None,
               rtol: float = DARE_RTOL,
               residual_tol: float = DARE_RESIDUAL_TOL) -> RiccatiSolution:
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Solves P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q by structure-preserving
    doubling: from A_0 = A, G_0 = B R^-1 B' and H_0 = Q, each step takes
    W = I + G H and sets A <- A W^-1 A, G <- G + A W^-1 G A' and
    H <- H + A' H W^-1 A, with G and H symmetrized. H_k is the Riccati
    map's iterate after 2**k - 1 steps from P = Q, so for a stabilizable
    (A, B) with Q > 0 it converges quadratically to the unique SPD
    solution. It stops when the relative Frobenius change of H drops to
    rtol, and P is that H. W (the argument) is the process-noise
    covariance used for the optimal average cost J_star = tr(W P_star);
    defaults to I.

    The solve is solve_dare_stack on a stack of one, so this raises what
    that returns for the system: NonConvergence (its ``iterations`` the
    doubling steps taken) when H diverges or has not converged in
    DARE_MAX_ITER steps, or when P is not SPD, fails the residual test
    or gives a closed loop A + BK with spectral radius not below 1; and
    IllConditioned when I + GH is singular or R + B'PB fails the
    conditioning test. On success it adds the oracle-only quantities the
    controller never needs: rho_star and J_star.
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

    solved, = solve_dare_stack(A[None], B[None], Q, R, rtol, residual_tol)
    if isinstance(solved, Exception):
        raise solved
    P, K, iterations, residual = solved
    rho_star = stability_margin(A + B @ K, P) * EIG_INFLATION
    rho_star = min(max(rho_star, 1e-15), 1.0 - 1e-15)
    J_star = float(np.trace(W @ P))
    return RiccatiSolution(P_star=P, K_star=K, rho_star=rho_star,
                           J_star=J_star, iterations=iterations,
                           residual=residual)
