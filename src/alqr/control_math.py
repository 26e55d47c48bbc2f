"""Exact discrete-time LQR mathematics.

The discrete algebraic Riccati solver, optimal gain synthesis,
controllability rank, and quadratic stability margins. The Riccati
iteration, the controllability test and the margins each have one stacked
form, which takes many systems per call and gives each the bits of its
own call; the single-system functions are that form on a stack of one.
All functions here
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
    return IllConditioned(
        f"R + B'PB condition number {geigs[-1] / max(geigs[0], 1e-300):.3e} "
        f"exceeds cap {COND_CAP:.1e}")


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
        keep = np.ones(len(G), dtype=bool)
        keep[ill] = False
        BtP, G, A = BtP[keep], G[keep], A[keep]
    BtPA = BtP @ A
    return ill, BtPA, -np.linalg.solve(G, BtPA), geigs


def synthesize_gain(A, B, P, R) -> np.ndarray:
    """Optimal feedback gain K = -(R + B'PB)^-1 B'PA for value matrix P.

    Refuses an ill-conditioned R + B'PB. The arguments are not re-checked:
    A and B come from a SystemMatrices, R from CostWeights, and P from the
    caller.
    """
    ill, _, K, geigs = _gain_step(A[None], B[None], P[None], R)
    if ill:
        raise _ill_conditioned(geigs[0])
    return K[0]


def _finish_solve(A, B, P, Q, R, iterations: int, residual_tol: float):
    """The checks on one converged iterate: (P, K, iterations, residual)."""
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
    return P, K, iterations, residual


def solve_dare_stack(A: np.ndarray, B: np.ndarray, Q: np.ndarray,
                     R: np.ndarray, rtol: float = DARE_RTOL,
                     residual_tol: float = DARE_RESIDUAL_TOL) -> list:
    """Riccati solves for a stack of systems that share the weights Q, R.

    A is (N, n, n) and B (N, n, m). All rows iterate the Riccati map
    together, one stacked call per operation; a row leaves the stack at
    the iteration where solve_dare stops on its system alone: when it
    converges, diverges or meets an ill-conditioned R + B'PB. Each
    converged row then runs solve_dare's SPD and residual checks on its
    own. Returns per row either (P, K, iterations, residual), the same bits
    solve_dare gives for that system, or the NonConvergence or
    IllConditioned it raises.
    """
    out: list = [None] * len(A)
    rows = np.arange(len(A))
    # Q and R as stacks of one: adding arrays of equal ndim is the faster
    # numpy loop, and the sums are the same
    Q, R = Q[None], R[None]
    P = np.repeat(Q, len(A), axis=0)
    converged = []

    def leave(gone: list) -> None:
        """Drop the rows at indices ``gone`` from the stack."""
        nonlocal rows, A, B, P
        keep = np.ones(len(rows), dtype=bool)
        keep[gone] = False
        rows, A, B, P = rows[keep], A[keep], B[keep], P[keep]

    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, DARE_MAX_ITER + 1):
            if not len(rows):
                break
            ill, BtPA, K, geigs = _gain_step(A, B, P, R)
            if ill:
                for j in ill:
                    out[rows[j]] = _ill_conditioned(geigs[j])
                leave(ill)
            P_next = (A.swapaxes(-1, -2) @ P @ A
                      + BtPA.swapaxes(-1, -2) @ K + Q)
            P_next = 0.5 * (P_next + P_next.swapaxes(-1, -2))
            # one stacked call for both: each norm is its own row's vecdot
            both = _frobenius(np.concatenate([P_next - P, P_next])).tolist()
            delta, norms = both[:len(P)], both[len(P):]
            P = P_next
            # iterates beyond this scale cannot be a fixed point of a sane
            # problem, and Frobenius norms start overflowing to inf (which
            # would make the stopping rule inf <= rtol*inf spuriously
            # true); a NaN or inf entry makes the norm fail this test too
            done = [j for j, (change, norm_p) in enumerate(zip(delta, norms))
                    if not norm_p <= 1e150 or change <= rtol * norm_p]
            if done:
                for j in done:
                    if norms[j] <= 1e150:
                        converged.append((rows[j], A[j], B[j], P[j],
                                          iterations))
                    else:
                        out[rows[j]] = NonConvergence(
                            f"Riccati iteration diverged by iteration "
                            f"{iterations}; the pair may not be "
                            f"stabilizable", iterations=iterations)
                leave(done)
        else:
            for r in rows:
                out[r] = NonConvergence(
                    f"Riccati iteration did not converge in {DARE_MAX_ITER} "
                    f"iterations; the pair may not be stabilizable",
                    iterations=DARE_MAX_ITER)
    for r, A_r, B_r, P_r, iterations in converged:
        try:
            out[r] = _finish_solve(A_r, B_r, P_r, Q[0], R[0], iterations,
                                   residual_tol)
        except (NonConvergence, IllConditioned) as exc:
            out[r] = exc
    return out


def solve_dare(sys: SystemMatrices, cost: CostWeights, W=None,
               rtol: float = DARE_RTOL,
               residual_tol: float = DARE_RESIDUAL_TOL) -> RiccatiSolution:
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Iterates the Riccati map P <- A'PA - A'PB (R + B'PB)^-1 B'PA + Q from
    P = Q, symmetrizing each iterate, until the relative Frobenius change
    drops below rtol. For a stabilizable (A, B) with Q > 0 this converges
    to the unique SPD fixed point. W is the process-noise covariance used
    for the optimal average cost J_star = tr(W P_star); defaults to I.

    The iteration is solve_dare_stack on a stack of one, so this raises
    what that returns for the system: NonConvergence (its ``iterations``
    set) when the iteration diverges, stalls at DARE_MAX_ITER, ends on an
    iterate that is not SPD or fails the residual test, and IllConditioned
    when R + B'PB is. On success it adds the oracle-only quantities the
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
