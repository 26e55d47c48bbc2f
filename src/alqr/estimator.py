"""Online ordinary least squares for x_next = Theta z, z = [x; u].

State is kept as the sufficient statistics V = sum z z' and S = sum x_next z',
so memory is O((m+n)^2) regardless of trajectory length, and the estimate
S V^+ reproduces the batch least-squares solution exactly. Incoming pairs are
buffered and folded into (V, S) in blocks, which keeps the per-step cost of
``absorb`` to two list appends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control_math import SystemMatrices

_FLUSH_BLOCK = 512
PINV_RTOL = 1e-10


@dataclass(frozen=True)
class ParameterEstimate:
    """Stacked estimate Theta = [A_hat B_hat] and the Gram rank behind it."""

    Theta: np.ndarray
    rank: int
    state_dim: int

    @property
    def A_hat(self) -> np.ndarray:
        return self.Theta[:, :self.state_dim]

    @property
    def B_hat(self) -> np.ndarray:
        return self.Theta[:, self.state_dim:]


class EstimatorState:
    """Accumulated regression statistics for one trial (single writer)."""

    def __init__(self, state_dim: int, input_dim: int):
        if state_dim < 1 or input_dim < 1:
            raise ValueError("dimensions must be >= 1")
        self.state_dim = state_dim
        self.input_dim = input_dim
        d = state_dim + input_dim
        self._V = np.zeros((d, d))
        self._S = np.zeros((state_dim, d))
        self._count = 0
        self._pending_z: list[np.ndarray] = []
        self._pending_x: list[np.ndarray] = []

    def _flush(self) -> None:
        self._V, self._S = self._effective()
        self._pending_z.clear()
        self._pending_x.clear()

    def _effective(self) -> tuple[np.ndarray, np.ndarray]:
        """Statistics including the uncommitted tail, without committing it.

        Reads must not change how the committed sums are grouped, so a
        trajectory comes out bit-identical whether or not anything looked
        at the estimator along the way.
        """
        if not self._pending_z:
            return self._V, self._S
        Z = np.array(self._pending_z)
        Xn = np.array(self._pending_x)
        return self._V + Z.T @ Z, self._S + Xn.T @ Z

    @property
    def V(self) -> np.ndarray:
        return self._effective()[0]

    @property
    def S(self) -> np.ndarray:
        return self._effective()[1]

    @property
    def count(self) -> int:
        return self._count

    def absorb(self, z, x_next) -> None:
        """Add one (regressor, successor-state) pair."""
        self._pending_z.append(np.asarray(z, dtype=float))
        self._pending_x.append(np.asarray(x_next, dtype=float))
        self._count += 1
        if len(self._pending_z) >= _FLUSH_BLOCK:
            self._flush()

    def estimate(self, rtol: float = PINV_RTOL) -> ParameterEstimate:
        """Theta = S V^+ with the pseudoinverse truncated at rtol * sigma_max.

        Rank deficiency yields the minimum-norm solution, so an empty state
        returns the zero matrix with rank 0.
        """
        V, S = self._effective()
        # V is symmetric PSD; eigendecomposition doubles as its SVD
        eigvals, eigvecs = np.linalg.eigh(V)
        cutoff = rtol * max(eigvals[-1], 0.0)
        keep = eigvals > cutoff
        rank = int(np.sum(keep))
        if rank == 0:
            return ParameterEstimate(
                Theta=np.zeros_like(self._S), rank=0, state_dim=self.state_dim)
        U = eigvecs[:, keep]
        inv = U * (1.0 / eigvals[keep])
        Theta = S @ U @ inv.T
        return ParameterEstimate(Theta=Theta, rank=rank,
                                 state_dim=self.state_dim)


def estimation_error(est: ParameterEstimate | np.ndarray,
                     truth: SystemMatrices) -> float:
    """Spectral norm of Theta_hat - [A B]."""
    Theta_hat = est.Theta if isinstance(est, ParameterEstimate) else np.asarray(est)
    Theta = np.hstack([truth.A, truth.B])
    if Theta_hat.shape != Theta.shape:
        raise ValueError(
            f"estimate shape {Theta_hat.shape} does not match truth {Theta.shape}")
    return float(np.linalg.norm(Theta_hat - Theta, 2))
