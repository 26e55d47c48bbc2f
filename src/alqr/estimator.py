"""Online ordinary least squares for x_next = Theta z, z = [x; u].

State is kept as the sufficient statistics V = sum z z' and S = sum x_next z',
so memory is O((m+n)^2) regardless of trajectory length, and the estimate
S V^+ reproduces the batch least-squares solution exactly. One EstimatorState
holds a stack of trials fed in lockstep (run_trials's batch) or a lone
trial, a stack of one. Incoming pairs are copied into a preallocated
512-row buffer and folded into (V, S) each time it fills, so the sums are
grouped the same way however the pairs arrive: one at a time or in blocks
of any size. Every sum is one stacked product whose trials each get the
bits of the 2-d product, so a trial's sums do not depend on the stack it
is in. A read (snapshot) adds the unfolded tail into new arrays and leaves
the folded sums as they were, so reading never changes the bits of what
comes after. Estimates are one stacked computation over a list of
snapshots (estimates): a batch's at several steps, or one trial's.
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
    """Accumulated regression statistics of a stack of trials fed in
    lockstep: every trial of the stack holds the same number of pairs.

    ``trials`` sets the stack's height; left None, the state is one trial's
    and its pairs and sums go without the trial axis. A trial leaves the
    stack (leave) when it has no more pairs to give, and the rest go on.
    """

    def __init__(self, state_dim: int, input_dim: int,
                 trials: int | None = None):
        if state_dim < 1 or input_dim < 1:
            raise ValueError("dimensions must be >= 1")
        self.state_dim = state_dim
        self.input_dim = input_dim
        self._lone = trials is None
        N = 1 if trials is None else trials
        d = state_dim + input_dim
        self._V = np.zeros((N, d, d))
        self._S = np.zeros((N, state_dim, d))
        self._count = 0
        self._Z = np.empty((N, _FLUSH_BLOCK, d))
        self._Xn = np.empty((N, _FLUSH_BLOCK, state_dim))
        self._fill = 0

    def _sums(self) -> tuple[np.ndarray, np.ndarray]:
        # every trial's (V, S) with the unfolded tail added: one stacked
        # product per sum, each trial's the bits of its 2-d product
        if not self._fill:
            return self._V, self._S
        Z = self._Z[:, :self._fill]
        Xn = self._Xn[:, :self._fill]
        return (self._V + Z.swapaxes(-1, -2) @ Z,
                self._S + Xn.swapaxes(-1, -2) @ Z)

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, S) over every pair absorbed so far, the uncommitted tail
        included, without committing it: (d, d) and (n, d) for one trial,
        (N, d, d) and (N, n, d) for a stack.

        Reads must not change how the committed sums are grouped, so a
        trajectory comes out bit-identical whether or not anything looked
        at the estimator along the way. The arrays are never written
        afterwards: later pairs fold into new ones, so a snapshot keeps its
        values while the estimator absorbs on.
        """
        V, S = self._sums()
        return (V[0], S[0]) if self._lone else (V, S)

    @property
    def count(self) -> int:
        return self._count

    def absorb(self, z, x_next) -> None:
        """Add a block of (regressor, successor-state) pairs, one step per
        row.

        For one trial ``z`` is (rows, n+m) and ``x_next`` is (rows, n), and
        a single pair may be given as two vectors. For a stack they are
        step-major, (rows, N, n+m) and (rows, N, n): row i holds every
        trial's pair of that step. Rows are folded into (V, S) in groups
        of 512 counted from the first pair ever absorbed, so how a
        trajectory is split into blocks never changes the sums.
        """
        N, _, d = self._Z.shape
        Z = np.reshape(z, (-1, N, d))
        Xn = np.reshape(x_next, (-1, N, self.state_dim))
        if len(Z) != len(Xn):
            raise ValueError(
                f"{len(Z)} regressor rows but {len(Xn)} successor rows")
        done = 0
        while done < len(Z):
            take = min(_FLUSH_BLOCK - self._fill, len(Z) - done)
            fill = slice(self._fill, self._fill + take)
            self._Z[:, fill] = Z[done:done + take].swapaxes(0, 1)
            self._Xn[:, fill] = Xn[done:done + take].swapaxes(0, 1)
            self._fill += take
            done += take
            if self._fill == _FLUSH_BLOCK:
                self._V, self._S = self._sums()
                self._fill = 0
        self._count += len(Z)

    def leave(self, keep) -> None:
        """Keep only the stack's trials where the (N,) mask ``keep`` is
        True; they keep their sums and their unfolded pairs."""
        self._V, self._S = self._V[keep], self._S[keep]
        self._Z, self._Xn = self._Z[keep], self._Xn[keep]

    def estimate(self) -> ParameterEstimate:
        """Theta = S V^+, the pseudoinverse truncated at PINV_RTOL * sigma_max.

        Rank deficiency yields the minimum-norm solution, so an empty state
        returns the zero matrix with rank 0. This is ``estimates`` on the
        snapshot of one trial; a stack's go through ``estimates`` itself.
        """
        Theta, ranks = estimates([self.snapshot()])
        return ParameterEstimate(Theta=Theta[0], rank=int(ranks[0]),
                                 state_dim=self.state_dim)


def estimates(snapshots: list[tuple[np.ndarray, np.ndarray]]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Theta = S V^+ for several (V, S) snapshots of one shape at once.

    A snapshot is one trial's or a stack's; the rows are the snapshots'
    trials in order. Returns the (N, n, n+m) estimates and their (N,)
    ranks, each row the same bits as ``estimate`` of a lone estimator fed
    that trial's pairs up to the snapshot. One stacked eigh decomposes
    every V; eigh sorts eigenvalues in ascending order, so the ones kept
    (above PINV_RTOL * the largest) are a suffix, and rows of equal rank r
    share one stacked product over their last r eigenvectors.
    """
    V = np.concatenate([v.reshape(-1, *v.shape[-2:]) for v, _ in snapshots])
    S = np.concatenate([s.reshape(-1, *s.shape[-2:]) for _, s in snapshots])
    # V is symmetric PSD; eigendecomposition doubles as its SVD
    eigvals, eigvecs = np.linalg.eigh(V)
    cutoff = PINV_RTOL * np.maximum(eigvals[:, -1], 0.0)
    ranks = np.count_nonzero(eigvals > cutoff[:, None], axis=1)
    Theta = np.zeros(S.shape)
    d = V.shape[-1]
    # a set, not np.unique, which imports numpy.ma on its first call: no
    # command loads numpy.ma (about 10 ms), as harness._median avoids
    # np.median for the same reason
    for rank in sorted(set(ranks.tolist()) - {0}):
        rows = np.flatnonzero(ranks == rank)
        # column-major (d, rank) blocks, the layout eigvecs[:, keep] has in
        # the 2-d form: BLAS takes a transposed operand by another kernel,
        # whose sums can differ in the last bits
        U = np.empty((len(rows), rank, d)).swapaxes(-1, -2)
        U[...] = eigvecs[rows, :, d - rank:]
        inv = U * (1.0 / eigvals[rows, None, d - rank:])
        Theta[rows] = S[rows] @ U @ inv.swapaxes(-1, -2)
    return Theta, ranks


def estimation_error(est: ParameterEstimate | np.ndarray,
                     truth: SystemMatrices):
    """Spectral norm of Theta_hat - [A B].

    ``est`` is one estimate, which gives a float, or an (N, n, n+m) stack
    of them, which gives the (N,) norms from one stacked SVD.
    """
    Theta_hat = est.Theta if isinstance(est, ParameterEstimate) else np.asarray(est)
    Theta = np.hstack([truth.A, truth.B])
    if Theta_hat.shape[-2:] != Theta.shape or Theta_hat.ndim not in (2, 3):
        raise ValueError(
            f"estimate shape {Theta_hat.shape} does not match truth {Theta.shape}")
    # the largest singular value, as np.linalg.norm(., 2) takes it
    norms = np.linalg.svd(Theta_hat - Theta, compute_uv=False).max(axis=-1)
    return float(norms) if Theta_hat.ndim == 2 else norms
