"""Stage costs, regret, and its seven-term exact decomposition.

Regret after T steps is sum_k (x_k'Q x_k + u_k'R u_k) - T J*, where J* is
the optimal steady-state average cost. The decomposition splits that number
into seven interpretable terms (gain suboptimality, probe and noise cross
terms, noise quadratics, a telescoped boundary, and the direct probe cost)
whose sum reproduces the regret as an algebraic identity; checking the
identity numerically is the strongest available audit of logging fidelity.
``stage_costs`` is the one stage-cost formula: the simulation loop and the
log audit both compute per-step costs with it. TrialFold, fed the blocks
of a batch of trials in order, derives every per-trial fact the rows
decide: the regret and its curve, the breaker-quiescence time, the noise
event, the state-norm ratio and, when asked to audit one trial, the seven
terms. simulate feeds one fold the batch's rows of each noise chunk as the
chunk ends, step-major, and analyze feeds a fold of one trial a log block
by block, so both derive each fact through the same lines and bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_math import CostWeights, RiccatiSolution
from .controller import PROBE_EXPONENT
from .diagnostics import noise_bound
from .plant import PlantSpec, step
from .records import TrialRecord

# the identity should hold to accumulation round-off; this is the audit gate
DECOMP_RTOL = 1e-6
# the TrialRecord fields a TrialFold reads, in add_rows's order
FOLD_ROWS = ("X", "U_cb", "U_pr", "W", "breaker", "stage_cost")


@dataclass(frozen=True)
class DecompositionReport:
    """The seven terms, their sum, the regret, and the identity residual."""

    R1: float
    R2: float
    R3: float
    R4: float
    R5: float
    R6: float
    R7: float
    total: float
    regret: float
    residual: float

    @property
    def within_tolerance(self) -> bool:
        return self.residual <= DECOMP_RTOL * (1.0 + abs(self.regret))


def row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=-1), bit for bit, at a fifth of its cost for
    short rows.

    numpy reduces a short last axis with one inner loop per row. Below 8
    entries its sum of squares runs left to right, ((s0 + s1) + s2) ..., as
    the column-by-column sum here does in one elementwise loop per column;
    from 8 on it sums pairwise, so the norm itself is taken there.
    """
    n = X.shape[-1]
    if n >= 8:
        return np.linalg.norm(X, axis=-1)
    total = X[..., 0] * X[..., 0]
    for i in range(1, n):
        total += X[..., i] * X[..., i]
    return np.sqrt(total)


def _cross_rows(A: np.ndarray, P: np.ndarray, B: np.ndarray) -> np.ndarray:
    # row-wise a_i' P b_i, the same bits in a block of any length: einsum
    # sums each j's terms apart in a block of one or two rows with a 2 x 2
    # P, so such a block is padded with zero rows
    rows = len(A)
    if rows < 3:
        pad = np.zeros((3 - rows, A.shape[1]))
        A, B = np.concatenate([A, pad]), np.concatenate([B, pad])
    return np.einsum("ij,jl,il->i", A, P, B)[:rows]


def stage_costs(X: np.ndarray, U: np.ndarray,
                cost: CostWeights) -> np.ndarray:
    """Per-step stage costs x_k'Q x_k + u_k'R u_k for row-stacked X and U."""
    return _cross_rows(X, cost.Q, X) + _cross_rows(U, cost.R, U)


def _step_terms(X: np.ndarray, U_cb: np.ndarray, U_pr: np.ndarray,
                W: np.ndarray, stage_cost: np.ndarray,
                oracle: RiccatiSolution, truth: PlantSpec) -> np.ndarray:
    """(L, 7) per-step rows of one trial's (L, ·) rows: the logged stage
    cost and the summands of R1, R2, R3, R4, R5 (before its -J* per step)
    and R7."""
    A, B = truth.sys.A, truth.sys.B
    P, K_star, R = oracle.P_star, oracle.K_star, truth.cost.R

    # the feedback in effect is u_cb itself: it equals Khat x on clean steps
    # and 0 on breaker steps, exactly the selection the terms call for
    gain_err = U_cb - X @ K_star.T                   # (K_k - K*) x_k
    G = R + B.T @ P @ B
    closed = X @ A.T + U_cb @ B.T                    # (A + B K_k) x_k
    probe_through_plant = U_pr @ B.T                 # B u_pr
    s = probe_through_plant + W                      # s_k
    noise_sq = _cross_rows(W, P, W)                  # w_k' P w_k

    return np.stack([
        stage_cost,
        _cross_rows(gain_err, G, gain_err),
        2.0 * _cross_rows(probe_through_plant, P, closed),
        2.0 * _cross_rows(W, P, closed),
        _cross_rows(s, P, s) - noise_sq,
        noise_sq,
        2.0 * _cross_rows(U_pr, R, U_cb) + _cross_rows(U_pr, R, U_pr),
    ], axis=1)


class TrialFold:
    """Every per-trial fact the rows of a batch of trials decide, fed
    their blocks in step order, each carried onto the blocks before it as
    an (N,) array over the trials: the stage-cost sums at ``checkpoints``
    and through the last step, the last step the breaker was active, the
    noise event and the largest state-norm ratio. ``audit``, for a fold of
    one trial, adds the six decomposition columns and the boundary states
    that reports() reads.

    add_rows takes a block of the batch step-major, (L, N, ·), so each
    quantity is one call over the block: one np.cumsum with the carry as
    its first row, one whitening and one row_norms per vector, the noise
    bound and probe scale once per step. Each trial's
    values are the bits of its rows folded alone, so a trial fed as one
    block or cut into blocks, alone or in any batch, gives the same bits.
    add feeds one trial's record as a batch of one.

    The boundary term at checkpoint c reads the state after step c: the
    row of step c + 1, in whichever block holds it, or after the last row
    one plant.step of ``truth`` from it.
    """

    def __init__(self, oracle: RiccatiSolution, truth: PlantSpec,
                 checkpoints, delta: float, audit: bool = False,
                 trials: int = 1):
        if not 0.0 < delta <= 0.5:
            raise ValueError(f"delta must be in (0, 1/2], got {delta}")
        if audit and trials != 1:
            raise ValueError(f"an audit fold holds one trial, not {trials}")
        self.oracle, self.truth, self.delta = oracle, truth, delta
        self.audit = audit
        self.checkpoints = np.asarray(checkpoints, dtype=np.int64)
        columns = 7 if audit else 1
        # the sums through the last step, and through each checkpoint (NaN
        # until it is added)
        self.sums = np.zeros((trials, columns))
        self.at = np.full((trials, len(self.checkpoints), columns), np.nan)
        self.steps = np.zeros(trials, dtype=np.int64)  # the last step added
        self.start = 0.0          # x_1' P* x_1
        self.after: dict = {}     # checkpoint c -> x' P* x after step c
        self.end = None           # the last row's x, u and w
        # the last step the breaker was active
        self.last_active = np.zeros(trials, dtype=np.int64)
        self.noise_holds = np.ones(trials, dtype=bool)
        # max_k ||x_k|| / log(k/delta)
        self.ratio = np.full(trials, -math.inf)

    def add(self, block: TrialRecord) -> None:
        """Feed one trial's block of rows, as a batch of one."""
        self.add_rows(block.first_step, *(getattr(block, name)[:, None]
                                          for name in FOLD_ROWS))

    def add_rows(self, first: int, X: np.ndarray, U_cb: np.ndarray,
                 U_pr: np.ndarray, W: np.ndarray, breaker: np.ndarray,
                 stage_cost: np.ndarray, ends=None) -> None:
        """Feed the batch's rows of steps first .. first + L - 1: (L, N, ·)
        arrays, a TrialRecord's fields with a trial axis. Trial r keeps its
        first ends[r] rows (every row by default, none leaves it as it
        was). The rows past a trial's end may hold anything, inf and NaN
        included, so they are replaced by zeros, which add nothing, before
        any arithmetic."""
        L, N = stage_cost.shape
        ends = np.full(N, L) if ends is None else np.asarray(ends)
        valid = True
        if np.any(ends < L):
            valid = np.arange(L)[:, None] < ends
            X, U_cb, U_pr, W = (np.where(valid[..., None], a, 0.0)
                                for a in (X, U_cb, U_pr, W))
            breaker = np.where(valid, breaker, 0)
            stage_cost = np.where(valid, stage_cost, 0.0)
        cps = self.checkpoints
        if self.audit:
            P = self.oracle.P_star
            x, end = X[:, 0], int(ends[0])
            if first == 1 and end:
                self.start = x[0] @ P @ x[0]
            for c in cps[(cps >= first - 1) & (cps < first - 1 + end)].tolist():
                self.after[c] = x[c + 1 - first] @ P @ x[c + 1 - first]
            if end:
                self.end = (x[end - 1], U_cb[end - 1, 0] + U_pr[end - 1, 0],
                            W[end - 1, 0])
            rows = _step_terms(x, U_cb[:, 0], U_pr[:, 0], W[:, 0],
                               stage_cost[:, 0], self.oracle,
                               self.truth)[:, None]
        else:
            rows = stage_cost[..., None]
        cum = np.empty((L + 1, N, rows.shape[-1]))
        cum[0] = self.sums
        cum[1:] = rows
        np.cumsum(cum, axis=0, out=cum)
        hit = np.flatnonzero((cps >= first) & (cps < first + L))
        if hit.size:
            kept = (cps[hit, None] < first + ends).T
            self.at[:, hit] = np.where(
                kept[..., None], cum[cps[hit] - (first - 1)].swapaxes(0, 1),
                self.at[:, hit])
        self.sums = cum[ends, np.arange(N)]
        self.steps = np.where(ends > 0, first + ends - 1, self.steps)

        # a reduction over the rows of an (L, N) array runs one inner loop
        # per row, so the per-trial ones go over (N, L) copies, and only
        # when the whole block's cheap test does not already decide them
        steps = np.arange(first, first + L)
        if np.count_nonzero(breaker):
            self.last_active = np.maximum(self.last_active, np.where(
                breaker.T != 0, steps, 0).max(axis=1))
        # the noise event: max(||L^-1 w_k||, ||v_k||) under the envelope,
        # built for standard normal draws, so w_k is whitened by L = chol W
        # and the probe scale undone. The forward substitution over the n
        # columns is elementwise, so a row's bits do not depend on the
        # block's shape, as a BLAS product's can; a zero entry of L adds
        # nothing and is skipped, and a NaN row fails the comparison
        # rather than raising
        ks = steps.astype(float)
        bound = noise_bound(ks, X.shape[-1], self.delta)[:, None]
        L_w = self.truth.chol_W
        white = np.empty_like(W)
        for i in range(len(L_w)):
            known = 0.0
            for j in np.flatnonzero(L_w[i, :i]).tolist():
                known = known + white[..., j] * L_w[i, j]
            white[..., i] = (W[..., i] - known) / L_w[i, i]
        w_norms = row_norms(white)
        v_norms = (row_norms(U_pr)
                   * (ks ** -PROBE_EXPONENT)[:, None])
        holds = (w_norms <= bound) & (v_norms <= bound)
        if not holds.all():
            self.noise_holds &= holds.T.all(axis=1)
        ratios = row_norms(X) / np.log(ks / self.delta)[:, None]
        if valid is not True:
            ratios[~valid] = -math.inf
        self.ratio = np.maximum(self.ratio, np.max(
            ratios.T.copy(), axis=1, initial=-math.inf))

    def facts(self, trial: int = 0) -> dict:
        """Every TrialSummary field but t_stab of one trial of the batch,
        through the last step added.

        t_nocb is 1 + the last step the breaker was active (1 if it never
        was), censored when that is the last step added.
        """
        T = int(self.steps[trial])
        J = self.oracle.J_star
        regret = float(self.sums[trial, 0]) - T * J
        last_active = int(self.last_active[trial])
        return {"final_regret": regret,
                "final_rel_avg_regret": regret / (T * J),
                "t_nocb": last_active + 1,
                "t_nocb_censored": last_active == T,
                "noise_event_holds": bool(self.noise_holds[trial]),
                "max_state_norm_ratio": float(self.ratio[trial])}

    def rel_avg_regret(self) -> np.ndarray:
        """(N, C): (sum - c J*) / (c J*) at each checkpoint c, per trial,
        NaN past the last step added."""
        cJ = self.checkpoints * self.oracle.J_star
        return (self.at[..., 0] - cJ) / cJ

    def reports(self, checkpoints) -> list[DecompositionReport]:
        """Reports at ``checkpoints`` of an audit fold: checkpoints added by
        now, or the last step added."""
        T = int(self.steps[0])
        x = step(*self.end, self.truth)
        at = {**dict(zip(self.checkpoints.tolist(), self.at[0])),
              T: self.sums[0]}
        after = {**self.after, T: x @ self.oracle.P_star @ x}
        J = self.oracle.J_star
        reports = []
        for c in checkpoints:
            stage, r1, r2, r3, r4, d5, r7 = at[c].tolist()
            r5 = d5 - c * J
            r6 = float(self.start - after[c])
            total = r1 + r2 + r3 + r4 + r5 + r6 + r7
            regret = stage - c * J
            reports.append(DecompositionReport(
                R1=r1, R2=r2, R3=r3, R4=r4, R5=r5, R6=r6, R7=r7,
                total=total, regret=regret, residual=abs(total - regret)))
        return reports


def decompose_at(record: TrialRecord, oracle: RiccatiSolution,
                 truth: PlantSpec,
                 checkpoints: list[int]) -> list[DecompositionReport]:
    """Decomposition reports at several prefixes of one trial, fed to an
    audit TrialFold as one block.

    Each checkpoint c uses the first c steps; its boundary term reads the
    state after step c, which at c = T is one plant.step of ``truth``
    from the last row.
    """
    T = record.horizon
    for c in checkpoints:
        if not 1 <= c <= T:
            raise ValueError(f"checkpoint {c} outside 1..{T}")
    # the reports read no delta
    fold = TrialFold(oracle, truth, checkpoints, 0.5, audit=True)
    fold.add(record)
    return fold.reports(checkpoints)
