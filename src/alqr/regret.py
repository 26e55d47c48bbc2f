"""Stage costs, regret, and its seven-term exact decomposition.

Regret after T steps is sum_k (x_k'Q x_k + u_k'R u_k) - T J*, where J* is
the optimal steady-state average cost. The decomposition splits that number
into seven interpretable terms (gain suboptimality, probe and noise cross
terms, noise quadratics, a telescoped boundary, and the direct probe cost)
whose sum reproduces the regret as an algebraic identity; checking the
identity numerically is the strongest available audit of logging fidelity.
``stage_costs`` is the one stage-cost formula: the simulation loop and the
log audit both compute per-step costs with it. TrialFold, fed a trial's
blocks in order, derives every per-trial fact the rows decide: the regret
and its curve, the breaker-quiescence time, the noise event, the
state-norm ratio and, when asked to audit, the seven terms. simulate feeds
it a trial's rows of each noise chunk as the chunk ends and analyze a log
block by block, so both derive each fact through the same lines and bits.
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


def _step_terms(block: TrialRecord, oracle: RiccatiSolution,
                truth: PlantSpec) -> np.ndarray:
    """(L, 7) per-step rows: the logged stage cost and the summands of R1,
    R2, R3, R4, R5 (before its -J* per step) and R7."""
    A, B = truth.sys.A, truth.sys.B
    P, K_star, R = oracle.P_star, oracle.K_star, truth.cost.R
    X, U_cb, U_pr, W = block.X, block.U_cb, block.U_pr, block.W

    # the feedback in effect is u_cb itself: it equals Khat x on clean steps
    # and 0 on breaker steps, exactly the selection the terms call for
    gain_err = U_cb - X @ K_star.T                   # (K_k - K*) x_k
    G = R + B.T @ P @ B
    closed = X @ A.T + U_cb @ B.T                    # (A + B K_k) x_k
    probe_through_plant = U_pr @ B.T                 # B u_pr
    s = probe_through_plant + W                      # s_k
    noise_sq = _cross_rows(W, P, W)                  # w_k' P w_k

    return np.stack([
        block.stage_cost,
        _cross_rows(gain_err, G, gain_err),
        2.0 * _cross_rows(probe_through_plant, P, closed),
        2.0 * _cross_rows(W, P, closed),
        _cross_rows(s, P, s) - noise_sq,
        noise_sq,
        2.0 * _cross_rows(U_pr, R, U_cb) + _cross_rows(U_pr, R, U_pr),
    ], axis=1)


class TrialFold:
    """Every per-trial fact the rows of a trial decide, fed its blocks in
    step order (add), each carried onto the blocks before it: the
    stage-cost sums at ``checkpoints`` and through the last step, the
    last step the breaker was active, the noise event and the largest
    state-norm ratio. ``audit`` adds the six decomposition columns and
    the boundary states that reports() reads. A block's sums are one
    np.cumsum with the carry as its first row, so a trial fed as one
    block or cut into blocks gives the same bits.

    The boundary term at checkpoint c reads the state after step c: the
    row of step c + 1, in whichever block holds it, or after the last row
    one plant.step of ``truth`` from it.
    """

    def __init__(self, oracle: RiccatiSolution, truth: PlantSpec,
                 checkpoints, delta: float, audit: bool = False):
        if not 0.0 < delta <= 0.5:
            raise ValueError(f"delta must be in (0, 1/2], got {delta}")
        self.oracle, self.truth, self.delta = oracle, truth, delta
        self.audit = audit
        self.checkpoints = np.asarray(checkpoints, dtype=np.int64)
        self.sums = np.zeros(7 if audit else 1)   # through the last step
        # the sums through each checkpoint, NaN until it is added
        self.at = np.full((len(self.checkpoints), len(self.sums)), np.nan)
        self.start = 0.0          # x_1' P* x_1
        self.after: dict = {}     # checkpoint c -> x' P* x after step c
        self.last: TrialRecord | None = None   # the last block added
        self.last_active = 0      # the last step the breaker was active
        self.noise_holds = True
        self.ratio = -math.inf    # max_k ||x_k|| / log(k/delta)

    def add(self, block: TrialRecord) -> None:
        first, last, cps = block.first_step, block.horizon, self.checkpoints
        if self.audit:
            P = self.oracle.P_star
            if first == 1:
                self.start = block.X[0] @ P @ block.X[0]
            for c in cps[(cps >= first - 1) & (cps < last)].tolist():
                x = block.X[c + 1 - first]
                self.after[c] = x @ P @ x
            rows = _step_terms(block, self.oracle, self.truth)
        else:
            rows = block.stage_cost[:, None]
        cum = np.empty((len(rows) + 1, rows.shape[1]))
        cum[0] = self.sums
        cum[1:] = rows
        np.cumsum(cum, axis=0, out=cum)
        hit = (cps >= first) & (cps <= last)
        self.at[hit] = cum[cps[hit] - (first - 1)]
        self.sums = cum[-1].copy()

        active = np.flatnonzero(block.breaker)
        if active.size:
            self.last_active = first + int(active[-1])
        # the noise event: max(||L^-1 w_k||, ||v_k||) under the envelope,
        # built for standard normal draws, so w_k is whitened by L = chol W
        # (forward substitution over the n columns; a NaN row fails the
        # comparison rather than raising) and the probe scale undone
        ks = np.arange(first, last + 1, dtype=float)
        bound = noise_bound(ks, block.n, self.delta)
        L = self.truth.chol_W
        white = np.empty_like(block.W)
        for i in range(block.n):
            white[:, i] = (block.W[:, i] - white[:, :i] @ L[i, :i]) / L[i, i]
        w_norms = np.linalg.norm(white, axis=1)
        v_norms = np.linalg.norm(block.U_pr, axis=1) * ks ** -PROBE_EXPONENT
        self.noise_holds = self.noise_holds and bool(
            np.all(w_norms <= bound) and np.all(v_norms <= bound))
        self.ratio = float(np.max(
            np.linalg.norm(block.X, axis=1) / np.log(ks / self.delta),
            initial=self.ratio))
        self.last = block

    def facts(self) -> dict:
        """Every TrialSummary field but t_stab, through the last step added.

        t_nocb is 1 + the last step the breaker was active (1 if it never
        was), censored when that is the last step added.
        """
        T = self.last.horizon
        J = self.oracle.J_star
        regret = float(self.sums[0]) - T * J
        return {"final_regret": regret,
                "final_rel_avg_regret": regret / (T * J),
                "t_nocb": self.last_active + 1,
                "t_nocb_censored": self.last_active == T,
                "noise_event_holds": self.noise_holds,
                "max_state_norm_ratio": self.ratio}

    def rel_avg_regret(self) -> np.ndarray:
        """(sum - c J*) / (c J*) at each checkpoint c, NaN past the last
        step added."""
        cJ = self.checkpoints * self.oracle.J_star
        return (self.at[:, 0] - cJ) / cJ

    def reports(self, checkpoints) -> list[DecompositionReport]:
        """Reports at ``checkpoints`` of an audit fold: checkpoints added by
        now, or the last step added."""
        end = self.last
        x = step(end.X[-1], end.U_cb[-1] + end.U_pr[-1], end.W[-1],
                 self.truth)
        at = {**dict(zip(self.checkpoints.tolist(), self.at)),
              end.horizon: self.sums}
        after = {**self.after, end.horizon: x @ self.oracle.P_star @ x}
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
