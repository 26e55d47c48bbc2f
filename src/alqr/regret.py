"""Stage costs, regret, and its seven-term exact decomposition.

Regret after T steps is sum_k (x_k'Q x_k + u_k'R u_k) - T J*, where J* is
the optimal steady-state average cost. The decomposition splits that number
into seven interpretable terms (gain suboptimality, probe and noise cross
terms, noise quadratics, a telescoped boundary, and the direct probe cost)
whose sum reproduces the regret as an algebraic identity; checking the
identity numerically is the strongest available audit of logging fidelity.
``stage_costs`` is the one stage-cost formula: the simulation loop and the
log audit both compute per-step costs with it. Running sums go through
``prefix_sums`` and the decomposition through RegretFold, fed a trial's
blocks in order, so a trial read as one block and a log read block by
block give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control_math import CostWeights, RiccatiSolution
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
    # row-wise a_i' P b_i
    return np.einsum("ij,jl,il->i", A, P, B)


def stage_costs(X: np.ndarray, U: np.ndarray,
                cost: CostWeights) -> np.ndarray:
    """Per-step stage costs x_k'Q x_k + u_k'R u_k for row-stacked X and U."""
    return _cross_rows(X, cost.Q, X) + _cross_rows(U, cost.R, U)


def prefix_sums(rows: np.ndarray, first: int, steps: np.ndarray,
                before: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of a block's per-step ``rows`` (L, k), first row at step
    ``first``, through each of ``steps`` in it and through its last row.

    ``before``, the (k,) sums over the steps before the block, goes first
    into one np.cumsum, so the sums are the bits of one cumsum over the
    whole trial (adding it afterwards is not).
    """
    cum = np.empty((len(rows) + 1, rows.shape[1]))
    cum[0] = before
    cum[1:] = rows
    np.cumsum(cum, axis=0, out=cum)
    return cum[np.asarray(steps, dtype=np.int64) - (first - 1)], cum[-1].copy()


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


class RegretFold:
    """Regret and its seven terms at ``checkpoints``, fed a trial's blocks
    in step order (add), each summed onto the blocks before it.

    The boundary term at checkpoint c reads the state after step c: the
    row of step c + 1, in whichever block holds it, or after the last row
    one plant.step of ``truth`` from it.
    """

    def __init__(self, oracle: RiccatiSolution, truth: PlantSpec,
                 checkpoints):
        self.oracle, self.truth, self.P = oracle, truth, oracle.P_star
        self.checkpoints = np.asarray(checkpoints, dtype=np.int64)
        self.sums = np.zeros(7)   # through the last step added
        self.start = 0.0          # x_1' P* x_1
        self.last: TrialRecord | None = None   # the last block added
        self.at: dict = {}        # checkpoint c -> sums through c
        self.after: dict = {}     # checkpoint c -> x' P* x after step c

    def add(self, block: TrialRecord) -> None:
        first, last, cps, P = (block.first_step, block.horizon,
                               self.checkpoints, self.P)
        if first == 1:
            self.start = block.X[0] @ P @ block.X[0]
        for c in cps[(cps >= first - 1) & (cps < last)].tolist():
            x = block.X[c + 1 - first]
            self.after[c] = x @ P @ x
        steps = cps[(cps >= first) & (cps <= last)]
        at, self.sums = prefix_sums(
            _step_terms(block, self.oracle, self.truth), first, steps,
            self.sums)
        self.at.update(zip(steps.tolist(), at))
        self.last = block

    def reports(self, checkpoints) -> list[DecompositionReport]:
        """Reports at ``checkpoints``: checkpoints added by now, or the
        last step added."""
        end = self.last
        x = step(end.X[-1], end.U_cb[-1] + end.U_pr[-1], end.W[-1],
                 self.truth)
        at = {**self.at, end.horizon: self.sums}
        after = {**self.after, end.horizon: x @ self.P @ x}
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
    """Decomposition reports at several prefixes of one trial, fed to a
    RegretFold as one block.

    Each checkpoint c uses the first c steps; its boundary term reads the
    state after step c, which at c = T is one plant.step of ``truth``
    from the last row.
    """
    T = record.horizon
    for c in checkpoints:
        if not 1 <= c <= T:
            raise ValueError(f"checkpoint {c} outside 1..{T}")
    fold = RegretFold(oracle, truth, checkpoints)
    fold.add(record)
    return fold.reports(checkpoints)
