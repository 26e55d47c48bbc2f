"""Stage costs, regret, and its seven-term exact decomposition.

Regret after T steps is sum_k (x_k'Q x_k + u_k'R u_k) - T J*, where J* is
the optimal steady-state average cost. The decomposition splits that number
into seven interpretable terms (gain suboptimality, probe and noise cross
terms, noise quadratics, a telescoped boundary, and the direct probe cost)
whose sum reproduces the regret as an algebraic identity; checking the
identity numerically is the strongest available audit of logging fidelity.
``stage_costs`` is the one stage-cost formula: the simulation loop and the
log audit both compute per-step costs with it.
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


def _per_step_terms(record: TrialRecord, oracle: RiccatiSolution,
                    truth: PlantSpec) -> dict[str, np.ndarray]:
    A, B = truth.sys.A, truth.sys.B
    P, K_star, R = oracle.P_star, oracle.K_star, truth.cost.R
    X, U_cb, U_pr, W = record.X, record.U_cb, record.U_pr, record.W

    # the feedback in effect is u_cb itself: it equals Khat x on clean steps
    # and 0 on breaker steps, exactly the selection the terms call for
    gain_err = U_cb - X @ K_star.T                   # (K_k - K*) x_k
    G = R + B.T @ P @ B
    closed = X @ A.T + U_cb @ B.T                    # (A + B K_k) x_k
    probe_through_plant = U_pr @ B.T                 # B u_pr
    s = probe_through_plant + W                      # s_k
    noise_sq = _cross_rows(W, P, W)                  # w_k' P w_k

    return {
        "d1": _cross_rows(gain_err, G, gain_err),
        "d2": 2.0 * _cross_rows(probe_through_plant, P, closed),
        "d3": 2.0 * _cross_rows(W, P, closed),
        "d4": _cross_rows(s, P, s) - noise_sq,
        "d5": noise_sq,
        "d7": 2.0 * _cross_rows(U_pr, R, U_cb) + _cross_rows(U_pr, R, U_pr),
    }


def _boundary_term(record: TrialRecord, oracle: RiccatiSolution,
                   truth: PlantSpec, upto: int) -> float:
    # x_1' P* x_1 - x_{upto+1}' P* x_{upto+1}; a record ends at x_T
    P = oracle.P_star
    x1 = record.X[0]
    if upto < record.horizon:
        x_end = record.X[upto]
    else:
        x_end = step(record.X[-1], record.U_cb[-1] + record.U_pr[-1],
                     record.W[-1], truth)
    return float(x1 @ P @ x1 - x_end @ P @ x_end)


def decompose_at(record: TrialRecord, oracle: RiccatiSolution,
                 truth: PlantSpec,
                 checkpoints: list[int]) -> list[DecompositionReport]:
    """Decomposition reports at several prefixes of one trial.

    Each checkpoint c uses the first c steps; its boundary term reads the
    state after step c, which at c = T is one plant.step of ``truth``
    from the last row. Per-step term arrays are computed once and
    prefix-summed, so the cost is one pass over the log regardless of how
    many checkpoints are requested.
    """
    T = record.horizon
    for c in checkpoints:
        if not 1 <= c <= T:
            raise ValueError(f"checkpoint {c} outside 1..{T}")
    terms = _per_step_terms(record, oracle, truth)
    cums = {name: np.cumsum(arr) for name, arr in terms.items()}
    cum_stage = np.cumsum(record.stage_cost)
    J = oracle.J_star

    reports = []
    for c in checkpoints:
        i = c - 1
        r1 = float(cums["d1"][i])
        r2 = float(cums["d2"][i])
        r3 = float(cums["d3"][i])
        r4 = float(cums["d4"][i])
        r5 = float(cums["d5"][i]) - c * J
        r6 = _boundary_term(record, oracle, truth, c)
        r7 = float(cums["d7"][i])
        total = r1 + r2 + r3 + r4 + r5 + r6 + r7
        regret = float(cum_stage[i]) - c * J
        reports.append(DecompositionReport(
            R1=r1, R2=r2, R3=r3, R4=r4, R5=r5, R6=r6, R7=r7,
            total=total, regret=regret, residual=abs(total - regret)))
    return reports

