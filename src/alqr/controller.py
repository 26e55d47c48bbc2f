"""Certainty-equivalence LQR controller with circuit breaking and probing.

Each step the controller proposes the feedback input u_ce = Khat x. A
supervisor (the circuit breaker) passes u_ce through only while its norm
stays under the growing threshold M_k = log(k); a violation zeroes the
feedback for a dwell of t_k = floor(log(k)) further steps. Independent
probing noise u_pr = k^(-1/4) v_k, v_k ~ N(0, I_m), is always added so the
closed loop keeps exciting the estimator. The gain Khat is resynthesized
from the current parameter estimate on a configurable schedule; estimates
that fail the controllability test (or whose Riccati solve fails) fall back
to the zero gain, which is safe because the open loop is stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_math import (
    CostWeights,
    SystemMatrices,
    controllability_rank,
    solve_dare,
)
from .errors import IllConditioned, NonConvergence
from .estimator import EstimatorState
from .plant import NoiseStream, draw_probe_noise

PROBE_EXPONENT = -0.25
SCHEDULES = ("powers-of-two", "every-step")


@dataclass(frozen=True)
class ControllerConfig:
    """Supervision rules and the gain-update schedule.

    The probe exponent is part of the algorithm, not a knob. The logarithm
    base feeds both the threshold M_k and the dwell t_k; the default is the
    natural log, with other bases allowed for sensitivity studies.
    """

    gain_update_schedule: str = "powers-of-two"
    log_base: float = math.e
    rank_rtol: float = 1e-10

    def __post_init__(self):
        if self.gain_update_schedule not in SCHEDULES:
            raise ValueError(
                f"gain_update_schedule must be one of {SCHEDULES}, "
                f"got {self.gain_update_schedule!r}")
        if not (self.log_base > 1.0):
            raise ValueError(f"log_base must exceed 1, got {self.log_base}")
        if not (0.0 < self.rank_rtol < 1.0):
            raise ValueError(f"rank_rtol must be in (0,1), got {self.rank_rtol}")

    def log(self, k: int) -> float:
        return math.log(k) / math.log(self.log_base)

    def threshold(self, k: int) -> float:
        """Breaker threshold M_k."""
        return self.log(k)

    def dwell(self, k: int) -> int:
        """Dwell length t_k after a trigger at step k."""
        return int(math.floor(self.log(k)))

    def schedule_fires(self, k: int) -> bool:
        if self.gain_update_schedule == "every-step":
            return True
        return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class InputBreakdown:
    """The three input components applied at one step.

    u = u_cb + u_pr always. breaker_active means the feedback path was
    zeroed this step, either because the breaker just triggered
    (breaker_triggered_now) or because a dwell period is running.
    """

    u_ce: np.ndarray
    u_cb: np.ndarray
    u_pr: np.ndarray
    u: np.ndarray
    breaker_active: bool
    breaker_triggered_now: bool


class AdaptiveController:
    """Per-trial controller state: breaker counter, cached gain, estimator."""

    def __init__(self, config: ControllerConfig, state_dim: int,
                 input_dim: int, cost: CostWeights):
        self.config = config
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.cost = cost
        self.xi = 0
        self.Khat = np.zeros((input_dim, state_dim))
        self.estimator = EstimatorState(state_dim, input_dim)
        self.gain_update_failures = 0

    def update_gain(self, k: int) -> bool:
        """Resynthesize Khat from the current estimate if the schedule fires.

        The estimate replaces the true (A, B) in the Riccati solve. A
        rank-deficient controllability matrix, or a Riccati solve that fails
        to converge, resets the gain to zero rather than raising: the zero
        gain is always admissible on a stable open loop. Returns whether
        the schedule fired.
        """
        if not self.config.schedule_fires(k):
            return False
        est = self.estimator.estimate()
        sys_hat = SystemMatrices(A=est.A_hat, B=est.B_hat)
        new_gain = np.zeros((self.input_dim, self.state_dim))
        if controllability_rank(sys_hat, rtol=self.config.rank_rtol) == self.state_dim:
            try:
                solution = solve_dare(sys_hat, self.cost)
                new_gain = solution.K_star
            except (NonConvergence, IllConditioned):
                self.gain_update_failures += 1
        self.Khat = new_gain
        return True

    def compute_input(self, k: int, x: np.ndarray,
                      stream: NoiseStream) -> InputBreakdown:
        """Breaker decision and probe draw for step k.

        Exactly one of three branches runs: threshold trigger (sets the
        dwell counter), dwell continuation (decrements it), or pass-through.
        A dwell that reaches zero re-enables the threshold check only on
        the next step.
        """
        u_ce = self.Khat @ x
        triggered = False
        if self.xi == 0:
            if float(np.linalg.norm(u_ce)) > self.config.threshold(k):
                self.xi = self.config.dwell(k)
                u_cb = np.zeros(self.input_dim)
                triggered = True
                active = True
            else:
                u_cb = u_ce
                active = False
        else:
            u_cb = np.zeros(self.input_dim)
            self.xi -= 1
            active = True
        v = draw_probe_noise(stream, self.input_dim, k)
        u_pr = k ** PROBE_EXPONENT * v
        return InputBreakdown(u_ce=u_ce, u_cb=u_cb, u_pr=u_pr, u=u_cb + u_pr,
                              breaker_active=active,
                              breaker_triggered_now=triggered)
