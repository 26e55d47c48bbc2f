"""Certainty-equivalence LQR controller with circuit breaking and probing.

Each step the controller proposes the feedback input u_ce = Khat x. A
supervisor (the circuit breaker) passes u_ce through only while its norm
stays under the growing threshold M_k = log(k); a violation zeroes the
feedback for a dwell of t_k = floor(log(k)) further steps. Independent
probing noise u_pr = k^(-1/4) v_k, v_k ~ N(0, I_m), is always added so the
closed loop keeps exciting the estimator. The gain Khat is resynthesized
from the current parameter estimate on a configurable schedule; estimates
that fail the controllability test (or whose Riccati solve fails) fall back
to the zero gain, which is safe because the open loop is stable. The gain
update is a function of a stack of estimates (certainty_equivalent_gains):
run_trials updates every trial of a batch with one call, and
AdaptiveController.update_gain is that call on a stack of one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .control_math import CostWeights, controllability_ranks, solve_dare_stack
# controllability_rank is not called here; perfbench/tracer.py binds the name
from .control_math import controllability_rank
# solve_dare is not called here; perfbench/tracer.py binds the name
from .control_math import solve_dare
from .estimator import EstimatorState, estimates
from .plant import NoiseStream, draw_probe_noise
from .records import BREAKER_CLEAR, BREAKER_DWELL, BREAKER_TRIGGER, feedback

PROBE_EXPONENT = -0.25
SCHEDULES = ("powers-of-two", "every-step")


def threshold(k: int) -> float:
    """Breaker threshold M_k = log k."""
    return math.log(k)


def thresholds(first: int, count: int) -> np.ndarray:
    """threshold(k) for the steps k = first .. first + count - 1, as an array.

    math.log through map, so there is no Python call per step; np.log
    can differ from it in the last bit.
    """
    return np.fromiter(map(math.log, range(first, first + count)), float,
                       count)


def dwell(k: int) -> int:
    """Dwell length t_k after a trigger at step k: the largest t with
    e**t <= k, so floor(log k) made exact next to powers of e."""
    t = math.floor(math.log(k))
    # the float log can land one off next to a power of e
    if math.e ** (t + 1) <= k:
        return t + 1
    return t if math.e ** t <= k else t - 1


def over_threshold(u_ce: np.ndarray, limits) -> np.ndarray:
    """The breaker's threshold test: which proposed inputs trip it.

    ``u_ce`` holds proposed inputs along its last axis, (..., m), and
    ``limits`` their thresholds threshold(k), broadcast against
    u_ce.shape[:-1]. Each norm is the np.vecdot of the input with itself,
    the same dot product np.linalg.norm takes of a 1-D float array. The
    test is strict: a norm equal to its threshold, or a NaN norm, does not
    trip.
    """
    norms = np.sqrt(np.vecdot(u_ce, u_ce))
    return norms > limits


def clean_steps(u_ce: np.ndarray, limits: np.ndarray) -> int:
    """How many leading steps of a block the breaker passes untouched.

    ``u_ce`` is an (N, L, m) block, row r's proposed inputs at L
    consecutive steps, and ``limits`` the (L,) thresholds of those steps.
    With no row dwelling at the first step, breaker run step by step passes
    every row (BREAKER_CLEAR, u_cb = u_ce) until the first step at which
    some row trips; that step's offset is returned, or L when no row trips.
    """
    tripped = over_threshold(u_ce, limits).any(axis=0)
    return int(np.argmax(tripped)) if tripped.any() else len(limits)


def breaker(k: int, u_ce: np.ndarray, xi: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the circuit breaker of every row at step k.

    ``u_ce`` holds one proposed input per row (N, m) and ``xi`` the rows'
    dwell counters (N,). Per row exactly one of three branches runs: dwell
    continuation (decrements the counter, BREAKER_DWELL), threshold trigger
    (over_threshold; sets the counter to dwell(k), BREAKER_TRIGGER), or
    pass-through (BREAKER_CLEAR). A dwell that reaches zero re-enables the
    threshold check only on the next step. Returns the feedback u_cb that
    passes (records.feedback of u_ce and the codes), the (N,) codes and
    the new counters. When no row dwells and none trips, u_cb is u_ce
    itself, so a run of such steps can be taken without the rule and
    checked afterwards with clean_steps (run_trials does).
    """
    tripped = over_threshold(u_ce, threshold(k))
    if not (np.count_nonzero(tripped) or np.count_nonzero(xi)):
        # the usual step: no row dwells and none trips
        return u_ce, np.zeros(len(xi), dtype=np.int8), xi
    dwelling = xi > 0
    tripped &= ~dwelling
    # BREAKER_CLEAR is 0, so each row gets exactly one of the codes
    codes = (BREAKER_TRIGGER * tripped + BREAKER_DWELL * dwelling).astype(
        np.int8)
    return (feedback(u_ce, codes), codes,
            np.where(tripped, dwell(k), xi - dwelling))


def breaker_codes(U_ce: np.ndarray, first: int, xi: int
                  ) -> tuple[np.ndarray, int]:
    """The codes breaker gives one trial's block of steps, and its dwell
    counter after them.

    ``U_ce`` holds the trial's proposed inputs at the steps first ..
    first + L - 1, (L, m), and ``xi`` its dwell counter before the block;
    the block's (L,) int8 codes and the counter after its last step come
    back, the bits of breaker run step by step. One over_threshold call
    tests every step; a trip at a step the dwell leaves free sets
    BREAKER_TRIGGER there and BREAKER_DWELL on the dwell(k) steps after
    it, so the Python work is per trip, not per step.
    """
    codes = np.zeros(len(U_ce), dtype=np.int8)
    trips = np.flatnonzero(
        over_threshold(U_ce, thresholds(first, len(U_ce)))).tolist()
    # the first step the running dwell leaves free
    free = xi
    codes[:free] = BREAKER_DWELL
    j = bisect_left(trips, free)
    while j < len(trips):
        trip = trips[j]
        codes[trip] = BREAKER_TRIGGER
        free = trip + 1 + dwell(first + trip)
        codes[trip + 1:free] = BREAKER_DWELL
        j = bisect_left(trips, free, j)
    return codes, max(free - len(codes), 0)


def certainty_equivalent_gains(Theta: np.ndarray,
                               cost: CostWeights) -> np.ndarray:
    """The certainty-equivalent gains of a stack of estimates.

    ``Theta`` holds (N, n, n+m) estimates [A_hat B_hat]. One stacked SVD
    tests their controllability and one stacked Riccati solve
    (solve_dare_stack) serves the controllable rows. A row whose
    controllability matrix is rank deficient, or whose Riccati solve fails
    (NonConvergence or IllConditioned), gets the zero gain: it is always
    admissible on a stable open loop. Returns the (N, m, n) gains, each
    the same bits as a solve_dare on that estimate alone.
    """
    n = Theta.shape[1]
    A, B = Theta[..., :n], Theta[..., n:]
    gains = np.zeros((len(Theta), B.shape[-1], n))
    rows = np.flatnonzero(controllability_ranks(A, B) == n)
    solves = solve_dare_stack(A[rows], B[rows], cost.Q, cost.R)
    for r, solved in zip(rows, solves):
        if not isinstance(solved, Exception):
            gains[r] = solved[1]
    return gains


@dataclass(frozen=True)
class ControllerConfig:
    """The gain-update schedule.

    The probe exponent, the breaker's natural logarithm and the
    controllability tolerance are part of the algorithm, not knobs.
    """

    gain_update_schedule: str = "powers-of-two"

    def __post_init__(self):
        if self.gain_update_schedule not in SCHEDULES:
            raise ValueError(
                f"gain_update_schedule must be one of {SCHEDULES}, "
                f"got {self.gain_update_schedule!r}")

    def next_update(self, k: int) -> int:
        """First step after step k (k >= 0) at which the schedule fires."""
        if self.gain_update_schedule == "every-step":
            return k + 1
        return 1 << k.bit_length()

    def updates(self, horizon: int) -> int:
        """How many of the steps 1 .. horizon the schedule fires at."""
        if self.gain_update_schedule == "every-step":
            return horizon
        return horizon.bit_length()


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
    """One trial's controller state, advanced one step at a time: cached
    gain, estimator, and the breaker counter that compute_input advances.

    This is the per-step reference form that tests drive. run_trials keeps
    the counters, estimators and gains of a whole batch itself and calls
    breaker, clean_steps and certainty_equivalent_gains on the stacked rows.
    """

    def __init__(self, config: ControllerConfig, state_dim: int,
                 input_dim: int, cost: CostWeights):
        self.config = config
        self.state_dim = state_dim
        self.input_dim = input_dim
        self.cost = cost
        self.xi = 0
        self.Khat = np.zeros((input_dim, state_dim))
        self.estimator = EstimatorState(state_dim, input_dim)

    def update_gain(self, k: int) -> bool:
        """Resynthesize Khat from the current estimate if the schedule fires.

        The estimate replaces the true (A, B) in the Riccati solve; this is
        certainty_equivalent_gains on a stack of one, so a rank-deficient
        controllability matrix or a failed Riccati solve resets the gain to
        zero rather than raising. Returns whether the schedule fired.
        """
        if not (k >= 1 and self.config.next_update(k - 1) == k):
            return False
        Theta, _ = estimates([self.estimator.snapshot()])
        self.Khat = certainty_equivalent_gains(Theta, self.cost)[0]
        return True

    def compute_input(self, k: int, x: np.ndarray,
                      stream: NoiseStream) -> InputBreakdown:
        """Breaker decision and probe draw for step k, one step at a time.

        The breaker is the batch rule ``breaker`` applied to one row, the
        rule run_trial applies to every trial of a batch at once; this
        per-step form is the reference loop the tests drive.
        """
        u_ce = self.Khat @ x
        u_cb, codes, xi = breaker(k, u_ce[None], np.array([self.xi]))
        u_cb, code, self.xi = u_cb[0], int(codes[0]), int(xi[0])
        v = draw_probe_noise(stream, self.input_dim, k)
        u_pr = k ** PROBE_EXPONENT * v
        return InputBreakdown(u_ce=u_ce, u_cb=u_cb, u_pr=u_pr, u=u_cb + u_pr,
                              breaker_active=code != BREAKER_CLEAR,
                              breaker_triggered_now=code == BREAKER_TRIGGER)
