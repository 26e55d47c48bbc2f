"""Post-hoc measurement of stabilization and regularity quantities.

Everything here is a read-only scan over a completed TrialRecord: the two
random times (when the closed loop becomes jointly contractive, and when the
breaker goes quiet for good), the noise-regularity event, the state-norm
growth ratio, and log-log slope fits of regret curves. Detectors never run
during simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_math import RiccatiSolution, stability_margin
from .controller import ControllerConfig
from .errors import EmptyWindow, IncompleteLog
from .estimator import EstimatorState, estimation_error
from .plant import PlantSpec
from .records import TrialRecord


@dataclass(frozen=True)
class SlopeEstimate:
    """Least-squares line through (log T, log value) over a window."""

    slope: float
    intercept: float
    window: tuple[float, float]
    r_squared: float
    points_used: int
    excluded_nonpositive: int


def detect_t_nocb(record: TrialRecord) -> tuple[int, bool]:
    """First step after all breaker involvement, plus a censored flag.

    Returns 1 + the last step whose breaker flag shows a trigger or dwell,
    or 1 if the breaker never fired. Censored means the breaker was still
    active at the final logged step, so the true value lies past the log.
    """
    active = np.flatnonzero(record.breaker != 0)
    if active.size == 0:
        return 1, False
    last_step = int(active[-1]) + 1
    return last_step + 1, last_step == record.horizon


def detect_t_stab(record: TrialRecord, oracle: RiccatiSolution,
                  truth: PlantSpec,
                  controller: ControllerConfig = ControllerConfig()
                  ) -> tuple[int, bool]:
    """First step from which both contraction conditions hold onward.

    Step k passes when, in the P* metric with rho = (1 + rho*)/2, both the
    dwell map A^(t_k) and the closed loop A + B Khat_k are rho-contractive,
    where t_k = controller.dwell(k) and Khat_k is the gain in effect at k.
    Returns 1 + the last failing step (1 if none fail) and a censored flag
    set when the final step itself fails.
    """
    if not record.gain_segments:
        raise IncompleteLog(
            f"trial {record.trial_index}: gain history required")
    T = record.horizon
    A, B, P = truth.sys.A, truth.sys.B, oracle.P_star
    rho = 0.5 * (1.0 + oracle.rho_star)
    base = controller.log_base

    # (first step, last step, map that must be rho-contractive over them)
    spans = []
    A_pow = np.eye(truth.n)
    for t in range(controller.dwell(T) + 1):
        # dwell(k) = t exactly for base**t <= k < base**(t+1)
        spans.append((math.ceil(base ** t), math.ceil(base ** (t + 1)) - 1,
                      A_pow))
        A_pow = A_pow @ A
    segments = sorted(record.gain_segments, key=lambda seg: seg[0])
    for idx, (start, K) in enumerate(segments):
        end = segments[idx + 1][0] - 1 if idx + 1 < len(segments) else T
        spans.append((start, end, A + B @ K))

    last_bad = 0
    for start, end, M in spans:
        end = min(end, T)
        if start <= end and not stability_margin(M, P) < rho:
            last_bad = max(last_bad, end)
    if last_bad == 0:
        return 1, False
    return last_bad + 1, last_bad == T


def noise_bound(k, n: int, delta: float):
    """Regularity envelope 2 sqrt(n+1) sqrt(log(k/delta))."""
    return 2.0 * math.sqrt(n + 1) * np.sqrt(np.log(np.asarray(k, dtype=float) / delta))


def check_noise_event(record: TrialRecord, delta: float) -> bool:
    """Whether max(||w_k||, ||v_k||) stays under the regularity envelope.

    The probe draws v_k are recovered from the logged inputs by undoing the
    k^(-1/4) scaling.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    T = record.horizon
    ks = np.arange(1, T + 1, dtype=float)
    bound = noise_bound(ks, record.n, delta)
    w_norms = np.linalg.norm(record.W, axis=1)
    v_norms = np.linalg.norm(record.U_pr, axis=1) * ks ** 0.25
    return bool(np.all(w_norms <= bound) and np.all(v_norms <= bound))


def max_state_norm_ratio(record: TrialRecord, delta: float) -> float:
    """max_k ||x_k|| / log(k/delta) over the logged trajectory."""
    ks = np.arange(1, record.horizon + 1, dtype=float)
    denom = np.log(ks / delta)
    return float(np.max(np.linalg.norm(record.X, axis=1) / denom))


def compute_trial_diagnostics(
        record: TrialRecord, oracle: RiccatiSolution, truth: PlantSpec,
        delta: float, controller: ControllerConfig = ControllerConfig()
) -> dict:
    """The six scalar diagnostics, keyed by their TrialSummary field names."""
    t_nocb, nocb_cens = detect_t_nocb(record)
    t_stab, stab_cens = detect_t_stab(record, oracle, truth, controller)
    return {"t_nocb": t_nocb, "t_nocb_censored": nocb_cens,
            "t_stab": t_stab, "t_stab_censored": stab_cens,
            "noise_event_holds": check_noise_event(record, delta),
            "max_state_norm_ratio": max_state_norm_ratio(record, delta)}


def fit_regret_slope(curve, window) -> SlopeEstimate:
    """Least-squares slope of log(value) against log(T) over a window.

    ``curve`` is a sequence of (T, value) pairs; points outside the window
    or with value <= 0 are dropped (the latter are counted, since negative
    regret is legitimate on lucky noise). Raises EmptyWindow when fewer
    than two usable points remain.
    """
    lo, hi = window
    if not lo <= hi:
        raise ValueError(f"window reversed: {window}")
    xs, ys = [], []
    excluded = 0
    for T, value in curve:
        if not lo <= T <= hi:
            continue
        if value <= 0.0:
            excluded += 1
            continue
        xs.append(math.log(T))
        ys.append(math.log(value))
    if len(xs) < 2:
        raise EmptyWindow(
            f"window [{lo}, {hi}] holds {len(xs)} usable points "
            f"({excluded} nonpositive excluded)")
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * np.asarray(xs) + intercept
    ss_res = float(np.sum((np.asarray(ys) - fitted) ** 2))
    ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    r_squared = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return SlopeEstimate(slope=float(slope), intercept=float(intercept),
                         window=(float(lo), float(hi)),
                         r_squared=r_squared, points_used=len(xs),
                         excluded_nonpositive=excluded)


def tnocb_histogram(values, horizon: int) -> tuple[list[float], list[int]]:
    """Counts of t_nocb values in power-of-two bins spanning [1, horizon+1].

    Bin j covers [2^j, 2^(j+1)); the top edge always clears horizon+1 so a
    censored value (horizon+1) lands in the last bin.
    """
    top = 1
    while (1 << top) <= horizon + 1:
        top += 1
    edges = [float(1 << j) for j in range(top + 1)]
    counts, _ = np.histogram(np.asarray(values, dtype=float), bins=edges)
    return edges, [int(c) for c in counts]


# --- verbose monitors: direct scans of the concentration events ---------


def check_cov_event(record: TrialRecord, delta: float,
                    at_steps=None) -> bool:
    """Empirical covariance concentration scan.

    Checks ||sum_{i<=k} (w_i w_i' - I)|| <= 7 n sqrt(k) log(8 n^2 k / delta)
    at the given steps (default: every step). The record does not carry W,
    so the scan assumes W = I: the sum is centered on the identity and the
    constant is calibrated for it.
    """
    n = record.n
    if not 0.0 < delta <= 1.0 / (8 * n * n):
        raise ValueError(f"delta must be in (0, 1/(8 n^2)], got {delta}")
    T = record.horizon
    steps = range(1, T + 1) if at_steps is None else sorted(at_steps)
    W_cov = np.eye(n)
    running = np.zeros((n, n))
    prev = 0
    for k in steps:
        if not 1 <= k <= T:
            raise ValueError(f"step {k} outside 1..{T}")
        block = record.W[prev:k]
        running += block.T @ block - (k - prev) * W_cov
        prev = k
        bound = 7.0 * n * math.sqrt(k) * math.log(8 * n * n * k / delta)
        if np.linalg.norm(running, 2) > bound:
            return False
    return True


def check_cross_event(record: TrialRecord, oracle: RiccatiSolution,
                      truth: PlantSpec, delta: float) -> bool:
    """Noise/state cross-term concentration scan.

    Checks |sum_{i<=k} w_i' P* (A x_i + B u_cb_i)| against
    C_cross sqrt(k) log(k/delta)^2 at every step, with
    C_cross = 4 sqrt(n+1) ||P*|| (||A|| C_x + ||B||) and C_x the state-norm
    envelope constant built from the open-loop certificate.
    """
    if not 0.0 < delta <= 1.0 / 6.0:
        raise ValueError(f"delta must be in (0, 1/6], got {delta}")
    from .control_math import solve_discrete_lyapunov  # local to avoid cycle
    A, B, P = truth.sys.A, truth.sys.B, oracle.P_star
    cert = solve_discrete_lyapunov(A, truth.cost.Q)
    n = record.n
    C_x = ((np.linalg.norm(B, 2) + 1.0) * (2.0 * math.sqrt(n + 1) + 1.0)
           * np.linalg.norm(cert.P0, 2) * np.linalg.norm(np.linalg.inv(cert.P0), 2)
           / (1.0 - cert.rho0 ** 0.5))
    C_cross = (4.0 * math.sqrt(n + 1) * np.linalg.norm(P, 2)
               * (np.linalg.norm(A, 2) * C_x + np.linalg.norm(B, 2)))
    closed = record.X @ A.T + record.U_cb @ B.T
    terms = np.einsum("ij,jl,il->i", record.W, P, closed)
    partial = np.abs(np.cumsum(terms))
    ks = np.arange(1, record.horizon + 1, dtype=float)
    bound = C_cross * np.sqrt(ks) * np.log(ks / delta) ** 2
    return bool(np.all(partial <= bound))


def check_est_event(record: TrialRecord, truth: PlantSpec, delta: float,
                    at_steps) -> tuple[bool, int]:
    """Estimation-error concentration scan at selected steps.

    Replays the log's (z, x_next) pairs and checks
    ||Theta_hat_k - Theta||^2 <= C_Theta k^(-1/2) log(k/delta) at each
    requested step at or past the burn-in k0. Returns (holds, checked)
    where checked counts the steps past burn-in; the event is vacuously
    true when none qualify.
    """
    n, m = record.n, record.m
    C_theta = (3200.0 * n / 9.0) * (2.5 * n + 2.0)
    k0 = math.ceil(600.0 * (m + n) * math.log(1.0 / delta) + 5400.0)
    T = record.horizon
    U = record.U_cb + record.U_pr
    est = EstimatorState(n, m)
    prev = 0
    checked = 0
    for k in sorted(at_steps):
        if not 1 <= k <= T:
            raise ValueError(f"step {k} outside 1..{T}")
        for i in range(prev, k):
            est.absorb(np.concatenate([record.X[i], U[i]]),
                       record.state_after(i + 1))
        prev = k
        if k < k0:
            continue
        checked += 1
        err = estimation_error(est.estimate(), truth.sys)
        if err ** 2 > C_theta * k ** -0.5 * math.log(k / delta):
            return False, checked
    return True, checked
