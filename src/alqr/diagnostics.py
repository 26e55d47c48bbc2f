"""Measurement of stabilization and regularity quantities.

When the breaker goes quiet for good, the noise-regularity event and the
state-norm growth ratio are read from one block of a trial's rows (a
TrialRecord) at a time: t_nocb and the ratio take their value over the
blocks before it, and the event holds for a trial if it holds on every
block. simulate passes a finished trial as one block, analyze a log block
by block. When the closed loop becomes jointly contractive reads the gain
history, and log-log slope fits read regret curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_math import RiccatiSolution, stability_margin
from .controller import PROBE_EXPONENT, dwell
from .errors import EmptyWindow, IncompleteLog
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


def detect_t_nocb(block: TrialRecord,
                  before: tuple[int, bool] = (1, False)) -> tuple[int, bool]:
    """First step after all breaker involvement, plus a censored flag,
    through the block and ``before``, the pair over the blocks before it.

    Returns 1 + the last step whose breaker flag shows a trigger or dwell,
    or 1 if the breaker never fired. Censored means the breaker was still
    active at the block's last step, so the true value lies past the log.
    """
    active = np.flatnonzero(block.breaker != 0)
    if active.size == 0:
        return before[0], False
    last_step = block.first_step + int(active[-1])
    return last_step + 1, last_step == block.horizon


def detect_t_stab(record: TrialRecord, oracle: RiccatiSolution,
                  truth: PlantSpec) -> tuple[int, bool]:
    """First step from which both contraction conditions hold onward.

    Step k passes when, in the P* metric with rho = (1 + rho*)/2, both the
    dwell map A^(t_k) and the closed loop A + B Khat_k are rho-contractive,
    where t_k = dwell(k) and Khat_k is the gain in effect at k.
    Returns 1 + the last failing step (1 if none fail) and a censored flag
    set when the final step itself fails. The maps of every dwell span and
    gain segment go through one stacked stability_margin call. Only the
    horizon and gain history are read: a last block with them will do.
    """
    if not record.gain_segments:
        raise IncompleteLog(
            f"trial {record.trial_index}: gain history required")
    T = record.horizon
    A, B = truth.sys.A, truth.sys.B
    rho = 0.5 * (1.0 + oracle.rho_star)

    # (first step, last step, map that must be rho-contractive over them)
    spans = []
    A_pow = np.eye(truth.n)
    for t in range(dwell(T) + 1):
        # dwell(k) = t exactly for e**t <= k < e**(t+1)
        spans.append((math.ceil(math.e ** t), math.ceil(math.e ** (t + 1)) - 1,
                      A_pow))
        A_pow = A_pow @ A
    segments = sorted(record.gain_segments, key=lambda seg: seg[0])
    for idx, (start, K) in enumerate(segments):
        end = segments[idx + 1][0] - 1 if idx + 1 < len(segments) else T
        spans.append((start, end, A + B @ K))

    spans = [(min(end, T), M) for start, end, M in spans
             if start <= min(end, T)]
    margins = stability_margin(np.stack([M for _, M in spans]),
                               oracle.P_star)
    last_bad = max((end for (end, _), margin in zip(spans, margins)
                    if not margin < rho), default=0)
    if last_bad == 0:
        return 1, False
    return last_bad + 1, last_bad == T


def noise_bound(k, n: int, delta: float):
    """Regularity envelope 2 sqrt(n+1) sqrt(log(k/delta))."""
    return 2.0 * math.sqrt(n + 1) * np.sqrt(np.log(np.asarray(k, dtype=float) / delta))


def check_noise_event(block: TrialRecord, truth: PlantSpec,
                      delta: float) -> bool:
    """Whether max(||L^-1 w_k||, ||v_k||) stays under the regularity envelope
    over the block's steps.

    The envelope is built for standard normal draws, so the process noise is
    whitened first by the Cholesky factor L = truth.chol_W of its covariance
    (at W = I the whitened rows equal the logged ones). The probe draws v_k
    are recovered from the logged inputs by undoing the probe scale.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    ks = np.arange(block.first_step, block.horizon + 1, dtype=float)
    bound = noise_bound(ks, block.n, delta)
    # forward substitution L white_k = w_k over the n columns; a NaN row
    # fails the comparison below rather than raising here
    L = truth.chol_W
    white = np.empty_like(block.W)
    for i in range(block.n):
        white[:, i] = (block.W[:, i] - white[:, :i] @ L[i, :i]) / L[i, i]
    w_norms = np.linalg.norm(white, axis=1)
    v_norms = np.linalg.norm(block.U_pr, axis=1) * ks ** -PROBE_EXPONENT
    return bool(np.all(w_norms <= bound) and np.all(v_norms <= bound))


def max_state_norm_ratio(block: TrialRecord, delta: float,
                         before: float = -math.inf) -> float:
    """max_k ||x_k|| / log(k/delta) over the block's steps and ``before``,
    the value over the blocks before it."""
    ks = np.arange(block.first_step, block.horizon + 1, dtype=float)
    denom = np.log(ks / delta)
    return float(np.max(np.linalg.norm(block.X, axis=1) / denom,
                        initial=before))


def compute_trial_diagnostics(
        record: TrialRecord, oracle: RiccatiSolution, truth: PlantSpec,
        delta: float) -> dict:
    """The six scalar diagnostics of a whole trial, keyed by their
    TrialSummary field names."""
    t_nocb, nocb_cens = detect_t_nocb(record)
    t_stab, stab_cens = detect_t_stab(record, oracle, truth)
    return {"t_nocb": t_nocb, "t_nocb_censored": nocb_cens,
            "t_stab": t_stab, "t_stab_censored": stab_cens,
            "noise_event_holds": check_noise_event(record, truth, delta),
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

