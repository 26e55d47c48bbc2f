"""Measurement of stabilization and regularity quantities.

When the closed loop becomes jointly contractive (t_stab) reads a trial's
gain history; the facts its rows decide (t_nocb, the noise event, the
state-norm ratio) are regret.TrialFold's, and compute_trial_diagnostics
joins the two for a finished trial. noise_bound is the regularity
envelope the fold checks, log-log slope fits read regret curves, and
t_nocb values are binned for the histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control_math import RiccatiSolution, stability_margin
from .controller import dwell
from .errors import EmptyWindow, IncompleteLog
from .plant import NOISE_CHUNK, PlantSpec
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


def detect_t_stab(record: TrialRecord, oracle: RiccatiSolution,
                  truth: PlantSpec) -> tuple[int, bool]:
    """First step from which both contraction conditions hold onward.

    Step k passes when, in the P* metric with rho = (1 + rho*)/2, both the
    dwell map A^(t_k) and the closed loop A + B Khat_k are rho-contractive,
    where t_k = dwell(k) and Khat_k is the gain in effect at k.
    Returns 1 + the last failing step (1 if none fail) and a censored flag
    set when the final step itself fails. The spans, every dwell span and
    then every gain segment, are judged in blocks of at most NOISE_CHUNK,
    one stacked stability_margin call each, and a block's closed loops are
    built as it is judged, so the maps held at once do not grow with the
    gain history. Only the horizon and gain history are read: a last block
    with them will do.
    """
    if not record.gain_segments:
        raise IncompleteLog(
            f"trial {record.trial_index}: gain history required")
    T = record.horizon
    A, B = truth.sys.A, truth.sys.B
    rho = 0.5 * (1.0 + oracle.rho_star)

    # (first step, last step, matrix, whether the matrix is a gain K whose
    # closed loop A + B K must be rho-contractive over the steps, not the
    # matrix itself)
    spans = []
    A_pow = np.eye(truth.n)
    for t in range(dwell(T) + 1):
        spans.append((math.ceil(math.e ** t), math.ceil(math.e ** (t + 1)) - 1,
                      A_pow, False))
        A_pow = A_pow @ A
    segments = sorted(record.gain_segments, key=lambda seg: seg[0])
    for idx, (start, K) in enumerate(segments):
        end = segments[idx + 1][0] - 1 if idx + 1 < len(segments) else T
        spans.append((start, end, K, True))

    spans = [(min(end, T), M, gain) for start, end, M, gain in spans
             if start <= min(end, T)]
    margins = np.concatenate([
        stability_margin(np.stack([A + B @ M if gain else M
                                   for _, M, gain in block]), oracle.P_star)
        for block in (spans[a:a + NOISE_CHUNK]
                      for a in range(0, len(spans), NOISE_CHUNK))])
    last_bad = max((end for (end, _, _), margin in zip(spans, margins)
                    if not margin < rho), default=0)
    if last_bad == 0:
        return 1, False
    return last_bad + 1, last_bad == T


def noise_bound(k, n: int, delta: float):
    """Regularity envelope 2 sqrt(n+1) sqrt(log(k/delta))."""
    return 2.0 * math.sqrt(n + 1) * np.sqrt(np.log(np.asarray(k, dtype=float) / delta))


def compute_trial_diagnostics(fold, record: TrialRecord,
                              trial: int = 0) -> dict:
    """A finished trial's TrialSummary facts: those of trial ``trial`` of
    ``fold``, a regret.TrialFold fed every row of ``record``, and t_stab
    from the record's gain history."""
    t_stab, censored = detect_t_stab(record, fold.oracle, fold.truth)
    return {**fold.facts(trial), "t_stab": t_stab,
            "t_stab_censored": censored}


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

