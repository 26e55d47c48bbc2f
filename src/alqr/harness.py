"""Seeded multi-trial experiments and their aggregation.

A trial is a pure function of (config, trial_index): the per-trial seed is
derived by a splitmix64 hash, so trials are independent, reorderable, and
individually replayable. The experiment layer runs many trials, reduces
their checkpoint curves to worst/median/mean statistics, fits log-log
slopes, and tallies breaker-quiescence times. Failed (diverged) trials are
counted and reported, never resampled.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .control_math import (
    CostWeights,
    RiccatiSolution,
    SystemMatrices,
    controllability_rank,
    solve_dare,
    spectral_radius,
)
from .controller import AdaptiveController, ControllerConfig
from .diagnostics import (
    SlopeEstimate,
    compute_trial_diagnostics,
    fit_regret_slope,
    tnocb_histogram,
)
from .errors import ConfigInvalid, DivergedState, EmptyWindow, GenerationFailed
from .estimator import estimation_error
from .plant import NoiseStream, PlantSpec, draw_process_noise, step
from .records import (
    BREAKER_CLEAR,
    BREAKER_DWELL,
    BREAKER_TRIGGER,
    TrialRecord,
    save_gain_sidecar,
    save_trial_csv,
)
from .regret import stage_costs

GENERATOR_RETRY_CAP = 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial stream seed: splitmix64 of the index-offset base seed."""
    z = (base_seed + (trial_index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def checkpoint_steps(horizon: int, factor: float = 1.2) -> np.ndarray:
    """Geometric checkpoint grid, padded with decades and the horizon.

    The geometric points ceil(factor^j) sample log-log curves evenly; the
    decade points keep round steps like 10^3 and 10^4 exactly on the grid
    so cross-run comparisons line up.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not factor > 1.0:
        raise ValueError(f"checkpoint factor must exceed 1, got {factor}")
    points = {horizon}
    j = 0
    while True:
        k = math.ceil(factor ** j)
        if k > horizon:
            break
        points.add(k)
        j += 1
    decade = 10
    while decade <= horizon:
        points.add(decade)
        decade *= 10
    return np.array(sorted(points), dtype=np.int64)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a multi-trial run depends on.

    The plant is always a fully resolved PlantSpec here; turning a random
    generator description into matrices happens upstream so this object
    stays a complete replay key.
    """

    plant: PlantSpec
    horizon: int
    trials: int
    base_seed: int
    checkpoint_factor: float = 1.2
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    delta: float = 0.05

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.checkpoint_factor > 1.0:
            raise ValueError(
                f"checkpoint factor must exceed 1, got {self.checkpoint_factor}")
        if not 0.0 < self.delta <= 0.5:
            raise ValueError(f"delta must be in (0, 1/2], got {self.delta}")

    def checkpoints(self) -> np.ndarray:
        return checkpoint_steps(self.horizon, self.checkpoint_factor)


@dataclass(frozen=True)
class TrialSummary:
    """Scalar per-trial facts kept after the bulky log is dropped.

    A failed (diverged) trial sets only the first five fields; the rest
    stay None. ``final_regret`` is the total stage cost minus T J*.
    t_nocb: first step from which the breaker never interferes again
    (1 when it never fired at all). t_stab: first step from which both
    contraction conditions hold for every later logged step. Censored
    flags mark values that ran into the end of the log, where the defining
    "for all later k" clause could not be observed.
    """

    trial_index: int
    seed: int
    failed: bool
    failure_step: int | None
    failure_reason: str
    final_regret: float | None = None
    final_rel_avg_regret: float | None = None
    t_nocb: int | None = None
    t_nocb_censored: bool | None = None
    t_stab: int | None = None
    t_stab_censored: bool | None = None
    noise_event_holds: bool | None = None
    max_state_norm_ratio: float | None = None


@dataclass
class TrialResult:
    """One trial's outputs: its summary, the raw log and checkpoint curves.

    On a diverged trial the record's arrays are truncated to the steps that
    completed and the curves are NaN past them. The record may be dropped
    (set to None) by the experiment reduction to bound memory; the summary
    and the curves always survive.
    """

    summary: TrialSummary
    record: TrialRecord | None
    rel_avg_regret: np.ndarray
    est_error_sq: np.ndarray


def run_trial(config: ExperimentConfig, trial_index: int,
              oracle: RiccatiSolution | None = None) -> TrialResult:
    """Run one closed-loop trial; deterministic in (config, trial_index).

    The per-step order is: gain update (when the schedule fires), input
    computation, plant step, estimator update. Regret and estimation error
    are recorded at the checkpoint grid. A DivergedState does not abort the
    experiment: the trial comes back truncated and marked failed.
    """
    spec = config.plant
    n, m = spec.n, spec.m
    T = config.horizon
    if oracle is None:
        oracle = solve_dare(spec.sys, spec.cost, spec.W)
    seed = trial_seed(config.base_seed, trial_index)

    ctrl = AdaptiveController(config.controller, n, m, spec.cost)
    stream = NoiseStream(seed=seed, state_dim=n, input_dim=m)
    x = np.zeros(n)

    X = np.empty((T, n))
    U_ce = np.empty((T, m))
    U_cb = np.empty((T, m))
    U_pr = np.empty((T, m))
    W = np.empty((T, n))
    breaker = np.empty(T, dtype=np.int8)
    segments = [(1, ctrl.Khat.copy())]

    cps = config.checkpoints()
    est_sq = np.full(len(cps), np.nan)
    cp_idx = 0

    failure_step = None
    failure_reason = ""
    for k in range(1, T + 1):
        if ctrl.update_gain(k):
            if segments[-1][0] == k:
                segments[-1] = (k, ctrl.Khat.copy())
            else:
                segments.append((k, ctrl.Khat.copy()))
        out = ctrl.compute_input(k, x, stream)
        w = draw_process_noise(stream, spec, k)
        i = k - 1
        X[i] = x
        U_ce[i] = out.u_ce
        U_cb[i] = out.u_cb
        U_pr[i] = out.u_pr
        W[i] = w
        breaker[i] = (BREAKER_TRIGGER if out.breaker_triggered_now
                      else BREAKER_DWELL if out.breaker_active
                      else BREAKER_CLEAR)
        z = np.concatenate([x, out.u])
        try:
            x = step(x, out.u, w, spec, k)
        except DivergedState as exc:
            failure_step = k
            failure_reason = str(exc)
            break
        ctrl.estimator.absorb(z, x)
        if cp_idx < len(cps) and k == cps[cp_idx]:
            err = estimation_error(ctrl.estimator.estimate(), spec.sys)
            est_sq[cp_idx] = err * err
            cp_idx += 1

    # k is the last step run, whether it completed or diverged
    failed = failure_step is not None
    sl = slice(0, k)
    X, U_ce, U_cb, U_pr, W, breaker = (
        X[sl], U_ce[sl], U_cb[sl], U_pr[sl], W[sl], breaker[sl])
    stage = stage_costs(X, U_cb + U_pr, spec.cost)
    record = TrialRecord(
        trial_index=trial_index, seed=seed, X=X, U_ce=U_ce, U_cb=U_cb,
        U_pr=U_pr, W=W, breaker=breaker, stage_cost=stage,
        x_final=None if failed else x, gain_segments=segments)

    usable = cps <= k
    cum = np.cumsum(stage)
    rel = np.full(len(cps), np.nan)
    c = cps[usable]
    rel[usable] = (cum[c - 1] - c * oracle.J_star) / (c * oracle.J_star)

    facts = {}
    if not failed:
        facts = compute_trial_diagnostics(
            record, oracle, spec, config.delta,
            log_base=config.controller.log_base)
        # np.sum, not cum[-1]: the two differ in the last bits
        facts["final_regret"] = float(np.sum(stage)) - T * oracle.J_star
        facts["final_rel_avg_regret"] = float(rel[-1])
    summary = TrialSummary(
        trial_index=trial_index, seed=seed, failed=failed,
        failure_step=failure_step, failure_reason=failure_reason, **facts)
    return TrialResult(summary=summary, record=record, rel_avg_regret=rel,
                       est_error_sq=est_sq)


def _slope_dict(est: SlopeEstimate | None) -> dict | None:
    return None if est is None else asdict(est)


@dataclass
class ExperimentSummary:
    """Aggregated experiment outputs.

    worst/median/mean are per-checkpoint statistics of the relative
    average regret across completed trials; rel_curves and est_sq_curves
    keep the full per-trial curves (failed trials carry NaN past their
    failure point). Slope fits may be None when no window held two usable
    points.
    """

    checkpoints: np.ndarray
    worst: np.ndarray
    median: np.ndarray
    mean: np.ndarray
    rel_curves: np.ndarray
    est_sq_curves: np.ndarray
    est_sq_median: np.ndarray
    slope_mean: SlopeEstimate | None
    slope_median: SlopeEstimate | None
    slope_worst: SlopeEstimate | None
    slope_window: tuple[float, float]
    tnocb_edges: list[float]
    tnocb_counts: list[int]
    trial_summaries: list[TrialSummary]
    failed_count: int
    noise_event_fraction: float
    j_star: float
    rho_star: float

    def to_dict(self) -> dict:
        """JSON-ready form; curves live in curves.csv, not here."""
        return {
            "j_star": self.j_star,
            "rho_star": self.rho_star,
            "trials": len(self.trial_summaries),
            "failed_trials": self.failed_count,
            "noise_event_fraction": self.noise_event_fraction,
            "final_worst": float(self.worst[-1]),
            "final_median": float(self.median[-1]),
            "final_mean": float(self.mean[-1]),
            "slope_window": list(self.slope_window),
            "slopes": {
                "mean": _slope_dict(self.slope_mean),
                "median": _slope_dict(self.slope_median),
                "worst": _slope_dict(self.slope_worst),
            },
            "tnocb_hist": {"edges": self.tnocb_edges,
                           "counts": self.tnocb_counts},
            "trial_summaries": [asdict(t) for t in self.trial_summaries],
        }


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: requested (or cpu count), capped by ALQR_THREADS."""
    count = requested if requested is not None else (os.cpu_count() or 1)
    cap = os.environ.get("ALQR_THREADS", "").strip()
    if cap:
        try:
            count = min(count, int(cap))
        except ValueError:
            raise ConfigInvalid(f"must be an integer, got {cap!r}",
                                path="ALQR_THREADS") from None
    return max(1, count)


def _trial_task(config: ExperimentConfig, trial_index: int,
                log_dir: str | None) -> TrialResult:
    """Worker body: run one trial, write its log when asked, slim it."""
    result = run_trial(config, trial_index)
    if log_dir is not None:
        base = os.path.join(log_dir, f"trial_{trial_index}")
        save_trial_csv(result.record, base + ".csv")
        save_gain_sidecar(result.record, base + "_gains.json")
    result.record = None
    return result


def _fit_or_none(curve, window) -> SlopeEstimate | None:
    try:
        return fit_regret_slope(curve, window)
    except EmptyWindow:
        return None


def default_slope_window(horizon: int) -> tuple[float, float]:
    # a decade of lead-in is skipped when the horizon affords it, up to
    # the conventional 10^3 left edge used on long runs
    return (float(min(1000, max(1, horizon // 10))), float(horizon))


def run_experiment(config: ExperimentConfig, log_dir: str | None = None,
                   workers: int | None = None) -> ExperimentSummary:
    """Run all trials and reduce them to an ExperimentSummary.

    Trials execute serially or in a process pool; results are merged by
    trial index so the summary never depends on scheduling. When
    ``log_dir`` is given, each trial's record is written there as
    ``trial_<i>.csv`` and ``trial_<i>_gains.json`` by the worker that
    produced it; records are dropped before aggregation.
    """
    oracle = solve_dare(config.plant.sys, config.plant.cost, config.plant.W)
    n_workers = resolve_workers(workers)
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
    indices = range(config.trials)
    if n_workers == 1 or config.trials == 1:
        results = [_trial_task(config, i, log_dir) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(
                _trial_task, [config] * config.trials, indices,
                [log_dir] * config.trials, chunksize=1))

    cps = config.checkpoints()
    rel_curves = np.vstack([r.rel_avg_regret for r in results])
    est_sq_curves = np.vstack([r.est_error_sq for r in results])
    completed = ~np.array([r.summary.failed for r in results])
    if not completed.any():
        worst = np.full(len(cps), np.nan)
        median = np.full(len(cps), np.nan)
        mean = np.full(len(cps), np.nan)
        est_sq_median = np.full(len(cps), np.nan)
    else:
        ok = rel_curves[completed]
        worst = np.max(ok, axis=0)
        median = np.median(ok, axis=0)
        mean = np.mean(ok, axis=0)
        est_sq_median = np.median(est_sq_curves[completed], axis=0)

    window = default_slope_window(config.horizon)
    if completed.any():
        mean_curve = list(zip(cps.tolist(), mean.tolist()))
        median_curve = list(zip(cps.tolist(), median.tolist()))
        worst_curve = list(zip(cps.tolist(), worst.tolist()))
    else:
        mean_curve = median_curve = worst_curve = []

    summaries = [r.summary for r in results]
    tnocb_values = [s.t_nocb for s in summaries if s.t_nocb is not None]
    edges, counts = tnocb_histogram(tnocb_values, config.horizon)
    noise_flags = [s.noise_event_holds for s in summaries
                   if s.noise_event_holds is not None]
    noise_fraction = (float(np.mean(noise_flags)) if noise_flags else 0.0)

    return ExperimentSummary(
        checkpoints=cps, worst=worst, median=median, mean=mean,
        rel_curves=rel_curves, est_sq_curves=est_sq_curves,
        est_sq_median=est_sq_median,
        slope_mean=_fit_or_none(mean_curve, window),
        slope_median=_fit_or_none(median_curve, window),
        slope_worst=_fit_or_none(worst_curve, window),
        slope_window=window, tnocb_edges=edges, tnocb_counts=counts,
        trial_summaries=summaries,
        failed_count=int(np.sum(~completed)),
        noise_event_fraction=noise_fraction,
        j_star=oracle.J_star, rho_star=oracle.rho_star)


def generate_stand_in_plant(n: int, m: int, target_rho: float,
                            seed: int) -> PlantSpec:
    """Random stable plant with unit weights, deterministic in the seed.

    A dense Gaussian A is rescaled to the requested spectral radius and
    paired with a Gaussian B; W = Q = I_n and R = I_m. Draws failing the
    controllability check are redrawn from an incremented seed, a bounded
    number of times.
    """
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be >= 1, got n={n}, m={m}")
    if not 0.0 < target_rho < 1.0:
        raise ValueError(f"target_rho must be in (0, 1), got {target_rho}")
    for attempt in range(GENERATOR_RETRY_CAP):
        rng = np.random.default_rng(seed + attempt)
        A = rng.standard_normal((n, n))
        radius = spectral_radius(A)
        if radius <= 0.0:
            continue
        A = A * (target_rho / radius)
        B = rng.standard_normal((n, m))
        sys = SystemMatrices(A=A, B=B)
        if controllability_rank(sys) == n:
            return PlantSpec(sys=sys, W=np.eye(n),
                             cost=CostWeights(Q=np.eye(n), R=np.eye(m)))
    raise GenerationFailed(
        f"no controllable (A, B) pair in {GENERATOR_RETRY_CAP} draws "
        f"for n={n}, m={m}, target_rho={target_rho}, seed={seed}")
