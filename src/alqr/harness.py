"""Seeded multi-trial experiments and their aggregation.

A trial is a pure function of (config, trial_index): the per-trial seed is
derived by a splitmix64 hash, so trials are independent, reorderable, and
individually replayable. Trials run as lockstep batches (run_trials): one
Python step advances the feedback path of every trial in the batch, and
every stacked product equals its per-trial form bit for bit, so a trial's
outputs do not depend on the batch it ran in; a single trial is a batch of
one. The experiment layer runs the batches, reduces their checkpoint
curves to worst/median/mean statistics, fits log-log slopes, and tallies
breaker-quiescence times. A trial fails at the first step whose state
passes the overflow guard (plant.STATE_NORM_GUARD); failed trials are cut
at that step, counted and reported, never resampled.
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
from .controller import (
    PROBE_EXPONENT,
    AdaptiveController,
    ControllerConfig,
    breaker,
)
from .diagnostics import (
    SlopeEstimate,
    compute_trial_diagnostics,
    fit_regret_slope,
    tnocb_histogram,
)
from .errors import ConfigInvalid, EmptyWindow, GenerationFailed
from .estimator import EstimatorState, estimation_error
# draw_process_noise is not called here; perfbench/tracer.py binds the name
from .plant import (
    NOISE_CHUNK,
    NoiseStream,
    PlantSpec,
    draw_process_noise,
    overflow_failures,
    step,
)
from .records import TrialRecord, save_gain_sidecar, save_trial_csv
from .regret import stage_costs

GENERATOR_RETRY_CAP = 16
# bytes of trial arrays one lockstep batch may hold (at least one trial)
BATCH_BYTES = 192 << 20

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
        # jump past the exponents whose ceiling repeats k (those below
        # log_factor k, less one for the float log's error)
        j = max(j + 1, math.floor(math.log(k) / math.log(factor)) - 1)
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

    A failed trial's record ends with its failure step; its regret curve is
    NaN past that step and its estimation-error curve from it on. The
    record may be dropped (set to None) by the experiment reduction to
    bound memory; the summary and the curves always survive.
    """

    summary: TrialSummary
    record: TrialRecord | None
    rel_avg_regret: np.ndarray
    est_error_sq: np.ndarray


def _feed(estimator: EstimatorState, X: np.ndarray, U_cb: np.ndarray,
          U_pr: np.ndarray, upto: int) -> None:
    """Absorb the pairs of rows estimator.count .. upto-1 of the trial arrays.

    Row i's pair is z = [X[i]; U_cb[i] + U_pr[i]] with successor X[i + 1].
    Blocks are at most one noise chunk long, which bounds the temporaries.
    """
    for a in range(estimator.count, upto, NOISE_CHUNK):
        b = min(a + NOISE_CHUNK, upto)
        estimator.absorb(np.hstack([X[a:b], U_cb[a:b] + U_pr[a:b]]),
                         X[a + 1:b + 1])


def trial_batches(config: ExperimentConfig, workers: int = 1) -> list[range]:
    """Consecutive runs of trial indices, one per lockstep batch.

    A batch holds as many trials as fit in BATCH_BYTES, and at least one.
    The batch count is rounded up to a multiple of ``workers`` (while there
    are trials to fill them), so a pool of that many workers gets an even
    share; batch sizes differ by at most one.
    """
    n, m = config.plant.n, config.plant.m
    # bytes per step: X, U_ce, U_cb, U_pr, W, stage cost, breaker code
    per_trial = (config.horizon + 1) * (8 * (2 * n + 3 * m + 1) + 1)
    count = -(-config.trials // max(1, BATCH_BYTES // per_trial))
    count = min(-(-count // workers) * workers, config.trials)
    bounds = [config.trials * j // count for j in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def run_trial(config: ExperimentConfig, trial_index: int,
              oracle: RiccatiSolution | None = None) -> TrialResult:
    """Run one closed-loop trial; deterministic in (config, trial_index).

    The trial is a lockstep batch of one (see run_trials), so its outputs
    are the same bits as when it runs inside any batch. A state past the
    overflow guard does not raise: the trial comes back cut at that step
    and marked failed.
    """
    if oracle is None:
        oracle = solve_dare(config.plant.sys, config.plant.cost,
                            config.plant.W)
    return run_trials(config, range(trial_index, trial_index + 1), oracle)[0]


def run_trials(config: ExperimentConfig, indices,
               oracle: RiccatiSolution) -> list[TrialResult]:
    """Run the trials ``indices`` in lockstep, one TrialResult each.

    The batch arrays are laid out (N, T(+1), ·), so every trial's slice is
    contiguous and its TrialRecord holds views of them. The horizon is
    walked in chunks of NOISE_CHUNK steps, aligned with the noise stream's
    chunks: per chunk, each trial's process noise L g (L = chol W) and
    probe k^(-1/4) v are built for every step at once. Per step the
    feedback path runs once for the batch on stacked rows: u_ce = Khat x
    with stacked gains, the breaker rule over rows, u = u_cb + u_pr and the
    plant step. Gain updates fire at the same k for every trial and stay
    per trial, and so do the estimator feeds, made from the logged rows
    only when the estimate is read (at gain updates and at the checkpoints,
    where the estimation error is recorded). Every stacked product is the
    per-row one bit for bit, so a trial's outputs do not depend on the
    batch it ran in. The overflow guard (overflow_failures) is checked
    where per-trial work reads states: before a gain update, at a
    checkpoint and at each chunk end. A row past it leaves the live rows
    but keeps stepping, unread; its trial comes back cut at its first
    failing step and marked failed. The batch stops once no row is live.
    """
    spec = config.plant
    n, m = spec.n, spec.m
    T = config.horizon
    N = len(indices)
    seeds = [trial_seed(config.base_seed, i) for i in indices]
    ctrls = [AdaptiveController(config.controller, n, m, spec.cost)
             for _ in indices]
    streams = [NoiseStream(seed=seed, state_dim=n, input_dim=m)
               for seed in seeds]
    L = spec.chol_W

    # T + 1 rows per trial: X[r, k] is the successor of the state at step k
    X = np.empty((N, T + 1, n))
    X[:, 0] = 0.0
    U_ce = np.empty((N, T, m))
    U_cb = np.empty((N, T, m))
    U_pr = np.empty((N, T, m))
    W = np.empty((N, T, n))
    breaker_codes = np.empty((N, T), dtype=np.int8)
    segments = [[] for _ in indices]

    # the batch rows not yet failed; batch row -> (step, message) of its
    # first state past the guard; the steps whose states were checked
    live = list(range(N))
    failures: dict[int, tuple[int, str]] = {}
    checked = 0

    def check(upto: int) -> bool:
        """Guard the live rows' states after steps checked+1 .. upto."""
        nonlocal live, checked
        found = overflow_failures(X[live, checked + 1:upto + 1], checked + 1)
        failures.update((live[j], failure) for j, failure in found.items())
        live = [r for j, r in enumerate(live) if j not in found]
        checked = upto
        return bool(live)

    x = np.zeros((N, n))
    K = np.zeros((N, m, n))
    xi = np.zeros(N, dtype=np.int64)
    next_update = config.controller.next_update(0)

    cps = config.checkpoints()
    est_sq = np.full((N, len(cps)), np.nan)
    # 0 never matches a step: the sentinel after the last checkpoint
    cp_steps = cps.tolist() + [0]
    cp_idx = 0

    for start in range(0, T, NOISE_CHUNK):
        stop = min(start + NOISE_CHUNK, T)
        count = stop - start
        G = np.stack([s.block("w", start + 1, count) for s in streams])
        W[:, start:stop] = (L @ G[..., None])[..., 0]
        scales = np.array([j ** PROBE_EXPONENT
                           for j in range(start + 1, stop + 1)])
        U_pr[:, start:stop] = scales[:, None] * np.stack(
            [s.block("v", start + 1, count) for s in streams])
        for i in range(start, stop):
            k = i + 1
            if k == next_update:
                if not check(i):
                    break
                for r in live:
                    ctrl = ctrls[r]
                    _feed(ctrl.estimator, X[r], U_cb[r], U_pr[r], i)
                    ctrl.update_gain(k)
                    K[r] = ctrl.Khat
                    segments[r].append((k, ctrl.Khat))
                next_update = config.controller.next_update(k)
            u_ce = (K @ x[..., None])[..., 0]
            u_cb, codes, xi = breaker(k, u_ce, xi)
            U_ce[:, i] = u_ce
            U_cb[:, i] = u_cb
            breaker_codes[:, i] = codes
            x = step(x, u_cb + U_pr[:, i], W[:, i], spec)
            X[:, k] = x
            if k == cp_steps[cp_idx]:
                if not check(k):
                    break
                for r in live:
                    estimator = ctrls[r].estimator
                    _feed(estimator, X[r], U_cb[r], U_pr[r], k)
                    err = estimation_error(estimator.estimate(), spec.sys)
                    est_sq[r, cp_idx] = err * err
                cp_idx += 1
        if not (live and check(stop)):
            break

    logs = (X, U_ce, U_cb, U_pr, W, breaker_codes)
    return [_finish(config, oracle, index, seeds[r], failures.get(r),
                    [a[r] for a in logs], segments[r], est_sq[r])
            for r, index in enumerate(indices)]


def _finish(config: ExperimentConfig, oracle: RiccatiSolution,
            trial_index: int, seed: int, failure: tuple[int, str] | None,
            logs: list[np.ndarray], segments: list,
            est_sq: np.ndarray) -> TrialResult:
    """One trial's record, curves and summary from its rows of the batch.

    ``failure`` is the (step, message) of the first state past the overflow
    guard, or None. ``logs`` are the trial's X, U_ce, U_cb, U_pr, W and
    breaker arrays, cut here, as views, to the failure step or the horizon;
    a trial that ran to the horizon keeps X[T] as ``x_final``.
    """
    spec = config.plant
    T = config.horizon
    failed = failure is not None
    end, failure_reason = failure if failed else (T, "")
    x_final = None if failed else logs[0][T]
    X, U_ce, U_cb, U_pr, W, breaker_codes = (a[:end] for a in logs)
    stage = stage_costs(X, U_cb + U_pr, spec.cost)
    record = TrialRecord(
        trial_index=trial_index, seed=seed, X=X, U_ce=U_ce, U_cb=U_cb,
        U_pr=U_pr, W=W, breaker=breaker_codes, stage_cost=stage,
        x_final=x_final, gain_segments=segments)

    cps = config.checkpoints()
    usable = cps <= end
    cum = np.cumsum(stage)
    rel = np.full(len(cps), np.nan)
    c = cps[usable]
    rel[usable] = (cum[c - 1] - c * oracle.J_star) / (c * oracle.J_star)

    facts = {}
    if not failed:
        facts = compute_trial_diagnostics(record, oracle, spec, config.delta)
        # np.sum, not cum[-1]: the two differ in the last bits
        facts["final_regret"] = float(np.sum(stage)) - T * oracle.J_star
        facts["final_rel_avg_regret"] = float(rel[-1])
    summary = TrialSummary(
        trial_index=trial_index, seed=seed, failed=failed,
        failure_step=end if failed else None,
        failure_reason=failure_reason, **facts)
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


def _batch_task(config: ExperimentConfig, indices: range,
                log_dir: str | None,
                oracle: RiccatiSolution) -> list[TrialResult]:
    """Worker body: run one batch, write its logs when asked, slim them."""
    results = run_trials(config, indices, oracle)
    for result in results:
        if log_dir is not None:
            base = os.path.join(log_dir,
                                f"trial_{result.summary.trial_index}")
            save_trial_csv(result.record, base + ".csv")
            save_gain_sidecar(result.record, base + "_gains.json")
        result.record = None
    return results


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

    Trials run in lockstep batches (trial_batches), serially or in a
    process pool; results are merged by trial index, and a trial's outputs
    do not depend on its batch, so the summary never depends on
    scheduling. When ``log_dir`` is given, each trial's record is written
    there as ``trial_<i>.csv`` and ``trial_<i>_gains.json`` by the worker
    that produced it; records are dropped before aggregation.
    """
    oracle = solve_dare(config.plant.sys, config.plant.cost, config.plant.W)
    n_workers = resolve_workers(workers)
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
    batches = trial_batches(config, n_workers)
    if n_workers == 1 or len(batches) == 1:
        done = [_batch_task(config, b, log_dir, oracle) for b in batches]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            done = list(pool.map(
                _batch_task, [config] * len(batches), batches,
                [log_dir] * len(batches), [oracle] * len(batches)))
    results = [result for batch in done for result in batch]

    cps = config.checkpoints()
    rel_curves = np.vstack([r.rel_avg_regret for r in results])
    est_sq_curves = np.vstack([r.est_error_sq for r in results])
    completed = ~np.array([r.summary.failed for r in results])
    if completed.any():
        ok = rel_curves[completed]
        worst = np.max(ok, axis=0)
        median = np.median(ok, axis=0)
        mean = np.mean(ok, axis=0)
        est_sq_median = np.median(est_sq_curves[completed], axis=0)
        mean_curve = list(zip(cps.tolist(), mean.tolist()))
        median_curve = list(zip(cps.tolist(), median.tolist()))
        worst_curve = list(zip(cps.tolist(), worst.tolist()))
    else:
        worst = np.full(len(cps), np.nan)
        median = np.full(len(cps), np.nan)
        mean = np.full(len(cps), np.nan)
        est_sq_median = np.full(len(cps), np.nan)
        mean_curve = median_curve = worst_curve = []

    window = default_slope_window(config.horizon)

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
