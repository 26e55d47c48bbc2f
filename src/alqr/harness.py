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
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import repeat

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
    ControllerConfig,
    breaker,
    certainty_equivalent_gains,
    clean_steps,
    thresholds,
)
from .diagnostics import (
    SlopeEstimate,
    compute_trial_diagnostics,
    fit_regret_slope,
    tnocb_histogram,
)
from .errors import ConfigInvalid, EmptyWindow, GenerationFailed
from .estimator import EstimatorState, estimates, estimation_error
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
from .regret import TrialFold, stage_costs

GENERATOR_RETRY_CAP = 16
# bytes of trial arrays one lockstep batch may hold (at least one trial)
BATCH_BYTES = 192 << 20
# longest clean run run_trials takes before it checks the breaker (a run
# also ends at the next gain update or chunk end): steps past a trip are
# taken and discarded, and a short cap keeps them few and keeps a
# destabilizing gain from growing the state far before the rewind
CLEAN_SPAN_CAP = 64

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
    if not 1.0 < factor < math.inf:
        raise ValueError(
            f"checkpoint factor must be finite and exceed 1, got {factor}")
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
        if not 1.0 < self.checkpoint_factor < math.inf:
            raise ValueError("checkpoint factor must be finite and exceed 1, "
                             f"got {self.checkpoint_factor}")
        if not 0.0 < self.delta <= 0.5:
            raise ValueError(f"delta must be in (0, 1/2], got {self.delta}")

    def checkpoints(self) -> np.ndarray:
        return checkpoint_steps(self.horizon, self.checkpoint_factor)


@dataclass(frozen=True)
class TrialSummary:
    """Scalar per-trial facts kept after the bulky log is dropped.

    A failed (diverged) trial sets only the first five fields; the rest
    stay None. t_stab comes from detect_t_stab, the rest from
    regret.TrialFold.facts: the lines analyze derives them with too.
    ``final_regret`` is the regret curve's last value: the cumulative stage
    cost at T minus T J*, the same float regret.decompose_at reports for
    step T.
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


def trial_bytes(horizon: int, n: int, m: int, snapshots: int = 0) -> int:
    """Bytes of one trial's arrays in a batch: per step X, U_ce, U_cb,
    U_pr, W, the stage cost and the breaker code, plus its rows of the
    clean-run buffers (u_ce and x for up to CLEAN_SPAN_CAP steps) and
    ``snapshots`` estimator snapshots held at once. A snapshot counts its
    V and S with their share of the stacked estimate: the peak resident
    memory (VmHWM) of one run_trials batch at T = 10 000 grew by 2350,
    11 040 and 41 960 bytes per snapshot on 3x2, 8x4 and 16x8 (4096
    snapshots per trial against 6; numpy 2.4, x86-64), d = n + m."""
    d = n + m
    return ((horizon + 1) * (8 * (2 * n + 3 * m + 1) + 1)
            + 8 * (n + m) * min(CLEAN_SPAN_CAP, horizon)
            + (44 * (d * d + n * d) + 640) * snapshots)


def trial_budget(config: ExperimentConfig) -> int:
    """Bytes one trial takes in a run_trials batch: trial_bytes with the
    most estimator snapshots it holds at a stop, one for each checkpoint
    since the last stop and one at the stop.

    Checkpoint c is measured at the first stop at or after it: the step
    before the first gain update after c, or the end of c's noise chunk.
    """
    stops = Counter(
        min(config.controller.next_update(c) - 1,
            -(-c // NOISE_CHUNK) * NOISE_CHUNK, config.horizon)
        for c in config.checkpoints().tolist())
    return trial_bytes(config.horizon, config.plant.n, config.plant.m,
                       max(stops.values()) + 1)


def trial_batches(config: ExperimentConfig, workers: int = 1) -> list[range]:
    """Consecutive runs of trial indices, one per lockstep batch.

    A batch holds as many trials as fit in BATCH_BYTES, trial_budget
    each, and at least one. The batch count is rounded up to a multiple
    of ``workers`` (while there are trials to fill them), so a pool of
    that many workers gets an even share; batch sizes differ by at most
    one.
    """
    count = -(-config.trials // max(1, BATCH_BYTES // trial_budget(config)))
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
    chunks: per chunk, each trial's process noise L g (L = chol W), probe
    k^(-1/4) v and breaker threshold are built for every step at once. Per
    step the feedback path runs once for the batch on stacked rows:
    u_ce = Khat x with stacked gains, u_cb from the breaker rule,
    u = u_cb + u_pr and the plant step. The state x is an (N, n) row
    stack stepped with np.matvec, and a step's noise and probe rows are
    contiguous (N, ·) blocks of the chunk, so a step reshapes nothing.

    The breaker fires only finitely often, so while no row dwells the
    steps go in clean runs: up to ``span`` steps with u_cb = u_ce (the
    float operations of a step at which breaker passes every row), then
    one clean_steps check of the run's logged u_ce. If some row trips at a
    step of the run, the steps before it are kept, x is rewound to that
    step's logged state, and the breaker rule takes the steps from there
    one at a time until no row dwells. ``span`` starts at 1, doubles after
    each clean run and drops back to 1 after a trip; CLEAN_SPAN_CAP caps
    it. A run ends at the next gain update or chunk end at the latest. A
    clean run steps in place: each step writes u_ce, u and the next state
    into buffers allocated once per batch, by plant.step's operations in
    its order, written out as six ufunc calls so that a step makes no
    Python call; the run's rows are copied into the logs when it ends.
    The breaker steps x in place too, with plant.step, from a copy of the
    logged state it rewound to.

    The loop stops only before a gain update and at each chunk end, where
    every logged row is final. A stop first checks the overflow guard
    (overflow_failures) on the states since the last one: a row past it
    leaves the live rows but keeps stepping, unread; its trial comes back
    cut at its first failing step and marked failed, and the batch ends at
    the first stop with no row live. The stop then feeds each trial's
    estimator the logged pairs since the last stop and takes its snapshot
    at every checkpoint c passed since then that the trial has not failed
    by (failure step > c), and at the stop if the trial is live. All the
    snapshots go through one stacked estimate (estimates, one stacked
    eigendecomposition); the checkpoints' estimates through one stacked
    estimation_error. Gain updates fire at the same k for every trial:
    the live rows' estimates at the stop go through one
    certainty_equivalent_gains call, whose Riccati loop runs every row
    until it stops where it would stop alone. Every stacked product and
    decomposition is the per-row one bit for bit, so a trial's outputs do
    not depend on the batch it ran in.
    """
    spec = config.plant
    n, m = spec.n, spec.m
    T = config.horizon
    N = len(indices)
    seeds = [trial_seed(config.base_seed, i) for i in indices]
    estimators = [EstimatorState(n, m) for _ in indices]
    streams = [NoiseStream(seed=seed, state_dim=n, input_dim=m)
               for seed in seeds]
    L = spec.chol_W

    try:
        # T + 1 rows per trial: X[r, k] is the successor of the state at
        # step k
        X = np.empty((N, T + 1, n))
        U_ce = np.empty((N, T, m))
        U_cb = np.empty((N, T, m))
        U_pr = np.empty((N, T, m))
        W = np.empty((N, T, n))
        breaker_codes = np.zeros((N, T), dtype=np.int8)
    except MemoryError:
        raise ConfigInvalid(
            f"too long: the batch's trials would take "
            f"{N * trial_budget(config)} bytes, more than could be "
            f"allocated", path="horizon") from None
    X[:, 0] = 0.0
    segments = [[] for _ in indices]

    # the batch rows not yet failed; batch row -> (step, message) of its
    # first state past the guard; the steps whose states were checked
    live = list(range(N))
    failures: dict[int, tuple[int, str]] = {}
    checked = 0

    cps = config.checkpoints()
    est_sq = np.full((N, len(cps)), np.nan)
    # the checkpoints before cps[measured] have their est_sq entries
    measured = 0

    def stop_at(upto: int) -> np.ndarray | None:
        """Guard the live rows' states after steps checked+1 .. upto, then
        make the stop's estimates in one stacked call: each row's at every
        checkpoint since the last stop that it has not failed by (failure
        step > c), and at upto if it is live. Fills est_sq; returns the
        live rows' estimates at upto, or None when no row is live.
        """
        nonlocal live, checked, measured
        rows = live
        found = overflow_failures(X[rows, checked + 1:upto + 1], checked + 1)
        failures.update((rows[j], failure) for j, failure in found.items())
        live = [r for j, r in enumerate(rows) if j not in found]
        checked = upto
        reached = int(np.searchsorted(cps, upto, side="right"))
        pending = list(enumerate(cps[measured:reached].tolist(), measured))
        measured = reached
        cells, snapshots, at_stop = [], [], []
        for r in rows:
            estimator = estimators[r]
            a = estimator.count
            last = failures[r][0] - 1 if r in failures else upto
            # row i's pair is z = [X[i]; U_cb[i] + U_pr[i]] with successor
            # X[i + 1]; the row was fed to the last stop, so its new pairs
            # span at most one noise chunk
            Z = np.concatenate(
                [X[r, a:last], U_cb[r, a:last] + U_pr[r, a:last]], axis=1)
            Xn = X[r, a + 1:last + 1]
            done = 0
            for j, c in pending:
                if c > last:
                    break
                estimator.absorb(Z[done:c - a], Xn[done:c - a])
                done = c - a
                cells.append((r, j))
                snapshots.append(estimator.snapshot())
            if r not in failures:
                estimator.absorb(Z[done:], Xn[done:])
                at_stop.append(estimator.snapshot())
        snapshots += at_stop
        if not snapshots:
            return None
        Theta = estimates(snapshots)[0]
        if cells:
            err = estimation_error(Theta[:len(cells)], spec.sys)
            at_rows, at_cps = zip(*cells)
            est_sq[at_rows, at_cps] = err * err
        return Theta[len(cells):] if live else None

    # x is the batch's state as an (N, n) row stack; a clean run writes
    # its steps' u_ce and successor states into run_ce and run_x,
    # the input u = u_ce + u_pr into u, and x is then a view of run_x.
    # The buffers are no longer than the horizon: a short horizon packs
    # many trials into a batch
    x = np.zeros((N, n))
    span_cap = min(CLEAN_SPAN_CAP, T)
    run_ce = np.empty((span_cap, N, m))
    run_x = np.empty((span_cap, N, n))
    # the clean-run step's row views, made once
    ce_rows, x_rows = list(run_ce), list(run_x)
    u = np.empty((N, m))
    Bu = np.empty((N, n))
    A, B = spec.sys.A, spec.sys.B
    matvec, add = np.matvec, np.add
    K = np.zeros((N, m, n))
    xi = np.zeros(N, dtype=np.int64)
    next_update = config.controller.next_update(0)

    # steps of the next clean run: doubled after a clean run, back to 1
    # after a trip
    span = 1
    for start in range(0, T, NOISE_CHUNK):
        stop = min(start + NOISE_CHUNK, T)
        count = stop - start
        # the chunk's noise step-major, (count, N, .), so a step's rows
        # are one contiguous row stack
        G = np.stack([s.block("w", start + 1, count) for s in streams], 1)
        Wc = np.matvec(L, G)
        scales = np.fromiter(
            map(pow, range(start + 1, stop + 1), repeat(PROBE_EXPONENT)),
            float, count)
        Pc = scales[:, None, None] * np.stack(
            [s.block("v", start + 1, count) for s in streams], 1)
        W[:, start:stop] = Wc.swapaxes(0, 1)
        U_pr[:, start:stop] = Pc.swapaxes(0, 1)
        limits = thresholds(start + 1, count)
        # i steps are taken: X[:, i] is final and x is the state at step i+1
        i = start
        while i < stop:
            if i + 1 == next_update:
                Theta = stop_at(i)
                if Theta is None:
                    break
                gains = certainty_equivalent_gains(Theta, spec.cost)
                K[live] = gains
                for r, gain in zip(live, gains):
                    segments[r].append((i + 1, gain))
                next_update = config.controller.next_update(i + 1)
            if not np.count_nonzero(xi):
                # a clean run, ending by the next gain update or chunk end:
                # u_cb = u_ce at every step, the breaker checked after
                end = min(i + span, stop, next_update - 1)
                a, b = i - start, end - start
                # plant.step's operations in its order, written out so a
                # step makes no Python call; out= passed by position, which
                # numpy parses faster
                for ce, x_next, p, w in zip(ce_rows, x_rows, Pc[a:b], Wc[a:b]):
                    matvec(K, x, ce)
                    add(ce, p, u)
                    matvec(A, x, x_next)
                    matvec(B, u, Bu)
                    add(x_next, Bu, x_next)
                    add(x_next, w, x_next)
                    x = x_next
                U_ce[:, i:end] = run_ce[:b - a].swapaxes(0, 1)
                X[:, i + 1:end + 1] = run_x[:b - a].swapaxes(0, 1)
                clean = clean_steps(U_ce[:, i:end], limits[a:b])
                U_cb[:, i:i + clean] = U_ce[:, i:i + clean]
                if i + clean == end:
                    i = end
                    span = min(2 * span, CLEAN_SPAN_CAP)
                    continue
                # a row trips at index i + clean: keep the steps before it
                # and rewind x to its state, where the breaker takes over;
                # a copy, since the breaker steps x in place
                i += clean
                x = X[:, i].copy()
                span = 1
            # a row dwells or trips: the breaker rule, one step
            u_ce = np.matvec(K, x)
            u_cb, codes, xi = breaker(i + 1, u_ce, xi)
            U_ce[:, i] = u_ce
            U_cb[:, i] = u_cb
            breaker_codes[:, i] = codes
            np.add(u_cb, Pc[i - start], u)
            step(x, u, Wc[i - start], spec, x)
            i += 1
            X[:, i] = x
        if not live or stop_at(stop) is None:
            break

    logs = (X, U_ce, U_cb, U_pr, W, breaker_codes)
    return [_finish(config, oracle, cps, index, seeds[r], failures.get(r),
                    [a[r] for a in logs], segments[r], est_sq[r])
            for r, index in enumerate(indices)]


def _finish(config: ExperimentConfig, oracle: RiccatiSolution,
            cps: np.ndarray, trial_index: int, seed: int,
            failure: tuple[int, str] | None, logs: list[np.ndarray],
            segments: list, est_sq: np.ndarray) -> TrialResult:
    """One trial's record, curves and summary from its rows of the batch,
    fed to a TrialFold in blocks of NOISE_CHUNK rows.

    ``cps`` is the config's checkpoint grid. ``failure`` is the (step,
    message) of the first state past the overflow guard, or None. ``logs``
    are the trial's X, U_ce, U_cb, U_pr, W and breaker arrays, cut here, as
    views, to the failure step or the horizon.
    """
    spec = config.plant
    failed = failure is not None
    end, failure_reason = failure if failed else (config.horizon, "")
    X, U_ce, U_cb, U_pr, W, breaker_codes = (a[:end] for a in logs)
    stage = stage_costs(X, U_cb + U_pr, spec.cost)
    record = TrialRecord(
        trial_index=trial_index, seed=seed, X=X, U_ce=U_ce, U_cb=U_cb,
        U_pr=U_pr, W=W, breaker=breaker_codes, stage_cost=stage,
        gain_segments=segments)
    fold = TrialFold(oracle, spec, cps, config.delta)
    for a in range(0, end, NOISE_CHUNK):
        fold.add(record.rows(a, a + NOISE_CHUNK))
    facts = {} if failed else compute_trial_diagnostics(fold, record)
    summary = TrialSummary(
        trial_index=trial_index, seed=seed, failed=failed,
        failure_step=end if failed else None,
        failure_reason=failure_reason, **facts)
    return TrialResult(summary=summary, record=record,
                       rel_avg_regret=fold.rel_avg_regret(),
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


def _median(rows: np.ndarray) -> np.ndarray:
    """np.median(rows, axis=0) of a 2-d array, bit for bit, by the calls
    np.median makes: a partition at the middle row or two and the last
    row, the mean of the middle rows, and NaN wherever the last row is NaN.
    np.median's NaN check calls np.ma.isMaskedArray, which imports
    numpy.ma (about 10 ms) on first use. A single middle row is averaged
    too, not taken as it is: the mean's sum starts from +0.0, so a -0.0
    median comes out +0.0.
    """
    size = len(rows)
    mid = size // 2
    kth = [mid] if size % 2 else [mid - 1, mid]
    part = np.partition(rows, kth + [-1], axis=0)
    median = np.mean(part[mid - 1 + size % 2:mid + 1], axis=0)
    last = part[-1]
    np.copyto(median, last, where=np.isnan(last))
    return median


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
        # imported here, not with the module: concurrent.futures.process
        # pulls in multiprocessing, which about doubles the import time of
        # alqr.cli for every simulate, analyze and verify process
        from concurrent.futures import ProcessPoolExecutor
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
        median = _median(ok)
        mean = np.mean(ok, axis=0)
        est_sq_median = _median(est_sq_curves[completed])
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
