"""Seeded multi-trial experiments and their aggregation.

A trial is a pure function of (config, trial_index): the per-trial seed is
derived by a splitmix64 hash, so trials are independent, reorderable, and
individually replayable. Trials run as lockstep batches (run_trials): one
Python step advances the feedback path of every trial in the batch, and
every stacked product equals its per-trial form bit for bit, so a trial's
outputs do not depend on the batch it ran in; a single trial is a batch of
one. A batch steps each noise chunk in one window of rows: views of
horizon-long arrays when full trial records are kept (trial logs, run_trial),
else one buffer reused for every chunk, so that a run without logs holds
memory that does not grow with the horizon. The experiment layer runs the
batches, sized from that memory, reduces their checkpoint
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
from .plant import NOISE_CHUNK, NoiseStream, PlantSpec, overflow_failures
# draw_process_noise and step are not called here; perfbench/tracer.py
# binds the names
from .plant import draw_process_noise, step
from .records import (BREAKER_CLEAR, TrialRecord, feedback, save_gain_sidecar,
                      save_trial_csv)
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
    NaN past that step and its estimation-error curve at every checkpoint
    from it on, whatever its parked row's estimator held there. The
    record is None when run_trials kept no records, and the experiment
    reduction drops it (sets it to None) to bound memory; the summary and
    the curves always survive.
    """

    summary: TrialSummary
    record: TrialRecord | None
    rel_avg_regret: np.ndarray
    est_error_sq: np.ndarray


def trial_bytes(horizon: int, n: int, m: int, snapshots: int = 0,
                updates: int = 0) -> int:
    """Bytes of one trial's arrays in a batch of ``horizon`` rows: per row
    X, U_ce, U_pr, W, the stage cost and the breaker code (u_cb is derived,
    not stored); per row of one noise chunk's window 32 (n + m) bytes of
    arrays a chunk makes and drops (its noise, estimator pairs, derived
    u_cb and fold terms); ``snapshots`` estimator snapshots held at once;
    and the gain history of ``updates`` gain updates. The last three terms
    are upper bounds on the growth of the peak resident memory (VmHWM) of
    one run_trials batch (numpy 2.4, x86-64, glibc malloc) on 3x2, 8x4 and
    16x8 plants.

    Window: 64 trials over 8 at T = 8192 grew by 115, 294-295 and 642-643
    bytes per trial per window row beyond the arrays in three runs each,
    against 160, 384 and 768 counted. Snapshot: its V and S with their
    share of the stacked estimate, 44 (d^2 + n d) + 720 bytes with
    d = n + m. At T = 10 000, 4096 snapshots per trial against 6 grew by
    1915, 10 800 and 42 220 bytes per trial snapshot on 3x2 (4 trials),
    8x4 (2) and 16x8 (1), and for a lone trial, whose snapshots share no
    array overhead with a stack, by 2416-2425, 10 999-11 075 and
    42 219-42 297 in three runs each, against the 2480, 11 280 and 42 960
    counted. Gain update: the (step, gain) pair kept per trial, and at the
    trial's end its span in detect_t_stab's list, 8 m n + 900 bytes (the
    closed loops are built and judged a block of at most NOISE_CHUNK spans
    at a time). A lone every-step trial grew by 667-675, 863-870 and
    1740-1748 bytes per update from T = 5000 to 20 000, against 948, 1156
    and 1924 counted; 4 trials on 3x2 grew by 404 per trial update."""
    d = n + m
    return ((horizon + 1) * (8 * (2 * n + 2 * m + 1) + 1)
            + (min(horizon, NOISE_CHUNK) + 1) * 32 * d
            + (44 * (d * d + n * d) + 720) * snapshots
            + (8 * m * n + 900) * updates)


def trial_budget(config: ExperimentConfig, records: bool = True) -> int:
    """Bytes one trial takes in a run_trials batch: trial_bytes of the
    horizon's rows with ``records``, else of one window's, with the most
    estimator snapshots it holds at a stop, one for each checkpoint since
    the last stop and one at the stop, and the schedule's gain updates.

    Checkpoint c is measured at the first stop at or after it: the step
    before the first gain update after c, or the end of c's noise chunk.
    """
    stops = Counter(
        min(config.controller.next_update(c) - 1,
            -(-c // NOISE_CHUNK) * NOISE_CHUNK, config.horizon)
        for c in config.checkpoints().tolist())
    rows = config.horizon if records else min(NOISE_CHUNK, config.horizon)
    return trial_bytes(rows, config.plant.n, config.plant.m,
                       max(stops.values()) + 1,
                       config.controller.updates(config.horizon))


def trial_batches(config: ExperimentConfig, workers: int = 1,
                  records: bool = True) -> list[range]:
    """Consecutive runs of trial indices, one per lockstep batch.

    A batch holds as many trials as fit in BATCH_BYTES, trial_budget
    each (with ``records`` or without, as run_trials will run them), and
    at least one. The batch count is rounded up to a multiple
    of ``workers`` (while there are trials to fill them), so a pool of
    that many workers gets an even share; batch sizes differ by at most
    one.
    """
    count = -(-config.trials
              // max(1, BATCH_BYTES // trial_budget(config, records)))
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


def run_trials(config: ExperimentConfig, indices, oracle: RiccatiSolution,
               records: bool = True) -> list[TrialResult]:
    """Run the trials ``indices`` in lockstep, one TrialResult each.

    The horizon is walked in chunks of NOISE_CHUNK steps, aligned with the
    noise stream's chunks, each stepped in a window of count + 1 state rows
    and count rows of every other field, step-major, (rows, N, ·), so a
    step's rows are one (N, ·) row stack, stepped with np.matvec; a chunk
    indexes its window from 0. With ``records`` the windows are views of
    horizon-long arrays and each trial's TrialRecord holds strided views of
    its column. Without them one window serves every chunk, its last state
    row carried to row 0, so memory does not grow with the horizon, and a
    result's record is None. Per chunk, each trial's process noise L g
    (L = chol W) and probe k^(-1/4) v are written into the window's W and
    U_pr, its breaker codes zeroed and the thresholds built, and the
    chunk's f = B u_pr + w, made in one matvec and one add, goes into the
    buffer its noise g was drawn into. Every row steps with one kernel,
    x <- M x + f: M = A + B Khat per row, an (N, n, n) stack rebuilt by
    one stacked matmul at each gain update, is the closed loop of a step
    at which the breaker passes u_ce = Khat x, and A that of a step at
    which it holds the feedback at 0. The window keeps u_ce and the
    breaker codes but no u_cb: the readers of a step's rows, the
    estimator feed, the stage costs and the fold, derive it with
    records.feedback, as a TrialRecord does.

    The breaker fires only finitely often, so while no row dwells the
    steps go in clean runs: up to ``span`` steps with u_cb = u_ce (the
    float operations of a step at which breaker passes every row), then
    one clean_steps check of the run's logged u_ce; a kept step's code
    stays 0, so its derived u_cb is the u_ce it applied. If some row trips
    at a step of the run, the steps before it are kept, and the breaker
    rule takes the steps from that step's logged state one at a time until
    no row dwells. ``span`` starts at 1, doubles after each clean run and
    drops back to 1 after a trip; CLEAN_SPAN_CAP caps it. A run ends at
    the next gain update or chunk end at the latest. Every step writes
    straight into the window. A clean-run step is two ufunc calls,
    matvec(M, x) and the add of f, and makes no Python call; one matvec of
    K over the run's rows after it gives their u_ce, the bits of a matvec
    per step. A breaker step passes the step's u_ce to breaker and steps
    with np.where(held, A, M), A on each row whose code is not clear.
    plant.step, A x + B u + w, is the same map rounded in another order:
    the plant's reference form and the audit's boundary step, which agrees
    with the kernel's states to rounding, not bit for bit.

    The loop stops only before a gain update and at each chunk end, and a
    stop reads only the window's rows since the last one. It checks the
    overflow guard (overflow_failures) on the live rows' states. A row past
    it is parked: its window rows from that state on are zeroed, and its
    gain and dwell counter, its M set to A, so it keeps stepping from a
    zero state with no feedback and never trips, unread; its trial comes
    back cut at its first failing step and marked failed, and the batch
    ends at the first stop with no row live. Every array keeps its N rows
    until the batch ends. The stop feeds the batch's estimators, one
    EstimatorState stack, the window's N-wide rows since the last stop,
    with no split point for a failure: one absorb up to each checkpoint
    passed since the last stop, where it takes one stacked snapshot, and
    one up to the stop.
    All the snapshots go through one stacked estimate (estimates), the
    checkpoints' through one stacked estimation_error, and a failed
    trial's values from its failure step on become NaN. Gain updates fire
    at the same k for every trial: one certainty_equivalent_gains call
    takes the live rows' estimates, and its Riccati loop runs every row
    until it stops where it would stop alone. Every stacked product and
    decomposition is the per-row one bit for bit, so a trial's outputs do
    not depend on its batch. After a chunk's last stop, the window goes
    through one stage_costs call as one reshaped view, and one batch
    regret.TrialFold takes its (count, N, ·) rows with the chunk's derived
    u_cb, each trial's up to its failure step.
    """
    spec = config.plant
    n, m = spec.n, spec.m
    T = config.horizon
    N = len(indices)
    seeds = [trial_seed(config.base_seed, i) for i in indices]
    # every row's estimator, one stack
    estimator = EstimatorState(n, m, trials=N)
    streams = [NoiseStream(seed=seed, state_dim=n, input_dim=m)
               for seed in seeds]
    L = spec.chol_W

    # the horizon's rows, or one window's
    length = T if records else min(NOISE_CHUNK, T)
    try:
        # a window's X[i] holds the batch's states after i of its steps
        states = np.empty((length + 1, N, n))
        # U_ce, U_pr, W, the breaker codes and the stage costs
        logs = [np.empty((length, N, k)) for k in (m, m, n)] + [
            np.empty((length, N), np.int8), np.empty((length, N))]
    except MemoryError:
        raise ConfigInvalid(
            f"too long: the batch's trials would take "
            f"{N * trial_budget(config, records)} bytes, more than could "
            f"be allocated", path="horizon") from None
    states[0] = 0.0
    segments = [[] for _ in range(N)]
    cps = config.checkpoints()
    fold = TrialFold(oracle, spec, cps, config.delta, trials=N)

    # the batch rows not yet failed; batch row -> (step, message) of its
    # first state past the guard; the steps whose states were checked
    live = list(range(N))
    failures: dict[int, tuple[int, str]] = {}
    checked = 0

    est_sq = np.full((N, len(cps)), np.nan)
    # the checkpoints before cps[measured] have their est_sq entries
    measured = 0

    def stop_at(upto: int) -> np.ndarray | None:
        """Guard the live rows' states after steps checked+1 .. upto and
        park each row found past the guard; then feed the estimator stack
        the window's rows of every trial up to each checkpoint since the
        last stop, where it takes a snapshot, and up to upto. One stacked
        call makes every snapshot's estimates. Fills est_sq; returns the
        live rows' estimates at upto, or None when no row is live.

        A row failing at step f is parked: its window rows from its state
        after step f through upto, and K and xi, are zeroed and its M set
        to A, so it steps on from a zero state with no feedback and no
        dwell, and its estimator is fed finite pairs. Nothing reads it
        after f: the fold, the record and _finish (which sets its est_sq
        from f on to NaN) stop there. A step's row of the window is
        step - start.
        """
        nonlocal live, checked, measured
        found = overflow_failures(
            X[checked + 1 - start:upto + 1 - start, live].swapaxes(0, 1),
            checked + 1)
        for j, failure in found.items():
            r, f = live[j], failure[0] - start
            failures[r] = failure
            X[f:upto + 1 - start, r] = 0.0
            U_ce[f:upto - start, r] = 0.0
            codes[f:upto - start, r] = 0
            K[r] = 0.0
            M[r] = A
            xi[r] = 0
        live = [r for r in live if r not in failures]
        checked = upto
        reached = int(np.searchsorted(cps, upto, side="right"))
        snapshots = []
        # step i's pair is z = [X[i]; U_cb[i] + U_pr[i]] with successor
        # X[i + 1]
        for point in cps[measured:reached].tolist() + [upto]:
            a, b = estimator.count - start, point - start
            if b > a:
                Z = np.concatenate([X[a:b], feedback(U_ce[a:b], codes[a:b])
                                    + U_pr[a:b]], axis=2)
                estimator.absorb(Z, X[a + 1:b + 1])
            snapshots.append(estimator.snapshot())
        Theta = estimates(snapshots)[0].reshape(len(snapshots), N, n, n + m)
        if reached > measured:
            err = estimation_error(Theta[:-1].reshape(-1, n, n + m), spec.sys)
            est_sq[:, measured:reached] = (err * err).reshape(-1, N).T
        measured = reached
        return Theta[-1, live] if live else None

    # a chunk's standard normal process noise g; once L g is written into
    # W, the chunk's f = B u_pr + w
    G = np.empty((min(NOISE_CHUNK, T), N, n))
    A, B = spec.sys.A, spec.sys.B
    matvec, add = np.matvec, np.add
    K = np.zeros((N, m, n))
    # each row's closed loop M = A + B K, rebuilt at each gain update
    M = A + np.matmul(B, K)
    xi = np.zeros(N, dtype=np.int64)
    next_update = config.controller.next_update(0)

    # steps of the next clean run: doubled after a clean run, back to 1
    # after a trip
    span = 1
    for start in range(0, T, NOISE_CHUNK):
        count = min(NOISE_CHUNK, T - start)
        # the chunk's window: the stored rows from ``base`` on
        base = start if records else 0
        X = states[base:base + count + 1]
        U_ce, U_pr, W, codes, stage = (a[base:base + count] for a in logs)
        # a clean-run step leaves its breaker code at 0
        codes[:] = 0
        F = G[:count]
        for r, s in enumerate(streams):
            F[:, r] = s.block("w", start + 1, count)
            U_pr[:, r] = s.block("v", start + 1, count)
        matvec(L, F, out=W)
        steps = range(start + 1, start + count + 1)
        scales = np.fromiter(map(pow, steps, repeat(PROBE_EXPONENT)), float,
                             count)
        np.multiply(scales[:, None, None], U_pr, out=U_pr)
        matvec(B, U_pr, out=F)
        add(F, W, out=F)
        limits = thresholds(start + 1, count)
        # i steps of the chunk are taken: X[i] is the state at step
        # start + i + 1
        i = 0
        while i < count:
            if start + i + 1 == next_update:
                Theta = stop_at(start + i)
                if Theta is None:
                    break
                gains = certainty_equivalent_gains(Theta, spec.cost)
                K[live] = gains
                add(A, np.matmul(B, K), out=M)
                for r, gain in zip(live, gains):
                    segments[r].append((start + i + 1, gain))
                next_update = config.controller.next_update(start + i + 1)
            if not np.count_nonzero(xi):
                # a clean run, ending by the next gain update or chunk end:
                # u_cb = u_ce at every step, the breaker checked after
                end = min(i + span, count, next_update - 1 - start)
                x = X[i]
                # out= passed by position, which numpy parses faster
                for x_next, f in zip(X[i + 1:end + 1], F[i:end]):
                    matvec(M, x, x_next)
                    add(x_next, f, x_next)
                    x = x_next
                matvec(K, X[i:end], U_ce[i:end])
                i += clean_steps(U_ce[i:end].swapaxes(0, 1), limits[i:end])
                if i == end:
                    span = min(2 * span, CLEAN_SPAN_CAP)
                    continue
                # a row trips at the next step: the steps before it are
                # kept, and the breaker takes the step from its logged state
                span = 1
            # a row dwells or trips: the breaker rule, one step, and the
            # kernel with A in place of M on each row it holds
            u_ce = matvec(K, X[i], U_ce[i])
            _, codes[i], xi = breaker(start + i + 1, u_ce, xi)
            held = codes[i] != BREAKER_CLEAR
            matvec(np.where(held[:, None, None], A, M), X[i], X[i + 1])
            add(X[i + 1], F[i], X[i + 1])
            i += 1
        if live:
            stop_at(start + count)
        # fold the chunk: a trial keeps its rows up to its failure step;
        # the rows past a batch's last stop are never read and may hold
        # anything, so stage_costs may overflow there
        ends = np.clip([failures[r][0] - start if r in failures else count
                        for r in range(N)], 0, count)
        with np.errstate(all="ignore"):
            stage[:] = stage_costs(
                X[:count].reshape(-1, n),
                (feedback(U_ce, codes) + U_pr).reshape(-1, m),
                spec.cost).reshape(count, N)
        fold.add_rows(start + 1, X[:count], feedback(U_ce, codes), U_pr, W,
                      codes, stage, ends)
        if not live:
            break
        if not records:
            # the next window starts from this chunk's last state
            states[0] = X[count]

    curves = fold.rel_avg_regret()
    # the whole horizon, or the last window: all compute_trial_diagnostics
    # reads of a record is its horizon and gain history
    kept = slice(0, base + count)
    return [_finish(TrialRecord(index, seed, states[kept, r],
                                *(a[kept, r] for a in logs),
                                gain_segments=segments[r],
                                first_step=start - base + 1),
                    fold, r, failures.get(r), curves[r], est_sq[r], records)
            for r, (index, seed) in enumerate(zip(indices, seeds))]


def _finish(record: TrialRecord, fold: TrialFold, row: int,
            failure: tuple[int, str] | None, rel_avg_regret: np.ndarray,
            est_sq: np.ndarray, keep: bool) -> TrialResult:
    """A trial's result from its record through the last chunk stepped and
    row ``row`` of the batch's fold, fed every row it keeps. ``failure`` is
    the step and message of its first state past the overflow guard, or
    None; a failed trial's ``est_sq`` is set to NaN at its checkpoints
    from the failure step on. With ``keep`` the record starts at step 1
    and the result keeps it cut at the failure step; without it the result
    keeps none."""
    failed = failure is not None
    end, failure_reason = failure if failed else (record.horizon, "")
    facts = {} if failed else compute_trial_diagnostics(fold, record, row)
    if failed:
        est_sq[fold.checkpoints >= end] = np.nan
    summary = TrialSummary(
        trial_index=record.trial_index, seed=record.seed, failed=failed,
        failure_step=end if failed else None,
        failure_reason=failure_reason, **facts)
    return TrialResult(summary=summary,
                       record=record.rows(0, end) if keep else None,
                       rel_avg_regret=rel_avg_regret, est_error_sq=est_sq)


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
    results = run_trials(config, indices, oracle,
                         records=log_dir is not None)
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
    process pool of at most one worker per batch; results are merged by
    trial index, and a trial's outputs do not depend on its batch, so the
    summary never depends on scheduling. When ``log_dir`` is given, each
    trial's record is written there as ``trial_<i>.csv`` and
    ``trial_<i>_gains.json`` by the worker that produced it; records are
    dropped before aggregation. Without it the batches keep no records, so
    they step in one reused window each.
    """
    oracle = solve_dare(config.plant.sys, config.plant.cost, config.plant.W)
    n_workers = resolve_workers(workers)
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
    batches = trial_batches(config, n_workers, records=log_dir is not None)
    if n_workers == 1 or len(batches) == 1:
        done = [_batch_task(config, b, log_dir, oracle) for b in batches]
    else:
        # imported here, not with the module: concurrent.futures.process
        # pulls in multiprocessing, which about doubles the import time of
        # alqr.cli for every simulate, analyze and verify process
        from concurrent.futures import ProcessPoolExecutor
        # a forking pool starts all its workers at the first submit
        with ProcessPoolExecutor(min(n_workers, len(batches))) as pool:
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
    number of times. Dimensions whose A or B numpy cannot allocate raise
    ValueError.
    """
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be >= 1, got n={n}, m={m}")
    if not 0.0 < target_rho < 1.0:
        raise ValueError(f"target_rho must be in (0, 1), got {target_rho}")
    for attempt in range(GENERATOR_RETRY_CAP):
        rng = np.random.default_rng(seed + attempt)
        try:
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
        except (ValueError, MemoryError) as exc:
            # numpy's "array is too big", or a failed allocation
            raise ValueError(f"n={n}, m={m}: {exc}") from None
        radius = spectral_radius(A)
        if radius <= 0.0:
            continue
        A = A * (target_rho / radius)
        sys = SystemMatrices(A=A, B=B)
        if controllability_rank(sys) == n:
            return PlantSpec(sys=sys, W=np.eye(n),
                             cost=CostWeights(Q=np.eye(n), R=np.eye(m)))
    raise GenerationFailed(
        f"no controllable (A, B) pair in {GENERATOR_RETRY_CAP} draws "
        f"for n={n}, m={m}, target_rho={target_rho}, seed={seed}")
