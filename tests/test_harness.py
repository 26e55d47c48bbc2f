"""Experiment harness tests.

The independent oracle for run_trial is the hand-written loop in
tests/helpers.py: both must produce bit-identical logs from the same seed.
Aggregation is checked for order-independence (serial vs process pool) and
for the documented failure accounting.
"""

import ctypes
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from alqr import harness, plant
from alqr.control_math import (CostWeights, SystemMatrices, _frobenius,
                               solve_dare)
from alqr.controller import ControllerConfig, over_threshold
from alqr.estimator import EstimatorState, estimation_error
from alqr.harness import (BATCH_BYTES, CLEAN_SPAN_CAP, ExperimentConfig,
                          TrialSummary, _median, checkpoint_steps,
                          generate_stand_in_plant, resolve_workers,
                          run_experiment, run_trial, run_trials,
                          trial_batches, trial_seed)
from alqr.plant import NOISE_CHUNK, PlantSpec, overflow_failures, step
from alqr.records import (BREAKER_CLEAR, BREAKER_DWELL, BREAKER_TRIGGER,
                          load_gain_sidecar, load_trial_csv)
from alqr.regret import decompose_at
from helpers import Diverged, drive_trial, reference_spec


@pytest.fixture(scope="module")
def ref():
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    return spec, oracle


def make_config(spec, **over):
    fields = dict(plant=spec, horizon=100, trials=1, base_seed=7)
    fields.update(over)
    return ExperimentConfig(**fields)


def test_trial_seed_is_a_stable_64_bit_hash():
    s = trial_seed(123, 0)
    assert s == trial_seed(123, 0)
    assert 0 <= s < 2 ** 64
    seeds = {trial_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert trial_seed(124, 0) != s


def test_checkpoint_grid():
    assert checkpoint_steps(10, factor=2.0).tolist() == [1, 2, 4, 8, 10]
    cps = checkpoint_steps(100000)
    assert cps[0] == 1 and cps[-1] == 100000
    for decade in (10, 100, 1000, 10000, 100000):
        assert decade in cps
    assert np.all(np.diff(cps) > 0)
    with pytest.raises(ValueError):
        checkpoint_steps(10, factor=1.0)
    with pytest.raises(ValueError, match="finite"):
        checkpoint_steps(10, factor=math.inf)
    with pytest.raises(ValueError):
        checkpoint_steps(0)
    # a factor near 1 puts every step on the grid
    assert checkpoint_steps(100_000, factor=1 + 1e-12).tolist() == \
        list(range(1, 100_001))
    # the grid equals one built from every exponent j in turn
    for factor in (1.0001, 1.001, 1.01, 1.05, 1.1, 1.2, 1.5, 2.0, 3.7):
        geometric = []
        j = 0
        while math.ceil(factor ** j) <= 10 ** 6:
            geometric.append(math.ceil(factor ** j))
            j += 1
        for horizon in (1, 2, 3, 10, 99, 1000, 4097, 65_536, 10 ** 6):
            decades = [10 ** e for e in range(1, 7) if 10 ** e <= horizon]
            want = sorted({p for p in geometric if p <= horizon}
                          | set(decades) | {horizon})
            assert checkpoint_steps(horizon, factor).tolist() == want, \
                (factor, horizon)


def test_config_validation(ref):
    spec, _ = ref
    with pytest.raises(ValueError):
        make_config(spec, horizon=0)
    with pytest.raises(ValueError):
        make_config(spec, trials=0)
    with pytest.raises(ValueError):
        make_config(spec, checkpoint_factor=1.0)
    with pytest.raises(ValueError, match="finite"):
        make_config(spec, checkpoint_factor=math.inf)
    with pytest.raises(ValueError):
        make_config(spec, delta=0.6)


def test_single_step_trial(ref):
    # at k = 1 the state is zero and threshold log(1) = 0 is not exceeded,
    # so the only input is the probe draw and the regret is its R-cost
    # minus J*
    spec, oracle = ref
    result = run_trial(make_config(spec, horizon=1), 0)
    record = result.record
    assert record.horizon == 1
    assert np.array_equal(record.X[0], np.zeros(spec.n))
    assert np.array_equal(record.U_ce[0], np.zeros(spec.m))
    assert np.array_equal(record.U_cb[0], np.zeros(spec.m))
    assert record.breaker[0] == 0
    u = record.U_pr[0]
    expected = float(u @ spec.cost.R @ u) - oracle.J_star
    assert result.summary.final_regret == pytest.approx(expected, rel=1e-12)
    assert result.rel_avg_regret[-1] == pytest.approx(
        expected / oracle.J_star, rel=1e-12)
    assert not result.summary.failed


def test_trial_is_deterministic(ref):
    spec, _ = ref
    config = make_config(spec, horizon=150)
    a = run_trial(config, 3)
    b = run_trial(config, 3)
    assert a.summary.seed == b.summary.seed
    for name in ("X", "U_ce", "U_cb", "U_pr", "W", "breaker", "stage_cost"):
        assert np.array_equal(getattr(a.record, name),
                              getattr(b.record, name))
    assert np.array_equal(a.est_error_sq, b.est_error_sq, equal_nan=True)
    assert np.array_equal(a.rel_avg_regret, b.rel_avg_regret)


def test_trial_matches_handwritten_loop(ref):
    # the helpers module drives the same closed loop one step at a time
    # with its own breaker and no shared code beyond the gain update, the
    # estimator and the plant step; run_trial works in noise chunks of 4096
    # steps and feeds the estimator in blocks, so the cases cross chunk and
    # 512-row fold boundaries. At W = 400 I the breaker trips and dwells
    # all through the run. At W = 40 I it trips now and then, some trips
    # after long clean stretches, so run_trial's clean runs have grown to
    # CLEAN_SPAN_CAP steps there and rewind from deep inside them
    spec, _ = ref
    big = reference_spec(n=8, m=4)
    # a dense SPD W, so chol W has nonzero entries below the diagonal
    M = np.random.default_rng(3).standard_normal((8, 8))
    dense_w = M @ M.T + 8 * np.eye(8)
    loud = PlantSpec(sys=spec.sys, W=400.0 * np.eye(spec.n), cost=spec.cost)
    rare = PlantSpec(sys=spec.sys, W=40.0 * np.eye(spec.n), cost=spec.cost)
    cases = {
        "3x2, T=200": (spec, 200, ControllerConfig()),
        "3x2, T=9000": (spec, 9000, ControllerConfig()),
        "8x4, dense W, T=4500": (
            PlantSpec(sys=big.sys, W=dense_w, cost=big.cost), 4500,
            ControllerConfig()),
        "3x2, every-step, T=300": (spec, 300,
                                   ControllerConfig("every-step")),
        "3x2, W=400 I, T=600": (loud, 600, ControllerConfig()),
        "3x2, W=40 I, T=3000": (rare, 3000, ControllerConfig()),
    }
    for label, (plant, T, controller) in cases.items():
        config = make_config(plant, horizon=T, base_seed=99,
                             controller=controller)
        result = run_trial(config, 0)
        manual = drive_trial(plant, T, seed=trial_seed(99, 0),
                             config=controller)
        if plant is loud:
            assert np.count_nonzero(manual.breaker == BREAKER_TRIGGER) >= 50
            assert np.count_nonzero(manual.breaker == BREAKER_DWELL) >= 300
        if plant is rare:
            # the clean steps just before each trip
            active = np.flatnonzero(manual.breaker != BREAKER_CLEAR)
            trips = manual.breaker[active[1:]] == BREAKER_TRIGGER
            clean = np.diff(active)[trips] - 1
            assert len(clean) >= 100
            assert np.count_nonzero(clean >= 2 * CLEAN_SPAN_CAP) >= 2
        for name in ("X", "U_ce", "U_cb", "U_pr", "W", "breaker"):
            assert np.array_equal(getattr(result.record, name),
                                  getattr(manual, name)), (label, name)
        assert np.allclose(result.record.stage_cost, manual.stage_cost,
                           rtol=1e-12, atol=1e-12), label
        assert [s for s, _ in result.record.gain_segments] == \
            [s for s, _ in manual.gain_segments], label
        for (_, ka), (_, kb) in zip(result.record.gain_segments,
                                    manual.gain_segments):
            assert np.array_equal(ka, kb), label


RECORD_ARRAYS = ("X", "U_ce", "U_cb", "U_pr", "W", "breaker", "stage_cost")


def assert_same_trial(a, b, label):
    """Two TrialResults agree bit for bit in every output."""
    for name in RECORD_ARRAYS:
        assert np.array_equal(getattr(a.record, name),
                              getattr(b.record, name)), (label, name)
    assert [s for s, _ in a.record.gain_segments] == \
        [s for s, _ in b.record.gain_segments], label
    for (_, ka), (_, kb) in zip(a.record.gain_segments,
                                b.record.gain_segments):
        assert np.array_equal(ka, kb), label
    assert a.summary == b.summary, label
    assert np.array_equal(a.rel_avg_regret, b.rel_avg_regret,
                          equal_nan=True), label
    assert np.array_equal(a.est_error_sq, b.est_error_sq,
                          equal_nan=True), label


def assert_est_error_matches_oracle(result, config, label):
    """Each est_error_sq[j] is, bit for bit, the squared estimation_error
    of a fresh estimator fed the record's own pairs of steps 1..c, c the
    checkpoint; at c = T the last successor state is one plant.step from
    the last row, as regret.decompose_at derives it. From the failure
    step on the value is NaN."""
    record, spec = result.record, config.plant
    U = record.U_cb + record.U_pr
    successors = record.X[1:]
    if not result.summary.failed:
        successors = np.vstack([successors, step(
            record.X[-1], U[-1], record.W[-1], spec)])
    end = result.summary.failure_step or config.horizon + 1
    for j, c in enumerate(config.checkpoints().tolist()):
        got = result.est_error_sq[j]
        if c >= end:
            assert np.isnan(got), (label, c)
            continue
        fresh = EstimatorState(spec.n, spec.m)
        fresh.absorb(np.hstack([record.X[:c], U[:c]]), successors[:c])
        err = estimation_error(fresh.estimate(), spec.sys)
        assert got == err * err, (label, c)


@pytest.mark.parametrize("n, m", [(3, 2), (8, 4), (16, 8)])
def test_row_forms_match_their_1d_calls(n, m, monkeypatch):
    # the batch takes its noise rows with np.matvec and its norms with
    # np.vecdot over row stacks; each row must be its 1-D call bit for bit,
    # or a trial's bytes would depend on its batch. The norms are pinned
    # exactly: a limit at the 1-D norm passes, one ulp below it trips
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    spec = PlantSpec(sys=reference_spec(n=n, m=m).sys,
                     W=M @ M.T + n * np.eye(n),
                     cost=CostWeights(Q=np.eye(n), R=np.eye(m)))
    G = rng.standard_normal((5, 4, n))
    Wc = np.matvec(spec.chol_W, G)
    for j, r in np.ndindex(5, 4):
        assert np.array_equal(Wc[j, r], spec.chol_W @ G[j, r])

    for d in (m, n):
        V = rng.standard_normal((5, 4, d)) * 1e3
        norms = np.array([np.linalg.norm(v) for v in V.reshape(-1, d)]
                         ).reshape(5, 4)
        assert not over_threshold(V, norms).any()
        assert over_threshold(V, np.nextafter(norms, -np.inf)).all()
        for j, r in np.ndindex(5, 4):
            monkeypatch.setattr(plant, "STATE_NORM_GUARD", norms[j, r])
            assert overflow_failures(V[j, r][None, None], 1) == {}
            monkeypatch.setattr(plant, "STATE_NORM_GUARD",
                                np.nextafter(norms[j, r], -np.inf))
            assert list(overflow_failures(V[j, r][None, None], 1)) == [0]

    for shape in ((n, n), (m, n), (64, 64)):
        P = rng.standard_normal((6,) + shape)
        assert np.array_equal(_frobenius(P), [np.linalg.norm(p, "fro")
                                              for p in P])
    assert _frobenius(np.empty((0, n, n))).shape == (0,)


def dense_w_8x4():
    big = reference_spec(n=8, m=4)
    M = np.random.default_rng(3).standard_normal((8, 8))
    return PlantSpec(sys=big.sys, W=M @ M.T + 8 * np.eye(8), cost=big.cost)


def test_batch_rows_match_trials_run_alone(ref):
    # a trial's outputs may not depend on the batch it runs in; the 3x2 and
    # 8x4 horizons cross a noise chunk, and an every-step batch updates
    # every trial's gain at every step (kept short: each update is a
    # Riccati solve). At W = 40 I rows trip inside clean runs of every
    # length up to CLEAN_SPAN_CAP, and the batch steps on from the logged
    # state at each trip, in the log rows the clean run wrote past it
    spec, _ = ref
    loud = PlantSpec(sys=spec.sys, W=40.0 * np.eye(spec.n), cost=spec.cost)
    cases = {
        "3x2, T=4500": (spec, 4500, 4, ControllerConfig()),
        "8x4, dense W, T=4200": (dense_w_8x4(), 4200, 3, ControllerConfig()),
        "3x2, W=40 I, T=3000": (loud, 3000, 4, ControllerConfig()),
        "3x2, every-step, T=300": (spec, 300, 3,
                                   ControllerConfig("every-step")),
    }
    for label, (plant, T, trials, controller) in cases.items():
        config = make_config(plant, horizon=T, trials=trials, base_seed=21,
                             controller=controller)
        truth = solve_dare(plant.sys, plant.cost, plant.W)
        batch = run_trials(config, range(trials), truth)
        assert [r.summary.trial_index for r in batch] == list(range(trials))
        for i, result in enumerate(batch):
            assert not result.summary.failed, (label, i)
            assert_same_trial(result, run_trial(config, i, truth),
                              (label, i))
            assert_est_error_matches_oracle(result, config, (label, i))


def test_batch_rows_in_different_breaker_states(ref):
    # loud noise trips the breaker early and often, so at some step one row
    # dwells while another passes its feedback through; each row still
    # equals its trial run alone
    spec, _ = ref
    loud = PlantSpec(sys=spec.sys, W=400.0 * np.eye(spec.n), cost=spec.cost)
    config = make_config(loud, horizon=600, trials=4, base_seed=5)
    truth = solve_dare(loud.sys, loud.cost, loud.W)
    batch = run_trials(config, range(4), truth)
    codes = np.vstack([r.record.breaker for r in batch])
    mixed = np.any(codes == BREAKER_DWELL, axis=0) & \
        np.any(codes == BREAKER_CLEAR, axis=0)
    assert mixed.sum() >= 10
    for i, result in enumerate(batch):
        assert_same_trial(result, run_trial(config, i, truth), i)


def test_mixed_batch_rows_fail_at_their_own_steps(ref):
    # at W = 5e21 I two of six trials pass the overflow guard, one in the
    # first noise chunk and one in the second, and the other four run on to
    # the horizon; the failure step and text are what the hand-written loop
    # raises for that trial. Under every-step at W = 1e22 I a gain update
    # follows every step, so a row not dropped before the update at its
    # failure step + 1 would gain a segment past its failure
    spec, _ = ref
    cases = [(5e21, 5000, 11, ControllerConfig(),
              [None, 103, 4984, None, None, None]),
             (1e22, 100, 1, ControllerConfig("every-step"), [46, 85])]
    for scale, T, seed, controller, want in cases:
        wild = PlantSpec(sys=spec.sys, W=scale * np.eye(spec.n),
                         cost=spec.cost)
        config = make_config(wild, horizon=T, trials=len(want),
                             base_seed=seed, controller=controller)
        truth = solve_dare(wild.sys, wild.cost, wild.W)
        batch = run_trials(config, range(len(want)), truth)
        steps = [r.summary.failure_step for r in batch]
        assert steps == want
        for i, result in enumerate(batch):
            assert_same_trial(result, run_trial(config, i, truth), i)
            assert_est_error_matches_oracle(result, config, i)
            if steps[i] is None:
                assert result.record.horizon == T
                continue
            with pytest.raises(Diverged) as info:
                drive_trial(wild, T, seed=trial_seed(seed, i),
                            config=controller)
            assert info.value.step == steps[i]
            assert result.summary.failure_reason == str(info.value)
            assert result.record.horizon == steps[i]
            assert result.record.gain_segments[-1][0] <= steps[i]
            assert np.isnan(result.rel_avg_regret[-1])
            assert np.isnan(result.est_error_sq[-1])


def test_batch_whose_rows_all_fail(ref):
    # at W = 1e22 I every row of the batch passes the overflow guard inside
    # the first noise chunk, the last at step 1298. A checkpoint does not
    # end a run, so the failed rows step on, unread, to the stop before the
    # gain update at 2048 and the batch ends there. Each row still equals
    # its trial run alone and fails where the hand-written loop does; a
    # RuntimeWarning from the extra steps would fail the test. Every step
    # is a checkpoint, so each row's last estimate is the one just before
    # its failure step, and the stop at 2047 measures 1024 checkpoints
    spec, _ = ref
    wild = PlantSpec(sys=spec.sys, W=1e22 * np.eye(spec.n), cost=spec.cost)
    config = make_config(wild, horizon=5000, trials=3, base_seed=0,
                         checkpoint_factor=1 + 1e-12)
    truth = solve_dare(wild.sys, wild.cost, wild.W)
    batch = run_trials(config, range(3), truth)
    steps = [r.summary.failure_step for r in batch]
    assert steps == [1298, 693, 166]
    for i, result in enumerate(batch):
        assert_same_trial(result, run_trial(config, i, truth), i)
        assert_est_error_matches_oracle(result, config, i)
        with pytest.raises(Diverged) as info:
            drive_trial(wild, 5000, seed=trial_seed(0, i))
        assert info.value.step == steps[i]
        assert result.summary.failure_reason == str(info.value)
        assert result.record.horizon == steps[i]


def check_batches_match_alone():
    """Batch rows against their trials run alone, bit for bit: a 3x2 batch
    at W = 40 I, where the breaker trips often, and one at W = 5e21 I in
    which two of four rows fail, one in each of the first two noise
    chunks. test_batches_match_alone_under_other_blas_kernels runs this in
    child processes; it also asserts that numpy's bundled OpenBLAS, when
    it can be asked, runs the kernel OPENBLAS_CORETYPE names."""
    core = os.environ.get("OPENBLAS_CORETYPE")
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for name in os.listdir(libs) if core and os.path.isdir(libs) else ():
        corename = getattr(ctypes.CDLL(os.path.join(libs, name)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            assert corename().decode() == core
    spec = reference_spec()
    for scale, T, seed, failed in ((40.0, 1500, 0, [None] * 4),
                                   (5e21, 5000, 11, [None, 103, 4984, None])):
        loud = PlantSpec(sys=spec.sys, W=scale * np.eye(spec.n),
                         cost=spec.cost)
        config = make_config(loud, horizon=T, trials=4, base_seed=seed)
        truth = solve_dare(loud.sys, loud.cost, loud.W)
        batch = run_trials(config, range(4), truth)
        assert [r.summary.failure_step for r in batch] == failed
        if scale == 40.0:
            assert all(np.count_nonzero(r.record.breaker) for r in batch)
        for i, result in enumerate(batch):
            assert_same_trial(result, run_trial(config, i, truth), (scale, i))


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge", "Nehalem"])
def test_batches_match_alone_under_other_blas_kernels(core):
    # the stacked products equal the per-row ones under the default kernel
    # by construction of their layouts; other kernels block and vectorize
    # differently, so the check reruns under each in a fresh process
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join([src, tests])}
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         "import test_harness; test_harness.check_batches_match_alone()"],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def test_trial_batches_partition(ref):
    spec, _ = ref
    big = reference_spec(n=8, m=4)
    row_bytes = {3: 8 * (2 * 3 + 3 * 2 + 1) + 1,
                 8: 8 * (2 * 8 + 3 * 4 + 1) + 1}
    cases = [(spec, 100_000, 50, 1), (spec, 100_000, 50, 2),
             (spec, 10_000, 200, 2), (spec, 12_500, 4, 1),
             (big, 2_500, 3, 1), (spec, 10 ** 7, 3, 1), (spec, 100, 1, 4),
             (spec, 300, 5, 2)]
    for plant, T, trials, workers in cases:
        config = make_config(plant, horizon=T, trials=trials)
        batches = trial_batches(config, workers)
        label = (plant.n, T, trials, workers)
        assert [i for b in batches for i in b] == list(range(trials)), label
        assert all(len(b) >= 1 for b in batches), label
        sizes = [len(b) for b in batches]
        assert max(sizes) - min(sizes) <= 1, label
        per_trial = (T + 1) * row_bytes[plant.n]
        for b in batches:
            assert len(b) == 1 or len(b) * per_trial <= BATCH_BYTES, label
        assert len(batches) % workers == 0 or len(batches) == trials, label
    # the acceptance long run never holds all 50 trials at once, but
    # without records a trial holds one window, not the horizon, and the
    # run is one batch per worker; the benchmark workloads each fit one
    # batch
    long_run = make_config(spec, horizon=100_000, trials=50)
    assert len(trial_batches(long_run)) > 1
    for workers in (1, 2):
        assert len(trial_batches(long_run, workers, records=False)) == \
            workers
    assert len(trial_batches(make_config(spec, horizon=12_500,
                                         trials=4))) == 1
    assert len(trial_batches(make_config(big, horizon=2_500,
                                         trials=3))) == 1


@pytest.mark.parametrize("T,factor,schedule,snapshots", [
    # at factor 1.2 the checkpoints 8 .. 13 wait for the stop before the
    # gain update at 16
    pytest.param(1, 1.2, "powers-of-two", 2, id="1"),
    pytest.param(CLEAN_SPAN_CAP, 1.2, "powers-of-two", 6,
                 id=str(CLEAN_SPAN_CAP)),
    pytest.param(CLEAN_SPAN_CAP + 1, 1.2, "powers-of-two", 6,
                 id=str(CLEAN_SPAN_CAP + 1)),
    # every step a checkpoint: under every-step each has its own stop;
    # under powers-of-two steps 2048 .. 4095 wait for the gain update at
    # 4096, and steps 4097 .. 8191 for the chunk end at 8192
    pytest.param(4096, 1 + 1e-12, "every-step", 2, id="every-step"),
    pytest.param(4096, 1 + 1e-12, "powers-of-two", 2049, id="dense-4096"),
    pytest.param(10_000, 1 + 1e-12, "powers-of-two", 4096,
                 id="dense-10000"),
    # 20 000 gain updates, whose history outweighs the rest of a trial
    # once the log arrays are one window
    pytest.param(20_000, 1.2, "every-step", 2, id="every-step-20000")])
def test_trial_batches_count_the_clean_run_buffers(ref, T, factor, schedule,
                                                   snapshots):
    # with records a trial holds T + 1 rows of log arrays, u_cb not among
    # them, without them one window of min(T, NOISE_CHUNK) + 1 rows; a
    # chunk makes and drops 32 (n + m) bytes per window row; at a stop it
    # holds one estimator snapshot per checkpoint passed since the last
    # stop and one at the stop, each costing 44 (d^2 + n d) + 720 bytes
    # (its V and S and its share of the stacked estimate, at least the
    # measured growth of a lone trial's peak memory); each gain update
    # keeps 8 m n + 900 bytes of gain history and t_stab spans; the clean
    # runs step in the log rows and hold no buffer of their own. A batch
    # that fills BATCH_BYTES with all of them takes one trial more than the
    # budget allows
    spec, _ = ref
    n, m = spec.n, spec.m
    d = n + m
    window = min(T, NOISE_CHUNK)
    updates = T if schedule == "every-step" else T.bit_length()
    over = dict(horizon=T, checkpoint_factor=factor,
                controller=ControllerConfig(schedule))
    for records, rows in ((True, T), (False, window)):
        per_trial = ((rows + 1) * (8 * (2 * n + 2 * m + 1) + 1)
                     + (window + 1) * 32 * d
                     + (44 * (d * d + n * d) + 720) * snapshots
                     + (8 * m * n + 900) * updates)
        fit = BATCH_BYTES // per_trial
        assert len(trial_batches(make_config(spec, trials=fit, **over),
                                 records=records)) == 1
        batches = trial_batches(make_config(spec, trials=fit + 1, **over),
                                records=records)
        assert len(batches) == 2
        assert all(len(b) * per_trial <= BATCH_BYTES for b in batches)

def test_dense_checkpoint_grid_splits_into_batches(ref):
    # every step a checkpoint, 4096 snapshots per trial at the stop at
    # 8191: one batch of all 20 peaks at about 244 MiB
    spec, _ = ref
    config = make_config(spec, horizon=10_000, trials=20,
                         checkpoint_factor=1 + 1e-12)
    assert [len(b) for b in trial_batches(config)] == [10, 10]


def assert_same_results(got, want, label):
    """Results without records against those with them, bit for bit."""
    assert len(got) == len(want), label
    for a, b in zip(got, want):
        assert a.record is None, label
        assert repr(a.summary) == repr(b.summary), label
        assert a.rel_avg_regret.tobytes() == b.rel_avg_regret.tobytes(), label
        assert a.est_error_sq.tobytes() == b.est_error_sq.tobytes(), label


@pytest.mark.parametrize("T,trials", [(1, 4), (4095, 4), (4096, 4),
                                      (4097, 4), (8193, 4), (4097, 1)])
def test_reused_window_matches_records(ref, T, trials):
    # without records every chunk steps in one window, its last state
    # carried to row 0; the horizons end just before, at and after a chunk
    # end, and one chunk into the third
    spec, oracle = ref
    config = make_config(spec, horizon=T, trials=trials, base_seed=T)
    assert_same_results(run_trials(config, range(trials), oracle, False),
                        run_trials(config, range(trials), oracle), T)


def test_reused_window_matches_records_through_trips_and_failures(
        ref, monkeypatch):
    # W = 40 I: trial 0 dwells across the chunk end at 4096 and rows trip
    # on both sides of it, so the dwell counters and zeroed codes carry
    # over; W = 5e21 I: two of six trials fail, one in the first chunk.
    # Then the window is cut to 64 steps so that short runs cross many
    # chunk ends, against records of whole chunks: every-step, where each
    # step is a stop, and W = 40 I
    spec, _ = ref
    cases = [(40.0, 8193, 0, 4, ControllerConfig(), NOISE_CHUNK),
             (5e21, 5000, 11, 6, ControllerConfig(), NOISE_CHUNK),
             (1.0, 300, 1, 4, ControllerConfig("every-step"), 64),
             (40.0, 1000, 1, 4, ControllerConfig(), 64)]
    for scale, T, seed, trials, controller, chunk in cases:
        plant = PlantSpec(sys=spec.sys, W=scale * np.eye(spec.n),
                          cost=spec.cost)
        config = make_config(plant, horizon=T, trials=trials,
                             base_seed=seed, controller=controller)
        truth = solve_dare(plant.sys, plant.cost, plant.W)
        want = run_trials(config, range(trials), truth)
        if T == 8193:
            codes = np.array([r.record.breaker for r in want])
            assert codes[0, 4095] and codes[0, 4096]
            assert (codes[:, 4032:4096] == BREAKER_TRIGGER).any()
            assert (codes[:, 4096:4160] == BREAKER_TRIGGER).any()
        if scale == 5e21:
            assert [r.summary.failure_step for r in want] == \
                [None, 103, 4984, None, None, None]
        with monkeypatch.context() as patch:
            patch.setattr(harness, "NOISE_CHUNK", chunk)
            got = run_trials(config, range(trials), truth, False)
        assert_same_results(got, want, (scale, T, chunk))


# run_experiment without trial logs in a fresh process; prints the growth
# of its peak resident memory in kB
PEAK_CHILD = """
import sys
from alqr.harness import ExperimentConfig, run_experiment
from helpers import reference_spec

def peak():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith("VmHWM:"))

config = ExperimentConfig(plant=reference_spec(), horizon=int(sys.argv[1]),
                          trials=4, base_seed=0)
before = peak()
run_experiment(config, workers=1)
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_peak_memory_without_logs_is_flat_in_the_horizon():
    # without logs a batch holds one window of rows, not the horizon: 16
    # times the steps grow the peak by the same few MiB. With horizon-long
    # arrays the longer run grew about 50 MB more
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    growth = []
    for T in (8192, 131_072):
        child = subprocess.run([sys.executable, "-c", PEAK_CHILD, str(T)],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert child.returncode == 0, child.stderr
        growth.append(int(child.stdout))
    assert abs(growth[1] - growth[0]) < 4096, growth


def test_trial_record_satisfies_decomposition(ref):
    spec, oracle = ref
    result = run_trial(make_config(spec, horizon=2000), 1)
    report = decompose_at(result.record, oracle, spec, [2000])[0]
    assert report.within_tolerance
    assert report.regret == result.summary.final_regret


def test_diverged_trial_marked_failed():
    # noise with standard deviation 1e13 pushes the state past the 1e12
    # guard almost immediately; the trial must come back truncated and
    # flagged, not raise
    spec = reference_spec()
    wild = PlantSpec(sys=spec.sys, W=1e26 * np.eye(spec.n), cost=spec.cost)
    config = make_config(wild, horizon=50, trials=3)
    result = run_trial(config, 0)
    failure = result.summary
    assert failure.failed
    assert failure.failure_step is not None
    assert result.record.horizon == failure.failure_step
    # the regret and diagnostic fields keep their None defaults
    assert failure == TrialSummary(
        trial_index=0, seed=failure.seed, failed=True,
        failure_step=failure.failure_step,
        failure_reason=failure.failure_reason)
    assert "passed the overflow guard" in failure.failure_reason
    assert f"at step {failure.failure_step}" in failure.failure_reason

    summary = run_experiment(config)
    assert summary.failed_count == 3
    assert summary.slope_mean is None
    assert all(t.failed for t in summary.trial_summaries)
    assert summary.noise_event_fraction == 0.0


def test_huge_noise_gain_solve_failure_falls_back():
    # at W = 1e14 I some early estimates give a Riccati iterate that is not
    # positive definite; the controller must fall back to the zero gain,
    # not let the error escape the trial
    base = generate_stand_in_plant(3, 2, 0.9, 42)
    loud = PlantSpec(sys=base.sys, W=1e14 * np.eye(3), cost=base.cost)
    config = make_config(loud, horizon=300, trials=6)
    for i in range(config.trials):
        assert not run_trial(config, i).summary.failed


def test_noise_event_is_scale_free_in_w():
    # W = 100 I logs every draw 10x larger; after whitening by chol(W) the
    # per-trial noise event reads the same as at W = I
    base = generate_stand_in_plant(3, 2, 0.9, 42)
    loud = PlantSpec(sys=base.sys, W=100.0 * np.eye(3), cost=base.cost)
    flags = []
    for spec in (base, loud):
        summary = run_experiment(make_config(spec, horizon=2000, trials=3))
        flags.append([t.noise_event_holds for t in summary.trial_summaries])
    assert flags[0] == flags[1]
    assert None not in flags[0]


def test_experiment_aggregates(ref):
    spec, _ = ref
    config = make_config(spec, horizon=300, trials=5)
    summary = run_experiment(config)
    C = len(summary.checkpoints)
    assert summary.rel_curves.shape == (5, C)
    assert summary.est_sq_curves.shape == (5, C)
    assert np.all(summary.worst >= summary.median - 1e-15)
    assert np.all(summary.median >= np.min(summary.rel_curves, axis=0))
    assert np.all(np.isfinite(summary.mean))
    assert np.isfinite(summary.est_sq_median[-1])
    assert summary.failed_count == 0
    assert len(summary.trial_summaries) == 5
    assert len({t.seed for t in summary.trial_summaries}) == 5
    assert sum(summary.tnocb_counts) == 5
    assert 0.0 <= summary.noise_event_fraction <= 1.0
    assert summary.j_star > 0.0
    payload = summary.to_dict()
    assert payload["trials"] == 5
    assert payload["final_worst"] >= payload["final_median"]


def test_single_trial_statistics_coincide(ref):
    spec, _ = ref
    summary = run_experiment(make_config(spec, horizon=120, trials=1))
    assert np.array_equal(summary.worst, summary.median)
    assert np.array_equal(summary.worst, summary.mean)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 8])
def test_median_is_numpy_median_bit_for_bit(rows):
    # signed zeros, NaN, infinities and pairs whose sum overflows, drawn
    # with repeats so that columns hold ties of every kind
    pool = [0.0, -0.0, 0.0, -0.0, np.nan, np.inf, -np.inf, 1.5e308,
            -1.5e308, 1.0, -1.0, 2.5, 5e-324]
    rng = np.random.default_rng(rows)
    M = rng.choice(pool, size=(rows, 4000))
    with np.errstate(over="ignore", invalid="ignore"):
        ours, theirs = _median(M), np.median(M, axis=0)
    assert np.array_equal(ours, theirs, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(theirs))


def test_parallel_merge_matches_serial(ref):
    spec, _ = ref
    config = make_config(spec, horizon=200, trials=4)
    serial = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=2)
    assert np.array_equal(serial.rel_curves, pooled.rel_curves)
    assert np.array_equal(serial.worst, pooled.worst)
    assert np.array_equal(serial.median, pooled.median)
    assert np.array_equal(serial.mean, pooled.mean)
    assert [t.seed for t in serial.trial_summaries] == \
        [t.seed for t in pooled.trial_summaries]
    assert serial.to_dict() == pooled.to_dict()


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("ALQR_THREADS", raising=False)
    assert resolve_workers(4) == 4
    assert resolve_workers() >= 1
    monkeypatch.setenv("ALQR_THREADS", "3")
    assert resolve_workers(8) == 3
    assert resolve_workers(2) == 2
    monkeypatch.setenv("ALQR_THREADS", "0")
    assert resolve_workers(8) == 1


def test_trial_logs_written(tmp_path, ref):
    spec, _ = ref
    config = make_config(spec, horizon=40, trials=2)
    run_experiment(config, log_dir=str(tmp_path / "trials"))
    for idx in range(2):
        base = tmp_path / "trials" / f"trial_{idx}"
        assert (base.parent / (base.name + ".csv")).exists()
        assert (base.parent / (base.name + "_gains.json")).exists()
    fresh = run_trial(config, 0).record
    [loaded] = load_trial_csv(str(tmp_path / "trials" / "trial_0.csv"))
    for name in ("X", "U_ce", "U_cb", "U_pr", "W", "breaker", "stage_cost"):
        assert np.array_equal(getattr(loaded, name), getattr(fresh, name))
    segments = load_gain_sidecar(
        str(tmp_path / "trials" / "trial_0_gains.json"))
    assert [s for s, _ in segments] == [s for s, _ in fresh.gain_segments]


def test_stand_in_plant_generation():
    spec = generate_stand_in_plant(8, 4, 0.95, seed=5)
    eigs = np.abs(np.linalg.eigvals(spec.sys.A))
    assert abs(np.max(eigs) - 0.95) <= 1e-9
    assert spec.sys.B.shape == (8, 4)
    assert np.array_equal(spec.W, np.eye(8))
    assert np.array_equal(spec.cost.Q, np.eye(8))
    assert np.array_equal(spec.cost.R, np.eye(4))
    again = generate_stand_in_plant(8, 4, 0.95, seed=5)
    assert np.array_equal(spec.sys.A, again.sys.A)
    assert np.array_equal(spec.sys.B, again.sys.B)

    scalar = generate_stand_in_plant(1, 1, 0.6, seed=0)
    assert abs(abs(scalar.sys.A[0, 0]) - 0.6) <= 1e-12

    with pytest.raises(ValueError):
        generate_stand_in_plant(0, 1, 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_stand_in_plant(1, 1, 1.0, seed=0)
