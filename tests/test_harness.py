"""Experiment harness tests.

The independent oracle for run_trial is the hand-written loop in
tests/helpers.py: both must produce bit-identical logs from the same seed.
Aggregation is checked for order-independence (serial vs process pool) and
for the documented failure accounting.
"""

import math
import os

import numpy as np
import pytest

from alqr.control_math import CostWeights, SystemMatrices, solve_dare
from alqr.controller import ControllerConfig
from alqr.harness import (BATCH_BYTES, ExperimentConfig, TrialSummary,
                          checkpoint_steps, generate_stand_in_plant,
                          resolve_workers, run_experiment, run_trial,
                          run_trials, trial_batches, trial_seed)
from alqr.plant import PlantSpec
from alqr.records import (BREAKER_CLEAR, BREAKER_DWELL, load_gain_sidecar,
                          load_trial_csv)
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
    assert np.array_equal(a.record.x_final, b.record.x_final)
    assert np.array_equal(a.est_error_sq, b.est_error_sq, equal_nan=True)
    assert np.array_equal(a.rel_avg_regret, b.rel_avg_regret)


def test_trial_matches_handwritten_loop(ref):
    # the helpers module drives the same closed loop one step at a time
    # with no shared code beyond the component calls themselves; run_trial
    # works in noise chunks of 4096 steps and feeds the estimator in
    # blocks, so the cases cross chunk and 512-row fold boundaries
    spec, _ = ref
    big = reference_spec(n=8, m=4)
    # a dense SPD W, so chol W has nonzero entries below the diagonal
    M = np.random.default_rng(3).standard_normal((8, 8))
    dense_w = M @ M.T + 8 * np.eye(8)
    cases = {
        "3x2, T=200": (spec, 200, ControllerConfig()),
        "3x2, T=9000": (spec, 9000, ControllerConfig()),
        "8x4, dense W, T=4500": (
            PlantSpec(sys=big.sys, W=dense_w, cost=big.cost), 4500,
            ControllerConfig()),
        "3x2, every-step, T=300": (spec, 300,
                                   ControllerConfig("every-step")),
    }
    for label, (plant, T, controller) in cases.items():
        config = make_config(plant, horizon=T, base_seed=99,
                             controller=controller)
        result = run_trial(config, 0)
        manual = drive_trial(plant, T, seed=trial_seed(99, 0),
                             config=controller)
        for name in ("X", "U_ce", "U_cb", "U_pr", "W", "breaker"):
            assert np.array_equal(getattr(result.record, name),
                                  getattr(manual, name)), (label, name)
        assert np.array_equal(result.record.x_final, manual.x_final), label
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
    if a.record.x_final is None:
        assert b.record.x_final is None, label
    else:
        assert np.array_equal(a.record.x_final, b.record.x_final), label
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


def dense_w_8x4():
    big = reference_spec(n=8, m=4)
    M = np.random.default_rng(3).standard_normal((8, 8))
    return PlantSpec(sys=big.sys, W=M @ M.T + 8 * np.eye(8), cost=big.cost)


def test_batch_rows_match_trials_run_alone(ref):
    # a trial's outputs may not depend on the batch it runs in; the 3x2 and
    # 8x4 horizons cross a noise chunk, and an every-step batch updates
    # every trial's gain at every step (kept short: each update is a
    # Riccati solve)
    spec, _ = ref
    cases = {
        "3x2, T=4500": (spec, 4500, 4, ControllerConfig()),
        "8x4, dense W, T=4200": (dense_w_8x4(), 4200, 3, ControllerConfig()),
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
    # the acceptance long run never holds all 50 trials at once; the
    # benchmark workloads each fit one batch
    assert len(trial_batches(make_config(spec, horizon=100_000,
                                         trials=50))) > 1
    assert len(trial_batches(make_config(spec, horizon=12_500,
                                         trials=4))) == 1
    assert len(trial_batches(make_config(big, horizon=2_500,
                                         trials=3))) == 1


def test_trial_record_satisfies_decomposition(ref):
    spec, oracle = ref
    result = run_trial(make_config(spec, horizon=2000), 1)
    report = decompose_at(result.record, oracle, spec, [2000])[0]
    assert report.within_tolerance
    assert report.regret == pytest.approx(result.summary.final_regret,
                                          rel=1e-9, abs=1e-9)


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
    assert result.record.x_final is None
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
    loaded = load_trial_csv(str(tmp_path / "trials" / "trial_0.csv"))
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
