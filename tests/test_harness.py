"""Experiment harness tests.

The independent oracle for run_trial is the hand-written loop in
tests/helpers.py: both must produce bit-identical logs from the same seed.
Aggregation is checked for order-independence (serial vs process pool) and
for the documented failure accounting.
"""

import os

import numpy as np
import pytest

from alqr.control_math import CostWeights, SystemMatrices, solve_dare
from alqr.harness import (ExperimentConfig, TrialSummary, checkpoint_steps,
                          generate_stand_in_plant, resolve_workers,
                          run_experiment, run_trial, trial_seed)
from alqr.plant import PlantSpec
from alqr.records import load_gain_sidecar, load_trial_csv
from alqr.regret import decompose
from helpers import drive_trial, reference_spec


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
    # with no shared code beyond the component calls themselves
    spec, _ = ref
    T = 200
    config = make_config(spec, horizon=T, base_seed=99)
    result = run_trial(config, 0)
    manual = drive_trial(spec, T, seed=trial_seed(99, 0))
    for name in ("X", "U_ce", "U_cb", "U_pr", "W", "breaker"):
        assert np.array_equal(getattr(result.record, name),
                              getattr(manual, name)), name
    assert np.array_equal(result.record.x_final, manual.x_final)
    assert np.allclose(result.record.stage_cost, manual.stage_cost,
                       rtol=1e-12, atol=1e-12)
    assert [s for s, _ in result.record.gain_segments] == \
        [s for s, _ in manual.gain_segments]
    for (_, ka), (_, kb) in zip(result.record.gain_segments,
                                manual.gain_segments):
        assert np.array_equal(ka, kb)


def test_trial_record_satisfies_decomposition(ref):
    spec, oracle = ref
    result = run_trial(make_config(spec, horizon=2000), 1)
    report = decompose(result.record, oracle, spec)
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
