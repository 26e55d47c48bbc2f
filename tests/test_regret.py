"""Regret accounting and decomposition identity tests.

The decomposition is an algebraic identity, so every test here has an
independent expected value: hand expansion for T = 1, a manually driven
closed loop for longer records, and hand arithmetic for stage costs. A
record fed to a TrialFold in blocks must give the bits of the one-block
fold: its facts, checkpoint sums and decomposition reports alike.
"""

from dataclasses import asdict, astuple

import numpy as np
import pytest

from alqr.control_math import CostWeights, solve_dare
from alqr.harness import ExperimentConfig, run_trial
from alqr.plant import NOISE_CHUNK, step
from alqr.records import TrialRecord
from alqr.regret import TrialFold, decompose_at, row_norms, stage_costs
from helpers import blocks_of, drive_trial, reference_spec


def test_stage_costs_hand_values():
    cost = CostWeights(Q=np.eye(2), R=np.eye(1))
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    U = np.array([[0.0], [1.0]])
    stage = stage_costs(X, U, cost)
    assert stage.shape == (2,)
    assert stage[0] == 0.0
    assert abs(stage[1] - 2.0) < 1e-15
    scalar_cost = CostWeights(Q=np.array([[2.0]]), R=np.array([[3.0]]))
    other = stage_costs(np.array([[1.0]]), np.array([[-1.0]]), scalar_cost)
    assert abs(other[0] - 5.0) < 1e-15


@pytest.mark.parametrize("n", range(1, 17))
def test_row_norms_are_the_bits_of_np_linalg_norm(n):
    # a chunk of step-major (L, N, n) rows at scales from 1e-30 to 1e30,
    # with rows whose squares overflow or underflow and rows holding a NaN
    # or an inf, in contiguous and strided layouts
    rng = np.random.default_rng(n)
    X = rng.standard_normal((300, 4, n)) * np.exp(
        rng.uniform(-70.0, 70.0, (300, 4, 1)))
    X[0, 0] = 1e200
    X[1, 1] = 1e-200
    X[2, 2, 0] = 1e155
    X[3, 3, -1] = 1e-170
    X[4, 0, n // 2] = np.nan
    X[5, 1, -1] = np.inf
    X[6, 2, 0] = -np.inf
    X[7, 3] = 0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for block in (X, X[::3, 1:], X.swapaxes(0, 1)):
            got = row_norms(block)
            assert got.tobytes() == np.linalg.norm(block, axis=-1).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_stage_cost_rows_are_the_same_bits_in_any_block(n):
    # einsum sums a block of one or two rows with a 2 x 2 weight in another
    # order than a longer block; a trial's last noise chunk can hold one or
    # two rows, and its stage costs must be those of the whole trial
    rng = np.random.default_rng(n)
    Q, R = (M @ M.T + len(M) * np.eye(len(M))
            for M in (rng.standard_normal((n, n)),
                      rng.standard_normal((2, 2))))
    cost = CostWeights(Q=Q, R=R)
    X = rng.standard_normal((60, n))
    U = rng.standard_normal((60, 2))
    whole = stage_costs(X, U, cost)
    for size in (1, 2, 3, 7):
        parts = [stage_costs(X[a:a + size], U[a:a + size], cost)
                 for a in range(0, 60, size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), size


def test_decompose_zero_noise_optimal_gain():
    # nothing moves: every term vanishes except R5 = -T J*, and the regret
    # itself is -T J*
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    T = 25
    n, m = spec.n, spec.m
    record = TrialRecord(
        trial_index=0, seed=0, X=np.zeros((T, n)), U_ce=np.zeros((T, m)),
        U_pr=np.zeros((T, m)), W=np.zeros((T, n)),
        breaker=np.zeros(T, dtype=np.int8), stage_cost=np.zeros(T),
        gain_segments=[(1, oracle.K_star)])
    report = decompose_at(record, oracle, spec, [record.horizon])[0]
    assert abs(report.R5 + T * oracle.J_star) < 1e-12
    for name in ("R1", "R2", "R3", "R4", "R6", "R7"):
        assert getattr(report, name) == 0.0
    assert abs(report.regret + T * oracle.J_star) < 1e-9
    assert report.residual <= 1e-6 * (1.0 + abs(report.regret))


def test_decompose_single_step_hand_expansion():
    # x1 = 0, gain 0, no trigger: u = u_pr, x2 = B u_pr + w, and the sum
    # collapses to u_pr'R u_pr - J*; x2 is not in the record, so R6 checks
    # the state decompose_at derives one plant step past the log
    spec = reference_spec(seed=3)
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    rng = np.random.default_rng(77)
    u_pr = rng.standard_normal(spec.m)
    w = rng.standard_normal(spec.n)
    x2 = spec.sys.B @ u_pr + w
    stage = float(u_pr @ spec.cost.R @ u_pr)
    record = TrialRecord(
        trial_index=0, seed=0, X=np.zeros((1, spec.n)),
        U_ce=np.zeros((1, spec.m)), U_pr=u_pr[None, :], W=w[None, :],
        breaker=np.zeros(1, dtype=np.int8), stage_cost=np.array([stage]),
        gain_segments=[(1, np.zeros((spec.m, spec.n)))])
    report = decompose_at(record, oracle, spec, [record.horizon])[0]
    expected = stage - oracle.J_star
    assert abs(report.regret - expected) < 1e-12
    assert abs(report.total - expected) < 1e-9
    assert report.residual <= 1e-6 * (1.0 + abs(expected))
    # term-level hand values
    P = oracle.P_star
    assert report.R1 == 0.0 and report.R2 == 0.0 and report.R3 == 0.0
    s = spec.sys.B @ u_pr + w
    assert abs(report.R4 - (s @ P @ s - w @ P @ w)) < 1e-12
    assert abs(report.R5 - (w @ P @ w - oracle.J_star)) < 1e-12
    assert abs(report.R6 + x2 @ P @ x2) < 1e-12
    assert abs(report.R7 - stage) < 1e-12


def test_decompose_identity_on_driven_trial():
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    record = drive_trial(spec, T=600, seed=2024)
    checkpoints = [1, 2, 3, 10, 50, 100, 599, 600]
    reports = decompose_at(record, oracle, spec, checkpoints)
    for report in reports:
        assert report.residual <= 1e-6 * (1.0 + abs(report.regret))
    # a single-prefix call agrees with the same prefix in the batch
    single = decompose_at(record, oracle, spec, [50])[0]
    assert single == reports[checkpoints.index(50)]


def reports_bytes(reports):
    return np.array(list(map(astuple, reports))).tobytes()


@pytest.mark.parametrize("cuts", [(2,), (51, 101), (100, 300, 600)],
                         ids=["after-1", "after-50-100", "after-99-299-599"])
def test_fold_over_blocks_matches_one_block(cuts):
    # checkpoints 1, 50, 100 and 599 end blocks here, so their boundary
    # state is the next block's first row; 600 is the last row, one
    # plant.step past it
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    record = drive_trial(spec, T=600, seed=2024)
    checkpoints = [1, 2, 3, 10, 50, 100, 599, 600]
    fold = TrialFold(oracle, spec, checkpoints[:-1], 0.05, audit=True)
    for block in blocks_of(record, cuts):
        fold.add(block)
    # the last step is reported without being a checkpoint, as analyze
    # asks for a log's last step
    got = fold.reports(checkpoints)
    want = decompose_at(record, oracle, spec, checkpoints)
    assert reports_bytes(got) == reports_bytes(want)


def test_every_fold_fact_is_the_same_bits_in_any_blocks():
    # base seed 0: the breaker is active at steps 8-13 only (t_nocb 14)
    # and the state-norm ratio peaks at step 8, so a fold that dropped a
    # carry at a block start would read the later blocks alone. The cuts
    # include the blocks run_trial's own fold is fed: rows of NOISE_CHUNK
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    T = 2 * NOISE_CHUNK + 808
    config = ExperimentConfig(plant=spec, horizon=T, trials=1, base_seed=0,
                              checkpoint_factor=2.0)
    result = run_trial(config, 0, oracle)
    record = result.record
    assert np.flatnonzero(record.breaker).tolist() == list(range(7, 13))
    cps = config.checkpoints()
    assert {NOISE_CHUNK, 2 * NOISE_CHUNK} <= set(cps.tolist())
    cut_sets = [(9,), (20,), (NOISE_CHUNK + 1,),
                (NOISE_CHUNK + 1, 2 * NOISE_CHUNK + 1),
                (NOISE_CHUNK, NOISE_CHUNK + 2, 2 * NOISE_CHUNK, T),
                (2, 14, 1000, NOISE_CHUNK + 1, 5000, T - 1)]
    for audit in (False, True):
        whole = TrialFold(oracle, spec, cps, config.delta, audit=audit)
        whole.add(record)
        facts = whole.facts()
        assert facts["t_nocb"] == 14 and not facts["t_nocb_censored"]
        summary = asdict(result.summary)
        assert {k: summary[k] for k in facts} == facts
        assert whole.rel_avg_regret().tobytes() == \
            result.rel_avg_regret.tobytes()
        for cuts in cut_sets:
            fold = TrialFold(oracle, spec, cps, config.delta, audit=audit)
            for block in blocks_of(record, cuts):
                fold.add(block)
            assert fold.facts() == facts, cuts
            assert fold.at.tobytes() == whole.at.tobytes(), cuts
            assert fold.sums.tobytes() == whole.sums.tobytes(), cuts
            if audit:
                assert reports_bytes(fold.reports(cps)) == \
                    reports_bytes(whole.reports(cps)), cuts


def test_decompose_identity_with_forced_breaker_activity():
    # a huge forced gain guarantees trigger/dwell steps appear in the log
    spec = reference_spec(seed=9)
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    force = np.full((spec.m, spec.n), 4.0)
    record = drive_trial(spec, T=300, seed=55, force_gain=force)
    assert np.any(record.breaker == 2) and np.any(record.breaker == 1)
    report = decompose_at(record, oracle, spec, [record.horizon])[0]
    assert report.residual <= 1e-6 * (1.0 + abs(report.regret))


def test_r1_respects_breaker_gain_selection():
    spec = reference_spec(seed=9)
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    force = np.full((spec.m, spec.n), 4.0)
    record = drive_trial(spec, T=200, seed=56, force_gain=force)
    G = spec.cost.R + spec.sys.B.T @ oracle.P_star @ spec.sys.B
    manual = 0.0
    for i in range(record.horizon):
        K_k = np.zeros_like(force) if record.breaker[i] != 0 else force
        err = (K_k - oracle.K_star) @ record.X[i]
        manual += float(err @ G @ err)
    report = decompose_at(record, oracle, spec, [record.horizon])[0]
    assert abs(report.R1 - manual) < 1e-9 * (1.0 + abs(manual))


def test_r6_nonpositive_from_zero_start():
    spec = reference_spec(seed=5)
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    for seed in (1, 2, 3):
        record = drive_trial(spec, T=120, seed=seed)
        report = decompose_at(record, oracle, spec, [record.horizon])[0]
        assert report.R6 <= 0.0


def test_horizon_boundary_is_the_next_logged_state():
    # the state after the last step is not in a record; decompose_at
    # derives it with plant.step, and it must be the bits a trial one step
    # longer logs there (noise is addressed by step, so the two trials
    # agree on their common rows)
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    T = 4096
    short, longer = (
        run_trial(ExperimentConfig(plant=spec, horizon=h, trials=1,
                                   base_seed=3), 0, oracle).record
        for h in (T, T + 1))
    assert np.array_equal(longer.X[:T], short.X)
    x_next = step(short.X[-1], short.U_cb[-1] + short.U_pr[-1],
                  short.W[-1], spec)
    assert np.array_equal(x_next, longer.X[T])
    P, x1 = oracle.P_star, short.X[0]
    report = decompose_at(short, oracle, spec, [T])[0]
    assert report.R6 == float(x1 @ P @ x1 - x_next @ P @ x_next)
    assert report.within_tolerance
    # short of the horizon the boundary is the logged row itself
    x_mid = short.X[100]
    assert decompose_at(short, oracle, spec, [100])[0].R6 == \
        float(x1 @ P @ x1 - x_mid @ P @ x_mid)


def test_decompose_checkpoint_bounds():
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    record = drive_trial(spec, T=10, seed=1)
    with pytest.raises(ValueError):
        decompose_at(record, oracle, spec, [0])
    with pytest.raises(ValueError):
        decompose_at(record, oracle, spec, [11])
