"""Tests for the trial diagnostics.

Synthetic records with hand-placed breaker flags and gains pin down the
two detection times exactly; the envelope checks are exercised against
bounds recomputed inline, with the noise event also checked under a
non-identity W. The facts a trial's rows decide are regret.TrialFold's:
each is checked on the whole record, one block, and cut into blocks
around the rows that decide it, as analyze reads a log. The combined
per-trial diagnostics run on a short manually driven trial.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from alqr.control_math import (CostWeights, SystemMatrices, solve_dare,
                               stability_margin)
from alqr.controller import ControllerConfig, dwell
from alqr.diagnostics import (compute_trial_diagnostics, detect_t_stab,
                              fit_regret_slope, noise_bound, tnocb_histogram)
from alqr.errors import EmptyWindow, IncompleteLog
from alqr.plant import NOISE_CHUNK, PlantSpec
from alqr.records import TrialRecord
from alqr.regret import TrialFold
from helpers import blocks_of, drive_trial, reference_spec


def make_record(T, n=1, m=1, **over):
    fields = dict(
        trial_index=0, seed=0, X=np.zeros((T, n)), U_ce=np.zeros((T, m)),
        U_pr=np.zeros((T, m)), W=np.zeros((T, n)),
        breaker=np.zeros(T, dtype=np.int8), stage_cost=np.zeros(T),
        gain_segments=[])
    fields.update(over)
    return TrialRecord(**fields)


def scalar_spec(w=1.0):
    return PlantSpec(sys=SystemMatrices(A=np.array([[0.5]]),
                                        B=np.array([[1.0]])),
                     W=w * np.eye(1),
                     cost=CostWeights(Q=np.eye(1), R=np.eye(1)))


def fold_of(record, cuts=(), truth=None, delta=0.05):
    """A TrialFold fed ``record`` cut into blocks at ``cuts``: one block
    when there are none."""
    truth = scalar_spec() if truth is None else truth
    fold = TrialFold(solve_dare(truth.sys, truth.cost, truth.W), truth,
                     [record.horizon], delta)
    for block in blocks_of(record, cuts):
        fold.add(block)
    return fold


def t_nocb(record, cuts=()):
    facts = fold_of(record, cuts).facts()
    return facts["t_nocb"], facts["t_nocb_censored"]


def noise_holds(record, truth, delta, cuts=()):
    return fold_of(record, cuts, truth, delta).facts()["noise_event_holds"]


def norm_ratio(record, delta, cuts=()):
    return fold_of(record, cuts, delta=delta).facts()["max_state_norm_ratio"]


@pytest.fixture(scope="module")
def scalar_setup():
    spec = scalar_spec()
    return spec, solve_dare(spec.sys, spec.cost, spec.W)


@pytest.fixture(scope="module")
def driven():
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    record = drive_trial(spec, 400, seed=11)
    return spec, oracle, record


def test_t_nocb_quiet_log():
    record = make_record(40)
    assert t_nocb(record) == (1, False)
    assert t_nocb(record, (20,)) == (1, False)


def test_t_nocb_after_one_episode():
    # trigger at step 50, dwell through 53: first quiet step is 54
    record = make_record(80)
    record.breaker[49] = 2
    record.breaker[50:53] = 1
    assert t_nocb(record) == (54, False)
    # blocks that start at the trigger, inside the dwell and at the first
    # quiet step
    for cuts in ((50,), (52,), (54,), (50, 53, 54)):
        assert t_nocb(record, cuts) == (54, False), cuts


def test_t_nocb_censored_at_horizon():
    record = make_record(30)
    record.breaker[29] = 2
    assert t_nocb(record) == (31, True)
    for cuts in ((10,), (30,)):
        assert t_nocb(record, cuts) == (31, True), cuts
    # censored only by the last block: active at the end of an earlier one
    assert t_nocb(make_record(30, breaker=np.int8(
        [0] * 19 + [1] + [0] * 10)), (21,)) == (21, False)


def test_t_nocb_uses_last_episode():
    record = make_record(100)
    record.breaker[4] = 2
    record.breaker[70] = 1
    assert t_nocb(record) == (72, False)
    for cuts in ((6,), (71,), (6, 72)):
        assert t_nocb(record, cuts) == (72, False), cuts


def test_t_stab_scalar_hand_check(scalar_setup):
    # a = 0.5, b = q = r = 1: p* = (0.25 + sqrt(4.0625))/2 so the closed
    # loop is 0.5 - 0.5 p*/(1+p*) = 0.23443 and rho = (1 + rho*)/2 = 0.5275.
    # Steps 1 and 2 have t_k = 0, and the identity dwell map has margin 1,
    # so they fail; from step 3 on t_k >= 1 and 0.25 < rho
    spec, oracle = scalar_setup
    record = make_record(20, gain_segments=[(1, oracle.K_star)])
    assert detect_t_stab(record, oracle, spec) == (3, False)


def test_t_stab_bad_early_gain(scalar_setup):
    # gain +1 gives closed loop 1.5, margin 2.25 > rho until the switch
    spec, oracle = scalar_setup
    record = make_record(25, gain_segments=[(1, np.array([[1.0]])),
                                            (10, oracle.K_star)])
    assert detect_t_stab(record, oracle, spec) == (10, False)


def test_t_stab_censored_when_final_segment_bad(scalar_setup):
    spec, oracle = scalar_setup
    T = 25
    record = make_record(T, gain_segments=[(1, oracle.K_star),
                                           (T, np.array([[1.0]]))])
    assert detect_t_stab(record, oracle, spec) == (T + 1, True)


def _t_stab_span_by_span(record, oracle, spec):
    """detect_t_stab written out with one 2-d margin per dwell or gain span."""
    T = record.horizon
    A, B = spec.sys.A, spec.sys.B
    rho = 0.5 * (1.0 + oracle.rho_star)
    last_bad = 0
    M = np.eye(spec.n)
    for t in range(dwell(T) + 1):
        start = math.ceil(math.e ** t)
        end = min(math.ceil(math.e ** (t + 1)) - 1, T)
        if start <= end and not stability_margin(M, oracle.P_star) < rho:
            last_bad = max(last_bad, end)
        M = M @ A
    segments = sorted(record.gain_segments, key=lambda seg: seg[0])
    for idx, (start, K) in enumerate(segments):
        end = segments[idx + 1][0] - 1 if idx + 1 < len(segments) else T
        end = min(end, T)
        if (start <= end
                and not stability_margin(A + B @ K, oracle.P_star) < rho):
            last_bad = max(last_bad, end)
    return (1, False) if last_bad == 0 else (last_bad + 1, last_bad == T)


@pytest.mark.parametrize("schedule", ["powers-of-two", "every-step"])
def test_t_stab_one_stacked_call_matches_span_by_span(driven, schedule):
    # under every-step each of the 300 steps opens a gain segment, all
    # judged in one stacked stability_margin call
    spec, oracle, _ = driven
    for seed in (11, 12, 13):
        record = drive_trial(spec, 300, seed=seed,
                             config=ControllerConfig(schedule))
        assert detect_t_stab(record, oracle, spec) == _t_stab_span_by_span(
            record, oracle, spec)
    # a bad gain that starts past the horizon opens no span
    record = make_record(30, n=spec.n, m=spec.m,
                         gain_segments=[(1, oracle.K_star),
                                        (31, np.full((spec.m, spec.n), 9.0))])
    assert detect_t_stab(record, oracle, spec) == _t_stab_span_by_span(
        record, oracle, spec)


@pytest.mark.parametrize("offset", [-1, 0], ids=["last_of_first_block",
                                                 "first_of_second_block"])
def test_t_stab_blocks_of_spans_meet_at_the_edge(monkeypatch, offset):
    # one gain segment per step and a bad gain on the span on either side
    # of the first block edge: the dwell spans come first, so the segment
    # from step s is span dwell(T) + s - 1 (0-based), and each block of at
    # most NOISE_CHUNK spans is one stacked stability_margin call
    spec = reference_spec()
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    T = NOISE_CHUNK + 200
    bad = NOISE_CHUNK + offset - dwell(T) + 1
    segments = [(k, oracle.K_star) for k in range(1, T + 1)]
    segments[bad - 1] = (bad, np.full((spec.m, spec.n), 9.0))
    record = make_record(T, n=spec.n, m=spec.m, gain_segments=segments)
    sizes = []
    judge = stability_margin

    def spy(M, P):
        sizes.append(len(M))
        return judge(M, P)

    monkeypatch.setattr("alqr.diagnostics.stability_margin", spy)
    assert detect_t_stab(record, oracle, spec) == _t_stab_span_by_span(
        record, oracle, spec) == (bad + 1, False)
    assert sizes == [NOISE_CHUNK, dwell(T) + 1 + T - NOISE_CHUNK]


def test_t_stab_requires_gain_history(scalar_setup):
    spec, oracle = scalar_setup
    record = make_record(10)
    with pytest.raises(IncompleteLog):
        detect_t_stab(record, oracle, spec)


def test_noise_event_zero_noise_holds():
    record = make_record(50)
    assert noise_holds(record, scalar_spec(), delta=0.5)


def test_noise_event_flags_large_process_noise():
    unit = scalar_spec()
    record = make_record(50)
    limit = noise_bound(1, 1, 0.5)
    record.W[0, 0] = 8.0
    assert 8.0 > limit
    assert not noise_holds(record, unit, delta=0.5)
    record.W[0, 0] = 0.9 * limit
    assert noise_holds(record, unit, delta=0.5)
    # the same draw under W = 100 I is logged 10x larger; whitening by
    # chol(W) = 10 brings it back under the envelope
    loud = replace(record, W=10.0 * record.W)
    assert not noise_holds(loud, unit, delta=0.5)
    assert noise_holds(loud, scalar_spec(100.0), delta=0.5)


def test_noise_event_whitens_by_the_lower_cholesky_factor():
    # w_k = L g_k with a dense L, so only L^-1 w_k gives back g_k: a
    # transposed or wrong-triangle solve misjudges rows at the envelope
    n, T, delta = 4, 300, 0.05
    rng = np.random.default_rng(8)
    G = rng.standard_normal((n, n))
    spec = PlantSpec(sys=SystemMatrices(A=0.5 * np.eye(n), B=np.ones((n, 1))),
                     W=G @ G.T + 0.5 * np.eye(n),
                     cost=CostWeights(Q=np.eye(n), R=np.eye(1)))
    L = spec.chol_W
    assert np.count_nonzero(np.tril(L, -1)) == n * (n - 1) // 2
    dirs = rng.standard_normal((T, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    g = dirs * noise_bound(np.arange(1, T + 1), n, delta)[:, None]
    inside = make_record(T, n=n, W=(1.0 - 1e-9) * g @ L.T)
    assert noise_holds(inside, spec, delta)
    outside = inside.W.copy()
    outside[T // 2] = (1.0 + 1e-9) * L @ g[T // 2]
    assert not noise_holds(replace(inside, W=outside), spec, delta)
    # a NaN row fails the envelope instead of raising
    nan_row = inside.W.copy()
    nan_row[7] = np.nan
    assert not noise_holds(replace(inside, W=nan_row), spec, delta)
    # cut into blocks, each row keeps its own step's envelope
    for cuts in ((2,), (T // 2, T // 2 + 1), (8, 200)):
        assert noise_holds(inside, spec, delta, cuts)
        assert not noise_holds(replace(inside, W=outside), spec, delta, cuts)
        assert not noise_holds(replace(inside, W=nan_row), spec, delta, cuts)


def test_noise_event_recovers_probe_draw():
    # u_pr = 5 at k = 16 means the raw draw was 5 * 16^(1/4) = 10
    record = make_record(50)
    record.U_pr[15, 0] = 5.0
    assert 10.0 > noise_bound(16, 1, 0.5)
    assert not noise_holds(record, scalar_spec(), delta=0.5)
    # the probe scale is the row's step's, in any block
    for cuts in ((16,), (10, 17)):
        assert not noise_holds(record, scalar_spec(), 0.5, cuts)


def test_noise_event_delta_range(scalar_setup):
    spec, oracle = scalar_setup
    with pytest.raises(ValueError):
        TrialFold(oracle, spec, [5], delta=0.6)
    with pytest.raises(ValueError):
        TrialFold(oracle, spec, [5], delta=0.0)


def test_max_state_norm_ratio_manual():
    record = make_record(3)
    record.X[:, 0] = [1.0, 2.0, 6.0]
    expected = max(1.0 / math.log(10.0), 2.0 / math.log(20.0),
                   6.0 / math.log(30.0))
    assert norm_ratio(record, delta=0.1) == pytest.approx(
        expected, rel=1e-12)
    for cuts in ((2,), (3,), (2, 3)):
        assert norm_ratio(record, 0.1, cuts) == norm_ratio(record, 0.1), cuts


def test_fit_slope_recovers_power_law():
    curve = [(T, 3.0 / math.sqrt(T)) for T in (10, 100, 1000, 10000)]
    est = fit_regret_slope(curve, (1, 1e5))
    assert est.slope == pytest.approx(-0.5, abs=1e-9)
    assert est.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.points_used == 4
    assert est.excluded_nonpositive == 0


def test_fit_slope_constant_curve():
    est = fit_regret_slope([(10, 5.0), (100, 5.0), (1000, 5.0)], (1, 1e4))
    assert est.slope == pytest.approx(0.0, abs=1e-12)
    assert est.r_squared == 1.0


def test_fit_slope_window_and_exclusions():
    curve = [(T, 3.0 / math.sqrt(T)) for T in (10, 100, 1000, 10000)]
    curve += [(300, 0.0), (500, -2.0)]
    est = fit_regret_slope(curve, (1, 1e5))
    assert est.points_used == 4
    assert est.excluded_nonpositive == 2
    assert est.slope == pytest.approx(-0.5, abs=1e-9)
    with pytest.raises(EmptyWindow):
        fit_regret_slope(curve, (50, 150))
    with pytest.raises(ValueError):
        fit_regret_slope(curve, (100, 10))


def test_tnocb_histogram_bins():
    edges, counts = tnocb_histogram([1, 1, 2, 3, 54], horizon=60)
    assert edges == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    assert counts == [2, 2, 0, 0, 0, 1]
    # censored value horizon+1 must land inside the top bin
    _, counts = tnocb_histogram([61], horizon=60)
    assert counts[-1] == 1
    assert sum(counts) == 1


def test_trial_diagnostics_consistency(driven):
    spec, oracle, record = driven
    fold = TrialFold(oracle, spec, [record.horizon], 0.01)
    fold.add(record)
    diag = compute_trial_diagnostics(fold, record)
    assert (diag["t_stab"], diag["t_stab_censored"]) == detect_t_stab(
        record, oracle, spec)
    assert diag == {**fold.facts(), "t_stab": diag["t_stab"],
                    "t_stab_censored": diag["t_stab_censored"]}
    assert diag["t_nocb"] == 1 + max(
        np.flatnonzero(record.breaker).tolist(), default=0)
    assert diag["max_state_norm_ratio"] > 0.0
    # the same values from blocks, the ratio to the bit
    for cuts in ((100,), (7, 8, 399)):
        assert fold_of(record, cuts, spec, 0.01).facts() == fold.facts()
