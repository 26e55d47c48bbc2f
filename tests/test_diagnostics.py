"""Tests for the post-hoc trial diagnostics.

Synthetic records with hand-placed breaker flags and gains pin down the
two detection times exactly; the envelope checks are exercised against
bounds recomputed inline. Concentration monitors run on a short manually
driven trial plus hand-built violating records.
"""

import math

import numpy as np
import pytest

from alqr.control_math import CostWeights, SystemMatrices, solve_dare
from alqr.diagnostics import (check_cov_event, check_cross_event,
                              check_est_event, check_noise_event,
                              compute_trial_diagnostics, detect_t_nocb,
                              detect_t_stab, fit_regret_slope,
                              max_state_norm_ratio, noise_bound,
                              tnocb_histogram)
from alqr.errors import EmptyWindow, IncompleteLog
from alqr.plant import PlantSpec
from alqr.records import TrialRecord
from helpers import drive_trial, reference_spec


def make_record(T, n=1, m=1, **over):
    fields = dict(
        trial_index=0, seed=0, X=np.zeros((T, n)), U_ce=np.zeros((T, m)),
        U_cb=np.zeros((T, m)), U_pr=np.zeros((T, m)), W=np.zeros((T, n)),
        breaker=np.zeros(T, dtype=np.int8), stage_cost=np.zeros(T),
        x_final=np.zeros(n), gain_segments=[])
    fields.update(over)
    return TrialRecord(**fields)


def scalar_spec():
    return PlantSpec(sys=SystemMatrices(A=np.array([[0.5]]),
                                        B=np.array([[1.0]])),
                     W=np.eye(1),
                     cost=CostWeights(Q=np.eye(1), R=np.eye(1)))


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
    assert detect_t_nocb(record) == (1, False)


def test_t_nocb_after_one_episode():
    # trigger at step 50, dwell through 53: first quiet step is 54
    record = make_record(80)
    record.breaker[49] = 2
    record.breaker[50:53] = 1
    assert detect_t_nocb(record) == (54, False)


def test_t_nocb_censored_at_horizon():
    record = make_record(30)
    record.breaker[29] = 2
    assert detect_t_nocb(record) == (31, True)


def test_t_nocb_uses_last_episode():
    record = make_record(100)
    record.breaker[4] = 2
    record.breaker[70] = 1
    assert detect_t_nocb(record) == (72, False)


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


def test_t_stab_requires_gain_history(scalar_setup):
    spec, oracle = scalar_setup
    record = make_record(10)
    with pytest.raises(IncompleteLog):
        detect_t_stab(record, oracle, spec)


def test_t_stab_log_base_two(scalar_setup):
    # base 2 makes t_k = 1 already at k = 2, so only step 1 fails
    spec, oracle = scalar_setup
    record = make_record(16, gain_segments=[(1, oracle.K_star)])
    assert detect_t_stab(record, oracle, spec, log_base=2.0) == (2, False)


def test_noise_event_zero_noise_holds():
    record = make_record(50)
    assert check_noise_event(record, delta=0.5)


def test_noise_event_flags_large_process_noise():
    record = make_record(50)
    limit = noise_bound(1, 1, 0.5)
    record.W[0, 0] = 8.0
    assert 8.0 > limit
    assert not check_noise_event(record, delta=0.5)
    record.W[0, 0] = 0.9 * limit
    assert check_noise_event(record, delta=0.5)


def test_noise_event_recovers_probe_draw():
    # u_pr = 5 at k = 16 means the raw draw was 5 * 16^(1/4) = 10
    record = make_record(50)
    record.U_pr[15, 0] = 5.0
    assert 10.0 > noise_bound(16, 1, 0.5)
    assert not check_noise_event(record, delta=0.5)


def test_noise_event_delta_range():
    record = make_record(5)
    with pytest.raises(ValueError):
        check_noise_event(record, delta=0.6)
    with pytest.raises(ValueError):
        check_noise_event(record, delta=0.0)


def test_max_state_norm_ratio_manual():
    record = make_record(3)
    record.X[:, 0] = [1.0, 2.0, 6.0]
    expected = max(1.0 / math.log(10.0), 2.0 / math.log(20.0),
                   6.0 / math.log(30.0))
    assert max_state_norm_ratio(record, delta=0.1) == pytest.approx(
        expected, rel=1e-12)


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


def test_cov_event_holds_on_gaussian_noise(driven):
    spec, oracle, record = driven
    assert check_cov_event(record, delta=0.01)
    assert check_cov_event(record, delta=0.01, at_steps=[10, 400])


def test_cov_event_flags_inflated_noise():
    record = make_record(50, W=10.0 * np.ones((50, 1)))
    assert not check_cov_event(record, delta=0.1)


def test_cov_event_argument_checks():
    record = make_record(10)
    with pytest.raises(ValueError):
        check_cov_event(record, delta=0.2)  # above 1/(8 n^2) for n = 1
    with pytest.raises(ValueError):
        check_cov_event(record, delta=0.1, at_steps=[0])
    with pytest.raises(ValueError):
        check_cov_event(record, delta=0.1, at_steps=[11])


def test_cross_event_holds_on_driven_trial(driven):
    spec, oracle, record = driven
    assert check_cross_event(record, oracle, spec, delta=0.1)


def test_cross_event_flags_aligned_feedback(scalar_setup):
    # x_1 = 0, so the k = 1 term is w_1 p* u_cb_1 = 2 * 1.1328 * 100,
    # well above C_cross * ln(6)^2 which is about 178 for this plant
    spec, oracle = scalar_setup
    record = make_record(5)
    record.U_cb[0, 0] = 100.0
    record.W[0, 0] = 2.0
    assert not check_cross_event(record, oracle, spec, delta=1.0 / 6.0)
    with pytest.raises(ValueError):
        check_cross_event(record, oracle, spec, delta=0.2)


def test_est_event_past_burn_in(scalar_setup):
    # delta = 1/2 puts the burn-in at ceil(1200 ln 2 + 5400) = 6232
    spec, oracle = scalar_setup
    record = drive_trial(spec, 7000, seed=3)
    holds, checked = check_est_event(record, spec, delta=0.5,
                                     at_steps=[6232, 7000])
    assert holds
    assert checked == 2
    holds, checked = check_est_event(record, spec, delta=0.5,
                                     at_steps=[100])
    assert holds
    assert checked == 0


def test_est_event_needs_final_state(scalar_setup):
    spec, oracle = scalar_setup
    record = make_record(10, x_final=None)
    with pytest.raises(IncompleteLog):
        check_est_event(record, spec, delta=0.5, at_steps=[10])
    good = make_record(10)
    with pytest.raises(ValueError):
        check_est_event(good, spec, delta=0.5, at_steps=[11])


def test_trial_diagnostics_consistency(driven):
    spec, oracle, record = driven
    diag = compute_trial_diagnostics(record, oracle, spec, delta=0.01)
    assert (diag["t_nocb"], diag["t_nocb_censored"]) == detect_t_nocb(record)
    assert (diag["t_stab"], diag["t_stab_censored"]) == detect_t_stab(
        record, oracle, spec)
    assert diag["noise_event_holds"] == check_noise_event(record, 0.01)
    assert diag["max_state_norm_ratio"] == max_state_norm_ratio(record, 0.01)
    assert diag["max_state_norm_ratio"] > 0.0
