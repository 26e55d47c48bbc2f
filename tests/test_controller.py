"""Breaker state machine and gain-update tests."""

import math

import numpy as np

from alqr.control_math import CostWeights
from alqr.controller import AdaptiveController, ControllerConfig
from alqr.plant import NoiseStream


def make_controller(n=1, m=1, schedule="powers-of-two"):
    return AdaptiveController(
        ControllerConfig(gain_update_schedule=schedule),
        state_dim=n, input_dim=m,
        cost=CostWeights(Q=np.eye(n), R=np.eye(m)))


def scalar_gain_oracle():
    p = (0.25 + math.sqrt(0.25 ** 2 + 4.0)) / 2.0
    return -0.5 * p / (1.0 + p)


def test_schedule_powers_of_two():
    config = ControllerConfig()
    fired = [k for k in range(1, 40) if config.schedule_fires(k)]
    assert fired == [1, 2, 4, 8, 16, 32]
    every = ControllerConfig(gain_update_schedule="every-step")
    assert all(every.schedule_fires(k) for k in range(1, 40))


def test_update_gain_skips_off_schedule_steps():
    ctrl = make_controller()
    ctrl.Khat = np.array([[0.7]])
    assert not ctrl.update_gain(3)
    assert ctrl.Khat[0, 0] == 0.7


def test_update_gain_empty_estimator_gives_zero_gain():
    ctrl = make_controller(n=2, m=1)
    assert ctrl.update_gain(1)
    assert np.array_equal(ctrl.Khat, np.zeros((1, 2)))


def test_update_gain_exact_estimate_hits_oracle():
    # noiseless scalar data pins the estimate to the truth, so the
    # synthesized gain must match the closed-form optimum
    ctrl = make_controller()
    a, b = 0.5, 1.0
    rng = np.random.default_rng(6)
    x = 0.0
    for _ in range(12):
        u = rng.standard_normal()
        x_next = a * x + b * u
        ctrl.estimator.absorb(np.array([x, u]), np.array([x_next]))
        x = x_next
    assert ctrl.update_gain(16)
    assert abs(ctrl.Khat[0, 0] - scalar_gain_oracle()) < 1e-9


def test_update_gain_uncontrollable_estimate_falls_back_to_zero():
    ctrl = make_controller(n=2, m=1)
    # drive only the first coordinate: B_hat column stays in span{e1}
    # and A_hat is diagonal-ish on e1, so the pair cannot be controllable
    for i in range(20):
        z = np.array([float(i % 3), 0.0, 1.0])
        ctrl.estimator.absorb(z, np.array([z[0] * 0.5 + 1.0, 0.0]))
    ctrl.Khat = np.ones((1, 2))
    assert ctrl.update_gain(32)
    assert np.array_equal(ctrl.Khat, np.zeros((1, 2)))


def test_compute_input_step_one_no_trigger_at_zero_norm():
    ctrl = make_controller()
    stream = NoiseStream(seed=1, state_dim=1, input_dim=1)
    out = ctrl.compute_input(1, np.zeros(1), stream)
    assert np.array_equal(out.u_ce, np.zeros(1))
    assert np.array_equal(out.u_cb, np.zeros(1))
    assert not out.breaker_active
    assert not out.breaker_triggered_now
    assert ctrl.xi == 0


def test_compute_input_dwell_branch_decrements():
    ctrl = make_controller()
    ctrl.xi = 3
    ctrl.Khat = np.array([[100.0]])  # huge feedback must be ignored mid-dwell
    stream = NoiseStream(seed=2, state_dim=1, input_dim=1)
    out = ctrl.compute_input(10, np.array([5.0]), stream)
    assert out.breaker_active
    assert not out.breaker_triggered_now
    assert np.array_equal(out.u_cb, np.zeros(1))
    assert ctrl.xi == 2


def test_compute_input_trigger_sets_dwell():
    ctrl = make_controller()
    ctrl.Khat = np.array([[1.0]])
    stream = NoiseStream(seed=3, state_dim=1, input_dim=1)
    out = ctrl.compute_input(100, np.array([5.0]), stream)  # ||u_ce|| = 5 > ln 100
    assert out.breaker_triggered_now
    assert out.breaker_active
    assert np.array_equal(out.u_cb, np.zeros(1))
    assert ctrl.xi == 4  # floor(ln 100)


def test_dwell_end_defers_threshold_to_next_step():
    ctrl = make_controller()
    ctrl.Khat = np.array([[10.0]])
    ctrl.xi = 1
    stream = NoiseStream(seed=4, state_dim=1, input_dim=1)
    out = ctrl.compute_input(50, np.array([3.0]), stream)
    assert out.breaker_active and not out.breaker_triggered_now
    assert ctrl.xi == 0
    out2 = ctrl.compute_input(51, np.array([3.0]), stream)
    assert out2.breaker_triggered_now
    assert ctrl.xi == ControllerConfig().dwell(51)


def test_probe_decay_exact():
    ctrl = make_controller(n=2, m=2)
    stream = NoiseStream(seed=9, state_dim=2, input_dim=2)
    for k in (1, 7, 100, 4096):
        out = ctrl.compute_input(k, np.zeros(2), stream)
        v = stream.lane_row("v", k)
        assert np.array_equal(out.u_pr, k ** -0.25 * v)
        ratio = np.linalg.norm(out.u_pr) / np.linalg.norm(v)
        assert abs(ratio - k ** -0.25) < 1e-12


def test_superposition_identity():
    ctrl = make_controller()
    ctrl.Khat = np.array([[0.3]])
    stream = NoiseStream(seed=10, state_dim=1, input_dim=1)
    for k in range(1, 30):
        out = ctrl.compute_input(k, np.array([1.0]), stream)
        assert np.array_equal(out.u, out.u_cb + out.u_pr)
        if out.breaker_active:
            assert np.array_equal(out.u_cb, np.zeros(1))
        else:
            assert np.array_equal(out.u_cb, out.u_ce)


def test_breaker_arithmetic_replay():
    # force frequent triggers and check every trigger is followed by exactly
    # floor(ln k) zero-feedback steps before the threshold can fire again
    ctrl = make_controller()
    ctrl.Khat = np.array([[50.0]])
    stream = NoiseStream(seed=11, state_dim=1, input_dim=1)
    events = []
    for k in range(1, 400):
        out = ctrl.compute_input(k, np.array([1.0]), stream)
        events.append((k, out.breaker_triggered_now, out.breaker_active))
    config = ControllerConfig()
    i = 0
    triggers = 0
    while i < len(events):
        k, trig, active = events[i]
        if trig:
            triggers += 1
            dwell = config.dwell(k)
            for j in range(1, dwell + 1):
                if i + j >= len(events):
                    break
                kj, trig_j, active_j = events[i + j]
                assert active_j and not trig_j, f"dwell broken at step {kj}"
            if i + dwell + 1 < len(events):
                assert events[i + dwell + 1][1] or not events[i + dwell + 1][2]
            i += dwell + 1
        else:
            assert not active
            i += 1
    assert triggers >= 5


def test_config_validation():
    import pytest
    with pytest.raises(ValueError):
        ControllerConfig(gain_update_schedule="sometimes")
    with pytest.raises(ValueError):
        ControllerConfig(log_base=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(rank_rtol=0.0)


def test_config_log_base_override():
    config = ControllerConfig(log_base=10.0)
    assert abs(config.threshold(100) - 2.0) < 1e-12
    assert config.dwell(100) == 2
    assert config.dwell(99) == 1
