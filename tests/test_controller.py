"""Breaker state machine and gain-update tests."""

import math

import numpy as np

from alqr.control_math import CostWeights
from alqr import controller
from alqr.controller import (AdaptiveController, ControllerConfig, breaker,
                             breaker_codes, clean_steps, dwell, threshold)
from alqr.harness import ExperimentConfig, run_trial
from alqr.plant import NoiseStream, PlantSpec
from alqr.records import BREAKER_CLEAR, BREAKER_DWELL, BREAKER_TRIGGER
from helpers import reference_spec


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
    fired = [k for k in range(1, 40) if config.next_update(k - 1) == k]
    assert fired == [1, 2, 4, 8, 16, 32]
    every = ControllerConfig(gain_update_schedule="every-step")
    assert all(every.next_update(k - 1) == k for k in range(1, 40))


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
    assert ctrl.xi == dwell(51)


def test_breaker_rule_runs_each_row_on_its_own_branch():
    # one call at k = 100 (log 100 = 4.605, dwell 4) with a row in each
    # branch: dwelling, dwell ending, tripping, and passing at norms just
    # under and at the threshold; each row matches the rule run alone
    k = 100
    u_ce = np.array([[30.0, 40.0], [30.0, 40.0], [3.0, 4.0], [0.0, 4.6],
                     [0.0, math.log(k)]])
    xi = np.array([3, 1, 0, 0, 0])
    u_cb, codes, new_xi = breaker(k, u_ce, xi)
    assert codes.dtype == np.int8
    assert codes.tolist() == [BREAKER_DWELL, BREAKER_DWELL, BREAKER_TRIGGER,
                              BREAKER_CLEAR, BREAKER_CLEAR]
    assert new_xi.tolist() == [2, 0, dwell(k), 0, 0]
    assert xi.tolist() == [3, 1, 0, 0, 0]
    assert np.array_equal(u_cb[:3], np.zeros((3, 2)))
    assert np.array_equal(u_cb[3:], u_ce[3:])
    for row in range(len(xi)):
        alone = breaker(k, u_ce[row:row + 1], xi[row:row + 1])
        assert np.array_equal(alone[0], u_cb[row:row + 1])
        assert alone[1].tolist() == [codes[row]]
        assert alone[2].tolist() == [new_xi[row]]


def stepwise_clean_steps(first_k, block):
    """Run breaker step by step over an (N, L, m) block from no dwell; the
    offset of the first step with a code other than BREAKER_CLEAR, or L.
    Every clear step must pass u_ce itself through."""
    xi = np.zeros(block.shape[0], dtype=np.int64)
    for j in range(block.shape[1]):
        u_ce = block[:, j]
        u_cb, codes, xi = breaker(first_k + j, u_ce, xi)
        if np.count_nonzero(codes):
            assert set(codes.tolist()) <= {BREAKER_CLEAR, BREAKER_TRIGGER}
            return j
        assert u_cb is u_ce
    return block.shape[1]


def thresholds(first_k, count):
    return np.array([threshold(k) for k in range(first_k, first_k + count)])


def test_threshold_block_matches_threshold_per_step():
    # run_trials takes a noise chunk's thresholds as one block
    for first, count in ((1, 4096), (4097, 4096), (10**6, 100),
                         (2**53 - 50, 50), (7, 1)):
        assert np.array_equal(controller.thresholds(first, count),
                              thresholds(first, count))


def test_clean_steps_edge_cases():
    k0 = 100
    limits = thresholds(k0, 8)
    block = np.zeros((3, 8, 2))
    # a norm exactly at threshold(k) does not trip (the test is strict)
    block[0, :, 1] = limits
    assert clean_steps(block, limits) == 8
    assert stepwise_clean_steps(k0, block) == 8
    # a NaN row never trips
    block[1] = np.nan
    assert clean_steps(block, limits) == 8
    assert stepwise_clean_steps(k0, block) == 8
    # one ulp past the threshold trips, at the first, the last and an
    # inner step
    for j in (0, 7, 3):
        tripping = block.copy()
        tripping[2, j, 0] = np.nextafter(limits[j], np.inf)
        assert clean_steps(tripping, limits) == j
        assert stepwise_clean_steps(k0, tripping) == j


def test_clean_steps_matches_breaker_step_by_step():
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(300):
        rows, length, m = (int(rng.integers(1, 5)), int(rng.integers(1, 65)),
                           int(rng.integers(1, 4)))
        first_k = int(rng.integers(1, 20000))
        limits = thresholds(first_k, length)
        # norms mostly under the thresholds; a few entries put over them,
        # often at the first or the last step
        block = rng.standard_normal((rows, length, m))
        for j in rng.choice([0, length - 1, rng.integers(length)],
                            size=rng.integers(0, 3)):
            block[rng.integers(rows), j] = 1.5 * limits[j] / np.sqrt(m)
        if rng.random() < 0.2:
            block[rng.integers(rows)] = np.nan
        expected = stepwise_clean_steps(first_k, block)
        assert clean_steps(block, limits) == expected
        seen.add("none" if expected == length else
                 "first" if expected == 0 else
                 "last" if expected == length - 1 else "inside")
    assert seen == {"none", "first", "last", "inside"}


def stepwise_breaker_codes(U_ce, first, xi):
    """breaker run one step at a time over one trial's (L, m) block from
    the dwell counter ``xi``: the (L,) codes and the counter after."""
    codes = np.zeros(len(U_ce), dtype=np.int8)
    xi = np.array([xi])
    for j, u_ce in enumerate(U_ce):
        _, code, xi = breaker(first + j, u_ce[None], xi)
        codes[j] = code[0]
    return codes, int(xi[0])


def test_breaker_codes_match_breaker_step_by_step():
    # random blocks whose norms sit around their thresholds, some with a
    # dwell carried in, a few with NaN rows, which never trip
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(300):
        length, m = int(rng.integers(1, 80)), int(rng.integers(1, 4))
        first = int(rng.integers(1, 20000))
        xi = int(rng.choice([0, 0, rng.integers(1, 12)]))
        block = rng.standard_normal((length, m))
        block *= (thresholds(first, length) * rng.uniform(0.5, 1.5, length)
                  / np.linalg.norm(block, axis=1))[:, None]
        if rng.random() < 0.1:
            block[rng.integers(length)] = np.nan
        codes, after = breaker_codes(block, first, xi)
        want, want_after = stepwise_breaker_codes(block, first, xi)
        assert codes.dtype == np.int8
        assert codes.tobytes() == want.tobytes()
        assert after == want_after
        seen.update({"carried in"} if xi else set())
        seen.update({"carried out"} if after else set())
        seen.update({"trip"} if BREAKER_TRIGGER in codes else set())
    assert seen == {"carried in", "carried out", "trip"}


def test_breaker_codes_carry_the_dwell_across_blocks():
    # trial 0 of the 3x2 batch at W = 40 I, T = 8193, base seed 0 dwells
    # across the chunk end at 4096. Its logged u_ce cut into blocks (at
    # row 1, at 4096 and at odd offsets), the counter carried from block
    # to block, gives the logged codes, which are breaker's step by step
    spec = reference_spec()
    loud = PlantSpec(sys=spec.sys, W=40.0 * np.eye(spec.n), cost=spec.cost)
    config = ExperimentConfig(plant=loud, horizon=8193, trials=4,
                              base_seed=0)
    record = run_trial(config, 0).record
    logged = record.breaker
    assert logged[4095] and logged[4096]
    assert stepwise_breaker_codes(record.U_ce, 1, 0)[0].tobytes() == \
        logged.tobytes()
    for cuts in ([1, 4096], [1, 333, 4095, 4097, 6001], [4096, 8192],
                 list(range(1, 8193, 997))):
        bounds = [0, *cuts, len(logged)]
        xi, blocks = 0, []
        for a, b in zip(bounds, bounds[1:]):
            codes, xi = breaker_codes(record.U_ce[a:b], 1 + a, xi)
            blocks.append(codes)
        assert np.concatenate(blocks).tobytes() == logged.tobytes(), cuts


def test_probe_decay_exact():
    ctrl = make_controller(n=2, m=2)
    stream = NoiseStream(seed=9, state_dim=2, input_dim=2)
    for k in (1, 7, 100, 4096):
        out = ctrl.compute_input(k, np.zeros(2), stream)
        v = stream.block("v", k, 1)[0]
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
    i = 0
    triggers = 0
    while i < len(events):
        k, trig, active = events[i]
        if trig:
            triggers += 1
            t_k = dwell(k)
            for j in range(1, t_k + 1):
                if i + j >= len(events):
                    break
                kj, trig_j, active_j = events[i + j]
                assert active_j and not trig_j, f"dwell broken at step {kj}"
            if i + t_k + 1 < len(events):
                assert events[i + t_k + 1][1] or not events[i + t_k + 1][2]
            i += t_k + 1
        else:
            assert not active
            i += 1
    assert triggers >= 5


def test_config_validation():
    import pytest
    with pytest.raises(ValueError):
        ControllerConfig(gain_update_schedule="sometimes")


def test_config_log_base_override():
    # the breaker uses the natural log: dwell(k) steps up exactly at the
    # first integer past each power of e
    for t in range(1, 21):
        k = math.ceil(math.e ** t)
        assert dwell(k) == t, k
        assert dwell(k - 1) == t - 1, k - 1
    for k in (1, 2, 3, 100, 4096, 10 ** 7):
        assert threshold(k) == math.log(k)
