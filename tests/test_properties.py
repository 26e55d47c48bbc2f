"""Property-based tests: a trial's outputs do not depend on how its batch
is cut, the stacked forms of run_trials' step kernel equal their per-row
forms bit for bit, and the breaker thresholds and checkpoint grid keep
their contracts.

Hypothesis draws the cut, the stacks and the grids. derandomize=True and
database=None keep every run of the suite the same and write no example
database to disk.
"""

import math
import tempfile
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from alqr.control_math import solve_dare
from alqr.controller import ControllerConfig, threshold, thresholds
from alqr.harness import (ExperimentConfig, checkpoint_steps, run_trial,
                          run_trials)
from alqr.plant import PlantSpec
from helpers import assert_same_trial, reference_spec

TRIALS = 6


# hypothesis caches the constants it reads from local modules under its
# home directory, .hypothesis/ in the working directory unless set, and
# reads them while pytest collects: so the home is set on import, to a
# directory removed when the process exits
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)


@cache
def trials_alone(scale: float, schedule: str, horizon: int):
    """The 6-trial config at W = scale I on the 3x2 reference plant, base
    seed 219, its oracle, and each trial run alone."""
    spec = reference_spec()
    plant = PlantSpec(sys=spec.sys, W=scale * np.eye(spec.n), cost=spec.cost)
    config = ExperimentConfig(plant=plant, horizon=horizon, trials=TRIALS,
                              base_seed=219,
                              controller=ControllerConfig(schedule))
    truth = solve_dare(plant.sys, plant.cost, plant.W)
    return config, truth, [run_trial(config, i, truth) for i in range(TRIALS)]


@st.composite
def partitions(draw):
    """The trial indices in a drawn order, cut into batches where drawn."""
    order = draw(st.permutations(range(TRIALS)))
    cuts = draw(st.lists(st.booleans(), min_size=TRIALS - 1,
                         max_size=TRIALS - 1))
    batches = [[order[0]]]
    for index, cut in zip(order[1:], cuts):
        if cut:
            batches.append([])
        batches[-1].append(index)
    return batches


@st.composite
def runs(draw):
    """(W scale, schedule, horizon) of a 6-trial run at base seed 219. At
    W = 5e21 I its trial 5 passes the overflow guard at step 38 and trial
    4 at step 62, under either schedule; horizons there start at 38, so
    each such run holds a failed trial."""
    scale = draw(st.sampled_from([5e21, 40.0, 1.0]))
    schedule = draw(st.sampled_from(["powers-of-two", "every-step"]))
    # every-step solves a Riccati equation per step: shorter horizons
    low = 38 if scale == 5e21 else 1
    high = 130 if schedule == "powers-of-two" else 64
    return scale, schedule, draw(st.integers(low, high))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(run=runs(), batches=partitions(), records=st.booleans())
def test_trial_outputs_do_not_depend_on_the_batch_cut(run, batches, records):
    config, truth, alone = trials_alone(*run)
    label = (run, batches, records)
    for batch in batches:
        results = run_trials(config, batch, truth, records)
        assert [r.summary.trial_index for r in results] == batch, label
        for i, result in zip(batch, results):
            if records:
                assert_same_trial(result, alone[i], (label, i))
                continue
            assert result.record is None, label
            assert result.summary == alone[i].summary, (label, i)
            assert result.rel_avg_regret.tobytes() == \
                alone[i].rel_avg_regret.tobytes(), (label, i)
            assert result.est_error_sq.tobytes() == \
                alone[i].est_error_sq.tobytes(), (label, i)


@st.composite
def stacks(draw):
    """A seeded rng and a plant shape (n, m), with a batch width N in
    {1, 4, 16}."""
    n, m = draw(st.sampled_from([(3, 2), (8, 4), (1, 1), (5, 1)]))
    N = draw(st.sampled_from([1, 4, 16]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m, N


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(stack=stacks(), length=st.integers(1, 70), data=st.data())
def test_after_run_inputs_are_the_per_step_inputs(stack, length, data):
    # run_trials takes a clean run's u_ce = K x in one matvec over the
    # run's rows after it: rows i .. end of the window, each (N, n) state
    # row against the (N, m, n) gains, written into the window's U_ce
    rng, n, m, N = stack
    i = data.draw(st.integers(0, length - 1))
    end = data.draw(st.integers(i + 1, length))
    K = rng.standard_normal((N, m, n))
    X = rng.standard_normal((length + 1, N, n)) * 10.0 ** rng.integers(
        -3, 4, (length + 1, N, 1))
    U_ce = np.full((length, N, m), np.nan)
    np.matvec(K, X[i:end], U_ce[i:end])
    for j in range(i, end):
        assert np.array_equal(U_ce[j], np.matvec(K, X[j])), (i, end, j)
        for r in range(N):
            assert np.array_equal(U_ce[j, r], K[r] @ X[j, r]), (j, r)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(stack=stacks(), codes=st.lists(st.sampled_from([0, 1, 2]),
                                      min_size=16, max_size=16))
def test_held_rows_step_with_the_open_loop(stack, codes):
    # the breaker's one-step path steps with M_eff = np.where(held, A, M),
    # M = A + B K built for the stack in one matmul: each row of M_eff is
    # that row's A + B K, or A where its code is not clear, and its step
    # M_eff x + f is the 1-D kernel form of that row
    rng, n, m, N = stack
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    K = rng.standard_normal((N, m, n))
    M = np.empty((N, n, n))
    np.add(A, np.matmul(B, K), out=M)
    held = np.array(codes[:N]) != 0
    M_eff = np.where(held[:, None, None], A, M)
    x, f = rng.standard_normal((2, N, n))
    x_next = np.matvec(M_eff, x)
    np.add(x_next, f, x_next)
    for r in range(N):
        closed = A if held[r] else A + B @ K[r]
        assert np.array_equal(M_eff[r], closed), r
        assert np.array_equal(x_next[r], closed @ x[r] + f[r]), r


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(first=st.one_of(st.integers(1, 10**4), st.integers(1, 2**62)),
       count=st.integers(0, 200))
def test_thresholds_are_threshold_at_each_step(first, count):
    limits = thresholds(first, count)
    assert limits.shape == (count,)
    assert limits.tolist() == [threshold(k)
                               for k in range(first, first + count)]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(horizon=st.integers(1, 20_000),
       factor=st.one_of(
           st.floats(1.0, 1.001, exclude_min=True),
           st.floats(1.001, 1e3),
           st.just(math.nextafter(1.0, 2.0))))
def test_checkpoint_grid_contract(horizon, factor):
    # returns for any factor in (1, inf): near 1 every step is a point
    cps = checkpoint_steps(horizon, factor)
    assert cps.dtype == np.int64
    assert cps[0] == 1 and cps[-1] == horizon
    assert np.all(np.diff(cps) > 0)
    points = set(cps.tolist())
    decade = 10
    while decade <= horizon:
        assert decade in points, decade
        decade *= 10
    # every geometric point ceil(factor^j) up to the horizon is on it,
    # checked exponent by exponent where that takes few exponents
    if math.log(horizon) / math.log(factor) < 5000:
        j = 0
        while math.ceil(factor ** j) <= horizon:
            assert math.ceil(factor ** j) in points, j
            j += 1
