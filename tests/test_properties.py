"""Property-based tests: a trial's outputs do not depend on how its batch
is cut.

Hypothesis draws the cut. derandomize=True and database=None keep every
run of the suite the same and write no example database to disk.
"""

import tempfile
from functools import cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from alqr.control_math import solve_dare
from alqr.controller import ControllerConfig
from alqr.harness import ExperimentConfig, run_trial, run_trials
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
