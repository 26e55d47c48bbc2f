"""The step-major batch layout of run_trials.

run_trials lays its batch arrays out (T, N, ·), so a trial's record is a
strided view of its column of the batch. Every reader of a record must
give the bits of a contiguous copy of it, and the fold run_trials feeds
each noise chunk as it ends must equal one fed the finished record in
NOISE_CHUNK-row blocks, failed trials included.
"""

from dataclasses import asdict, astuple, replace

import numpy as np
import pytest

from alqr.control_math import CostWeights, solve_dare
from alqr.diagnostics import detect_t_stab
from alqr.harness import ExperimentConfig, run_trials
from alqr.plant import NOISE_CHUNK, PlantSpec
from alqr.records import save_trial_csv
from alqr.regret import TrialFold, decompose_at, stage_costs
from helpers import blocks_of, reference_spec

RECORD_ARRAYS = ("X", "U_ce", "U_cb", "U_pr", "W", "breaker", "stage_cost")


def dense_spd(n, seed):
    M = np.random.default_rng(seed).standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def contiguous(record):
    return replace(record, **{
        name: np.ascontiguousarray(getattr(record, name))
        for name in RECORD_ARRAYS})


def reports_bytes(reports):
    return np.array(list(map(astuple, reports))).tobytes()


# (n, m, W scale, base seed, some trial fails): with dense Q and R, at
# T = 600, the loud batches have some but not all of their four trials
# pass the overflow guard. Their state costs dwarf the input costs, so the
# 3x2 batch at W = 40 I, where the breaker trips often, is the one whose
# stage costs tell u_cb from u_ce
@pytest.mark.parametrize("n, m, scale, seed, fails", [
    (3, 2, 1e22, 0, True), (8, 4, 10 ** 21.75, 0, True),
    (16, 8, 1e22, 1, True), (3, 2, 40.0, 0, False)],
    ids=["3x2", "8x4", "16x8", "3x2-W40"])
def test_strided_records_read_as_their_contiguous_copies(tmp_path, n, m,
                                                         scale, seed, fails):
    base = reference_spec(n=n, m=m)
    spec = PlantSpec(sys=base.sys, W=scale * np.eye(n),
                     cost=CostWeights(Q=dense_spd(n, 2), R=dense_spd(m, 3)))
    oracle = solve_dare(spec.sys, spec.cost, spec.W)
    config = ExperimentConfig(plant=spec, horizon=600, trials=4,
                              base_seed=seed)
    cps = config.checkpoints()
    batch = run_trials(config, range(4), oracle)
    failed = [result.summary.failed for result in batch]
    assert any(failed) == fails and not all(failed)
    assert any(np.count_nonzero(result.record.breaker) for result in batch)
    for result in batch:
        record = result.record
        copy = contiguous(record)
        label = (record.trial_index, record.horizon)
        assert not record.X.flags.c_contiguous and copy.X.flags.c_contiguous
        assert record.stage_cost.tobytes() == stage_costs(
            copy.X, copy.U_cb + copy.U_pr, spec.cost).tobytes(), label
        assert record.stage_cost.tobytes() == stage_costs(
            record.X, record.U_cb + record.U_pr, spec.cost).tobytes(), label
        for audit in (False, True):
            strided, packed = (TrialFold(oracle, spec, cps, config.delta,
                                         audit=audit) for _ in range(2))
            strided.add(record)
            packed.add(copy)
            assert strided.facts() == packed.facts(), label
            assert strided.at.tobytes() == packed.at.tobytes(), label
            assert strided.rel_avg_regret().tobytes() == \
                packed.rel_avg_regret().tobytes(), label
        steps = [c for c in cps.tolist() if c < record.horizon]
        steps.append(record.horizon)
        assert reports_bytes(decompose_at(record, oracle, spec, steps)) == \
            reports_bytes(decompose_at(copy, oracle, spec, steps)), label
        assert detect_t_stab(record, oracle, spec) == \
            detect_t_stab(copy, oracle, spec), label
        save_trial_csv(record, str(tmp_path / "strided.csv"))
        save_trial_csv(copy, str(tmp_path / "packed.csv"))
        assert (tmp_path / "strided.csv").read_bytes() == \
            (tmp_path / "packed.csv").read_bytes(), label


@pytest.mark.parametrize("scale, T, seed, factor, want", [
    # four trials fail inside the first and second noise chunks and two
    # run on to the horizon, which spans three chunks and part of a fourth
    (5e21, 3 * NOISE_CHUNK + 100, 11, 1.05,
     [6295, 103, 4984, 7048, None, None]),
    # every row fails inside the first chunk, so the batch ends at the
    # stop before the gain update at 2048, in mid-chunk
    (1e22, 5000, 0, 1 + 1e-12, [1298, 693, 166]),
], ids=["some-fail", "all-fail"])
def test_chunk_folds_match_the_record_folded_after(scale, T, seed, factor,
                                                   want):
    spec = reference_spec()
    wild = PlantSpec(sys=spec.sys, W=scale * np.eye(spec.n), cost=spec.cost)
    oracle = solve_dare(wild.sys, wild.cost, wild.W)
    config = ExperimentConfig(plant=wild, horizon=T, trials=len(want),
                              base_seed=seed, checkpoint_factor=factor)
    cps = config.checkpoints()
    batch = run_trials(config, range(len(want)), oracle)
    assert [result.summary.failure_step for result in batch] == want
    for result in batch:
        record = result.record
        fold = TrialFold(oracle, wild, cps, config.delta)
        cuts = range(NOISE_CHUNK + 1, record.horizon + 1, NOISE_CHUNK)
        for block in blocks_of(record, cuts):
            fold.add(block)
        label = record.trial_index
        assert fold.rel_avg_regret().tobytes() == \
            result.rel_avg_regret.tobytes(), label
        if not result.summary.failed:
            summary = asdict(result.summary)
            facts = fold.facts()
            assert {k: summary[k] for k in facts} == facts, label
