"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench

Everything here runs at a tiny scale and starts no alqr process.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

import check
import run
from tracer import ROOT, Tracer


def fake_clock(*ticks):
    return iter(ticks).__next__


def test_self_time_subtracts_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 9]
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    tracer.enter(ROOT)
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    assert tracer.stats == {
        "b": [2, 5.0, 5.0],
        "a": [1, 3.0, 2.0],
        ROOT: [1, 10.0, 3.0],
    }
    assert run.self_time_gap(tracer.stats) == 0.0


def test_wrap_counts_and_reraises():
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3))
    seen = []

    def fails():
        raise ValueError("boom")

    ok = tracer.wrap(lambda x: x + 1, "ok",
                     after=lambda t, args, result: seen.append(result))
    assert ok(1) == 2 and seen == [2]
    with pytest.raises(ValueError):
        tracer.wrap(fails, "fails")()
    assert tracer.stats["fails"][0] == 1
    assert tracer.counts == {"fails.raised": 1}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(19)) is None
    assert run.tail_percentile(range(1, 21)) == (50.0, 10)
    assert run.tail_percentile(range(1, 101)) == (90.0, 90)
    assert run.tail_percentile(range(1, 1001)) == (99.0, 990)
    assert run.tail_percentile(range(1, 10_001)) == (99.9, 9990)


def test_ns_per_trial_step():
    assert run.ns_per_trial_step(2.0, 4, 500_000) == pytest.approx(1000.0)


def test_reference_speed_rescales_by_the_loop():
    # the loop took twice REFERENCE_S on average, so the host ran at half
    # the reference speed, and a mean of 3 s measured is 1.5 s at
    # reference speed
    ref = run.REFERENCE_S
    assert run.at_reference_speed([2.0, 4.0], [1.5 * ref, 2.5 * ref]) == \
        pytest.approx(1.5)
    assert run.at_reference_speed([3.0], [ref]) == pytest.approx(3.0)


def test_end_to_end_scales_timings_but_not_memory():
    ref = run.REFERENCE_S
    units = [{"metrics": dict.fromkeys(run.END_TO_END, 1.0),
              "reference_s": [2 * ref, 2 * ref, 2 * ref]},
             {"metrics": dict.fromkeys(run.END_TO_END, 3.0),
              "reference_s": [2 * ref, 2 * ref, 2 * ref]},
             {"metrics": dict.fromkeys(run.END_TO_END, 8.0),
              "reference_s": [2 * ref, 2 * ref, 2 * ref]}]
    values = run.end_to_end_metrics(units)
    assert values["wall_s"] == pytest.approx(2.0)  # mean 4, half speed
    assert values["peak_rss_mb"] == 3.0  # median, not scaled


def test_reference_loop_is_timed():
    assert run.reference_loop(steps=100) > 0.0


def _valid_output():
    finals = [0.01, 0.03, 0.02]
    summary = {
        "trials": 3, "failed_trials": 0, "j_star": 2.0,
        "final_worst": 0.03, "final_median": 0.02, "final_mean": 0.02,
        "trial_summaries": [{"failed": False, "final_rel_avg_regret": f}
                            for f in finals],
    }
    curves = ("k,worst,median,mean,est_sq_median\n"
              "1,0.5,0.4,0.4,1.0\n"
              "100,0.03,0.02,0.02,0.001\n")
    return summary, curves


def test_checker_accepts_a_consistent_summary():
    summary, curves = _valid_output()
    assert check.check_summary(summary, curves, 3, 100, 2.0) == []
    recorded = {k: summary[k] for k in
                ("trials", "failed_trials", "j_star", "final_worst",
                 "final_median", "final_mean")}
    assert check.check_recorded(summary, recorded) == []


@pytest.mark.parametrize("key, value", [
    ("final_mean", 0.025),
    ("final_worst", 0.02),
    ("j_star", 2.001),
    ("failed_trials", 1),
    ("trials", 2),
])
def test_checker_rejects_a_tampered_summary(key, value):
    summary, curves = _valid_output()
    tampered = copy.deepcopy(summary)
    tampered[key] = value
    assert check.check_summary(tampered, curves, 3, 100, 2.0)


def test_checker_rejects_regret_far_from_recorded():
    summary, _ = _valid_output()
    recorded = dict(summary, final_mean=0.03)
    assert check.check_recorded(summary, recorded)


def test_checker_rejects_curves_that_disagree():
    summary, curves = _valid_output()
    assert check.check_summary(summary, curves.replace("100,", "99,"),
                               3, 100, 2.0)


def test_oracle_j_star_scalar_closed_form():
    # a = 1/2, b = q = r = 1: p^2 - p/4 - 1 = 0
    plant = {"A": [[0.5]], "B": [[1.0]], "W": [[2.0]], "Q": [[1.0]],
             "R": [[1.0]]}
    p = (0.25 + (0.0625 + 4.0) ** 0.5) / 2.0
    assert check.oracle_j_star(plant) == pytest.approx(2.0 * p, rel=1e-12)


def test_analyze_and_verify_checks():
    assert check.check_analyze({"checked": 3, "failures": []}, 3) == []
    assert check.check_analyze({"checked": 3, "failures": [{"trial": 0}]}, 3)
    assert check.check_analyze({"checked": 2, "failures": []}, 3)
    assert check.check_verify("PASS  a  x\nPASS  b  y\n") == []
    assert check.check_verify("PASS  a  x\nFAIL  b  y\n")


def test_benchmark_json_matches_what_run_reports():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    with open(run.RECORDED, encoding="utf-8") as fh:
        assert set(json.load(fh)) == set(run.WORKLOADS)
