"""Acceptance suite: one test per release gate, run with ``pytest -v``.

Each test prints a single PASS line with the measured quantity and its
bound, so a transcript of this module doubles as the acceptance report.
The heavy Monte Carlo runs are module fixtures shared across gates:

* ``long_run``   50 trials at T = 1e5 on the 3-state reference plant
                 (regret slope, breaker quiescence, estimator rate)
* ``noise_run``  200 trials at T = 1e4 (noise-bound event probability)

Every bound asserted here is a release threshold, not a typical value;
the pre-release margins are recorded in each test's PASS line.
"""

import json
import math
import os

import numpy as np
import pytest

from alqr import cli
from alqr.control_math import solve_dare
from alqr.diagnostics import fit_regret_slope
from alqr.estimator import EstimatorState
from alqr.harness import (ExperimentConfig, generate_stand_in_plant,
                          run_experiment, run_trial)
from alqr.plant import CostWeights, SystemMatrices
from alqr.regret import decompose_at

REF_N, REF_M, REF_RHO, REF_SEED = 3, 2, 0.9, 42


def report(line: str) -> None:
    print(f"[acceptance] {line}")


@pytest.fixture(scope="module")
def ref_plant():
    return generate_stand_in_plant(REF_N, REF_M, REF_RHO, seed=REF_SEED)


@pytest.fixture(scope="module")
def ref_oracle(ref_plant):
    return solve_dare(ref_plant.sys, ref_plant.cost, ref_plant.W)


@pytest.fixture(scope="module")
def long_run(ref_plant):
    config = ExperimentConfig(plant=ref_plant, horizon=100_000, trials=50,
                              base_seed=2025, delta=0.05)
    return run_experiment(config)


@pytest.fixture(scope="module")
def noise_run(ref_plant):
    config = ExperimentConfig(plant=ref_plant, horizon=10_000, trials=200,
                              base_seed=7, delta=0.05)
    return run_experiment(config)


def test_a1_scalar_riccati_closed_form():
    # p is the positive root of p^2 - p/4 - 1 = 0 for a=1/2, b=q=r=1
    p_true = (0.25 + math.sqrt(0.0625 + 4.0)) / 2.0
    k_true = -0.5 * p_true / (1.0 + p_true)
    sol = solve_dare(SystemMatrices(A=np.array([[0.5]]), B=np.array([[1.0]])),
                     CostWeights(Q=np.eye(1), R=np.eye(1)))
    dp = abs(sol.P_star[0, 0] - p_true)
    dk = abs(sol.K_star[0, 0] - k_true)
    assert dp <= 1e-10, f"|dP| = {dp:.3e} exceeds 1e-10"
    assert dk <= 1e-10, f"|dK| = {dk:.3e} exceeds 1e-10"
    report(f"1 scalar riccati root: PASS (|dP|={dp:.2e}, |dK|={dk:.2e}, "
           f"bound 1e-10)")


def test_a2_riccati_residuals_on_random_systems():
    rng = np.random.default_rng(0)
    worst_dare, worst_lyap = 0.0, 0.0
    for i in range(100):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        rho = float(rng.uniform(0.3, 0.95))
        spec = generate_stand_in_plant(n, m, rho, seed=1000 + i)
        sol = solve_dare(spec.sys, spec.cost)
        P, K = sol.P_star, sol.K_star
        scale = 1.0 + np.linalg.norm(P, "fro")
        assert sol.residual <= 1e-9 * scale, (
            f"system {i} (n={n}, m={m}): fixed-point residual "
            f"{sol.residual:.3e} > 1e-9 * {scale:.3e}")
        worst_dare = max(worst_dare, sol.residual / scale)
        # the same P must also satisfy the closed-loop identity
        # P = Q + K'RK + (A+BK)' P (A+BK)
        Acl = spec.sys.A + spec.sys.B @ K
        lyap = np.linalg.norm(
            P - (spec.cost.Q + K.T @ spec.cost.R @ K + Acl.T @ P @ Acl),
            "fro")
        assert lyap <= 1e-8, (
            f"system {i} (n={n}, m={m}): closed-loop identity residual "
            f"{lyap:.3e} > 1e-8")
        worst_lyap = max(worst_lyap, lyap)
    report(f"2 riccati residuals, 100 systems: PASS "
           f"(worst scaled {worst_dare:.2e} <= 1e-9, "
           f"worst closed-loop {worst_lyap:.2e} <= 1e-8)")


def test_a3_regret_decomposition_identity(ref_plant, ref_oracle):
    config = ExperimentConfig(plant=ref_plant, horizon=10_000, trials=10,
                              base_seed=301, delta=0.05)
    cps = config.checkpoints().tolist()
    worst = 0.0
    for idx in range(config.trials):
        result = run_trial(config, idx, oracle=ref_oracle)
        assert not result.summary.failed, f"trial {idx} diverged"
        reports = decompose_at(result.record, ref_oracle, ref_plant, cps)
        for cp, rep in zip(cps, reports):
            tol = 1e-6 * (1.0 + abs(rep.regret))
            assert rep.residual <= tol, (
                f"trial {idx} checkpoint {cp}: residual "
                f"{rep.residual:.3e} > {tol:.3e}")
            worst = max(worst, rep.residual / (1.0 + abs(rep.regret)))
    report(f"3 regret decomposition, 10 trials x {len(cps)} checkpoints: "
           f"PASS (worst scaled residual {worst:.2e} <= 1e-6)")


def test_a4_sqrt_horizon_regret_slope(long_run):
    assert long_run.failed_count == 0, "reference run had diverged trials"
    curve = long_run.rel_curves[:20].mean(axis=0)
    points = list(zip(long_run.checkpoints.tolist(), curve.tolist()))
    est = fit_regret_slope(points, (1000.0, 100_000.0))
    assert -0.65 <= est.slope <= -0.35, (
        f"slope {est.slope:.4f} outside [-0.65, -0.35] "
        f"(r^2 {est.r_squared:.4f}, {est.points_used} points)")
    report(f"4 regret slope, mean of 20 trials at T=1e5: PASS "
           f"(slope {est.slope:.4f} in [-0.65, -0.35], "
           f"r^2 {est.r_squared:.3f})")


def test_a5_breaker_quiet_second_half(long_run):
    horizon = int(long_run.checkpoints[-1])
    half = horizon // 2 + 1
    done = [t for t in long_run.trial_summaries if not t.failed]
    assert len(done) == 50
    quiet = sum(1 for t in done if t.t_nocb <= half)
    frac = quiet / len(done)
    assert frac >= 0.95, (
        f"only {quiet}/{len(done)} trials had a silent breaker in the "
        f"second half")
    top3 = long_run.tnocb_counts[-3:]
    assert top3[0] >= top3[1] >= top3[2], (
        f"histogram mass rises across the top bins: {top3}")
    report(f"5 breaker quiescence, 50 trials: PASS "
           f"(quiet fraction {frac:.3f} >= 0.95, top bins {top3})")


def test_a6_noise_bound_event_probability(noise_run):
    floor = 0.90 - 3.0 * math.sqrt(0.09 / 200.0)
    frac = noise_run.noise_event_fraction
    assert frac >= floor, f"noise event fraction {frac:.4f} < {floor:.4f}"
    report(f"6 noise bound event, 200 trials at delta=0.05: PASS "
           f"(fraction {frac:.4f} >= {floor:.4f})")


def test_a7_estimator_error_rate(long_run):
    cps = long_run.checkpoints
    i_lo = int(np.flatnonzero(cps == 1_000)[0])
    i_hi = int(np.flatnonzero(cps == 100_000)[0])
    lo = float(np.median(long_run.est_sq_curves[:20, i_lo])) * math.sqrt(1e3)
    hi = float(np.median(long_run.est_sq_curves[:20, i_hi])) * math.sqrt(1e5)
    assert hi <= 3.0 * lo, (
        f"median err^2 * sqrt(k) grew from {lo:.4f} at k=1e3 to {hi:.4f} "
        f"at k=1e5 (ratio {hi / lo:.3f} > 3)")
    report(f"7 estimator rate, median of 20 trials: PASS "
           f"(err^2*sqrt(k) {lo:.3f} at 1e3 vs {hi:.3f} at 1e5, "
           f"ratio {hi / lo:.3f} <= 3)")


def test_a8_rerun_outputs_bit_identical(tmp_path):
    doc = {
        "plant": {"generator": {"n": REF_N, "m": REF_M,
                                "target_rho": REF_RHO, "seed": REF_SEED}},
        "horizon": 10_000,
        "trials": 10,
        "base_seed": 2025,
        "checkpoint_factor": 1.2,
        "delta": 0.05,
        "write_trial_logs": False,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    blobs = []
    for out in ("first", "second"):
        out_dir = str(tmp_path / out)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", out_dir]) == 0
        pair = {}
        for name in ("curves.csv", "summary.json"):
            with open(os.path.join(out_dir, name), "rb") as f:
                pair[name] = f.read()
        blobs.append(pair)
    assert blobs[0]["curves.csv"] == blobs[1]["curves.csv"]
    assert blobs[0]["summary.json"] == blobs[1]["summary.json"]
    report("8 rerun determinism: PASS (curves.csv and summary.json "
           "byte-identical across reruns)")


def test_a9_noiseless_exact_recovery(ref_plant):
    theta = np.hstack([ref_plant.sys.A, ref_plant.sys.B])
    est = EstimatorState(state_dim=REF_N, input_dim=REF_M)
    rng = np.random.default_rng(5)
    for _ in range(40):
        z = rng.standard_normal(REF_N + REF_M)
        est.absorb(z, theta @ z)
    err = np.linalg.norm(est.estimate().Theta - theta, "fro")
    assert err <= 1e-8, f"noiseless recovery error {err:.3e} > 1e-8"
    report(f"9 noiseless identification: PASS (error {err:.2e} <= 1e-8)")
