"""Shared test utilities: a reference plant and a hand-driven closed loop.

drive_trial deliberately reimplements the simulation loop at test level so
harness results can be checked against an independently written loop.
"""

import numpy as np

from alqr.control_math import CostWeights, SystemMatrices
from alqr.controller import AdaptiveController, ControllerConfig
from alqr.plant import NoiseStream, PlantSpec, draw_process_noise, step
from alqr.records import TrialRecord


def reference_spec(n=3, m=2, rho=0.9, seed=42):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    return PlantSpec(sys=SystemMatrices(A=A, B=B), W=np.eye(n),
                     cost=CostWeights(Q=np.eye(n), R=np.eye(m)))


def drive_trial(spec, T, seed, force_gain=None, config=None):
    """Run the closed loop step by step, logging everything by hand."""
    n, m = spec.n, spec.m
    ctrl = AdaptiveController(config or ControllerConfig(), n, m, spec.cost)
    stream = NoiseStream(seed=seed, state_dim=n, input_dim=m)
    x = np.zeros(n)
    X = np.zeros((T, n)); U_ce = np.zeros((T, m)); U_cb = np.zeros((T, m))
    U_pr = np.zeros((T, m)); W = np.zeros((T, n))
    breaker = np.zeros(T, dtype=np.int8); stage = np.zeros(T)
    segments = [(1, ctrl.Khat.copy())]
    for k in range(1, T + 1):
        if force_gain is None:
            if ctrl.update_gain(k):
                if segments[-1][0] == k:
                    segments[-1] = (k, ctrl.Khat.copy())
                else:
                    segments.append((k, ctrl.Khat.copy()))
        else:
            ctrl.Khat = force_gain
        out = ctrl.compute_input(k, x, stream)
        w = draw_process_noise(stream, spec)
        X[k - 1] = x
        U_ce[k - 1] = out.u_ce; U_cb[k - 1] = out.u_cb; U_pr[k - 1] = out.u_pr
        W[k - 1] = w
        breaker[k - 1] = 2 if out.breaker_triggered_now else (
            1 if out.breaker_active else 0)
        stage[k - 1] = float(x @ spec.cost.Q @ x + out.u @ spec.cost.R @ out.u)
        z = np.concatenate([x, out.u])
        x = step(x, out.u, w, spec, k)
        ctrl.estimator.absorb(z, x)
        stream.advance()
    if force_gain is not None:
        segments = [(1, np.asarray(force_gain, dtype=float))]
    return TrialRecord(trial_index=0, seed=seed, X=X, U_ce=U_ce, U_cb=U_cb,
                       U_pr=U_pr, W=W, breaker=breaker, stage_cost=stage,
                       x_final=x, gain_segments=segments)
