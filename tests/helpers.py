"""Shared test utilities: a reference plant, a hand-driven closed loop,
a record cut into blocks, and a bit-for-bit check of two trial results.

drive_trial deliberately reimplements the simulation loop at test level so
harness results can be checked against an independently written loop: one
trial, one step at a time, with its own scalar circuit breaker, stepping
the plant in the harness's kernel form x' = M x + f.
"""

import numpy as np

from alqr.control_math import CostWeights, SystemMatrices
from alqr.controller import (PROBE_EXPONENT, AdaptiveController,
                             ControllerConfig, dwell, threshold)
from alqr.plant import STATE_NORM_GUARD, NoiseStream, PlantSpec
from alqr.records import (BREAKER_CLEAR, BREAKER_DWELL, BREAKER_TRIGGER,
                          TrialRecord)


class Diverged(Exception):
    """drive_trial's state passed the overflow guard at ``step``."""

    def __init__(self, norm, step):
        super().__init__(
            f"state norm {norm:.3e} passed the overflow guard at step {step}")
        self.step = step


def reference_spec(n=3, m=2, rho=0.9, seed=42):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    return PlantSpec(sys=SystemMatrices(A=A, B=B), W=np.eye(n),
                     cost=CostWeights(Q=np.eye(n), R=np.eye(m)))


def drive_trial(spec, T, seed, force_gain=None, config=None):
    """Run the closed loop step by step, logging everything by hand.

    The breaker is written out here from threshold(k) and dwell(k): a
    running dwell counts down (and holds the threshold check off until the
    step after it reaches zero), otherwise a feedback norm past threshold(k)
    trips it for dwell(k) further steps. Noise rows come from the trial's
    NoiseStream blocks. The plant steps in the kernel form, not by
    plant.step: x' = M x + f with f = B u_pr + w, and M = A + B Khat on a
    clear step, A on a breaker step. Raises Diverged at the first step
    whose successor state has a norm past STATE_NORM_GUARD (or a NaN
    norm), as the harness reports it.
    """
    n, m = spec.n, spec.m
    A, B = spec.sys.A, spec.sys.B
    ctrl = AdaptiveController(config or ControllerConfig(), n, m, spec.cost)
    stream = NoiseStream(seed=seed, state_dim=n, input_dim=m)
    G = stream.block("w", 1, T)
    V = stream.block("v", 1, T)
    x = np.zeros(n)
    xi = 0
    X = np.zeros((T, n)); U_ce = np.zeros((T, m))
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
        u_ce = ctrl.Khat @ x
        if xi > 0:
            code, xi = BREAKER_DWELL, xi - 1
        elif np.linalg.norm(u_ce) > threshold(k):
            code, xi = BREAKER_TRIGGER, dwell(k)
        else:
            code = BREAKER_CLEAR
        u_cb = u_ce if code == BREAKER_CLEAR else np.zeros(m)
        u_pr = k ** PROBE_EXPONENT * V[k - 1]
        u = u_cb + u_pr
        w = spec.chol_W @ G[k - 1]
        X[k - 1] = x
        U_ce[k - 1] = u_ce; U_pr[k - 1] = u_pr
        W[k - 1] = w
        breaker[k - 1] = code
        stage[k - 1] = float(x @ spec.cost.Q @ x + u @ spec.cost.R @ u)
        z = np.concatenate([x, u])
        closed = A + B @ ctrl.Khat if code == BREAKER_CLEAR else A
        x = closed @ x + (B @ u_pr + w)
        norm = np.linalg.norm(x)
        if not norm <= STATE_NORM_GUARD:
            raise Diverged(norm, k)
        ctrl.estimator.absorb(z, x)
    if force_gain is not None:
        segments = [(1, np.asarray(force_gain, dtype=float))]
    # the record derives u_cb from u_ce and the codes; the u_cb applied
    # above is this loop's own
    return TrialRecord(trial_index=0, seed=seed, X=X, U_ce=U_ce, U_pr=U_pr,
                       W=W, breaker=breaker, stage_cost=stage,
                       gain_segments=segments)


def blocks_of(record, cuts):
    """``record`` as consecutive blocks, a new one starting at each step in
    ``cuts``: TrialRecords of row slices with their first_step set."""
    bounds = [1, *cuts, record.horizon + 1]
    return [record.rows(a - 1, b - 1) for a, b in zip(bounds, bounds[1:])]


RECORD_ARRAYS = ("X", "U_ce", "U_cb", "U_pr", "W", "breaker", "stage_cost")


def assert_same_trial(a, b, label):
    """Two TrialResults agree bit for bit in every output."""
    for name in RECORD_ARRAYS:
        assert np.array_equal(getattr(a.record, name),
                              getattr(b.record, name)), (label, name)
    assert [s for s, _ in a.record.gain_segments] == \
        [s for s, _ in b.record.gain_segments], label
    for (_, ka), (_, kb) in zip(a.record.gain_segments,
                                b.record.gain_segments):
        assert np.array_equal(ka, kb), label
    assert a.summary == b.summary, label
    assert np.array_equal(a.rel_avg_regret, b.rel_avg_regret,
                          equal_nan=True), label
    assert np.array_equal(a.est_error_sq, b.est_error_sq,
                          equal_nan=True), label
