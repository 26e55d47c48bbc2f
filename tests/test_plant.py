"""Plant recursion and noise-stream determinism tests."""

import numpy as np
import pytest
import scipy.linalg

from alqr.config import parse_config_document
from alqr.control_math import CostWeights, SystemMatrices
from alqr.errors import ConfigInvalid, UnstableMatrix
from alqr.plant import (
    NoiseStream,
    PlantSpec,
    draw_probe_noise,
    draw_process_noise,
    overflow_failures,
    plant_spec_to_dict,
    step,
)


def make_spec(A, B, W=None, Q=None, R=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = A.shape[0], B.shape[1]
    return PlantSpec(
        sys=SystemMatrices(A=A, B=B),
        W=np.eye(n) if W is None else np.atleast_2d(W),
        cost=CostWeights(Q=np.eye(n) if Q is None else np.atleast_2d(Q),
                         R=np.eye(m) if R is None else np.atleast_2d(R)))


def test_step_zero_everything():
    spec = make_spec(np.zeros((2, 2)), np.zeros((2, 1)))
    out = step(np.zeros(2), np.zeros(1), np.zeros(2), spec)
    assert np.array_equal(out, np.zeros(2))


def test_step_scalar_arithmetic():
    spec = make_spec([[0.5]], [[1.0]])
    out = step(np.array([2.0]), np.array([1.0]), np.array([0.25]), spec)
    assert abs(out[0] - 2.25) < 1e-15


def test_step_noise_identity():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3)) * 0.2
    spec = make_spec(A, rng.standard_normal((3, 2)))
    for _ in range(10):
        x = rng.standard_normal(3)
        u = rng.standard_normal(2)
        w = rng.standard_normal(3)
        out = step(x, u, w, spec)
        # defining identity, up to one rounding of the final addition
        assert np.allclose(out - (A @ x + spec.sys.B @ u), w,
                           rtol=0, atol=1e-12)


def test_step_stacked_rows_match_single_rows():
    # a lockstep batch steps (N, n) rows at once; each row must be the
    # 1-D step of that row bit for bit, at every size the harness runs
    rng = np.random.default_rng(8)
    for n, m in ((3, 2), (8, 4), (16, 8)):
        A = rng.standard_normal((n, n))
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
        spec = make_spec(A, rng.standard_normal((n, m)))
        x = rng.standard_normal((50, n)) * 1e3
        u = rng.standard_normal((50, m))
        w = rng.standard_normal((50, n))
        out = step(x, u, w, spec)
        assert out.shape == (50, n)
        for r in range(50):
            assert np.array_equal(out[r], step(x[r], u[r], w[r], spec))


def test_overflow_guard_flags_a_state_past_the_bound():
    spec = make_spec([[0.5]], [[1.0]])
    x = step(np.array([8e12]), np.zeros(1), np.zeros(1), spec)
    found = overflow_failures(x[None, None], 3)
    assert list(found) == [0]
    k, reason = found[0]
    assert k == 3
    assert "at step 3" in reason
    # a norm at the bound itself passes
    assert overflow_failures(np.array([[[1e12]]]), 3) == {}


def test_overflow_guard_names_the_failing_row():
    spec = make_spec([[0.5]], [[1.0]])
    x = step(np.array([[1.0], [8e12], [2.0]]), np.zeros((3, 1)),
             np.zeros((3, 1)), spec)
    assert overflow_failures(x[:, None], 4) == {
        1: (4, "state norm 4.000e+12 passed the overflow guard at step 4")}
    nan_row = np.array([[[1.0]], [[np.nan]]])
    assert [(r, k) for r, (k, _) in overflow_failures(nan_row, 5).items()] \
        == [(1, 5)]


def test_overflow_guard_reports_each_rows_first_failing_step():
    # X[r, j] is row r's state after step first_step + j; norms are taken
    # over the whole state, here 3-dimensional
    past = [3e12, 4e12, 0.0]  # norm 5e12
    ok = [1.0, -2.0, 0.5]
    far = [0.0, 0.0, -7e13]
    X = np.array([
        [ok, past, ok, far],  # fails twice: the first step counts
        [ok, ok, ok, ok],
        [far, ok, ok, ok],  # fails at the block's first step
        [ok, ok, ok, past],  # fails at the block's last step
    ])
    message = "state norm {} passed the overflow guard at step {}".format
    assert overflow_failures(X, 4097) == {
        0: (4098, message("5.000e+12", 4098)),
        2: (4097, message("7.000e+13", 4097)),
        3: (4100, message("5.000e+12", 4100)),
    }
    # an empty block, as at a gain update with no new states, passes
    assert overflow_failures(X[:, :0], 9) == {}


def test_plant_spec_rejects_unstable_a():
    with pytest.raises(UnstableMatrix):
        make_spec([[1.0]], [[1.0]])


def test_plant_spec_rejects_bad_w():
    with pytest.raises(ValueError):
        make_spec([[0.5]], [[1.0]], W=[[-1.0]])


def test_noise_same_counter_same_vector():
    spec = make_spec(np.zeros((3, 3)), np.zeros((3, 2)))
    stream = NoiseStream(seed=99, state_dim=3, input_dim=2)
    a = draw_process_noise(stream, spec, 1)
    b = draw_process_noise(stream, spec, 1)
    assert np.array_equal(a, b)


def test_noise_streams_reproducible_across_instances():
    s1 = NoiseStream(seed=1234, state_dim=2, input_dim=2)
    s2 = NoiseStream(seed=1234, state_dim=2, input_dim=2)
    for k in (1, 2, 3, 5000, 4096, 4097, 123456):
        assert np.array_equal(s1.lane_row("w", k), s2.lane_row("w", k))
        assert np.array_equal(s1.lane_row("v", k), s2.lane_row("v", k))
    s3 = NoiseStream(seed=1235, state_dim=2, input_dim=2)
    assert not np.array_equal(s1.lane_row("w", 1), s3.lane_row("w", 1))


def test_noise_random_access_matches_sequential():
    stream = NoiseStream(seed=7, state_dim=2, input_dim=1)
    sequential = [stream.lane_row("w", k).copy() for k in range(1, 9000)]
    # revisit out of order on a fresh stream
    fresh = NoiseStream(seed=7, state_dim=2, input_dim=1)
    for k in (8999, 1, 4096, 4097, 2048, 8192):
        assert np.array_equal(fresh.lane_row("w", k), sequential[k - 1])


def test_noise_block_matches_rows():
    stream = NoiseStream(seed=21, state_dim=3, input_dim=2)
    blk = stream.block("v", 4090, 20)
    for i in range(20):
        assert np.array_equal(blk[i], stream.lane_row("v", 4090 + i))


def test_cholesky_scaling_scalar():
    s1 = NoiseStream(seed=5, state_dim=1, input_dim=1)
    s4 = NoiseStream(seed=5, state_dim=1, input_dim=1)
    base = draw_process_noise(s1, make_spec([[0.5]], [[1.0]], W=[[1.0]]), 1)
    scaled = draw_process_noise(s4, make_spec([[0.5]], [[1.0]], W=[[4.0]]), 1)
    assert np.allclose(scaled, 2.0 * base, rtol=1e-15)


def test_probe_noise_dimension_and_determinism():
    stream = NoiseStream(seed=17, state_dim=3, input_dim=2)
    v1 = draw_probe_noise(stream, 2, 1)
    v2 = draw_probe_noise(stream, 2, 1)
    assert v1.shape == (2,)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(draw_probe_noise(stream, 2, 2), v1)


def test_empirical_covariance_of_draws():
    stream = NoiseStream(seed=31, state_dim=2, input_dim=1)
    g = stream.block("w", 1, 1_000_000)
    cov = g.T @ g / g.shape[0]
    assert np.max(np.abs(cov - np.eye(2))) < 0.01


def test_lane_cross_correlation():
    stream = NoiseStream(seed=77, state_dim=1, input_dim=1)
    w = stream.block("w", 1, 1_000_000)[:, 0]
    v = stream.block("v", 1, 1_000_000)[:, 0]
    corr = np.dot(w - w.mean(), v - v.mean()) / (len(w) * w.std() * v.std())
    assert abs(corr) < 0.01


def test_stationary_covariance_matches_lyapunov():
    # with u = 0, the stationary covariance solves A S A' - S + W = 0,
    # scipy's form of the discrete Lyapunov equation
    A = np.array([[0.7, 0.2], [-0.1, 0.5]])
    spec = make_spec(A, np.zeros((2, 1)))
    target = scipy.linalg.solve_discrete_lyapunov(A, np.eye(2))
    stream = NoiseStream(seed=13, state_dim=2, input_dim=1)
    T = 1_000_000
    w = stream.block("w", 1, T)
    x = np.zeros(2)
    acc = np.zeros((2, 2))
    for k in range(T):
        acc += np.outer(x, x)
        x = A @ x + w[k]
    emp = acc / T
    err = np.linalg.norm(emp - target, "fro") / np.linalg.norm(target, "fro")
    assert err < 0.05


def run_document(plant: dict) -> dict:
    return {"plant": plant, "horizon": 10, "trials": 1, "base_seed": 0,
            "checkpoint_factor": 1.2, "delta": 0.05}


def test_plant_spec_dict_round_trip():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3)) * 0.25
    spec = make_spec(A, rng.standard_normal((3, 2)))
    doc = plant_spec_to_dict(spec)
    back = parse_config_document(run_document(doc)).experiment.plant
    assert np.array_equal(back.sys.A, spec.sys.A)
    assert np.array_equal(back.sys.B, spec.sys.B)
    assert np.array_equal(back.W, spec.W)
    assert np.array_equal(back.cost.Q, spec.cost.Q)
    assert np.array_equal(back.cost.R, spec.cost.R)
    with pytest.raises(ConfigInvalid):
        parse_config_document(run_document({"A": doc["A"]}))
