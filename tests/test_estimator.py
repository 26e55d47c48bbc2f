"""Least-squares identification tests, including exact noiseless recovery."""

import numpy as np
import pytest

from alqr.control_math import SystemMatrices
from alqr.estimator import (PINV_RTOL, EstimatorState, estimates,
                             estimation_error)


def test_absorb_single_pair():
    est = EstimatorState(state_dim=2, input_dim=1)
    z = np.array([1.0, 0.0, 0.0])
    x_next = np.array([1.0, 0.0])
    est.absorb(z, x_next)
    V = np.zeros((3, 3)); V[0, 0] = 1.0
    S = np.zeros((2, 3)); S[0, 0] = 1.0
    assert np.array_equal(est.snapshot()[0], V)
    assert np.array_equal(est.snapshot()[1], S)
    assert est.count == 1


def test_absorb_commutes():
    rng = np.random.default_rng(0)
    pairs = [(rng.standard_normal(4), rng.standard_normal(3)) for _ in range(2)]
    fwd = EstimatorState(state_dim=3, input_dim=1)
    rev = EstimatorState(state_dim=3, input_dim=1)
    for z, x in pairs:
        fwd.absorb(z, x)
    for z, x in reversed(pairs):
        rev.absorb(z, x)
    for a, b in zip(fwd.snapshot(), rev.snapshot()):
        assert np.allclose(a, b, atol=1e-15)


def test_absorb_accumulates_count_on_diagonal():
    est = EstimatorState(state_dim=1, input_dim=1)
    z = np.array([1.0, 0.0])
    for _ in range(17):
        est.absorb(z, np.array([0.5]))
    assert abs(est.snapshot()[0][0, 0] - 17.0) < 1e-12
    assert est.count == 17


def test_block_splits_match_per_row_absorbs():
    # the sums are folded in 512-row groups counted from the first pair,
    # so any split into blocks, with reads in between, gives the same bits
    rng = np.random.default_rng(21)
    Z = rng.standard_normal((1300, 5))
    Xn = rng.standard_normal((1300, 3))
    rows = EstimatorState(state_dim=3, input_dim=2)
    for z, x in zip(Z, Xn):
        rows.absorb(z, x)
    for cuts in ([0, 1300], [0, 511, 513, 1024, 1025, 1300],
                 [0, 7, 600, 601, 1100, 1300], [0, 1, 2, 1299, 1300]):
        blocks = EstimatorState(state_dim=3, input_dim=2)
        for a, b in zip(cuts[:-1], cuts[1:]):
            blocks.absorb(Z[a:b], Xn[a:b])
            blocks.estimate()
        assert blocks.count == rows.count
        for a, b in zip(blocks.snapshot(), rows.snapshot()):
            assert np.array_equal(a, b), cuts
        assert np.array_equal(blocks.estimate().Theta,
                              rows.estimate().Theta), cuts



def test_snapshots_keep_their_values():
    # a snapshot is the sums at the step it was taken: later absorbs,
    # folds at 512-row boundaries included, leave it alone, and it has the
    # bits of an estimator fed exactly that far. estimates over snapshots
    # of one estimator at several steps gives each step's own estimate
    rng = np.random.default_rng(12)
    Z = rng.standard_normal((1300, 5))
    Xn = rng.standard_normal((1300, 3))
    state = EstimatorState(state_dim=3, input_dim=2)
    steps = (0, 1, 4, 511, 512, 513, 1024, 1300)
    snapshots, copies = [], []
    for a, b in zip((0,) + steps, steps):
        state.absorb(Z[a:b], Xn[a:b])
        snapshots.append(state.snapshot())
        copies.append([array.copy() for array in snapshots[-1]])
    Theta, ranks = estimates(snapshots)
    for c, snapshot, copy, theta, rank in zip(steps, snapshots, copies,
                                              Theta, ranks):
        fresh = EstimatorState(state_dim=3, input_dim=2)
        fresh.absorb(Z[:c], Xn[:c])
        for got, kept, want in zip(snapshot, copy, fresh.snapshot()):
            assert got.tobytes() == kept.tobytes() == want.tobytes(), c
        single = fresh.estimate()
        assert single.Theta.tobytes() == theta.tobytes(), c
        assert single.rank == rank, c


@pytest.mark.parametrize("n, m", [(3, 2), (8, 4), (16, 8)])
def test_stack_rows_match_lone_estimators(n, m):
    # a stack of five trials fed step-major blocks that cross the 512-row
    # flush, read between blocks, with rows leaving at different counts
    # (one at 0, inside a flush group, right after a flush): each row's
    # sums and estimate are the bits of a lone estimator fed its pairs in
    # one block, and a snapshot keeps its values while the stack goes on
    rng = np.random.default_rng([n, m])
    N, d = 5, n + m
    Z = rng.standard_normal((1400, N, d))
    Xn = rng.standard_normal((1400, N, n))
    cuts = (0, 1, 7, 300, 511, 512, 513, 1024, 1100, 1400)
    leave = {0: [2], 300: [4], 512: [0, 3]}
    stack = EstimatorState(n, m, trials=N)
    rows = list(range(N))
    snapshots, copies, cells = [], [], []
    for a, b in zip(cuts, cuts[1:]):
        for r in leave.get(a, ()):
            stack.leave([row != r for row in rows])
            rows.remove(r)
        stack.absorb(Z[a:b, rows], Xn[a:b, rows])
        assert stack.count == b
        snapshots.append(stack.snapshot())
        copies.append([array.copy() for array in snapshots[-1]])
        cells += [(r, b) for r in rows]
    assert rows == [1]
    Theta, ranks = estimates(snapshots)
    V = np.concatenate([v for v, _ in snapshots])
    S = np.concatenate([s for _, s in snapshots])
    for snapshot, copy in zip(snapshots, copies):
        for got, kept in zip(snapshot, copy):
            assert got.tobytes() == kept.tobytes()
    for (r, c), v, s, theta, rank in zip(cells, V, S, Theta, ranks):
        lone = EstimatorState(n, m)
        lone.absorb(Z[:c, r], Xn[:c, r])
        want_v, want_s = lone.snapshot()
        assert v.tobytes() == want_v.tobytes(), (r, c)
        assert s.tobytes() == want_s.tobytes(), (r, c)
        single = lone.estimate()
        assert single.Theta.tobytes() == theta.tobytes(), (r, c)
        assert single.rank == rank, (r, c)


def test_trace_matches_sum_of_squares():
    rng = np.random.default_rng(8)
    est = EstimatorState(state_dim=2, input_dim=2)
    total = 0.0
    for _ in range(700):  # crosses the internal flush block size
        z = rng.standard_normal(4)
        total += float(z @ z)
        est.absorb(z, rng.standard_normal(2))
    assert abs(np.trace(est.snapshot()[0]) - total) < 1e-9 * max(1.0, total)


def test_estimate_empty_state():
    est = EstimatorState(state_dim=3, input_dim=2)
    out = est.estimate()
    assert np.array_equal(out.Theta, np.zeros((3, 5)))
    assert out.rank == 0


def test_noiseless_scalar_recovery():
    a, b = 0.5, 1.0
    est = EstimatorState(state_dim=1, input_dim=1)
    x = 0.0
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal()
        x_next = a * x + b * u
        est.absorb(np.array([x, u]), np.array([x_next]))
        x = x_next
    out = est.estimate()
    assert abs(out.A_hat[0, 0] - a) < 1e-10
    assert abs(out.B_hat[0, 0] - b) < 1e-10
    assert out.rank == 2


def test_noiseless_recovery_multivariate():
    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n)) * 0.3
        B = rng.standard_normal((n, m))
        truth = SystemMatrices(A=A, B=B)
        est = EstimatorState(state_dim=n, input_dim=m)
        x = np.zeros(n)
        for _ in range(5 * (n + m)):
            u = rng.standard_normal(m)
            x_next = A @ x + B @ u
            est.absorb(np.concatenate([x, u]), x_next)
            x = x_next
        out = est.estimate()
        assert out.rank == n + m
        assert estimation_error(out, truth) <= 1e-8


def test_minimum_norm_on_rank_deficient_data():
    # regressors confined to span{e1, e2}: estimate must have no component
    # outside that span, i.e. Theta (I - V V^+) = 0
    rng = np.random.default_rng(9)
    est = EstimatorState(state_dim=2, input_dim=2)
    for _ in range(30):
        z = np.zeros(4)
        z[:2] = rng.standard_normal(2)
        est.absorb(z, rng.standard_normal(2))
    out = est.estimate()
    assert out.rank == 2
    V = est.snapshot()[0]
    proj = np.eye(4) - V @ np.linalg.pinv(V)
    assert np.linalg.norm(out.Theta @ proj) < 1e-8
    assert np.allclose(out.Theta[:, 2:], 0.0, atol=1e-8)


def test_estimation_error_trivial_cases():
    rng = np.random.default_rng(30)
    A = rng.standard_normal((3, 3)) * 0.2
    B = rng.standard_normal((3, 2))
    truth = SystemMatrices(A=A, B=B)
    Theta = np.hstack([A, B])
    assert estimation_error(Theta, truth) == 0.0
    bump = Theta.copy()
    bump[0, 0] += 0.25
    assert abs(estimation_error(bump, truth) - 0.25) < 1e-12
    with pytest.raises(ValueError):
        estimation_error(np.zeros((2, 2)), truth)


def test_noisy_scalar_consistency():
    # scalar plant driven by decaying probe noise; estimate should land
    # within 0.05 of the truth after 1e5 steps
    a, b = 0.5, 1.0
    rng = np.random.default_rng(44)
    T = 100_000
    w = rng.standard_normal(T)
    v = rng.standard_normal(T)
    est = EstimatorState(state_dim=1, input_dim=1)
    x = 0.0
    for k in range(1, T + 1):
        u = k ** -0.25 * v[k - 1]
        x_next = a * x + b * u + w[k - 1]
        est.absorb(np.array([x, u]), np.array([x_next]))
        x = x_next
    out = est.estimate()
    err = estimation_error(out, SystemMatrices(A=[[a]], B=[[b]]))
    assert err <= 0.05


def _estimate_2d(state):
    """S V^+ written out for one estimator, one matrix at a time."""
    V, S = state.snapshot()
    eigvals, eigvecs = np.linalg.eigh(V)
    keep = eigvals > PINV_RTOL * max(eigvals[-1], 0.0)
    if not keep.any():
        return np.zeros_like(S), 0
    U = eigvecs[:, keep]
    return S @ U @ (U * (1.0 / eigvals[keep])).T, int(keep.sum())


@pytest.mark.parametrize("n,m", [(3, 2), (16, 8), (2, 1)])
def test_stacked_estimates_match_single_estimates(n, m):
    # one batch mixing ranks: no pairs yet, 1, 2 and 4 early steps, and a
    # full-rank tail; each row must be the bits of its own estimate
    rng = np.random.default_rng([n, m])
    states = []
    lengths = (0, 1, 2, 4, 2, 1, 3 * (n + m))
    for steps in lengths:
        state = EstimatorState(n, m)
        if steps:
            state.absorb(rng.standard_normal((steps, n + m)),
                         rng.standard_normal((steps, n)))
        states.append(state)
    Theta, ranks = estimates([state.snapshot() for state in states])
    assert ranks.tolist() == [min(steps, n + m) for steps in lengths]
    for state, theta, rank in zip(states, Theta, ranks):
        single = state.estimate()
        assert single.rank == rank
        assert single.Theta.tobytes() == theta.tobytes()
        reference, reference_rank = _estimate_2d(state)
        assert reference_rank == rank
        assert reference.tobytes() == theta.tobytes()


def test_stacked_estimation_error_matches_single_calls():
    rng = np.random.default_rng(4)
    truth = SystemMatrices(A=rng.standard_normal((3, 3)),
                           B=rng.standard_normal((3, 2)))
    Theta = rng.standard_normal((5, 3, 5))
    errors = estimation_error(Theta, truth)
    singles = [estimation_error(theta, truth) for theta in Theta]
    assert all(type(value) is float for value in singles)
    assert errors.tobytes() == np.array(singles).tobytes()
    assert singles[0] == float(np.linalg.norm(
        Theta[0] - np.hstack([truth.A, truth.B]), 2))
    with pytest.raises(ValueError):
        estimation_error(np.zeros((2, 3, 4)), truth)
