"""Oracle tests for the LQR math core.

The scalar cases have closed forms (the quadratic formula for the Riccati
equation), so expected values are computed independently inside each test
rather than taken from the functions under test. scipy's generalized
symmetric eigensolver is the independent reference for the margin.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from alqr.control_math import (
    CostWeights,
    SystemMatrices,
    controllability_rank,
    controllability_ranks,
    solve_dare,
    solve_dare_stack,
    spectral_radius,
    stability_margin,
    _check_spd,
    _gain_step,
    _ill_conditioned,
)
from alqr.errors import IllConditioned, NonConvergence


def scalar_dare_oracle():
    # p solves p^2 - 0.25 p - 1 = 0 for a=0.5, b=1, q=r=1
    p = (0.25 + math.sqrt(0.25 ** 2 + 4.0)) / 2.0
    k = -0.5 * p / (1.0 + p)
    return p, k


def random_stable_pair(rng, n, m, rho):
    A = rng.standard_normal((n, n))
    A *= rho / spectral_radius(A)
    B = rng.standard_normal((n, m))
    return SystemMatrices(A=A, B=B)


def test_spectral_radius_scaled_identity():
    assert abs(spectral_radius(0.5 * np.eye(4)) - 0.5) < 1e-14


def test_spectral_radius_nilpotent():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) < 1e-10


def test_spectral_radius_rotation():
    M = np.array([[0.0, 0.9], [-0.9, 0.0]])
    assert abs(spectral_radius(M) - 0.9) < 1e-12


def test_dare_zero_dynamics_collapses_to_q():
    n = 3
    sys = SystemMatrices(A=np.zeros((n, n)), B=np.eye(n))
    sol = solve_dare(sys, CostWeights(Q=np.eye(n), R=np.eye(n)))
    assert np.allclose(sol.P_star, np.eye(n), atol=1e-12)
    assert np.allclose(sol.K_star, np.zeros((n, n)), atol=1e-12)
    assert abs(sol.J_star - n) < 1e-12


def test_dare_scalar_quadratic_oracle():
    p_expect, k_expect = scalar_dare_oracle()
    sys = SystemMatrices(A=np.array([[0.5]]), B=np.array([[1.0]]))
    sol = solve_dare(sys, CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]])))
    assert abs(sol.P_star[0, 0] - p_expect) <= 1e-10
    assert abs(sol.K_star[0, 0] - k_expect) <= 1e-10
    assert abs(sol.J_star - p_expect) <= 1e-10
    assert 0.0 < sol.rho_star < 1.0


def test_dare_residual_and_closed_loop_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        sys = random_stable_pair(rng, n, m, 0.9)
        cost = CostWeights(Q=np.eye(n), R=np.eye(m))
        sol = solve_dare(sys, cost)
        A, B, P, K = sys.A, sys.B, sol.P_star, sol.K_star
        G = cost.R + B.T @ P @ B
        dare_res = np.linalg.norm(
            A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(G, B.T @ P @ A)
            + cost.Q - P, "fro")
        assert dare_res <= 1e-9 * (1.0 + np.linalg.norm(P, "fro"))
        Acl = A + B @ K
        lyap_res = np.linalg.norm(
            Acl.T @ P @ Acl - P + cost.Q + K.T @ cost.R @ K, "fro")
        assert lyap_res <= 1e-8 * (1.0 + np.linalg.norm(P, "fro"))
        assert stability_margin(Acl, P) < 1.0


def test_dare_gain_perturbation_identity():
    # Q + K'RK + (A+BK)'P*(A+BK) - P* must equal dK'(R+B'P*B)dK
    rng = np.random.default_rng(23)
    sys = random_stable_pair(rng, 4, 2, 0.9)
    cost = CostWeights(Q=np.eye(4), R=np.eye(2))
    sol = solve_dare(sys, cost)
    A, B, P = sys.A, sys.B, sol.P_star
    G = cost.R + B.T @ P @ B
    for _ in range(100):
        dK = rng.standard_normal((2, 4))
        K = sol.K_star + dK
        lhs = cost.Q + K.T @ cost.R @ K + (A + B @ K).T @ P @ (A + B @ K) - P
        rhs = dK.T @ G @ dK
        assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-8)


def test_dare_monotone_cost_scaling():
    rng = np.random.default_rng(40)
    sys = random_stable_pair(rng, 3, 2, 0.85)
    base = solve_dare(sys, CostWeights(Q=np.eye(3), R=np.eye(2)))
    for alpha in (0.5, 3.75):
        scaled = solve_dare(
            sys, CostWeights(Q=alpha * np.eye(3), R=alpha * np.eye(2)))
        assert np.allclose(scaled.P_star, alpha * base.P_star, rtol=1e-9)
        assert np.allclose(scaled.K_star, base.K_star, rtol=1e-8, atol=1e-10)


def test_dare_nonconvergence_with_perturbed_tolerance():
    sys = SystemMatrices(A=np.array([[0.5]]), B=np.array([[1.0]]))
    cost = CostWeights(Q=np.array([[1.0]]), R=np.array([[1.0]]))
    with pytest.raises(NonConvergence):
        solve_dare(sys, cost, rtol=1.0)


def test_dare_diverges_on_unstabilizable_pair():
    # unstable A with zero input authority in the unstable direction
    A = np.array([[1.5, 0.0], [0.0, 0.2]])
    B = np.array([[0.0], [1.0]])
    sys = SystemMatrices(A=A, B=B)
    with pytest.raises(NonConvergence):
        solve_dare(sys, CostWeights(Q=np.eye(2), R=np.eye(1)))


def gain_of_one(A, B, P, R):
    """K = -(R + B'PB)^-1 B'PA by _gain_step on a stack of one, or the
    IllConditioned error _ill_conditioned makes of a failing row."""
    ill, _, K, geigs = _gain_step(A[None], B[None], P[None], R)
    if ill:
        raise _ill_conditioned(geigs[0])
    return K[0]


def test_gain_step_identity_algebra():
    n = 3
    K = gain_of_one(np.eye(n), np.eye(n), np.eye(n), np.eye(n))
    assert np.allclose(K, -0.5 * np.eye(n), atol=1e-14)


def test_gain_step_zero_input_map():
    K = gain_of_one(np.eye(3), np.zeros((3, 2)), np.eye(3), np.eye(2))
    assert np.allclose(K, np.zeros((2, 3)), atol=1e-15)


def test_gain_step_ill_conditioned():
    with pytest.raises(IllConditioned):
        gain_of_one(np.eye(2), np.zeros((2, 2)), np.eye(2),
                    np.diag([1.0, 1e-13]))


def test_controllability_full_via_b():
    sys = SystemMatrices(A=np.zeros((4, 4)), B=np.eye(4))
    assert controllability_rank(sys) == 4


def test_controllability_zero_input_map():
    rng = np.random.default_rng(3)
    sys = SystemMatrices(A=rng.standard_normal((3, 3)), B=np.zeros((3, 2)))
    assert controllability_rank(sys) == 0


def test_controllability_chain():
    sys = SystemMatrices(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                         B=np.array([[0.0], [1.0]]))
    assert controllability_rank(sys) == 2


def test_stability_margin_zero_matrix():
    assert stability_margin(np.zeros((3, 3)), np.eye(3)) == 0.0


def test_stability_margin_scalar_scaling():
    for c in (0.3, 0.9, 1.4):
        got = stability_margin(c * np.eye(2), np.eye(2))
        assert abs(got - c * c) < 1e-12


def test_stability_margin_scalar_closed_loop():
    p_expect, k_expect = scalar_dare_oracle()
    closed = 0.5 + k_expect
    got = stability_margin(np.array([[closed]]), np.array([[p_expect]]))
    assert abs(got - closed ** 2) < 1e-10


def test_stability_margin_matches_generalized_eigensolve():
    # the largest eigenvalue of the pencil (M'PM, P), solved by scipy
    for n in (1, 3, 8, 16):
        for seed in range(5):
            rng = np.random.default_rng([n, seed])
            M = rng.standard_normal((n, n))
            G = rng.standard_normal((n, n))
            d = np.logspace(0.0, 1.0, n)
            P = d[:, None] * (G @ G.T + np.eye(n)) * d[None, :]
            lhs = M.T @ P @ M
            lhs = 0.5 * (lhs + lhs.T)
            expected = scipy.linalg.eigh(lhs, P, eigvals_only=True)[-1]
            assert stability_margin(M, P) == pytest.approx(
                expected, rel=1e-12), (n, seed)


def test_system_matrices_validation():
    with pytest.raises(ValueError):
        SystemMatrices(A=np.zeros((2, 3)), B=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        SystemMatrices(A=np.zeros((2, 2)), B=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SystemMatrices(A=np.array([[np.nan, 0], [0, 0]]), B=np.zeros((2, 1)))


def test_cost_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1))
    with pytest.raises(ValueError):
        CostWeights(Q=-np.eye(2), R=np.eye(1))


def test_spd_check_past_norm_overflow():
    # entries past ~1.3e154 overflow a Frobenius norm; the symmetry test
    # must still fire, and a symmetric matrix pass with no RuntimeWarning
    with pytest.raises(ValueError, match="W is not symmetric"):
        _check_spd(np.array([[1e160, 5e159], [0.0, 1e160]]), "W")
    assert np.array_equal(_check_spd(1e160 * np.eye(2), "W"),
                          1e160 * np.eye(2))
    # the decision does not depend on a power-of-two scale up: a skew just
    # inside the 1e-8 relative tolerance passes, one just outside fails
    for skew, ok in ((0.5e-8, True), (2e-8, False)):
        M = np.array([[1.0, skew], [0.0, 1.0]])
        for e in (0, 400, 600, 1000):
            scaled = np.ldexp(M, e)
            if ok:
                assert np.array_equal(_check_spd(scaled, "W"),
                                      0.5 * (scaled + scaled.T)), e
            else:
                with pytest.raises(ValueError, match="not symmetric"):
                    _check_spd(scaled, "W")


def test_spd_check_symmetrizes_near_float_max():
    # 0.5 * (M + M.T) overflows for entries past ~9e307; the check
    # symmetrizes its scaled copy, so a finite SPD input comes back finite
    # and unchanged, with no RuntimeWarning
    M = np.array([[1.7e308, 1e308], [1e308, 1.6e308]])
    assert np.array_equal(_check_spd(M, "W"), M)
    assert np.array_equal(_check_spd(1.7e308 * np.eye(2), "W"),
                          1.7e308 * np.eye(2))
    skewed = M.copy()
    skewed[0, 1] = np.nextafter(1e308, np.inf)
    out = _check_spd(skewed, "W")
    assert np.all(np.isfinite(out)) and out[0, 1] == out[1, 0]
    assert np.array_equal(np.diag(out), np.diag(M))
    with pytest.raises(ValueError, match=r"min eig -1\.700e\+308"):
        _check_spd(np.diag([1.7e308, -1.7e308]), "W")


def _outcome(solved):
    """What a caller sees of one solve: the bits of P and K and the
    iteration count, or the exception's type, message and iterations."""
    if isinstance(solved, Exception):
        return (type(solved).__name__, str(solved),
                getattr(solved, "iterations", None))
    P, K, iterations, residual = solved
    return ("ok", P.tobytes(), K.tobytes(), iterations, residual)


def _doubling_2d(A, B, Q, R, rtol, residual_tol):
    """The Riccati doubling and its checks on one system with 2-d matrices,
    written out: (P, K, steps) or (exception type name, steps)."""
    n = len(A)
    Ak, H = A, Q.copy()
    G = B @ np.linalg.solve(R, B.T)
    G = 0.5 * (G + G.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, 65):
            W = np.eye(n) + G @ H
            try:
                X = np.linalg.solve(W, np.concatenate([Ak, G], axis=1))
            except np.linalg.LinAlgError:
                return ("IllConditioned", None)
            G_next = G + Ak @ X[:, n:] @ Ak.T
            H_next = H + Ak.T @ H @ X[:, :n]
            Ak = Ak @ X[:, :n]
            G = 0.5 * (G_next + G_next.T)
            H_next = 0.5 * (H_next + H_next.T)
            delta = np.linalg.norm(H_next - H, "fro")
            H = H_next
            norm_h = np.linalg.norm(H, "fro")
            if not norm_h <= 1e150:
                return ("NonConvergence", step)
            if delta <= rtol * norm_h:
                break
        else:
            return ("NonConvergence", 64)
    P = H
    eigs = np.linalg.eigvalsh(P)
    if eigs[0] <= 1e-14 * max(1.0, eigs[-1]):
        return ("NonConvergence", step)
    BtP = B.T @ P
    G = R + BtP @ B
    G = 0.5 * (G + G.T)
    geigs = np.linalg.eigvalsh(G)
    if geigs[0] <= 0.0 or geigs[-1] / geigs[0] > 1e12:
        return ("IllConditioned", None)
    K = -np.linalg.solve(G, BtP @ A)
    residual = np.linalg.norm(A.T @ P @ A + (BtP @ A).T @ K + Q - P, "fro")
    if residual > residual_tol * (1.0 + np.linalg.norm(P, "fro")):
        return ("NonConvergence", step)
    if not np.max(np.abs(np.linalg.eigvals(A + B @ K))) < 1.0:
        return ("NonConvergence", step)
    return (P.tobytes(), K.tobytes(), step)


def test_riccati_stack_rows_match_separate_solves():
    # one stack mixing every way a row can leave it, in an order that makes
    # the compaction carry rows past each other; each row must come out as
    # the separate solve_dare on its system, step count included
    rng = np.random.default_rng(11)
    rows = [
        # R + B'PB = 1e20 [[p, p], [p, p]] exactly: R is lost in the sum,
        # so the matrix is singular and a stacked solve over it would raise
        ("ill", 0.5 * np.eye(2), np.array([[1e10, 1e10], [0.0, 0.0]])),
        ("healthy", 0.3 * rng.standard_normal((2, 2)),
         rng.standard_normal((2, 2))),
        # unstable mode the input cannot reach
        ("diverges", np.diag([1.5, 0.2]), np.array([[0.0, 0.0], [1.0, 0.5]])),
        # unstable mode at 50: A'PA amplifies the round-off of P past
        # 1e-13 (1 + ||P||)
        ("residual", np.diag([50.0, 0.5]), np.eye(2)),
        # barely controllable unstable mode: P reaches ~5e15 next to ~1,
        # past the SPD test's 1e-14 eigenvalue ratio
        ("not SPD", np.diag([1.25, 0.5]), np.array([[1e-8, 0.0], [0.0, 1.0]])),
        ("healthy", 0.3 * rng.standard_normal((2, 2)),
         rng.standard_normal((2, 2))),
        # G = B B' = 1e20 [[1, 1], [1, 1]], so I + G Q rounds to a singular
        # matrix and the first step's stacked solve would raise
        ("stuck", 0.5 * np.eye(2), np.array([[1e10, 0.0], [1e10, 0.0]])),
        # uncontrollable mode at 0.9: 426 steps of the Riccati map
        ("slow", np.diag([0.9, 0.5]), np.array([[0.0, 0.0], [0.0, 1.0]])),
    ]
    cost = CostWeights(Q=np.eye(2), R=np.eye(2))
    tol = 1e-13
    stacked = solve_dare_stack(np.stack([A for _, A, _ in rows]),
                               np.stack([B for _, _, B in rows]),
                               cost.Q, cost.R, residual_tol=tol)
    kinds = []
    for (name, A, B), got in zip(rows, stacked):
        try:
            sol = solve_dare(SystemMatrices(A=A, B=B), cost, residual_tol=tol)
            alone = (sol.P_star, sol.K_star, sol.iterations, sol.residual)
        except (NonConvergence, IllConditioned) as exc:
            alone = exc
        assert _outcome(got) == _outcome(alone), name
        kinds.append(_outcome(got)[0])
        reference = _doubling_2d(A, B, cost.Q, cost.R, 1e-12, tol)
        if isinstance(got, Exception):
            assert (type(got).__name__, got.iterations
                    if isinstance(got, NonConvergence) else None) == reference
        else:
            assert (got[0].tobytes(), got[1].tobytes(), got[2]) == reference
    messages = [str(got) for got in stacked]
    assert kinds == ["IllConditioned", "ok", "NonConvergence",
                     "NonConvergence", "NonConvergence", "ok",
                     "IllConditioned", "ok"]
    assert "singular to working precision" in messages[0]
    assert "diverged by step" in messages[2]
    assert "DARE residual" in messages[3]
    assert "not a valid value matrix" in messages[4]
    assert messages[6] == "I + GH is singular at doubling step 1"
    assert [getattr(got, "iterations", None) if isinstance(got, Exception)
            else got[2] for got in stacked] == [None, 5, 9, 4, 9, 5, None, 9]


def test_dare_refuses_a_closed_loop_that_does_not_contract():
    # a = 2, b = 0.1: with rtol = 1 the doubling stops after one step at
    # H = 1 + 4 / 1.01, which passes every other check (the residual test
    # is off), but A + BK = 1.906 is unstable
    sys = SystemMatrices(A=np.array([[2.0]]), B=np.array([[0.1]]))
    cost = CostWeights(Q=np.eye(1), R=np.eye(1))
    with pytest.raises(NonConvergence, match="spectral radius 1.9") as info:
        solve_dare(sys, cost, rtol=1.0, residual_tol=math.inf)
    assert info.value.iterations == 1
    sol = solve_dare(sys, cost)
    assert abs(2.0 + 0.1 * sol.K_star[0, 0]) < 1.0


def test_dare_solves_an_estimate_the_riccati_map_stalled_on():
    # an every-step estimate (3x2 reference plant, base seed 0, horizon
    # 12) with |eig(A)| = 149: A'PA amplifies round-off, and the Riccati
    # map's relative change sat at a floor above DARE_RTOL for 100 000
    # iterations, so the controller took the zero gain
    A = np.array([
        [-455.0871122757005, 508.99625459627276, -579.5137347527746],
        [-218.99325552691798, 244.24584172938032, -279.924614614132],
        [48.021360136121615, -53.95837166188334, 60.94367009524178]])
    B = np.array([
        [-150.2509793591829, -834.0587229636589],
        [-70.20406490047068, -401.11954008537947],
        [18.2150534688802, 88.9050797343248]])
    cost = CostWeights(Q=np.eye(3), R=np.eye(2))
    start = time.perf_counter()
    sol = solve_dare(SystemMatrices(A=A, B=B), cost)
    assert time.perf_counter() - start < 1.0
    expected = scipy.linalg.solve_discrete_are(A, B, cost.Q, cost.R)
    assert np.linalg.norm(sol.P_star - expected) <= 1e-9 * np.linalg.norm(
        expected)
    assert spectral_radius(A + B @ sol.K_star) < 1.0
    assert sol.iterations == 5


def test_ill_conditioned_message_is_finite_when_r_plus_bpb_is_singular():
    # R + B'PB rounds to 1e20 [[1, 1], [1, 1]], whose smallest eigenvalue
    # is 0: the condition number is no float, and the message says so
    # with no RuntimeWarning
    with pytest.raises(IllConditioned) as info:
        gain_of_one(0.5 * np.eye(2), np.array([[1e10, 1e10], [0.0, 0.0]]),
                    np.eye(2), np.eye(2))
    message = str(info.value)
    assert "singular to working precision" in message
    assert "inf" not in message and "nan" not in message
    with pytest.raises(IllConditioned, match=r"condition number 1\.000e\+13"):
        gain_of_one(np.eye(2), np.zeros((2, 2)), np.eye(2),
                    np.diag([1.0, 1e-13]))


def test_riccati_stack_of_none():
    assert solve_dare_stack(np.zeros((0, 2, 2)), np.zeros((0, 2, 1)),
                            np.eye(2), np.eye(1)) == []


def test_controllability_ranks_match_single_systems():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 3, 3))
    B = rng.standard_normal((6, 3, 2))
    B[1] = 0.0
    B[2, :, 1] = B[2, :, 0]
    A[2] = 0.0
    ranks = controllability_ranks(A, B)
    assert ranks.tolist() == [
        controllability_rank(SystemMatrices(A=a, B=b)) for a, b in zip(A, B)]
    assert ranks[1] == 0 and ranks[2] == 1


def test_stability_margin_stack_matches_single_calls():
    rng = np.random.default_rng(9)
    for n in (1, 3, 8):
        G = rng.standard_normal((n, n))
        P = G @ G.T + np.eye(n)
        Ms = rng.standard_normal((7, n, n))
        Ms[2] = 0.0
        stacked = stability_margin(Ms, P)
        assert stacked.shape == (7,)
        singles = [stability_margin(M, P) for M in Ms]
        assert all(type(value) is float for value in singles)
        assert stacked.tobytes() == np.array(singles).tobytes(), n
    with pytest.raises(ValueError, match="non-finite"):
        stability_margin(np.array([[np.inf]]), np.eye(1))
    with pytest.raises(ValueError):
        stability_margin(np.full((2, 1, 1), np.nan), np.eye(1))
