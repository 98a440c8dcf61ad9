import numpy as np
import pytest

from fdirnet.exceptions import ConvergenceFailure
from fdirnet.prox import (
    ProxCase,
    ProxProblem,
    objective,
    solve_prox,
    stationarity_residual,
    zero_test,
)

from conftest import multistart_minimize


def test_zero_test_examples():
    assert zero_test(ProxProblem([[1.0]], [0.5]))
    assert not zero_test(ProxProblem([[1.0]], [3.0]))
    assert zero_test(ProxProblem(np.random.default_rng(0).normal(size=(3, 2)),
                                 np.zeros(3)))


def test_scalar_interior_case():
    sol = solve_prox(ProxProblem([[1.0]], [3.0]), tol=1e-12)
    assert sol.case is ProxCase.INTERIOR
    assert sol.v_star == pytest.approx([2.0], abs=1e-9)


def test_isotropic_interior_case():
    # A^T A = 4I forces v* parallel to A^T b; 4t + 1 = 10 gives t = 2.25
    sol = solve_prox(ProxProblem(2 * np.eye(2), [3.0, 4.0]), tol=1e-12)
    assert sol.v_star == pytest.approx([1.35, 1.8], abs=1e-9)


def test_zero_case_is_exact():
    sol = solve_prox(ProxProblem([[1.0]], [0.5]))
    assert sol.case is ProxCase.ZERO
    assert np.array_equal(sol.v_star, [0.0])
    assert sol.iterations == 0


def test_objective_examples():
    p = ProxProblem([[1.0]], [3.0])
    assert objective(p, [0.0]) == pytest.approx(4.5)
    assert objective(p, [2.0]) == pytest.approx(2.5)


def test_stationarity_residual_examples():
    p = ProxProblem([[1.0]], [3.0])
    assert stationarity_residual(p, [2.0]) == pytest.approx(0.0, abs=1e-12)
    assert stationarity_residual(p, [1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        stationarity_residual(p, [0.0])


def test_random_interior_optimality_probe(rng):
    for _ in range(20):
        A = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        g = A.T @ b
        if np.linalg.norm(g) <= 1.1:
            b = b * (2.0 / max(np.linalg.norm(g), 1e-9))
        p = ProxProblem(A, b)
        if zero_test(p):
            continue
        sol = solve_prox(p, tol=1e-10)
        assert sol.stationarity_residual <= 1e-8
        f_star = objective(p, sol.v_star)
        for k in range(2):
            for s in (+1, -1):
                probe = sol.v_star.copy()
                probe[k] += s * 1e-4
                assert f_star <= objective(p, probe) + 1e-12


def test_matches_dense_grid_search_2d(rng):
    A = np.array([[1.5, 0.2], [-0.3, 0.8], [0.1, 1.1]])
    b = np.array([2.0, -1.0, 1.5])
    p = ProxProblem(A, b)
    sol = solve_prox(p, tol=1e-12)
    grid = np.linspace(-3, 3, 301)
    vals = np.array([[objective(p, np.array([u, w])) for w in grid] for u in grid])
    iu, iw = np.unravel_index(np.argmin(vals), vals.shape)
    assert sol.v_star == pytest.approx([grid[iu], grid[iw]], abs=0.03)
    assert objective(p, sol.v_star) <= vals[iu, iw] + 1e-12


def test_case_dichotomy_against_direct_oracle(rng):
    for _ in range(60):
        o, n = rng.integers(1, 5, size=2)
        A = rng.normal(size=(o, n))
        b = rng.normal(size=o)
        scale = rng.uniform(0.2, 2.0) / max(np.linalg.norm(A.T @ b), 1e-9)
        p = ProxProblem(A, b * scale)
        v_direct = multistart_minimize(p.A, p.b, rng, starts=5)
        assert zero_test(p) == (np.linalg.norm(v_direct) <= 1e-6)


def test_interior_norm_lower_bound(rng):
    for _ in range(20):
        A = rng.normal(size=(4, 3))
        b = rng.normal(size=4) * 3.0
        p = ProxProblem(A, b)
        if zero_test(p):
            continue
        sol = solve_prox(p, tol=1e-10)
        g = np.linalg.norm(A.T @ b)
        lmax = np.linalg.eigvalsh(A.T @ A).max()
        assert np.linalg.norm(sol.v_star) >= (g - 1.0) / lmax - 1e-10


def test_uniqueness_two_runs_agree(rng):
    # accelerated and plain descent take different paths to the same point
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3) * 3.0
        p = ProxProblem(A, b)
        if zero_test(p):
            continue
        v1 = solve_prox(p, tol=1e-10, accelerated=True).v_star
        v2 = solve_prox(p, tol=1e-10, accelerated=False,
                        max_iters=500_000).v_star
        assert np.linalg.norm(v1 - v2) <= 1e-6


def test_history_is_monotone_best_so_far():
    p = ProxProblem(np.array([[1.2, 0.1], [0.0, 0.9]]), np.array([3.0, -2.5]))
    sol = solve_prox(p, tol=1e-10, record_history=True)
    assert all(b <= a + 1e-15 for a, b in zip(sol.history, sol.history[1:]))


def test_budget_exhaustion_raises_with_best():
    p = ProxProblem(np.array([[2.0, 0.3], [0.1, 0.5]]), np.array([3.0, -4.0]))
    with pytest.raises(ConvergenceFailure) as exc:
        solve_prox(p, tol=1e-14, max_iters=1)
    assert exc.value.best is not None
    assert exc.value.residual is not None


def test_invalid_inputs():
    with pytest.raises(ValueError):
        ProxProblem([[np.inf]], [1.0])
    with pytest.raises(ValueError):
        solve_prox(ProxProblem([[1.0]], [3.0]), tol=0.0)
