import numpy as np
import pytest

from fdirnet.agent import AgentState
from fdirnet.prox import zero_test

from conftest import minimize_step3_direct, random_agent_state, step3_objective


def one_edge_state(J, r, x_star=(0.0, 0.0), neighbors=(1,), rho=1.0):
    """Agent 0 whose only incident edge (index 0) has the packed rows (J, r)."""
    return AgentState(i=0, rho=rho, x_star=np.asarray(x_star, float),
                      neighbors=neighbors, incident=(0,), rows=(0, len(r)),
                      J=np.atleast_2d(J), r=np.asarray(r, float))


def simple_state(rho=1.0):
    """Agent 0 with one distance-like edge to 1 and neighbors {1}."""
    return one_edge_state([[0.6, 0.8, -0.6, -0.8]], [0.0], rho=rho)


def test_constraint_c_zero_at_rest():
    s = simple_state()
    assert s.constraint_c(0, np.zeros(2)) == pytest.approx([0.0])


def test_constraint_c_identity_edge():
    # an edge incident only to the agent itself, with R = I
    s = one_edge_state(np.eye(2), [0.3, -0.4], neighbors=())
    assert s.constraint_c(0, [0.3, -0.4]) == pytest.approx([0.0, 0.0])


def test_constraint_c_matches_central_assembly(rng):
    # the locally evaluated c equals the linearized row assembled block by
    # block from the agent's own column block and each neighbor slot's
    for _ in range(20):
        s = random_agent_state(rng)
        xhat = rng.normal(size=2)
        for l in s.incident:
            ev = s.edges[l]
            full = -ev.r + ev.J[:, :2] @ xhat
            for slot, w_j in enumerate(s.w):
                full = full + ev.J[:, 2 * (slot + 1):2 * (slot + 2)] @ w_j
            assert s.constraint_c(l, xhat) == pytest.approx(full, abs=1e-12)


def test_constraint_d():
    s = simple_state()
    s.nbr_copy_of_me[0] = [0.5, 0.5]
    assert s.constraint_d(1, [0.5, 0.5]) == pytest.approx([0.0, 0.0])
    assert s.constraint_d(1, [1.5, 0.5]) == pytest.approx([1.0, 0.0])


def test_packed_shapes_checked():
    with pytest.raises(ValueError):
        one_edge_state([[0.6, 0.8]], [0.0])  # no columns for neighbor 1


def test_relinearize_shifts_copies_and_keeps_a_copy_of_x_star(rng):
    s = random_agent_state(rng)
    s.x_bar[:] = rng.normal(size=s.n_i)
    w0, copies0, absorbed = s.w.copy(), s.nbr_copy_of_me.copy(), s.x_bar.copy()
    J, r, x_new = rng.normal(size=s.J.shape), rng.normal(size=s.r.shape), rng.normal(size=2)
    s.relinearize(J, r, x_new)
    # my copies lose what each neighbor absorbed, theirs of me what I did
    assert np.array_equal(s.w, w0 - s.nbr_xbar)
    assert np.array_equal(s.nbr_copy_of_me, copies0 - absorbed)
    assert not s.x_bar.any()
    assert np.array_equal(s.J, J) and np.array_equal(s.r, r)
    assert np.array_equal(s.x_star, x_new) and not np.shares_memory(s.x_star, x_new)


def test_relinearize_rejects_a_jacobian_of_the_wrong_width(rng):
    s = random_agent_state(rng)
    with pytest.raises(ValueError, match="do not fit"):
        s.relinearize(s.J[:, 1:], s.r, s.x_star)


def test_assemble_shapes_and_quiescent_case(rng):
    s = random_agent_state(rng)
    p = s.assemble_local_problem()
    expected_rows = len(s.r) + len(s.neighbors) * s.n_i
    assert p.A.shape == (expected_rows, s.n_i)

    # one neighbor, no edges with nonzero content, copy = x*, duals zero:
    # b vanishes, the zero test fires, and xbar = -x*
    q = one_edge_state(np.zeros((1, 4)), [0.0], x_star=[0.7, -0.1])
    q.nbr_copy_of_me[0] = -q.x_star  # copy agrees with xhat = -x*
    prob = q.assemble_local_problem()
    assert np.allclose(prob.b, 0.0)
    assert zero_test(prob)
    assert q.primal_update_x() == pytest.approx(-q.x_star)


def test_residual_direct_formula():
    # one edge term R^T(c + lam) = (0.3, 0.4), one neighbor term (0.1, 0)
    s = one_edge_state(np.hstack([np.eye(2), np.zeros((2, 2))]), [0.0, 0.0])
    s.lam_rows[:] = [0.3, 0.4]
    s.nbr_copy_of_me[0] = [-0.1, 0.0]
    assert s.residual_norm() == pytest.approx(np.linalg.norm([0.4, 0.4]))
    assert s.residual_norm() == pytest.approx(0.565685, abs=1e-6)


def test_residual_equals_scaled_assembled_gradient(rng):
    for _ in range(50):
        s = random_agent_state(rng)
        p = s.assemble_local_problem()
        lhs = s.residual_norm()
        rhs = np.linalg.norm(p.A.T @ p.b) / s.rho
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        assert (lhs <= 1.0 / s.rho) == zero_test(p)


def test_threshold_equivalence_random(rng):
    fired = 0
    for _ in range(100):
        s = random_agent_state(rng)
        fires = s.residual_norm() <= 1.0 / s.rho
        assert fires == zero_test(s.assemble_local_problem())
        fired += fires
    assert 0 < fired  # the sample straddles the threshold


def test_rho_monotonicity_of_fast_path(rng):
    # growing rho shrinks the threshold: a non-firing state never starts
    # firing when rho increases with the scaled duals held fixed
    for _ in range(50):
        s = random_agent_state(rng, rho=0.5)
        res = s.residual_norm()
        for rho in (1.0, 2.0, 8.0):
            s.rho = rho
            assert s.residual_norm() == pytest.approx(res, rel=1e-12)
            if res > 1.0 / 0.5:
                assert res > 1.0 / rho


def test_objective_gap_is_constant(rng):
    # assembled prox objective and the symbolic step-3 objective differ by
    # a candidate-independent constant
    for _ in range(20):
        s = random_agent_state(rng)
        p = s.assemble_local_problem()
        gaps = []
        for _ in range(10):
            xhat = rng.normal(size=s.n_i)
            v = s.x_star + xhat
            prox_val = np.linalg.norm(v) + 0.5 * np.linalg.norm(p.A @ v - p.b) ** 2
            gaps.append(step3_objective(s, xhat) - prox_val)
        assert np.max(gaps) - np.min(gaps) <= 1e-10


def test_primal_update_x_matches_direct_minimizer(rng):
    for _ in range(20):
        s = random_agent_state(rng)
        xbar = s.primal_update_x(tol=1e-11)
        v_direct = minimize_step3_direct(s, rng, starts=5)
        assert np.linalg.norm((s.x_star + xbar) - v_direct) <= 1e-6
        if s.fast_path:
            assert np.array_equal(xbar, -s.x_star)


def test_x_update_calls_the_module_level_solve_prox(monkeypatch):
    # benchmark tracing times the prox solves by wrapping agent.solve_prox,
    # so the x-update must go through that name
    import fdirnet.agent

    def fail(*args, **kwargs):
        raise RuntimeError("solve_prox called")

    monkeypatch.setattr(fdirnet.agent, "solve_prox", fail)
    s = one_edge_state(np.eye(2), [3.0, -4.0], neighbors=())
    assert s.residual_norm() > 1.0 / s.rho
    with pytest.raises(RuntimeError, match="solve_prox called"):
        s.primal_update_x()


@pytest.mark.parametrize("dual", ["lam_rows", "mu"])
def test_non_finite_dual_rejected_once_the_prox_matrix_is_kept(dual):
    # the second prox call of a linearization reuses A and checks only b
    s = simple_state()
    s.mu[:] = 3.0
    s.primal_update_x()
    assert not s.fast_path and s.prox is not None
    getattr(s, dual)[0] = np.nan
    with pytest.raises(ValueError, match="non-finite entries"):
        s.primal_update_x()


def test_non_finite_jacobian_rejected_on_the_first_prox_call():
    s = simple_state()
    s.mu[:] = 3.0
    s.primal_update_x()
    J = s.J.copy()
    J[0, 0] = np.nan
    s.relinearize(J, s.r, s.x_star)
    s.mu[:] = 3.0
    with pytest.raises(ValueError, match="non-finite entries"):
        s.primal_update_x()


def test_primal_update_w_no_edges():
    # without incident-edge coupling the closed form is xbar[j] + mu_j^(i)
    s = one_edge_state(np.zeros((1, 4)), [0.0])
    s.nbr_xbar[0] = [1.0, 2.0]
    s.nbr_mu[0] = [0.1, -0.2]
    w = s.primal_update_w()
    assert w[0] == pytest.approx([1.1, 1.8])


def test_primal_update_w_gradient_vanishes(rng):
    for _ in range(20):
        s = random_agent_state(rng)
        s.x_bar = rng.normal(size=s.n_i)
        s.primal_update_w()
        # analytic gradient of the quadratic at the returned copies, one
        # neighbor slot and one edge at a time
        grad = [-(s.nbr_xbar[k] - s.w[k] + s.nbr_mu[k]) for k in range(len(s.neighbors))]
        for l in s.incident:
            ev = s.edges[l]
            cval = s.constraint_c(l, s.x_bar) + s.lam[l]
            for k in range(len(grad)):
                grad[k] = grad[k] + ev.J[:, 2 * (k + 1):2 * (k + 2)].T @ cval
        assert np.linalg.norm(np.concatenate(grad)) <= 1e-10


def test_dual_update_running_sum(rng):
    s = random_agent_state(rng)
    s.x_bar = rng.normal(size=s.n_i)
    c_now = {l: s.constraint_c(l, s.x_bar) for l in s.incident}
    d_now = {j: s.constraint_d(j, s.x_bar) for j in s.neighbors}
    lam0 = {l: s.lam[l].copy() for l in s.incident}
    mu0 = s.mu.copy()
    T = 5
    for _ in range(T):
        s.dual_update()
    for l in s.incident:
        assert s.lam[l] == pytest.approx(lam0[l] + T * c_now[l], abs=1e-12)
    for k, j in enumerate(s.neighbors):
        assert s.mu[k] == pytest.approx(mu0[k] + T * d_now[j], abs=1e-12)
    # the violations the update used, largest per edge and per neighbor
    assert s.violation_norms() == pytest.approx(
        (max(np.linalg.norm(c) for c in c_now.values()),
         max(np.linalg.norm(dv) for dv in d_now.values())), rel=1e-12)


def test_dual_update_no_violation_no_change():
    s = simple_state()
    s.x_bar = np.zeros(2)
    s.dual_update()
    assert np.array_equal(s.lam[0], np.zeros(1))
    assert np.array_equal(s.mu[0], np.zeros(2))
    assert s.violation_norms() == (0.0, 0.0)
