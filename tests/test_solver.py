import dataclasses
import gc
from pathlib import Path

import numpy as np
import pytest

from fdirnet.agent import AgentState
from fdirnet.blocklin import BlockVec
from fdirnet.measurements import MeasurementKind, MeasurementStack, eval_stack
from fdirnet.netsim import PHASE_XBAR
from fdirnet.scenario import load_scenario
from fdirnet.solver import (
    InnerParams,
    OuterParams,
    build_network,
    default_fault_tol,
    identify_faults,
    inner_admm,
    outer_scp,
    relinearize,
)
from fdirnet.topology import Hypergraph

from conftest import all_pairs_distance_stack, geometric_positions, mixed_stack

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def displacement_stack(n, d=2):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((i, j))
    kinds = (MeasurementKind.DISPLACEMENT,) * len(edges)
    return MeasurementStack(Hypergraph(n, tuple(edges), kinds), d)


def planted_scenario(rng, stack, fault_blocks):
    """True states, a faulty report, and the resulting measurements."""
    n = stack.graph.num_vertices
    pts = geometric_positions(rng, n, stack.d)
    p_true = BlockVec.from_blocks(pts)
    y = eval_stack(stack, p_true)
    p_hat = p_true.copy()
    for i, delta in fault_blocks.items():
        p_hat.block(i)[:] += np.asarray(delta, float)
    return p_true, p_hat, y


def test_fault_free_converges_immediately(rng):
    stack = all_pairs_distance_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {})
    res = outer_scp(stack, p_hat, y)
    assert res.outer_iters == 1
    assert res.faults == frozenset()
    assert not res.degraded
    assert np.linalg.norm(res.x_star.data) <= 1e-6
    # with nothing to explain, every agent takes the closed-form branch
    assert res.trace.inner[0][0].fastpath_count == 5


def test_linear_model_single_outer_iteration(rng):
    # displacement edges are already linear, so one relinearization suffices
    stack = displacement_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {2: [0.8, -0.5]})
    res = outer_scp(stack, p_hat, y,
                    outer_params=OuterParams(tol_meas=1e-8))
    assert res.faults == frozenset({2})
    err = res.x_star.copy()
    err.block(2)[:] -= [-0.8, 0.5]  # correction = -injected fault
    assert np.linalg.norm(err.data) <= 1e-4
    assert res.outer_iters <= 2


def test_nonlinear_end_to_end_recovery(rng):
    stack = all_pairs_distance_stack(6)
    p_true, p_hat, y = planted_scenario(rng, stack, {3: [0.6, -0.8]})
    res = outer_scp(stack, p_hat, y)
    assert res.faults == frozenset({3})
    err = res.x_star.copy()
    err.block(3)[:] -= [-0.6, 0.8]
    assert np.linalg.norm(err.data) <= 1e-2
    assert res.meas_residual <= 1e-4
    assert not res.degraded


def test_inner_fixed_point_thresholding_consistency(rng):
    # at an inner fixed point every non-faulty agent is on the closed-form
    # branch and its residual is below the threshold
    stack = displacement_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {1: [0.5, 0.5]})
    net = build_network(stack, p_hat, y, BlockVec(p_hat.structure), rho=1.0)
    inner_admm(net, InnerParams(tol_primal=1e-9, tol_dual=1e-9))
    for i, a in net.agents.items():
        assert a.fast_path == (a.residual_norm() <= 1.0 / a.rho)
        if i != 1:
            assert a.fast_path


def test_inner_rows_match_per_agent_reference(rng):
    # the round statistics are taken from stacked arrays; the last row must
    # agree with a loop over the agents' own state after that round
    stack = all_pairs_distance_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {1: [0.5, 0.5]})
    x_star = BlockVec(p_hat.structure, rng.normal(scale=0.1, size=10))
    net = build_network(stack, p_hat, y, x_star, rho=1.0)
    xbar, rows, _, _ = inner_admm(net, InnerParams(max_inner_iters=7))
    last = rows[-1]
    assert len(rows) == 7
    assert last.max_c_norm == max(a.violation_norms()[0] for a in net.ordered)
    assert last.max_d_norm == max(a.violation_norms()[1] for a in net.ordered)
    assert last.fastpath_count == sum(a.fast_path for a in net.ordered)
    assert last.l21_objective == pytest.approx(
        sum(np.linalg.norm(a.x_star + a.x_bar) for a in net.ordered), rel=1e-14)
    assert np.array_equal(xbar.data, np.concatenate([a.x_bar for a in net.ordered]))


def test_relinearized_w_update_matches_a_fresh_agent(rng):
    # after relinearize, each agent's w-update bit-equals that of an agent
    # built fresh from the same linearization and round state, so nothing
    # it keeps per linearization (H) is stale
    stack = all_pairs_distance_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {1: [0.5, 0.5]})
    net = build_network(stack, p_hat, y, BlockVec(p_hat.structure), rho=1.0)
    x_star = inner_admm(net, InnerParams(max_inner_iters=20))[0]
    p_point = BlockVec(p_hat.structure, p_hat.data + x_star.data)
    relinearize(net, stack, p_point, y.data - eval_stack(stack, p_point).data, x_star)
    net.run_phase(PHASE_XBAR)
    for a in net.ordered:
        fresh = AgentState(i=a.i, rho=a.rho, x_star=a.x_star, neighbors=a.neighbors,
                           incident=a.incident, rows=a.rows, J=a.J, r=a.r)
        for name in ("lam_rows", "x_bar", "mu", "w", "nbr_xbar", "nbr_mu",
                     "nbr_copy_of_me"):
            getattr(fresh, name)[:] = getattr(a, name)
        assert np.array_equal(fresh.primal_update_w(), a.primal_update_w())
        # the product with the stored inverse is the solve against this H
        d = a.n_i
        Jn = a.J[:, d:]
        rhs = ((a.nbr_xbar + a.nbr_mu).ravel()
               - Jn.T @ (a.J[:, :d] @ a.x_bar - a.r + a.lam_rows))
        direct = np.linalg.solve(np.eye(Jn.shape[1]) + Jn.T @ Jn, rhs)
        assert np.max(np.abs(a.w.ravel() - direct)) <= 1e-12


def force_prox(a: AgentState) -> np.ndarray:
    """An x-update that misses the fast path: the consensus duals are
    raised until the residual is far above the threshold."""
    a.mu += 10.0
    xbar = a.primal_update_x()
    assert not a.fast_path
    return xbar


def test_relinearized_x_update_matches_a_fresh_agent(rng):
    # an agent keeps its prox problem across the x-updates of one
    # linearization; after relinearize, its x-update must bit-equal that of
    # an agent built fresh from the same linearization and round state
    stack = all_pairs_distance_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {1: [0.5, 0.5]})
    net = build_network(stack, p_hat, y, BlockVec(p_hat.structure), rho=1.0)
    x_star = inner_admm(net, InnerParams(max_inner_iters=20))[0]
    for a in net.ordered:
        force_prox(a)
        assert a.prox is not None
    p_point = BlockVec(p_hat.structure, p_hat.data + x_star.data)
    relinearize(net, stack, p_point, y.data - eval_stack(stack, p_point).data, x_star)
    for a in net.ordered:
        fresh = AgentState(i=a.i, rho=a.rho, x_star=a.x_star, neighbors=a.neighbors,
                           incident=a.incident, rows=a.rows, J=a.J, r=a.r)
        for name in ("lam_rows", "x_bar", "mu", "w", "nbr_xbar", "nbr_mu",
                     "nbr_copy_of_me"):
            getattr(fresh, name)[:] = getattr(a, name)
        assert np.array_equal(force_prox(fresh), force_prox(a))
        # and again once both have formed their prox operators
        assert np.array_equal(force_prox(fresh), force_prox(a))


def test_inner_trace_rows_and_csv(tmp_path, rng):
    stack = all_pairs_distance_stack(4)
    p_true, p_hat, y = planted_scenario(rng, stack, {0: [0.3, 0.2]})
    res = outer_scp(stack, p_hat, y)
    rows = res.trace.inner[0]
    assert len(rows) == res.trace.outer[0].inner_iters
    path = tmp_path / "inner.csv"
    res.trace.dump_inner_csv(path, 0)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("outer_iter,inner_iter,max_c_norm,max_d_norm,"
                        "l21_objective,meas_residual,fastpath_count")
    assert len(lines) == len(rows) + 1


def test_violations_decrease_on_feasible_system(rng):
    stack = displacement_stack(4)
    p_true, p_hat, y = planted_scenario(rng, stack, {2: [0.4, -0.1]})
    net = build_network(stack, p_hat, y, BlockVec(p_hat.structure), rho=1.0)
    _, rows, converged, _ = inner_admm(net, InnerParams())
    assert converged
    early = max(rows[2].max_c_norm, rows[2].max_d_norm)
    late = max(rows[-1].max_c_norm, rows[-1].max_d_norm)
    assert late < early * 1e-2


def test_identify_faults_examples():
    v = BlockVec.from_blocks([[1.0, 0.0], [1e-6, 0.0], [0.0, -0.5]])
    assert identify_faults(v, 1e-3) == frozenset({0, 2})
    assert identify_faults(v, 2.0) == frozenset()
    with pytest.raises(ValueError):
        identify_faults(v, 0.0)


def test_default_fault_tol_floor():
    tiny = BlockVec.from_blocks([[1e-6, 0.0], [0.0, 1e-6]])
    assert default_fault_tol(tiny) == pytest.approx(1e-3)
    big = BlockVec.from_blocks([[30.0, 40.0], [0.0, 50.0]])
    assert default_fault_tol(big) == pytest.approx(0.05)


def test_rho_variants_reach_same_answer(rng):
    stack = mixed_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {4: [0.5, 0.3]})
    answers = []
    for rho in (0.5, 1.0, 2.0):
        res = outer_scp(stack, p_hat, y,
                        inner_params=InnerParams(rho=rho))
        assert res.faults == frozenset({4})
        answers.append(res.x_star.data.copy())
    for a in answers[1:]:
        assert np.linalg.norm(a - answers[0]) <= 1e-3


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        InnerParams(rho=0.0)
    with pytest.raises(ValueError):
        InnerParams(tol_primal=-1.0)
    with pytest.raises(ValueError):
        OuterParams(tol_step=0.0)


@pytest.mark.parametrize("cls,change", [
    pytest.param(InnerParams, {"rho": float("nan")}, id="nan-rho"),
    pytest.param(InnerParams, {"rho": "1"}, id="string-rho"),
    pytest.param(InnerParams, {"tol_dual": True}, id="bool-tol-dual"),
    pytest.param(InnerParams, {"max_inner_iters": 0}, id="zero-max-inner-iters"),
    pytest.param(InnerParams, {"max_inner_iters": 10.0}, id="float-max-inner-iters"),
    pytest.param(OuterParams, {"max_scp_iters": 0}, id="zero-max-scp-iters"),
    pytest.param(OuterParams, {"tol_meas": float("inf")}, id="inf-tol-meas"),
    pytest.param(OuterParams, {"fault_tol": -1e-3}, id="negative-fault-tol"),
])
def test_params_reject_malformed_values(cls, change):
    # a zero iteration budget would return "no faults" without solving
    (name, value), = change.items()
    with pytest.raises(ValueError, match=f"^{name}: must be"):
        cls(**change)
    with pytest.raises(ValueError, match=f"^{name}: must be"):
        dataclasses.replace(cls(), **change)


# Trajectories recorded from the solver with per-edge dict state (before
# the state was packed into arrays). Summation order may move x* by a few
# ulps; any change in round counts or beyond 1e-12 is a behaviour change.
GOLDEN = {
    "mixed_chain_fault": (
        [392, 231], ["stalled", "stalled"], {2},
        [0.0, 0.0, 0.0, 0.0, -0.49999994274704707, 0.29999997515583143,
         0.0, 0.0, 0.0, 0.0]),
    "circle_single_fault": (
        [210, 241, 50, 26], ["stalled", "stalled", "converged", "converged"], {3},
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.6000008799595739, 0.8000010202840298,
         0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name):
    inner_iters, stops, faults, x_star = GOLDEN[name]
    scn = load_scenario(SCENARIOS / f"{name}.yaml")
    res = outer_scp(scn.stack, scn.reported_states, scn.measurements(),
                    scn.inner_params, scn.outer_params)
    assert [o.inner_iters for o in res.trace.outer] == inner_iters
    assert [o.inner_stop for o in res.trace.outer] == stops
    assert res.faults == frozenset(faults)
    assert np.max(np.abs(res.x_star.data - x_star)) <= 1e-12


def held_containers(obj) -> int:
    """ndarrays and dicts reachable from obj through containers, by id."""
    seen, todo = set(), [obj]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if isinstance(ref, (np.ndarray, dict)) and id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)
            elif isinstance(ref, (list, tuple)):
                todo.append(ref)
    return len(seen)


def test_agent_state_size_independent_of_degree(rng):
    # the agent keeps a fixed set of packed arrays, however many edges and
    # neighbors it has (a hub next to leaves here)
    edges = [(0, j) for j in range(1, 8)] + [(1, 2)]
    stack = MeasurementStack(Hypergraph(8, tuple(edges),
                                        (MeasurementKind.BEARING,) * len(edges)), 2)
    p = BlockVec.from_blocks(geometric_positions(rng, 8, 2))
    net = build_network(stack, p, eval_stack(stack, p), BlockVec(p.structure), 1.0)
    net.run_iteration()
    counts = {held_containers(a) for a in net.agents.values()}
    assert len(counts) == 1 and counts.pop() <= 20
