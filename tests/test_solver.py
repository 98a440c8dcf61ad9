import dataclasses
import functools
import gc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from fdirnet import solver
from fdirnet.agent import AgentState
from fdirnet.blocklin import BlockStructure, BlockVec
from fdirnet.exceptions import DomainViolation, NumericalOverflow
from fdirnet.measurements import MeasurementKind, MeasurementStack, eval_stack, jacobian_stack
from fdirnet.netsim import PHASE_XBAR
from fdirnet.prox import ProxProblem, solve_secular
from fdirnet.scenario import load_scenario, scenario_from_dict
from fdirnet.solver import (
    PLATEAU_LAG,
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

from conftest import all_pairs_distance_stack, fresh_copy, geometric_positions, mixed_stack

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# inputs pinned for the golden trajectories besides the shipped scenarios:
# knn_fault_n12 is perfbench's knn-fault input, workloads.knn_fault(rng([0]), 12)
DATA = Path(__file__).resolve().parent / "data"


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
        fresh = fresh_copy(a)
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
    a.mu[:] += 10.0
    xbar = a.primal_update_x()
    assert not a.fast_path
    return xbar


def test_relinearized_x_update_matches_a_fresh_agent(rng):
    # an agent keeps its prox Gram's eigendecomposition across the x-updates
    # of one linearization; after relinearize, its x-update must bit-equal
    # that of an agent built fresh from the same linearization and round state
    stack = all_pairs_distance_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {1: [0.5, 0.5]})
    net = build_network(stack, p_hat, y, BlockVec(p_hat.structure), rho=1.0)
    x_star = inner_admm(net, InnerParams(max_inner_iters=20))[0]
    # agents whose last x-update took the fast path keep the dual update's
    # violations; relinearize must drop them with the old point
    assert any(a.kept for a in net.ordered)
    for a in net.ordered:
        force_prox(a)
        assert a.prox is not None
    p_point = BlockVec(p_hat.structure, p_hat.data + x_star.data)
    relinearize(net, stack, p_point, y.data - eval_stack(stack, p_point).data, x_star)
    for a in net.ordered:
        fresh = fresh_copy(a)
        assert np.array_equal(force_prox(fresh), force_prox(a))
        # and again once both have formed their prox operators
        assert np.array_equal(force_prox(fresh), force_prox(a))


def test_x_update_after_an_out_of_order_w_update_matches_a_fresh_agent(rng):
    # a w-update between the dual update and the x-update changes w, so the
    # violations the dual update kept are stale; the x-update must then
    # bit-equal that of an agent that never kept them
    stack = all_pairs_distance_stack(5)
    p_true, p_hat, y = planted_scenario(rng, stack, {1: [0.5, 0.5]})
    net = build_network(stack, p_hat, y, BlockVec(p_hat.structure), rho=1.0)
    inner_admm(net, InnerParams(max_inner_iters=20))
    kept = [a for a in net.ordered if a.kept]
    assert kept
    for a in kept:
        w = a.w.copy()
        a.primal_update_w()  # the duals moved since the last w-update
        assert not np.array_equal(a.w, w) and not a.kept
        fresh = fresh_copy(a)
        assert np.array_equal(fresh.primal_update_x(), a.primal_update_x())
        assert fresh.fast_path == a.fast_path


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
                        "l21_objective,meas_residual,fastpath_count,stop")
    assert len(lines) == len(rows) + 1
    # the loop's inner stop is written on the round it stopped at only
    stops = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert stops == [""] * (len(rows) - 1) + [res.trace.outer[0].inner_stop]


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


K = MeasurementKind


def assert_linearization_in_place(net, stack, p_point, y, x_star):
    """Every agent's J, r, x* and H^-1, as written into the arena, against the
    dense Jacobian, the residual and a per-agent inverse."""
    R, d = jacobian_stack(stack, p_point).to_dense(), stack.d
    resid = y.data - eval_stack(stack, p_point).data
    offsets = stack.row_structure.offsets
    for a in net.ordered:
        rows = [row for l in a.incident for row in range(offsets[l], offsets[l + 1])]
        cols = [col for j in (a.i, *a.neighbors) for col in range(d * j, d * j + d)]
        assert a.incident == tuple(sorted(a.incident))
        assert np.array_equal(a.J, R[np.ix_(rows, cols)])
        assert np.array_equal(a.r, resid[rows])
        assert np.array_equal(a.x_star, x_star.data[d * a.i:d * a.i + d])
        Jn = a.J[:, d:]
        H = Jn.T @ Jn
        H.flat[::len(H) + 1] += 1.0
        assert a.H_inv.tobytes() == np.linalg.inv(H).tobytes()


@pytest.mark.parametrize("graph, d", [
    # every kind, arity 3 among them, and a duplicated edge
    (Hypergraph(6, ((0, 1), (1, 2, 3), (2, 3, 4), (0, 2), (4, 5), (2, 0), (0, 1)),
                (K.DISTANCE, K.TDOA, K.SUBTENDED_ANGLE, K.BEARING, K.DISPLACEMENT,
                 K.DISPLACEMENT, K.BEARING)), 2),
    # a hyperedge, and agent 4 in no edge
    (Hypergraph(5, ((0, 1), (3, 1, 2), (0, 3)), (K.BEARING, K.TDOA, K.DISPLACEMENT)), 3),
], ids=["mixed-2d", "hyperedge-isolated-3d"])
def test_linearization_scattered_into_the_arena(rng, graph, d):
    stack = MeasurementStack(graph, d)
    n = graph.num_vertices
    p_true = BlockVec.from_blocks(geometric_positions(rng, n, d, min_sep=1.0))
    y = eval_stack(stack, p_true)
    p_hat = BlockVec(p_true.structure, p_true.data + rng.normal(scale=0.2, size=n * d))
    x_star = BlockVec(p_hat.structure, rng.normal(scale=0.05, size=n * d))
    p_point = BlockVec(p_hat.structure, p_hat.data + x_star.data)
    net = build_network(stack, p_point, y, x_star, rho=1.0)
    assert_linearization_in_place(net, stack, p_point, y, x_star)
    for _ in range(2):
        for _ in range(3):
            net.run_iteration()
        x_star = BlockVec(x_star.structure, x_star.data + net.x_bars().ravel())
        p_point = BlockVec(p_hat.structure, p_hat.data + x_star.data)
        relinearize(net, stack, p_point, y.data - eval_stack(stack, p_point).data, x_star)
        assert_linearization_in_place(net, stack, p_point, y, x_star)


def test_kept_result_builds_no_block_offsets(rng):
    # a kept SolveResult holds x* and its block structure; the solve needs
    # no offsets table of it (one int per block) for uniform blocks
    stack = mixed_stack(5)
    p_true = BlockVec.from_blocks(geometric_positions(rng, 5))
    p_hat = BlockVec(BlockStructure((2,) * 5), p_true.data)
    p_hat.data[4:6] += [0.4, -0.3]
    res = outer_scp(stack, p_hat, eval_stack(stack, p_true))
    assert res.faults == {2} and res.x_star.structure is p_hat.structure
    assert "offsets" not in vars(res.x_star.structure)


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


# Trajectories recorded from the solver with the plateau stop of the inner
# loop. Summation order may move x* by a few ulps; any change in round
# counts or beyond 1e-12 is a behaviour change.
GOLDEN = {
    "mixed_chain_fault": (
        [33, 24, 12], ["stalled", "converged", "converged"], "step", {2},
        [0.0, 0.0, 0.0, 0.0, -0.500000101787419, 0.3000002757970166,
         0.0, 0.0, 0.0, 0.0]),
    "circle_single_fault": (
        [42, 51, 45, 18], ["stalled", "stalled", "converged", "converged"], "step", {3},
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.6000008691072877, 0.8000011976378678,
         0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    "knn_fault_n12": (
        [50, 50, 39, 15], ["stalled", "stalled", "converged", "converged"], "step", {0},
        [0.7485077409447679, 0.6631244445309137] + [0.0] * 22),
}


def golden_scenario(name):
    path = SCENARIOS / f"{name}.yaml"
    return load_scenario(path if path.exists() else DATA / f"{name}.yaml")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name):
    inner_iters, stops, outer_stop, faults, x_star = GOLDEN[name]
    scn = golden_scenario(name)
    res = outer_scp(scn.stack, scn.reported_states, scn.measurements(),
                    scn.inner_params, scn.outer_params)
    assert [o.inner_iters for o in res.trace.outer] == inner_iters
    assert [o.inner_stop for o in res.trace.outer] == stops
    assert res.outer_stop == outer_stop
    assert res.faults == frozenset(faults)
    assert np.max(np.abs(res.x_star.data - x_star)) <= 1e-12


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_solve_builds_no_edge_tuples(name, monkeypatch):
    # the loader hands the hypergraph flat arrays; per-edge tuples are built
    # on first read of graph.edges, which nothing on the solve path does; nor
    # does it read any Jacobian's dict of blocks or the block keys behind it
    scn = golden_scenario(name)
    y = scn.measurements()
    made = []

    def kept(*args):
        made.append(jacobian_stack(*args))
        return made[-1]

    monkeypatch.setattr(solver, "jacobian_stack", kept)
    build_network(scn.stack, scn.reported_states, y, BlockVec(scn.reported_states.structure),
                  scn.inner_params.rho)
    outer_scp(scn.stack, scn.reported_states, y, scn.inner_params, scn.outer_params)
    assert "edges" not in vars(scn.stack.graph)
    assert len(made) > 1 and not any("blocks" in vars(R) for R in made)
    assert "_block_keys" not in vars(scn.stack)
    doc = scn.to_dict()  # reads the tuples
    back = scenario_from_dict(doc)
    assert back.to_dict() == doc and back.stack.graph == scn.stack.graph
    assert np.array_equal(back.true_states.data, scn.true_states.data)
    assert np.array_equal(back.reported_states.data, scn.reported_states.data)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_build_network_takes_r_as_y_minus_phi(path):
    # r comes from the values of the Jacobian's model evaluation: bit-equal
    # to y - eval_stack at the linearization point, rows of each incident edge
    scn = load_scenario(path)
    p, y = scn.reported_states, scn.measurements()
    resid = y.data - eval_stack(scn.stack, p).data
    net = build_network(scn.stack, p, y, BlockVec(p.structure), scn.inner_params.rho)
    at = scn.stack.row_structure.offsets
    for a in net.ordered:
        assert np.array_equal(a.r, np.concatenate([resid[at[l]:at[l + 1]] for l in a.incident]))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_one_model_evaluation_per_linearization(name, monkeypatch):
    # build_network and relinearize call jacobian_stack once each; the outer
    # loop's residual is the only eval_stack call, once per outer iteration
    scn = golden_scenario(name)
    y = scn.measurements()
    calls = {"jacobian_stack": 0, "eval_stack": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(solver, "jacobian_stack", counted(jacobian_stack))
    monkeypatch.setattr(solver, "eval_stack", counted(eval_stack))
    res = outer_scp(scn.stack, scn.reported_states, y, scn.inner_params, scn.outer_params)
    assert res.outer_iters == len(GOLDEN[name][0]) > 1
    assert calls == {"jacobian_stack": res.outer_iters, "eval_stack": res.outer_iters}


def solve_scenario(scn, **outer_change):
    outer = dataclasses.replace(scn.outer_params, **outer_change)
    return outer_scp(scn.stack, scn.reported_states, scn.measurements(),
                     scn.inner_params, outer)


def test_outer_stop_reasons():
    # "step" is covered by the golden trajectories and "discrepancy" by the
    # noisy circle below
    stack = displacement_stack(5)
    p_true, p_hat, y = planted_scenario(np.random.default_rng(3), stack, {2: [0.8, -0.5]})
    res = outer_scp(stack, p_hat, y, outer_params=OuterParams(tol_meas=1e-4))
    assert (res.outer_stop, res.outer_iters, res.degraded) == ("residual", 1, False)
    res = solve_scenario(load_scenario(SCENARIOS / "mixed_chain_fault.yaml"), max_scp_iters=1)
    assert (res.outer_stop, res.outer_iters, res.degraded) == ("budget", 1, True)


def test_huge_rho_raises_numerical_overflow_naming_the_agent():
    # sqrt(rho) scales the prox problem: at rho = 1e160, ||A^T b||^2 overflows
    # in the first prox solve (rho = 1e150 still finishes)
    scn = load_scenario(SCENARIOS / "mixed_chain_fault.yaml")
    inner = dataclasses.replace(scn.inner_params, rho=1e160)
    match = r"^at outer iteration 0: agent \d+: .*rho = 1e\+160"
    with pytest.raises(NumericalOverflow, match=match):
        outer_scp(scn.stack, scn.reported_states, scn.measurements(), inner, scn.outer_params)


def noisy_circle(sigma: float, seed: int):
    """circle_single_fault (only agent 3 faulty) with sigma on every edge
    and the given noise seed."""
    doc = yaml.safe_load((SCENARIOS / "circle_single_fault.yaml").read_text())
    doc["seed"] = seed
    for e in doc["edges"]:
        e["sigma"] = sigma
    return scenario_from_dict(doc)


@pytest.mark.parametrize("seed", range(10))
def test_small_noise_stops_at_the_noise_level(seed):
    # without the discrepancy stop these solves took 9-19 outer iterations:
    # meas_res cannot reach tol_meas under noise
    res = solve_scenario(noisy_circle(1e-3, seed))
    assert res.faults == frozenset({3})
    assert not res.degraded
    assert res.outer_stop == "discrepancy"
    assert res.outer_iters <= 3


@pytest.mark.parametrize("seed", range(3))
def test_large_noise_solve_is_not_degraded(seed):
    # with the plateau stop alone, seeds 0 and 2 ran into the outer budget;
    # the fault sets are not asserted, as the threshold ignores sigma
    res = solve_scenario(noisy_circle(1e-2, seed))
    assert not res.degraded
    assert res.outer_stop == "discrepancy"


def test_infeasible_linearization_ends_at_its_plateau():
    # away from the truth the linearized system is infeasible: the loop must
    # end once its violations level off, not run on while its duals grow
    scn = load_scenario(SCENARIOS / "circle_single_fault.yaml")
    p_hat = scn.reported_states
    net = build_network(scn.stack, p_hat, scn.measurements(), BlockVec(p_hat.structure),
                        scn.inner_params.rho)
    _, rows, converged, stop = inner_admm(net, scn.inner_params)
    assert (stop, converged) == ("stalled", False)
    assert len(rows) <= 60
    assert rows[-1].max_c_norm == pytest.approx(rows[-1 - PLATEAU_LAG].max_c_norm, rel=1e-2)
    assert rows[-1].max_c_norm > scn.inner_params.tol_primal


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
    # neighbors it has (a hub next to leaves here): its twelve views of the
    # arena, and no table of its own (neighbors, edges and rows are shared)
    edges = [(0, j) for j in range(1, 8)] + [(1, 2)]
    stack = MeasurementStack(Hypergraph(8, tuple(edges),
                                        (MeasurementKind.BEARING,) * len(edges)), 2)
    p = BlockVec.from_blocks(geometric_positions(rng, 8, 2))
    net = build_network(stack, p, eval_stack(stack, p), BlockVec(p.structure), 1.0)
    net.run_iteration()
    counts = {held_containers(a) for a in net.agents.values()}
    assert len(counts) == 1 and counts.pop() <= 12


@pytest.mark.parametrize("agent, edge", [(0, 0), (2, 1)])
def test_non_finite_linearization_names_the_lowest_edge(agent, edge):
    # a finite report whose squared separations overflow: the linearization
    # is not finite, which is a domain violation on the lowest such edge
    scn = load_scenario(SCENARIOS / "triangle_diagnostics.yaml")
    y = scn.measurements()
    p_hat = scn.reported_states.copy()
    p_hat.block(agent)[:] = [1.3407807929942597e+154, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes either
        for evaluate in (eval_stack, jacobian_stack):
            with pytest.raises(DomainViolation, match="not finite") as exc:
                evaluate(scn.stack, p_hat)
            assert exc.value.edge == edge
        with pytest.raises(DomainViolation, match="outer iteration 0") as exc:
            outer_scp(scn.stack, p_hat, y, scn.inner_params, scn.outer_params)
    assert exc.value.edge == edge


def test_the_solve_builds_no_prox_problem(monkeypatch):
    # a missed fast path is solved from the agent's Gram eigendecomposition,
    # its gradient and b^T b: no ProxProblem and no stacked prox matrix
    def refuse(self):
        raise AssertionError("a ProxProblem was built")

    monkeypatch.setattr(ProxProblem, "__post_init__", refuse)
    scn = load_scenario(SCENARIOS / "mixed_chain_fault.yaml")
    res = outer_scp(scn.stack, scn.reported_states, scn.measurements(), scn.inner_params,
                    scn.outer_params)
    assert res.faults == {2}
    assert sum(scn.num_agents * len(rows) - rows.fastpath_count.sum()
               for rows in res.trace.inner) > 0


def test_capped_prox_solves_are_counted(monkeypatch):
    # a prox solve stopped at its step cap short of tol counts as capped, per
    # linearization; the default cap is never reached on a shipped scenario
    import fdirnet.agent

    scn = load_scenario(SCENARIOS / "mixed_chain_fault.yaml")
    y = scn.measurements()
    res = outer_scp(scn.stack, scn.reported_states, y, scn.inner_params, scn.outer_params)
    assert [o.prox_capped for o in res.trace.outer] == [0] * res.outer_iters
    monkeypatch.setattr(fdirnet.agent, "solve_prox", functools.partial(solve_secular, max_iters=0))
    res = outer_scp(scn.stack, scn.reported_states, y, scn.inner_params, scn.outer_params)
    capped = [o.prox_capped for o in res.trace.outer]
    assert sum(capped) > 0
    # relinearize starts each count afresh: none exceeds its loop's prox calls
    for k, rows in zip(capped, res.trace.inner):
        assert k <= scn.num_agents * len(rows) - rows.fastpath_count.sum()
