import gc
from pathlib import Path

import numpy as np
import pytest

from fdirnet.blocklin import BlockVec
from fdirnet.measurements import MeasurementKind, MeasurementStack, eval_stack
from fdirnet.scenario import load_scenario
from fdirnet.solver import (
    InnerParams,
    OuterParams,
    build_network,
    default_fault_tol,
    identify_faults,
    inner_admm,
    outer_scp,
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
