from pathlib import Path

import numpy as np
import pytest

from fdirnet.blocklin import BlockVec
from fdirnet.exceptions import DomainViolation
from fdirnet.measurements import (
    MeasurementKind,
    MeasurementStack,
    eval_edge,
    eval_stack,
    jacobian_edge,
    jacobian_fd_check,
    jacobian_stack,
    regular_point_check,
    search_space_dim,
)
from fdirnet.scenario import load_scenario
from fdirnet.topology import Hypergraph

from conftest import geometric_positions

ALL_KINDS = list(MeasurementKind)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def random_members(rng, kind, d, spread=4.0):
    return list(geometric_positions(rng, kind.arity, d, 0, spread, min_sep=0.8))


def test_eval_edge_examples():
    D = MeasurementKind
    assert eval_edge(D.DISTANCE, 2, [(0, 0), (3, 4)]) == pytest.approx([5.0])
    assert eval_edge(D.BEARING, 2, [(0, 0), (3, 4)]) == pytest.approx([-0.6, -0.8])
    assert eval_edge(D.SUBTENDED_ANGLE, 2, [(0, 0), (1, 0), (0, 1)]) \
        == pytest.approx([np.pi / 2])
    assert eval_edge(D.TDOA, 2, [(0, 0), (3, 4), (0, 5)]) == pytest.approx([0.0])
    assert eval_edge(D.DISPLACEMENT, 2, [(1, 2), (3, 1)]) == pytest.approx([-2, 1])


def test_coincident_positions_rejected():
    with pytest.raises(DomainViolation):
        eval_edge(MeasurementKind.DISTANCE, 2, [(1, 1), (1, 1)])
    with pytest.raises(DomainViolation):
        jacobian_edge(MeasurementKind.BEARING, 2, [(0, 0), (0, 1e-12)])


@pytest.mark.parametrize("fn", [eval_edge, jacobian_edge])
def test_per_edge_functions_check_their_states(fn):
    T = MeasurementKind.TDOA
    with pytest.raises(ValueError, match="takes 3 states, got 2"):
        fn(T, 2, [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="takes 3 states, got 4"):
        fn(T, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError, match="length 2"):
        fn(T, 2, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    # a one-edge call names no stack edge
    with pytest.raises(DomainViolation) as exc:
        fn(MeasurementKind.DISTANCE, 2, [(1, 1), (1, 1)])
    assert exc.value.edge is None


def test_subtended_angle_singularity_rejected():
    # collinear members: arccos derivative blows up
    with pytest.raises(DomainViolation):
        jacobian_edge(MeasurementKind.SUBTENDED_ANGLE, 2,
                      [(0, 0), (1, 0), (2, 0)])


def _line_stack():
    g = Hypergraph(3, ((0, 1), (1, 2)),
                   (MeasurementKind.DISTANCE, MeasurementKind.DISTANCE))
    return MeasurementStack(g, 2)


def test_eval_stack_example():
    stack = _line_stack()
    p = BlockVec.from_blocks([[0, 0], [3, 4], [6, 8]])
    y = eval_stack(stack, p)
    assert y.data == pytest.approx([5.0, 5.0])


def test_eval_stack_reports_offending_edge():
    stack = _line_stack()
    p = BlockVec.from_blocks([[0, 0], [3, 4], [3, 4]])
    with pytest.raises(DomainViolation) as exc:
        eval_stack(stack, p)
    assert exc.value.edge == 1


# kinds interleaved, member tuples unsorted; every agent in some edge
INTERLEAVED = (
    (MeasurementKind.TDOA, (3, 0, 2)),
    (MeasurementKind.DISTANCE, (4, 1)),
    (MeasurementKind.SUBTENDED_ANGLE, (2, 5, 0)),
    (MeasurementKind.BEARING, (1, 3)),
    (MeasurementKind.DISTANCE, (0, 5)),
    (MeasurementKind.DISPLACEMENT, (5, 2)),
    (MeasurementKind.SUBTENDED_ANGLE, (4, 3, 1)),
    (MeasurementKind.BEARING, (2, 4)),
    (MeasurementKind.TDOA, (1, 5, 4)),
    (MeasurementKind.DISPLACEMENT, (0, 3)),
)


def per_edge_dense(stack, pts):
    """R as a dense array, block (l, i) from jacobian_edge for each member i
    of edge l and zero elsewhere."""
    rows, cols = stack.row_structure, stack.col_structure
    dense = np.zeros((rows.total, cols.total))
    for l, (e, kind) in enumerate(zip(stack.graph.edges, stack.graph.kinds)):
        for i, block in zip(e, jacobian_edge(kind, stack.d, [pts[i] for i in e])):
            dense[rows.slice_of(l), cols.slice_of(i)] = block
    return dense


def reference_value(kind, members):
    """Each model written out on its own, independent of the batched code."""
    pi, pj, *rest = members
    if kind is MeasurementKind.DISPLACEMENT:
        return pi - pj
    if kind is MeasurementKind.DISTANCE:
        return [np.linalg.norm(pi - pj)]
    if kind is MeasurementKind.BEARING:
        return (pi - pj) / np.linalg.norm(pi - pj)
    if kind is MeasurementKind.TDOA:
        return [np.linalg.norm(pi - pj) - np.linalg.norm(pi - rest[0])]
    a, b = pj - pi, rest[0] - pi
    return [np.arccos(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))]


@pytest.mark.parametrize("d", [2, 3])
def test_interleaved_stack_matches_per_edge_models(d, rng):
    kinds, edges = zip(*INTERLEAVED)
    stack = MeasurementStack(Hypergraph(6, edges, kinds), d)
    for _ in range(5):
        pts = geometric_positions(rng, 6, d, min_sep=0.8)
        p = BlockVec.from_blocks(pts)
        y = eval_stack(stack, p)
        R = jacobian_stack(stack, p)
        assert np.allclose(R.to_dense(), per_edge_dense(stack, pts), rtol=0, atol=1e-14)
        for l, (kind, e) in enumerate(INTERLEAVED):
            members = [pts[i] for i in e]
            assert np.allclose(y.block(l), eval_edge(kind, d, members),
                               rtol=0, atol=1e-14)
            assert np.allclose(y.block(l), reference_value(kind, members),
                               rtol=0, atol=1e-12)
        assert jacobian_fd_check(stack, p, step=1e-6) <= 1e-5


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_blocks_read_on_demand_are_the_per_edge_jacobians(path):
    # R's dense form is filled on its first read: block (l, i) is bit-equal to
    # edge l's own Jacobian block for each member i and exactly 0 for every
    # other agent; R.values is eval_stack's y, bit for bit
    scn = load_scenario(path)
    p = scn.reported_states
    R = jacobian_stack(scn.stack, p)
    assert "dense" not in vars(R)
    assert np.array_equal(R.to_dense(), per_edge_dense(scn.stack, p.data.reshape(-1, scn.d)))
    assert np.array_equal(R.values.data, eval_stack(scn.stack, p).data)


@pytest.mark.parametrize("fn", [eval_stack, jacobian_stack])
def test_stack_reports_lowest_offending_edge(fn):
    # edges 1 (bearing) and 2 (distance) are both coincident; the distance
    # kind appears first in the stack and first in the enum
    g = Hypergraph(4, ((0, 1), (2, 3), (3, 2)),
                   (MeasurementKind.DISTANCE, MeasurementKind.BEARING,
                    MeasurementKind.DISTANCE))
    p = BlockVec.from_blocks([[0, 0], [1, 0], [3, 1], [3, 1]])
    with pytest.raises(DomainViolation, match="coincident") as exc:
        fn(MeasurementStack(g, 2), p)
    assert exc.value.edge == 1


def test_collinear_subtended_angle_evaluates_but_has_no_jacobian():
    A = MeasurementKind.SUBTENDED_ANGLE
    p = BlockVec.from_blocks([[0, 0], [1, 0], [2, 0], [0, 2]])
    g = Hypergraph(4, ((0, 3), (0, 1, 2), (1, 3)),
                   (MeasurementKind.DISTANCE, A, MeasurementKind.BEARING))
    stack = MeasurementStack(g, 2)
    assert eval_stack(stack, p).block(1) == pytest.approx([0.0])
    with pytest.raises(DomainViolation, match="arccos") as exc:
        jacobian_stack(stack, p)
    assert exc.value.edge == 1

    # a later angle with coincident members (agents 1 and 4): the value
    # path names it, the Jacobian path still names the lower, singular one
    p = BlockVec.from_blocks([[0, 0], [1, 0], [2, 0], [0, 2], [1, 0]])
    stack = MeasurementStack(
        Hypergraph(5, ((0, 3), (0, 1, 2), (1, 4, 3)), (MeasurementKind.DISTANCE, A, A)), 2)
    with pytest.raises(DomainViolation, match="coincident") as exc:
        eval_stack(stack, p)
    assert exc.value.edge == 2
    with pytest.raises(DomainViolation, match="arccos") as exc:
        jacobian_stack(stack, p)
    assert exc.value.edge == 1


def test_jacobian_trivial_blocks():
    blocks = jacobian_edge(MeasurementKind.DISTANCE, 2, [(0, 0), (3, 4)])
    assert np.allclose(blocks[0], [[-0.6, -0.8]])
    blocks = jacobian_edge(MeasurementKind.DISPLACEMENT, 2, [(0, 0), (3, 4)])
    assert np.array_equal(blocks[0], np.eye(2))
    assert np.array_equal(blocks[1], -np.eye(2))


def test_jacobian_sparsity_matches_incidence(rng):
    n, d = 5, 2
    pts = geometric_positions(rng, n, d)
    edges = ((0, 1), (1, 2, 3), (2, 4), (0, 3, 4))
    kinds = (MeasurementKind.DISTANCE, MeasurementKind.TDOA,
             MeasurementKind.BEARING, MeasurementKind.SUBTENDED_ANGLE)
    stack = MeasurementStack(Hypergraph(n, edges, kinds), d)
    R = jacobian_stack(stack, BlockVec.from_blocks(pts))
    dense, rows, cols = R.to_dense(), R.row_structure, R.col_structure
    for l, e in enumerate(edges):
        for i in range(n):
            assert dense[rows.slice_of(l), cols.slice_of(i)].any() == (i in e)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("d", [2, 3])
def test_jacobian_fd_all_kinds(kind, d, rng):
    for _ in range(10):
        members = random_members(rng, kind, d)
        g = Hypergraph(kind.arity, (tuple(range(kind.arity)),), (kind,))
        stack = MeasurementStack(g, d)
        p = BlockVec.from_blocks(members)
        err = jacobian_fd_check(stack, p, step=1e-6)
        # the linear model is exact up to the round-off of the difference
        # quotient itself (~eps * |p| / step)
        tol = 1e-9 if kind is MeasurementKind.DISPLACEMENT else 1e-5
        assert err <= tol


def test_fd_error_scales_quadratically(rng):
    kind = MeasurementKind.DISTANCE
    g = Hypergraph(2, ((0, 1),), (kind,))
    stack = MeasurementStack(g, 2)
    p = BlockVec.from_blocks(random_members(rng, kind, 2))
    errs = [jacobian_fd_check(stack, p, step=s) for s in (1e-2, 1e-3, 1e-4)]
    order = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    assert order == pytest.approx(2.0, abs=0.3)


def test_bearing_projection_property(rng):
    for _ in range(10):
        pi, pj = random_members(rng, MeasurementKind.BEARING, 3)
        u = (pi - pj) / np.linalg.norm(pi - pj)
        out = eval_edge(MeasurementKind.BEARING, 3, [pi, pj])
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        block = jacobian_edge(MeasurementKind.BEARING, 3, [pi, pj])[0]
        assert np.linalg.norm(block @ u) <= 1e-12


@pytest.mark.parametrize("kind", [MeasurementKind.DISTANCE, MeasurementKind.TDOA])
def test_translation_invariance_row_sums(kind, rng):
    for _ in range(10):
        members = random_members(rng, kind, 2)
        blocks = jacobian_edge(kind, 2, members)
        assert np.linalg.norm(sum(blocks)) <= 1e-12
        shift = rng.normal(size=2)
        y0 = eval_edge(kind, 2, members)
        y1 = eval_edge(kind, 2, [m + shift for m in members])
        assert y1 == pytest.approx(y0, abs=1e-9)


def test_search_space_dim_examples(rng):
    # one distance edge between two 2-D agents: one independent row
    g = Hypergraph(2, ((0, 1),), (MeasurementKind.DISTANCE,))
    stack = MeasurementStack(g, 2)
    p = BlockVec.from_blocks([[0, 0], [3, 4]])
    R = jacobian_stack(stack, p)
    assert search_space_dim(R) == (1, 3)
    assert regular_point_check(R)

    # no edges at all
    empty = MeasurementStack(Hypergraph(2, (), ()), 2)
    assert search_space_dim(jacobian_stack(empty, p)) == (0, 4)

    # non-collinear distance triangle: rank saturates at rigid-body freedoms
    g3 = Hypergraph(3, ((0, 1), (1, 2), (0, 2)),
                    (MeasurementKind.DISTANCE,) * 3)
    p3 = BlockVec.from_blocks(geometric_positions(rng, 3, 2))
    R3 = jacobian_stack(MeasurementStack(g3, 2), p3)
    assert search_space_dim(R3) == (3, 3)


def test_duplicated_edge_breaks_regularity(rng):
    g = Hypergraph(2, ((0, 1), (0, 1)), (MeasurementKind.DISTANCE,) * 2)
    p = BlockVec.from_blocks(geometric_positions(rng, 2, 2))
    R = jacobian_stack(MeasurementStack(g, 2), p)
    assert not regular_point_check(R)
    assert search_space_dim(R)[0] == 1


def test_generic_configurations_are_regular(rng):
    # randomly perturbed configurations with few independent edges stay
    # full row rank (regular values are almost everywhere)
    for _ in range(10):
        pts = geometric_positions(rng, 5, 2) + rng.normal(scale=1e-3, size=(5, 2))
        g = Hypergraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)),
                       (MeasurementKind.DISTANCE,) * 4)
        R = jacobian_stack(MeasurementStack(g, 2), BlockVec.from_blocks(pts))
        assert regular_point_check(R)


def test_noise_level_weights_each_sigma_by_its_row_count():
    # a 3-D bearing has 3 rows, a distance 1 and a 3-D displacement 3
    D = MeasurementKind
    g = Hypergraph(3, ((0, 1), (1, 2), (0, 2)), (D.BEARING, D.DISTANCE, D.DISPLACEMENT))
    stack = MeasurementStack(g, 3, sigmas=(0.1, 0.2, 0.0))
    assert stack.noise_level == pytest.approx(np.sqrt(3 * 0.1 ** 2 + 0.2 ** 2), rel=1e-15)
    assert MeasurementStack(g, 3).noise_level == 0.0
    for bad in ((0.1, 0.2), (0.1, -0.2, 0.0), (0.1, np.nan, 0.0)):
        with pytest.raises(ValueError, match="sigmas"):
            MeasurementStack(g, 3, sigmas=bad)
