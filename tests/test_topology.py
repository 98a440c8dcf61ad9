import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdirnet

from fdirnet.netsim import Network
from fdirnet.topology import Hypergraph, build_tables, validate_connectivity


def one_row_each(g):
    return build_tables(g, [1] * g.num_edges)


def neighbors(t, i):
    return t.nbrs[t.nbr_ptr[i]:t.nbr_ptr[i + 1]].tolist()


def incident(t, i):
    return t.edges[t.ptr[i]:t.ptr[i + 1]].tolist()


def test_build_tables_pair_edges():
    g = Hypergraph(3, ((0, 1), (1, 2)))
    t = one_row_each(g)
    assert neighbors(t, 1) == [0, 2]
    assert incident(t, 1) == [0, 1]
    assert neighbors(t, 0) == [1]


def test_hyperedge_connects_all_members():
    g = Hypergraph(3, ((0, 1, 2),))
    t = one_row_each(g)
    assert neighbors(t, 0) == [1, 2]
    assert incident(t, 2) == [0]


def test_empty_edge_list():
    t = one_row_each(Hypergraph(4, ()))
    assert all(neighbors(t, i) == [] for i in range(4))


def drawn_hypergraphs(rng):
    """Random hypergraphs with pair edges and hyperedges, some with
    duplicate edges and isolated vertices, and the empty one."""
    yield Hypergraph(0, ())
    yield Hypergraph(5, ((3, 1), (1, 3), (0, 3, 1)))  # duplicates; 2 and 4 isolated
    for _ in range(20):
        nv = int(rng.integers(2, 8))
        edges = []
        for _ in range(int(rng.integers(0, 8))):
            size = int(rng.integers(2, min(nv, 3) + 1))
            edges.append(tuple(int(v) for v in
                               rng.choice(nv, size=size, replace=False)))
        if edges and rng.random() < 0.5:
            edges.append(edges[int(rng.integers(len(edges)))])
        yield Hypergraph(nv, tuple(edges))


def test_symmetry_and_incidence_brute_force(rng):
    for g in drawn_hypergraphs(rng):
        nv = g.num_vertices
        rows = rng.integers(1, 4, size=g.num_edges)
        t = build_tables(g, rows)
        for i in range(nv):
            nbrs_i, inc_i = neighbors(t, i), incident(t, i)
            # ascending, and equal to the brute-force sets
            assert nbrs_i == sorted({j for e in g.edges if i in e for j in e} - {i})
            assert inc_i == [l for l, e in enumerate(g.edges) if i in e]
            assert t.of(i)[2] == tuple(np.cumsum([0, *rows[inc_i]]).tolist())
            for j in range(nv):
                expected = i != j and any(i in e and j in e for e in g.edges)
                assert (j in nbrs_i) == expected
                assert (j in nbrs_i) == (i in neighbors(t, j))
            for l, e in enumerate(g.edges):
                assert (l in inc_i) == (i in e)
        # each slot's and each incident entry's owner, and the entry's rows
        assert t.slot_agent.tolist() == [i for i in range(nv) for _ in neighbors(t, i)]
        assert t.entry_agent.tolist() == [i for i in range(nv) for _ in incident(t, i)]
        assert t.rows.tolist() == [int(rows[l]) for i in range(nv) for l in incident(t, i)]
        assert g.members.tolist() == [v for e in g.edges for v in e]
        assert g.arity.tolist() == [len(e) for e in g.edges]
        Network(t, 2, 1.0)  # the network accepts every drawn table


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        Hypergraph(2, ((0, 5),))
    with pytest.raises(ValueError):
        Hypergraph(2, ((),))
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 0),))


def test_duplicate_edges_allowed():
    g = Hypergraph(2, ((0, 1), (0, 1)))
    assert incident(one_row_each(g), 0) == [0, 1]


@pytest.mark.parametrize("member", [1.7, 1.0, True, np.True_, "1", None])
def test_non_integer_members_rejected(member):
    # int() would truncate 1.7 to 1 and read True as 1
    with pytest.raises(ValueError, match="edge 1 has a member that is not an integer"):
        Hypergraph(3, ((0, 2), (0, member)))


@pytest.mark.parametrize("bad, message", [
    ((), "edge {} is empty"),
    ((0, 1.5), "edge {} has a member that is not an integer"),
    ((0, 7), "edge {} references vertex 7 out of range"),
    ((0, -1), "edge {} references vertex -1 out of range"),
    ((0, 10 ** 30), "edge {} references vertex 1000000000000000000000000000000 out of range"),
    ((2, 0, 2), "edge {} repeats a vertex"),
])
def test_a_defect_at_two_edges_names_the_lower(bad, message):
    edges = [(0, 1), (1, 2), (0, 2), (2, 1), (1, 0)]
    edges[1] = edges[3] = bad
    with pytest.raises(ValueError) as exc:
        Hypergraph(3, tuple(edges))
    assert str(exc.value).startswith(message.format(1))


def test_numpy_integer_members_pass():
    g = Hypergraph(3, ((np.int32(0), np.int64(2)),))
    assert g.edges == ((0, 2),) and type(g.edges[0][0]) is int


def test_connectivity():
    ok, comps = validate_connectivity(Hypergraph(3, ((0, 1), (1, 2))))
    assert ok and len(comps) == 1
    ok, comps = validate_connectivity(Hypergraph(4, ((0, 1), (2, 3))))
    assert not ok
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]
    ok, comps = validate_connectivity(Hypergraph(1, ()))
    assert ok and comps == [[0]]


def test_connectivity_hyperedges_duplicates_and_isolated_vertex():
    # a 3-member edge joins all three; the duplicate edge adds nothing;
    # vertices 0 and 2 are isolated; components come ordered by lowest vertex
    g = Hypergraph(7, ((5, 1, 3), (4, 6), (6, 4), (1, 5)))
    ok, comps = validate_connectivity(g)
    assert not ok
    assert comps == [[0], [1, 3, 5], [2], [4, 6]]
    assert validate_connectivity(Hypergraph(0, ())) == (True, [])


def test_import_leaves_scipy_out():
    src = str(Path(fdirnet.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import fdirnet; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
