import subprocess
import sys
from pathlib import Path

import pytest

import fdirnet

from fdirnet.topology import Hypergraph, build_tables, validate_connectivity


def test_build_tables_pair_edges():
    g = Hypergraph(3, ((0, 1), (1, 2)))
    t = build_tables(g)
    assert t.neighbors[1] == {0, 2}
    assert t.incident[1] == (0, 1)
    assert t.neighbors[0] == {1}


def test_hyperedge_connects_all_members():
    g = Hypergraph(3, ((0, 1, 2),))
    t = build_tables(g)
    assert t.neighbors[0] == {1, 2}
    assert t.incident[2] == (0,)


def test_empty_edge_list():
    t = build_tables(Hypergraph(4, ()))
    assert all(n == frozenset() for n in t.neighbors)


def test_symmetry_and_incidence_brute_force(rng):
    for _ in range(20):
        nv = int(rng.integers(2, 8))
        edges = []
        for _ in range(int(rng.integers(0, 8))):
            size = int(rng.integers(2, min(nv, 3) + 1))
            edges.append(tuple(int(v) for v in
                               rng.choice(nv, size=size, replace=False)))
        g = Hypergraph(nv, tuple(edges))
        t = build_tables(g)
        for i in range(nv):
            for j in range(nv):
                expected = i != j and any(i in e and j in e for e in g.edges)
                assert (j in t.neighbors[i]) == expected
                assert (j in t.neighbors[i]) == (i in t.neighbors[j])
            for l, e in enumerate(g.edges):
                assert (l in t.incident[i]) == (i in e)


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        Hypergraph(2, ((0, 5),))
    with pytest.raises(ValueError):
        Hypergraph(2, ((),))
    with pytest.raises(ValueError):
        Hypergraph(3, ((0, 0),))


def test_duplicate_edges_allowed():
    g = Hypergraph(2, ((0, 1), (0, 1)))
    assert build_tables(g).incident[0] == (0, 1)


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
