import numpy as np
import pytest

from fdirnet.agent import AgentState, Tables, pack
from fdirnet.blocklin import BlockVec
from fdirnet.exceptions import ProtocolViolation
from fdirnet.measurements import MeasurementKind as K, MeasurementStack, eval_stack
from fdirnet.netsim import (
    KIND_COPY,
    KIND_MU,
    KIND_XBAR,
    PHASE_COPY,
    PHASE_DUAL,
    PHASE_KINDS,
    PHASE_XBAR,
    SLOT_ARRAYS,
    Network,
    dump_trace_csv,
    message_stats,
)
from fdirnet.solver import build_network
from fdirnet.topology import Hypergraph, build_tables

from conftest import geometric_positions, path_distance_stack


def make_net(rng, n=4, record_trace=False, fault=None):
    stack = path_distance_stack(n)
    pts = geometric_positions(rng, n, 2)
    p_true = BlockVec.from_blocks(pts)
    y = eval_stack(stack, p_true)
    p_hat = p_true.copy()
    if fault is not None:
        i, delta = fault
        p_hat.block(i)[:] -= delta
    net = build_network(stack, p_hat, y, BlockVec(p_hat.structure), rho=1.0,
                        record_trace=record_trace)
    return net, stack


def test_phase1_message_counts(rng):
    net, _ = make_net(rng, n=2, record_trace=True)
    delivered = net.run_phase(PHASE_XBAR)
    kinds = sorted(m.kind for m in delivered)
    assert kinds == sorted([KIND_XBAR, KIND_XBAR, KIND_MU, KIND_MU])
    assert all(not m.payload.flags.writeable for m in delivered)


def test_isolated_agent_sends_nothing(rng):
    from fdirnet.measurements import MeasurementStack
    from fdirnet.topology import Hypergraph
    stack = MeasurementStack(Hypergraph(1, (), ()), 2)
    p = BlockVec.from_blocks([[0.0, 0.0]])
    net = build_network(stack, p, eval_stack(stack, p),
                        BlockVec(p.structure), 1.0, record_trace=True)
    assert net.run_phase(PHASE_XBAR) == []
    assert net.run_phase(PHASE_COPY) == []


def test_messages_per_iteration_counting(rng):
    net, stack = make_net(rng, n=5, record_trace=True)
    net.run_iteration()
    tables = build_tables(stack.graph)
    per_kind = {KIND_XBAR: 0, KIND_MU: 0, KIND_COPY: 0}
    for m in net.trace:
        per_kind[m.kind] += 1
    total_nbr = sum(len(tables.neighbors[i]) for i in range(5))
    assert per_kind == {KIND_XBAR: total_nbr, KIND_MU: total_nbr,
                        KIND_COPY: total_nbr}


def test_routing_matches_per_slot_reads(rng, monkeypatch):
    # arity-3 edges and uneven degrees: agent 5 has one neighbor, agent 2
    # has four
    from fdirnet import netsim
    from fdirnet.measurements import MeasurementKind as K, MeasurementStack
    from fdirnet.topology import Hypergraph

    def no_message(*args, **kwargs):
        raise AssertionError("a Message was built without record_trace")

    monkeypatch.setattr(netsim, "Message", no_message)
    graph = Hypergraph(6, ((0, 1), (1, 2, 3), (2, 3, 4), (0, 2), (4, 5)),
                       (K.DISTANCE, K.TDOA, K.SUBTENDED_ANGLE, K.BEARING,
                        K.DISPLACEMENT))
    stack = MeasurementStack(graph, 2)
    p_true = BlockVec.from_blocks(geometric_positions(rng, 6, 2, min_sep=1.0))
    p_hat = p_true.copy()
    p_hat.block(3)[:] += [0.5, -0.3]
    # a random x* makes every agent's xbar its own, nonzero block
    x_star = BlockVec(p_hat.structure, rng.normal(scale=0.1, size=12))
    net = build_network(stack, p_hat, eval_stack(stack, p_true), x_star, rho=1.0)
    assert net.route.dtype == np.intp
    assert sorted(len(a.neighbors) for a in net.agents.values()) == [1, 2, 3, 3, 3, 4]
    net.run_iteration()  # nonzero duals and copies
    for phase, checks in ((PHASE_XBAR, (("nbr_xbar", None), ("nbr_mu", "mu"))),
                          (PHASE_COPY, (("nbr_copy_of_me", "w"),))):
        assert net.run_phase(phase) == []
        for i, a in net.agents.items():
            for s, j in enumerate(a.neighbors):
                b = net.agents[j]
                for slots, sent in checks:
                    want = b.x_bar if sent is None else getattr(b, sent)[b.neighbors.index(i)]
                    assert np.any(want != 0.0)
                    assert np.array_equal(getattr(a, slots)[s], want)


def test_determinism_bit_identical(rng):
    seeds_trace = []
    for _ in range(2):
        r = np.random.default_rng(7)
        net, _ = make_net(r, n=5, record_trace=True, fault=(2, np.array([0.4, 0.1])))
        for _ in range(5):
            net.run_iteration()
        seeds_trace.append([(m.sender, m.receiver, m.round, m.kind, m.payload.tolist())
                            for m in net.trace])
    assert seeds_trace[0] == seeds_trace[1]


def test_message_stats_scale_free(rng):
    counts = {}
    for n in (10, 100):
        r = np.random.default_rng(3)
        pts = np.column_stack([np.arange(n, dtype=float),
                               r.normal(scale=0.1, size=n)])
        stack = path_distance_stack(n)
        p = BlockVec.from_blocks(pts)
        net = build_network(stack, p, eval_stack(stack, p),
                            BlockVec(p.structure), 1.0, record_trace=True)
        for _ in range(3):
            net.run_iteration()
        stats = message_stats(net.trace)
        counts[n] = stats[5]  # interior agent of the path
    assert counts[10] == counts[100]


def test_agent_without_neighbors_zero_messages():
    from fdirnet.measurements import MeasurementStack
    from fdirnet.topology import Hypergraph
    # 3 agents, only 0-1 connected; agent 2 is isolated
    from fdirnet.measurements import MeasurementKind
    stack = MeasurementStack(
        Hypergraph(3, ((0, 1),), (MeasurementKind.DISTANCE,)), 2)
    p = BlockVec.from_blocks([[0, 0], [3, 4], [10, 10]])
    net = build_network(stack, p, eval_stack(stack, p),
                        BlockVec(p.structure), 1.0, record_trace=True)
    net.run_iteration()
    stats = message_stats(net.trace)
    assert 2 not in stats


def test_payload_floats_scale_with_block_dim(rng):
    for d, expect in ((2, 2), (3, 3)):
        from fdirnet.measurements import MeasurementKind, MeasurementStack
        from fdirnet.topology import Hypergraph
        stack = MeasurementStack(
            Hypergraph(2, ((0, 1),), (MeasurementKind.DISTANCE,)), d)
        p = BlockVec.from_blocks(geometric_positions(rng, 2, d))
        net = build_network(stack, p, eval_stack(stack, p),
                            BlockVec(p.structure), 1.0, record_trace=True)
        net.run_phase(PHASE_XBAR)
        xbar_msgs = [m for m in net.trace if m.kind == KIND_XBAR]
        assert all(len(m.payload) == expect for m in xbar_msgs)


def test_trace_csv_dump(tmp_path, rng):
    net, _ = make_net(rng, n=3, record_trace=True)
    net.run_iteration()
    path = tmp_path / "trace.csv"
    dump_trace_csv(net.trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,phase,sender,receiver,kind,payload_norm"
    assert len(lines) == len(net.trace) + 1


# ----- one arena, index-mapped delivery, network-wide statistics ------

def network_of(rng, graph, d=2):
    """A network on graph with a faulty report and a random x*, so that every
    agent's xbar is its own, nonzero block."""
    stack = MeasurementStack(graph, d)
    n = graph.num_vertices
    p_true = BlockVec.from_blocks(geometric_positions(rng, n, d, min_sep=1.0))
    p_hat = p_true.copy()
    p_hat.block(n // 2)[:] += 0.4
    x_star = BlockVec(p_hat.structure, rng.normal(scale=0.1, size=n * d))
    return build_network(stack, p_hat, eval_stack(stack, p_true), x_star, rho=1.0)


def mixed_arity_network(rng, d=2):
    # arity-3 edges and uneven degrees: agent 5 has one neighbor, agent 2 four
    return network_of(rng, Hypergraph(6, ((0, 1), (1, 2, 3), (2, 3, 4), (0, 2), (4, 5)),
                                      (K.DISTANCE, K.TDOA, K.SUBTENDED_ANGLE, K.BEARING,
                                       K.DISPLACEMENT)), d)


def network_with_an_isolated_agent(rng):
    return network_of(rng, Hypergraph(4, ((0, 1), (1, 3)), (K.DISTANCE, K.BEARING)))


def lone_agent_network(rng):
    return network_of(rng, Hypergraph(1, (), ()))


@pytest.mark.parametrize("neighbors", [
    ((1,), ()),  # 0 lists 1, 1 does not list 0
    ((1,), (0,), (1,)),  # 2 lists 1, 1 does not list 2
    ((0,), ()),  # an agent its own neighbor
    ((2, 1), (0,), (0,)),  # not ascending
    ((1,), (0, 2)),  # no agent 2
], ids=["one-way", "one-way-later", "self", "descending", "out-of-range"])
def test_malformed_neighbor_tables_rejected_at_construction(neighbors, monkeypatch):
    # no agent may reach a non-neighbor: the tables are checked before any
    # agent is built
    def on_segment(*args):
        raise AssertionError("an agent was built")

    monkeypatch.setattr(AgentState, "on_segment", on_segment)
    tables = Tables(*pack(neighbors), *pack([()] * len(neighbors)), np.zeros(0, np.intp))
    with pytest.raises(ProtocolViolation, match="symmetric"):
        Network(tables, 2, 1.0)


def arena_entries(net):
    """Arena index -> (agent, array name, slot or None, entry) of every xbar
    and every slot array."""
    owner = {}
    for a in net.ordered:
        for name in ("x_bar", "mu", "w") + tuple(SLOT_ARRAYS.values()):
            v = getattr(a, name)
            assert v.base is net.arena
            first = (v.ctypes.data - net.arena.ctypes.data) // v.itemsize
            for q, idx in enumerate(np.ndindex(v.shape)):
                owner[first + q] = (a, name, idx[0] if v.ndim == 2 else None, idx[-1])
    return owner


@pytest.mark.parametrize("d", [2, 3])
def test_every_map_entry_feeds_a_slot_from_the_neighbor_that_owns_it(rng, d):
    net = mixed_arity_network(rng, d)
    owner = arena_entries(net)
    sent_from = {KIND_XBAR: "x_bar", KIND_MU: "mu", KIND_COPY: "w"}
    for phase, kinds in PHASE_KINDS.items():
        dst, src = net.delivery[phase]
        assert dst.dtype == src.dtype == np.intp and len(dst) == len(src)
        for kind, to, frm in zip(kinds, np.split(dst, len(kinds)), np.split(src, len(kinds))):
            slots = {q for q, (_, name, _, _) in owner.items() if name == SLOT_ARRAYS[kind]}
            assert sorted(to) == sorted(slots)  # every slot entry, each once
            for t, f in zip(to.tolist(), frm.tolist()):
                receiver, _, s, e = owner[t]
                sender, name, s_sent, e_sent = owner[f]
                assert sender.i == receiver.neighbors[s]
                assert name == sent_from[kind] and e_sent == e
                if kind != KIND_XBAR:  # the sender's slot for the receiver
                    assert sender.neighbors[s_sent] == receiver.i


@pytest.mark.parametrize("phase", [PHASE_XBAR, PHASE_COPY])
def test_each_delivering_phase_overwrites_every_receive_slot(rng, phase):
    net = mixed_arity_network(rng)
    net.run_iteration()  # nonzero duals and copies
    if phase == PHASE_COPY:
        net.run_phase(PHASE_XBAR)
    for a in net.ordered:
        for kind in PHASE_KINDS[phase]:
            getattr(a, SLOT_ARRAYS[kind])[:] = np.nan
    net.run_phase(phase)
    for a in net.ordered:
        for s, j in enumerate(a.neighbors):
            b = net.agents[j]
            t = b.neighbors.index(a.i)
            sent = {KIND_XBAR: b.x_bar, KIND_MU: b.mu[t], KIND_COPY: b.w[t]}
            for kind in PHASE_KINDS[phase]:
                assert np.array_equal(getattr(a, SLOT_ARRAYS[kind])[s], sent[kind])


@pytest.mark.parametrize("build", [mixed_arity_network,
                                   lambda rng: mixed_arity_network(rng, d=3),
                                   network_with_an_isolated_agent, lone_agent_network],
                         ids=["mixed-arity", "mixed-arity-3d", "isolated", "lone"])
def test_round_statistics_bit_equal_the_per_agent_loop(rng, build):
    net = build(rng)
    for _ in range(3):
        net.run_iteration()
        norms = [a.violation_norms() for a in net.ordered]
        assert net.violation_norms() == (max(c for c, _ in norms), max(d for _, d in norms))
        assert np.array_equal(net.x_bars(), np.array([a.x_bar for a in net.ordered]))
    assert net.x_bars().any()


def test_every_agent_lives_in_its_own_segment_of_the_arena(rng):
    net = mixed_arity_network(rng)
    arena, end = net.arena, 0
    for a in net.ordered:
        views = (a.x_star, a.H_inv, a.duals, a.xw, a.viol, a.nbr_xbar, a.nbr_mu,
                 a.nbr_copy_of_me, a.J, a.r)
        assert all(v.base is arena for v in views)
        starts = [(v.ctypes.data - arena.ctypes.data) // v.itemsize for v in views]
        # the views tile one segment, which starts where the last one ended
        assert min(starts) == end
        end += sum(v.size for v in views)
        assert max(s + v.size for s, v in zip(starts, views)) == end
    assert end == arena.size


def test_run_iteration_calls_run_phase_on_the_class_once_per_phase(rng, monkeypatch):
    # the benchmark stamps each ADMM phase by wrapping Network.run_phase on
    # the class; an iteration that went around it would leave it whole-solve
    # times only
    calls = []
    run_phase = Network.run_phase

    def stamped(self, phase):
        calls.append(phase)
        return run_phase(self, phase)

    monkeypatch.setattr(Network, "run_phase", stamped)
    net, _ = make_net(rng, n=4)
    net.run_iteration()
    assert calls == [PHASE_XBAR, PHASE_COPY, PHASE_DUAL]
