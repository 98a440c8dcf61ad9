import numpy as np
import pytest

from fdirnet.blocklin import BlockVec
from fdirnet.exceptions import ProtocolViolation
from fdirnet.measurements import eval_stack
from fdirnet.netsim import (
    KIND_COPY,
    KIND_MU,
    KIND_XBAR,
    PHASE_COPY,
    PHASE_XBAR,
    SLOT_ARRAYS,
    dump_trace_csv,
    message_stats,
)
from fdirnet.solver import build_network
from fdirnet.topology import build_tables

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


def honest_sends(net, phase):
    """The send blocks ``run_phase`` hands to delivery, captured instead of
    delivered."""
    captured = {}
    net._deliver = lambda ph, sends: captured.update(sends) or []
    net.run_phase(phase)
    del net._deliver
    return captured


def test_non_neighbor_send_rejected(rng):
    # agent 0 of the path has one neighbor; a second row would be a send
    # addressed past its neighbors
    net, _ = make_net(rng, n=4)
    sends = honest_sends(net, PHASE_XBAR)
    blocks = list(sends[KIND_XBAR])
    blocks[0] = np.vstack([blocks[0], np.zeros((1, 2))])
    with pytest.raises(ProtocolViolation):
        net._deliver(PHASE_XBAR, {**sends, KIND_XBAR: blocks})


@pytest.mark.parametrize("phase", [PHASE_XBAR, PHASE_COPY])
def test_undelivered_slot_rejected(rng, phase):
    # a phase that drops any (receiver, neighbor, kind) row, leaves out a
    # kind, sends an unknown one or sends nothing is a protocol violation
    net, _ = make_net(rng, n=4)
    if phase == PHASE_COPY:
        net.run_phase(PHASE_XBAR)
    sends = honest_sends(net, phase)
    kind = sorted(sends)[0]
    assert net._deliver(phase, sends) == []  # the honest sends deliver
    for dropped in (slice(1, None), slice(None, -1)):
        blocks = list(sends[kind])
        blocks[1] = blocks[1][dropped]  # agent 1 has two neighbors
        with pytest.raises(ProtocolViolation):
            net._deliver(phase, {**sends, kind: blocks})
    bad = [{k: v for k, v in sends.items() if k != kind},  # a missing kind
           {**sends, "bogus": sends[kind]},  # an unknown kind
           {}]
    for tampered in bad:
        with pytest.raises(ProtocolViolation):
            net._deliver(phase, tampered)


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


def test_receive_slots_are_rows_of_the_network_inbox(rng):
    # delivery is one gather per kind into the network's inbox; every agent
    # reads its own rows of it
    net, _ = make_net(rng, n=5)
    for _ in range(2):
        for kind, name in SLOT_ARRAYS.items():
            inbox = net.inbox[kind]
            assert inbox.shape == (net.bounds[-1], 2)
            for a, lo, hi in zip(net.ordered, net.bounds, net.bounds[1:]):
                slots = getattr(a, name)
                assert slots.base is inbox
                assert slots.shape == (hi - lo, 2)
                assert slots.ctypes.data == inbox[lo:hi].ctypes.data
        net.run_iteration()


def test_send_block_of_the_wrong_width_rejected(rng):
    net, _ = make_net(rng, n=4)
    sends = honest_sends(net, PHASE_XBAR)
    for blocks in ([b[:, :1] for b in sends[KIND_XBAR]],  # every block too narrow
                   [b[:, :1] if k == 1 else b for k, b in enumerate(sends[KIND_XBAR])],
                   [b[:, 0] for b in sends[KIND_XBAR]]):  # one-dimensional
        with pytest.raises(ProtocolViolation):
            net._deliver(PHASE_XBAR, {**sends, KIND_XBAR: blocks})
