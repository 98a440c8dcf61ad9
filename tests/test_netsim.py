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
    Message,
    dump_trace_csv,
    message_stats,
)
from fdirnet.solver import build_network

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
    tables = net.tables
    per_kind = {KIND_XBAR: 0, KIND_MU: 0, KIND_COPY: 0}
    for m in net.trace:
        per_kind[m.kind] += 1
    total_nbr = sum(len(tables.neighbors[i]) for i in range(5))
    assert per_kind == {KIND_XBAR: total_nbr, KIND_MU: total_nbr,
                        KIND_COPY: total_nbr}


def test_non_neighbor_send_rejected(rng):
    net, _ = make_net(rng, n=4)
    bad = Message(0, 3, 0, PHASE_XBAR, KIND_XBAR, np.zeros(2))
    with pytest.raises(ProtocolViolation):
        net._deliver([bad])


@pytest.mark.parametrize("phase", [PHASE_XBAR, PHASE_COPY])
def test_undelivered_slot_rejected(rng, phase):
    # a phase whose messages leave any (receiver, neighbor, kind) slot
    # unwritten is a protocol violation, as is one that sends nothing
    net, _ = make_net(rng, n=4)
    if phase == PHASE_COPY:
        net.run_phase(PHASE_XBAR)
    sent = net.run_phase(phase)
    assert all(not m.payload.flags.writeable for m in sent)
    for dropped in (sent[1:], sent[:-1], []):
        with pytest.raises(ProtocolViolation):
            net._deliver(list(dropped))
    unknown = Message(0, 1, 0, phase, "bogus", np.zeros(2))
    with pytest.raises(ProtocolViolation):
        net._deliver(sent + [unknown])


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
