"""The benchmark's tracer wraps program functions by name; these checks keep
those names in place.

The tracer module is read from ``perfbench/tracer.py`` and executed in a
fresh module object, so that no bytecode or other file is written there.
"""

import types
from pathlib import Path

from fdirnet import agent, solver
from fdirnet.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_entry_point_resolves():
    tracing = load_tracer()
    for name, (owner, attr) in tracing.ENTRY_POINTS.items():
        assert callable(getattr(owner, attr, None)), name


def test_traced_solve_records_relinearization_and_w_updates():
    tracing = load_tracer()
    originals = {name: getattr(owner, attr)
                 for name, (owner, attr) in tracing.ENTRY_POINTS.items()}
    scn = load_scenario(ROOT / "scenarios" / "mixed_chain_fault.yaml")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert agent.AgentState.primal_update_w is not originals["agent.primal_update_w"]
        res = solver.outer_scp(scn.stack, scn.reported_states, scn.measurements(),
                               scn.inner_params, scn.outer_params)
    names = set(tracer.names)
    assert {"solver.relinearize", "agent.primal_update_w"} <= names
    assert tracer.names.count("solver.relinearize") == res.outer_iters - 1
    # one traced prox solve for every x-update that missed the fast path
    prox_calls = sum(int((scn.num_agents - rows.fastpath_count).sum())
                     for rows in res.trace.inner)
    assert prox_calls > 0
    assert tracer.names.count("prox.solve_prox") == prox_calls
    for name, (owner, attr) in tracing.ENTRY_POINTS.items():
        assert getattr(owner, attr) is originals[name], name
