import contextlib
import copy
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdirnet.blocklin import BlockVec
from fdirnet.cli import EXIT_DEGRADED, EXIT_ERROR, EXIT_OK, _grade, _solve, main
from fdirnet.measurements import MeasurementKind, eval_edge
from fdirnet.scenario import ScenarioError, load_scenario, scenario_from_dict
from fdirnet.solver import RunTrace, SolveResult

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_doc():
    return {
        "dimension": 2,
        "seed": 3,
        "agents": [
            {"id": 0, "true_state": [0.0, 0.0]},
            {"id": 1, "true_state": [3.0, 4.0],
             "reported_state": [3.5, 4.0]},
            {"id": 2, "true_state": [0.0, 5.0]},
        ],
        "edges": [
            {"kind": "distance", "members": [0, 1]},
            {"kind": "displacement", "members": [1, 2], "sigma": 0.1},
        ],
    }


def test_parse_basic_fields():
    scn = scenario_from_dict(base_doc())
    assert scn.d == 2 and scn.num_agents == 3
    assert scn.agent_ids == (0, 1, 2)
    assert scn.stack.graph.kinds == (MeasurementKind.DISTANCE,
                                     MeasurementKind.DISPLACEMENT)
    assert scn.stack.sigmas == (0.0, 0.1)
    assert scn.reported_states.block(1) == pytest.approx([3.5, 4.0])


def test_reported_state_defaults_to_true_state():
    scn = scenario_from_dict(base_doc())
    assert np.array_equal(scn.true_states.block(0), scn.reported_states.block(0))


def test_noncontiguous_agent_ids_are_remapped():
    doc = base_doc()
    for a, new in zip(doc["agents"], (10, 7, 99)):
        a["id"] = new
    doc["edges"][0]["members"] = [10, 7]
    doc["edges"][1]["members"] = [7, 99]
    scn = scenario_from_dict(doc)
    assert scn.agent_ids == (7, 10, 99)
    # internal edge indices follow the sorted id order
    assert scn.stack.graph.edges[0] == (1, 0)


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.update(dimension=4), "dimension"),
    (lambda d: d.update(agents=[]), "agents"),
    (lambda d: d["agents"][0].pop("true_state"), "agents[0].true_state"),
    (lambda d: d["agents"].append({"id": 0, "true_state": [0, 0]}),
     "duplicate id"),
    (lambda d: d["edges"][0].update(kind="sonar"), "edges[0].kind"),
    (lambda d: d["edges"][0].update(members=[0, 9]), "unknown agent id 9"),
    (lambda d: d["edges"][0].update(members=[0]), "needs 2 members"),
    (lambda d: d["edges"][1].update(sigma=-1.0), "edges[1].sigma"),
    (lambda d: d.update(solver={"bogus": 1}), "solver.bogus"),
    # a negative seed failed only once noise was drawn
    (lambda d: d.update(seed=-1), "seed: must be a non-negative"),
    (lambda d: d["edges"][0].update(members=[0, 0]), "edge 0 repeats a vertex"),
])
def test_validation_errors_name_the_field(mutate, needle):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=None) as exc:
        scenario_from_dict(doc)
    assert needle in str(exc.value)


NON_FINITE_OR_NON_NUMERIC = [
    pytest.param("agents[1].reported_state", lambda d: d["agents"][1].update(
        reported_state=[float("nan"), 0.0]), id="nan-reported"),
    pytest.param("agents[1].reported_state", lambda d: d["agents"][1].update(
        reported_state=[float("inf"), 0.0]), id="inf-reported"),
    pytest.param("agents[1].reported_state", lambda d: d["agents"][1].update(
        reported_state=["x", 0.0]), id="string-reported"),
    pytest.param("agents[0].true_state", lambda d: d["agents"][0].update(
        true_state=[0.0, float("-inf")]), id="inf-true"),
    pytest.param("agents[2].true_state", lambda d: d["agents"][2].update(
        true_state=[None, 5.0]), id="null-true"),
    pytest.param("edges[1].sigma", lambda d: d["edges"][1].update(
        sigma=float("inf")), id="inf-sigma"),
    pytest.param("edges[1].sigma", lambda d: d["edges"][1].update(
        sigma="x"), id="string-sigma"),
]


@pytest.mark.parametrize("needle,mutate", NON_FINITE_OR_NON_NUMERIC)
def test_non_finite_or_non_numeric_input_rejected(needle, mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert needle in str(exc.value)


@pytest.mark.parametrize("needle,mutate", NON_FINITE_OR_NON_NUMERIC)
def test_cli_non_finite_or_non_numeric_input(tmp_path, capsys, needle, mutate):
    doc = base_doc()
    mutate(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


MALFORMED_OPTIONS = [
    pytest.param("solver.rho", lambda d: d.update(solver={"rho": "abc"}),
                 id="string-rho"),
    pytest.param("solver.rho", lambda d: d.update(solver={"rho": -1}),
                 id="negative-rho"),
    pytest.param("solver.fault_tol", lambda d: d.update(solver={"fault_tol": "x"}),
                 id="string-fault-tol"),
    pytest.param("solver.max_scp_iters", lambda d: d.update(
        solver={"max_scp_iters": 0}), id="zero-max-scp-iters"),
    pytest.param("solver.max_inner_iters", lambda d: d.update(
        solver={"max_inner_iters": 2.5}), id="float-max-inner-iters"),
    pytest.param("edges[0].members", lambda d: d["edges"][0].update(
        members=[[0], 1]), id="list-member"),
]


@pytest.mark.parametrize("needle,mutate", MALFORMED_OPTIONS)
def test_malformed_options_rejected(needle, mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert needle in str(exc.value)


@pytest.mark.parametrize("needle,mutate", MALFORMED_OPTIONS)
def test_cli_malformed_options(tmp_path, capsys, needle, mutate):
    doc = base_doc()
    mutate(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


@pytest.mark.parametrize("flag,value", [
    ("--rho", "0"), ("--rho", "-1"), ("--rho", "nan"), ("--max-outer", "0"),
    ("--seed", "-1"),
])
def test_cli_non_positive_override_rejected(tmp_path, capsys, flag, value):
    # without the check, --max-outer 0 exits 0 and reports no faulty agent
    # on a scenario with a planted fault, having never solved
    code = main(["run", "--scenario", str(SCENARIOS / "circle_single_fault.yaml"),
                 "--out", str(tmp_path / "out"), flag, value])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not (tmp_path / "out").exists()


def test_solver_overrides():
    doc = base_doc()
    doc["solver"] = {"rho": 2.5, "max_scp_iters": 7, "fault_tol": 0.01}
    scn = scenario_from_dict(doc)
    assert scn.inner_params.rho == 2.5
    assert scn.outer_params.max_scp_iters == 7
    assert scn.outer_params.fault_tol == 0.01


def test_measurements_deterministic_and_seeded():
    scn = scenario_from_dict(base_doc())
    y1 = scn.measurements()
    y2 = scn.measurements()
    assert np.array_equal(y1.data, y2.data)
    scn.seed = 4
    y3 = scn.measurements()
    assert not np.array_equal(y1.data, y3.data)  # sigma > 0 on edge 1
    assert y3.block(0) == pytest.approx(y1.block(0))  # noiseless edge


@pytest.mark.parametrize("name", ["circle_single_fault", "mixed_chain_fault"])
def test_noisy_measurements_match_a_per_edge_reading(name):
    # one draw over the rows of every noisy edge gives what one draw per
    # noisy edge, in edge order, from the same generator gives
    doc = _shipped(name, lambda d: [e.update(sigma=(0.0, 0.01, 0.3)[l % 3])
                                    for l, e in enumerate(d["edges"])])
    true = {a["id"]: a["true_state"] for a in doc["agents"]}
    rng = np.random.default_rng(doc["seed"])
    expected = []
    for e in doc["edges"]:
        y = eval_edge(MeasurementKind(e["kind"]), doc["dimension"],
                      [true[m] for m in e["members"]])
        expected.append(y + e["sigma"] * rng.standard_normal(len(y)) if e["sigma"] else y)
    y = scenario_from_dict(doc).measurements()
    assert np.array_equal(y.data, np.concatenate(expected))
    assert y.structure.lengths == tuple(map(len, expected))


def test_round_trip_save_load(tmp_path):
    scn = scenario_from_dict(base_doc())
    path = tmp_path / "s.yaml"
    scn.save(path)
    back = load_scenario(path)
    assert np.array_equal(back.true_states.data, scn.true_states.data)
    assert np.array_equal(back.reported_states.data, scn.reported_states.data)
    assert back.stack.graph.edges == scn.stack.graph.edges
    assert back.stack.sigmas == scn.stack.sigmas


def test_unparseable_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("{[")
    with pytest.raises(ScenarioError):
        load_scenario(path)


SCENARIO_NAMES = [f.stem for f in sorted(SCENARIOS.glob("*.yaml"))]
SHIPPED_DOCS = [yaml.safe_load((SCENARIOS / f"{n}.yaml").read_text()) for n in SCENARIO_NAMES]

# values of the wrong type, non-finite, out of range or too large for a float
JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                 st.text(max_size=3), st.lists(st.integers(-2, 9), max_size=4),
                 st.dictionaries(st.text(max_size=2), st.integers(-2, 9), max_size=2))


def _paths(node, path=()):
    """The path of node and of everything nested in it."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def mutated_documents(draw):
    """A shipped scenario document with one to three entries dropped,
    replaced by junk, or (lists) shortened or lengthened."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(JUNK)
        *up, key = path
        parent = doc
        for k in up:
            parent = parent[k]
        action = draw(st.sampled_from(["drop", "junk", "shorten", "lengthen"]))
        value = parent[key]
        if action == "drop":
            del parent[key]
        elif action == "junk" or not isinstance(value, list):
            parent[key] = draw(JUNK)
        elif action == "shorten":
            parent[key] = value[:draw(st.integers(0, max(len(value) - 1, 0)))]
        else:
            parent[key] = value + [copy.deepcopy(value[-1]) if value else draw(JUNK)]
    return doc


def _shipped(name, mutate):
    doc = copy.deepcopy(SHIPPED_DOCS[SCENARIO_NAMES.index(name)])
    mutate(doc)
    return doc


@settings(deadline=None, max_examples=300)
@given(mutated_documents())
# each of these raised an exception other than ScenarioError
@example(_shipped("mixed_chain_fault", lambda d: d["edges"][0].update(members=[0, 0])))
@example(_shipped("triangle_diagnostics", lambda d: d["agents"][0].update(
    true_state=[10 ** 400, 0.0])))
@example(_shipped("triangle_diagnostics", lambda d: d["edges"][0].update(sigma=-10 ** 400)))
@example(_shipped("circle_fault_free", lambda d: d["solver"].update(rho=10 ** 400)))
# this one loaded YAML's true as agent id 1
@example(_shipped("triangle_diagnostics", lambda d: d["edges"][0].update(members=[0, True])))
def test_loader_fuzz_returns_a_scenario_or_scenario_error(doc):
    try:
        scenario_from_dict(doc)
    except ScenarioError:
        pass


COORDINATE = st.one_of(st.integers(-100, 100), st.floats(-100, 100))


@st.composite
def valid_documents(draw):
    """Valid documents: every kind, in any mix, 3-member edges among them,
    ids neither contiguous nor sorted, int and float coordinates, some sigma > 0."""
    d = draw(st.sampled_from([2, 3]))
    ids = draw(st.lists(st.integers(-50, 50), min_size=3, max_size=8, unique=True))
    agents = []
    for aid in ids:
        agent = {"id": aid, "true_state": draw(st.lists(COORDINATE, min_size=d, max_size=d))}
        if draw(st.booleans()):
            agent["reported_state"] = draw(st.lists(COORDINATE, min_size=d, max_size=d))
        agents.append(agent)
    edges = []
    for kind in draw(st.lists(st.sampled_from(list(MeasurementKind)), max_size=12)):
        edge = {"kind": kind.value, "members": draw(st.permutations(ids))[:kind.arity]}
        if draw(st.booleans()):
            edge["sigma"] = draw(st.one_of(st.integers(0, 3), st.floats(0, 1)))
        edges.append(edge)
    return {"dimension": d, "seed": draw(st.integers(0, 99)), "agents": agents, "edges": edges}


@settings(deadline=None, max_examples=150)
@given(valid_documents())
def test_loader_matches_a_per_entry_reading(doc):
    scn = scenario_from_dict(doc)
    d, by_id = doc["dimension"], {a["id"]: a for a in doc["agents"]}
    ids = sorted(by_id)
    index = {aid: k for k, aid in enumerate(ids)}
    assert scn.agent_ids == tuple(ids)
    for k, aid in enumerate(ids):
        true = [float(v) for v in by_id[aid]["true_state"]]
        reported = [float(v) for v in by_id[aid].get("reported_state", true)]
        assert scn.true_states.block(k).tolist() == true
        assert scn.reported_states.block(k).tolist() == reported
    g = scn.stack.graph
    assert g.edges == tuple(tuple(index[m] for m in e["members"]) for e in doc["edges"])
    assert all(type(v) is int for e in g.edges for v in e)
    assert g.kinds == tuple(MeasurementKind(e["kind"]) for e in doc["edges"])
    assert scn.stack.sigmas == tuple(float(e.get("sigma", 0.0)) for e in doc["edges"])
    # per kind, in order of first appearance: its edges, members, rows and
    # (built on first read) block keys
    starts = np.cumsum([0] + [kind.output_dim(d) for kind in g.kinds]).tolist()
    assert [group[0] for group in scn.stack._groups] == list(dict.fromkeys(g.kinds))
    assert len(scn.stack._block_keys) == len(scn.stack._groups)
    for (kind, ls, members, rows), keys in zip(scn.stack._groups, scn.stack._block_keys):
        mine = [l for l, k in enumerate(g.kinds) if k is kind]
        assert ls.tolist() == mine
        assert members.tolist() == [list(g.edges[l]) for l in mine]
        assert rows.tolist() == [list(range(starts[l], starts[l + 1])) for l in mine]
        assert keys == [(l, i) for l in mine for i in g.edges[l]]


def ring_doc():
    """Five agents on a ring of distance edges, for a defect at two places."""
    return {"dimension": 2, "seed": 1,
            "agents": [{"id": i, "true_state": [float(i), float(i * i % 3)]} for i in range(5)],
            "edges": [{"kind": "distance", "members": [i, (i + 1) % 5]} for i in range(5)]}


def _edge(**change):
    return lambda doc, k: doc["edges"][k].update(change)


def _agent(**change):
    return lambda doc, k: doc["agents"][k].update(change)


@pytest.mark.parametrize("lower, upper", [(0, 4), (1, 3)])
@pytest.mark.parametrize("defect, message", [
    (_edge(members=[0, 9]), "edges[{}].members: unknown agent id 9"),
    (_edge(members=[0, True]), "edges[{}].members: unknown agent id True"),
    (_edge(members=[1.0, 2]), "edges[{}].members: unknown agent id 1.0"),
    (_edge(members=[2, 2]), "edges: edge {} repeats a vertex"),
    (_edge(members=[1]), "edges: edge {}: distance needs 2 members, got 1"),
    (_edge(kind="tdoa"), "edges: edge {}: tdoa needs 3 members, got 2"),
    (_edge(sigma=-0.5), "edges[{}].sigma: must be a finite non-negative number"),
    (_edge(sigma=float("nan")), "edges[{}].sigma: must be a finite non-negative number"),
    (_edge(sigma=float("inf")), "edges[{}].sigma: must be a finite non-negative number"),
    (_agent(true_state=[float("nan"), 0.0]), "agents[{}].true_state: needs 2 finite numbers"),
    (_agent(true_state=[0.0, 10 ** 400]), "agents[{}].true_state: needs 2 finite numbers"),
    (_agent(reported_state=[True, 0.0]), "agents[{}].reported_state: needs 2 finite numbers"),
    (_agent(reported_state=[-float("inf"), 0]),
     "agents[{}].reported_state: needs 2 finite numbers"),
], ids=["unknown-member", "bool-member", "float-member", "repeated-member", "arity",
        "tdoa-arity", "negative-sigma", "nan-sigma", "inf-sigma", "nan-coordinate",
        "huge-coordinate", "bool-coordinate", "inf-coordinate"])
def test_a_defect_at_two_indices_names_the_lower(defect, message, lower, upper):
    doc = ring_doc()
    defect(doc, upper)
    defect(doc, lower)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(doc)
    assert str(exc.value) == message.format(lower)


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d["edges"][0].update(members=[0, True]), r"edges\[0\]\.members"),
    (lambda d: d["agents"][1].update(id=True), r"agents\[1\]\.id"),
    (lambda d: d["agents"][2].update(id=False), r"agents\[2\]\.id"),
    (lambda d: d.update(seed=True), "seed"),
], ids=["member", "id-true", "id-false", "seed"])
def test_yaml_booleans_are_not_integers(mutate, field):
    # bool subclasses int, so true would otherwise read as 1 and false as 0
    with pytest.raises(ScenarioError, match=field):
        scenario_from_dict(_shipped("triangle_diagnostics", mutate))


def overflowing_triangle():
    # finite states whose squared separations overflow
    return _shipped("triangle_diagnostics", lambda d: d["agents"][0].update(
        true_state=[1.3407807929942597e+154, 0.0]))


def test_overflowing_measurement_raises_scenario_error():
    scn = scenario_from_dict(overflowing_triangle())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes either
        with pytest.raises(ScenarioError, match=r"edges\[0\]: .* not finite"):
            scn.measurements()


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------

def test_cli_run_overflowing_measurement_exits_with_error(tmp_path, capsys):
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(overflowing_triangle()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: edges[0]: ") and "not finite" in err


def test_cli_report_counts_each_outer_iteration(tmp_path, capsys):
    # one report line per outer iteration, and the trace files agree with it
    out = tmp_path / "out"
    scn = load_scenario(SCENARIOS / "circle_single_fault.yaml")
    assert main(["run", "--scenario", str(SCENARIOS / "circle_single_fault.yaml"),
                 "--out", str(out), "--quiet"]) == EXIT_OK
    report = (out / "report.txt").read_text().splitlines()
    loops = [line for line in report if line.startswith("  outer iteration ")]
    traces = sorted(out.glob("trace_outer*.csv"))
    assert len(loops) == len(traces) == 4
    for k, line in enumerate(loops):
        rows = list(csv.DictReader((out / f"trace_outer{k}.csv").open()))
        stops = [row["stop"] for row in rows]
        assert stops[:-1] == [""] * (len(rows) - 1) and stops[-1] in ("converged", "stalled")
        prox = sum(scn.num_agents - int(row["fastpath_count"]) for row in rows)
        assert line == (f"  outer iteration {k}: {len(rows)} rounds, "
                        f"inner stop {stops[-1]}, {prox} prox calls")

def test_report_max_block_error_is_the_largest_block_norm():
    # agent 1's block is off by (3e-3, 4e-3): its norm is 5e-3, its largest
    # entry 4e-3
    scn = scenario_from_dict(base_doc())
    x_true = scn.true_states.data - scn.reported_states.data
    x_star = BlockVec(scn.true_states.structure, x_true + [0.0, 0.0, 3e-3, 4e-3, 0.0, 0.0])
    report = _grade(scn, SolveResult(x_star, frozenset({1}), RunTrace(), False, 1, 0.0, "step"))
    assert report.max_block_error == pytest.approx(5e-3, rel=1e-12)
    assert "max block reconstruction error: 5.000e-03" in report.to_text()


def test_cli_run_writes_report_and_traces(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario",
                 str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(out)])
    assert code == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "identified faulty agents: 2" in report
    assert "precision: 1.000  recall: 1.000" in report
    assert "outer stop: step\n" in report
    traces = sorted(out.glob("trace_outer*.csv"))
    assert traces
    header = traces[0].read_text().splitlines()[0]
    assert header == ("outer_iter,inner_iter,max_c_norm,max_d_norm,"
                      "l21_objective,meas_residual,fastpath_count,stop")


def test_cli_run_out_of_outer_budget_exits_degraded(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(out), "--max-outer", "1", "--quiet"])
    assert code == EXIT_DEGRADED
    report = (out / "report.txt").read_text()
    assert "outer iterations: 1 (degraded convergence)\nouter stop: budget\n" in report


def test_cli_run_reruns_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--scenario",
                     str(SCENARIOS / "mixed_chain_fault.yaml"),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        outs.append(out)
    for f in outs[0].iterdir():
        assert f.read_bytes() == (outs[1] / f.name).read_bytes()


def test_cli_run_names_an_agent_no_edge_involves(tmp_path, capsys):
    # agent 7 is in no edge: nothing checks it, so the report says so rather
    # than count it healthy; reruns stay byte-identical
    doc = base_doc()
    doc["agents"].append({"id": 7, "true_state": [9.0, 9.0]})
    doc["edges"] = [{"kind": "displacement", "members": m} for m in ([0, 1], [1, 2], [2, 0])]
    path = tmp_path / "isolated.yaml"
    path.write_text(yaml.safe_dump(doc))
    reports = []
    for name in ("a", "b"):
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / name),
                     "--quiet"]) == EXIT_OK
        reports.append((tmp_path / name / "report.txt").read_bytes())
    assert reports[0] == reports[1]
    lines = reports[0].decode().splitlines()
    assert lines[2:4] == ["identified faulty agents: 1",
                          "unobserved agents (no edge, not checked): 7"]
    # a network without such agents keeps its report as it was
    assert "unobserved" not in _solve(load_scenario(SCENARIOS / "mixed_chain_fault.yaml"))[1] \
        .to_text()


def test_cli_run_fault_free(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario",
                 str(SCENARIOS / "circle_fault_free.yaml"),
                 "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    assert "identified faulty agents: none" in (out / "report.txt").read_text()


def test_cli_missing_scenario(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.yaml")])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_cli_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("dimension: 9\nagents: []\n")
    code = main(["run", "--scenario", str(path)])
    assert code == EXIT_ERROR
    assert "dimension" in capsys.readouterr().err


def test_cli_diagnose_triangle(capsys):
    code = main(["diagnose", "--scenario",
                 str(SCENARIOS / "triangle_diagnostics.yaml")])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "rank k: 3" in text
    assert "search-space dimension n - k: 3" in text
    assert "regular point (full row rank): True" in text


DIAGNOSE_TEXT = {  # the text before diagnose took its SVD once
    "triangle_diagnostics": ("agents: 3  edges: 3\nn (state dim): 6  m (measurement dim): 3\n"
                             "rank k: 3\nsearch-space dimension n - k: 3\n"
                             "regular point (full row rank): True\n",
                             [1.732051, 1.270978, 1.176697]),
    "circle_single_fault": ("agents: 8  edges: 28\nn (state dim): 16  m (measurement dim): 28\n"
                            "rank k: 13\nsearch-space dimension n - k: 3\n"
                            "regular point (full row rank): False\n",
                            [2.828427, 2.262858, 2.118818, 2.063536, 2.038343, 2.020960,
                             2.006782, 1.993194, 1.978818, 1.960908, 1.934378, 1.873662,
                             1.696902, 0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(DIAGNOSE_TEXT))
def test_cli_diagnose_takes_one_svd(name, capsys, monkeypatch):
    # rank, n - k and regularity all come from the one set of singular values
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["diagnose", "--scenario", str(SCENARIOS / f"{name}.yaml")]) == EXIT_OK
    assert len(calls) == 1
    head, sv = DIAGNOSE_TEXT[name]
    text = capsys.readouterr().out
    assert text.startswith(head)
    # the null singular values are round-off, printed as whatever it left
    last = text[len(head):].splitlines()
    assert len(last) == 1 and last[0].startswith("singular values: ")
    assert np.allclose([float(v) for v in last[0].split()[2:]], sv, rtol=0, atol=1e-6)


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--scenario",
                 str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(out), "--values", "0.5,1.0", "--quiet"])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == ("rho,outer_iters,inner_iters,num_identified,"
                        "reconstruction_error,fastpath_fraction")
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[3] == "1"  # one faulty agent at every rho


def test_cli_sweep_empty_values(tmp_path, capsys):
    code = main(["sweep", "--scenario",
                 str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(tmp_path), "--values", ","])
    assert code == EXIT_ERROR


@pytest.mark.parametrize("values", ["abc", "0", "1.0,-1", "1.0,nan"])
def test_cli_sweep_malformed_values(tmp_path, capsys, values):
    code = main(["sweep", "--scenario", str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(tmp_path / "out"), "--values", values])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: --values:")
    assert not (tmp_path / "out").exists()  # rejected before the first solve


def test_cli_rho_override_round_trips(tmp_path, capsys):
    # the override must reach the solver; a huge rho throttles the fast
    # path threshold yet the answer should still be found
    out = tmp_path / "out"
    code = main(["run", "--scenario",
                 str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(out), "--rho", "2.0", "--quiet"])
    assert code == EXIT_OK
    assert "identified faulty agents: 2" in (out / "report.txt").read_text()


def test_cli_run_non_finite_linearization_exits_with_error(tmp_path, capsys):
    # true states are fine, but the reported one overflows the linearization
    doc = _shipped("triangle_diagnostics", lambda d: d["agents"][0].update(
        reported_state=[1.3407807929942597e+154, 0.0]))
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err and "Traceback" not in err


def test_cli_report_shows_capped_prox_solves(tmp_path, monkeypatch):
    import functools

    import fdirnet.agent
    from fdirnet.prox import solve_secular

    monkeypatch.setattr(fdirnet.agent, "solve_prox", functools.partial(solve_secular, max_iters=0))
    out = tmp_path / "out"
    main(["run", "--scenario", str(SCENARIOS / "mixed_chain_fault.yaml"),
          "--out", str(out), "--quiet"])
    loops = [line for line in (out / "report.txt").read_text().splitlines()
             if line.startswith("  outer iteration ")]
    assert loops and all(line.endswith(" capped)") for line in loops)


def test_cli_run_huge_rho_exits_with_error(tmp_path, capsys):
    # at rho = 1e160 the first prox solve overflows
    code = main(["run", "--scenario", str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(tmp_path / "out"), "--rho", "1e160"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: at outer iteration 0: agent ") and "rho = 1e+160" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--rho", "-1e5"], ["--rho", "-inf"], ["--bogus"]],
                         ids=["negative-exponent-rho", "negative-inf-rho", "unknown-flag"])
def test_cli_usage_error_exits_with_error(tmp_path, capsys, argv):
    # argparse reads "-1e5" passed as its own token as a flag, not as --rho's
    # value; a usage error is an error (1), not degraded convergence (2), and
    # main returns it instead of raising SystemExit
    code = main(["run", "--scenario", str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(tmp_path / "out"), *argv])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


# valid values as often as not, so that most draws reach a solve
FUZZ_NUMBERS = st.one_of(st.floats(1e-300, 1e308), st.floats(),
                         st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e308]))


@settings(deadline=None, max_examples=100)
@given(scenario=st.sampled_from(["triangle_diagnostics", "mixed_chain_fault"]),
       command=st.sampled_from(["run", "sweep", "diagnose"]), rho=FUZZ_NUMBERS,
       seed=st.one_of(st.integers(0, 2 ** 32), st.integers()),
       max_outer=st.one_of(st.integers(1, 3), st.integers(max_value=3)),
       values=st.lists(FUZZ_NUMBERS, max_size=3))
@example(scenario="mixed_chain_fault", command="run", rho=1e160, seed=0, max_outer=3, values=[])
def test_cli_fuzz_ends_in_an_exit_code(scenario, command, rho, seed, max_outer, values):
    # "--flag=value", as argparse takes "-inf" or "-1e+160" after a space for a flag
    argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.yaml"), "--quiet",
            f"--rho={rho!r}", f"--seed={seed}", f"--max-outer={max_outer}"]
    if command == "sweep":
        argv.append("--values=" + ",".join(map(repr, values)))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main(argv + ["--out", out])
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_DEGRADED)
    if code == EXIT_ERROR:
        assert err.getvalue().startswith("error: ")
