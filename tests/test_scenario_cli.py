from pathlib import Path

import numpy as np
import pytest
import yaml

from fdirnet.cli import EXIT_DEGRADED, EXIT_ERROR, EXIT_OK, main
from fdirnet.measurements import MeasurementKind
from fdirnet.scenario import ScenarioError, load_scenario, scenario_from_dict

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
    assert scn.sigmas == (0.0, 0.1)
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


def test_round_trip_save_load(tmp_path):
    scn = scenario_from_dict(base_doc())
    path = tmp_path / "s.yaml"
    scn.save(path)
    back = load_scenario(path)
    assert np.array_equal(back.true_states.data, scn.true_states.data)
    assert np.array_equal(back.reported_states.data, scn.reported_states.data)
    assert back.stack.graph.edges == scn.stack.graph.edges
    assert back.sigmas == scn.sigmas


def test_unparseable_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("{[")
    with pytest.raises(ScenarioError):
        load_scenario(path)


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------

def test_cli_run_writes_report_and_traces(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario",
                 str(SCENARIOS / "mixed_chain_fault.yaml"),
                 "--out", str(out)])
    assert code == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "identified faulty agents: 2" in report
    assert "precision: 1.000  recall: 1.000" in report
    traces = sorted(out.glob("trace_outer*.csv"))
    assert traces
    header = traces[0].read_text().splitlines()[0]
    assert header == ("outer_iter,inner_iter,max_c_norm,max_d_norm,"
                      "l21_objective,meas_residual,fastpath_count")


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
