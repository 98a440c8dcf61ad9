"""Smoke tests of the benchmark itself: generators, checks and trace
accounting, on tiny instances.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
import workloads  # noqa: E402
from fdirnet import scenario_from_dict  # noqa: E402
from fdirnet.topology import validate_connectivity  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_reports_every_metric(name, trace):
    res = result_of(bench("--workload", name, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and res["failed"] == 0 and res["correct"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    assert all(np.isfinite(m["value"]) for m in res["metrics"].values())
    if trace:
        assert res["metrics"]["trace.layer_coverage"]["value"] >= 0.98
        if name == "knn-healthcheck":
            assert res["metrics"]["prox.calls"]["value"] == 0


def test_generators_are_seeded_and_connected():
    for gen in (lambda rng: workloads.knn_fault(rng, 12),
                lambda rng: workloads.knn_healthcheck(rng, 40)):
        doc_a, faults_a = gen(np.random.default_rng([5, 0]))
        doc_b, faults_b = gen(np.random.default_rng([5, 0]))
        doc_c, _ = gen(np.random.default_rng([6, 0]))
        assert doc_a == doc_b and faults_a == faults_b and doc_a != doc_c
        scn = scenario_from_dict(doc_a)
        assert validate_connectivity(scn.stack.graph)[0]
        scn.measurements()  # every edge is inside its measurement domain


def test_fastest_steps_takes_each_step_at_its_fastest():
    a = run.Solve(0, 6.0, ok=True, steps=(1.0, 5.0))
    b = run.Solve(0, 5.0, ok=True, steps=(3.0, 2.0))
    assert run.fastest_steps([a, b]) == 3.0
    c = run.Solve(0, 4.5, ok=True, steps=(4.5,))  # other steps: whole solves count
    assert run.fastest_steps([a, b, c]) == 4.5


def test_healthcheck_uses_all_five_kinds():
    doc, faults = workloads.knn_healthcheck(np.random.default_rng(0), 40)
    assert not faults
    assert {e["kind"] for e in doc["edges"]} == {
        "distance", "bearing", "displacement", "tdoa", "subtended_angle"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
