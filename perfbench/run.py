"""fdirnet benchmark: seeded workloads, checked solves, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload knn-fault --seed 1 --seconds 55 --trace 0

Run from the repository root. Each operation is one ``outer_scp`` solve of
an instance from the workload's panel, checked against the planted faults.
``--trace 0`` sets up and solves the whole panel once, and again for as
long as another whole pass fits the window, and reports the end-to-end
metrics; ``--trace 1``
alternates untraced and traced solves of the first instance and reports the
per-layer metrics, with the tracing overhead. ``--smoke`` shrinks every
workload to one quick solve, for the benchmark's own tests. The last line
of standard output is one JSON object; a fuller record goes to
``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy loads: one process, one BLAS/OpenMP
# thread, and the solver's own thread pool off, so that a 2-core machine
# measures the program and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FDIRNET_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def _import_program():
    """Make the checkout's ``src/`` importable; exit non-zero without a
    result line when the program is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fdirnet
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import fdirnet from {src}: {exc}\n")
        sys.exit(2)
    if not Path(fdirnet.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"error: fdirnet imported from {fdirnet.__file__}, not {src}\n")
        sys.exit(2)


_import_program()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from fdirnet import netsim, scenario_from_dict, solver  # noqa: E402

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BLOCK_ERROR_BOUND = 1e-2  # acceptance criterion 5's bound on max block error
# share of a traced solve that the named layers' self times must cover; the
# rest is time spent in outer_scp's own body, outside every wrapped call
MIN_LAYER_COVERAGE = 0.98
# every pass sets each instance up at least once and for at least
# SETUP_MIN_S seconds, so that quick set-ups are timed many times
SETUP_MIN_S = 0.01
SMOKE_SOLVER = {"tol_primal": 1e-3, "tol_dual": 1e-3, "tol_step": 1e-2, "max_inner_iters": 60}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # agents
    smoke_n: int
    strict: bool  # wrong fault set or large block error counts as a failure
    panel: int  # distinct instances per run, each solved once per pass
    seeded: bool  # False: the same panel in every run, whatever --seed says

    def generate(self, seed: int, k: int, smoke: bool):
        """Instance k of the run seeded ``seed``: (scenario dict, planted faults)."""
        rng = np.random.default_rng([seed, k] if self.seeded else [k])
        n = self.smoke_n if smoke else self.n
        if self.name == "knn-fault":
            doc, planted = workloads.knn_fault(rng, n)
        else:
            doc, planted = workloads.knn_healthcheck(rng, n)
        if smoke:  # loose tolerances and a small round budget keep smoke solves short
            doc["solver"] = {**doc.get("solver", {}), **SMOKE_SOLVER}
        return doc, planted


WORKLOADS = {w.name: w for w in (
    # knn-fault solves one fixed input: its cost swings with the draw
    # (3.6-8.6 s and 3-5 outer iterations per instance), and each step's
    # fastest time needs as many repeats of the same solve as a run holds.
    # knn-healthcheck keeps n small enough that its steps are short too.
    Workload("knn-fault", n=12, smoke_n=9, strict=True, panel=1, seeded=False),
    Workload("knn-healthcheck", n=250, smoke_n=30, strict=True, panel=4, seeded=True),
)}

# Metric names, units and order, as BENCHMARK.json declares them; per-layer
# times are per traced solve.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MOVES = {
    "scenario.*": "setup_s, mostly on knn-healthcheck",
    "measurements.*, topology.*, solver.build_network_self_s, solver.relinearize_self_s, "
    "solver.identify_s":
        "solve_s on knn-healthcheck; no change on knn-fault (<0.1% of the solve)",
    "agent.*": "round_ms on knn-fault, solve_s on knn-healthcheck",
    "prox.*": "round_ms and solve_s on knn-fault; no change on knn-healthcheck (zero calls)",
    "netsim.*": "round_ms on knn-fault and knn-healthcheck; "
                "msgs_per_agent_round_max must not grow with n",
    "solver.inner_admm_self_s, solver.loops_*, solver.rounds_in_stalled_loops":
        "inner_rounds and solve_s on knn-fault; no change on knn-healthcheck",
    "max_block_error": "precision and recall",
}


@dataclass
class Solve:
    instance: int
    seconds: float
    ok: bool
    error: str = ""
    rounds: int = 0
    outer_iters: int = 0
    precision: float = 1.0
    recall: float = 1.0
    max_block_error: float = 0.0
    result: object = None
    steps: tuple = ()  # wall time from each stamp to the next, summing to seconds


def setup(doc):
    """The timed set-up: validate the scenario and synthesize measurements."""
    t0 = perf_counter()
    scn = scenario_from_dict(doc)
    t1 = perf_counter()
    y = scn.measurements()
    t2 = perf_counter()
    return scn, y, t1 - t0, t2 - t1


@contextlib.contextmanager
def phase_stamps(stamps: list[float]):
    """Append the time to ``stamps`` as each ``Network.run_phase`` call
    starts: one clock read per ADMM phase, a few per millisecond of work."""
    original = netsim.Network.run_phase

    def stamped(*args, **kwargs):
        stamps.append(perf_counter())
        return original(*args, **kwargs)

    netsim.Network.run_phase = stamped
    try:
        yield
    finally:
        netsim.Network.run_phase = original


def solve(scn, y, planted: frozenset, strict: bool, k: int, call=None,
          stamps: list[float] | None = None) -> Solve:
    """One checked solve; exceptions and degraded results are failures.

    ``stamps``, filled by ``phase_stamps`` while the solve runs, splits its
    wall time into steps.
    """
    call = call or solver.outer_scp
    stamps = [] if stamps is None else stamps
    gc.collect()  # every solve starts from the same collector state
    stamps.clear()
    t0 = perf_counter()
    try:
        res = call(scn.stack, scn.reported_states, y, scn.inner_params, scn.outer_params)
    except Exception as exc:  # any exception fails this solve, not the run
        return Solve(k, perf_counter() - t0, ok=False,
                     error="".join(traceback.format_exception(exc)))
    t1 = perf_counter()
    dt = t1 - t0
    steps = tuple(np.diff([t0, *stamps, t1]))
    x_true = scn.true_states.data - scn.reported_states.data
    diff = (res.x_star.data - x_true).reshape(scn.num_agents, scn.d)
    err = float(np.max(np.linalg.norm(diff, axis=1)))
    tp = len(res.faults & planted)
    s = Solve(k, dt, ok=True, rounds=sum(o.inner_iters for o in res.trace.outer),
              outer_iters=res.outer_iters,
              precision=tp / len(res.faults) if res.faults else 1.0,
              recall=tp / len(planted) if planted else 1.0,
              max_block_error=err, result=res, steps=steps)
    if res.degraded:
        s.ok, s.error = False, "degraded: outer budget exhausted"
    elif strict and res.faults != planted:
        s.ok, s.error = False, f"identified {sorted(res.faults)}, planted {sorted(planted)}"
    elif strict and err > BLOCK_ERROR_BOUND:
        s.ok, s.error = False, f"max block error {err:.3e} > {BLOCK_ERROR_BOUND}"
    return s


def fastest_steps(repeats: list[Solve]) -> float:
    """Time of one solve, taking each step at its fastest over repeated
    solves of the same input.

    The solver is single-threaded and deterministic, so every repeat runs
    the same steps; what differs is how much of the shared host's time
    other guests took from each. A step runs from one ADMM phase to the
    next, a few to a few tens of milliseconds, so each step has some repeat
    that ran undisturbed. If the repeats did not take the same steps, the
    fastest whole solve stands in.
    """
    if len({len(s.steps) for s in repeats}) != 1:
        return min(s.seconds for s in repeats)
    return float(np.min([s.steps for s in repeats], axis=0).sum())


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it. With ten or fewer samples no percentile has, and the
    slowest sample (percentile 100) stands in."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    idx = len(xs) - 11
    return xs[idx], 100.0 * idx / (len(xs) - 1)


def loop_stats(res, max_inner: int) -> dict[str, float]:
    """Why each inner loop stopped, read from the returned OuterIterRows."""
    conv = [o for o in res.trace.outer if o.inner_converged]
    budget = [o for o in res.trace.outer
              if not o.inner_converged and o.inner_iters >= max_inner]
    stalled = [o for o in res.trace.outer
               if not o.inner_converged and o.inner_iters < max_inner]
    return {"solver.loops_converged": len(conv), "solver.loops_stalled": len(stalled),
            "solver.loops_budget": len(budget),
            "solver.rounds_in_stalled_loops": sum(o.inner_iters for o in stalled)}


def fastpath(res, n_agents: int) -> tuple[int, int]:
    """(x-updates, fast-path x-updates), read from the RunTrace rows."""
    rows = [row for loop in res.trace.inner for row in loop]
    return len(rows) * n_agents, sum(row.fastpath_count for row in rows)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "system": f"{platform.system()} {platform.release()} {platform.machine()}",
            "commit": commit,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "fdirnet_threads": os.environ.get("FDIRNET_THREADS", "unset")}


class Run:
    """One benchmark invocation: instances, set-up samples and solves."""

    def __init__(self, wl: Workload, seed: int, seconds: float, smoke: bool):
        self.wl, self.seed, self.seconds, self.smoke = wl, seed, seconds, smoke
        self.panel = 1 if smoke else wl.panel
        self.t_start = perf_counter()
        self.docs = [wl.generate(seed, k, smoke) for k in range(self.panel)]
        self.load_s: list[float] = []
        self.measure_s: list[float] = []
        self.setup_s: list[list[float]] = [[] for _ in range(self.panel)]

    def set_up(self, k: int):
        """(scenario, measurements, planted faults) of panel instance k, set
        up once and again until SETUP_MIN_S has passed; every set-up is timed."""
        doc, planted = self.docs[k]
        t_end = perf_counter() + SETUP_MIN_S
        while True:
            scn, y, t_load, t_meas = setup(doc)
            self.load_s.append(t_load)
            self.measure_s.append(t_meas)
            self.setup_s[k].append(t_load + t_meas)
            if perf_counter() >= t_end:
                return scn, y, planted

    def has_time_for(self, cost: float) -> bool:
        """True while another operation of the given cost fits the window."""
        return perf_counter() - self.t_start + cost <= self.seconds


def run_untraced(run: Run) -> tuple[list[Solve], dict]:
    """Whole passes over the panel, each setting up and solving every
    instance: the first pass always, each further one only when a pass as
    slow as the slowest so far still fits the window. Every run thus solves
    the same instances, whatever the program's speed."""
    passes: list[list[Solve]] = []
    pass_s: list[float] = []
    stamps: list[float] = []
    with phase_stamps(stamps):
        while not passes or (not run.smoke and run.has_time_for(max(pass_s))):
            t0 = perf_counter()
            passes.append([solve(*run.set_up(k), run.wl.strict, k, stamps=stamps)
                           for k in range(run.panel)])
            pass_s.append(perf_counter() - t0)
    solves = [s for p in passes for s in p]
    # counts come from the first pass; later passes repeat the same inputs
    done = [s for s in passes[0] if s.result is not None]
    # Times are taken per instance, each step and each set-up at its fastest
    # over the passes (see fastest_steps), and the statistics over instances:
    # pooling repeats would let the number of passes that fit, so the
    # program's speed, pick the tail's percentile.
    per_instance = [fastest_steps([p[k] for p in passes]) for k in range(run.panel)]
    tail_v, tail_pct = tail(per_instance)

    def mean(attr):
        return statistics.fmean(getattr(s, attr) for s in done) if done else 0.0

    metrics = {
        "setup_s": statistics.median(min(ts) for ts in run.setup_s),
        "solve_s": statistics.median(per_instance),
        "solve_s_tail": tail_v,
        "round_ms": statistics.median(1e3 * per_instance[s.instance] / s.rounds
                                      for s in done) if done else 0.0,
        "inner_rounds": mean("rounds"),
        "outer_iters": mean("outer_iters"),
        "precision": mean("precision"),
        "recall": mean("recall"),
        "ok_frac": sum(s.ok for s in solves) / len(solves),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"solve_s_tail_percentile": tail_pct, "solve_s_tail_samples": len(per_instance),
             "passes": len(passes), "solve_samples": len(solves),
             "setup_samples": sum(len(ts) for ts in run.setup_s),
             "fastest_whole_solve_s": [min(p[k].seconds for p in passes)
                                       for k in range(run.panel)]}
    return solves, {"metrics": metrics, "extra": extra}


# per-layer metric -> span names whose self times it reports
SELF_TIMES = {
    "measurements.jacobian_s": ("measurements.jacobian_stack",),
    "measurements.eval_s": ("measurements.eval_stack",),
    "topology.build_tables_s": ("topology.build_tables",),
    "solver.build_network_self_s": ("solver.build_network",),
    "solver.relinearize_self_s": ("solver.relinearize",),
    "solver.inner_admm_self_s": ("solver.inner_admm",),
    "solver.identify_s": ("solver.block_sparsity", "solver.default_fault_tol",
                          "solver.identify_faults"),
    "solver.outer_scp_self_s": (tracing.ROOT,),
    "agent.x_update_self_s": ("agent.primal_update_x",),
    "agent.w_update_s": ("agent.primal_update_w",),
    "agent.dual_update_s": ("agent.dual_update",),
    "agent.violation_s": ("agent.violation_norms",),
    "prox.solve_s": ("prox.solve_prox",),
}


def run_traced(run: Run) -> tuple[list[Solve], dict]:
    """Untraced and traced solves of the first panel instance, alternating.

    Tracing one fixed instance keeps the per-layer figures comparable when a
    faster program fits more solves in the window.
    """
    tracer = tracing.Tracer()
    plain: list[Solve] = []
    traced: list[Solve] = []
    rows: list[dict] = []
    scn, y, planted = run.set_up(0)
    while not traced or (not run.smoke and run.has_time_for(
            max(a.seconds + b.seconds for a, b in zip(plain, traced)))):
        plain.append(solve(scn, y, planted, run.wl.strict, 0))
        tracer.start_solve()
        with tracer.installed():
            s = solve(scn, y, planted, run.wl.strict, 0,
                      call=tracer.wrap(tracing.ROOT, solver.outer_scp))
        traced.append(s)
        self_t, incl = tracer.times(tracer.solve_id)
        row = {key: sum(self_t.get(span, 0.0) for span in spans)
               for key, spans in SELF_TIMES.items()}
        row.update({f"{span}_s": incl.get(span, 0.0) for span in tracing.PHASE_SPANS.values()})
        row["netsim.comm_self_s"] = sum(self_t.get(span, 0.0)
                                        for span in tracing.PHASE_SPANS.values())
        # the root's self time is what no named layer covers
        row["trace.layer_coverage"] = (sum(self_t.values()) - self_t[tracing.ROOT]) / s.seconds
        row.update(tracer.counts())
        if s.result is not None:
            row.update(loop_stats(s.result, scn.inner_params.max_inner_iters))
            row["agent.x_updates"], fast = fastpath(s.result, scn.num_agents)
            row["agent.fastpath_frac"] = fast / row["agent.x_updates"]
        rows.append(row)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{run.wl.name}-s{run.seed}.csv"
    tracer.dump(spans_path)

    metrics = {m["name"]: statistics.median(r.get(m["name"], 0.0) for r in rows)
               for m in SPEC["per_layer"]}
    metrics["scenario.load_s"] = statistics.median(run.load_s)
    metrics["scenario.measure_s"] = statistics.median(run.measure_s)
    metrics["trace_overhead"] = (statistics.median(s.seconds for s in traced)
                                 / statistics.median(s.seconds for s in plain))
    metrics["max_block_error"] = max(
        (s.max_block_error for s in plain + traced if s.result is not None), default=0.0)
    extra = {"spans_file": str(spans_path.relative_to(ROOT)),
             "traced_solves": len(traced), "untraced_solves": len(plain)}
    return plain + traced, {"metrics": metrics, "extra": extra}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, one solve: exercises the bench quickly")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.smoke)
    solves, report = (run_traced if args.trace else run_untraced)(run)
    failed = [s for s in solves if not s.ok]
    sanity_ok = True
    if args.trace:
        coverage = report["metrics"]["trace.layer_coverage"]
        sanity_ok = bool(coverage >= MIN_LAYER_COVERAGE)
        if not sanity_ok:
            print(f"trace check: the named layers cover {coverage:.4f} of the solve time, "
                  f"below {MIN_LAYER_COVERAGE}")

    for s in failed:
        print(f"FAILED instance {s.instance}: {s.error}")
    for name, value in report["metrics"].items():
        print(f"{args.workload:16s} {name:36s} {value:14.6g} {UNITS[name]}")
    for key, moves in (LAYER_MOVES.items() if args.trace else ()):
        print(f"moves: {key} -> {moves}")

    result = {
        "correct": not failed and sanity_ok,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {name: {"value": float(v), "unit": UNITS[name]}
                    for name, v in report["metrics"].items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "wall_s": perf_counter() - run.t_start, **report["extra"],
              "solves": [{"instance": s.instance, "seconds": s.seconds, "rounds": s.rounds,
                          "outer_iters": s.outer_iters, "ok": s.ok, "error": s.error}
                         for s in solves],
              "layer_moves": LAYER_MOVES if args.trace else {},
              "parameters": {
                  "n": run.wl.smoke_n if args.smoke else run.wl.n,
                  "knn_k": workloads.KNN_K, "grid_spacing": workloads.GRID_SPACING,
                  "grid_jitter": workloads.GRID_JITTER,
                  "fault_norm": workloads.FAULT_NORM,
                  "block_error_bound": BLOCK_ERROR_BOUND},
              "environment": environment()}
    out = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
