"""Command-line front end.

    fdirnet run      --scenario s.yaml --out results/
    fdirnet diagnose --scenario s.yaml
    fdirnet sweep    --scenario s.yaml --out results/ --values 0.5,1,2

Exit codes: 0 success, 1 error (a malformed command line too), 2 degraded
convergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .blocklin import BlockVec, support
from .exceptions import FdirError
from .measurements import jacobian_stack, rank_of, singular_values
from .scenario import FaultReport, Scenario, ScenarioError, load_scenario
from .solver import SolveResult, default_fault_tol, outer_scp

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2


def _override(params, flag: str, **change):
    """A copy of solver parameters with one change, checked by their class."""
    try:
        return replace(params, **change)
    except ValueError as exc:
        raise ScenarioError(f"{flag}: {exc}") from None


def _apply_overrides(scn: Scenario, args) -> Scenario:
    if args.seed is not None:
        if args.seed < 0:
            raise ScenarioError(f"--seed: must be a non-negative integer, got {args.seed}")
        scn.seed = args.seed
    if args.rho is not None:
        scn.inner_params = _override(scn.inner_params, "--rho", rho=args.rho)
    if args.max_outer is not None:
        scn.outer_params = _override(scn.outer_params, "--max-outer",
                                     max_scp_iters=args.max_outer)
    return scn


def _grade(scn: Scenario, result: SolveResult) -> FaultReport:
    x_true = BlockVec(scn.true_states.structure,
                      scn.true_states.data - scn.reported_states.data)
    fault_tol = scn.outer_params.fault_tol
    if fault_tol is None:
        fault_tol = default_fault_tol(scn.reported_states)
    true_faults = frozenset(scn.agent_ids[i] for i in support(x_true, fault_tol))
    identified = frozenset(scn.agent_ids[i] for i in result.faults)
    unseen = np.bincount(scn.stack.graph.members, minlength=scn.num_agents) == 0

    tp = len(identified & true_faults)
    precision = tp / len(identified) if identified else 1.0
    recall = tp / len(true_faults) if true_faults else 1.0
    error = BlockVec(x_true.structure, result.x_star.data - x_true.data)
    max_err = float(np.max(error.block_norms(), initial=0.0))

    return FaultReport(
        identified=identified,
        block_norms=dict(zip(scn.agent_ids, result.x_star.block_norms().tolist())),
        error_blocks=dict(zip(scn.agent_ids, result.x_star.data.reshape(-1, scn.d).tolist())),
        meas_residual=result.meas_residual,
        outer_iters=result.outer_iters,
        outer_stop=result.outer_stop,
        degraded=result.degraded,
        precision=precision,
        recall=recall,
        max_block_error=max_err,
        true_faults=true_faults,
        # every x-update that missed the fast path made one prox call
        inner_loops=tuple((o.inner_iters, o.inner_stop,
                           scn.num_agents * o.inner_iters - int(rows.fastpath_count.sum()),
                           o.prox_capped)
                          for o, rows in zip(result.trace.outer, result.trace.inner)),
        unobserved=frozenset(scn.agent_ids[i] for i in np.flatnonzero(unseen)),
    )


def _solve(scn: Scenario) -> tuple[SolveResult, FaultReport]:
    y = scn.measurements()
    result = outer_scp(scn.stack, scn.reported_states, y,
                       scn.inner_params, scn.outer_params)
    return result, _grade(scn, result)


def cmd_run(scn: Scenario, out_dir: Path, quiet: bool) -> int:
    result, report = _solve(scn)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(report.to_text())
    for k in range(result.outer_iters):
        result.trace.dump_inner_csv(out_dir / f"trace_outer{k}.csv", k)
    if not quiet:
        print(report.to_text(), end="")
        print(f"wrote {out_dir}/report.txt and {result.outer_iters} trace files")
    return EXIT_DEGRADED if result.degraded else EXIT_OK


def cmd_diagnose(scn: Scenario, quiet: bool) -> int:
    R = jacobian_stack(scn.stack, scn.reported_states)
    n = R.col_structure.total
    m = R.row_structure.total
    sv = singular_values(R)  # the one SVD: rank, n - k and regularity follow
    k = rank_of(sv)
    print(f"agents: {scn.num_agents}  edges: {scn.stack.graph.num_edges}")
    print(f"n (state dim): {n}  m (measurement dim): {m}")
    print(f"rank k: {k}")
    print(f"search-space dimension n - k: {n - k}")
    print(f"regular point (full row rank): {k == m}")
    if not quiet:
        print("singular values:", " ".join(f"{s:.6e}" for s in sv))
    return EXIT_OK


def cmd_sweep(scn: Scenario, out_dir: Path, values: list[float],
              quiet: bool) -> int:
    # every value is checked before the first solve
    sweep = [_override(scn.inner_params, "--values", rho=rho) for rho in values]
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    degraded_any = False
    for params in sweep:
        scn.inner_params = params
        result, report = _solve(scn)
        degraded_any = degraded_any or result.degraded
        inner_iters = sum(len(r) for r in result.trace.inner)
        total_updates = inner_iters * scn.num_agents
        fast = sum(int(r.fastpath_count.sum()) for r in result.trace.inner)
        rows.append({
            "rho": params.rho,
            "outer_iters": result.outer_iters,
            "inner_iters": inner_iters,
            "num_identified": len(result.faults),
            "reconstruction_error": report.max_block_error,
            "fastpath_fraction": fast / total_updates if total_updates else 0.0,
        })
    path = out_dir / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    if not quiet:
        for r in rows:
            print(r)
        print(f"wrote {path}")
    return EXIT_DEGRADED if degraded_any else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit with status 2, EXIT_DEGRADED
        raise argparse.ArgumentError(None, message)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fdirnet",
        description="Distributed fault identification and error "
                    "reconstruction over a sensor network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "diagnose", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--rho", type=float, help="override the ADMM penalty")
        p.add_argument("--max-outer", type=int, help="override the outer iteration cap")
        p.add_argument("--quiet", action="store_true")
        if name == "sweep":
            p.add_argument("--values", default="0.5,1.0,2.0",
                           help="comma-separated rho values")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        scn = _apply_overrides(load_scenario(args.scenario), args)
        if args.command == "run":
            return cmd_run(scn, Path(args.out), args.quiet)
        if args.command == "diagnose":
            return cmd_diagnose(scn, args.quiet)
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ScenarioError(f"--values: not a list of numbers: {args.values}") from None
        if not values:
            raise ScenarioError("--values: needs at least one number")
        return cmd_sweep(scn, Path(args.out), values, args.quiet)
    except (argparse.ArgumentError, ScenarioError, FdirError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
