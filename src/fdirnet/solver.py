"""Orchestration of the error-reconstruction solve.

The inner loop is consensus ADMM over the simulated network on the
linearized constraints; the outer loop relinearizes the measurement map
at the accumulated estimate (sequential convex programming), absorbs the
inner solution into x*, and stops on step size or measurement residual.
Faulty agents are the blocks of x* with non-negligible norm.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .agent import AgentState
from .blocklin import BlockMat, BlockVec, block_sparsity, support
from .exceptions import DomainViolation
from .measurements import MeasurementStack, eval_stack, jacobian_stack
from .netsim import Network
from .topology import build_tables


@dataclass
class InnerParams:
    rho: float = 1.0
    max_inner_iters: int = 2000
    tol_primal: float = 1e-6  # max constraint-violation norm
    tol_dual: float = 1e-6  # max change in xbar between iterations
    prox_tol: float = 1e-9

    def __post_init__(self):
        if self.rho <= 0 or self.tol_primal <= 0 or self.tol_dual <= 0:
            raise ValueError("rho and tolerances must be positive")


@dataclass
class OuterParams:
    max_scp_iters: int = 20
    tol_step: float = 1e-5  # on ||xbar|| across agents
    tol_meas: float = 1e-6  # on ||y - Phi(p_hat + x*)||
    fault_tol: float | None = None  # None: 1e-3 * median block norm of p_hat

    def __post_init__(self):
        if self.tol_step <= 0 or self.tol_meas <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class InnerIterRow:
    max_c_norm: float
    max_d_norm: float
    l21_objective: float
    fastpath_count: int


@dataclass
class OuterIterRow:
    meas_residual: float
    x_star_sparsity: int
    inner_iters: int
    inner_converged: bool
    inner_stop: str  # "converged", "stalled" or "budget"


@dataclass
class RunTrace:
    inner: list[list[InnerIterRow]] = field(default_factory=list)
    outer: list[OuterIterRow] = field(default_factory=list)

    def dump_inner_csv(self, path, outer_iter: int) -> None:
        rows = self.inner[outer_iter]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outer_iter", "inner_iter", "max_c_norm",
                             "max_d_norm", "l21_objective", "meas_residual",
                             "fastpath_count"])
            meas = self.outer[outer_iter].meas_residual if outer_iter < len(self.outer) else ""
            for t, row in enumerate(rows):
                writer.writerow([outer_iter, t, row.max_c_norm, row.max_d_norm,
                                 row.l21_objective, meas, row.fastpath_count])


def _local_linearization(stack: MeasurementStack, R: BlockMat, resid: np.ndarray,
                         i: int, neighbors: tuple[int, ...],
                         incident: tuple[int, ...]):
    """Agent i's packed rows of the linearization: (row offsets, J, r), in
    the layout of the agent module (edges ascending, columns [self | neighbors])."""
    d = stack.d
    col = {j: d * (s + 1) for s, j in enumerate(neighbors)}
    col[i] = 0
    offsets = R.row_structure.offsets
    rows = [0]
    for l in incident:
        rows.append(rows[-1] + offsets[l + 1] - offsets[l])
    J = np.zeros((rows[-1], d * (len(neighbors) + 1)))
    for e, l in enumerate(incident):
        for j in stack.graph.edges[l]:
            J[rows[e]:rows[e + 1], col[j]:col[j] + d] = R.get_block(l, j)
    r = resid[[q for l in incident for q in range(offsets[l], offsets[l + 1])]]
    return tuple(rows), J, r


def build_network(stack: MeasurementStack, p_point: BlockVec, y: BlockVec,
                  x_star: BlockVec, rho: float,
                  record_trace: bool = False) -> Network:
    """Agents with the linearization (J, r) taken at p_point."""
    tables = build_tables(stack.graph)
    R = jacobian_stack(stack, p_point)
    resid = y.data - eval_stack(stack, p_point).data
    agents: dict[int, AgentState] = {}
    for i in range(stack.graph.num_vertices):
        nbrs = tuple(sorted(tables.neighbors[i]))
        rows, J, r = _local_linearization(stack, R, resid, i, nbrs,
                                          tables.incident[i])
        agents[i] = AgentState(i=i, rho=rho, x_star=x_star.block(i),
                               neighbors=nbrs, incident=tables.incident[i],
                               rows=rows, J=J, r=r)
    return Network(agents, tables, record_trace=record_trace)


def relinearize(network: Network, stack: MeasurementStack, p_point: BlockVec,
                y: BlockVec, x_star: BlockVec) -> None:
    """Refresh (J, r) and x* in place, keeping duals and copies warm.

    Copies approximate xhat blocks; since the absorbed xbar resets xhat to
    zero, every copy is shifted by the absorbed amount to stay consistent.
    """
    R = jacobian_stack(stack, p_point)
    resid = y.data - eval_stack(stack, p_point).data
    for i, a in network.agents.items():
        _, a.J, a.r = _local_linearization(stack, R, resid, i, a.neighbors,
                                           a.incident)
        a.w -= a.nbr_xbar
        a.nbr_copy_of_me -= a.x_bar
        a.x_star = x_star.block(i).copy()
        a.x_bar[:] = 0.0


STALL_WINDOW = 200
STALL_FACTOR = 0.9


def inner_admm(network: Network, params: InnerParams):
    """Run ADMM rounds until primal/dual tolerances or the budget.

    On an infeasible linearized system (linearization error off the range
    of R) the violations plateau at the infeasibility level; the loop then
    bails out early with converged=False instead of burning the budget,
    since the outer loop will relinearize anyway.

    Returns (xbar: BlockVec, rows: list[InnerIterRow], converged: bool,
    stop), where stop says why the loop ended: "converged", "stalled" or
    "budget".
    """
    agents = network.agents
    ids = sorted(agents)
    rows: list[InnerIterRow] = []
    prev_xbar = {i: agents[i].x_bar.copy() for i in ids}
    stop = "budget"
    best_progress: list[float] = []

    for _ in range(params.max_inner_iters):
        network.run_iteration(prox_tol=params.prox_tol)

        max_c = max_d = 0.0
        obj = 0.0
        fast = 0
        for i in ids:
            a = agents[i]
            ci, di = a.violation_norms()
            max_c = max(max_c, ci)
            max_d = max(max_d, di)
            obj += float(np.linalg.norm(a.x_star + a.x_bar))
            fast += int(a.fast_path)
        rows.append(InnerIterRow(max_c, max_d, obj, fast))

        dx = max(float(np.linalg.norm(agents[i].x_bar - prev_xbar[i])) for i in ids)
        prev_xbar = {i: agents[i].x_bar.copy() for i in ids}
        if max_c <= params.tol_primal and max_d <= params.tol_primal \
                and dx <= params.tol_dual:
            stop = "converged"
            break
        progress = max(max_c, max_d, dx)
        best_progress.append(min(progress, best_progress[-1])
                             if best_progress else progress)
        if len(best_progress) > STALL_WINDOW and \
                best_progress[-1] > STALL_FACTOR * best_progress[-1 - STALL_WINDOW]:
            stop = "stalled"
            break

    xbar = BlockVec.from_blocks([agents[i].x_bar for i in ids])
    return xbar, rows, stop == "converged", stop


def identify_faults(x_star: BlockVec, fault_tol: float) -> frozenset:
    if fault_tol <= 0:
        raise ValueError("fault_tol must be positive")
    return support(x_star, fault_tol)


def default_fault_tol(p_hat: BlockVec) -> float:
    return max(1e-3 * float(np.median(p_hat.block_norms())), 1e-3)


@dataclass
class SolveResult:
    x_star: BlockVec
    faults: frozenset
    trace: RunTrace
    degraded: bool
    outer_iters: int
    meas_residual: float


def outer_scp(stack: MeasurementStack, p_hat: BlockVec, y: BlockVec,
              inner_params: InnerParams | None = None,
              outer_params: OuterParams | None = None,
              record_trace: bool = False) -> SolveResult:
    """Full SCP+ADMM solve from the reported states and measurements.

    The solver only ever sees (p_hat, y, topology); true states exist only
    in scenario files for evaluation.
    """
    inner_params = inner_params or InnerParams()
    outer_params = outer_params or OuterParams()
    trace = RunTrace()

    x_star = BlockVec(p_hat.structure)
    network = None
    degraded = False
    meas_res = np.inf

    for outer_it in range(outer_params.max_scp_iters):
        p_point = BlockVec(p_hat.structure, p_hat.data + x_star.data)
        try:
            if network is None:
                network = build_network(stack, p_point, y, x_star,
                                        inner_params.rho,
                                        record_trace=record_trace)
            else:
                relinearize(network, stack, p_point, y, x_star)
        except DomainViolation as exc:
            raise DomainViolation(
                f"iterate left measurement domain at outer iteration "
                f"{outer_it}: {exc} (x* = {x_star.data.tolist()})",
                edge=exc.edge,
            ) from exc

        xbar, rows, converged, stop = inner_admm(network, inner_params)
        trace.inner.append(rows)

        x_star = BlockVec(x_star.structure, x_star.data + xbar.data)
        meas_res = float(np.linalg.norm(
            y.data - eval_stack(stack, BlockVec(p_hat.structure,
                                                p_hat.data + x_star.data)).data
        ))
        trace.outer.append(OuterIterRow(
            meas_residual=meas_res,
            x_star_sparsity=block_sparsity(x_star, 1e-9),
            inner_iters=len(rows),
            inner_converged=converged,
            inner_stop=stop,
        ))

        step = float(np.linalg.norm(xbar.data))
        if step <= outer_params.tol_step or meas_res <= outer_params.tol_meas:
            # inner stalls along the way are expected while the
            # linearization is coarse; reaching an outer stopping criterion
            # is what counts as a clean solve
            degraded = False
            break
        degraded = True

    fault_tol = outer_params.fault_tol
    if fault_tol is None:
        fault_tol = default_fault_tol(p_hat)
    faults = identify_faults(x_star, fault_tol)
    return SolveResult(x_star=x_star, faults=faults, trace=trace,
                       degraded=degraded, outer_iters=len(trace.outer),
                       meas_residual=meas_res)
