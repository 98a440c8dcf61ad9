"""Orchestration of the error-reconstruction solve.

The inner loop is consensus ADMM over the simulated network on the
linearized constraints. It stops when its violations and its step are
within tolerance, or, on a linearization it cannot satisfy, as soon as it
has reached its plateau: its step is small against the violations, and
the violations have moved by under PLATEAU_RTOL of themselves over the
last PLATEAU_LAG rounds. Further rounds there would only grow the duals.

The outer loop relinearizes the measurement map at the accumulated
estimate (sequential convex programming) and absorbs the inner solution
into x*. It stops on step size, on a measurement residual within
``tol_meas``, or on a residual within DISCREPANCY_TAU times the noise
level the stack's sigmas imply (the discrepancy principle: a noisy y
cannot be fitted more closely than its noise). Faulty agents are the
blocks of x* with non-negligible norm.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field

import numpy as np

from .blocklin import BlockStructure, BlockVec, block_sparsity, support
from .exceptions import DomainViolation, NumericalOverflow
from .measurements import MeasurementStack, eval_stack, jacobian_stack
from .netsim import Network
from .topology import build_tables, index_ranges


def is_finite_number(v) -> bool:
    """v is an int or float with a finite float value (YAML's true/false and
    .nan/.inf are not, nor is an int beyond the float range)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


def _check_positive(params, ints: tuple[str, ...], reals: tuple[str, ...]) -> None:
    """Each named field of params must be a positive int (``ints``) or a
    finite positive number (``reals``)."""
    for name in ints:
        v = getattr(params, name)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name}: must be a positive integer, got {v!r}")
    for name in reals:
        v = getattr(params, name)
        if not is_finite_number(v) or v <= 0:
            raise ValueError(f"{name}: must be a finite positive number, got {v!r}")


@dataclass
class InnerParams:
    rho: float = 1.0
    max_inner_iters: int = 2000
    tol_primal: float = 1e-6  # max constraint-violation norm
    tol_dual: float = 1e-6  # max change in xbar between iterations

    def __post_init__(self):
        _check_positive(self, ("max_inner_iters",), ("rho", "tol_primal", "tol_dual"))


@dataclass
class OuterParams:
    max_scp_iters: int = 20
    tol_step: float = 1e-5  # on ||xbar|| across agents
    tol_meas: float = 1e-6  # on ||y - Phi(p_hat + x*)||
    fault_tol: float | None = None  # None: 1e-3 * median block norm of p_hat

    def __post_init__(self):
        _check_positive(self, ("max_scp_iters",), ("tol_step", "tol_meas"))
        if self.fault_tol is not None:
            _check_positive(self, (), ("fault_tol",))


# one inner round: largest violation norms, l2,1 objective of x* + xbar,
# and how many agents took the x-update's fast path
INNER_ROW = np.dtype([("max_c_norm", float), ("max_d_norm", float),
                      ("l21_objective", float), ("fastpath_count", np.int64)])


@dataclass
class OuterIterRow:
    meas_residual: float
    x_star_sparsity: int
    inner_iters: int
    inner_converged: bool
    inner_stop: str  # "converged", "stalled" or "budget"
    prox_capped: int  # prox solves stopped at their step cap short of tol


@dataclass
class RunTrace:
    inner: list[np.recarray] = field(default_factory=list)  # INNER_ROW per round
    outer: list[OuterIterRow] = field(default_factory=list)

    def dump_inner_csv(self, path, outer_iter: int) -> None:
        """One row per inner round; the last one's ``stop`` is the inner stop."""
        rows = self.inner[outer_iter]
        outer = self.outer[outer_iter] if outer_iter < len(self.outer) else None
        meas = outer.meas_residual if outer else ""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outer_iter", "inner_iter", "max_c_norm",
                             "max_d_norm", "l21_objective", "meas_residual",
                             "fastpath_count", "stop"])
            for t, row in enumerate(rows):
                stop = outer.inner_stop if outer and t == len(rows) - 1 else ""
                writer.writerow([outer_iter, t, row.max_c_norm, row.max_d_norm,
                                 row.l21_objective, meas, row.fastpath_count, stop])


def _fill_map(stack: MeasurementStack, network: Network) -> tuple:
    """Where each linearization lands in the arena: the entries of J that
    every kind's Jacobian blocks go to, once per member that receives them;
    (arena entries, entries of y - Phi(p)) of r; x*'s entries; and, per
    neighbor count, the agents and where their H^-1 start."""
    t, start, d, L = network.tables, network.start, stack.d, stack.graph.num_edges  # t: Tables
    k = np.diff(t.nbr_ptr)
    cols = (1 + k) * d  # of each agent's J
    agent = t.entry_agent
    first_row = t.starts - t.row_ptr[agent]  # of each entry's rows, in its agent's J
    J_dst = [np.zeros(0, np.intp)]
    for kind, ls, members, _, _ in stack._groups:
        # the kind's (E, arity, m, d) blocks go, for each member b, to the J
        # of q = members[e, b]: its rows of edge ls[e] and, for block p, the
        # column block of member j = members[e, p]
        m = kind.output_dim(d)
        q, j = members.T[:, :, None], members[None]
        entry = np.searchsorted(agent * L + t.edges, members.T * L + ls)[:, :, None]
        col = np.where(q == j, 0, 1 + t.slot(q, j)) * d
        at = start["J"][q] + first_row[entry] * cols[q] + col
        J_dst.append((at[..., None, None] + cols[q][..., None, None] * np.arange(m)[:, None]
                      + np.arange(d)).ravel())
    groups = []
    for size in np.unique(k[k > 0]):
        of_k = np.flatnonzero(k == size)
        groups.append(([network.ordered[a] for a in of_k], start["H_inv"][of_k]))
    return (np.concatenate(J_dst),
            (index_ranges(start["r"][agent] + first_row, t.rows),
             index_ranges(np.take(stack.row_structure.offsets, t.edges), t.rows)),
            index_ranges(start["x_star"], d), groups)


def _write_linearization(network: Network, blocks: tuple, resid: np.ndarray,
                         x_star: BlockVec) -> None:
    """Write every agent's J (from ``blocks``, the Jacobian's ``by_kind``), r
    and x* into the arena, one assignment each, and its H^-1 with one
    inversion per neighbor count."""
    J_dst, (r_dst, r_src), x_dst, groups = network.fill
    arena = network.arena
    arena[J_dst] = np.concatenate([np.zeros(0), *(np.tile(J.ravel(), J.shape[1])
                                                   for J in blocks)])
    arena[r_dst] = resid[r_src]
    arena[x_dst] = x_star.data
    for agents, starts in groups:
        H = np.empty((len(agents), *agents[0].H_inv.shape))
        for s, a in enumerate(agents):
            H[s] = a.gram()
        H_inv = np.linalg.inv(H).reshape(len(agents), -1)
        arena[starts[:, None] + np.arange(H_inv.shape[1])] = H_inv


def build_network(stack: MeasurementStack, p_point: BlockVec, y: BlockVec,
                  x_star: BlockVec, rho: float,
                  record_trace: bool = False) -> Network:
    """Agents with the linearization (J, r) taken at p_point."""
    blocks = jacobian_stack(stack, p_point).by_kind  # R's dict of block views goes at once
    resid = y.data - eval_stack(stack, p_point).data
    network = Network(build_tables(stack.graph, stack.row_structure.lengths), stack.d, rho,
                      record_trace=record_trace)
    network.fill = _fill_map(stack, network)
    _write_linearization(network, blocks, resid, x_star)
    return network


def relinearize(network: Network, stack: MeasurementStack, p_point: BlockVec,
                resid: np.ndarray, x_star: BlockVec) -> None:
    """Hand every agent the linearization at p_point and the absorbed x*;
    resid is y - Phi(p_point), which the outer loop has already evaluated."""
    blocks = jacobian_stack(stack, p_point).by_kind
    for a in network.ordered:
        a.shift()
    network.capped.clear()
    _write_linearization(network, blocks, resid, x_star)


PLATEAU_LAG = 10  # rounds between the two violation levels compared
PLATEAU_RTOL = 1e-2  # relative to the current violation level


def inner_admm(network: Network, params: InnerParams):
    """Run ADMM rounds until convergence, a plateau or the budget.

    Let v_k be the larger of the two largest violation norms (max ||c||,
    max ||d||) after round k, and dx_k the largest change of an agent's
    xbar in that round. The loop stops

    - "converged" when both violations are within tol_primal and dx_k
      within tol_dual (tested first);
    - "stalled" when dx_k <= PLATEAU_RTOL * v_k and
      |v_{k-PLATEAU_LAG} - v_k| <= PLATEAU_RTOL * v_k. On an infeasible
      linearized system (linearization error off the range of R) the
      iterate settles with the violations at the infeasibility level while
      the scaled duals keep growing; nothing the outer loop uses moves any
      more, and it will relinearize anyway. Both halves are needed: a slow
      loop on a feasible system has a small dx_k too, but its violations
      are still falling;
    - "budget" after max_inner_iters rounds.

    Returns (xbar: BlockVec, rows, converged: bool, stop), where rows is
    a record array of INNER_ROW, one per round.
    """
    agents = network.ordered
    x_star = np.array([a.x_star for a in agents])
    xbar = network.x_bars()
    rows: list[tuple] = []
    stop = "budget"
    levels: list[float] = []  # v_k per round

    for _ in range(params.max_inner_iters):
        network.run_iteration()

        prev_xbar, xbar = xbar, network.x_bars()
        max_c, max_d = network.violation_norms()
        rows.append((max_c, max_d, np.linalg.norm(x_star + xbar, axis=1).sum(),
                     sum(a.fast_path for a in agents)))

        dx = float(np.linalg.norm(xbar - prev_xbar, axis=1).max())
        if max_c <= params.tol_primal and max_d <= params.tol_primal \
                and dx <= params.tol_dual:
            stop = "converged"
            break
        v = max(max_c, max_d)
        levels.append(v)
        if dx <= PLATEAU_RTOL * v and len(levels) > PLATEAU_LAG \
                and abs(levels[-1 - PLATEAU_LAG] - v) <= PLATEAU_RTOL * v:
            stop = "stalled"
            break

    return (BlockVec(BlockStructure((network.d,) * len(xbar)), xbar.ravel()),
            np.rec.fromrecords(rows, dtype=INNER_ROW),
            stop == "converged", stop)


def identify_faults(x_star: BlockVec, fault_tol: float) -> frozenset:
    if fault_tol <= 0:
        raise ValueError("fault_tol must be positive")
    return support(x_star, fault_tol)


def default_fault_tol(p_hat: BlockVec) -> float:
    return max(1e-3 * float(np.median(p_hat.block_norms())), 1e-3)


DISCREPANCY_TAU = 1.5  # outer stop once meas_res <= tau * stack.noise_level


@dataclass
class SolveResult:
    x_star: BlockVec
    faults: frozenset
    trace: RunTrace
    degraded: bool
    outer_iters: int
    meas_residual: float
    outer_stop: str  # "step", "residual", "discrepancy" or "budget"


def outer_scp(stack: MeasurementStack, p_hat: BlockVec, y: BlockVec,
              inner_params: InnerParams | None = None,
              outer_params: OuterParams | None = None) -> SolveResult:
    """Full SCP+ADMM solve from the reported states and measurements.

    The solver only ever sees (p_hat, y, topology) and the noise model the
    stack carries; true states exist only in scenario files for evaluation.
    The result is degraded when no outer stopping test held within
    max_scp_iters (outer_stop "budget").
    """
    inner_params = inner_params or InnerParams()
    outer_params = outer_params or OuterParams()
    trace = RunTrace()

    x_star = BlockVec(p_hat.structure)
    p_point = p_hat  # the linearization point p_hat + x*
    network = None
    meas_res = np.inf
    outer_stop = "budget"

    for outer_it in range(outer_params.max_scp_iters):
        try:
            if network is None:
                network = build_network(stack, p_point, y, x_star,
                                        inner_params.rho)
            else:
                relinearize(network, stack, p_point, resid, x_star)
        except DomainViolation as exc:
            raise DomainViolation(
                f"iterate left measurement domain at outer iteration "
                f"{outer_it}: {exc} (x* = {x_star.data.tolist()})",
                edge=exc.edge,
            ) from exc

        try:
            xbar, rows, converged, stop = inner_admm(network, inner_params)
        except NumericalOverflow as exc:
            raise NumericalOverflow(f"at outer iteration {outer_it}: {exc}") from exc
        trace.inner.append(rows)

        x_star = BlockVec(x_star.structure, x_star.data + xbar.data)
        p_point = BlockVec(p_hat.structure, p_hat.data + x_star.data)
        resid = y.data - eval_stack(stack, p_point).data
        meas_res = float(np.linalg.norm(resid))
        trace.outer.append(OuterIterRow(
            meas_residual=meas_res,
            x_star_sparsity=block_sparsity(x_star, 1e-9),
            inner_iters=len(rows),
            inner_converged=converged,
            inner_stop=stop,
            prox_capped=len(network.capped),
        ))

        # inner stalls along the way are expected while the linearization
        # is coarse; reaching an outer stopping test is what counts as a
        # clean solve
        step = float(np.linalg.norm(xbar.data))
        if step <= outer_params.tol_step:
            outer_stop = "step"
        elif meas_res <= outer_params.tol_meas:
            outer_stop = "residual"
        elif meas_res <= DISCREPANCY_TAU * stack.noise_level:
            outer_stop = "discrepancy"
        else:
            continue
        break

    fault_tol = outer_params.fault_tol
    if fault_tol is None:
        fault_tol = default_fault_tol(p_hat)
    faults = identify_faults(x_star, fault_tol)
    return SolveResult(x_star=x_star, faults=faults, trace=trace,
                       degraded=outer_stop == "budget", outer_iters=len(trace.outer),
                       meas_residual=meas_res, outer_stop=outer_stop)
