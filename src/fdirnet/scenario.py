"""Scenario files: the single document describing topology, sensing,
reported states, planted faults, and solver overrides.

Format is YAML with the following fields (see scenarios/ for samples):

    dimension: 2
    seed: 7
    agents:
      - id: 0
        true_state: [0.0, 0.0]
        reported_state: [0.5, 0.0]   # optional; defaults to true_state
    edges:
      - kind: distance               # displacement | distance | bearing |
        members: [0, 1]              #   tdoa | subtended_angle
        sigma: 0.0                   # optional additive Gaussian noise
    solver:                          # optional overrides, all optional
      rho: 1.0
      max_inner_iters: 2000
      tol_primal: 1.0e-6
      tol_dual: 1.0e-6
      max_scp_iters: 20
      tol_step: 1.0e-5
      tol_meas: 1.0e-6
      fault_tol: 1.0e-3

A fault at an agent is expressed by making reported_state differ from
true_state. The solver only consumes (reported states, measurements,
topology); true states are used to synthesize measurements and to grade
the result.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .blocklin import BlockVec
from .exceptions import DomainViolation
from .measurements import MeasurementKind, MeasurementStack, eval_stack
from .solver import InnerParams, OuterParams, is_finite_number
from .topology import Hypergraph


class ScenarioError(ValueError):
    """Scenario file failed validation; message names the offending field."""


@dataclass
class Scenario:
    d: int
    agent_ids: tuple[int, ...]  # sorted external ids; index order everywhere
    true_states: BlockVec
    reported_states: BlockVec
    stack: MeasurementStack  # carries the per-edge noise std devs
    seed: int
    inner_params: InnerParams
    outer_params: OuterParams

    @property
    def num_agents(self) -> int:
        return len(self.agent_ids)

    def measurements(self) -> BlockVec:
        """y = Phi(true states) + seeded Gaussian noise; deterministic. A value
        outside a model's domain or that overflows (states near 1e154) raises
        ScenarioError naming the edge, not a warning."""
        with np.errstate(all="ignore"):
            try:
                y = eval_stack(self.stack, self.true_states)
            except DomainViolation as exc:
                raise ScenarioError(f"edges[{exc.edge}]: {exc}") from None
            if any(s > 0 for s in self.stack.sigmas):
                rng = np.random.default_rng(self.seed)
                for l, sigma in enumerate(self.stack.sigmas):
                    if sigma > 0:
                        y.block(l)[:] += sigma * rng.standard_normal(len(y.block(l)))
        if not np.isfinite(y.data).all():
            row = np.flatnonzero(~np.isfinite(y.data))[0]
            raise ScenarioError(f"edges[{bisect_right(y.structure.offsets, row) - 1}]: "
                                "the synthesized measurement is not finite")
        return y

    def to_dict(self) -> dict:
        agents = []
        for idx, aid in enumerate(self.agent_ids):
            entry = {"id": int(aid),
                     "true_state": [float(v) for v in self.true_states.block(idx)]}
            if not np.array_equal(self.true_states.block(idx),
                                  self.reported_states.block(idx)):
                entry["reported_state"] = [
                    float(v) for v in self.reported_states.block(idx)
                ]
            agents.append(entry)
        id_of = {idx: aid for idx, aid in enumerate(self.agent_ids)}
        edges = []
        for l, members in enumerate(self.stack.graph.edges):
            entry = {"kind": self.stack.graph.kinds[l].value,
                     "members": [int(id_of[m]) for m in members]}
            if self.stack.sigmas[l] > 0:
                entry["sigma"] = float(self.stack.sigmas[l])
            edges.append(entry)
        ip, op = self.inner_params, self.outer_params
        solver = {"rho": ip.rho, "max_inner_iters": ip.max_inner_iters,
                  "tol_primal": ip.tol_primal, "tol_dual": ip.tol_dual,
                  "max_scp_iters": op.max_scp_iters, "tol_step": op.tol_step,
                  "tol_meas": op.tol_meas}
        if op.fault_tol is not None:
            solver["fault_tol"] = op.fault_tol
        return {"dimension": self.d, "seed": self.seed, "agents": agents,
                "edges": edges, "solver": solver}

    def save(self, path) -> None:
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=False)


def _require(cond, msg, *args):
    """Raise ScenarioError(msg.format(*args)) unless cond; a passing check formats nothing."""
    if not cond:
        raise ScenarioError(msg.format(*args))


def scenario_from_dict(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "document must be a mapping")
    d = doc.get("dimension")
    _require(isinstance(d, int) and d in (2, 3), "dimension: must be 2 or 3")
    seed = doc.get("seed", 0)
    _require(type(seed) is int and seed >= 0, "seed: must be a non-negative integer")

    agents = doc.get("agents")
    _require(isinstance(agents, list) and agents, "agents: non-empty list required")
    by_id = {}
    for idx, a in enumerate(agents):
        _require(isinstance(a, dict) and "id" in a, "agents[{}]: needs an id", idx)
        aid = a["id"]
        # type(v) is int: YAML's true and false are ints too (bool subclasses int)
        _require(type(aid) is int, "agents[{}].id: must be an integer", idx)
        _require(aid not in by_id, "agents[{}].id: duplicate id {}", idx, aid)
        ts = a.get("true_state")
        _require(isinstance(ts, list) and len(ts) == d and all(map(is_finite_number, ts)),
                 "agents[{}].true_state: needs {} finite numbers", idx, d)
        rs = a.get("reported_state", ts)
        _require(isinstance(rs, list) and len(rs) == d and all(map(is_finite_number, rs)),
                 "agents[{}].reported_state: needs {} finite numbers", idx, d)
        by_id[aid] = (np.array(ts, dtype=float), np.array(rs, dtype=float))
    agent_ids = tuple(sorted(by_id))
    index_of = {aid: k for k, aid in enumerate(agent_ids)}

    edges_doc = doc.get("edges", [])
    _require(isinstance(edges_doc, list), "edges: must be a list")
    edges, kinds, sigmas = [], [], []
    for l, e in enumerate(edges_doc):
        _require(isinstance(e, dict), "edges[{}]: must be a mapping", l)
        kind_name = e.get("kind")
        try:
            kind = MeasurementKind(kind_name)
        except ValueError:
            raise ScenarioError(
                f"edges[{l}].kind: unknown kind {kind_name!r}"
            ) from None
        members = e.get("members")
        _require(isinstance(members, list), "edges[{}].members: must be a list", l)
        for m in members:
            _require(type(m) is int and m in index_of,
                     "edges[{}].members: unknown agent id {}", l, m)
        sigma = e.get("sigma", 0.0)
        _require(is_finite_number(sigma) and sigma >= 0,
                 "edges[{}].sigma: must be a finite non-negative number", l)
        edges.append(tuple(index_of[m] for m in members))
        kinds.append(kind)
        sigmas.append(float(sigma))

    solver = doc.get("solver") or {}
    _require(isinstance(solver, dict), "solver: must be a mapping")
    inner_keys = {f.name for f in fields(InnerParams)}
    outer_keys = {f.name for f in fields(OuterParams)}
    for key in solver:
        _require(key in inner_keys | outer_keys, "solver.{}: unknown option", key)
    try:  # the parameter classes check the values
        inner = InnerParams(**{k: v for k, v in solver.items() if k in inner_keys})
        outer = OuterParams(**{k: v for k, v in solver.items() if k in outer_keys})
    except ValueError as exc:
        raise ScenarioError(f"solver.{exc}") from None

    try:  # the hypergraph checks that no edge repeats a member, the stack each member count
        graph = Hypergraph(num_vertices=len(agent_ids), edges=tuple(edges),
                           kinds=tuple(kinds))
        stack = MeasurementStack(graph=graph, d=d, sigmas=tuple(sigmas))
    except ValueError as exc:
        raise ScenarioError(f"edges: {exc}") from None
    true_states = BlockVec.from_blocks([by_id[a][0] for a in agent_ids])
    reported = BlockVec.from_blocks([by_id[a][1] for a in agent_ids])
    return Scenario(d=d, agent_ids=agent_ids, true_states=true_states,
                    reported_states=reported, stack=stack, seed=seed,
                    inner_params=inner, outer_params=outer)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    return scenario_from_dict(doc)


@dataclass
class FaultReport:
    identified: frozenset
    block_norms: dict[int, float]  # per external agent id, ||x*[i]||
    error_blocks: dict[int, list[float]]
    meas_residual: float
    outer_iters: int
    outer_stop: str  # why the outer loop ended: step, residual, discrepancy, budget
    degraded: bool
    # ground-truth comparison (true states came from the scenario file;
    # the solver itself never saw them)
    precision: float
    recall: float
    max_block_error: float
    true_faults: frozenset
    # per outer iteration: (inner rounds, inner stop, prox calls, capped ones)
    inner_loops: tuple[tuple[int, str, int, int], ...] = ()

    def to_text(self) -> str:
        lines = ["fault report", "============"]
        if self.identified:
            ids = ", ".join(str(i) for i in sorted(self.identified))
            lines.append(f"identified faulty agents: {ids}")
        else:
            lines.append("identified faulty agents: none")
        lines.append(f"measurement residual: {self.meas_residual:.3e}")
        lines.append(f"outer iterations: {self.outer_iters}"
                     + (" (degraded convergence)" if self.degraded else ""))
        lines.append(f"outer stop: {self.outer_stop}")
        for k, (rounds, stop, prox, capped) in enumerate(self.inner_loops):
            lines.append(f"  outer iteration {k}: {rounds} rounds, inner stop {stop}, "
                         f"{prox} prox calls" + (f" ({capped} capped)" if capped else ""))
        lines.append("")
        lines.append("reconstructed error blocks:")
        for aid in sorted(self.block_norms):
            vals = ", ".join(f"{v:+.6f}" for v in self.error_blocks[aid])
            lines.append(f"  agent {aid}: norm {self.block_norms[aid]:.6f}"
                         f"  [{vals}]")
        lines.append("")
        lines.append("ground-truth comparison (from scenario file only):")
        tf = ", ".join(str(i) for i in sorted(self.true_faults)) or "none"
        lines.append(f"  true faulty agents: {tf}")
        lines.append(f"  precision: {self.precision:.3f}  recall: {self.recall:.3f}")
        lines.append(f"  max block reconstruction error: {self.max_block_error:.3e}")
        return "\n".join(lines) + "\n"
