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

``scenario_from_dict`` reads the agents and the edges in one pass each and
runs each check once over a whole list: ids, states and sigmas here (one
float array then holds both state vectors), member types, ranges and repeats
in ``Hypergraph``, member counts in ``MeasurementStack``. A check names the
first entry it rejects, so a document with one defect gets the message an
entry-by-entry reading gives.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np
import yaml

from .blocklin import BlockStructure, BlockVec
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
            sigma = np.repeat(self.stack.sigmas, y.structure.lengths)  # per row
            noisy = np.flatnonzero(sigma > 0)
            if len(noisy):  # one draw over the rows of every noisy edge, in order
                z = np.random.default_rng(self.seed).standard_normal(len(noisy))
                y.data[noisy] += sigma[noisy] * z
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


def _reject(bad, msg: str, *columns) -> None:
    """Raise ScenarioError if any entry of bad is true: msg formatted with the
    first such index and each column's value there; a pass formats nothing."""
    if len(hits := np.flatnonzero(bad)):
        raise ScenarioError(msg.format(hits[0], *(c[hits[0]] for c in columns)))


def _finite(values) -> bool:
    """Whether each value is a finite number (see is_finite_number), tested by
    builtins over all of them at once: a float compares with any int exactly."""
    return all(issubclass(t, (int, float)) and not issubclass(t, bool)
               for t in set(map(type, values))) \
        and all(map(sys.float_info.max.__ge__, map(abs, values)))


_KIND_OF = {k.value: k for k in MeasurementKind}


def scenario_from_dict(doc: dict) -> Scenario:
    _reject(not isinstance(doc, dict), "document must be a mapping")
    d = doc.get("dimension")
    _reject(not (isinstance(d, int) and d in (2, 3)), "dimension: must be 2 or 3")
    seed = doc.get("seed", 0)
    _reject(not (type(seed) is int and seed >= 0), "seed: must be a non-negative integer")

    agents = doc.get("agents")
    _reject(not (isinstance(agents, list) and agents), "agents: non-empty list required")
    entries = [(a["id"], a.get("true_state"), a.get("reported_state", a.get("true_state")))
               if isinstance(a, dict) and "id" in a else None for a in agents]
    _reject([e is None for e in entries], "agents[{}]: needs an id")
    ids, true_rows, reported_rows = zip(*entries)
    # type(v) is int: YAML's true and false are ints too (bool subclasses int)
    _reject([type(aid) is not int for aid in ids], "agents[{}].id: must be an integer")
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))  # each id's first entry
    _reject([first[aid] != k for k, aid in enumerate(ids)], "agents[{}].id: duplicate id {}",
            ids)
    coords = [v for r in true_rows + reported_rows if isinstance(r, list) and len(r) == d
              for v in r]
    if not (len(coords) == 2 * d * len(ids) and _finite(coords)):
        for name, rows in (("true_state", true_rows), ("reported_state", reported_rows)):
            _reject([not (isinstance(r, list) and len(r) == d and all(map(is_finite_number, r)))
                     for r in rows], f"agents[{{}}].{name}: needs {d} finite numbers")
    agent_ids = tuple(sorted(ids))
    index_of = dict(zip(agent_ids, range(len(ids))))

    edges_doc = doc.get("edges", [])
    _reject(not isinstance(edges_doc, list), "edges: must be a list")
    entries = [(e.get("kind"), e.get("members"), e.get("sigma", 0.0))
               if isinstance(e, dict) else None for e in edges_doc]
    _reject([e is None for e in entries], "edges[{}]: must be a mapping")
    names, members, sigmas = zip(*entries) if entries else ((),) * 3
    kinds = [_KIND_OF.get(k) if isinstance(k, str) else None for k in names]
    _reject([k is None for k in kinds], "edges[{}].kind: unknown kind {!r}", names)
    _reject([not isinstance(m, list) for m in members], "edges[{}].members: must be a list")
    flat = list(chain.from_iterable(members))
    if not (set(map(type, flat)) <= {int} and index_of.keys() >= set(flat)):  # no bool
        _reject([not (type(m) is int and m in index_of) for m in flat],
                "edges[{1}].members: unknown agent id {2}",
                np.repeat(np.arange(len(members)), list(map(len, members))), flat)
    if not (_finite(sigmas) and min(sigmas, default=0) >= 0):
        _reject([not (is_finite_number(s) and s >= 0) for s in sigmas],
                "edges[{}].sigma: must be a finite non-negative number")
    edges = tuple(tuple(map(index_of.__getitem__, m)) for m in members)

    solver = doc.get("solver") or {}
    _reject(not isinstance(solver, dict), "solver: must be a mapping")
    inner_keys = {f.name for f in fields(InnerParams)}
    outer_keys = {f.name for f in fields(OuterParams)}
    _reject([k not in inner_keys | outer_keys for k in solver], "solver.{1}: unknown option",
            list(solver))
    try:  # the parameter classes check the values
        inner = InnerParams(**{k: v for k, v in solver.items() if k in inner_keys})
        outer = OuterParams(**{k: v for k, v in solver.items() if k in outer_keys})
    except ValueError as exc:
        raise ScenarioError(f"solver.{exc}") from None

    try:  # the hypergraph checks that no edge repeats a member, the stack each member count
        graph = Hypergraph(num_vertices=len(agent_ids), edges=edges, kinds=tuple(kinds))
        stack = MeasurementStack(graph=graph, d=d, sigmas=tuple(map(float, sigmas)))
    except ValueError as exc:
        raise ScenarioError(f"edges: {exc}") from None
    order = list(map(first.__getitem__, agent_ids))  # agents by id
    states = np.array(coords, dtype=float).reshape(2, len(ids), d)[:, order].reshape(2, -1)
    true_states, reported = (BlockVec(BlockStructure((d,) * len(ids)), x) for x in states)
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
