"""Run-time timing wrappers around fdirnet's public entry points.

``Tracer.installed()`` swaps each entry point for a wrapper that records a
span (name, start, end, parent, solve id) and restores the originals on
exit; no file of the program is touched. Counts are read from what the
wrapped calls return, never from program internals.
"""

from __future__ import annotations

import contextlib
import csv
import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from fdirnet import agent, netsim, solver
from fdirnet.exceptions import ConvergenceFailure

PHASE_SPANS = {netsim.PHASE_XBAR: "netsim.phase_x", netsim.PHASE_COPY: "netsim.phase_w",
               netsim.PHASE_DUAL: "netsim.phase_dual"}

# span name -> (owner object, attribute) of each wrapped entry point
ENTRY_POINTS = {
    "solver.build_network": (solver, "build_network"),
    "solver.relinearize": (solver, "relinearize"),
    "solver.inner_admm": (solver, "inner_admm"),
    "measurements.jacobian_stack": (solver, "jacobian_stack"),
    "measurements.eval_stack": (solver, "eval_stack"),
    "topology.build_tables": (solver, "build_tables"),
    "prox.solve_prox": (agent, "solve_prox"),
    "agent.primal_update_x": (agent.AgentState, "primal_update_x"),
    "agent.primal_update_w": (agent.AgentState, "primal_update_w"),
    "agent.dual_update": (agent.AgentState, "dual_update"),
    "agent.violation_norms": (agent.AgentState, "violation_norms"),
    "netsim.run_phase": (netsim.Network, "run_phase"),
    # the outer loop's own helpers, so that the named layers cover the solve
    "solver.block_sparsity": (solver, "block_sparsity"),
    "solver.default_fault_tol": (solver, "default_fault_tol"),
    "solver.identify_faults": (solver, "identify_faults"),
}

ROOT = "solver.outer_scp"


class Tracer:
    """In-memory span log plus the counts read from wrapped return values.

    Spans are kept column-wise in flat arrays: a list per span would put
    hundreds of thousands of containers under the garbage collector, whose
    rescans then dominate the tracing overhead.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, -1 for a root
        self.solves = array("q")
        self._open: list[int] = []
        self.solve_id = -1
        self.start_solve()

    def start_solve(self) -> None:
        """Open a new solve id and reset the per-solve counts."""
        self.solve_id += 1
        self.prox_iters: list[int] = []  # one entry per prox call
        self.prox_failures = 0
        self.messages = 0
        self.floats = 0
        self.sent: dict[tuple[int, int], int] = defaultdict(int)  # (round, sender)

    def wrap(self, name, fn, on_result=None, on_error=None, span_name=None):
        """fn, recording one span per call. The span is called ``name``, or
        ``span_name(args, kwargs)`` when given; the call's result goes to
        on_result and any exception it raises to on_error."""
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(t.names)
            t.names.append(span_name(args, kwargs) if span_name else name)
            t.parents.append(t._open[-1] if t._open else -1)
            t.solves.append(t.solve_id)
            t.ends.append(0.0)
            t._open.append(idx)
            t.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                t.ends[idx] = perf_counter()
                t._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_prox(self, sol) -> None:
        self.prox_iters.append(sol.iterations)

    def _on_prox_error(self, exc) -> None:
        if isinstance(exc, ConvergenceFailure):
            self.prox_iters.append(exc.iterations or 0)
            self.prox_failures += 1

    @staticmethod
    def _phase_span(args, kwargs) -> str:
        return PHASE_SPANS[args[1] if len(args) > 1 else kwargs["phase"]]

    def _on_messages(self, messages) -> None:
        for m in messages:
            self.messages += 1
            self.floats += len(m.payload)
            self.sent[(m.round, m.sender)] += 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        hooks = {"prox.solve_prox": {"on_result": self._on_prox,
                                     "on_error": self._on_prox_error},
                 "netsim.run_phase": {"on_result": self._on_messages,
                                      "span_name": self._phase_span}}
        saved = []
        try:
            for name, (owner, attr) in ENTRY_POINTS.items():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, **hooks.get(name, {})))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ----- accounting ---------------------------------------------------

    def times(self, solve_id: int) -> tuple[dict[str, float], dict[str, float]]:
        """(self, inclusive) time per span name within one solve. A span's
        self time is its duration minus the durations of its children."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = dur - child
        self_t: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for k in np.flatnonzero(np.asarray(self.solves) == solve_id):
            self_t[self.names[k]] += own[k]
            incl[self.names[k]] += dur[k]
        return dict(self_t), dict(incl)

    def counts(self) -> dict[str, float]:
        """Counts of the current solve, read from wrapped return values."""
        iters = np.array(self.prox_iters, dtype=float)
        return {
            "measurements.calls": float(sum(
                1 for k in np.flatnonzero(np.asarray(self.solves) == self.solve_id)
                if self.names[k].startswith("measurements."))),
            "prox.calls": float(len(iters)),
            "prox.iters": float(iters.sum()),
            "prox.iters_max": float(iters.max()) if len(iters) else 0.0,
            "prox.budget_failures": float(self.prox_failures),
            "netsim.messages": float(self.messages),
            "netsim.floats": float(self.floats),
            "netsim.msgs_per_agent_round_max": float(max(self.sent.values(), default=0)),
        }

    def dump(self, path) -> None:
        """Write every span as CSV, times relative to the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["solve", "span", "name", "parent", "start_s", "end_s"])
            for k, name in enumerate(self.names):
                writer.writerow([self.solves[k], k, name, self.parents[k],
                                 f"{self.starts[k] - t0:.9f}", f"{self.ends[k] - t0:.9f}"])
