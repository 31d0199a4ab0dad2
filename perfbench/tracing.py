"""In-memory span recorder for the traced benchmark run.

Spans come from wrappers bound at run time over public names where the
calling module looks them up (``entire.solve_dirichlet`` is the name
``construct_entire`` calls, ``cli.solve_dirichlet`` the one ``solve``
calls). No program source is edited; ``unbind`` restores every name.
Each span has a name, start, end, parent span and run id, plus exact
counts read from the value the wrapped call returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str          # "<site module>.<function>", e.g. "entire.solve_dirichlet"
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def func(self) -> str:
        return self.name.rsplit(".", 1)[1]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_counts(grid) -> dict:
    return {"nodes": len(grid.nodes)}


def _solve_counts(result) -> dict:
    solution, report = result
    return {"steps": report.iterations,
            "node_steps": report.iterations * solution.grid.n_interior,
            "converged": int(report.converged)}


def _check_counts(report) -> dict:
    return {"samples": report.samples}


# (module under osserman_lab, attribute, count extractor)
BINDINGS = (
    ("cli", "construct_entire", None),
    ("cli", "separation_table", None),
    ("cli", "check_hamiltonian", _check_counts),
    ("cli", "verify_barrier_inequality", None),
    ("cli", "solve_dirichlet", _solve_counts),
    ("cli", "build_ball_grid", _grid_counts),
    ("entire", "solve_dirichlet", _solve_counts),
    ("entire", "build_ball_grid", _grid_counts),
    ("entire", "sup_difference", None),
    ("config", "build_ball_grid", _grid_counts),
    ("barrier", "barrier_residuals", None),
)


class Recorder:
    """Collects spans in memory; ``run`` labels the pass they belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._bound: list[tuple] = []

    def traced(self, name: str, fn, counts=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            span = Span(sid, name, time.perf_counter(), 0.0, parent, self.run)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.counts = counts(result)
            return result
        return wrapper

    def bind(self, package) -> None:
        for mod_name, attr, counts in BINDINGS:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            self._bound.append((module, attr, original))
            setattr(module, attr,
                    self.traced(f"{mod_name}.{attr}", original, counts))

    def unbind(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it covered by its child spans."""
    covered, edge = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, edge), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span.duration - covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers of one pass from its spans. Rates and fractions
    read 0 where the layer made no call in the pass."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def by_func(func):
        return [s for s in spans if s.func == func]

    def total(group, key=None):
        if key is None:
            return sum(s.duration for s in group)
        return sum(s.counts.get(key, 0) for s in group)

    def self_total(group):
        return sum(self_time(s, children.get(s.id, [])) for s in group)

    grids = by_func("build_ball_grid")
    solves = by_func("solve_dirichlet")
    checks = by_func("check_hamiltonian")
    builds = by_func("construct_entire")
    tables = by_func("separation_table")
    sups = by_func("sup_difference")
    mains = by_func("main")

    grid_s, nodes = total(grids), total(grids, "nodes")
    solve_s, steps = total(solves), total(solves, "steps")
    node_steps = total(solves, "node_steps")
    check_s, samples = total(checks), total(checks, "samples")
    return {
        "core.build_ball_grid.calls": len(grids),
        "core.build_ball_grid.s": grid_s,
        "core.grid_nodes": nodes,
        "core.build_ball_grid.us_per_node": 1e6 * _ratio(grid_s, nodes),
        "solver.solve_dirichlet.calls": len(solves),
        "solver.solve_dirichlet.s": solve_s,
        "solver.steps": steps,
        "solver.node_steps": node_steps,
        "solver.us_per_step": 1e6 * _ratio(solve_s, steps),
        "solver.ns_per_node_step": 1e9 * _ratio(solve_s, node_steps),
        "solver.converged_frac": _ratio(total(solves, "converged"), len(solves)),
        "entire.construct_entire.s": total(builds),
        "entire.self_s": self_total(builds) + self_total(tables),
        "entire.sup_difference.calls": len(sups),
        "entire.sup_difference.s": total(sups),
        "operators.check_hamiltonian.calls": len(checks),
        "operators.check_hamiltonian.s": check_s,
        "operators.samples": samples,
        "operators.samples_per_s": _ratio(samples, check_s),
        "barrier.verify_barrier_inequality.s": total(by_func("verify_barrier_inequality")),
        "barrier.barrier_residuals.s": total(by_func("barrier_residuals")),
        "cli.main.s": total(mains),
        "cli.self_s": self_total(mains),
        "cli.bytes_out": total(mains, "bytes_out"),
    }


# Counts that must repeat exactly between passes and runs of one seed.
EXACT_COUNTS = ("solver.steps", "solver.node_steps", "core.grid_nodes",
                "operators.samples", "cli.bytes_out")
