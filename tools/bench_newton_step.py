"""Time the layers of one Newton step on one or more checkouts.

    python3 tools/bench_newton_step.py [--src CHECKOUT ...] [--sweeps 40]

A Newton step of ``solver.solve_dirichlet`` evaluates the residual
(``_interior_residual``, once per line-search trial), fills the policy
Jacobian table (``_jacobian_table``) and solves J d = -res from that table
(``linear_solve``). The linear solve is the one the checkout's solver runs:
``solver._step_solver(grid)`` (LAPACK ``dgtsv`` in 1D, SuperLU in 2D). Two
cases:

- entire-1d: the perfbench ``entire-1d`` data-100 chain, Pucci+ with
  lam = Lam = 1, H = |p|^2, s = 3, f = 0, boundary data 100 on B_1..B_4 at
  h = 0.04, tol 1e-8 (``entire.construct_entire``, warm-started);
- solve-2d: the perfbench ``solve-2d`` problem, Pucci+ with lam = 1,
  Lam = 2, H = |p|^2, s = 2, f = 0, data 10 on B_1.2 at h = 0.05, tol 1e-8.

One process imports every checkout's package (default: this script's
checkout) under a name of its own (``harness.load_checkout``). Each
checkout solves each case once, recording the state (iterate and policy)
of every Newton step through a wrapper bound over its
``solver._jacobian_table``. Then, per case and layer, one call per
checkout runs the layer over all of that checkout's recorded steps, and
``harness.paired`` times these calls in ``--sweeps`` sweeps, the checkouts'
order alternating from sweep to sweep.

The one line of standard output is a JSON object: the checkouts in the
order given and, per case, each checkout's Newton steps, per layer each
checkout's median microseconds per step and, after the first checkout,
the sweeps in which it was lower than the first ("k of N"; with equal
step counts the sweeps time the same work), and the largest difference of
each later checkout's final fields from the first one's (None where the
grids differ).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from harness import ROOT, load_checkout, paired

CASES = ("entire-1d", "solve-2d")
LAYERS = ("residual", "jacobian_table", "linear_solve")


def _problem(lab, Lam: float, s: float, n: int):
    """Pucci+ with lam = 1 and Lam, H = |p|^2, s and f = 0 in dimension n,
    built by ``lab``'s config from the section every checkout reads."""
    config = importlib.import_module(lab.__name__ + ".config")
    return config.build_problem({"problem": {
        "s": s, "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": Lam},
        "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0,
                        "n": n}}})


def _run_case(lab, case: str):
    """Solve ``case`` with the package ``lab``; return its final fields and
    the recorded steps as (problem, grid, iterate, policy) tuples."""
    solver = lab.solver
    steps = []
    table = solver._jacobian_table

    def recording_table(problem, grid, vals, policy):
        steps.append((problem, grid, vals.copy(), policy))
        return table(problem, grid, vals, policy)

    solver._jacobian_table = recording_table
    try:
        if case == "entire-1d":
            problem = _problem(lab, 1.0, 3.0, 1)
            run = lab.entire.construct_entire(problem, 4, lambda x: 100.0,
                                              1e-8, 0.04, 5_000_000)
            fields = [f.values for f in run.fields]
        else:
            problem = _problem(lab, 2.0, 2.0, 2)
            grid = lab.core.build_ball_grid([0.0, 0.0], 1.2, 0.05, 2)
            field, _ = solver.solve_dirichlet(problem, grid, lambda x: 10.0,
                                              1e-8, 2_000_000)
            fields = [field.values]
    finally:
        solver._jacobian_table = table
    return fields, steps


def _layer_sweeps(lab, steps) -> dict:
    """Per layer, a call that runs the layer once over every step."""
    solver = lab.solver
    prepared = []
    solvers = {}
    for problem, grid, vals, policy in steps:
        if id(grid) not in solvers:  # built once per solve, as the solver does
            solvers[id(grid)] = solver._step_solver(grid)
        f_vals = lab.core.evaluate(problem.f, grid.interior_nodes)
        res = solver._interior_residual(problem, grid, vals, f_vals)[0]
        table = solver._jacobian_table(problem, grid, vals, policy)
        prepared.append((problem, grid, vals, policy, f_vals, table, res,
                         solvers[id(grid)]))

    calls = {
        "residual": lambda s: solver._interior_residual(s[0], s[1], s[2], s[4]),
        "jacobian_table": lambda s: solver._jacobian_table(s[0], s[1], s[2],
                                                           s[3]),
        "linear_solve": lambda s: s[7](s[5], -s[6]),
    }

    def sweep(call):
        def run():
            for s in prepared:
                call(s)
        return run
    return {layer: sweep(calls[layer]) for layer in LAYERS}


def _field_diff(first: list, other: list):
    """Largest |difference| over the fields of two runs of one case, or
    None when they solved different grids."""
    if len(first) != len(other) or any(a.shape != b.shape
                                       for a, b in zip(first, other)):
        return None
    return max(float(abs(a - b).max()) for a, b in zip(first, other))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", nargs="+", default=[ROOT],
                        help="checkout roots to run, each with a src/ directory")
    parser.add_argument("--sweeps", type=int, default=40,
                        help="timed sweeps per layer, checkouts alternating")
    args = parser.parse_args(argv)
    if args.sweeps < 1:
        parser.error("--sweeps must be at least 1")

    srcs = [os.path.abspath(src) for src in args.src]
    labs = [load_checkout(src, f"lab{i}") for i, src in enumerate(srcs)]
    report = {"src": srcs, "sweeps": args.sweeps}
    for case in CASES:
        runs = [_run_case(lab, case) for lab in labs]
        sweeps = [_layer_sweeps(lab, steps)
                  for lab, (_, steps) in zip(labs, runs)]
        entry = {"steps": [len(steps) for _, steps in runs],
                 "field_max_diff": [_field_diff(runs[0][0], fields)
                                    for fields, _ in runs[1:]]}
        for layer in LAYERS:
            rows = paired([calls[layer] for calls in sweeps], args.sweeps)
            entry[layer] = {
                "us_per_step": [1e6 * row["median_s"] / len(steps)
                                for row, (_, steps) in zip(rows, runs)],
                "lower_than_first_in": [row["lower_than_first_in"]
                                        for row in rows[1:]]}
        report[case] = entry
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
