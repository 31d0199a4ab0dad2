"""Time the layers of one Newton step on one or more checkouts.

    python3 tools/bench_newton_step.py [--src CHECKOUT ...] [--rounds 8]
                                       [--repeats 30]

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

Each (round, checkout) runs in a fresh child process that imports the
package from ``CHECKOUT/src`` (default: this script's checkout), with BLAS
and OpenMP threads set to 1; the checkouts' order alternates from round to
round. The child runs each case once, recording the state (iterate and
policy) of every Newton step through a wrapper bound over
``solver._jacobian_table``. It then times each layer over all recorded
steps in turn, ``--repeats`` times, and reports the median over the repeats
of the time per step in microseconds, with the case's Newton steps.

Each child's report is printed as it finishes. The last line of standard
output is one JSON object: per checkout and case, the Newton steps and the
median over the rounds of each layer's time per step, every round's
values, and, with two or more checkouts, the largest difference of each
checkout's final fields from the first one's (None where the grids
differ).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from harness import ROOT, run_child

CASES = ("entire-1d", "solve-2d")
LAYERS = ("residual", "jacobian_table", "linear_solve")


def _run_case(case: str):
    """Solve ``case``; return its final fields and the recorded steps as
    (problem, grid, iterate, policy) tuples."""
    from osserman_lab import entire, solver
    from osserman_lab.core import build_ball_grid
    from osserman_lab.operators import (EllipticityPair, hamiltonian_library,
                                        pucci_plus_operator)

    steps = []
    table = solver._jacobian_table

    def recording_table(problem, grid, vals, policy):
        steps.append((problem, grid, vals.copy(), policy))
        return table(problem, grid, vals, policy)

    solver._jacobian_table = recording_table
    try:
        if case == "entire-1d":
            problem = solver.ProblemSpec(
                F=pucci_plus_operator(EllipticityPair(1.0, 1.0)),
                H=hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=1),
                s=3.0, f=lambda x: 0.0)
            run = entire.construct_entire(problem, 4, lambda x: 100.0, 1e-8,
                                          0.04, 5_000_000)
            fields = [f.values for f in run.fields]
        else:
            problem = solver.ProblemSpec(
                F=pucci_plus_operator(EllipticityPair(1.0, 2.0)),
                H=hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=2),
                s=2.0, f=lambda x: 0.0)
            grid = build_ball_grid([0.0, 0.0], 1.2, 0.05, 2)
            field, _ = solver.solve_dirichlet(problem, grid, lambda x: 10.0,
                                              1e-8, 2_000_000)
            fields = [field.values]
    finally:
        solver._jacobian_table = table
    return fields, steps


def _time_layers(steps, repeats: int) -> dict:
    """Median over ``repeats`` sweeps of each layer's seconds per step."""
    from osserman_lab import solver
    from osserman_lab.core import evaluate

    prepared = []
    solvers = {}
    for problem, grid, vals, policy in steps:
        if id(grid) not in solvers:  # built once per solve, as the solver does
            solvers[id(grid)] = solver._step_solver(grid)
        f_vals = evaluate(problem.f, grid.interior_nodes)
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
    per_step = {}
    for layer in LAYERS:
        call = calls[layer]
        for s in prepared:  # warm-up
            call(s)
        sweeps = []
        for _ in range(repeats):
            start = time.perf_counter()
            for s in prepared:
                call(s)
            sweeps.append((time.perf_counter() - start) / len(prepared))
        per_step[layer] = statistics.median(sweeps)
    return per_step


def _child(repeats: int, field_prefix: str) -> dict:
    import numpy as np

    report = {}
    for case in CASES:
        fields, steps = _run_case(case)
        np.savez(f"{field_prefix}-{case}.npz", *fields)
        us = {layer: 1e6 * s
              for layer, s in _time_layers(steps, repeats).items()}
        report[case] = {"steps": len(steps), "us_per_step": us,
                        "layers_us_per_step": sum(us.values())}
    return report


def _field_diff(first: str, other: str):
    """Largest |difference| over the fields of two runs of one case, or
    None when they solved different grids."""
    import numpy as np

    with np.load(first) as a, np.load(other) as b:
        if a.files != b.files or any(a[k].shape != b[k].shape for k in a.files):
            return None
        return max(float(np.abs(a[k] - b[k]).max()) for k in a.files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", nargs="+", default=[ROOT],
                        help="checkout roots to run, each with a src/ directory")
    parser.add_argument("--rounds", type=int, default=8,
                        help="fresh children per checkout, order alternating")
    parser.add_argument("--repeats", type=int, default=30,
                        help="timed sweeps over the recorded steps per layer")
    parser.add_argument("--child", nargs=2, metavar=("REPEATS", "PREFIX"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        repeats, prefix = args.child
        print(json.dumps(_child(int(repeats), prefix)))
        return 0
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be at least 1")

    import tempfile

    srcs = [os.path.abspath(src) for src in args.src]
    rounds = {src: [] for src in srcs}
    with tempfile.TemporaryDirectory() as tmp:
        prefixes = {src: os.path.join(tmp, f"fields{i}")
                    for i, src in enumerate(srcs)}
        for r in range(args.rounds):
            for src in (srcs if r % 2 == 0 else srcs[::-1]):
                row = run_child(__file__, ["--child", str(args.repeats),
                                           prefixes[src]], src)
                print(json.dumps({"src": src, "round": r, **row}), flush=True)
                rounds[src].append(row)
        report = {}
        for src in srcs:
            entry = {}
            for case in CASES:
                runs = [row[case] for row in rounds[src]]
                entry[case] = {
                    "steps": runs[0]["steps"],
                    "us_per_step": {
                        layer: statistics.median(run["us_per_step"][layer]
                                                 for run in runs)
                        for layer in LAYERS},
                    "layers_us_per_step": statistics.median(
                        run["layers_us_per_step"] for run in runs),
                    "rounds": runs}
            report[src] = entry
        if len(srcs) > 1:
            report["field_max_diff"] = {
                src: {case: _field_diff(f"{prefixes[srcs[0]]}-{case}.npz",
                                        f"{prefixes[src]}-{case}.npz")
                      for case in CASES}
                for src in srcs[1:]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
