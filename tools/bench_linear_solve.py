"""Time one cold factor-and-solve of a first 2D Newton Jacobian: scipy's
``spsolve`` (COLAMD column ordering), the reference step, and the solver's
own ``factorize`` arm: the Jacobian in the grid's nested-dissection order
factored by ``solver._factorize`` (SuperLU, panel size 1, relax 1).

    python3 tools/bench_linear_solve.py [--repeats 3] [--cases small,mid,large]

Each (case, method, repeat) runs in a fresh child process with BLAS and
OpenMP threads set to 1. The child builds the grid, the cold initial guess,
its residual and the policy Jacobian (``solver._jacobian_pattern``, whose
rows and columns follow ``core.dissection_order``; the ``spsolve`` arm gets
it back in grid order), then times one factor-and-solve of
J d = -res. It reports the time, the child's peak RSS before and after that
call, the fill L.nnz + U.nnz (for ``spsolve`` that of ``splu`` with the
same COLAMD ordering, computed after the peak is read) and the time of one
``dissection_order`` call, which the solver pays once per solve. The cases:

- small: the perfbench ``solve-2d`` problem, Pucci+ (lam 1, Lam 2), H = |p|^2,
  s = 2, data 10 on B_1.2 at h = 0.05 (1,789 unknowns);
- mid: the same problem at h = 0.0125 (28,913 unknowns);
- large: Pucci+ (lam = Lam = 1), H = |p|^2, s = 3, data 100 on B_8 at
  h = 0.05, the largest ball of a 2D expanding-ball run (80,369 unknowns).

The last line of standard output is one JSON object: per case and method the
median time and peak RSS over the repeats and the fill; the median ordering
time; and, per method, the largest difference of its step from the
``spsolve`` step relative to that step's sup norm.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from harness import peak_rss_mb, run_child

# name: (Lam, s, boundary value, radius, h)
CASES = {
    "small": (2.0, 2.0, 10.0, 1.2, 0.05),
    "mid": (2.0, 2.0, 10.0, 1.2, 0.0125),
    "large": (1.0, 3.0, 100.0, 8.0, 0.05),
}
METHODS = ("spsolve", "factorize")


def _child(case: str, method: str, step_file: str) -> dict:
    import numpy as np
    from scipy.sparse.linalg import splu, spsolve

    from osserman_lab.config import build_problem
    from osserman_lab.core import build_ball_grid, dissection_order, evaluate
    from osserman_lab.solver import (_factorize, _initial_guess,
                                     _interior_residual, _jacobian_pattern,
                                     _jacobian_table)

    Lam, s, value, radius, h = CASES[case]
    problem = build_problem({"problem": {
        "s": s, "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": Lam},
        "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0,
                        "n": 2}}})
    grid = build_ball_grid([0.0, 0.0], radius, h, 2)
    ni = grid.n_interior
    vals = np.empty(len(grid.nodes))
    vals[ni:] = evaluate(lambda x: value, grid.projections)
    vals[:ni] = _initial_guess(grid, lambda x: value, vals[ni:])
    res, policy = _interior_residual(problem, grid, vals, np.zeros(ni))
    start = time.perf_counter()
    dissection_order(grid)
    order_s = time.perf_counter() - start
    J, slot, order = _jacobian_pattern(grid)
    J.data[:] = _jacobian_table(problem, grid, vals, policy).ravel()[slot]
    if method == "spsolve":  # back to grid order
        rank = np.empty(ni, dtype=np.int64)
        rank[order] = np.arange(ni)
        J = J[rank][:, rank].tocsc()
        J.sort_indices()

    rss_before = peak_rss_mb()
    start = time.perf_counter()
    if method == "spsolve":
        step = spsolve(J, -res)
    else:
        lu = _factorize(J)
        step = np.empty(ni)
        step[order] = lu.solve(-res[order])
    seconds = time.perf_counter() - start
    rss_after = peak_rss_mb()
    if method == "spsolve":
        lu = splu(J)  # COLAMD, spsolve's ordering
    np.save(step_file, step)
    return {"case": case, "method": method, "unknowns": ni,
            "seconds": seconds, "fill": int(lu.L.nnz + lu.U.nnz),
            "order_s": order_s, "peak_rss_before_mb": rss_before,
            "peak_rss_mb": rss_after}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--cases", default=",".join(CASES))
    parser.add_argument("--child", nargs=3, metavar=("CASE", "METHOD", "STEP"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(*args.child)))
        return 0

    import tempfile

    import numpy as np

    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in args.cases.split(","):
            runs = {m: [] for m in METHODS}
            for rep in range(args.repeats):
                # alternate which method starts, so drift falls on both
                for method in METHODS if rep % 2 == 0 else METHODS[::-1]:
                    step_file = os.path.join(tmp, f"{method}.npy")
                    row = run_child(__file__, ["--child", case, method, step_file])
                    runs[method].append(row)
                    print(json.dumps(row), flush=True)
            ref = np.load(os.path.join(tmp, f"{METHODS[0]}.npy"))
            entry = {"unknowns": runs[METHODS[0]][0]["unknowns"],
                     "order_s": statistics.median(
                         r["order_s"] for r in runs["factorize"]),
                     "step_rel_diff": {
                         m: float(np.abs(np.load(os.path.join(tmp, f"{m}.npy"))
                                         - ref).max() / np.abs(ref).max())
                         for m in METHODS[1:]}}
            for method, rows in runs.items():
                entry[method] = {
                    "seconds": [r["seconds"] for r in rows],
                    "median_s": statistics.median(r["seconds"] for r in rows),
                    "fill": rows[0]["fill"],
                    "peak_rss_before_mb": statistics.median(
                        r["peak_rss_before_mb"] for r in rows),
                    "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rows)}
            report[case] = entry
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
