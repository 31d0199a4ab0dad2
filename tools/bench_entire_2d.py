"""Time a 2D expanding-ball run, radius by radius, on one or more checkouts.

    python3 tools/bench_entire_2d.py [--src CHECKOUT ...] [--runs 3]

The run is the CLI command ``entire`` (``cli.main``) on B_1..B_8 at spacing
h = 0.1 and h = 0.05 for Pucci+ with lam = Lam = 1, H = |p|^2, s = 3, f = 0
and boundary data 100, with tol 1e-8. Each (h, run, checkout) runs in a
fresh child process that imports the package from ``CHECKOUT/src``
(default: this script's checkout), with BLAS and OpenMP threads set to 1;
the checkouts' order alternates from run to run. The child times each
Dirichlet solve by binding a timer over ``entire.solve_dirichlet``, which
also keeps each solve's field and report, and reports per radius the
interior node count, Newton steps, backtracks, final residual and seconds,
plus the wall time of the whole command and the child's peak RSS. One
peak-RSS reading varies by several MiB between runs of the same code, so
each checkout runs ``--runs`` times per h.

Each child's report is printed as it finishes. The last line of standard
output is one JSON object: per h and checkout, the median, minimum and
maximum of the runs' wall time and peak RSS, their Newton steps (a list if
the runs disagree) and every run's report; and, with two or more
checkouts, the largest difference of each checkout's final field from the
first one's (None if the runs stopped at different radii).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from harness import ROOT, peak_rss_mb, run_child

SPACINGS = (0.1, 0.05)
K_MAX, DATA, TOL, MAX_ITER = 8, 100.0, 1e-8, 5_000_000
PROBLEM = {"s": 3.0, "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": 1.0},
           "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0, "m": 2.0,
                           "n": 2}}


def _child(h: float, field_file: str) -> dict:
    import tempfile

    import numpy as np

    from osserman_lab import cli, entire

    solves = []  # (field, report, seconds) per Dirichlet solve
    solve = entire.solve_dirichlet

    def timed_solve(*args, **kwargs):
        start = time.perf_counter()
        result = solve(*args, **kwargs)
        solves.append((*result, time.perf_counter() - start))
        return result

    entire.solve_dirichlet = timed_solve
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "entire.json")
        with open(config, "w") as fh:
            json.dump({"problem": PROBLEM, "entire": {
                "k_max": K_MAX, "h": h, "tol": TOL, "max_iter": MAX_ITER,
                "n": 2, "boundary": {"tag": "constant", "value": DATA}}}, fh)
        start = time.perf_counter()
        cli.main(["entire", "--config", config, "--out",
                  os.path.join(tmp, "out"), "--quiet"])
        wall = time.perf_counter() - start
    peak = peak_rss_mb()
    np.save(field_file, solves[-1][0].values)
    radii = [{"k": k, "unknowns": f.grid.n_interior,
              "iterations": rep.iterations, "backtracks": rep.backtracks,
              "final_residual": rep.final_residual, "seconds": s}
             for k, (f, rep, s) in enumerate(solves, start=1)]
    return {"h": h, "flagged": not solves[-1][1].converged,
            "steps": sum(r["iterations"] for r in radii),
            "solve_s": sum(s for _, _, s in solves), "wall_s": wall,
            "peak_rss_mb": peak, "radii": radii}


def _spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", nargs="+", default=[ROOT],
                        help="checkout roots to run, each with a src/ directory")
    parser.add_argument("--runs", type=int, default=3,
                        help="fresh children per checkout and h, order alternating")
    parser.add_argument("--child", nargs=2, metavar=("H", "FIELD"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        h, field_file = args.child
        print(json.dumps(_child(float(h), field_file)))
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    import tempfile

    import numpy as np

    srcs = [os.path.abspath(src) for src in args.src]
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        field_files = [os.path.join(tmp, f"field{i}.npy")
                       for i in range(len(srcs))]
        for h in SPACINGS:
            runs = {src: [] for src in srcs}
            for r in range(args.runs):
                for i in (range(len(srcs)) if r % 2 == 0
                          else reversed(range(len(srcs)))):
                    row = run_child(__file__, ["--child", str(h),
                                               field_files[i]], srcs[i])
                    print(json.dumps({"src": srcs[i], "run": r, **row}),
                          flush=True)
                    runs[srcs[i]].append(row)
            entry = {}
            for src, rows in runs.items():
                steps = sorted({row["steps"] for row in rows})
                entry[src] = {
                    "steps": steps[0] if len(steps) == 1 else steps,
                    "wall_s": _spread([row["wall_s"] for row in rows]),
                    "peak_rss_mb": _spread([row["peak_rss_mb"] for row in rows]),
                    "runs": rows}
            if len(srcs) > 1:
                # the last run's fields; None when a flagged run stopped at
                # another radius
                fields = [np.load(f) for f in field_files]
                entry["field_max_diff"] = {
                    src: float(np.abs(f - fields[0]).max())
                    if f.shape == fields[0].shape else None
                    for src, f in zip(srcs[1:], fields[1:])}
            report[str(h)] = entry
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
