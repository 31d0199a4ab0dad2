"""Time the CLI's own work per call on one or more checkouts.

    python3 tools/bench_cli_overhead.py [--src CHECKOUT ...]

Two costs of ``osserman_lab.cli`` are timed, apart from the mathematics:

- the argument parser: one first ``_build_parser()`` call, and the
  parser's part of every ``main`` call, ``_build_parser().parse_args(argv)``
  for a ``verify-barrier --config ... --out ... --quiet`` argv, as the
  median of many calls;
- ``_write_csv`` on three tables the commands return: the
  ``verify-barrier`` ``residuals.csv`` for R = 4, h = 0.04 (31,341 rows),
  the ``solve`` ``field.csv`` of the benchmark's 2D solve (radius 1.2,
  h = 0.05, 1,981 rows), and the ``entire`` ``stabilization.csv`` and
  ``separation.csv`` of the benchmark's 1D expanding-ball run (k = 1..4,
  h = 0.04, data 0 and 100). Each is reported as the median seconds per
  call over repeated writes and in µs per row, with the SHA-256 of the
  written file.

Each checkout runs in a fresh child process that imports the package from
``CHECKOUT/src`` (default: this script's checkout), with BLAS and OpenMP
threads set to 1. Each child's report is printed as it finishes. The last
line of standard output is one JSON object: the report of every checkout
in the order given and, with two or more checkouts, whether every table's
file is byte-identical to the first checkout's.

The child calls each command as ``cli._DISPATCH[command](cfg, seed)``, so a
checkout whose commands still took the parsed arguments as well (before
every command read its inputs from the config file alone) cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from harness import ROOT, peak_rss_mb, run_child

BARRIER_ARGV = ["verify-barrier", "--config", "barrier.json", "--out", "out",
                "--quiet"]
BARRIER_CFG = {
    "barrier": {"s": 3.0, "m": 2.0, "n": 2, "Lam": 1.0, "gamma1": 0.0,
                "gamma": 1.0, "delta": 1.0, "R": 4.0, "h": 0.04},
}
SOLVE_CFG = {
    "problem": {"s": 2.0,
                "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": 2.0},
                "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0,
                                "m": 2.0, "n": 2},
                "f": {"tag": "zero"}},
    "grid": {"n": 2, "radius": 1.2, "h": 0.05},
    "boundary": {"tag": "constant", "value": 10.0},
    "solve": {"tol": 1e-8, "max_iter": 2_000_000},
}
ENTIRE_CFG = {
    "problem": {"s": 3.0,
                "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": 1.0},
                "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0,
                                "m": 2.0, "n": 1},
                "f": {"tag": "zero"}},
    "entire": {"k_max": 4, "h": 0.04, "tol": 1e-8, "max_iter": 5_000_000,
               "n": 1, "boundary": {"tag": "constant", "value": 0.0},
               "boundary2": {"tag": "constant", "value": 100.0}},
}
MIN_REPEATS, MAX_REPEATS, MIN_SECONDS = 5, 2000, 1.0


def _median_seconds(call) -> tuple[float, int]:
    """Median seconds of ``call()`` over at least MIN_REPEATS calls that
    together take MIN_SECONDS, at most MAX_REPEATS; and the call count."""
    times = []
    while len(times) < MIN_REPEATS or (sum(times) < MIN_SECONDS
                                       and len(times) < MAX_REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times)


def _child(tmp: str) -> dict:
    import hashlib

    from osserman_lab import cli

    start = time.perf_counter()
    cli._build_parser()
    first_build = time.perf_counter() - start
    parse, parse_calls = _median_seconds(
        lambda: cli._build_parser().parse_args(BARRIER_ARGV))

    tables = {}
    for command, cfg in (("verify-barrier", BARRIER_CFG), ("solve", SOLVE_CFG),
                         ("entire", ENTIRE_CFG)):
        for name, table in cli._DISPATCH[command](cfg, 0)[2].items():
            tables[f"{command}/{name}"] = table

    writes = {}
    for key, (header, columns) in tables.items():
        path = os.path.join(tmp, key.replace("/", "-"))
        seconds, calls = _median_seconds(
            lambda: cli._write_csv(path, header, columns))
        with open(path, "rb") as fh:
            data = fh.read()
        rows = data.count(b"\n") - 1
        writes[key] = {"rows": rows, "bytes": len(data), "calls": calls,
                       "s_per_call": seconds, "us_per_row": 1e6 * seconds / rows,
                       "sha256": hashlib.sha256(data).hexdigest()}
    return {"first_build_parser_ms": 1e3 * first_build,
            "parse_per_main_us": 1e6 * parse, "parse_calls": parse_calls,
            "write_csv": writes, "peak_rss_mb": peak_rss_mb()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", nargs="+", default=[ROOT],
                        help="checkout roots to run, each with a src/ directory")
    parser.add_argument("--child", metavar="TMP", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0

    import tempfile

    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for src in args.src:
            row = run_child(__file__, ["--child", tmp], os.path.abspath(src))
            print(json.dumps({"src": src, **row}), flush=True)
            report[src] = row
    if len(args.src) > 1:
        first = report[args.src[0]]["write_csv"]
        report["identical"] = {
            src: all(report[src]["write_csv"][key]["sha256"] == w["sha256"]
                     for key, w in first.items())
            for src in args.src[1:]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
