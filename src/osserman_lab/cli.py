"""Config-driven experiment runner.

Subcommands: verify-barrier, solve, entire, check-hamiltonian, oracle.
``entire`` with a second boundary is the two-solution separation
experiment behind the uniqueness result. Every command reads its inputs
from the ``--config`` file alone. Each command computes its
results and writes nothing; ``main`` then writes its CSV data files, a
JSON summary (with the package version, parameters and seed) and an echo
of the config into the output directory, so a run that
stops with an error leaves no files.
Identical config + seed reproduce the outputs byte for byte. Exit codes:
0 all checks pass, 1 check failure or numerical error, 2 config/schema
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .barrier import barrier_constants, verify_barrier_inequality
from .config import (OBJECT, REAL, ConfigError, above, build_boundary,
                     build_grid, build_hamiltonian, build_problem, dimension,
                     integer, load_config, node_budget, one_of, read)
from .core import GridError, build_ball_grid, origin
from .entire import construct_entire, fit_decay_exponent, separation_table
from .operators import (CONDITIONS, MetadataError, check_hamiltonian,
                        sample_workspace)
from .solver import NumericalError, solve_dirichlet
from .uniqueness import delta_s_oracle


_CSV_ROWS = 4096  # rows joined and written at a time


def _column_cells(col):
    """A function of a row range (lo, hi) that returns the text of a
    column's cells in it, by the column's dtype: floats as "%.17g",
    booleans as true/false, anything else (integers, text) by ``str``. A
    float column formats each distinct bit pattern once, here (lattice
    coordinates and radial values repeat), and gathers its cells by range;
    the bits keep -0.0 apart from 0.0."""
    col = np.asarray(col)
    if col.dtype.kind == "b":
        return lambda lo, hi: np.where(col[lo:hi], "true", "false").tolist()
    if col.dtype.kind == "f":
        # return_index makes np.unique argsort stably: its default
        # quicksort pages in ~0.3 MiB of code a solve never runs
        bits, _, inverse = np.unique(col.view(f"i{col.itemsize}"),
                                     return_index=True, return_inverse=True)
        text = np.array(["%.17g" % v for v in bits.view(col.dtype).tolist()],
                        dtype=object)
        return lambda lo, hi: text[inverse[lo:hi]].tolist()
    return lambda lo, hi: list(map(str, col[lo:hi].tolist()))


def _write_csv(path: str, header, columns):
    """Write one CSV table given column by column, `_CSV_ROWS` rows at a
    time, so that no more than a block's cells are text at once."""
    rows = min(map(len, columns), default=0)
    cells = [_column_cells(col) for col in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, _CSV_ROWS):
            block = zip(*(cell(lo, lo + _CSV_ROWS) for cell in cells))
            fh.write("\n".join(map(",".join, block)) + "\n")


def _write_json(path: str, obj: dict):
    # numpy arrays and scalars become Python values; np.float64 subclasses
    # float and is written as one without the hook
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=lambda o: o.tolist())
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each takes (cfg, seed), reads each of its own sections of the
# config once (config.read) and computes (echo, summary, tables), writing
# nothing. echo is config.json: the resolved section (verify-barrier, oracle)
# or the config as given; summary holds the results for summary.json, whose
# "parameters" default to the echo; tables maps each CSV file name to
# (header, columns).
# ---------------------------------------------------------------------------

_ZERO_DATA = {"tag": "constant", "value": 0.0}  # the default boundary data


def _cmd_verify_barrier(cfg, seed: int):
    """Sweep the barrier inequality."""
    params = read(cfg.get("barrier"), "barrier", n=integer(1), lam=(REAL, None),
                  **dict.fromkeys("s m Lam gamma1 gamma delta R h".split(), REAL))
    del params["lam"]  # accepted and unused: the barrier's P+ uses only Lam
    params["n"] = dimension(cfg)
    try:
        spec = barrier_constants(**{k: v for k, v in params.items() if k != "h"})
    except ValueError as exc:
        raise ConfigError("barrier", str(exc))
    node_budget("barrier", params["R"], params["h"], params["n"])
    grid = build_ball_grid(None, 0.999 * params["R"], params["h"], params["n"])
    report = verify_barrier_inequality(spec, grid)
    res = report.extra["residuals"]
    header = ["node"] + [f"x{a}" for a in range(grid.n)] + ["residual"]
    summary = {"parameters": params, "passed": report.passed,
               "max_residual": report.extra["max_residual"],
               "worst_margin": report.worst_margin, "nodes": report.samples,
               "constants": {"mu": spec.mu, "a": spec.a, "b": spec.b,
                             "C_R": spec.C_R}}
    return {"barrier": params}, summary, {"residuals.csv": (
        header, [np.arange(len(res)), *grid.interior_nodes.T, res])}


def _cmd_solve(cfg, seed: int):
    """Dirichlet solve on a ball."""
    problem = build_problem(cfg)
    grid = build_grid(cfg)
    boundary = build_boundary(cfg.get("boundary", _ZERO_DATA), grid.n)
    sec = read(cfg.get("solve", {}), "solve", tol=(above(0.0), 1e-8),
               max_iter=(integer(1), 200000))
    field, report = solve_dirichlet(problem, grid, boundary, **sec)
    header = ["node"] + [f"x{a}" for a in range(grid.n)] + ["value"]
    summary = {"passed": report.converged, **report.row()}
    return cfg, summary, {"field.csv": (
        header, [np.arange(len(grid.nodes)), *grid.nodes.T, field.values])}


def _cmd_entire(cfg, seed: int):
    """Expanding-ball construction; with boundary2 also the two-solution
    separation experiment."""
    problem = build_problem(cfg)
    n = dimension(cfg)
    sec = read(cfg.get("entire"), "entire", k_max=integer(1), h=REAL,
               n=(integer(1), 1), tol=(above(0.0), 1e-8),
               max_iter=(integer(1), 2000000), separation_radius=(above(0.0), 1.0),
               boundary=(OBJECT, _ZERO_DATA), boundary2=(OBJECT, None))
    boundaries = [build_boundary(sec[key], n, f"entire.{key}")
                  for key in ("boundary", "boundary2") if sec[key] is not None]
    node_budget("entire", sec["k_max"], sec["h"], n, grids=sec["k_max"])
    runs = construct_entire(problem, sec["k_max"], boundaries, sec["tol"],
                            sec["h"], sec["max_iter"], center=origin(n))
    flagged = any(run.flagged for run in runs)
    # one row per boundary data and radius k: that solve's Newton report
    solves = [{"boundary": b, "k": k, **rep.row()} for b, run in enumerate(runs)
              for k, rep in zip(run.radii, run.reports)]
    header = ["k", "k_next", "j", "sup_diff"]
    summary = {"passed": not flagged, "flagged": flagged, "solves": solves}
    tables = {"stabilization.csv": (
        header, [[r[key] for r in runs[0].stabilization] for key in header])}
    if len(runs) == 2:
        # sup_{B_r}|u_k - v_k| per radius k, r the separation_radius
        table = separation_table(*runs, sec["separation_radius"])
        radii = [row["k"] for row in table]
        seps = [row["separation"] for row in table]
        summary["separation"] = {"radii": radii, "values": seps}
        tables["separation.csv"] = (["k", "separation"], [radii, seps])
        try:
            summary["fitted_decay_exponent"] = fit_decay_exponent(radii, seps)
        except ValueError:
            summary["fitted_decay_exponent"] = None
    return cfg, summary, tables


def _cmd_check_hamiltonian(cfg, seed: int):
    """Structure-condition sweep of the top-level hamiltonian."""
    sec = read(cfg.get("check"), "check", condition=(one_of(CONDITIONS), None),
               samples=(integer(1, 10**7), 1000000))
    # the checkers draw their points and gradients in 2D
    H = build_hamiltonian(cfg.get("hamiltonian"), 2, "hamiltonian")
    conditions = [sec["condition"]] if sec["condition"] else list(H.claims)
    # one generator and one set of sample buffers for every condition
    rng = np.random.default_rng(seed)
    workspace = sample_workspace(sec["samples"])
    reports = [check_hamiltonian(H, c, sec["samples"], rng, workspace=workspace)
               for c in conditions]
    summary = {"passed": all(r.passed for r in reports),
               "margins": {c: r.worst_margin for c, r in zip(conditions, reports)}}
    return cfg, summary, {"margins.csv": (
        ["condition", "samples", "worst_margin", "passed"],
        [conditions, [r.samples for r in reports],
         [r.worst_margin for r in reports], [r.passed for r in reports]])}


def _cmd_oracle(cfg, seed: int):
    """The delta(s) infimum oracle."""
    params = read(cfg.get("oracle"), "oracle", s=above(1.0),
                  samples=(integer(10, 10**6), 20000))
    value = delta_s_oracle(**params)
    candidate = 2.0 ** (1.0 - params["s"])
    summary = {"parameters": params, "passed": True, "delta_s": value,
               "candidate": candidate, "abs_difference": abs(value - candidate)}
    return {"oracle": params}, summary, {}


# ---------------------------------------------------------------------------

@functools.cache  # built on first use, not at import
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON config file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="osserman-lab",
        description="Numerical laboratory for entire solutions of fully "
                    "nonlinear uniformly elliptic equations")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: a misspelt or removed option fails instead of
    # silently meaning another one
    for name, command in _DISPATCH.items():
        sub.add_parser(name, parents=[common], help=command.__doc__,
                       allow_abbrev=False)
    return parser


_DISPATCH = {
    "verify-barrier": _cmd_verify_barrier,
    "solve": _cmd_solve,
    "entire": _cmd_entire,
    "check-hamiltonian": _cmd_check_hamiltonian,
    "oracle": _cmd_oracle,
}


def _existing_ancestor(path: str) -> str:
    """``path`` if it exists, else its nearest existing ancestor: the one
    path that decides whether ``os.makedirs(path)`` can succeed."""
    path = os.path.abspath(path)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return path


def main(argv=None) -> int:
    """Run one subcommand; only here is anything written to ``--out``, and
    only once the command has finished."""
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            raise ConfigError("--config", "this command requires a config file")
        if args.seed < 0:
            raise ConfigError("--seed", "must be a nonnegative integer")
        if not args.out:
            raise ConfigError("--out", "must name a directory")
        blocker = _existing_ancestor(args.out)
        if not os.path.isdir(blocker):
            raise ConfigError("--out", f"{blocker!r} exists and is not a "
                              "directory")
        echo, results, tables = _DISPATCH[args.command](
            load_config(args.config), args.seed)
    except (ConfigError, GridError, MetadataError) as exc:
        where = " at" if isinstance(exc, ConfigError) else ":"  # "key: message"
        print(f"config error{where} {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    summary = {"command": args.command, "version": __version__,
               "seed": args.seed, "parameters": echo, **results}
    os.makedirs(args.out, exist_ok=True)
    for name, (header, columns) in tables.items():
        _write_csv(os.path.join(args.out, name), header, columns)
    _write_json(os.path.join(args.out, "config.json"), echo)
    _write_json(os.path.join(args.out, "summary.json"), summary)
    if not args.quiet:
        print(f"[{args.command}] {'PASS' if summary['passed'] else 'FAIL'}")
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
