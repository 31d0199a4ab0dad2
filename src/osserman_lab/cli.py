"""Config-driven experiment runner.

Subcommands: verify-barrier, solve, entire, check-hamiltonian, oracle.
``entire`` with a second boundary is the two-solution separation
experiment behind the uniqueness result. Every command reads its inputs
from the ``--config`` file alone. Each command computes its
results and writes nothing; ``main`` then writes its CSV data files, a
JSON summary (with the package version, resolved parameters and seed) and
an echo of the resolved config into the output directory, so a run that
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
from .config import (ConfigError, _section, build_boundary, build_grid,
                     build_problem, build_hamiltonian, check_dimension, count,
                     load_config, number, positive)
from .core import GridError, build_ball_grid
from .entire import construct_entire, fit_decay_exponent, separation_table
from .operators import CONDITIONS, MetadataError, check_hamiltonian
from .solver import NumericalError, solve_dirichlet
from .uniqueness import delta_s_oracle


def _write_csv(path: str, header, columns):
    """Write one CSV table given column by column.

    Each column is turned into text once, by its dtype: floats as "%.17g",
    booleans as true/false, anything else (integers, text) by ``str``. A
    float column formats each distinct bit pattern once (lattice
    coordinates and radial values repeat), then gathers its cells; the
    bits keep -0.0 apart from 0.0. The rows are then joined as text.
    """
    cells = []
    for col in columns:
        col = np.asarray(col)
        if col.dtype.kind == "b":
            cells.append(np.where(col, "true", "false").tolist())
        elif col.dtype.kind == "f":
            # return_index makes np.unique argsort stably: its default
            # quicksort pages in ~0.3 MiB of code a solve never runs
            bits, _, inverse = np.unique(col.view(f"i{col.itemsize}"),
                                         return_index=True,
                                         return_inverse=True)
            text = ["%.17g" % v for v in bits.view(col.dtype).tolist()]
            cells.append(np.array(text, dtype=object)[inverse].tolist())
        else:
            cells.append(list(map(str, col.tolist())))
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, obj: dict):
    # numpy arrays and scalars become Python values; np.float64 subclasses
    # float and is written as one without the hook
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=lambda o: o.tolist())
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each takes (cfg, seed), reads its own sections of the config
# and computes (echo, summary, tables), writing nothing. echo is the resolved
# config for config.json; summary holds the results for summary.json, whose
# "parameters" default to the echo; tables maps each CSV file name to
# (header, columns).
# ---------------------------------------------------------------------------

_ZERO_DATA = {"tag": "constant", "value": 0.0}  # the default boundary data


def _cmd_verify_barrier(cfg, seed: int):
    """Sweep the barrier inequality."""
    sec = _section(cfg, "barrier")
    constants = {key: number(sec, key, "barrier")
                 for key in ("s", "m", "Lam", "gamma1", "gamma", "delta", "R")}
    constants["n"] = count(sec, "n", "barrier", 1)
    params = {**constants, "h": number(sec, "h", "barrier")}
    try:
        spec = barrier_constants(**constants)
    except ValueError as exc:
        raise ConfigError("barrier", str(exc))
    grid = build_ball_grid([0.0] * params["n"], 0.999 * params["R"],
                           params["h"], params["n"])
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
    data = {"boundary": _section(cfg, "boundary", default=_ZERO_DATA)}
    boundary = build_boundary(data["boundary"])
    check_dimension(cfg, grid.n, data)
    sec = _section(cfg, "solve", default={})
    tol = positive(sec, "tol", "solve", default=1e-8)
    max_iter = count(sec, "max_iter", "solve", 1, default=200000)
    field, report = solve_dirichlet(problem, grid, boundary, tol, max_iter)
    header = ["node"] + [f"x{a}" for a in range(grid.n)] + ["value"]
    summary = {"passed": report.converged, "iterations": report.iterations,
               "final_residual": report.final_residual,
               "backtracks": report.backtracks, "converged": report.converged}
    return cfg, summary, {"field.csv": (
        header, [np.arange(len(grid.nodes)), *grid.nodes.T, field.values])}


def _cmd_entire(cfg, seed: int):
    """Expanding-ball construction; with boundary2 also the two-solution
    separation experiment."""
    problem = build_problem(cfg)
    sec = _section(cfg, "entire")
    k_max = count(sec, "k_max", "entire", 1)
    n = count(sec, "n", "entire", 1, default=1)
    data = {"entire.boundary": _section(sec, "boundary", "entire", _ZERO_DATA)}
    if "boundary2" in sec:
        data["entire.boundary2"] = _section(sec, "boundary2", "entire")
    boundaries = [build_boundary(b, path) for path, b in data.items()]
    check_dimension(cfg, n, data)
    h = number(sec, "h", "entire")
    tol = positive(sec, "tol", "entire", default=1e-8)
    max_iter = count(sec, "max_iter", "entire", 1, default=2000000)
    radius = positive(sec, "separation_radius", "entire", default=1.0)
    runs = construct_entire(problem, k_max, boundaries, tol, h, max_iter,
                            center=[0.0] * n)
    flagged = any(run.flagged for run in runs)
    # one row per boundary data and radius k: that solve's Newton report;
    # wall times stay out, so reruns still write identical files
    solves = [{"boundary": b, "k": k, "iterations": rep.iterations,
               "backtracks": rep.backtracks,
               "final_residual": rep.final_residual,
               "converged": rep.converged}
              for b, run in enumerate(runs)
              for k, rep in zip(run.radii, run.reports)]
    header = ["k", "k_next", "j", "sup_diff"]
    summary = {"passed": not flagged, "flagged": flagged, "solves": solves}
    tables = {"stabilization.csv": (
        header, [[r[key] for r in runs[0].stabilization] for key in header])}
    if len(runs) == 2:
        # sup_{B_r}|u_k - v_k| per radius k, r the separation_radius
        table = separation_table(*runs, radius)
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
    sec = _section(cfg, "check")
    hamiltonian = _section(cfg, "hamiltonian")
    H = build_hamiltonian(hamiltonian, "hamiltonian")
    if hamiltonian.get("n", 2) != 2:
        raise ConfigError("hamiltonian.n", "must be 2: the checkers sample in 2D")
    if "condition" in sec and sec["condition"] not in CONDITIONS:
        raise ConfigError("check.condition",
                          f"unknown condition {sec['condition']!r}")
    samples = count(sec, "samples", "check", 1, default=1000000)
    conditions = [sec["condition"]] if "condition" in sec else list(H.claims)
    rng = np.random.default_rng(seed)
    reports = [check_hamiltonian(H, cond, samples, rng=rng) for cond in conditions]
    summary = {"passed": all(r.passed for r in reports),
               "margins": {c: r.worst_margin for c, r in zip(conditions, reports)}}
    return cfg, summary, {"margins.csv": (
        ["condition", "samples", "worst_margin", "passed"],
        [conditions, [r.samples for r in reports],
         [r.worst_margin for r in reports], [r.passed for r in reports]])}


def _cmd_oracle(cfg, seed: int):
    """The delta(s) infimum oracle."""
    sec = _section(cfg, "oracle")
    s = number(sec, "s", "oracle")
    if s <= 1.0:
        raise ConfigError("oracle.s", "s must exceed 1")
    params = {"s": s, "samples": count(sec, "samples", "oracle", 10,
                                       default=20000)}
    value = delta_s_oracle(s, params["samples"])
    candidate = 2.0 ** (1.0 - s)
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
    except ConfigError as exc:
        print(f"config error at {exc.key}: {exc.message}", file=sys.stderr)
        return 2
    except (GridError, MetadataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
