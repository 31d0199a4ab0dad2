"""Config-driven experiment runner.

Subcommands: verify-barrier, solve, entire, uniqueness, check-hamiltonian,
oracle. Every run emits CSV data files, a JSON summary (with the package
version, resolved parameters and seed) and an echo of the resolved config
into the output directory; identical config + seed reproduce the outputs
byte for byte. Exit codes: 0 all checks pass, 1 check failure or numerical
error, 2 config/schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .barrier import barrier_constants, verify_barrier_inequality
from .config import (ConfigError, build_boundary, build_grid, build_problem,
                     build_hamiltonian, check_operator_dimension, load_config,
                     _number)
from .core import build_ball_grid
from .entire import construct_entire, fit_decay_exponent, separation_table
from .operators import check_hamiltonian
from .solver import NumericalError, solve_dirichlet
from .uniqueness import delta_s_oracle, two_solution_experiment


def _write_csv(path: str, header, columns):
    """Write one CSV table given column by column.

    Each column's format follows from its dtype, decided once: floats as
    "%.17g", integers as "%d", booleans as true/false, anything else as
    text.
    """
    formats, cells = [], []
    for col in columns:
        col = np.asarray(col)
        if col.dtype.kind == "b":
            col = np.where(col, "true", "false")
        formats.append({"f": "%.17g", "i": "%d", "u": "%d"}.get(col.dtype.kind, "%s"))
        cells.append(col.tolist())
    line = ",".join(formats) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*cells))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_json(path: str, obj: dict):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit(out: str, resolved: dict, summary: dict, quiet: bool):
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "config.json"), resolved)
    _write_json(os.path.join(out, "summary.json"), summary)
    if not quiet:
        status = "PASS" if summary.get("passed", False) else "FAIL"
        print(f"[{summary['command']}] {status}")


def _base_summary(command: str, seed: int, resolved: dict) -> dict:
    return {"command": command, "version": __version__, "seed": seed,
            "parameters": resolved}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify_barrier(args, cfg, out: str, seed: int, quiet: bool) -> int:
    section = dict(cfg.get("barrier", {})) if cfg else {}
    for key in ("s", "m", "n", "Lam", "gamma1", "gamma", "delta", "R", "h"):
        flag = getattr(args, key, None)
        if flag is not None:
            section[key] = flag
    params = {
        "s": _number(section, "s", "barrier"),
        "m": _number(section, "m", "barrier"),
        "n": int(_number(section, "n", "barrier")),
        "Lam": _number(section, "Lam", "barrier"),
        "gamma1": _number(section, "gamma1", "barrier"),
        "gamma": _number(section, "gamma", "barrier"),
        "delta": _number(section, "delta", "barrier"),
        "R": _number(section, "R", "barrier"),
        "h": _number(section, "h", "barrier"),
    }
    if params["s"] <= 1.0:
        raise ConfigError("barrier.s", "s must exceed 1")
    if not 1.0 <= params["m"] < params["s"]:
        raise ConfigError("barrier.m", "need 1 <= m < s")
    try:
        spec = barrier_constants(s=params["s"], m=params["m"], n=params["n"],
                                 Lam=params["Lam"], gamma1=params["gamma1"],
                                 gamma=params["gamma"], delta=params["delta"],
                                 R=params["R"])
    except ValueError as exc:
        raise ConfigError("barrier", str(exc))
    grid = build_ball_grid([0.0] * params["n"], 0.999 * params["R"],
                           params["h"], params["n"])
    report = verify_barrier_inequality(spec, grid)
    res = report.extra["residuals"]
    header = ["node"] + [f"x{a}" for a in range(params["n"])] + ["residual"]
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "residuals.csv"), header,
               [np.arange(len(res)), *grid.interior_nodes.T, res])
    summary = _base_summary("verify-barrier", seed, params)
    summary.update({"passed": report.passed, "max_residual": report.extra["max_residual"],
                    "worst_margin": report.worst_margin, "nodes": report.samples,
                    "constants": {"mu": spec.mu, "a": spec.a, "b": spec.b,
                                  "C_R": spec.C_R}})
    _emit(out, {"barrier": params}, summary, quiet)
    return 0 if report.passed else 1


def _cmd_solve(args, cfg, out: str, seed: int, quiet: bool) -> int:
    problem = build_problem(cfg)
    grid = build_grid(cfg)
    check_operator_dimension(cfg, grid.n)
    boundary = build_boundary(cfg.get("boundary", {"tag": "constant", "value": 0.0}))
    sec = cfg.get("solve", {})
    tol = _number(sec, "tol", "solve", default=1e-8)
    max_iter = int(_number(sec, "max_iter", "solve", default=200000.0))
    field, report = solve_dirichlet(problem, grid, boundary, tol, max_iter)
    header = ["node"] + [f"x{a}" for a in range(grid.n)] + ["value"]
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "field.csv"), header,
               [np.arange(len(grid.nodes)), *grid.nodes.T, field.values])
    summary = _base_summary("solve", seed, cfg)
    summary.update({"passed": report.converged, "iterations": report.iterations,
                    "final_residual": report.final_residual,
                    "backtracks": report.backtracks,
                    "converged": report.converged})
    _emit(out, cfg, summary, quiet)
    return 0 if report.converged else 1


def _cmd_entire(args, cfg, out: str, seed: int, quiet: bool) -> int:
    problem = build_problem(cfg)
    sec = cfg.get("entire")
    if not isinstance(sec, dict):
        raise ConfigError("entire", "missing entire section")
    k_max = int(_number(sec, "k_max", "entire"))
    h = _number(sec, "h", "entire")
    tol = _number(sec, "tol", "entire", default=1e-8)
    max_iter = int(_number(sec, "max_iter", "entire", default=2000000.0))
    n = int(_number(sec, "n", "entire", default=1.0))
    check_operator_dimension(cfg, n)
    sep_radius = _number(sec, "separation_radius", "entire", default=1.0)
    g_a = build_boundary(sec.get("boundary", {"tag": "constant", "value": 0.0}),
                         "entire.boundary")
    run_a = construct_entire(problem, k_max, g_a, tol, h, max_iter,
                             center=[0.0] * n)
    os.makedirs(out, exist_ok=True)
    header = ["k", "k_next", "j", "sup_diff"]
    _write_csv(os.path.join(out, "stabilization.csv"), header,
               [[r[key] for r in run_a.stabilization] for key in header])
    summary = _base_summary("entire", seed, cfg)
    passed = not run_a.flagged
    if "boundary2" in sec:
        g_b = build_boundary(sec["boundary2"], "entire.boundary2")
        run_b = construct_entire(problem, k_max, g_b, tol, h, max_iter,
                                 center=[0.0] * n)
        passed = passed and not run_b.flagged
        table = separation_table(run_a, run_b, sep_radius)
        radii = [r["k"] for r in table]
        seps = [r["separation"] for r in table]
        _write_csv(os.path.join(out, "separation.csv"), ["k", "separation"],
                   [radii, seps])
        summary["separation"] = {"radii": radii, "values": seps}
        try:
            summary["fitted_decay_exponent"] = fit_decay_exponent(radii, seps)
        except ValueError:
            summary["fitted_decay_exponent"] = None
    summary["passed"] = passed
    summary["flagged"] = run_a.flagged
    _emit(out, cfg, summary, quiet)
    return 0 if passed else 1


def _cmd_uniqueness(args, cfg, out: str, seed: int, quiet: bool) -> int:
    problem = build_problem(cfg)
    check_operator_dimension(cfg, 1)  # two_solution_experiment solves in 1D
    sec = cfg.get("uniqueness")
    if not isinstance(sec, dict):
        raise ConfigError("uniqueness", "missing uniqueness section")
    radii = sec.get("radii")
    if not isinstance(radii, list) or not radii:
        raise ConfigError("uniqueness.radii", "must be a nonempty list")
    h = _number(sec, "h", "uniqueness")
    tol = _number(sec, "tol", "uniqueness", default=1e-8)
    max_iter = int(_number(sec, "max_iter", "uniqueness", default=2000000.0))
    pair_cfg = sec.get("boundary_pair")
    if not isinstance(pair_cfg, list) or len(pair_cfg) != 2:
        raise ConfigError("uniqueness.boundary_pair", "must be a list of two entries")
    pair = tuple(build_boundary(b, f"uniqueness.boundary_pair[{i}]")
                 for i, b in enumerate(pair_cfg))
    table = two_solution_experiment(problem, pair, radii, tol, h, max_iter,
                                    separation_radius=_number(
                                        sec, "separation_radius", "uniqueness",
                                        default=1.0))
    radii = [r["k"] for r in table]
    seps = [r["separation"] for r in table]
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "separation.csv"), ["k", "separation"],
               [radii, seps])
    summary = _base_summary("uniqueness", seed, cfg)
    summary.update({"passed": True,
                    "separation": {"radii": radii, "values": seps}})
    _emit(out, cfg, summary, quiet)
    return 0


def _cmd_check_hamiltonian(args, cfg, out: str, seed: int, quiet: bool) -> int:
    sec = cfg.get("check")
    if not isinstance(sec, dict):
        raise ConfigError("check", "missing check section")
    hsec = cfg.get("hamiltonian") or (cfg.get("problem") or {}).get("hamiltonian")
    if not isinstance(hsec, dict):
        raise ConfigError("hamiltonian", "missing hamiltonian section")
    H = build_hamiltonian(hsec, "hamiltonian")
    condition = sec.get("condition")
    samples = int(_number(sec, "samples", "check", default=1000000.0))
    conditions = [condition] if condition else list(H.claims)
    rng = np.random.default_rng(seed)
    reports = [check_hamiltonian(H, cond, samples, rng=rng) for cond in conditions]
    passed = all(r.passed for r in reports)
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "margins.csv"),
               ["condition", "samples", "worst_margin", "passed"],
               [conditions, [r.samples for r in reports],
                [r.worst_margin for r in reports], [r.passed for r in reports]])
    summary = _base_summary("check-hamiltonian", seed, cfg)
    summary.update({"passed": passed,
                    "margins": {c: r.worst_margin for c, r in zip(conditions, reports)}})
    _emit(out, cfg, summary, quiet)
    return 0 if passed else 1


def _cmd_oracle(args, cfg, out: str, seed: int, quiet: bool) -> int:
    which = args.which
    if which != "delta-s":
        raise ConfigError("oracle", f"unknown oracle {which!r}")
    sec = (cfg or {}).get("oracle", {})
    s = args.s if args.s is not None else _number(sec, "s", "oracle")
    if s <= 1.0:
        raise ConfigError("oracle.s", "s must exceed 1")
    samples = int(args.samples if args.samples is not None
                  else _number(sec, "samples", "oracle", default=20000.0))
    value = delta_s_oracle(s, samples)
    candidate = 2.0 ** (1.0 - s)
    summary = _base_summary("oracle", seed, {"which": which, "s": s,
                                             "samples": samples})
    summary.update({"passed": True, "delta_s": value, "candidate": candidate,
                    "abs_difference": abs(value - candidate)})
    _emit(out, {"oracle": {"s": s, "samples": samples}}, summary, quiet)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="osserman-lab",
        description="Numerical laboratory for entire solutions of fully "
                    "nonlinear uniformly elliptic equations")
    sub = parser.add_subparsers(dest="command", required=True)

    vb = sub.add_parser("verify-barrier", parents=[common],
                        help="sweep the barrier inequality")
    for key in ("s", "m", "Lam", "gamma1", "gamma", "delta", "R", "h"):
        vb.add_argument(f"--{key}", type=float, default=None)
    vb.add_argument("--n", type=int, default=None)

    sub.add_parser("solve", parents=[common],
                   help="Dirichlet solve from a config file")
    sub.add_parser("entire", parents=[common],
                   help="expanding-ball construction")
    sub.add_parser("uniqueness", parents=[common],
                   help="two-solution separation experiment")
    sub.add_parser("check-hamiltonian", parents=[common],
                   help="structure-condition sweep")

    orc = sub.add_parser("oracle", parents=[common], help="numeric oracles")
    orc.add_argument("which", choices=["delta-s"])
    orc.add_argument("--s", type=float, default=None)
    orc.add_argument("--samples", type=int, default=None)
    return parser


_DISPATCH = {
    "verify-barrier": _cmd_verify_barrier,
    "solve": _cmd_solve,
    "entire": _cmd_entire,
    "uniqueness": _cmd_uniqueness,
    "check-hamiltonian": _cmd_check_hamiltonian,
    "oracle": _cmd_oracle,
}

_NEEDS_CONFIG = {"solve", "entire", "uniqueness", "check-hamiltonian"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        if args.command in _NEEDS_CONFIG and cfg is None:
            raise ConfigError("--config", "this command requires a config file")
        return _DISPATCH[args.command](args, cfg, args.out, args.seed, args.quiet)
    except ConfigError as exc:
        print(f"config error at {exc.key}: {exc.message}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
