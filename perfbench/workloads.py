"""The benchmark's seeded workloads.

Each workload turns ``--seed`` into config files (the program receives only
those files and, for ``check-hamiltonian``, the seed itself) and returns
the CLI operations of one pass. Every operation carries the check of its
outputs; an operation fails on a nonzero exit code or a failed check.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from osserman_lab.config import build_problem
from osserman_lab.core import ScalarField, build_ball_grid
from osserman_lab.operators import hamiltonian_library
from osserman_lab.solver import residual_field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference_entire_1d.json")


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and the check of what it wrote to ``out``.

    ``check`` takes the exit code and returns None or an error message.
    """

    name: str
    argv: list
    out: str
    check: Callable[[int], Optional[str]]


def _read_csv(path: str) -> tuple[list, list]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_config(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
    return path


def _cli_argv(command: str, config: str, out: str, seed: int = 0) -> list:
    return [command, "--config", config, "--seed", str(seed), "--out", out,
            "--quiet"]


# ---------------------------------------------------------------------------
# entire-1d: the acceptance `entire` fixture, scaled down
# ---------------------------------------------------------------------------

ENTIRE_K_MAX = 4
ENTIRE_H = 0.04
ENTIRE_TOL = 1e-8
# Second boundary values the seed draws from: 99.0, 99.1, ..., 101.0.
ENTIRE_BOUNDARY2 = tuple(round(100.0 + 0.1 * i, 1) for i in range(-10, 11))
# Allowed |separation - reference|. The reference solves stop at sup
# residual <= tol = 1e-8. Loosening tol to 1e-7 moves the table by 2.4e-8
# and to 1e-6 by 2.6e-7, so any solver converged to 1e-8 on the same scheme
# lands well inside 1e-6. Neighbouring boundary2 values (0.1 apart) move
# the table by 3.9e-5, which the check still catches.
SEPARATION_ATOL = 1e-6


def entire_config(boundary2: float) -> dict:
    return {
        "problem": {
            "s": 3.0,
            "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": 1.0},
            "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0,
                            "m": 2.0, "n": 1},
            "f": {"tag": "zero"},
        },
        "entire": {"k_max": ENTIRE_K_MAX, "h": ENTIRE_H, "tol": ENTIRE_TOL,
                   "max_iter": 5_000_000, "n": 1,
                   "boundary": {"tag": "constant", "value": 0.0},
                   "boundary2": {"tag": "constant", "value": boundary2}},
    }


def _check_entire(out: str, reference: list):
    def check(rc: int):
        if rc != 0:
            return f"exit code {rc}"
        _, rows = _read_csv(os.path.join(out, "separation.csv"))
        radii = [int(r[0]) for r in rows]
        seps = [float(r[1]) for r in rows]
        if radii != list(range(1, ENTIRE_K_MAX + 1)):
            return f"separation radii {radii}"
        if any(b >= a for a, b in zip(seps, seps[1:])):
            return f"separation table not strictly decreasing: {seps}"
        worst = max(abs(a - b) for a, b in zip(seps, reference))
        if worst > SEPARATION_ATOL:
            return f"separation differs from the reference by {worst:.3e}"
        return None
    return check


def entire_1d(seed: int, workdir: str) -> list[Operation]:
    boundary2 = random.Random(seed).choice(ENTIRE_BOUNDARY2)
    reference = _read_json(REFERENCE_PATH)["tables"][f"{boundary2:.1f}"]
    config = _write_config(workdir, "entire.json", entire_config(boundary2))
    out = os.path.join(workdir, "out-entire")
    return [Operation("entire", _cli_argv("entire", config, out), out,
                      _check_entire(out, reference))]


# ---------------------------------------------------------------------------
# solve-2d: one Dirichlet solve on 2D arrays
# ---------------------------------------------------------------------------

SOLVE_RADIUS = 1.2
SOLVE_H = 0.05
SOLVE_TOL = 1e-8


def solve_config(boundary: float) -> dict:
    return {
        "problem": {
            "s": 2.0,
            "operator": {"tag": "pucci_plus", "lam": 1.0, "Lam": 2.0},
            "hamiltonian": {"tag": "prototype", "c1": 0.0, "cm": 1.0,
                            "m": 2.0, "n": 2},
            "f": {"tag": "zero"},
        },
        "grid": {"n": 2, "radius": SOLVE_RADIUS, "h": SOLVE_H},
        "boundary": {"tag": "constant", "value": boundary},
        "solve": {"tol": SOLVE_TOL, "max_iter": 2_000_000},
    }


def _check_solve(out: str, cfg: dict):
    cache = {}

    def check(rc: int):
        if rc != 0:
            return f"exit code {rc}"
        if not _read_json(os.path.join(out, "summary.json"))["converged"]:
            return "summary reports converged = false"
        if "grid" not in cache:
            cache["grid"] = build_ball_grid([0.0, 0.0], SOLVE_RADIUS, SOLVE_H, 2)
            cache["problem"] = build_problem(cfg)
        grid = cache["grid"]
        _, rows = _read_csv(os.path.join(out, "field.csv"))
        table = np.asarray(rows, dtype=float)
        if table.shape != (len(grid.nodes), 4) \
                or not np.array_equal(table[:, 1:3], grid.nodes):
            return "field.csv nodes differ from the rebuilt grid"
        field = ScalarField(grid=grid, values=table[:, 3])
        sup = float(np.abs(residual_field(cache["problem"], field)).max())
        if sup > SOLVE_TOL:
            return f"sup residual {sup:.3e} > tol {SOLVE_TOL:g}"
        return None
    return check


def solve_2d(seed: int, workdir: str) -> list[Operation]:
    boundary = round(random.Random(seed).uniform(9.5, 10.5), 3)
    cfg = solve_config(boundary)
    config = _write_config(workdir, "solve.json", cfg)
    out = os.path.join(workdir, "out-solve")
    return [Operation("solve", _cli_argv("solve", config, out), out,
                      _check_solve(out, cfg))]


# ---------------------------------------------------------------------------
# structure-checks: barrier sweeps on 2D grids and Hamiltonian checks
# ---------------------------------------------------------------------------

# The acceptance criterion-1 parameter grid, in 2D:
# ((s, m), R, gamma1, gamma, delta).
BARRIER_GRID = tuple(itertools.product(
    [(3.0, 1.0), (3.0, 1.5), (3.0, 2.0), (2.0, 1.2), (4.0, 2.0)],
    [1.0, 4.0, 16.0], [0.0, 1.0], [0.5, 1.0, 8.0], [0.25, 1.0]))
BARRIER_SETS = 2
# h = R / 100 (h = 0.01 at R = 1), so every sweep covers the same lattice
# of 31,341 interior nodes whatever R the seed draws.
BARRIER_CELLS = 100
BARRIER_MAX_RESIDUAL = 1e-9
HAMILTONIANS = ("prototype", "two_power", "rational_factor")
CHECK_SAMPLES = 100_000
MARGIN_FLOOR = -1e-9


def lattice_points_inside(radius: float, h: float) -> int:
    """Number of points of the lattice h Z^2 with |x| < radius."""
    m = int(radius / h) + 2
    i = np.arange(-m, m + 1, dtype=float)
    return int(np.count_nonzero(h * np.hypot(i[:, None], i[None, :]) < radius))


def _check_barrier(out: str, expected_nodes: int):
    def check(rc: int):
        if rc != 0:
            return f"exit code {rc}"
        summary = _read_json(os.path.join(out, "summary.json"))
        _, rows = _read_csv(os.path.join(out, "residuals.csv"))
        if summary["nodes"] != expected_nodes or len(rows) != expected_nodes:
            return (f"{summary['nodes']} interior nodes and {len(rows)} "
                    f"residual rows, expected {expected_nodes}")
        if summary["max_residual"] > BARRIER_MAX_RESIDUAL:
            return f"max residual {summary['max_residual']:.3e}"
        return None
    return check


def _check_margins(out: str, conditions: int):
    def check(rc: int):
        if rc != 0:
            return f"exit code {rc}"
        _, rows = _read_csv(os.path.join(out, "margins.csv"))
        if len(rows) != conditions:
            return f"{len(rows)} conditions checked, expected {conditions}"
        for cond, samples, margin, _ in rows:
            if int(samples) != CHECK_SAMPLES:
                return f"{cond}: {samples} samples, requested {CHECK_SAMPLES}"
            if float(margin) < MARGIN_FLOOR:
                return f"{cond}: worst margin {margin}"
        return None
    return check


def structure_checks(seed: int, workdir: str) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for i, ((s, m), R, gamma1, gamma, delta) in enumerate(
            rng.sample(BARRIER_GRID, BARRIER_SETS)):
        h = R / BARRIER_CELLS
        cfg = {"barrier": {"s": s, "m": m, "n": 2, "lam": 1.0, "Lam": 1.0,
                           "gamma1": gamma1, "gamma": gamma, "delta": delta,
                           "R": R, "h": h}}
        config = _write_config(workdir, f"barrier{i}.json", cfg)
        out = os.path.join(workdir, f"out-barrier{i}")
        expected = lattice_points_inside(0.999 * R, h)
        ops.append(Operation("verify-barrier",
                             _cli_argv("verify-barrier", config, out), out,
                             _check_barrier(out, expected)))
    for tag in HAMILTONIANS:
        cfg = {"hamiltonian": {"tag": tag}, "check": {"samples": CHECK_SAMPLES}}
        config = _write_config(workdir, f"check-{tag}.json", cfg)
        out = os.path.join(workdir, f"out-check-{tag}")
        conditions = len(hamiltonian_library(tag).claims)
        ops.append(Operation("check-hamiltonian",
                             _cli_argv("check-hamiltonian", config, out, seed),
                             out, _check_margins(out, conditions)))
    return ops


WORKLOADS = {
    "entire-1d": entire_1d,
    "solve-2d": solve_2d,
    "structure-checks": structure_checks,
}
