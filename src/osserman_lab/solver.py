"""Monotone finite-difference discretization of

    F(x, D^2 u) + H(x, Du) - |u|^{s-1} u = f(x)

on ball grids, and a Newton (policy-iteration) Dirichlet solver.

F is discretized by its own stencil: nonnegative weights on the second
differences along the stencil direction pairs (the axes, and in 2D the
diagonals), so F_h = sum(weights * d2). The gradient slot is the
Rouy-Tourin upwind gradient: per axis, the steeper of node i's two arm
slopes (u_nb - u_i)/h that rise away from it, signed by its arm (0 where
neither rises). The scheme is monotone for Hamiltonians nondecreasing in
|p|, and its zero-order term is strictly decreasing in u.

The residual is piecewise smooth: each node picks a policy (F's stencil
weights, the upwind arm of every axis). Newton's method with the exact
Jacobian of the active policy is Howard's algorithm (Bokanowski-Maroso-
Zidani, SINUM 47, 2009), globalized by backtracking on the sup residual.
The Jacobian holds the residual's partials through the arms, its diagonal
derived from them (``_jacobian_table``). It is exact because H carries
dH/dp in closed form (``HamiltonianH.gradient``).
Convergence is judged by the residual alone, so the discrete solution does
not depend on the path.

A 1D Newton system is tridiagonal: the interior nodes are consecutive
lattice points in grid order, so node i's neighbours are i - 1 and i + 1.
It is solved by LAPACK's ``dgtsv`` (Gaussian elimination with partial
pivoting, O(n)) straight from the diagonals of the Jacobian table, with no
sparse matrix; 1D solves never import ``scipy.sparse``.

A 2D Newton system is factored by SuperLU in the grid's nested-dissection
order (``core.dissection_order``; George, SINUM 10, 1973), computed once per
solve from the lattice coordinates, with no fill-reducing ordering of its
own. The stencil couples node i to node j exactly when it couples j to i,
so J is structurally symmetric, though its values are not (upwind slopes,
Pucci weights), and a separator of the lattice separates J. That order
fills less than a minimum-degree ordering of J + J^T (69,468 against
72,518 factor entries on a 1,789-unknown 2D Pucci Jacobian, 6.1M against
7.4M at 80,369) and far less than COLAMD's for J^T J (102,764 at 1,789).
SuperLU factors J in panels of one column with no relaxed supernodes
(``_factorize``): the supernodes of a nested-dissection ordered lattice are
narrow, and on them that blocking is faster than SuperLU's default, with
the same pivots and fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (BallGrid, ScalarField, build_ball_grid, dissection_order,
                   evaluate, row_norms, second_differences)
from .operators import HamiltonianH, OperatorF

ARMIJO = 1e-4      # sufficient-decrease constant of the line search
ALPHA_MIN = 2.0 ** -30  # a step shorter than this stalls the solve


class NumericalError(RuntimeError):
    """NaN/Inf in the residual of the starting state."""


@dataclass(frozen=True)
class ProblemSpec:
    """Equation data for F(x,D^2 u) + H(x,Du) - |u|^{s-1}u = f, with f a
    data callable on (N, n) points (see ``core.evaluate``)."""

    F: OperatorF
    H: HamiltonianH
    s: float
    f: Callable

    def __post_init__(self):
        if self.s <= 1.0:
            raise ValueError("zero-order exponent s must exceed 1")


@dataclass(frozen=True)
class SolveReport:
    """``iterations`` Newton steps were taken; ``residual_history[i]`` is the
    sup residual before step i and ``final_residual`` the one after the
    last. ``backtracks`` counts the line-search halvings of all steps."""

    iterations: int
    final_residual: float
    residual_history: np.ndarray
    backtracks: int
    converged: bool

    def row(self) -> dict:
        """One solve's row in a run's summary: every field but the residual
        history. Wall times stay out, so reruns still write identical files."""
        return {k: v for k, v in vars(self).items() if k != "residual_history"}


class _Policy(NamedTuple):
    """The branches the residual took at every interior node: F's stencil
    weight on each second difference; the upwind gradient p and, per axis,
    the arm whose slope it took (+1 plus, -1 minus, 0 neither)."""

    weights: np.ndarray  # (ni, n_dirs // 2)
    p: np.ndarray        # (ni, n)
    side: np.ndarray     # (ni, n)


def _interior_residual(problem: ProblemSpec, grid: BallGrid, vals: np.ndarray,
                       f_vals: np.ndarray):
    """Residual at all interior nodes and the policy that produced it."""
    h, n = grid.h, grid.n
    x = grid.interior_nodes
    uc = vals[: grid.n_interior]
    d2 = second_differences(grid, vals)
    weights = problem.F.stencil(x, d2)
    Fv = (weights * d2).sum(axis=1)

    slopes = (vals[grid.neighbors[:, : 2 * n]] - uc[:, None]) / h  # axis arms
    minus, plus = slopes[:, ::2], slopes[:, 1::2]
    steep = np.maximum(minus, plus)
    side = np.where(steep > 0.0, np.where(plus >= minus, 1, -1), 0)
    p = np.where(side != 0, side * steep, 0.0)
    Hv = problem.H(x, p)

    res = Fv + Hv - np.abs(uc) ** (problem.s - 1.0) * uc - f_vals
    return res, _Policy(weights, p, side)


def _jacobian_table(problem: ProblemSpec, grid: BallGrid, vals: np.ndarray,
                    policy: _Policy) -> np.ndarray:
    """Jacobian of the residual for a fixed policy, as an (ni, 1 + n_dirs)
    table of its partials through node i's arms. Column 1 + d is
    d res_i / d u_nb(i, d): F's stencil weight over the squared spacing on
    both arms of each pair, and side * dH/dp at the upwind gradient
    (``H.gradient``) over h on the axis arm the gradient took. F_h and H_h
    see u_i only through the arm differences u_nb - u_i, so column 0,
    d res_i / d u_i, is minus the row sum of the arm columns, less
    s|u_i|^{s-1}. A monotone policy has every arm column >= 0."""
    h, n = grid.h, grid.n
    ni = grid.n_interior
    table = np.empty((ni, 1 + len(grid.offsets)))
    arms = table[:, 1:]
    arms[:, ::2] = arms[:, 1::2] = policy.weights / grid.spacings2

    dH = policy.side * problem.H.gradient(grid.interior_nodes, policy.p) / h
    arms[:, :2 * n:2] += np.where(policy.side == -1, dH, 0.0)
    arms[:, 1:2 * n:2] += np.where(policy.side == 1, dH, 0.0)

    table[:, 0] = -arms.sum(axis=1)
    table[:, 0] -= problem.s * np.abs(vals[:ni]) ** (problem.s - 1.0)
    return table


def _jacobian_pattern(grid: BallGrid):
    """Empty CSC Jacobian over the interior nodes in their nested-dissection
    order (int32 indices): row and column k belong to interior node
    ``order[k]``, with ``order = core.dissection_order(grid)``. Returns it,
    for each stored entry its flat position in the ``_jacobian_table``
    layout, and ``order``. Boundary neighbours carry data, not unknowns,
    and are dropped."""
    from scipy.sparse import csc_matrix  # kept out of `import osserman_lab`

    ni = grid.n_interior
    order = dissection_order(grid)
    rank = np.empty(ni, dtype=np.int64)
    rank[order] = np.arange(ni)
    cols = np.column_stack([np.arange(ni), grid.neighbors])
    slot = np.flatnonzero(cols.ravel() < ni)
    rows, cols = rank[slot // cols.shape[1]], rank[cols.ravel()[slot]]
    by_col = np.lexsort((rows, cols))
    indptr = np.searchsorted(cols[by_col], np.arange(ni + 1)).astype(np.int32)
    J = csc_matrix((np.zeros(len(slot)), rows[by_col].astype(np.int32), indptr),
                   shape=(ni, ni))
    return J, slot[by_col], order


def residual_field(problem: ProblemSpec, field: ScalarField) -> np.ndarray:
    """Discrete residual at every interior node."""
    grid = field.grid
    f_vals = evaluate(problem.f, grid.interior_nodes)
    return _interior_residual(problem, grid, field.values, f_vals)[0]


def _initial_guess(grid: BallGrid, boundary: Callable,
                   g_proj: np.ndarray) -> np.ndarray:
    """Radial interpolation of the boundary data: mean value at the center,
    the node's own spherical projection value at the rim."""
    gbar = float(np.mean(g_proj))
    vecs = grid.interior_nodes - grid.center[None, :]
    r = row_norms(vecs)
    vals = np.full(grid.n_interior, gbar)
    off = r > 0.0
    proj = grid.center + grid.radius * vecs[off] / r[off, None]
    t = r[off] / grid.radius
    vals[off] = (1.0 - t) * gbar + t * evaluate(boundary, proj)
    return vals


def _factorize(J):
    """Sparse LU factor of a Newton Jacobian that ``_jacobian_pattern``
    already put in nested-dissection order, so SuperLU keeps the column
    order (``NATURAL``); raises RuntimeError if J is exactly singular.

    ``panel_size=1`` and ``relax=1`` set SuperLU's column blocking: panels
    of one column and no relaxed supernodes. They change how the
    factorization groups columns, not its pivots or its fill: ``perm_r``,
    ``perm_c`` and L.nnz + U.nnz equal those of SuperLU's default blocking,
    which suits the wide supernodes of large 3D problems. A
    nested-dissection ordered 2D lattice has narrow ones; on the first
    Jacobian of ``tools/bench_linear_solve.py``'s cases, one factorization
    takes (single thread, in-process medians; peak RSS of a cold
    factor-and-solve in a fresh process):

        unknowns   default blocking     panel 1, relax 1
           1,789     4.34 ms               3.61 ms
          28,913      113 ms, 113 MiB        96 ms, 104 MiB
          80,369      740 ms, 208 MiB       735 ms, 179 MiB
    """
    from scipy.sparse.linalg import splu  # kept out of `import osserman_lab`

    return splu(J, permc_spec="NATURAL", relax=1, panel_size=1)


def _step_solver(grid: BallGrid):
    """The linear solve of a Newton step on ``grid``: a function of the
    ``_jacobian_table`` and a right-hand side (which it may overwrite) that
    returns J^{-1} rhs, or raises RuntimeError if J is exactly singular.

    In 1D, J is tridiagonal in grid order: diagonal ``table[:, 0]``,
    sub-diagonal ``table[1:, 1]`` (minus neighbours) and super-diagonal
    ``table[:-1, 2]`` (plus neighbours), solved by LAPACK's ``dgtsv``. In 2D,
    the table fills the CSC pattern of ``_jacobian_pattern``, factored by
    ``_factorize`` in nested-dissection order."""
    if grid.n == 1:
        from scipy.linalg.lapack import dgtsv  # kept out of `import osserman_lab`

        def solve(table, rhs):
            *_, step, info = dgtsv(table[1:, 1], table[:, 0], table[:-1, 2],
                                   rhs, overwrite_b=True)
            if info > 0:
                raise RuntimeError("exactly singular Jacobian")
            return step

        return solve

    J, slot, order = _jacobian_pattern(grid)

    def solve(table, rhs):
        J.data[:] = table.ravel()[slot]
        step = np.empty(len(order))
        step[order] = _factorize(J).solve(rhs[order])
        return step

    return solve


def solve_dirichlet(problem: ProblemSpec, grid: BallGrid, boundary: Callable,
                    tol: float, max_iter: int,
                    initial: Optional[np.ndarray] = None):
    """Newton's method on the discrete equations, at most ``max_iter`` steps.
    ``boundary`` is a data callable (see ``core.evaluate``), taken at the
    boundary nodes' projections onto the sphere.

    Each step solves J d = -res with the exact Jacobian J of the policy
    active at the current iterate (``_step_solver``): in 1D by LAPACK's
    tridiagonal solver, in 2D by one sparse LU factorization of J with its
    rows and columns in the grid's nested-dissection order, which is
    computed once per solve, on its first step. It then halves the step
    length alpha until sup|res(u + alpha d)| < (1 - 1e-4 alpha) sup|res(u)|.
    The solve converges when sup|res| <= tol; a step shorter than
    ALPHA_MIN, or an exactly singular J, ends it unconverged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ni = grid.n_interior
    f_vals = evaluate(problem.f, grid.interior_nodes)
    g_proj = evaluate(boundary, grid.projections)

    vals = np.empty(len(grid.nodes))
    vals[ni:] = g_proj
    if initial is not None:
        vals[:ni] = np.asarray(initial, dtype=float)
    else:
        vals[:ni] = _initial_guess(grid, boundary, g_proj)

    res, policy = _interior_residual(problem, grid, vals, f_vals)
    sup_res = float(np.abs(res).max())
    if not np.isfinite(sup_res):
        raise NumericalError("NaN/Inf residual at the starting state")
    newton_step = None  # built on the first step, if one is needed
    history = []
    backtracks = 0
    while sup_res > tol and len(history) < max_iter:
        if newton_step is None:
            newton_step = _step_solver(grid)
        try:
            step = newton_step(_jacobian_table(problem, grid, vals, policy),
                               -res)
        except RuntimeError:  # exactly singular J: no Newton direction
            break
        alpha = 1.0
        trial = vals.copy()
        while alpha >= ALPHA_MIN:
            trial[:ni] = vals[:ni] + alpha * step
            res_t, policy_t = _interior_residual(problem, grid, trial, f_vals)
            sup_t = float(np.abs(res_t).max())
            if sup_t < (1.0 - ARMIJO * alpha) * sup_res:
                break
            alpha *= 0.5
            backtracks += 1
        else:
            break
        history.append(sup_res)
        vals, res, policy, sup_res = trial, res_t, policy_t, sup_t

    field = ScalarField(grid=grid, values=vals)
    report = SolveReport(iterations=len(history), final_residual=sup_res,
                         residual_history=np.asarray(history),
                         backtracks=backtracks, converged=sup_res <= tol)
    return field, report


def mms_convergence(problem: ProblemSpec, u_star: Callable, center, R: float,
                    n: int, h_list: Sequence[float], tol: float,
                    max_iter: int) -> list[dict]:
    """Manufactured-solution sup-error table with observed orders."""
    rows = []
    prev = None
    for h in h_list:
        grid = build_ball_grid(center, R, h, n)
        sol, report = solve_dirichlet(problem, grid, u_star, tol, max_iter)
        exact = evaluate(u_star, grid.interior_nodes)
        err = float(np.abs(sol.interior_values - exact).max())
        row = {"h": h, "sup_error": err, "converged": report.converged,
               "order": float("nan")}
        if prev is not None and err > 0 and prev["sup_error"] > 0:
            row["order"] = float(np.log(prev["sup_error"] / err)
                                 / np.log(prev["h"] / h))
        rows.append(row)
        prev = row
    return rows
