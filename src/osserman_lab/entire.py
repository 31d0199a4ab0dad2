"""Expanding-ball construction of entire solutions, a checker for the
local uniform bound sup_{B_r}|u| <= sup_{B_r} phi_{2r} + C r ||f^-||_{L^n},
the growth threshold on f and the data f = -(1 + |x|^rho).

All balls share one center and one spacing, so solutions on different radii
live on nested sublattices and can be compared node-by-node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .barrier import barrier_constants, exponent_mu
from .core import (BallGrid, ScalarField, blend, build_ball_grid, evaluate,
                   interpolation_plan, norm, row_norms, sample_field)
from .operators import CheckReport
from .solver import ProblemSpec, solve_dirichlet

TAIL_DISCARD = 2  # leading radii fit_decay_exponent drops before its tail fit
ABP_SAFETY = 2.0  # factor on the calibration maximum in fit_abp_constant
DELTA_HAT = 1.0   # ABP smallness: ||f^-||_{L^n(B_2r)} * diam(B_2r) < DELTA_HAT
R_MAX = 0.5       # largest radius the local bound is stated for


@dataclass(frozen=True)
class EntireRun:
    problem: ProblemSpec
    fields: tuple          # ScalarField per radius k = 1, 2, ...
    reports: tuple         # SolveReport per radius
    stabilization: tuple   # rows {k, k_next, j, sup_diff}

    @property
    def radii(self) -> tuple:
        return tuple(range(1, len(self.fields) + 1))

    @property
    def flagged(self) -> bool:
        """A solve did not converge; the run stops at the first such one."""
        return not self.reports[-1].converged


def _warm_starts(prev: BallGrid, grid: BallGrid, solutions: Sequence) -> list:
    """Seed grid's interior from each of ``solutions`` on the smaller ball
    prev, shifted outward by the radius increment d: node x takes the
    solution's interpolant at y = x - d x/|x|, or at the center when
    |x| <= d. y lies as far inside prev's sphere as x lies inside the new
    one, so prev's boundary layer starts at the new sphere. The corners
    and fractions are found once for all solutions."""
    d = grid.radius - prev.radius
    vecs = grid.interior_nodes - grid.center[None, :]
    scale = 1.0 - d / np.maximum(row_norms(vecs), d)
    plan = interpolation_plan(prev, grid.center[None, :] + scale[:, None] * vecs)
    return [blend(plan, u.values) for u in solutions]


def _lattice_match(ga: BallGrid, gb: BallGrid):
    """(ia, ib): ga's interior nodes that are interior nodes of gb, and
    gb's index of each, matched through the shared integer lattice. A grid
    matches itself node for node, with no lookup."""
    if ga is gb:
        return slice(ga.n_interior), slice(ga.n_interior)
    ib = gb.node_index(ga.lattice[: ga.n_interior])  # interior nodes first
    ia = np.flatnonzero((ib >= 0) & (ib < gb.n_interior))
    return ia, ib[ia]


def sup_difference(a: ScalarField, b: ScalarField, radius: float,
                   center=None) -> float:
    """sup |a - b| over interior lattice nodes with |x - center| < radius,
    matched through the shared integer lattice."""
    ga, gb = a.grid, b.grid
    if abs(ga.h - gb.h) > 1e-15 or np.any(np.abs(ga.center - gb.center) > 1e-15):
        raise ValueError("fields must share spacing and center")
    if center is None:
        center = ga.center
    center = np.atleast_1d(np.asarray(center, dtype=float))
    ia, ib = _lattice_match(ga, gb)
    near = row_norms(ga.nodes[ia] - center[None, :]) < radius
    if not near.any():
        raise ValueError("no shared nodes in the requested ball")
    return float(np.abs(a.values[ia][near] - b.values[ib][near]).max())


def construct_entire(problem: ProblemSpec, k_max: int, boundaries: Sequence,
                     tol: float, h: float, max_iter: int,
                     center) -> tuple[EntireRun, ...]:
    """One EntireRun per data callable in ``boundaries``: the Dirichlet
    problem on B_k for k = 1..k_max, each solve warm-started from the same
    data's solution on B_{k-1}, and the stabilization table
    sup_{B_j}|u_k - u_{k+1}| for j < k; a run stops at its first
    unconverged solve. The runs share one grid B_k per k, one warm-start
    plan per B_{k-1} -> B_k and one lattice match per (B_k, B_{k+1})."""
    if k_max < 1:
        raise ValueError("k_max >= 1 required")
    center = np.array(center, float, ndmin=1)
    grids, runs = [], [([], []) for _ in boundaries]  # fields, reports
    for k in range(1, k_max + 1):
        live = [(g, run) for g, run in zip(boundaries, runs)
                if not run[1] or run[1][-1].converged]
        if not live:
            break
        grids.append(build_ball_grid(center, float(k), h, len(center)))
        starts = (_warm_starts(grids[-2], grids[-1], [r[0][-1] for _, r in live])
                  if k > 1 else [None] * len(live))
        for (g, (fields, reports)), start in zip(live, starts):
            sol, rep = solve_dirichlet(problem, grids[-1], g, tol, max_iter,
                                       initial=start)
            fields.append(sol)
            reports.append(rep)
    tables = [[] for _ in runs]
    for k in range(2, len(grids)):  # the pair (B_k, B_{k+1}) has rows j < k
        ia, ib = _lattice_match(grids[k - 1], grids[k])
        dist = row_norms(grids[k - 1].nodes[ia] - center[None, :])
        for (fields, _), rows in zip(runs, tables):
            if len(fields) > k:
                diff = np.abs(fields[k - 1].values[ia] - fields[k].values[ib])
                rows += [{"k": k, "k_next": k + 1, "j": j,
                          "sup_diff": float(diff[dist < j].max())}
                         for j in range(1, k)]
    return tuple(EntireRun(problem=problem, fields=tuple(fields),
                           reports=tuple(reports), stabilization=tuple(rows))
                 for (fields, reports), rows in zip(runs, tables))


def separation_table(run_a: EntireRun, run_b: EntireRun,
                     radius: float = 1.0) -> list[dict]:
    """sup_{B_radius}|u_k^a - u_k^b| per radius k both runs reached."""
    return [{"k": k, "separation": sup_difference(a, b, radius)}
            for k, a, b in zip(run_a.radii, run_a.fields, run_b.fields)]


def fit_decay_exponent(radii: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) vs log(radius), sign-flipped so a
    decay C/k^e yields +e. The first TAIL_DISCARD radii are dropped (tail
    fit)."""
    r = np.asarray(radii, dtype=float)[TAIL_DISCARD:]
    v = np.asarray(values, dtype=float)[TAIL_DISCARD:]
    keep = v > 0
    if keep.sum() < 2:
        raise ValueError("need at least two positive tail values to fit")
    slope = np.polyfit(np.log(r[keep]), np.log(v[keep]), 1)[0]
    return float(-slope)


def _boundary_constant(boundary, k: float) -> float:
    """The single Dirichlet value of a number or of a data callable g that
    agrees at both ends of (-k, k)."""
    if not callable(boundary):
        return float(boundary)
    a, b = evaluate(boundary, [[-k], [k]]).tolist()
    if a != b:
        raise ValueError(f"continuum oracle needs constant Dirichlet data, "
                         f"got {a} and {b} at the two ends")
    return a


def _invert_1d_operator(F, points: np.ndarray) -> tuple[float, float]:
    """(A, B) with F(x, q) = A q+ - B q- at every sample point, so that
    F(u'') = t inverts to u'' = t/A for t >= 0 and t/B for t < 0."""
    one = np.ones((1, 1, 1))
    A = float(F(points[:1], one)[0])
    B = -float(F(points[:1], -one)[0])
    if not (A > 0.0 and B > 0.0):
        raise ValueError(f"cannot invert F: F(1) = {A}, F(-1) = {-B}")
    q = np.array([-4.0, -1.0, -0.25, 0.25, 1.0, 4.0])
    xs = np.repeat(points, len(q), axis=0)
    qs = np.tile(q, len(points))
    got = np.asarray(F(xs, qs[:, None, None]), dtype=float)
    want = A * np.clip(qs, 0.0, None) + B * np.clip(qs, None, 0.0)
    if not np.allclose(got, want, rtol=1e-12, atol=0.0):
        raise ValueError("cannot invert F: it is not A q+ - B q- with "
                         "x-independent A, B")
    return A, B


_ORACLE_MAX_NODES = 200_000


def continuum_oracle_1d(problem: ProblemSpec, k: float, boundary) -> Callable:
    """Continuum solution of F(u'') + H(x, u') - |u|^{s-1}u = f on (-k, k)
    with constant Dirichlet data, by scipy's solve_bvp to a relative
    collocation residual of 1e-8.

    The finite-difference construction on B_k is checked against this
    oracle. In 1D an x-independent F is A q+ - B q-, so the equation is
    solved for u'' = F^{-1}(f + |u|^{s-1}u - H(x, u')). `boundary` is a
    number or a data callable g equal at both ends. The initial guess is the
    Keller-Osserman layer of A u'' = |u|^{s-1}u through the boundary value.
    Returns a vectorized evaluator points -> u(points).

    Raises ValueError outside what the oracle covers (non-constant data, an
    F it cannot invert) and RuntimeError when solve_bvp does not converge.
    """
    from scipy.integrate import solve_bvp  # kept out of `import osserman_lab`

    if k <= 0:
        raise ValueError("k must be positive")
    g = _boundary_constant(boundary, k)
    A, B = _invert_1d_operator(problem.F, np.linspace(-k, k, 5)[:, None])
    s, H, f = problem.s, problem.H, problem.f

    def rhs(x, y):
        u, p = y
        pts = x[:, None]
        t = evaluate(f, pts) + np.abs(u) ** (s - 1.0) * u - H(pts, p[:, None])
        return np.vstack([p, np.where(t >= 0.0, t / A, t / B)])

    def bc(ya, yb):
        return np.array([ya[0] - g, yb[0] - g])

    # mesh graded toward both ends, where the boundary layer sits
    x = k * np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, 401))
    alpha = 2.0 / (s - 1.0)
    scale = (A * alpha * (alpha + 1.0)) ** (1.0 / (s - 1.0))
    inv_width = (abs(g) / scale) ** (1.0 / alpha)
    u0 = g / (1.0 + inv_width * (k - np.abs(x))) ** alpha
    sol = solve_bvp(rhs, bc, x, np.vstack([u0, np.gradient(u0, x)]), tol=1e-8,
                    max_nodes=_ORACLE_MAX_NODES)
    if sol.status != 0:
        raise RuntimeError(f"continuum oracle did not converge: {sol.message}")
    return lambda points: sol.sol(np.asarray(points, dtype=float).reshape(-1))[0]


def continuum_separation_table(problem: ProblemSpec, k_max: int, boundary_a,
                               boundary_b, h: float,
                               radius: float = 1.0) -> list[dict]:
    """separation_table's continuum counterpart: sup |U_k^a - U_k^b| of the
    1D oracle solutions on (-k, k) over the lattice nodes (spacing h) in
    B_radius, the nodes at which separation_table compares the discrete
    solutions."""
    nodes = build_ball_grid(0.0, radius, h, 1).interior_nodes
    rows = []
    for k in range(1, k_max + 1):
        ua = continuum_oracle_1d(problem, k, boundary_a)(nodes)
        ub = continuum_oracle_1d(problem, k, boundary_b)(nodes)
        rows.append({"k": k, "separation": float(np.abs(ua - ub).max())})
    return rows


def _negative_part_norm(f_field: ScalarField, center, radius: float) -> float:
    neg = ScalarField(grid=f_field.grid,
                      values=np.clip(-f_field.values, 0.0, None))
    return norm(neg, kind="lp", p=f_field.grid.n, center=center, radius=radius)


def local_bound(r: float, center, f_field: ScalarField, params: dict,
                C_emp: float = 0.0, c0_scale: float = 1.0) -> float:
    """The Lemma-style bound sup_{B_r} phi_{2r} + C_emp r ||f^-||_{L^n(B_2r)}.

    The barrier part uses gamma = 2^{m-1} gamma_m, delta = 1, R = 2r, giving
    sup_{|x|=r} phi_{2r} = C_{2r} (2/3)^mu r^{-mu}. c0_scale rescales the
    barrier term (falsification knob). params needs s, m, n, Lam, gamma1,
    gamma_m. Requires r <= R_MAX and ||f^-|| * diam(B_2r) < DELTA_HAT.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if r > R_MAX:
        raise ValueError(f"r={r} exceeds the smallness threshold r_max={R_MAX}")
    s, m, n = params["s"], params["m"], params["n"]
    spec = barrier_constants(s=s, m=m, n=n, Lam=params["Lam"],
                             gamma1=params["gamma1"],
                             gamma=2.0 ** (m - 1.0) * params["gamma_m"],
                             delta=1.0, R=2.0 * r)
    fn_norm = _negative_part_norm(f_field, center, 2.0 * r)
    if fn_norm * 4.0 * r >= DELTA_HAT:
        raise ValueError("ABP smallness violated: ||f^-|| * diam >= delta_hat")
    barrier_term = c0_scale * spec.C_R * (2.0 / 3.0) ** spec.mu * r ** (-spec.mu)
    return barrier_term + C_emp * r * fn_norm


def fit_abp_constant(problem_factory: Callable, const_values: Sequence[float],
                     r: float, h: float, tol: float, max_iter: int,
                     n: int = 1) -> float:
    """Empirical ABP constant from a calibration set of f = -const problems.

    problem_factory(f) must return a ProblemSpec sharing F, H, s. For each
    constant c > 0 the Dirichlet problem on B_2r with zero boundary is
    solved and sup_{B_r} u^+ / (r ||f^-||) recorded; the fit is ABP_SAFETY
    times the calibration maximum.
    """
    center = np.zeros(n)
    grid = build_ball_grid(center, 2.0 * r, h, n)
    best = 0.0
    for c in const_values:
        if c <= 0:
            raise ValueError("calibration constants must be positive")
        problem = problem_factory(lambda x, c=c: -c)
        sol, rep = solve_dirichlet(problem, grid, lambda x: 0.0, tol, max_iter)
        if not rep.converged:
            raise ValueError("calibration solve did not converge")
        plus = ScalarField(grid=grid, values=np.clip(sol.values, 0.0, None))
        sup_plus = norm(plus, kind="sup", center=center, radius=r)
        fn = norm(ScalarField(grid=grid, values=np.full(len(grid.nodes), c)),
                  kind="lp", p=n, center=center, radius=2.0 * r)
        best = max(best, sup_plus / (r * fn))
    return ABP_SAFETY * best


def check_local_bound(run: EntireRun, r: float, center, C_emp: float,
                      c0_scale: float = 1.0) -> CheckReport:
    """Margin = local_bound - sup_{B_r(center)}|u_k| for every solution in
    the run whose ball covers B_2r(center)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    problem = run.problem
    H = problem.H
    ell = problem.F.ellipticity
    off = float(np.linalg.norm(center - run.fields[0].grid.center))
    covered = [(k, f) for k, f in zip(run.radii, run.fields)
               if k >= off + 2.0 * r - 1e-12]
    if not covered:
        raise ValueError("no solution in the run covers B_2r(center)")
    grid = covered[-1][1].grid
    f_field = sample_field(grid, problem.f)
    params = {"s": problem.s, "m": H.m, "n": grid.n, "Lam": ell.Lam,
              "gamma1": H.gamma1, "gamma_m": H.gamma_m}
    bound = local_bound(r, center, f_field, params, C_emp=C_emp,
                        c0_scale=c0_scale)
    worst = np.inf
    witness: dict = {}
    for k, f in covered:
        sup_u = norm(f, kind="sup", center=center, radius=r)
        margin = bound - sup_u
        if margin < worst:
            worst = margin
            witness = {"k": k, "sup_u": sup_u, "bound": bound}
    return CheckReport(condition="local_bound", samples=len(covered),
                       worst_margin=float(worst), witness=witness)


def rho_threshold(s: float, m: float) -> float:
    """Growth threshold 2 m' / (mu s) with m' the conjugate exponent of m."""
    if m <= 1.0:
        raise ValueError("threshold requires m > 1")
    if m >= s:
        raise ValueError("threshold requires m < s")
    m_conj = m / (m - 1.0)
    return 2.0 * m_conj / (exponent_mu(s, m) * s)


def rho_threshold_closed_form(s: float, m: float) -> float:
    """Branchwise closed form: m(s-1)/((m-1)s) for m <= 2s/(s+1), else
    2(s-m)/(s(m-1))."""
    if m <= 1.0 or m >= s:
        raise ValueError("need 1 < m < s")
    if m <= 2.0 * s / (s + 1.0):
        return m * (s - 1.0) / ((m - 1.0) * s)
    return 2.0 * (s - m) / (s * (m - 1.0))


def radial_power_rhs(rho: float) -> Callable:
    """The data callable f(x) = -(1 + |x|^rho)."""
    return lambda x: -(1.0 + row_norms(x) ** rho)
