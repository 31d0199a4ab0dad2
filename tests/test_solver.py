import math

import numpy as np
import pytest

from osserman_lab.core import ScalarField, build_ball_grid, sample_field
from osserman_lab.entire import construct_entire, radial_power_rhs
from osserman_lab.operators import (EllipticityPair, HamiltonianH,
                                    hamiltonian_library, laplacian_operator,
                                    negate_hamiltonian, pucci_operator,
                                    weighted_trace_operator)
from osserman_lab.solver import (NumericalError, ProblemSpec, SolveReport,
                                 _factorize, _initial_guess,
                                 _interior_residual, _jacobian_pattern,
                                 _jacobian_table, mms_convergence,
                                 residual_field, solve_dirichlet)


def _laplace_problem(s=2.0, f=lambda x: 0.0, H=None):
    if H is None:
        H = hamiltonian_library("zero", n=1)
    return ProblemSpec(F=laplacian_operator(), H=H, s=s, f=f)


def test_problem_spec_validates_s():
    with pytest.raises(ValueError):
        _laplace_problem(s=1.0)
    with pytest.raises(ValueError):
        _laplace_problem(s=0.5)


def test_problem_spec_requires_the_hamiltonian_gradient():
    H = hamiltonian_library("prototype", n=1)
    bare = HamiltonianH(evaluator=H.evaluator, m=H.m, gamma1=H.gamma1,
                        gamma_m=H.gamma_m)
    for H in (bare, negate_hamiltonian(bare)):
        with pytest.raises(ValueError, match="gradient"):
            _laplace_problem(H=H)


def test_residual_zero_field():
    problem = _laplace_problem()
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    u = sample_field(g, lambda x: 0.0)
    res = residual_field(problem, u)
    assert res.shape == (g.n_interior,)
    assert np.abs(res).max() == 0.0


def test_residual_hand_value_on_x_squared():
    problem = _laplace_problem(s=2.0)
    g = build_ball_grid(0.0, 1.0, 0.25, 1)
    u = sample_field(g, lambda x: x[:, 0] ** 2)
    node = int(np.argmin(np.abs(g.interior_nodes.ravel() - 0.5)))
    # second difference of x^2 is exactly 2; zero-order term is |u|u = x^4
    assert residual_field(problem, u)[node] == pytest.approx(2.0 - 0.5 ** 4,
                                                             abs=1e-12)


def test_residual_upwind_term():
    # H = |p|: at x > 0 the upwind slope of x^2 is the forward one, 2x + h
    H = hamiltonian_library("prototype", c1=1.0, cm=0.0, m=1.0, n=1)
    problem = _laplace_problem(s=2.0, H=H)
    g = build_ball_grid(0.0, 1.0, 0.25, 1)
    u = sample_field(g, lambda x: x[:, 0] ** 2)
    node = int(np.argmin(np.abs(g.interior_nodes.ravel() - 0.5)))
    expected = 2.0 + (2.0 * 0.5 + 0.25) - 0.5 ** 4
    assert residual_field(problem, u)[node] == pytest.approx(expected, abs=1e-12)


def test_exact_solution_residual_shrinks_with_h():
    # u = e^{sqrt(2) x} + 1 solves Lap u + |Du|^2/2 - |u|u = -1 exactly
    H = hamiltonian_library("prototype", c1=0.0, cm=0.5, m=2.0, n=1)
    problem = _laplace_problem(s=2.0, f=lambda x: -1.0, H=H)

    def exact(x):
        return np.exp(math.sqrt(2.0) * x[:, 0]) + 1.0

    sups = []
    for h in (0.1, 0.05, 0.025):
        g = build_ball_grid(0.0, 1.0, h, 1)
        # interior values at the nodes, Dirichlet data at the projections
        u = ScalarField(grid=g, values=np.concatenate(
            [exact(g.interior_nodes), exact(g.projections)]))
        sups.append(float(np.abs(residual_field(problem, u)).max()))
    assert sups[0] > sups[1] > sups[2]
    # first-order decay: halving h roughly halves the residual
    assert sups[2] < 0.35 * sups[0]


def test_zero_data_solves_immediately(monkeypatch):
    import osserman_lab.solver as solver

    def no_pattern(grid):
        raise AssertionError("Jacobian pattern built for a solve with no step")

    # the start state meets tol, so no Jacobian pattern is built
    monkeypatch.setattr(solver, "_jacobian_pattern", no_pattern)
    for g in (build_ball_grid(0.0, 1.0, 0.1, 1),
              build_ball_grid([0.0, 0.0], 1.0, 0.1, 2)):
        problem = _laplace_problem(H=hamiltonian_library("zero", n=g.n))
        sol, report = solve_dirichlet(problem, g, lambda x: 0.0, tol=1e-12,
                                      max_iter=10)
        assert report.converged
        assert report.iterations == 0
        assert np.abs(sol.values).max() == 0.0


def test_solve_is_deterministic():
    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=1)
    problem = _laplace_problem(s=3.0, H=H, f=lambda x: -1.0)
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    sol1, rep1 = solve_dirichlet(problem, g, lambda x: 1.0, tol=1e-10,
                                 max_iter=100_000)
    sol2, rep2 = solve_dirichlet(problem, g, lambda x: 1.0, tol=1e-10,
                                 max_iter=100_000)
    assert rep1.converged and rep2.converged
    assert np.array_equal(sol1.values, sol2.values)
    assert rep1.iterations == rep2.iterations


def _solve_2d_problem():
    # Pucci+ (lam = 1, Lam = 2), H = |p|^2, s = 2: a non-symmetric policy
    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=2)
    return ProblemSpec(F=pucci_operator(EllipticityPair(1.0, 2.0), "+"), H=H,
                       s=2.0, f=lambda x: 0.0)


def test_2d_solve_is_deterministic():
    problem = _solve_2d_problem()
    g = build_ball_grid([0.0, 0.0], 1.2, 0.05, 2)
    sol1, rep1 = solve_dirichlet(problem, g, lambda x: 10.0, tol=1e-8,
                                 max_iter=100)
    sol2, rep2 = solve_dirichlet(problem, g, lambda x: 10.0, tol=1e-8,
                                 max_iter=100)
    assert rep1.converged and rep2.converged
    assert np.array_equal(sol1.values, sol2.values)
    assert (rep1.iterations, rep1.backtracks) == (rep2.iterations,
                                                  rep2.backtracks)


def _dense_jacobian(problem, g, vals, policy):
    """The policy Jacobian over the interior nodes in grid order, assembled
    from ``_jacobian_table`` without the sparse pattern."""
    ni = g.n_interior
    table = _jacobian_table(problem, g, vals, policy)
    dense = np.diag(table[:, 0])
    for d in range(g.neighbors.shape[1]):
        inner = g.neighbors[:, d] < ni
        dense[np.flatnonzero(inner), g.neighbors[inner, d]] += table[inner, 1 + d]
    return dense


def test_newton_step_matches_dense_solve_with_less_fill_than_colamd():
    from scipy.sparse.linalg import splu

    problem = _solve_2d_problem()
    g = build_ball_grid([0.0, 0.0], 1.0, 0.1, 2)
    ni = g.n_interior

    def boundary(x):
        return 10.0 + 3.0 * x[:, 0] - 2.0 * x[:, 0] * x[:, 1]

    vals = np.empty(len(g.nodes))
    vals[ni:] = boundary(g.projections)
    vals[:ni] = _initial_guess(g, boundary, vals[ni:])
    res, policy = _interior_residual(problem, g, vals, np.zeros(ni))
    J, slot, order = _jacobian_pattern(g)
    pattern = J.copy()
    pattern.data[:] = 1.0
    assert (pattern != pattern.T).nnz == 0  # structurally symmetric
    J.data[:] = _jacobian_table(problem, g, vals, policy).ravel()[slot]
    dense = _dense_jacobian(problem, g, vals, policy)
    assert not np.array_equal(dense, dense.T)
    assert np.array_equal(J.toarray(), dense[np.ix_(order, order)])
    lu = _factorize(J)
    exact = np.linalg.solve(dense, -res)
    step = np.empty(ni)
    step[order] = lu.solve(-res[order])
    assert np.abs(step - exact).max() <= 1e-12 * np.abs(exact).max()
    colamd = splu(J)
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_first_jacobian_of_solve_2d_fills_no_more_than_minimum_degree():
    # the perfbench solve-2d grid, where a minimum-degree ordering of
    # J + J^T (SuperLU's MMD_AT_PLUS_A) leaves 72,518 factor entries
    problem = _solve_2d_problem()
    g = build_ball_grid([0.0, 0.0], 1.2, 0.05, 2)
    ni = g.n_interior
    assert ni == 1789
    vals = np.full(len(g.nodes), 10.0)
    _, policy = _interior_residual(problem, g, vals, np.zeros(ni))
    J, slot, _ = _jacobian_pattern(g)
    J.data[:] = _jacobian_table(problem, g, vals, policy).ravel()[slot]
    lu = _factorize(J)
    assert lu.L.nnz + lu.U.nnz <= 72_518


def _newton_systems(monkeypatch, problem, g, boundary):
    """The (J, right-hand side) of every Newton step of a converged solve,
    rows and columns in the order ``_jacobian_pattern`` gives them."""
    import osserman_lab.solver as solver

    systems = []

    class Recorded:
        def __init__(self, J):
            self.J, self.lu = J.copy(), _factorize(J)

        def solve(self, rhs):
            systems.append((self.J, rhs.copy()))
            return self.lu.solve(rhs)

    monkeypatch.setattr(solver, "_factorize", Recorded)
    _, report = solve_dirichlet(problem, g, boundary, tol=1e-8, max_iter=100)
    assert report.converged
    return systems


def test_factorize_blocking_keeps_default_pivots_fill_and_step(monkeypatch):
    # panel_size and relax change only how SuperLU groups columns: on the
    # first and last Jacobians of the perfbench solve-2d solve, the pivots
    # and fill are those of SuperLU's default blocking
    from scipy.sparse.linalg import splu

    solve_2d = _newton_systems(monkeypatch, _solve_2d_problem(),
                               build_ball_grid([0.0, 0.0], 1.2, 0.05, 2),
                               lambda x: 10.0)
    assert solve_2d[0][0].shape == (1789, 1789) and len(solve_2d) > 2
    for J, rhs in (solve_2d[0], solve_2d[-1]):
        lu, default = _factorize(J), splu(J, permc_spec="NATURAL")
        assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz
        assert np.array_equal(lu.perm_r, default.perm_r)
        assert np.array_equal(lu.perm_c, default.perm_c)
        exact = np.linalg.solve(J.toarray(), rhs)
        step = lu.solve(rhs)
        assert np.abs(step - exact).max() <= 1e-12 * np.abs(exact).max()


def test_1d_newton_step_is_the_dense_solve_without_sparse_factors(monkeypatch):
    # every Newton system of a 1D solve goes to the tridiagonal solver: no
    # sparse pattern or factorization is built, and each step equals the
    # dense solve of J as ``_jacobian_pattern`` assembles it
    import osserman_lab.solver as solver

    def no_sparse(*args):
        raise AssertionError("sparse Jacobian built for a 1D solve")

    systems = []
    step_solver = solver._step_solver

    def recorded(grid):
        solve = step_solver(grid)

        def record(table, rhs):
            rhs = rhs.copy()
            step = solve(table, rhs.copy())
            systems.append((table, rhs, step))
            return step

        return record

    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=1)
    g = build_ball_grid(0.0, 2.0, 0.02, 1)
    monkeypatch.setattr(solver, "_jacobian_pattern", no_sparse)
    monkeypatch.setattr(solver, "_factorize", no_sparse)
    monkeypatch.setattr(solver, "_step_solver", recorded)
    _, report = solve_dirichlet(_laplace_problem(s=3.0, H=H), g,
                                lambda x: 100.0, tol=1e-8, max_iter=100)
    assert report.converged and len(systems) == report.iterations > 2
    J, slot, order = _jacobian_pattern(g)
    for table, rhs, step in systems:
        J.data[:] = table.ravel()[slot]
        exact = np.empty(g.n_interior)
        exact[order] = np.linalg.solve(J.toarray(), rhs[order])
        assert np.abs(step - exact).max() <= 1e-12 * np.abs(exact).max()


def test_singular_jacobian_ends_the_solve_unconverged(monkeypatch):
    import osserman_lab.solver as solver

    def zero_table(problem, grid, vals, policy):
        return np.zeros((grid.n_interior, 1 + len(grid.offsets)))

    monkeypatch.setattr(solver, "_jacobian_table", zero_table)
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    sol, report = solve_dirichlet(_laplace_problem(), g, lambda x: 1.0,
                                  tol=1e-10, max_iter=10)
    assert not report.converged
    assert report.iterations == 0
    assert np.all(np.isfinite(sol.values))


def _criterion_7_problem():
    # the acceptance expanding-ball problem: Pucci+ (lam = Lam = 1),
    # H = |p|^2, s = 3
    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=1)
    return ProblemSpec(F=pucci_operator(EllipticityPair(1.0, 1.0), "+"),
                       H=H, s=3.0, f=lambda x: 0.0)


@pytest.mark.parametrize("case, data", [("solve-2d", 9.5), ("solve-2d", 10.0),
                                        ("solve-2d", 10.5),
                                        ("criterion-7", 100.0)])
def test_every_newton_jacobian_has_nonnegative_off_diagonals(monkeypatch,
                                                             case, data):
    # the scheme is monotone at every iterate: each residual is
    # nondecreasing in every neighbour value, so off the diagonal the policy
    # Jacobian is >= 0 (an H decreasing in |p|, such as -|p|^2, breaks this)
    import osserman_lab.solver as solver

    tables = []
    table = solver._jacobian_table

    def recorded(*args):
        tables.append(table(*args))
        return tables[-1]

    monkeypatch.setattr(solver, "_jacobian_table", recorded)
    if case == "solve-2d":  # the perfbench solve-2d problem
        reports = [solve_dirichlet(_solve_2d_problem(),
                                   build_ball_grid([0.0, 0.0], 1.2, 0.05, 2),
                                   lambda x: data, tol=1e-8,
                                   max_iter=100)[1]]
    else:
        reports = construct_entire(_criterion_7_problem(), 8, [lambda x: data],
                                   1e-8, 0.02, 100)[0].reports
    assert all(r.converged for r in reports)
    assert len(tables) == sum(r.iterations for r in reports) > 0
    for t in tables:
        assert (t[:, 1:] >= 0.0).all()


def test_discrete_comparison():
    # larger boundary data gives a pointwise larger solution
    H = hamiltonian_library("prototype", c1=1.0, cm=1.0, m=2.0, n=1)
    problem = _laplace_problem(s=2.0, H=H)
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    lo, rl = solve_dirichlet(problem, g, lambda x: 0.5, tol=1e-10,
                             max_iter=100_000)
    hi, rh = solve_dirichlet(problem, g, lambda x: 1.0, tol=1e-10,
                             max_iter=100_000)
    assert rl.converged and rh.converged
    assert np.all(hi.interior_values >= lo.interior_values - 1e-8)


def test_unconverged_run_is_reported_not_raised():
    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=1)
    problem = _laplace_problem(s=2.0, H=H)
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    sol, report = solve_dirichlet(problem, g, lambda x: 5.0, tol=1e-12,
                                  max_iter=3)
    assert isinstance(report, SolveReport)
    assert not report.converged
    assert len(report.residual_history) == 3
    assert np.all(np.isfinite(sol.values))


def test_solve_rejects_bad_tol():
    problem = _laplace_problem()
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    with pytest.raises(ValueError):
        solve_dirichlet(problem, g, lambda x: 0.0, tol=0.0, max_iter=10)


def test_initial_guess_is_used():
    problem = _laplace_problem(s=2.0, f=lambda x: -1.0)
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    cold, rep_cold = solve_dirichlet(problem, g, lambda x: 1.0, tol=1e-10,
                                     max_iter=100_000)
    warm, rep_warm = solve_dirichlet(problem, g, lambda x: 1.0, tol=1e-10,
                                     max_iter=100_000,
                                     initial=cold.interior_values)
    assert rep_warm.converged
    assert rep_warm.iterations <= 1
    assert np.abs(warm.interior_values - cold.interior_values).max() < 1e-8


def test_mms_errors_decrease_first_order():
    # manufactured solution cos(x) for Lap u + |Du|^2 - |u|^2 u = f
    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=1)

    def f(x):
        return -np.cos(x[:, 0]) + np.sin(x[:, 0]) ** 2 - np.cos(x[:, 0]) ** 3

    problem = ProblemSpec(F=laplacian_operator(), H=H, s=3.0, f=f)
    rows = mms_convergence(problem, lambda x: np.cos(x[:, 0]), 0.0, 1.0, 1,
                           [0.1, 0.05], tol=1e-10, max_iter=200_000)
    assert all(r["converged"] for r in rows)
    assert rows[1]["sup_error"] < rows[0]["sup_error"]
    assert rows[1]["order"] >= 0.85  # first-order scheme (monotone upwinding)
    assert math.isnan(rows[0]["order"])


def test_2d_pucci_quadratic_first_order():
    ell = EllipticityPair(1.0, 2.0)
    F = pucci_operator(ell, "+")
    H = hamiltonian_library("zero", n=2)

    def u_star(x):
        return x[:, 0] ** 2 + x[:, 1] ** 2

    def f(x):
        u = u_star(x)
        return 2.0 * 2.0 * 2.0 - np.abs(u) * u  # P+(2I) = 2 Lam * 2

    problem = ProblemSpec(F=F, H=H, s=2.0, f=f)
    errs = {}
    for h in (0.1, 0.025):
        g = build_ball_grid([0.0, 0.0], 1.0, h, 2)
        sol, rep = solve_dirichlet(problem, g, u_star, tol=1e-10,
                                   max_iter=500_000)
        assert rep.converged
        exact = u_star(g.interior_nodes)
        errs[h] = float(np.abs(sol.interior_values - exact).max())
    # cut-cell boundary error dominates and scales like h
    assert errs[0.025] <= 0.5 * errs[0.1]
    assert errs[0.025] <= 1.5 * 0.025


_ELL = EllipticityPair(0.5, 2.0)
_OPERATORS = {
    "pucci_plus": lambda n: pucci_operator(_ELL, "+"),
    "pucci_minus": lambda n: pucci_operator(_ELL, "-"),
    "laplacian": lambda n: laplacian_operator(),
    "weighted_trace": lambda n: weighted_trace_operator([0.7, 1.6][:n]),
}
_HAMILTONIANS = {
    "prototype_m1": lambda n: hamiltonian_library(
        "prototype", c1=0.5, cm=1.0, m=1.0, n=n),
    "prototype_m2": lambda n: hamiltonian_library(
        "prototype", c1={"c0": 0.5, "amp": 0.2}, cm=1.0, m=2.0, n=n),
    "two_power": lambda n: hamiltonian_library(
        "two_power", c=1.0, a=0.5, m=1.8, l=1.5, n=n),
    "two_power_l1": lambda n: hamiltonian_library(
        "two_power", c=1.0, a=0.5, m=1.8, l=1.0, n=n),
    "sup_inf": lambda n: hamiltonian_library(
        "sup_inf", m=1.6, n=n, matrices=(
            [[[[2.0]], [[3.0]]], [[[1.5]]]] if n == 1 else
            [[[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]],
             [[[1.5, -0.3], [-0.3, 2.0]]]])),
    "rational_factor": lambda n: hamiltonian_library("rational_factor", n=n),
    "zero": lambda n: hamiltonian_library("zero", n=n),
    "negated_prototype": lambda n: negate_hamiltonian(
        hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=n)),
}


@pytest.mark.parametrize("h_tag", sorted(_HAMILTONIANS))
@pytest.mark.parametrize("f_tag", sorted(_OPERATORS))
@pytest.mark.parametrize("n", [1, 2])
def test_policy_jacobian_matches_finite_differences(n, f_tag, h_tag):
    problem = ProblemSpec(F=_OPERATORS[f_tag](n), H=_HAMILTONIANS[h_tag](n),
                          s=2.5, f=lambda x: 0.3)
    g = build_ball_grid([0.0] * n, 1.0, 0.2, n)
    ni = g.n_interior
    f_vals = np.full(ni, 0.3)
    rng = np.random.default_rng(2024 + 7 * n)
    J, slot, order = _jacobian_pattern(g)
    for _ in range(3):
        # a random smooth state, a few plane waves: no polynomial part, whose
        # equal-sign second differences would tie the two 2D frames exactly
        waves = 3.0 * rng.standard_normal((3, n))
        phases = rng.uniform(0.0, 2.0 * np.pi, 3)
        vals = rng.uniform(-1.0, 1.0) \
            + np.sin(g.nodes @ waves.T + phases).sum(axis=1)
        res, policy = _interior_residual(problem, g, vals, f_vals)
        J.data[:] = _jacobian_table(problem, g, vals, policy).ravel()[slot]
        dense = np.empty((ni, ni))
        for j in range(ni):
            step = 1e-7 * (1.0 + abs(vals[j]))
            bumped = vals.copy()
            bumped[j] += step
            res_j, pol_j = _interior_residual(problem, g, bumped, f_vals)
            # away from policy ties: the bump leaves every branch in place
            assert np.array_equal(pol_j.side, policy.side)
            assert np.array_equal(pol_j.weights, policy.weights)
            dense[:, j] = (res_j - res) / step
        np.testing.assert_allclose(J.toarray(), dense[np.ix_(order, order)],
                                   rtol=1e-5, atol=1e-5 * np.abs(dense).max())


def test_cold_large_ball_solve_takes_few_newton_steps():
    # the acceptance expanding-ball problem at its largest radius, cold
    problem = _criterion_7_problem()
    g = build_ball_grid(0.0, 8.0, 0.02, 1)
    sol, report = solve_dirichlet(problem, g, lambda x: 100.0, tol=1e-8,
                                  max_iter=40)
    assert report.converged
    assert report.iterations <= 40
    assert len(report.residual_history) == report.iterations
    assert np.abs(residual_field(problem, sol)).max() <= 1e-8


@pytest.mark.xfail(strict=True, reason="Newton's first step from the zero "
                   "state is halved below ALPHA_MIN")
def test_2d_pucci_with_first_order_hamiltonian_converges():
    # 2D Pucci+ with lam < Lam and H = |p|: the line search rejects every
    # step length down to 2^-30, so the solve ends after 0 steps at sup
    # residual ~2. With Lam = 1, with the Laplacian or with c1 = 0 it
    # converges in a few steps.
    problem = ProblemSpec(
        F=pucci_operator(EllipticityPair(1.0, 2.0), "+"),
        H=hamiltonian_library("prototype", c1=1.0, cm=0.0, m=1.0, n=2),
        s=3.0, f=radial_power_rhs(0.5))
    grid = build_ball_grid([0.0, 0.0], 1.0, 0.1, 2)
    _, rep = solve_dirichlet(problem, grid, lambda x: 0.0, 1e-7, 1000)
    assert rep.converged
