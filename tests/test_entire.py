import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from osserman_lab.barrier import barrier_constants
from osserman_lab.core import ScalarField, build_ball_grid, norm, sample_field
from osserman_lab.entire import (check_local_bound, construct_entire,
                                 continuum_oracle_1d, fit_abp_constant,
                                 fit_decay_exponent,
                                 local_bound, rho_threshold,
                                 rho_threshold_closed_form, separation_table,
                                 sup_difference)
from osserman_lab.operators import (EllipticityPair, HamiltonianH, OperatorF,
                                    hamiltonian_library, laplacian_operator,
                                    pucci_operator)
from osserman_lab.solver import ProblemSpec, solve_dirichlet
from osserman_lab.uniqueness import CounterexampleField


def _problem(s=3.0, m=1.0, c1=1.0, cm=0.0, f=lambda x: 0.0):
    H = hamiltonian_library("prototype", c1=c1, cm=cm, m=m, n=1)
    return ProblemSpec(F=laplacian_operator(), H=H, s=s, f=f)


def test_construct_entire_needs_a_center():
    # the center sets the grids' dimension, so there is no default for it
    with pytest.raises(TypeError, match="center"):
        construct_entire(_problem(), 1, [lambda x: 0.0], 1e-8, 0.25, 10)


def test_zero_data_run_is_exactly_zero():
    run, = construct_entire(_problem(), 3, [lambda x: 0.0], tol=1e-10,
                            h=0.25, max_iter=1000, center=[0.0])
    assert run.radii == (1, 2, 3)
    assert not run.flagged
    for f in run.fields:
        assert np.abs(f.values).max() == 0.0
    assert all(row["sup_diff"] == 0.0 for row in run.stabilization)
    # stabilization rows are (k, k+1, j<k)
    assert [(r["k"], r["k_next"], r["j"]) for r in run.stabilization] \
        == [(2, 3, 1)]


def test_construct_entire_rejects_bad_kmax_and_flags_nonconvergence():
    with pytest.raises(ValueError):
        construct_entire(_problem(), 0, [lambda x: 0.0], 1e-8, 0.25, 10, [0.0])
    run, = construct_entire(_problem(), 3, [lambda x: 50.0], tol=1e-12,
                            h=0.25, max_iter=2, center=[0.0])
    assert run.flagged
    assert len(run.fields) == 1  # stopped at the first non-convergent ball


def _same_run(joint, alone):
    assert len(joint.fields) == len(alone.fields)
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(joint.fields, alone.fields))
    for a, b in zip(joint.reports, alone.reports):
        assert np.array_equal(a.residual_history, b.residual_history)
        assert (a.iterations, a.final_residual, a.backtracks, a.converged) \
            == (b.iterations, b.final_residual, b.backtracks, b.converged)
    assert joint.stabilization == alone.stabilization


@pytest.mark.parametrize("n, k_max, h", [(1, 4, 0.04), (2, 3, 0.1)])
def test_joint_ladder_gives_each_boundary_its_one_boundary_run(n, k_max, h):
    # the criterion-7 problem (Pucci+ with lam = Lam = 1, H = |p|^2, s = 3)
    # with data 0 and 100: every run of a shared ladder is the run that
    # boundary gets alone, bit for bit
    H = hamiltonian_library("prototype", c1=0.0, cm=1.0, m=2.0, n=n)
    prob = ProblemSpec(F=pucci_operator(EllipticityPair(1.0, 1.0), "+"), H=H,
                       s=3.0, f=lambda x: 0.0)
    data = [lambda x: 0.0, lambda x: 100.0]
    center = [0.0] * n
    joint = construct_entire(prob, k_max, data, 1e-8, h, 5_000_000, center)
    assert len(joint) == 2
    alone = [construct_entire(prob, k_max, [g], 1e-8, h, 5_000_000, center)[0]
             for g in data]
    for run, own in zip(joint, alone):
        assert not own.flagged and own.radii == tuple(range(1, k_max + 1))
        _same_run(run, own)
    # each radius is one grid, so the joint runs compare node for node; the
    # separate runs' grids are matched through the lattice to the same table
    assert all(a.grid is b.grid for a, b in zip(*(r.fields for r in joint)))
    assert separation_table(*joint) == separation_table(*alone)


def test_joint_ladder_goes_on_after_one_boundary_stops():
    data = [lambda x: 50.0, lambda x: 0.0]
    joint = construct_entire(_problem(), 3, data, tol=1e-12, h=0.25,
                             max_iter=2, center=[0.0])
    assert [len(run.fields) for run in joint] == [1, 3]
    for run, g in zip(joint, data):
        _same_run(run, construct_entire(_problem(), 3, [g], tol=1e-12,
                                        h=0.25, max_iter=2,
                                        center=[0.0])[0])


def test_sup_difference_requires_matching_lattices():
    g1 = build_ball_grid(0.0, 1.0, 0.1, 1)
    g2 = build_ball_grid(0.0, 2.0, 0.1, 1)
    g3 = build_ball_grid(0.0, 1.0, 0.2, 1)
    a = sample_field(g1, lambda x: x[:, 0])
    b = sample_field(g2, lambda x: 2.0 * x[:, 0])
    c = sample_field(g3, lambda x: x[:, 0])
    assert sup_difference(a, b, 0.5) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        sup_difference(a, c, 0.5)
    with pytest.raises(ValueError):
        sup_difference(a, b, 1e-6, center=[0.55])


def _dict_matches(a, b):
    """(i, j) pairs of interior nodes of a and b on the same lattice offset,
    found through a dict keyed by lattice tuples."""
    index = {tuple(p): j for j, p in enumerate(b.lattice[: b.n_interior])}
    return [(i, index[tuple(p)]) for i, p in enumerate(a.lattice[: a.n_interior])
            if tuple(p) in index]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]),
       center=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
       h=st.floats(0.05, 0.4),
       radii=st.lists(st.floats(1.0, 2.5), min_size=2, max_size=2),
       sub=st.floats(0.1, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_lattice_matching_agrees_with_dict_match(n, center, h, radii, sub, seed):
    center = np.asarray(center[:n])
    ga, gb = (build_ball_grid(center, r, h, n) for r in radii)
    rng = np.random.default_rng(seed)
    a = ScalarField(grid=ga, values=rng.standard_normal(len(ga.nodes)))
    b = ScalarField(grid=gb, values=rng.standard_normal(len(gb.nodes)))
    pairs = _dict_matches(ga, gb)
    near = [(i, j) for i, j in pairs
            if np.linalg.norm(ga.nodes[i] - center) < sub]
    want = max(abs(a.values[i] - b.values[j]) for i, j in near)
    assert sup_difference(a, b, sub) == want


def test_sup_difference_rejects_other_center_or_spacing():
    a = sample_field(build_ball_grid([0.0, 0.0], 1.0, 0.1, 2), lambda x: x[:, 0])
    moved = sample_field(build_ball_grid([0.05, 0.0], 1.0, 0.1, 2), lambda x: x[:, 0])
    finer = sample_field(build_ball_grid([0.0, 0.0], 1.0, 0.05, 2), lambda x: x[:, 0])
    for other in (moved, finer):
        with pytest.raises(ValueError, match="share spacing and center"):
            sup_difference(a, other, 0.5)


def test_decay_exponent_matches_barrier_exponent_for_m1():
    # s=3, m=1: mu = 2/(s-1) = 1 agrees with the true far-field decay, so
    # sup_{B_1} u_k ~ C/k and the tail fit lands near 1.
    run, = construct_entire(_problem(), 6, [lambda x: 100.0], tol=1e-7,
                            h=0.1, max_iter=500_000, center=[0.0])
    assert not run.flagged
    vals = [norm(f, kind="sup", center=[0.0], radius=1.0) for f in run.fields]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    expo = fit_decay_exponent(run.radii, vals)
    assert abs(expo - 1.0) < 0.3


def test_separation_decays_for_s_greater_than_m():
    prob = _problem()
    ra, rb = construct_entire(prob, 4, [lambda x: 0.0, lambda x: 100.0],
                              tol=1e-7, h=0.1, max_iter=500_000,
                              center=[0.0])
    seps = [row["separation"] for row in separation_table(ra, rb)]
    assert len(seps) == 4
    assert all(b < a for a, b in zip(seps, seps[1:]))
    assert seps[-1] < 1.0


def test_separation_persists_for_s_equal_m():
    # s = m = 2 with the closed-form boundary family: different alpha give
    # different entire solutions, so the separation does not vanish
    prob = _problem(s=2.0, m=2.0, c1=0.0, cm=0.5, f=lambda x: -1.0)
    ra, rb = construct_entire(
        prob, 3, [CounterexampleField(alpha=a).values
                  for a in (0.0, 1.0)], tol=1e-7, h=0.1, max_iter=2_000_000,
        center=[0.0])
    seps = [row["separation"] for row in separation_table(ra, rb)]
    assert min(seps) > 0.9
    # alpha = 0 solves u = 1 exactly, so its stabilization table is zero
    assert all(row["sup_diff"] == 0.0 for row in ra.stabilization)


def test_fit_decay_exponent_recovers_power_law():
    r = np.arange(1, 9, dtype=float)
    assert fit_decay_exponent(r, 3.0 / r ** 2) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_decay_exponent([1.0, 2.0, 3.0], [1.0, 0.5, 0.25])  # 1 tail point


def test_local_bound_formula():
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    zero = sample_field(g, lambda x: 0.0)
    params = {"s": 3.0, "m": 2.0, "n": 1, "Lam": 1.0, "gamma1": 0.0,
              "gamma_m": 1.0}
    r = 0.4
    spec = barrier_constants(s=3.0, m=2.0, n=1, Lam=1.0, gamma1=0.0,
                             gamma=2.0, delta=1.0, R=2.0 * r)
    expected = spec.C_R * (2.0 / 3.0) ** spec.mu * r ** (-spec.mu)
    assert local_bound(r, [0.0], zero, params) == pytest.approx(expected, rel=1e-12)
    # the f^- term is additive
    ones = sample_field(g, lambda x: -0.1)
    with_f = local_bound(r, [0.0], ones, params, C_emp=2.0)
    fn = norm(ScalarField(grid=g, values=np.full(len(g.nodes), 0.1)),
              kind="lp", p=1, center=[0.0], radius=2.0 * r)
    assert with_f == pytest.approx(expected + 2.0 * r * fn, rel=1e-12)


def test_local_bound_guards():
    g = build_ball_grid(0.0, 1.0, 0.1, 1)
    params = {"s": 3.0, "m": 2.0, "n": 1, "Lam": 1.0, "gamma1": 0.0,
              "gamma_m": 1.0}
    zero = sample_field(g, lambda x: 0.0)
    with pytest.raises(ValueError):
        local_bound(0.6, [0.0], zero, params)  # r > r_max
    with pytest.raises(ValueError):
        local_bound(0.0, [0.0], zero, params)
    big = sample_field(g, lambda x: -100.0)  # ABP smallness violated
    with pytest.raises(ValueError):
        local_bound(0.4, [0.0], big, params)


def test_abp_fit_and_local_bound_check():
    prob = _problem(m=1.0, c1=0.0)

    def factory(f):
        return ProblemSpec(F=prob.F, H=prob.H, s=prob.s, f=f)

    C = fit_abp_constant(factory, [0.5, 1.0, 2.0], r=0.4, h=0.05, tol=1e-9,
                         max_iter=200_000, n=1)
    assert 0.0 < C < 5.0
    with pytest.raises(ValueError):
        fit_abp_constant(factory, [-1.0], r=0.4, h=0.05, tol=1e-9,
                         max_iter=100, n=1)

    run, = construct_entire(prob, 2, [lambda x: 100.0], tol=1e-8, h=0.05,
                            max_iter=400_000, center=[0.0])
    rep = check_local_bound(run, 0.4, [0.0], C_emp=C)
    assert rep.passed
    assert rep.worst_margin > 0.0
    # shrinking the barrier constant falsifies the bound
    rep_bad = check_local_bound(run, 0.4, [0.0], C_emp=C, c0_scale=0.1)
    assert not rep_bad.passed
    with pytest.raises(ValueError):
        check_local_bound(run, 0.4, [10.0], C_emp=C)  # outside every ball


def test_rho_threshold():
    assert rho_threshold(3.0, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(300):
        s = rng.uniform(1.5, 6.0)
        m = rng.uniform(1.01, min(2.0, s - 0.05))
        assert rho_threshold(s, m) == pytest.approx(
            rho_threshold_closed_form(s, m), rel=1e-12)
    with pytest.raises(ValueError):
        rho_threshold(3.0, 1.0)
    with pytest.raises(ValueError):
        rho_threshold(2.0, 2.0)
    with pytest.raises(ValueError):
        rho_threshold_closed_form(2.0, 2.0)


def _cubic_problem(H):
    return ProblemSpec(F=laplacian_operator(), H=H, s=3.0, f=lambda x: 0.0)


def _first_integral_half_width(w0, top=100.0):
    """Where w'' = w^3, w(0) = w0, w'(0) = 0 reaches `top`: the integral of
    dw / sqrt((w^4 - w0^4)/2) from w0 to top. Substituting w = w0 + t^2 and
    factoring w^4 - w0^4 removes the singularity at w0."""
    def integrand(t):
        w = w0 + t * t
        return 2.0 / math.sqrt((2.0 * w0 + t * t) * (w * w + w0 * w0) / 2.0)
    return quad(integrand, 0.0, math.sqrt(top - w0), epsabs=1e-13,
                epsrel=1e-13, limit=200)[0]


def test_continuum_oracle_matches_first_integral():
    problem = _cubic_problem(hamiltonian_library("zero", n=1))
    for k in (1.0, 3.0, 8.0):
        w0 = brentq(lambda w: _first_integral_half_width(w) - k, 1e-3, 99.0,
                    xtol=1e-14)
        center_value = float(continuum_oracle_1d(problem, k, 100.0)([0.0])[0])
        assert abs(center_value - w0) <= 1e-6
    # w_k(0) ~ 1.854 / k for large data: a 1/k decay, not k^-mu = k^-2
    assert w0 == pytest.approx(1.854 / 8.0, rel=1e-2)


def test_continuum_oracle_respects_comparison():
    # u'' = u^3 - |u'|^2 <= u^3: the H = |p|^2 solution is a supersolution
    # of w'' = w^3 with the same data, so it lies at or above it
    lower = _cubic_problem(hamiltonian_library("zero", n=1))
    upper = _cubic_problem(hamiltonian_library("prototype", c1=0.0, cm=1.0,
                                               m=2.0, n=1))
    for k in (1.0, 4.0):
        x = np.linspace(-k, k, 4001)
        gap = (continuum_oracle_1d(upper, k, 100.0)(x)
               - continuum_oracle_1d(lower, k, 100.0)(x))
        assert gap.min() >= -1e-9
        assert gap[2000] > 0.01


def test_fd_solution_converges_to_continuum_oracle():
    # Pucci- with lam < Lam (so u'' is inverted on two branches), an
    # x-dependent f, m = 1.5 and data of either sign: first-order agreement
    problem = ProblemSpec(
        F=pucci_operator(EllipticityPair(0.5, 2.0), "-"),
        H=hamiltonian_library("prototype", c1=0.0, cm=1.0, m=1.5, n=1),
        s=2.5, f=lambda x: -1.0 + 0.5 * np.sin(x[:, 0]))
    for g in (-5.0, 3.0):
        oracle = continuum_oracle_1d(problem, 2.0, g)
        errs = []
        for h in (0.2, 0.1):
            grid = build_ball_grid(0.0, 2.0, h, 1)
            sol, rep = solve_dirichlet(problem, grid, lambda x: g, 1e-7,
                                       1_000_000)
            assert rep.converged
            errs.append(float(np.abs(sol.interior_values
                                     - oracle(grid.interior_nodes)).max()))
        assert errs[1] <= 0.6 * errs[0]
        assert errs[1] <= 0.1


def test_continuum_oracle_refuses_what_it_does_not_cover():
    problem = _cubic_problem(hamiltonian_library("zero", n=1))
    with pytest.raises(ValueError):
        continuum_oracle_1d(problem, 1.0, lambda x: x[:, 0])
    x_dependent = OperatorF(
        evaluator=lambda x, X: (1.0 + x[:, 0] ** 2) * X[:, 0, 0],
        ellipticity=EllipticityPair(1.0, 2.0),
        stencil=lambda x, d2: (1.0 + x[:, :1] ** 2) * np.ones_like(d2))
    with pytest.raises(ValueError):
        continuum_oracle_1d(ProblemSpec(F=x_dependent, H=problem.H, s=3.0,
                                        f=problem.f), 1.0, 1.0)
    # u'' = u^3 + |u'|^3 with data 100 on (-1, 1) has no solution. Its
    # minimum u0 is >= 0 (u'' = u0^3 there), so u' only grows away from it;
    # once |u'| >= 1 it blows up within x-distance 1/2 while u climbs at
    # most 1 more, so u climbs at most 3 in all and u >= 97 throughout; then
    # u'' >= 97^3 drives |u'| past 1 at once and it blows up inside (-1, 1).
    blow_up = HamiltonianH(evaluator=lambda x, p: -np.abs(p[..., 0]) ** 3,
                           m=3.0, gamma1=0.0, gamma_m=3.0,
                           gradient=lambda x, p: -3.0 * np.abs(p) * p)
    with pytest.raises(RuntimeError), np.errstate(over="ignore"):
        continuum_oracle_1d(_cubic_problem(blow_up), 1.0, 100.0)
