import math
from dataclasses import replace

import numpy as np
import pytest

from osserman_lab.barrier import (barrier_constants, barrier_eval,
                                  barrier_residuals, exponent_mu,
                                  uniqueness_scaling,
                                  verify_barrier_inequality)
from osserman_lab.core import build_ball_grid, fd_derivatives, row_norms, sample_field
from osserman_lab.operators import EllipticityPair, pucci


def test_exponent_mu_examples():
    assert exponent_mu(3.0, 2.0) == pytest.approx(2.0)
    assert exponent_mu(3.0, 1.0) == pytest.approx(1.0)
    assert exponent_mu(2.0, 1.5) == pytest.approx(3.0)  # m > 2s/(s+1): m/(s-m)
    # branch boundary m = 2s/(s+1): both formulas agree
    s = 3.0
    m = 2.0 * s / (s + 1.0)
    assert 2.0 / (s - 1.0) == pytest.approx(m / (s - m))
    assert exponent_mu(s, m) == pytest.approx(1.0)


def test_exponent_mu_rejects_bad_range():
    with pytest.raises(ValueError):
        exponent_mu(2.0, 2.0)
    with pytest.raises(ValueError):
        exponent_mu(3.0, 0.5)


def test_constants_worked_example():
    spec = barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=0, gamma=1,
                             delta=1, R=1)
    assert spec.mu == pytest.approx(2.0)
    assert spec.a == pytest.approx(math.sqrt(56.0), rel=1e-12)
    assert spec.b == pytest.approx(32.0, rel=1e-12)
    assert spec.C_R == pytest.approx(32.0, rel=1e-12)


def test_constants_delta_scaling():
    base = barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=0, gamma=1,
                             delta=1, R=1)
    quad = barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=0, gamma=1,
                             delta=4, R=1)
    # a^{s-1} and b^{s-m} are both proportional to 1/delta, so at s=3, m=2:
    # replacing delta by 4*delta divides a by 2 and b by 4.
    assert quad.a == pytest.approx(base.a / 2.0, rel=1e-12)
    assert quad.b == pytest.approx(base.b / 4.0, rel=1e-12)


def test_constants_gamma_zero_degenerates_to_a_branch():
    spec = barrier_constants(s=3, m=2, n=1, Lam=1, gamma1=1, gamma=0,
                             delta=1, R=2)
    assert spec.C_R == pytest.approx(
        spec.a * (1.0 + 1.0 * 2.0) ** 0.5 * 2.0 ** (spec.mu - 1.0), rel=1e-12)


def test_constants_reject_bad_parameters():
    with pytest.raises(ValueError):
        barrier_constants(s=2, m=2, n=2, Lam=1, gamma1=0, gamma=1, delta=1, R=1)
    with pytest.raises(ValueError):
        barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=0, gamma=1, delta=0, R=1)
    with pytest.raises(ValueError):
        barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=-1, gamma=1, delta=1, R=1)


def test_barrier_eval_center_and_blowup():
    spec = barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=0, gamma=1,
                             delta=1, R=1)
    val, grad, hess = barrier_eval(spec, [[0.0, 0.0], [0.999, 0.0]])
    assert val.shape == (2,) and grad.shape == (2, 2) and hess.shape == (2, 2, 2)
    assert val[0] == pytest.approx(spec.C_R / spec.R ** spec.mu)
    assert np.allclose(grad[0], 0.0)
    # at the center the Hessian is phi''(0) I with phi''(0) = 2 mu C_R / R^{mu+2}
    expected = 2.0 * spec.mu * spec.C_R / spec.R ** (spec.mu + 2.0)
    assert np.allclose(hess[0], expected * np.eye(2), rtol=1e-12)
    assert val[1] > 1e5 * val[0]
    with pytest.raises(ValueError):
        barrier_eval(spec, [[1.0, 0.0]])


def test_barrier_takes_n_columns_of_points():
    spec = barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=0, gamma=1,
                             delta=1, R=1)
    # six coordinates are not regrouped into three 2D points
    for bad in (np.zeros((2, 3)), np.zeros(6), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError):
            barrier_eval(spec, bad)
        with pytest.raises(ValueError):
            barrier_residuals(spec, bad)


def test_barrier_eval_matches_finite_differences():
    spec = barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=1, gamma=1,
                             delta=1, R=2)
    g = build_ball_grid([0.4, -0.3], 0.1, 0.01, 2)
    f = sample_field(g, lambda pts: barrier_eval(spec, pts)[0])
    _, grad, hess = barrier_eval(spec, g.interior_nodes)
    fgrad, fhess = fd_derivatives(f)
    assert np.abs(fgrad - grad).max() < 1e-3
    assert np.abs(fhess - hess).max() < 1e-3


def test_barrier_curvatures_positive():
    spec = barrier_constants(s=4, m=2, n=2, Lam=2, gamma1=1, gamma=8,
                             delta=0.25, R=4)
    pts = np.random.default_rng(0).uniform(-2.5, 2.5, (50, 2))  # all |x| < R
    _, _, hess = barrier_eval(spec, pts)
    assert np.linalg.eigvalsh(hess).min() > 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_residual_matches_pucci_of_the_hessian(n):
    # P+ of the full Hessian with lam < Lam: both curvatures are positive,
    # so barrier_residuals must put Lam on each of them.
    spec = barrier_constants(s=3, m=1.5, n=n, Lam=2, gamma1=1, gamma=2,
                             delta=0.5, R=1.5)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, (400, n))
    pts = np.vstack([np.zeros((1, n)), pts[row_norms(pts) < 1.4]])
    val, grad, hess = barrier_eval(spec, pts)
    gn = row_norms(grad)
    terms = [pucci(hess, EllipticityPair(0.5, spec.Lam), "+"), spec.gamma1 * gn,
             spec.gamma * gn ** spec.m, -spec.delta * val ** spec.s]
    res = barrier_residuals(spec, pts)
    assert np.all(np.abs(sum(terms) - res) <= 1e-13 * sum(np.abs(t) for t in terms))


def test_residual_formula_at_origin():
    spec = barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=0, gamma=1,
                             delta=1, R=1)
    res = barrier_residuals(spec, np.zeros((1, 2)))[0]
    phi0 = spec.C_R / spec.R ** spec.mu
    ddphi0 = 2.0 * spec.mu * spec.C_R / spec.R ** (spec.mu + 2.0)
    # gradient vanishes at the center: residual = Lam * n * phi'' - delta phi^s
    assert res == pytest.approx(spec.Lam * 2.0 * ddphi0 - spec.delta * phi0 ** 3,
                                rel=1e-12)
    with pytest.raises(ValueError):
        barrier_residuals(spec, np.array([[1.0, 0.0]]))


def test_inequality_holds_on_sample_of_sweep():
    combos = [
        (3.0, 1.0, 1, 1.0, 0.0, 0.5, 1.0),
        (3.0, 2.0, 2, 16.0, 1.0, 8.0, 0.25),
        (2.0, 1.2, 2, 4.0, 1.0, 1.0, 1.0),
        (4.0, 2.0, 1, 1.0, 0.0, 8.0, 0.25),
        (3.0, 1.5, 2, 1.0, 1.0, 0.5, 1.0),
    ]
    for s, m, n, R, gamma1, gamma, delta in combos:
        spec = barrier_constants(s=s, m=m, n=n, Lam=1.0, gamma1=gamma1,
                                 gamma=gamma, delta=delta, R=R)
        grid = build_ball_grid([0.0] * n, 0.999 * R, R / 25.0, n)
        rep = verify_barrier_inequality(spec, grid)
        assert rep.passed, (s, m, n, R, rep.extra)


def test_inequality_fails_for_too_small_constant():
    spec = barrier_constants(s=3, m=2, n=2, Lam=1, gamma1=1, gamma=1,
                             delta=1, R=1)
    bad = replace(spec, C_R=spec.C_R / 4.0)
    grid = build_ball_grid([0.0, 0.0], 0.999, 0.05, 2)
    rep = verify_barrier_inequality(bad, grid)
    assert not rep.passed
    assert rep.extra["max_residual"] > 0.0
    with pytest.raises(ValueError):
        verify_barrier_inequality(spec, build_ball_grid([0.0, 0.0], 1.0, 0.05, 2))


def test_uniqueness_scaling_worked_example():
    K, limit = uniqueness_scaling(theta=1.0, s=3.0, m=2.0, b=32.0, tg=1.25)
    assert K == pytest.approx(320.0, rel=1e-12)
    assert limit == pytest.approx(0.125, rel=1e-12)


def test_uniqueness_scaling_identity_and_theta_law():
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = rng.uniform(1.5, 5.0)
        m = rng.uniform(1.1, min(2.0, s - 0.1))
        theta = 10.0 ** rng.uniform(-3, 3)
        b = 10.0 ** rng.uniform(-2, 2)
        tg = 10.0 ** rng.uniform(-2, 2)
        _, limit = uniqueness_scaling(theta, s, m, b, tg)
        assert limit == pytest.approx(theta / 8.0, rel=1e-12)
        _, limit2 = uniqueness_scaling(2.0 * theta, s, m, b, tg)
        assert limit2 == pytest.approx(2.0 * limit, rel=1e-12)


def test_uniqueness_scaling_rejects_degenerate():
    with pytest.raises(ValueError):
        uniqueness_scaling(1.0, 3.0, 1.0, 32.0, 1.25)
    with pytest.raises(ValueError):
        uniqueness_scaling(1.0, 2.0, 2.0, 32.0, 1.25)
    with pytest.raises(ValueError):
        uniqueness_scaling(-1.0, 3.0, 2.0, 32.0, 1.25)
