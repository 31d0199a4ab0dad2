import math

import numpy as np
import pytest

from osserman_lab.operators import hamiltonian_library, laplacian_operator
from osserman_lab.solver import ProblemSpec
from osserman_lab.uniqueness import (CounterexampleField,
                                     counterexample_residual, delta_s_oracle,
                                     extremal_difference_check)

SQRT2 = math.sqrt(2.0)


def _problem(s=2.0, cm=0.5, f=lambda x: -1.0, n=1):
    H = hamiltonian_library("prototype", c1=0.0, cm=cm, m=2.0, n=n)
    return ProblemSpec(F=laplacian_operator(), H=H, s=s, f=f)


def test_delta_oracle_closed_form():
    # delta(s) = 2^{1-s}, attained at the antisymmetric pair u = -v
    for s in (1.5, 2.0, 2.5, 3.0, 4.0):
        assert delta_s_oracle(s) == pytest.approx(2.0 ** (1.0 - s), abs=1e-9)


@pytest.mark.parametrize("s", [225.0, 400.0, 1000.0])
def test_delta_oracle_large_s(s):
    # the scan stays near v = -1/2, so |v|^s stays finite where 2^{1-s}
    # is still a normal float
    assert delta_s_oracle(s) == pytest.approx(2.0 ** (1.0 - s), rel=1e-9)


def test_delta_oracle_monotone_and_validated():
    vals = [delta_s_oracle(s) for s in (1.2, 1.8, 2.6, 3.5)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        delta_s_oracle(1.0)
    with pytest.raises(ValueError):
        delta_s_oracle(2.0, samples=5)


def test_counterexample_field_validation():
    with pytest.raises(ValueError):
        CounterexampleField(alpha=-1.0)
    with pytest.raises(ValueError):
        CounterexampleField(alpha=1.0, sign="*")
    with pytest.raises(ValueError):
        CounterexampleField(alpha=1.0, axis=1, n=1)


def test_counterexample_hand_values():
    u = CounterexampleField(alpha=1.0)
    origin = np.zeros((1, 1))
    assert u.values(origin)[0] == pytest.approx(2.0)
    assert u.gradients(origin)[0, 0] == pytest.approx(SQRT2)
    assert u.hessians(origin)[0, 0, 0] == pytest.approx(2.0)
    # residual of u at 0: 2 + 2/2 - 2*2 + 1 = 0 exactly
    rep = counterexample_residual(u, np.zeros((1, 1)), "u")
    assert rep.witness["residual"] == pytest.approx(0.0, abs=1e-14)
    g = u.boundary_function()
    gneg = u.boundary_function(negated=True)
    pts = np.array([[1.0], [0.0]])
    assert g(pts) == pytest.approx([math.exp(SQRT2) + 1.0, 2.0])
    assert gneg(pts) == pytest.approx([-(math.exp(SQRT2) + 1.0), -2.0])


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 10.0])
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("n,axis", [(1, 0), (2, 0), (2, 1)])
def test_counterexample_family_solves_both_equations(alpha, sign, n, axis):
    fld = CounterexampleField(alpha=alpha, sign=sign, axis=axis, n=n)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3.0, 3.0, (200, n))
    for variant in ("u", "v"):
        rep = counterexample_residual(fld, pts, variant)
        assert rep.passed, (alpha, sign, n, axis, variant, rep.worst_margin)


def test_counterexample_field_takes_n_columns_of_points():
    u = CounterexampleField(alpha=1.0)
    pts = np.array([0.0, 1.0, 2.0])
    assert u.values(pts[:, None]) == pytest.approx(np.exp(SQRT2 * pts) + 1.0)
    # a 1-D array of three points is not one point of dimension 3
    for method in (u.values, u.gradients, u.hessians):
        with pytest.raises(ValueError):
            method(pts)
    with pytest.raises(ValueError):
        CounterexampleField(alpha=1.0, n=2).values(np.zeros((3, 1)))


def test_counterexample_residual_validates_input():
    u = CounterexampleField(alpha=1.0)
    with pytest.raises(ValueError):
        counterexample_residual(u, np.zeros((3, 2)), "u")
    with pytest.raises(ValueError):
        counterexample_residual(u, np.zeros((3, 1)), "w")


@pytest.mark.parametrize("n", [1, 2])
def test_extremal_difference_margins(n):
    problem = _problem(n=n)
    v = CounterexampleField(alpha=1.0, axis=n - 1, n=n)
    pts = np.linspace(-2.0, 2.0, 21)[:, None] * np.ones(n)
    if n == 2:
        pts[:, 0] = -pts[:, 0]  # off the diagonal
    margins = []
    for sigma in (0.5, 0.9, 0.99, 0.999):
        rep = extremal_difference_check(v, v, sigma, problem, pts)
        assert rep.worst_margin >= -1e-8
        assert rep.extra["elementary_bound_margin"] >= -1e-12
        margins.append(rep.worst_margin)
    # the inequality tightens as sigma -> 1
    assert all(b < a for a, b in zip(margins, margins[1:]))
    assert margins[-1] < 1e-3

    u = CounterexampleField(alpha=2.0, axis=n - 1, n=n)
    rep = extremal_difference_check(u, v, 0.9, problem, pts)
    assert rep.passed
    assert rep.samples == len(pts)


class _Paraboloid:
    """The SmoothField u = c + a|x|^2."""

    def __init__(self, c, a):
        self.c, self.a = c, a

    def values(self, points):
        return self.c + self.a * (points ** 2).sum(axis=1)

    def gradients(self, points):
        return 2.0 * self.a * points

    def hessians(self, points):
        n = points.shape[1]
        return np.broadcast_to(2.0 * self.a * np.eye(n), (len(points), n, n))


def test_extremal_difference_batch_matches_single_points():
    # u = 1 + x^2 has residual 2 - x^4: a subsolution only for |x| <= 2^{1/4},
    # so the batch must drop the outer points and keep the inner ones' order
    problem = _problem()
    u, v = _Paraboloid(1.0, 1.0), CounterexampleField(alpha=1.0)
    pts = np.linspace(-2.0, 2.0, 41).reshape(-1, 1)
    rep = extremal_difference_check(u, v, 0.9, problem, pts)
    singles = []
    for x in pts:
        try:
            singles.append(extremal_difference_check(u, v, 0.9, problem, x[None]))
        except ValueError:  # u is not a subsolution at x
            pass
    assert 0 < rep.samples == len(singles) < len(pts)
    best = min(singles, key=lambda r: r.worst_margin)
    assert rep.worst_margin == best.worst_margin
    assert rep.witness == best.witness


def test_extremal_difference_rejects_bad_input():
    problem = _problem()
    v = CounterexampleField(alpha=1.0)
    pts = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    with pytest.raises(ValueError):
        extremal_difference_check(v, v, 1.0, problem, pts)
    # v fails to solve the equation when f is wrong
    wrong_f = _problem(f=lambda x: 0.0)
    with pytest.raises(ValueError):
        extremal_difference_check(v, v, 0.9, wrong_f, pts)
    # u nowhere a subsolution: constant 10 has residual -99
    with pytest.raises(ValueError):
        extremal_difference_check(_Paraboloid(10.0, 0.0), v, 0.9, problem, pts)
