import math

import numpy as np
import pytest

from osserman_lab.config import build_boundary
from osserman_lab.uniqueness import (CounterexampleField,
                                     counterexample_residual, delta_s_oracle)

SQRT2 = math.sqrt(2.0)


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
    # residual of u at 0: 2 + 2/2 - 2*2 + 1 = 0 exactly
    rep = counterexample_residual(u, np.zeros((1, 1)), "u")
    assert rep.witness["residual"] == pytest.approx(0.0, abs=1e-14)
    g = u.values
    gneg = build_boundary({"tag": "exp_family", "alpha": 1.0, "negated": True}, 1)
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
    with pytest.raises(ValueError):
        u.values(pts)
    with pytest.raises(ValueError):
        CounterexampleField(alpha=1.0, n=2).values(np.zeros((3, 1)))


def test_counterexample_residual_validates_input():
    u = CounterexampleField(alpha=1.0)
    with pytest.raises(ValueError):
        counterexample_residual(u, np.zeros((3, 2)), "u")
    with pytest.raises(ValueError):
        counterexample_residual(u, np.zeros((3, 1)), "w")
