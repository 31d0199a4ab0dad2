"""Oracles and experiments around uniqueness: the delta(s) constant of
|u|^{s-1}u - |v|^{s-1}v > delta(s)(u-v)^s, the closed-form non-uniqueness
family u = alpha e^{+-sqrt(2) x_i} + 1 for s = m = 2, and the extremal
inequality satisfied by w_sigma = u - sigma v. The sublinearization
inequality itself is checked by operators.check_hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .core import evaluate
from .operators import CheckReport, MetadataError, pucci, tilde_gamma
from .entire import construct_entire, function_family, separation_table
from .solver import ProblemSpec

SQRT2 = math.sqrt(2.0)


class SmoothField(Protocol):
    """Closed-form field with exact derivatives at one point x: the
    gradient has shape (n,), the Hessian (n, n)."""

    def value(self, x) -> float: ...
    def gradient(self, x) -> np.ndarray: ...
    def hessian(self, x) -> np.ndarray: ...


@dataclass(frozen=True)
class ClosedFormField:
    """SmoothField assembled from callables."""

    value_fn: Callable
    gradient_fn: Callable
    hessian_fn: Callable

    def value(self, x) -> float:
        return float(self.value_fn(np.atleast_1d(x)))

    def gradient(self, x) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.gradient_fn(np.atleast_1d(x)), dtype=float))

    def hessian(self, x) -> np.ndarray:
        return np.asarray(self.hessian_fn(np.atleast_1d(x)), dtype=float)


@dataclass(frozen=True)
class CounterexampleField:
    """u(x) = alpha exp(+-sqrt(2) x_i) + 1, an exact solution of
    Laplacian u + |Du|^2/2 - |u|u = -1 for every alpha >= 0."""

    alpha: float
    sign: str = "+"
    axis: int = 0
    n: int = 1

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        if not 0 <= self.axis < self.n:
            raise ValueError("axis out of range")

    def _exp(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        s = 1.0 if self.sign == "+" else -1.0
        return np.exp(s * SQRT2 * x[:, self.axis])

    def value(self, x) -> float:
        return float(self.alpha * self._exp(x)[0] + 1.0)

    def values(self, points) -> np.ndarray:
        return self.alpha * self._exp(points) + 1.0

    def gradient(self, x) -> np.ndarray:
        s = 1.0 if self.sign == "+" else -1.0
        g = np.zeros(self.n)
        g[self.axis] = s * SQRT2 * self.alpha * self._exp(x)[0]
        return g

    def hessian(self, x) -> np.ndarray:
        mat = np.zeros((self.n, self.n))
        mat[self.axis, self.axis] = 2.0 * self.alpha * self._exp(x)[0]
        return mat

    def boundary_function(self, negated: bool = False) -> Callable:
        """The field (or its negative) as a data callable on (N, n) points."""
        if negated:
            return lambda x: -self.values(x)
        return self.values


def counterexample_residual(field: CounterexampleField, points,
                            variant: str = "u") -> CheckReport:
    """Pointwise residual of the closed-form family in its equation.

    variant 'u': Laplacian u + |Du|^2/2 - |u|u + 1;
    variant 'v': v = -u in Laplacian v - |Dv|^2/2 - |v|v - 1.
    Margin = min over samples of 1e-9 (1 + u^2) - |residual|.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != field.n:
        raise ValueError("points have the wrong dimension")
    E = field._exp(pts)
    u = field.alpha * E + 1.0
    lap = 2.0 * field.alpha * E
    grad2 = 2.0 * (field.alpha * E) ** 2
    if variant == "u":
        res = lap + 0.5 * grad2 - np.abs(u) ** 1.0 * u + 1.0
    elif variant == "v":
        v = -u
        res = -lap - 0.5 * grad2 - np.abs(v) * v - 1.0
    else:
        raise ValueError("variant must be 'u' or 'v'")
    margins = 1e-9 * (1.0 + u * u) - np.abs(res)
    k = int(np.argmin(margins))
    return CheckReport(condition=f"counterexample_{variant}", samples=len(pts),
                       worst_margin=float(margins[k]),
                       witness={"x": pts[k].tolist(), "residual": float(res[k])})


def _signed_power(t: np.ndarray, s: float) -> np.ndarray:
    return np.abs(t) ** (s - 1.0) * t


def delta_s_oracle(s: float, samples: int = 20000) -> float:
    """Infimum of (|u|^{s-1}u - |v|^{s-1}v)/(u-v)^s over u > v.

    The ratio is scale invariant, so it reduces to minimizing
    h(v) = psi(v+1) - psi(v) with psi(t) = |t|^{s-1}t over v; a coarse grid
    is refined by bounded scalar minimization.
    """
    from scipy.optimize import minimize_scalar  # kept out of `import osserman_lab`

    if s <= 1.0:
        raise ValueError("delta(s) requires s > 1")
    if samples < 10:
        raise ValueError("samples too small")

    def h(v):
        return _signed_power(v + 1.0, s) - _signed_power(v, s)

    grid = np.linspace(-25.0, 24.0, samples)
    k = int(np.argmin(h(grid)))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, samples - 1)]
    res = minimize_scalar(h, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return float(min(res.fun, h(grid).min()))


def _classical_residual(problem: ProblemSpec, field, x, fx: float) -> float:
    """F + H - |u|^{s-1}u - f of a SmoothField at x, given fx = f(x)."""
    val = field.value(x)
    grad = field.gradient(x)
    hess = field.hessian(x)
    Fv = float(problem.F(np.atleast_2d(x), hess[None, :, :])[0])
    Hv = float(problem.H(np.atleast_2d(x), grad[None, :])[0])
    return Fv + Hv - abs(val) ** (problem.s - 1.0) * val - fx


def extremal_difference_check(u, v, sigma: float, problem: ProblemSpec,
                              points) -> CheckReport:
    """Pointwise shadow of the sublinearization lemma for smooth fields:
    at every sampled x where u is a classical subsolution,

        P+(D^2 w) + gamma1|Dw| + (1-sigma)^{1-m} gamma-tilde |Dw|^m
        - (|u|^{s-1}u - |v_s|^{s-1}v_s) + (sigma - sigma^s)|v|^{s-1}v
        >= (1-sigma)(f - A)

    with w = u - sigma v, v_s = sigma v. Rejects v unless it solves the
    problem classically at every sample point.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0,1)")
    H = problem.H
    if H.convexity is None:
        raise MetadataError(f"{H.tag} carries no convexity constants")
    c_lower, A, _ = H.convexity
    if H.m <= 1.0:
        raise MetadataError("requires m > 1")
    tg = tilde_gamma(H.gamma_m, H.m, c_lower) if H.gamma_m > 0 else 0.0
    ell = problem.ellipticity
    s = problem.s
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    f_vals = evaluate(problem.f, pts)

    worst = np.inf
    witness: dict = {}
    elementary_worst = np.inf
    checked = 0
    for x, fx in zip(pts, f_vals.tolist()):
        scale = 1.0 + v.value(x) ** 2
        res_v = _classical_residual(problem, v, x, fx)
        if abs(res_v) > 1e-9 * scale:
            raise ValueError("v is not a classical solution at a sample point")
        res_u = _classical_residual(problem, u, x, fx)
        if res_u < -1e-9 * (1.0 + u.value(x) ** 2):
            continue  # u not a subsolution here; the lemma is silent
        checked += 1
        uv, vv = u.value(x), v.value(x)
        wgrad = u.gradient(x) - sigma * v.gradient(x)
        whess = u.hessian(x) - sigma * v.hessian(x)
        wn = float(np.linalg.norm(wgrad))
        vs = sigma * vv
        lhs = pucci(whess, ell, "+") + H.gamma1 * wn \
            + (1.0 - sigma) ** (1.0 - H.m) * tg * wn ** H.m \
            - (_signed_power(np.array(uv), s) - _signed_power(np.array(vs), s)) \
            + (sigma - sigma ** s) * _signed_power(np.array(vv), s)
        rhs = (1.0 - sigma) * (fx - A)
        margin = float(lhs - rhs)
        elementary_worst = min(elementary_worst,
                               (s - 1.0) * (1.0 - sigma) - (sigma - sigma ** s))
        if margin < worst:
            worst = margin
            witness = {"x": x.tolist(), "lhs": float(lhs), "rhs": float(rhs)}
    if checked == 0:
        raise ValueError("u is a subsolution at none of the sample points")
    return CheckReport(condition="extremal_difference", samples=checked,
                       worst_margin=worst, witness=witness,
                       extra={"elementary_bound_margin": float(elementary_worst),
                              "sigma": sigma})


def two_solution_experiment(problem: ProblemSpec, boundary_pair, radii,
                            tol: float, h: float, max_iter: int,
                            separation_radius: float = 1.0) -> list[dict]:
    """Solve with two boundary data on expanding balls and tabulate
    sup_{B_1}|u - v| per radius."""
    if problem.H.convexity is None:
        raise MetadataError("experiment needs a Hamiltonian with (13) metadata")
    k_max = int(max(radii))
    fams = []
    for g in boundary_pair:
        fn = g if callable(g) else (lambda x, val=float(g): val)
        fams.append(function_family(fn))
    run_a = construct_entire(problem, k_max, fams[0], tol, h, max_iter)
    run_b = construct_entire(problem, k_max, fams[1], tol, h, max_iter)
    table = separation_table(run_a, run_b, separation_radius)
    return [row for row in table if row["k"] in set(int(k) for k in radii)]
