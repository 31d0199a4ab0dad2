"""Osserman barrier phi_R(x) = C_R R^mu / (R^2 - |x|^2)^mu with explicit
constants, a residual verifier for the differential inequality

    P+(D^2 phi) + gamma1 |D phi| + gamma |D phi|^m - delta phi^s <= 0,

and the scaling scalars (gamma-tilde, K, center limit) used by the
uniqueness experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BallGrid, as_points, row_norms
from .operators import CheckReport, pucci_batch


def exponent_mu(s: float, m: float) -> float:
    """Blow-up exponent: 2/(s-1) for m <= 2s/(s+1), else m/(s-m)."""
    if not 1.0 <= m < s:
        raise ValueError("need 1 <= m < s")
    if m <= 2.0 * s / (s + 1.0):
        return 2.0 / (s - 1.0)
    return m / (s - m)


@dataclass(frozen=True)
class BarrierSpec:
    R: float
    mu: float
    C_R: float
    a: float
    b: float
    delta: float
    gamma1: float
    gamma: float
    s: float
    m: float
    n: int
    Lam: float


def barrier_constants(s: float, m: float, n: int, Lam: float, gamma1: float,
                      gamma: float, delta: float, R: float) -> BarrierSpec:
    """Populate the barrier with the explicit admissible constants

    a^{s-1} = 4 mu delta^{-1} max{Lam(1+n+2 mu), 1},
    b^{s-m} = 2^{m+1} mu^m delta^{-1},
    C_R = max{a (1+gamma1 R)^{1/(s-1)} R^{mu-2/(s-1)},
              b gamma^{1/(s-m)} R^{mu-m/(s-m)}}.
    """
    if not 1.0 <= m < s:
        raise ValueError("need 1 <= m < s")
    if min(R, delta, Lam) <= 0 or gamma1 < 0 or gamma < 0 or n < 1:
        raise ValueError("invalid barrier parameters")
    mu = exponent_mu(s, m)
    a = (4.0 * mu / delta * max(Lam * (1.0 + n + 2.0 * mu), 1.0)) ** (1.0 / (s - 1.0))
    b = (2.0 ** (m + 1.0) * mu ** m / delta) ** (1.0 / (s - m))
    C_R = max(a * (1.0 + gamma1 * R) ** (1.0 / (s - 1.0)) * R ** (mu - 2.0 / (s - 1.0)),
              b * gamma ** (1.0 / (s - m)) * R ** (mu - m / (s - m)))
    return BarrierSpec(R=float(R), mu=mu, C_R=C_R, a=a, b=b, delta=float(delta),
                       gamma1=float(gamma1), gamma=float(gamma), s=float(s),
                       m=float(m), n=int(n), Lam=float(Lam))


def _radial_parts(spec: BarrierSpec, r: np.ndarray):
    """phi, phi', phi'' and phi'/r at radii r < R (phi'/r by its r->0 limit)."""
    R, mu, C = spec.R, spec.mu, spec.C_R
    w = R * R - r * r
    value = C * R ** mu * w ** (-mu)
    dvalue = 2.0 * mu * C * R ** mu * r * w ** (-mu - 1.0)
    ddvalue = 2.0 * mu * C * R ** mu * w ** (-mu - 2.0) * (R * R + (2.0 * mu + 1.0) * r * r)
    dvalue_over_r = 2.0 * mu * C * R ** mu * w ** (-mu - 1.0)
    return value, dvalue, ddvalue, dvalue_over_r


def barrier_eval(spec: BarrierSpec, points):
    """Values (N,), gradients (N, n) and Hessians (N, n, n) of phi_R at
    (N, n) points with |x| < R.

    The Hessian is phi'' on the radial direction xhat and phi'/r on the
    tangential ones; at the center xhat = 0 leaves phi''(0) I.
    """
    pts = as_points(points, spec.n)
    r = row_norms(pts)
    if np.any(r >= spec.R):
        raise ValueError("barrier evaluated at |x| >= R")
    value, dvalue, ddvalue, dv_r = _radial_parts(spec, r)
    xhat = pts / np.where(r > 0.0, r, 1.0)[:, None]
    outer = xhat[:, :, None] * xhat[:, None, :]
    hess = ddvalue[:, None, None] * outer \
        + dv_r[:, None, None] * (np.eye(spec.n) - outer)
    return value, dvalue[:, None] * xhat, hess


def barrier_residuals(spec: BarrierSpec, points: np.ndarray) -> np.ndarray:
    """Closed-form residual of the barrier inequality at each point (N, n)."""
    pts = as_points(points, spec.n)
    r = row_norms(pts)
    if np.any(r >= spec.R):
        raise ValueError("points must satisfy |x| < R")
    value, dvalue, ddvalue, dv_r = _radial_parts(spec, r)
    # Both curvatures phi'' and phi'/r are positive, so P+ takes Lam on each;
    # pucci_batch on the eigenvalue stack keeps this an exact evaluation.
    eigs = np.stack([ddvalue] + [dv_r] * (spec.n - 1), axis=-1)
    pplus = pucci_batch(eigs, spec.Lam, spec.Lam, "+")
    return (pplus + spec.gamma1 * dvalue + spec.gamma * dvalue ** spec.m
            - spec.delta * value ** spec.s)


def verify_barrier_inequality(spec: BarrierSpec, grid: BallGrid) -> CheckReport:
    """Sweep the closed-form residual over a grid strictly inside B_R.

    Margin is -max residual; the inequality holds iff it stays >= -1e-9.
    extra["residuals"] holds the residual at every interior node.
    """
    if grid.radius >= spec.R:
        raise ValueError("grid ball must lie strictly inside B_R")
    pts = grid.interior_nodes - grid.center[None, :]
    res = barrier_residuals(spec, pts)
    k = int(np.argmax(res))
    return CheckReport(condition="barrier_inequality", samples=len(res),
                       worst_margin=float(-res[k]),
                       witness={"x": pts[k].tolist(), "residual": float(res[k])},
                       extra={"max_residual": float(res[k]), "residuals": res})


def uniqueness_scaling(theta: float, s: float, m: float, b: float,
                       tg: float) -> tuple[float, float]:
    """K and the center limit of phi_R as R -> infinity.

    K = (8b/theta)^{(s-m)/(m-1)} tg^{1/(m-1)} makes the limit
    b tg^{1/(s-m)} K^{(1-m)/(s-m)} equal theta/8 identically.
    """
    if m <= 1.0:
        raise ValueError("scaling degenerates at m = 1")
    if not m < s:
        raise ValueError("need m < s")
    if theta <= 0 or b <= 0 or tg <= 0:
        raise ValueError("theta, b and tilde gamma must be positive")
    K = (8.0 * b / theta) ** ((s - m) / (m - 1.0)) * tg ** (1.0 / (m - 1.0))
    center_limit = b * tg ** (1.0 / (s - m)) * K ** ((1.0 - m) / (s - m))
    return K, center_limit
