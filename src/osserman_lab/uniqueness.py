"""Oracles around uniqueness: the delta(s) constant of
|u|^{s-1}u - |v|^{s-1}v > delta(s)(u-v)^s and the closed-form non-uniqueness
family u = alpha e^{+-sqrt(2) x_i} + 1 for s = m = 2. The sublinearization
inequality the uniqueness argument rests on is checked by
operators.check_hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_points
from .operators import CheckReport
from .solver import NumericalError

SQRT2 = math.sqrt(2.0)


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
        x = as_points(x, self.n)
        s = 1.0 if self.sign == "+" else -1.0
        return np.exp(s * SQRT2 * x[:, self.axis])

    def values(self, points) -> np.ndarray:
        return self.alpha * self._exp(points) + 1.0


def counterexample_residual(field: CounterexampleField, points,
                            variant: str = "u") -> CheckReport:
    """Pointwise residual of the closed-form family in its equation.

    variant 'u': Laplacian u + |Du|^2/2 - |u|u + 1;
    variant 'v': v = -u in Laplacian v - |Dv|^2/2 - |v|v - 1.
    Margin = min over samples of 1e-9 (1 + u^2) - |residual|.
    """
    pts = as_points(points, field.n)
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
    h(v) = psi(v+1) - psi(v) with psi(t) = |t|^{s-1}t over v. Since
    h'(v) = s(|v+1|^{s-1} - |v|^{s-1}) changes sign only at v = -1/2, where
    |v+1| = |v|, the minimum lies in any interval around -1/2: a grid on
    [-3/2, 1/2] is refined by bounded scalar minimization. There
    |v|, |v+1| <= 3/2, so h is finite for s up to about 1,750 and
    delta(s) = 2^{1-s} a normal float up to s = 1,022. Raises NumericalError
    when h overflows on the grid (larger s), rather than return NaN.
    """
    from scipy.optimize import minimize_scalar  # kept out of `import osserman_lab`

    if s <= 1.0:
        raise ValueError("delta(s) requires s > 1")
    if samples < 10:
        raise ValueError("samples too small")

    def h(v):
        return _signed_power(v + 1.0, s) - _signed_power(v, s)

    grid = np.linspace(-1.5, 0.5, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        scan = h(grid)
    if not np.all(np.isfinite(scan)):
        # |v|^s overflows on the scan for large s, and inf - inf is NaN
        raise NumericalError(f"delta(s) overflows on the scan for s={s}")
    k = int(np.argmin(scan))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, samples - 1)]
    res = minimize_scalar(h, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-13})
    return float(min(res.fun, scan.min()))
