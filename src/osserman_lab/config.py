"""Config-file schema for the experiment runner: validation plus builders
turning the declarative sections into operators, Hamiltonians, problems,
grids, boundary data and right-hand sides.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Callable

import numpy as np

from .core import build_ball_grid, origin
from .entire import radial_power_rhs
from .operators import (EllipticityPair, HamiltonianH, OperatorF,
                        hamiltonian_library, laplacian_operator,
                        negate_hamiltonian, pucci_operator,
                        weighted_trace_operator)
from .solver import ProblemSpec
from .uniqueness import CounterexampleField


class ConfigError(ValueError):
    """Schema violation at a key path; reads "key: message"."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigError("<file>", f"cannot read a JSON config ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return cfg


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return section[key]


def _section(parent: dict, key: str, path: str = "", default=None) -> dict:
    """The JSON object at ``parent[key]``, or ``default`` (if given) when
    the key is absent; ``path`` is ``parent``'s key path, empty at the root."""
    where = f"{path}.{key}" if path else key
    if key not in parent and default is not None:
        return default
    if not isinstance(parent.get(key), dict):
        raise ConfigError(where, "must be an object" if key in parent
                          else "missing required section")
    return parent[key]


def _finite(val) -> bool:
    """A JSON number that is a finite float: no bool, NaN or infinity, and
    no integer too large for a float."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def number(section: dict, key: str, path: str, default=None):
    if key not in section and default is not None:
        return default
    if not _finite(_require(section, key, path)):
        raise ConfigError(f"{path}.{key}", "must be a finite number")
    return float(section[key])


def count(section: dict, key: str, path: str, least: int, default=None,
          most=math.inf) -> int:
    """An integer config value from ``least`` to ``most``, read like
    ``number``; an integral float such as 2.0 is accepted."""
    value = number(section, key, path, default)
    if value != int(value):
        raise ConfigError(f"{path}.{key}", "must be an integer")
    if value < least:
        raise ConfigError(f"{path}.{key}", f"must be at least {least}")
    if value > most:
        raise ConfigError(f"{path}.{key}", f"must be at most {most:,}")
    return int(value)


def exceeding(section: dict, key: str, path: str, bound: float, default=None) -> float:
    """A config value greater than ``bound``, read like ``number``."""
    value = number(section, key, path, default)
    if value <= bound:
        raise ConfigError(f"{path}.{key}", f"must exceed {bound:g}")
    return value


def _switch(section: dict, key: str, path: str) -> bool:
    """An optional JSON boolean, false when absent."""
    val = section.get(key, False)
    if not isinstance(val, bool):
        raise ConfigError(f"{path}.{key}", "must be true or false")
    return val


def dimension(cfg: dict) -> int:
    """The run's space dimension n: the ``n`` of the ``grid``, ``entire``
    (default 1) or ``barrier`` section, which must agree, or 2 (the checkers')
    without them. ``core.origin`` checks it before anything is sized by it."""
    dims = {key: count(_section(cfg, key), "n", key, 1,
                       default=1 if key == "entire" else None)
            for key in ("grid", "entire", "barrier") if key in cfg}
    for key, n in dims.items():
        origin(n)
        if n != next(iter(dims.values())):
            raise ConfigError(f"{key}.n", "must be the n of the other sections")
    return next(iter(dims.values()), 2)


_MAX_NODES = 1_000_000  # the largest run, tools/bench_entire_2d.py's, counts 819,200


def node_budget(path: str, R: float, h: float, n: int, grids: int = 1) -> None:
    """Reject, at ``path``, ``grids`` ball grids of radius up to R, spacing h,
    counted (2R/h)^n nodes each, past _MAX_NODES; bad R or h pass through."""
    side = 2.0 * R / h if R > 0 and h > 0 else 0.0
    if grids * min(side, 1e9) ** n > _MAX_NODES:  # a float power past 1e308 raises
        raise ConfigError(path, f"radius {R:.3g} at spacing {h:.3g} needs over "
                          f"{_MAX_NODES:,} grid nodes")


def build_operator(section: dict, n: int, path: str = "problem.operator") -> OperatorF:
    tag = _require(section, "tag", path)
    if tag in ("pucci_plus", "pucci_minus"):
        lam, Lam = number(section, "lam", path), number(section, "Lam", path)
        if not 0 < lam <= Lam:
            raise ConfigError(f"{path}.lam", "need 0 < lam <= Lam")
        return pucci_operator(EllipticityPair(lam, Lam),
                              "+" if tag == "pucci_plus" else "-")
    if tag == "laplacian":
        return laplacian_operator()
    if tag == "weighted_trace":
        weights = _require(section, "weights", path)
        if not isinstance(weights, list) or len(weights) != n \
                or not all(_finite(w) and w > 0 for w in weights):
            raise ConfigError(f"{path}.weights", f"must be a list of {n} "
                              "positive finite numbers, one per axis")
        return weighted_trace_operator(weights)
    raise ConfigError(f"{path}.tag", f"unknown operator tag {tag!r}")


def _numbers(value) -> bool:
    """Whether every scalar of a JSON value, at any depth, is ``_finite``."""
    if isinstance(value, dict):
        value = list(value.values())
    return all(map(_numbers, value)) if isinstance(value, list) else _finite(value)


def build_hamiltonian(section: dict, n: int,
                      path: str = "problem.hamiltonian") -> HamiltonianH:
    tag = _require(section, "tag", path)
    params = {k: v for k, v in section.items() if k not in ("tag", "negate")}
    try:  # finds a NaN or infinity at any depth: coefficients, matrices
        json.dumps(params, allow_nan=False)
    except ValueError:
        raise ConfigError(path, "numbers must be finite")
    count(section, "n", path, n, default=n, most=n)  # the run's dimension
    for key, value in params.items():
        if not _numbers(value):
            raise ConfigError(f"{path}.{key}", "must hold only finite numbers")
    try:
        H = hamiltonian_library(tag, **{**params, "n": n})
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(path, str(exc))
    return negate_hamiltonian(H) if _switch(section, "negate", path) else H


def build_f(section: dict, path: str = "problem.f") -> Callable:
    """The right-hand side f as a data callable on (N, n) points."""
    tag = _require(section, "tag", path)
    if tag == "zero":
        return lambda x: 0.0
    if tag == "constant":
        value = number(section, "value", path)
        return lambda x: value
    if tag == "radial_power":
        rho = number(section, "rho", path)
        if rho < 0:
            raise ConfigError(f"{path}.rho", "rho must be nonnegative")
        return radial_power_rhs(rho)
    if tag == "mms_cos":
        # rhs manufactured so u*(x) = cos(x_0) solves Lap u + |Du|^2 - |u|^2 u = f
        return lambda x: (-np.cos(x[:, 0]) + np.sin(x[:, 0]) ** 2
                          - np.cos(x[:, 0]) ** 3)
    raise ConfigError(f"{path}.tag", f"unknown rhs tag {tag!r}")


def build_boundary(section: dict, n: int, path: str = "boundary") -> Callable:
    """Dirichlet data g as a data callable on (N, n) points."""
    tag = _require(section, "tag", path)
    if tag == "constant":
        value = number(section, "value", path)
        return lambda x: value
    if tag == "exp_family":
        alpha = number(section, "alpha", path)
        sign = section.get("sign", "+")
        axis = count(section, "axis", path, 0, default=0)
        count(section, "n", path, n, default=n, most=n)  # the run's dimension
        try:
            fld = CounterexampleField(alpha=alpha, sign=sign, axis=axis, n=n)
        except ValueError as exc:
            raise ConfigError(path, str(exc))
        return fld.boundary_function(negated=_switch(section, "negated", path))
    if tag == "cos":
        return lambda x: np.cos(x[:, 0])
    raise ConfigError(f"{path}.tag", f"unknown boundary tag {tag!r}")


def build_problem(cfg: dict) -> ProblemSpec:
    n = dimension(cfg)
    section = _section(cfg, "problem")
    s = exceeding(section, "s", "problem", 1.0)
    F = build_operator(_section(section, "operator", "problem"), n)
    H = build_hamiltonian(_section(section, "hamiltonian", "problem"), n)
    f = build_f(_section(section, "f", "problem", {"tag": "zero"}))
    return ProblemSpec(F=F, H=H, s=s, f=f)


def build_grid(cfg: dict):
    """The ball grid of the ``grid`` section; ``build_ball_grid`` rejects a
    radius or spacing it cannot use with a GridError."""
    n = dimension(cfg)
    section = _section(cfg, "grid")
    center = section.get("center")  # None: the origin
    if "center" in section and (not isinstance(center, list)
                                or len(center) != n
                                or not all(map(_finite, center))):
        raise ConfigError("grid.center", f"must be a list of {n} finite numbers")
    R, h = number(section, "radius", "grid"), number(section, "h", "grid")
    node_budget("grid", R, h, n)
    return build_ball_grid(center, R, h, n)
