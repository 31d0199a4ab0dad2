"""Config-file schema for the experiment runner: validation plus builders
turning the declarative sections into operators, Hamiltonians, problems,
grids, boundary data and right-hand sides.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np

from .core import build_ball_grid
from .entire import radial_power_rhs
from .operators import (EllipticityPair, HamiltonianH, OperatorF,
                        hamiltonian_library, laplacian_operator,
                        negate_hamiltonian, pucci_operator,
                        weighted_trace_operator)
from .solver import ProblemSpec
from .uniqueness import CounterexampleField


class ConfigError(ValueError):
    """Schema violation; carries the offending key path."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config ({exc})")
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"not valid JSON ({exc})")
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
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def number(section: dict, key: str, path: str, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    val = section[key]
    if not _finite(val):
        raise ConfigError(f"{path}.{key}", "must be a finite number")
    return float(val)


def count(section: dict, key: str, path: str, least: int, default=None) -> int:
    """An integer config value of at least ``least``, read like ``number``;
    an integral float such as 2.0 is accepted."""
    value = number(section, key, path, default)
    if value != int(value):
        raise ConfigError(f"{path}.{key}", "must be an integer")
    if value < least:
        raise ConfigError(f"{path}.{key}", f"must be at least {least}")
    return int(value)


def positive(section: dict, key: str, path: str, default=None) -> float:
    """A positive config value, read like ``number``."""
    value = number(section, key, path, default)
    if value <= 0.0:
        raise ConfigError(f"{path}.{key}", "must be positive")
    return value


def _switch(section: dict, key: str, path: str) -> bool:
    """An optional JSON boolean, false when absent."""
    val = section.get(key, False)
    if not isinstance(val, bool):
        raise ConfigError(f"{path}.{key}", "must be true or false")
    return val


def build_operator(section: dict, path: str = "problem.operator") -> OperatorF:
    tag = _require(section, "tag", path)
    if tag in ("pucci_plus", "pucci_minus"):
        lam = number(section, "lam", path)
        Lam = number(section, "Lam", path)
        if not 0 < lam <= Lam:
            raise ConfigError(f"{path}.lam", "need 0 < lam <= Lam")
        return pucci_operator(EllipticityPair(lam, Lam),
                              "+" if tag == "pucci_plus" else "-")
    if tag == "laplacian":
        return laplacian_operator()
    if tag == "weighted_trace":
        weights = _require(section, "weights", path)
        if not isinstance(weights, list) or not weights \
                or not all(_finite(w) and w > 0 for w in weights):
            raise ConfigError(f"{path}.weights",
                              "must be a list of positive finite numbers")
        return weighted_trace_operator(weights)
    raise ConfigError(f"{path}.tag", f"unknown operator tag {tag!r}")


def build_hamiltonian(section: dict, path: str = "problem.hamiltonian") -> HamiltonianH:
    tag = _require(section, "tag", path)
    params = {k: v for k, v in section.items() if k not in ("tag", "negate")}
    try:  # finds a NaN or infinity at any depth: coefficients, matrices
        json.dumps(params, allow_nan=False)
    except ValueError:
        raise ConfigError(path, "numbers must be finite")
    if "n" in params:
        params["n"] = count(section, "n", path, 1)
    try:
        H = hamiltonian_library(tag, **params)
    except (ValueError, TypeError, OverflowError) as exc:
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


def build_boundary(section: dict, path: str = "boundary") -> Callable:
    """Dirichlet data g as a data callable on (N, n) points."""
    tag = _require(section, "tag", path)
    if tag == "constant":
        value = number(section, "value", path)
        return lambda x: value
    if tag == "exp_family":
        alpha = number(section, "alpha", path)
        sign = section.get("sign", "+")
        axis = count(section, "axis", path, 0, default=0)
        n = count(section, "n", path, 1, default=1)
        try:
            fld = CounterexampleField(alpha=alpha, sign=sign, axis=axis, n=n)
        except ValueError as exc:
            raise ConfigError(path, str(exc))
        return fld.boundary_function(negated=_switch(section, "negated", path))
    if tag == "cos":
        return lambda x: np.cos(x[:, 0])
    raise ConfigError(f"{path}.tag", f"unknown boundary tag {tag!r}")


def check_dimension(cfg: dict, n: int, boundaries: dict) -> None:
    """Reject weighted_trace weights that are not one per axis of the
    dimension-n grids, a sup_inf Hamiltonian whose matrices are not n x n,
    and exp_family boundary data of another dimension. ``cfg`` must have
    passed build_problem, and each section of ``boundaries`` (key path ->
    section) build_boundary."""
    section = cfg["problem"]["operator"]
    if section["tag"] == "weighted_trace" and len(section["weights"]) != n:
        raise ConfigError("problem.operator.weights",
                          f"need {n} weights, one per axis, got "
                          f"{len(section['weights'])}")
    section = cfg["problem"]["hamiltonian"]
    dim = count(section, "n", "problem.hamiltonian", 1, default=2)
    if section["tag"] == "sup_inf" and dim != n:
        raise ConfigError("problem.hamiltonian.n",
                          f"must be the grid dimension {n}")
    for path, data in boundaries.items():
        if data["tag"] == "exp_family" and int(data.get("n", 1)) != n:
            raise ConfigError(f"{path}.n", f"must be the grid dimension {n}")


def build_problem(cfg: dict) -> ProblemSpec:
    section = _section(cfg, "problem")
    s = number(section, "s", "problem")
    if s <= 1.0:
        raise ConfigError("problem.s", "s must exceed 1")
    F = build_operator(_section(section, "operator", "problem"))
    H = build_hamiltonian(_section(section, "hamiltonian", "problem"))
    f = build_f(_section(section, "f", "problem", {"tag": "zero"}))
    return ProblemSpec(F=F, H=H, s=s, f=f)


def build_grid(cfg: dict):
    """The ball grid of the ``grid`` section; ``build_ball_grid`` rejects a
    dimension, radius or spacing it cannot use with a GridError."""
    section = _section(cfg, "grid")
    n = count(section, "n", "grid", 1)
    center = section.get("center", [0.0] * n)
    if not isinstance(center, list) or len(center) != n \
            or not all(map(_finite, center)):
        raise ConfigError("grid.center", f"must be a list of {n} finite numbers")
    return build_ball_grid(center, number(section, "radius", "grid"),
                           number(section, "h", "grid"), n)
