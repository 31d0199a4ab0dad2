"""Config-file schema for the experiment runner: ``read`` checks a section
against the keys it declares, and builders turn the checked sections into
operators, Hamiltonians, problems, grids, boundary data and right-hand sides.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from typing import Callable

import numpy as np

from .core import GridError, build_ball_grid, origin
from .entire import radial_power_rhs
from .operators import (HAMILTONIANS, Coeff, EllipticityPair, HamiltonianH,
                        OperatorF, hamiltonian_library, laplacian_operator,
                        negate_hamiltonian, pucci_operator,
                        weighted_trace_operator)
from .solver import ProblemSpec
from .uniqueness import CounterexampleField


class ConfigError(ValueError):
    """Schema violation at a key path; reads "key: message"."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")


def _finite(val) -> bool:
    """A JSON number that is a finite float: no bool, NaN or infinity, and
    no integer too large for a float."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _matrix_groups(value) -> bool:
    """Whether a JSON value is a nonempty list of nonempty groups, each a
    list of square matrices of finite numbers given as lists of rows."""
    def square(S):
        return isinstance(S, list) and all(
            isinstance(row, list) and len(row) == len(S)
            and all(_finite(v) for v in row) for row in S)
    return isinstance(value, list) and len(value) > 0 and all(
        isinstance(grp, list) and len(grp) > 0 and all(map(square, grp))
        for grp in value)


def _kind(test: Callable, message: str, cast: Callable = None) -> Callable:
    """A kind of config value, a function of a value and its key path: it
    returns the value, through ``cast``, if ``test`` holds for it, and else
    raises a ConfigError with ``message``, which never repeats the value."""
    def check(value, where: str):
        if not test(value):
            raise ConfigError(where, message)
        return value if cast is None else cast(value)
    return check


def above(bound: float) -> Callable:
    """Kind: a finite number greater than ``bound``, read as a float."""
    return _kind(lambda v: _finite(v) and v > bound,
                 f"must be a finite number above {bound:g}", float)


def integer(least: int, most=math.inf) -> Callable:
    """Kind: an integer from ``least`` to ``most``, or an integral float."""
    return _kind(lambda v: _finite(v) and v == int(v) and least <= v <= most,
                 f"must be an integer in [{least}, {most:,}]", int)


def _list(n: int, positive: bool = False) -> Callable:
    """Kind: a list of n finite numbers, positive ones if ``positive``."""
    return _kind(lambda v: isinstance(v, list) and len(v) == n
                 and all(_finite(x) and (x > 0 or not positive) for x in v),
                 f"must be a list of {n} {'positive ' * positive}finite numbers")


def one_of(options: tuple) -> Callable:
    """Kind: one of the strings ``options``."""
    return _kind(options.__contains__, "must be one of " + ", ".join(options))


REAL = _kind(_finite, "must be a finite number", float)
SWITCH = _kind(lambda v: isinstance(v, bool), "must be true or false")
OBJECT = _kind(lambda v: isinstance(v, dict), "must be an object")
GIVEN = _kind(lambda v: v is not None, "must not be null")  # else it reads as absent


def _checked(section: dict, path: str, key: str, kind):
    """``section[key]`` checked by ``kind``, or the default of a (kind,
    default) pair when the key is absent; ``path`` is the section's."""
    kind, *default = kind if isinstance(kind, tuple) else (kind,)
    if key in section:  # the root's keys are sections, named alone
        return kind(section[key], key if path == "<root>" else f"{path}.{key}")
    if not default:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return default[0]


def read(section, path: str, tags: dict = None, **keys) -> dict:
    """The checked values of the config section at key path ``path``.

    ``keys`` maps each key the section may hold to its kind, or to (kind,
    default) for an optional key; ``tags`` maps each tag the section's
    ``tag`` may name to that tag's own keys, which join ``keys``. A key the
    section does not declare, or a missing required one, is a config error."""
    if not isinstance(section, dict):
        raise ConfigError(path, "must be an object" if section is not None
                          else "missing required section")
    if tags is not None:
        tag = _checked(section, path, "tag", GIVEN)
        if not isinstance(tag, str) or tag not in tags:
            raise ConfigError(f"{path}.tag", f"unknown tag {tag!r}")
        keys = {"tag": GIVEN, **keys, **tags[tag]}
    for key in section:
        if key not in keys:
            raise ConfigError(path, f"unknown key {key!r}")
    return {key: _checked(section, path, key, kind) for key, kind in keys.items()}


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice in it is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"duplicate key {max(obj, key=[k for k, _ in pairs].count)!r}")
    return obj


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_object)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigError("<file>", f"cannot read a JSON config ({exc})")
    # every command's top-level sections; a config may hold any of them
    sections = "barrier problem grid boundary solve entire hamiltonian check oracle"
    read(cfg, "<root>", **dict.fromkeys(sections.split(), (GIVEN, None)))
    return cfg


def dimension(cfg: dict) -> int:
    """The run's space dimension n: the ``n`` of the ``grid``, ``entire``
    (default 1) or ``barrier`` section, which must agree, or 2 (the checkers')
    without them. ``core.origin`` checks it before anything is sized by it."""
    kinds = {"grid": integer(1), "entire": (integer(1), 1), "barrier": integer(1)}
    dims = {key: _checked(OBJECT(cfg[key], key), key, "n", kind)
            for key, kind in kinds.items() if key in cfg}
    for key, n in dims.items():
        try:
            origin(n)
        except GridError as exc:
            raise ConfigError(f"{key}.n", str(exc))
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
    pucci = {"lam": REAL, "Lam": REAL}
    v = read(section, path, {"pucci_plus": pucci, "pucci_minus": pucci, "laplacian": {},
                             "weighted_trace": {"weights": _list(n, True)}})
    if v["tag"] == "laplacian":
        return laplacian_operator()
    if v["tag"] == "weighted_trace":
        return weighted_trace_operator(v["weights"])
    try:
        pair = EllipticityPair(v["lam"], v["Lam"])
    except ValueError as exc:
        raise ConfigError(f"{path}.lam", str(exc))
    return pucci_operator(pair, "+" if v["tag"] == "pucci_plus" else "-")


def _parameters(make: Callable) -> dict:
    """The keyword parameters of ``make`` but n as config keys, each with the
    kind its annotation names and its default if it has one. A coefficient
    is a finite number (its c0) or an object of ``Coeff``'s keys."""
    number = _kind(_finite, "must be a finite number or an object", float)
    groups = ("must be a nonempty list of nonempty groups of square matrices "
              "of finite numbers")
    kinds = {float: REAL, list: _kind(_matrix_groups, groups),
             Coeff: lambda v, where: (read(v, where, **_parameters(Coeff))
                                      if isinstance(v, dict) else number(v, where))}
    return {p.name: kinds[p.annotation] if p.default is p.empty
            else (kinds[p.annotation], p.default)
            for p in inspect.signature(make, eval_str=True).parameters.values()
            if p.name != "n"}


_HAMILTONIAN_KEYS = {tag: _parameters(make) for tag, make in HAMILTONIANS.items()}


def build_hamiltonian(section: dict, n: int,
                      path: str = "problem.hamiltonian") -> HamiltonianH:
    """The library Hamiltonian of ``section``; n is the run's dimension."""
    v = read(section, path, _HAMILTONIAN_KEYS, negate=(SWITCH, False),
             n=(integer(n, n), n))
    negate = v.pop("negate")
    try:
        H = hamiltonian_library(**v)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(path, str(exc))
    return negate_hamiltonian(H) if negate else H


def build_f(section: dict, path: str = "problem.f") -> Callable:
    """The right-hand side f as a data callable on (N, n) points."""
    rho = _kind(lambda v: _finite(v) and v >= 0, "must be a finite number >= 0", float)
    v = read(section, path, {"zero": {}, "constant": {"value": REAL},
                             "radial_power": {"rho": rho}, "mms_cos": {}})
    if v["tag"] == "radial_power":
        return radial_power_rhs(v["rho"])
    if v["tag"] == "mms_cos":
        # rhs manufactured so u*(x) = cos(x_0) solves Lap u + |Du|^2 - |u|^2 u = f
        return lambda x: (-np.cos(x[:, 0]) + np.sin(x[:, 0]) ** 2
                          - np.cos(x[:, 0]) ** 3)
    return lambda x: v.get("value", 0.0)


def build_boundary(section: dict, n: int, path: str = "boundary") -> Callable:
    """Dirichlet data g as a data callable on (N, n) points."""
    exp_family = {"alpha": REAL, "sign": (GIVEN, "+"), "axis": (integer(0), 0),
                  "n": (integer(n, n), n), "negated": (SWITCH, False)}
    v = read(section, path, {"constant": {"value": REAL}, "cos": {},
                             "exp_family": exp_family})
    if v["tag"] == "constant":
        return lambda x: v["value"]
    if v["tag"] == "cos":
        return lambda x: np.cos(x[:, 0])
    try:
        fld = CounterexampleField(alpha=v["alpha"], sign=v["sign"],
                                  axis=v["axis"], n=v["n"])
    except ValueError as exc:
        raise ConfigError(path, str(exc))
    return (lambda x: -fld.values(x)) if v["negated"] else fld.values


def build_problem(cfg: dict) -> ProblemSpec:
    n = dimension(cfg)
    v = read(cfg.get("problem"), "problem", s=above(1.0), operator=OBJECT,
             hamiltonian=OBJECT, f=(OBJECT, {"tag": "zero"}))
    return ProblemSpec(F=build_operator(v["operator"], n), s=v["s"],
                       H=build_hamiltonian(v["hamiltonian"], n), f=build_f(v["f"]))


def build_grid(cfg: dict):
    """The ball grid of the ``grid`` section; ``build_ball_grid`` rejects a
    radius or spacing it cannot use with a GridError."""
    n = dimension(cfg)
    v = read(cfg.get("grid"), "grid", n=integer(1), radius=REAL, h=REAL,
             center=(_list(n), None))  # None: the origin
    node_budget("grid", v["radius"], v["h"], n)
    return build_ball_grid(v["center"], v["radius"], v["h"], n)
