"""Numerical laboratory for fully nonlinear elliptic equations with
superlinear gradient terms: Osserman barriers with explicit constants,
monotone finite-difference Dirichlet solves on balls, expanding-ball
construction of entire solutions, and randomized checkers for the
structure conditions behind uniqueness.
"""

__version__ = "0.1.0"

from .core import BallGrid, ScalarField, build_ball_grid, fd_derivatives, norm
from .operators import (
    CheckReport,
    EllipticityPair,
    HamiltonianH,
    OperatorF,
    pucci,
    pucci_bruteforce,
)
from .barrier import BarrierSpec, barrier_constants, exponent_mu, tilde_gamma, uniqueness_scaling
from .solver import ProblemSpec, SolveReport, solve_dirichlet
from .entire import EntireRun, construct_entire, separation_table, sup_difference
from .uniqueness import CounterexampleField, delta_s_oracle

__all__ = [
    "EntireRun",
    "construct_entire",
    "separation_table",
    "sup_difference",
    "CounterexampleField",
    "delta_s_oracle",
    "BallGrid",
    "ScalarField",
    "build_ball_grid",
    "fd_derivatives",
    "norm",
    "CheckReport",
    "EllipticityPair",
    "HamiltonianH",
    "OperatorF",
    "pucci",
    "pucci_bruteforce",
    "BarrierSpec",
    "barrier_constants",
    "exponent_mu",
    "tilde_gamma",
    "uniqueness_scaling",
    "ProblemSpec",
    "SolveReport",
    "solve_dirichlet",
    "__version__",
]
