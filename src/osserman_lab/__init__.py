"""Numerical laboratory for fully nonlinear elliptic equations with
superlinear gradient terms: Osserman barriers with explicit constants,
monotone finite-difference Dirichlet solves on balls, expanding-ball
construction of entire solutions, and randomized checkers for the
structure conditions behind uniqueness.
"""

__version__ = "0.1.0"
