"""Every top-level function and class of the package has a user: a module
of the package, a perfbench module or a tool names it. The few that only
tests call are listed below with the check each one serves, so code that
loses its last user fails here, and so does a listed name that gains one
or is deleted."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TEST_ONLY = {
    "barrier_eval",                  # barrier values vs finite differences
    "uniqueness_scaling",            # criterion 10: the k-scaling identity
    "fd_derivatives",                # the finite-difference calculus checks
    "sample_field",                  # fields for the grid and barrier checks
    "continuum_separation_table",    # criterion 7: the continuum oracle
    "rho_threshold",                 # criterion 9: the growth threshold
    "rho_threshold_closed_form",     # criterion 9: its closed form
    "empirical_increment_constant",  # the increment constant C(2) = 2
    "pucci_bruteforce",              # the scalar Pucci reference of the sweep
    "pucci_bruteforce_sweep",        # criterion 2: the Pucci oracle
    "mms_convergence",               # criterion 6: manufactured solutions
    "counterexample_residual",       # criterion 3: counterexample exactness
}


def _trees(*patterns):
    for pattern in patterns:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path) as fh:
                yield path, ast.parse(fh.read(), path)


def test_every_package_name_has_a_user_outside_tests():
    defined, used = set(), set()
    for path, tree in _trees("src/osserman_lab/*.py", "perfbench/*.py",
                             "tools/*.py"):
        if os.sep + "src" + os.sep in path:
            defined |= {node.name for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used) == sorted(TEST_ONLY)
