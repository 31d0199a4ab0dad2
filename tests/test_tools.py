"""The per-layer scripts under tools/ import the package by path and bind
wrappers over its private names. A refactor that renames one of them fails
here instead of in a later comparison. Each script runs in a child
process: it sets one BLAS and OpenMP thread for its whole process."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script):
    """Run tools/<script> on this checkout against itself, one sweep."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", script),
         "--src", ROOT, ROOT, "--sweeps", "1"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_bench_newton_step_pairs_a_checkout_with_itself():
    report = _run("bench_newton_step.py")
    for case, steps in (("entire-1d", 26), ("solve-2d", 7)):
        entry = report[case]
        assert entry["steps"] == [steps, steps]
        assert entry["field_max_diff"] == [0.0]
        for layer in ("residual", "jacobian_table", "linear_solve"):
            assert len(entry[layer]["us_per_step"]) == 2
            assert all(us > 0 for us in entry[layer]["us_per_step"])
            assert entry[layer]["lower_than_first_in"][0] in ("0 of 1",
                                                              "1 of 1")


def test_bench_checkers_pairs_a_checkout_with_itself():
    report = _run("bench_checkers.py")
    assert report["identical"] == [True]
    for tag in ("prototype", "two_power", "rational_factor"):
        assert report[tag]
        for row in report[tag].values():
            first, second = row["worst_margin"]
            assert first == second
            assert len(row["ms"]) == 2 and row["rng_ms"] > 0
