"""The per-layer scripts under tools/ import the package by path and bind
wrappers over its private names. A refactor that renames one of them fails
here instead of in a later comparison. Each script runs in a child
process: it sets one BLAS and OpenMP thread for its whole process."""

import json
import os
import subprocess
import sys
from unittest import mock

from osserman_lab.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _run(script):
    """Run tools/<script> on this checkout against itself, one sweep."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", script),
         "--src", ROOT, ROOT, "--sweeps", "1"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _cli_newton_steps(tmp_path, command, cfg) -> int:
    """The Newton steps this checkout's CLI reports for ``cfg``: the sum of
    ``iterations`` over an ``entire`` run's solves, or a ``solve``'s."""
    config, out = tmp_path / f"{command}.json", tmp_path / command
    config.write_text(json.dumps(cfg))
    main([command, "--config", str(config), "--out", str(out), "--quiet"])
    summary = json.loads((out / "summary.json").read_text())
    return sum(solve["iterations"] for solve in summary.get("solves", [summary]))


def test_bench_newton_step_pairs_a_checkout_with_itself(tmp_path):
    sys.path.insert(0, TOOLS)
    try:  # the tool's harness pins the thread variables; keep ours
        with mock.patch.dict(os.environ):
            from bench_newton_step import CASES
    finally:
        sys.path.remove(TOOLS)
    report = _run("bench_newton_step.py")
    for case, (command, _, cfg) in CASES.items():
        steps = _cli_newton_steps(tmp_path, command, cfg)
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
        cli = report[tag].pop("cli")
        assert len(cli["ms"]) == len(cli["minflt"]) == 2
        assert cli["lower_than_first_in"][0] in ("0 of 1", "1 of 1")
        assert all(mb > 0 for mb in cli["peak_rss_mb"])
        assert report[tag]
        for row in report[tag].values():
            first, second = row["worst_margin"]
            assert first == second
            assert len(row["ms"]) == 2 and row["rng_ms"] > 0
