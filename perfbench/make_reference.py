"""Regenerate ``reference_entire_1d.json``: the entire-1d separation table
for every second-boundary value the workload can draw.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it from the root of a checkout. Regenerate only when the scheme itself
changes; a faster solver converged to the same tol must match the stored
tables within ``workloads.SEPARATION_ATOL``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from osserman_lab import __version__
from osserman_lab.cli import main

from workloads import (ENTIRE_BOUNDARY2, ENTIRE_H, ENTIRE_K_MAX, ENTIRE_TOL,
                       REFERENCE_PATH, entire_config)


def separation(boundary2: float, workdir: str) -> list:
    config = os.path.join(workdir, "entire.json")
    with open(config, "w") as fh:
        json.dump(entire_config(boundary2), fh)
    out = os.path.join(workdir, "out")
    if main(["entire", "--config", config, "--out", out, "--quiet"]) != 0:
        raise SystemExit(f"entire run failed for boundary2 = {boundary2}")
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)["separation"]["values"]


def run() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        tables = {f"{b:.1f}": separation(b, workdir) for b in ENTIRE_BOUNDARY2}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"osserman_lab": __version__, "k_max": ENTIRE_K_MAX,
                   "h": ENTIRE_H, "tol": ENTIRE_TOL, "tables": tables},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(run())
