"""The fresh-child harness of the scripts in ``tools/``.

Each script reruns itself in a fresh Python process per checkout (or case).
``run_child`` starts that process with ``CHECKOUT/src`` on its path and one
BLAS and OpenMP thread; the child prints its report as one JSON object on
the last line of standard output. Scripts import this module by name: Python
puts a script's own directory on the path, so ``python3 tools/<script>.py``
finds it.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(script: str, args: list, checkout: str = ROOT,
              dirs=("src",)) -> dict:
    """Run ``script`` with ``args`` in a fresh process that imports from
    ``checkout``'s ``dirs`` with one BLAS and OpenMP thread, and return the
    JSON object on the last line of its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(checkout, d) for d in dirs),
        **{var: "1" for var in THREAD_VARS})
    out = subprocess.run([sys.executable, os.path.abspath(script), *args],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])
