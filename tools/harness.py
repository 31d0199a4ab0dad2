"""What the scripts in ``tools/`` share.

Importing this module sets every ``THREAD_VARS`` variable to 1 in
``os.environ``; each script imports it before numpy is first imported, so
the script's process and every child it starts run one BLAS and OpenMP
thread. ``run_child`` reruns a script in a fresh process per checkout, for
the scripts that measure whole runs, cold solves or peak RSS per process.
``load_checkout`` and ``paired`` hold every checkout in one process and
time them sweep by sweep, for the scripts that compare one layer. Scripts
import this module by name: Python puts a script's own directory on the
path, so ``python3 tools/<script>.py`` finds it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(script: str, args: list, checkout: str = ROOT,
              dirs=("src",)) -> dict:
    """Run ``script`` with ``args`` in a fresh process that imports from
    ``checkout``'s ``dirs``, and return the JSON object on the last line
    of its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.join(checkout, d) for d in dirs))
    out = subprocess.run([sys.executable, os.path.abspath(script), *args],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def load_checkout(checkout: str, name: str):
    """Import ``checkout``'s ``src/osserman_lab`` as the package ``name``,
    then its ``cli``, which imports every other module, and return the
    package. The package imports its own modules only relatively, so each
    checkout's copy finds its own ``name.solver``, ``name.core``, ..."""
    package = os.path.join(checkout, "src", "osserman_lab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".cli")
    return module


def paired(calls: list, sweeps: int) -> list:
    """Time ``calls`` (one argument-free call per checkout) in ``sweeps``
    sweeps, after one untimed warm-up call each. A sweep calls each once,
    in the given order in even sweeps and in reverse in odd ones.

    Per call: the median seconds and minor page faults (``ru_minflt``) of
    one call and, after the first, ``lower_than_first_in``: "k of N", the
    sweeps in which it took less time than the first call (ties count for
    neither).
    """
    for call in calls:
        call()
    seconds, faults = [[] for _ in calls], [[] for _ in calls]
    for sweep in range(sweeps):
        for i in (range(len(calls)) if sweep % 2 == 0
                  else reversed(range(len(calls)))):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            calls[i]()
            seconds[i].append(time.perf_counter() - start)
            faults[i].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    report = [{"median_s": statistics.median(times),
               "minflt": statistics.median(minflt)}
              for times, minflt in zip(seconds, faults)]
    for row, times in zip(report[1:], seconds[1:]):
        lower = sum(t < t0 for t, t0 in zip(times, seconds[0]))
        row["lower_than_first_in"] = f"{lower} of {sweeps}"
    return report
