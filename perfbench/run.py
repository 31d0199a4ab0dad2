"""osserman-lab benchmark: seeded workloads run through the public CLI entry
point ``osserman_lab.cli.main`` in a closed loop with one client.

    python3 perfbench/run.py --workload entire-1d --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's ``src/``.
Every workload runs in fresh child processes (``worker.py``) whose BLAS and
OpenMP thread counts are set to 1.

``--trace 0`` measures the end-to-end metrics: ``norm_wall_s`` and
``norm_cpu_s`` are the mean pass times of one child, scaled to a host on
which the reference kernel (``reference.py``) takes its nominal time;
``setup_s`` is the median over four child starts, ``peak_rss_mb`` belongs
to the measuring child. The pass times as measured are printed too.
``--trace 1`` gives the per-layer metrics instead, from two children of
the same seed that interleave untraced and traced passes; their exact
counts must agree.

Each metric is printed by name and unit, a run record goes to
``.perfbench_work/records/``, and the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from reference import REFERENCE_S
from tracing import EXACT_COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 3          # setup-only children, plus the measuring child
TIME_BUDGET_S = 170.0     # the whole run ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


class Children:
    """Starts worker processes one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + TIME_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.count = 0

    def run(self, seconds: float = 0.0, setup_only: bool = False,
            spans: str | None = None):
        """Start a worker; return (setup seconds, result or None)."""
        self.count += 1
        workdir = os.path.join(WORK, f"{self.workload}-seed{self.seed}-"
                                     f"{os.getpid()}-{self.count}")
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", workdir,
               "--seconds", repr(seconds)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget used up before the run finished")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            shutil.rmtree(workdir, ignore_errors=True)
        if code != 0 or ready.strip() != "ready":
            raise BenchError(f"worker exited with code {code}: {' '.join(cmd)}")
        if setup_only:
            return setup_s, None
        return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail_percentile(values: list) -> tuple | None:
    """Highest whole percentile above the median that has at least ten
    samples beyond it (nearest rank), or None."""
    n = len(values)
    if n < 21:
        return None
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    return q, sorted(values)[math.ceil(q * n / 100.0) - 1]


def machine_record() -> dict:
    record = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None,
              "caches": []}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        entry = {}
        for key in ("level", "type", "size"):
            try:
                with open(os.path.join(index, key)) as fh:
                    entry[key] = fh.read().strip()
            except OSError:
                pass
        record["caches"].append(entry)
    return record


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"  {name:<38} {value:>14.6g} {unit:<6} {note}".rstrip())


def normalised(result: dict, key: str) -> float:
    """Mean pass ``key`` time in seconds of a host on which the reference
    kernel takes REFERENCE_S. The timer spreads the kernel runs evenly over
    the run, so their mean reads the host's mean speed while the passes ran."""
    passes = result["passes"]
    kernel = statistics.fmean(result["reference"][key])
    return statistics.fmean(p[key] for p in passes) * REFERENCE_S / kernel


def end_to_end(children: Children, seconds: float) -> dict:
    """--trace 0: setup-only children, then one measuring child."""
    setups = [children.run(setup_only=True)[0] for _ in range(SETUP_STARTS)]
    setup_s, result = children.run(seconds)
    setups.append(setup_s)
    passes = result["passes"]
    walls = [p["wall_s"] for p in passes]
    tail = tail_percentile(walls)
    kernel = statistics.median(result["reference"]["wall_s"])
    return {
        "metrics": {"norm_wall_s": normalised(result, "wall_s"),
                    "norm_cpu_s": normalised(result, "cpu_s"),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": result["peak_rss_mb"]},
        "notes": {
            "norm_wall_s": f"mean of {len(walls)} passes at reference speed",
            "norm_cpu_s": "process CPU time, likewise",
            "setup_s": f"median of {len(setups)} child starts",
            "peak_rss_mb": "peak resident memory of the measuring child"},
        "printed": {
            "wall_s": (statistics.median(walls), "s",
                       f"as measured, median of {len(walls)} passes; " + (
                           f"p{tail[0]} = {tail[1]:.6g} s" if tail else
                           "no percentile above the median has 10 passes "
                           "beyond it")),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s",
                      "as measured, median of the passes"),
            "reference_kernel_s": (kernel, "s",
                                   f"median of {len(result['reference']['wall_s'])}"
                                   f" runs; nominal {REFERENCE_S:g} s")},
        "passes": passes, "reference": result["reference"],
        "versions": result["versions"], "setup_samples_s": setups,
    }


def per_layer(children: Children, seconds: float, traces: str) -> dict:
    """--trace 1: two children of the same seed, each interleaving untraced
    and traced passes."""
    runs = []
    for k in (1, 2):
        spans = os.path.join(traces, f"{children.workload}-seed{children.seed}-"
                                     f"{k}.json")
        runs.append(children.run(seconds / 2.0, spans=spans)[1])
    traced = [[p for p in run["passes"] if p["traced"]] for run in runs]
    layered = traced[0] + traced[1]
    # counts keep an observed value; they must not be averaged away
    metrics = {name: (statistics.median_low if isinstance(value, int)
                      else statistics.median)(p["layers"][name] for p in layered)
               for name, value in layered[0]["layers"].items()}
    # adjacent passes of one child form (untraced, traced) pairs
    metrics["trace.overhead_s"] = statistics.median(
        (b["wall_s"] - a["wall_s"]) * (1 if b["traced"] else -1)
        for run in runs for a, b in zip(run["passes"][::2], run["passes"][1::2]))
    bugs = []
    for name in EXACT_COUNTS:
        seen = [[p["layers"][name] for p in run] for run in traced]
        if len({v for run in seen for v in run}) != 1:
            bugs.append(f"BUG: exact count {name} differs between passes or "
                        f"runs of seed {children.seed}: {seen}")
    wall = statistics.median(p["wall_s"] for p in layered)
    return {
        "metrics": metrics, "notes": {},
        "passes": runs[0]["passes"] + runs[1]["passes"],
        "versions": runs[0]["versions"], "bugs": bugs,
        "shares": {
            "solver": metrics["solver.solve_dirichlet.s"] / wall,
            "core+operators": (metrics["core.build_ball_grid.s"]
                               + metrics["operators.check_hamiltonian.s"]) / wall},
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "osserman_lab", "__init__.py")):
        print(f"no osserman_lab sources under {ROOT}/src", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    records = os.path.join(WORK, "records")
    traces = os.path.join(WORK, "traces")
    os.makedirs(records, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    children = Children(args.workload, args.seed)
    try:
        run = (per_layer(children, args.seconds, traces) if args.trace
               else end_to_end(children, args.seconds))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics, passes, versions = run["metrics"], run["passes"], run["versions"]
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        print(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    bugs = run.get("bugs", [])
    print(f"{args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{len(passes)} passes, {attempted} CLI operations, {failed} failed"
          f"{' (traced run)' if args.trace else ''}")
    for name in units:
        _print_metric(name, metrics[name], units[name],
                      run["notes"].get(name, ""))
    for name, (value, unit, note) in run.get("printed", {}).items():
        _print_metric(name, value, unit, note)
    _print_metric("failed_frac", failed / attempted, "ratio",
                  f"{failed} of {attempted} operations")
    for layer, share in run.get("shares", {}).items():
        print(f"  share of traced wall_s in {layer}: {100.0 * share:.1f}%")
    for bug in bugs:
        print(bug, file=sys.stderr)

    machine = machine_record()
    path = os.path.join(records, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": machine, "attempted": attempted,
                   "failed": failed, **run}, fh, indent=1)
    print(f"  record: {os.path.relpath(path, ROOT)} ({machine['nproc']} CPUs, "
          f"{machine['cpu_model']}, python {versions['python']}, "
          f"numpy {versions['numpy']}, scipy {versions['scipy']})")

    print(json.dumps({
        "correct": failed == 0 and not bugs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
