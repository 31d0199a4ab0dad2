"""Time the structure-condition sweeps of ``check-hamiltonian`` on one or
more checkouts.

    python3 tools/bench_checkers.py [--src CHECKOUT ...] [--repeats N]

For each of the three Hamiltonians of the benchmark's ``structure-checks``
workload (``prototype``, ``two_power`` and ``rational_factor`` with their
default constants) every claimed condition is swept at 100,000 samples,
the conditions sharing one generator as the CLI does. Each checkout runs
in a fresh child process that imports the package from ``CHECKOUT/src``
(default: this script's checkout), with BLAS and OpenMP threads set to 1.
After one warm-up pass, N passes (default 5) report per condition:

- ``ms``: the median milliseconds of one ``check_hamiltonian`` call;
- ``rng_ms``: the same generator calls with the same shapes and in the
  same order, and no margins: the floor no sweep gets below while the
  seeds fix its draws. The child checks that these calls leave the
  generator in the state the sweep left it in;
- ``minflt``: the median minor page faults of one call (``ru_minflt``);
- ``sha256``: a hash of the worst margin and the witness, floats written
  exactly (``float.hex``).

Each child also reports its peak RSS (``ru_maxrss``). Each child's report
is printed as it finishes. The last line of standard output is one JSON
object: the report of every checkout in the order given and, with two or
more checkouts, whether every hash equals the first checkout's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from harness import ROOT, peak_rss_mb, run_child

TAGS = ("prototype", "two_power", "rational_factor")
SAMPLES = 100_000
SEED = 1


def _rng_floor(rng, condition: str, count: int):
    """The generator calls of one ``check_hamiltonian`` chunk (SAMPLES is
    below its 200,000), in its order: x, then each sampled vector (normal
    direction, log-magnitude, zero mask), then the shift's vector or the
    sigma draw."""
    def vector(rmax):
        rng.standard_normal((count, 2))
        rng.uniform(-6.0, rmax, count)
        rng.random(count)

    rng.uniform(-10.0, 10.0, (count, 2))
    vector(3.0)
    vector(3.0)
    if condition == "shift_modulus":
        vector(1.0)
    elif condition in ("convexity_type", "sublinearization"):
        rng.uniform(0.0, 8.0, count)


def _exact(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def _child(repeats: int) -> dict:
    import hashlib

    import numpy as np

    from osserman_lab.operators import check_hamiltonian, hamiltonian_library

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    report = {}
    for tag in TAGS:
        H = hamiltonian_library(tag)
        times = {c: [] for c in H.claims}
        floor = {c: [] for c in H.claims}
        minflt = {c: [] for c in H.claims}
        margins, hashes = {}, {}
        for rep in range(repeats + 1):  # the first pass warms up
            rng = np.random.default_rng(SEED)
            plain = np.random.default_rng(SEED)
            for cond in H.claims:
                f0, t0 = faults(), time.perf_counter()
                result = check_hamiltonian(H, cond, SAMPLES, rng=rng)
                t1, f1 = time.perf_counter(), faults()
                _rng_floor(plain, cond, SAMPLES)
                t2 = time.perf_counter()
                if plain.bit_generator.state != rng.bit_generator.state:
                    raise RuntimeError(f"{tag}/{cond}: the floor's draws "
                                       "are not the sweep's")
                if rep:
                    times[cond].append(t1 - t0)
                    floor[cond].append(t2 - t1)
                    minflt[cond].append(f1 - f0)
                margins[cond] = result.worst_margin
                text = json.dumps([_exact(result.worst_margin),
                                   {k: _exact(v) for k, v in
                                    result.witness.items()}], sort_keys=True)
                hashes[cond] = hashlib.sha256(text.encode()).hexdigest()
        report[tag] = {
            cond: {"worst_margin": margins[cond],
                   "ms": 1e3 * statistics.median(times[cond]),
                   "rng_ms": 1e3 * statistics.median(floor[cond]),
                   "minflt": statistics.median(minflt[cond]),
                   "sha256": hashes[cond]}
            for cond in H.claims}
    return {"samples": SAMPLES, "repeats": repeats, "sweeps": report,
            "peak_rss_mb": peak_rss_mb()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", nargs="+", default=[ROOT],
                        help="checkout roots to run, each with a src/ directory")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed passes after one warm-up pass")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child:
        print(json.dumps(_child(args.repeats)))
        return 0

    report = {}
    for src in args.src:
        row = run_child(__file__, ["--child", "--repeats", str(args.repeats)],
                        os.path.abspath(src))
        print(json.dumps({"src": src, **row}), flush=True)
        report[src] = row
    if len(args.src) > 1:
        first = report[args.src[0]]["sweeps"]
        report["identical"] = {
            src: all(report[src]["sweeps"][tag][cond]["sha256"] == row["sha256"]
                     for tag, conds in first.items()
                     for cond, row in conds.items())
            for src in args.src[1:]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
