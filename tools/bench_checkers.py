"""Time the structure-condition sweeps of ``check-hamiltonian`` on one or
more checkouts.

    python3 tools/bench_checkers.py [--src CHECKOUT ...] [--sweeps 10]

For each of the three Hamiltonians of the benchmark's ``structure-checks``
workload (``prototype``, ``two_power`` and ``rational_factor`` with their
default constants) every claimed condition is swept at 100,000 samples.
One process imports every checkout's package (default: this script's
checkout) under a name of its own (``harness.load_checkout``). Each
checkout first runs the conditions as the CLI does, sharing one generator
seeded with 1, and records the generator state each condition starts
from. Then, per condition, one call per checkout runs that condition from
its recorded state, and ``harness.paired`` times these calls in
``--sweeps`` sweeps, the checkouts' order alternating from sweep to sweep.

Per condition the report holds, for each checkout:

- ``worst_margin``: the worst margin of its CLI-order run;
- ``ms``: the median milliseconds of one ``check_hamiltonian`` call and,
  after the first checkout, ``lower_than_first_in``: the sweeps in which
  it was lower than the first ("k of N");
- ``minflt``: the median minor page faults of one call (``ru_minflt``);

and, once, ``rng_ms``: the median milliseconds of the same generator calls
with the same shapes and in the same order, and no margins: the floor no
sweep gets below while the seeds fix its draws. It runs no checkout code,
so it is timed once; it must leave the generator in the state each
checkout's sweep left it in.

The one line of standard output is a JSON object: the checkouts in the
order given, the report of every condition and, per later checkout,
whether every condition's worst margin and witness equal the first
checkout's exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import ROOT, load_checkout, paired

TAGS = ("prototype", "two_power", "rational_factor")
SAMPLES = 100_000
SEED = 1


def _rng_floor(condition: str, count: int, rng):
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


def _from_state(state: dict, run, *args):
    """A call that sets one generator to ``state``, runs
    ``run(*args, rng=generator)`` and returns the generator's state."""
    import numpy as np

    rng = np.random.default_rng(SEED)

    def call():
        rng.bit_generator.state = state
        run(*args, rng=rng)
        return rng.bit_generator.state
    return call


def _cli_order(lab, tag: str):
    """Run every claimed condition of ``tag`` as the CLI does; return the
    Hamiltonian and, per condition, the generator state before and after
    it and its report."""
    import numpy as np

    H = lab.operators.hamiltonian_library(tag)
    rng = np.random.default_rng(SEED)
    runs = {}
    for cond in H.claims:
        before = rng.bit_generator.state
        result = lab.operators.check_hamiltonian(H, cond, SAMPLES, rng=rng)
        runs[cond] = (before, rng.bit_generator.state, result)
    return H, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", nargs="+", default=[ROOT],
                        help="checkout roots to run, each with a src/ directory")
    parser.add_argument("--sweeps", type=int, default=10,
                        help="timed sweeps per condition, checkouts alternating")
    args = parser.parse_args(argv)
    if args.sweeps < 1:
        parser.error("--sweeps must be at least 1")

    srcs = [os.path.abspath(src) for src in args.src]
    labs = [load_checkout(src, f"lab{i}") for i, src in enumerate(srcs)]
    report = {"src": srcs, "samples": SAMPLES, "sweeps": args.sweeps}
    identical = [True] * (len(labs) - 1)
    for tag in TAGS:
        orders = [_cli_order(lab, tag) for lab in labs]
        entry = {}
        for cond in orders[0][1]:
            runs = [cli[cond] for _, cli in orders]
            for before, after, _ in runs:
                if _from_state(before, _rng_floor, cond, SAMPLES)() != after:
                    raise RuntimeError(f"{tag}/{cond}: the floor's draws "
                                       "are not the sweep's")
            rows = paired([_from_state(before, lab.operators.check_hamiltonian,
                                       H, cond, SAMPLES)
                           for lab, (H, _), (before, _, _)
                           in zip(labs, orders, runs)], args.sweeps)
            floor = paired([_from_state(runs[0][0], _rng_floor, cond,
                                        SAMPLES)], args.sweeps)[0]
            results = [result for _, _, result in runs]
            for i, result in enumerate(results[1:]):
                identical[i] &= (result.worst_margin == results[0].worst_margin
                                 and result.witness == results[0].witness)
            entry[cond] = {
                "worst_margin": [result.worst_margin for result in results],
                "ms": [1e3 * row["median_s"] for row in rows],
                "lower_than_first_in": [row["lower_than_first_in"]
                                        for row in rows[1:]],
                "minflt": [row["minflt"] for row in rows],
                "rng_ms": 1e3 * floor["median_s"]}
        report[tag] = entry
    report["identical"] = identical
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
