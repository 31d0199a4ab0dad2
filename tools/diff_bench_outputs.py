"""Compare the files the benchmark's CLI calls write on two or more checkouts.

    python3 tools/diff_bench_outputs.py --src PARENT CHANGE [--seeds 1 2 3]

For each checkout a fresh child process imports the package from
``CHECKOUT/src`` and the workloads from ``CHECKOUT/perfbench`` (BLAS and
OpenMP threads set to 1). For every perfbench workload and seed it makes
the workload's config files, runs each operation once through
``osserman_lab.cli.main`` and applies the operation's own output check.

The last line of standard output is one JSON object: per checkout, the
operations whose check failed; and, per later checkout against the first,
the number of files compared, those byte-identical, and for every other
file the largest absolute difference of its numbers (CSV cells, JSON
values), or "differs" where the files differ in more than numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from harness import run_child


def _child(seeds: list, outdir: str) -> dict:
    from osserman_lab import cli
    from workloads import WORKLOADS

    failures = []
    for workload, make in WORKLOADS.items():
        for seed in seeds:
            workdir = os.path.join(outdir, f"{workload}-{seed}")
            os.makedirs(workdir)
            for op in make(seed, workdir):
                error = op.check(cli.main(op.argv))
                if error:
                    failures.append(f"{workload} seed {seed} {op.name}: {error}")
    return {"failures": failures}


def _numbers(path: str):
    """The numbers of a CSV or JSON file in reading order, or None."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".csv"):
        cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
        try:
            return [float(c) for c in cells]
        except ValueError:
            return None
    if path.endswith(".json"):
        found = []

        def walk(value):
            if isinstance(value, dict):
                for key in sorted(value):
                    walk(value[key])
            elif isinstance(value, list):
                for item in value:
                    walk(item)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                found.append(float(value))
        walk(json.loads(text))
        return found
    return None


def _compare(first: str, other: str) -> dict:
    files = sorted(os.path.relpath(os.path.join(d, f), first)
                   for d, _, names in os.walk(first) for f in names)
    identical, diffs = 0, {}
    for rel in files:
        a, b = os.path.join(first, rel), os.path.join(other, rel)
        if not os.path.exists(b):
            diffs[rel] = "missing"
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                identical += 1
                continue
        x, y = _numbers(a), _numbers(b)
        if x is None or y is None or len(x) != len(y):
            diffs[rel] = "differs"
        else:
            diffs[rel] = max(abs(u - v) for u, v in zip(x, y))
    return {"files": len(files), "byte_identical": identical,
            "max_abs_diff": diffs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", nargs="+", required=True,
                        help="checkout roots, the first is the baseline")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.seeds, args.child)))
        return 0

    import tempfile

    srcs = [os.path.abspath(src) for src in args.src]
    report = {"failures": {}, "diff": {}}
    with tempfile.TemporaryDirectory() as tmp:
        outdirs = []
        for i, src in enumerate(srcs):
            outdir = os.path.join(tmp, str(i))
            report["failures"][src] = run_child(
                __file__, ["--child", outdir, "--src", src, "--seeds",
                           *map(str, args.seeds)],
                src, dirs=("src", "perfbench"))["failures"]
            outdirs.append(outdir)
        for src, outdir in zip(srcs[1:], outdirs[1:]):
            report["diff"][src] = _compare(outdirs[0], outdir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
